"""Buchberger-based ideal computations under matrix monomial orders.

Covers reduced Groebner bases, multivariate division / normal forms,
saturation by a single variable (Bayer's revlex saturation of a
homogeneous ideal), variable elimination, and the dimension and degree of
a projective scheme read off the Hilbert series of one lead-term ideal,
which for a zero-dimensional scheme is its length.

Polynomials are the sparse exact-rational ones from `algebra`.  Reduction
is fraction-free: at the boundary each polynomial becomes a primitive
integer dict with a positive lead coefficient, a reduction step scales the
remainder by lead/gcd instead of dividing, common content is stripped
along the way, and the accumulated scale is divided out when the result
goes back to a Polynomial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from math import gcd

from .algebra import (
    AlgebraError,
    MatrixOrder,
    Mono,
    Polynomial,
    Ring,
    divide_out,
    divides,
)


class BudgetExceeded(Exception):
    """The configured cap on reduction steps was hit; the instance is beyond desk scale."""

    def __init__(self, budget: int):
        super().__init__(f"Groebner budget of {budget} reduction steps exceeded")
        self.budget = budget


class NotZeroDimensional(AlgebraError):
    pass


DEFAULT_BUDGET = 10**6


@dataclass
class Ideal:
    generators: list[Polynomial]
    ring: Ring

    def __init__(self, generators: Iterable[Polynomial], ring: Ring | None = None):
        gens = [g for g in generators if not g.is_zero()]
        if ring is None:
            if not gens:
                raise AlgebraError("cannot infer the ring of an empty ideal")
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise AlgebraError("ideal generators live in different rings")
        self.generators = gens
        self.ring = ring


@dataclass
class GroebnerBasis:
    elements: list[Polynomial]
    order: MatrixOrder
    reduced: bool = True


# ---------------------------------------------------------------------------
# reduction core (fraction-free over the integers, primitive basis elements)

def _lead(terms: dict, keyf) -> Mono:
    return max(terms, key=keyf)


def _content(terms: dict) -> int:
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g or 1


def _to_int(terms: dict, keyf):
    """Fraction term dict -> (primitive integer dict with positive lead, scale).

    The integer dict equals scale * (the input); reduction works over the
    integers and results are rescaled at the boundary.
    """
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {m: int(c * den) for m, c in terms.items()}
    g = _content(out)
    if g > 1:
        out = {m: c // g for m, c in out.items()}
    scale = Fraction(den, g)
    if out and out[_lead(out, keyf)] < 0:
        out = {m: -c for m, c in out.items()}
        scale = -scale
    return out, scale


def _normalize_int(terms: dict, keyf) -> dict:
    """Strip content and make the lead coefficient positive."""
    g = _content(terms)
    out = {m: c // g for m, c in terms.items()} if g > 1 else dict(terms)
    if out[_lead(out, keyf)] < 0:
        out = {m: -c for m, c in out.items()}
    return out


class _NegKey:
    """Max-heap adapter: heapq pops the order-largest monomial first."""

    __slots__ = ("key", "mono")

    def __init__(self, key, mono):
        self.key = key
        self.mono = mono

    def __lt__(self, other):
        return self.key > other.key


class _Reducer:
    """Shared full-reduction machinery with a step budget.

    Works with integer coefficients: a reduction against a primitive basis
    element of lead coefficient L scales the remainder by L/gcd instead of
    introducing fractions, and the accumulated scale is divided out when the
    content is stripped or at the boundary.
    """

    def __init__(self, keyf, budget: int = DEFAULT_BUDGET):
        self.keyf = keyf
        self.budget = budget
        self.steps = 0

    def reduce(self, target: dict, basis: list) -> dict:
        rem, _ = self.reduce_scaled(target, basis)
        return rem

    def reduce_scaled(self, target: dict, basis: list) -> tuple[dict, Fraction]:
        """(R, lam) with R = lam * (target mod basis); basis entries are
        (lead mono, positive lead coeff, tail dict)."""
        keyf = self.keyf
        work = dict(target)
        out: dict = {}
        lam = Fraction(1)
        heap = [_NegKey(keyf(m), m) for m in work]
        heapq.heapify(heap)
        queued = set(work)
        since_strip = 0
        while heap:
            m = heapq.heappop(heap).mono
            queued.discard(m)
            c = work.pop(m, 0)
            if not c:
                continue
            hit = None
            for lm, lc, tail in basis:
                if divides(lm, m):
                    hit = (lm, lc, tail)
                    break
            if hit is None:
                out[m] = c
                continue
            self.steps += 1
            if self.steps > self.budget:
                raise BudgetExceeded(self.budget)
            lm, lc, tail = hit
            d = gcd(c, lc)
            scale, mult = lc // d, c // d
            if scale != 1:
                for k in work:
                    work[k] *= scale
                for k in out:
                    out[k] *= scale
                lam *= scale
            shift = tuple(a - b for a, b in zip(m, lm))
            for mg, cg in tail.items():
                mm = tuple(a + b for a, b in zip(shift, mg))
                s = work.get(mm, 0) - mult * cg
                if s:
                    work[mm] = s
                    if mm not in queued:
                        queued.add(mm)
                        heapq.heappush(heap, _NegKey(keyf(mm), mm))
                else:
                    work.pop(mm, None)
            since_strip += 1
            if since_strip >= 48:
                since_strip = 0
                g = _content(work)
                g = gcd(g, _content(out)) if out else g
                if g > 1:
                    for k in work:
                        work[k] //= g
                    for k in out:
                        out[k] //= g
                    lam /= g
        return out, lam


def _spoly(f: tuple, g: tuple, keyf) -> dict:
    """Integer S-polynomial of primitive (lead, lead coeff, tail) entries."""
    lf, cf, tf = f
    lg, cg, tg = g
    d = gcd(cf, cg)
    af, ag = cg // d, cf // d
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    out: dict = {}
    for m, c in tf.items():
        out[tuple(a + b for a, b in zip(sf, m))] = af * c
    for m, c in tg.items():
        mm = tuple(a + b for a, b in zip(sg, m))
        s = out.get(mm, 0) - ag * c
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def buchberger(ideal: Ideal, order: MatrixOrder, budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order.

    Normal pair selection on (sugar, lcm); the Gebauer-Moeller update plus
    the product criterion covers Buchberger's first and second criteria.
    """
    keyf = order.key
    red = _Reducer(keyf, budget)
    ring = ideal.ring

    basis: list[tuple] = []  # (lead, positive lead coeff, integer tail)
    sugars: list[int] = []
    pairs: set[tuple[int, int]] = set()

    def wdeg(m: Mono) -> int:
        return ring.mono_degree(m)

    def lcm(m1: Mono, m2: Mono) -> Mono:
        return tuple(max(a, b) for a, b in zip(m1, m2))

    def add_element(terms: dict, sugar: int):
        # terms: primitive integer dict with positive lead coefficient
        lead = _lead(terms, keyf)
        lc = terms[lead]
        tail = {m: c for m, c in terms.items() if m != lead}
        k = len(basis)
        kept = set()
        for (i, j) in pairs:
            lij = lcm(basis[i][0], basis[j][0])
            if (not divides(lead, lij)) or lcm(basis[i][0], lead) == lij \
                    or lcm(basis[j][0], lead) == lij:
                kept.add((i, j))
        new_lcms: dict[Mono, list[int]] = {}
        for i in range(k):
            new_lcms.setdefault(lcm(basis[i][0], lead), []).append(i)
        minimal: list[Mono] = []
        for L in sorted(new_lcms, key=keyf):
            if all(not divides(M, L) for M in minimal):
                minimal.append(L)
        fresh = set()
        for L in minimal:
            coprime = any(
                L == tuple(a + b for a, b in zip(basis[i][0], lead))
                for i in new_lcms[L]
            )
            if not coprime:
                fresh.add((min(new_lcms[L]), k))
        basis.append((lead, lc, tail))
        sugars.append(sugar)
        pairs.clear()
        pairs.update(kept | fresh)

    for g in sorted(ideal.generators, key=lambda p: keyf(_lead(p.terms, keyf))):
        ig, _ = _to_int(g.terms, keyf)
        add_element(ig, g.degree())

    def pair_key(p):
        i, j = p
        L = lcm(basis[i][0], basis[j][0])
        sug = max(
            sugars[i] + wdeg(tuple(a - b for a, b in zip(L, basis[i][0]))),
            sugars[j] + wdeg(tuple(a - b for a, b in zip(L, basis[j][0]))),
        )
        return (sug, keyf(L), i, j)

    while pairs:
        best = min(pairs, key=pair_key)
        pairs.discard(best)
        sug = pair_key(best)[0]
        s = _spoly(basis[best[0]], basis[best[1]], keyf)
        if not s:
            continue
        rem = red.reduce(s, basis)
        if rem:
            add_element(_normalize_int(rem, keyf), sug)

    keep: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: keyf(basis[i][0])):
        if all(not divides(basis[k][0], basis[i][0]) for k in keep):
            keep.append(i)
    minimal_basis = [basis[i] for i in keep]

    polys: list[Polynomial] = []
    for i, (lead, lc, tail) in enumerate(minimal_basis):
        others = [minimal_basis[k] for k in range(len(minimal_basis)) if k != i]
        full = dict(tail)
        full[lead] = lc
        rem = red.reduce(full, others)
        rem = _normalize_int(rem, keyf)
        rl = rem[_lead(rem, keyf)]
        polys.append(Polynomial(ring, {m: Fraction(c, rl) for m, c in rem.items()},
                                _clean=True))
    polys.sort(key=lambda p: keyf(_lead(p.terms, keyf)))
    return GroebnerBasis(polys, order)


def normal_form(p: Polynomial, basis, order: MatrixOrder | None = None,
                budget: int = DEFAULT_BUDGET) -> Polynomial:
    """Remainder of multivariate division of p by a basis.

    Against a Groebner basis the remainder is canonical and vanishes exactly
    on ideal members; against a raw generator list a zero remainder still
    certifies membership (a nonzero one proves nothing).
    """
    if isinstance(basis, GroebnerBasis):
        order = basis.order
        polys = basis.elements
    else:
        polys = list(basis)
        if order is None:
            order = MatrixOrder.grevlex(p.ring)
    if p.is_zero():
        return p
    keyf = order.key
    prepped = []
    for g in polys:
        if g.is_zero():
            continue
        t, _ = _to_int(g.terms, keyf)
        lead = _lead(t, keyf)
        prepped.append((lead, t[lead], {m: c for m, c in t.items() if m != lead}))
    prepped.sort(key=lambda e: keyf(e[0]))
    red = _Reducer(keyf, budget)
    target, scale = _to_int(p.terms, keyf)
    rem, lam = red.reduce_scaled(target, prepped)
    factor = lam * scale
    return Polynomial(p.ring, {m: Fraction(c) / factor for m, c in rem.items()},
                      _clean=True)


# ---------------------------------------------------------------------------
# saturation and elimination

def saturate(ideal: Ideal, var: str, budget: int = DEFAULT_BUDGET,
             weights: Sequence[int] | None = None) -> Ideal:
    """(I : var^inf) by Bayer's revlex saturation.

    Theorem (Bayer-Stillman 1987; Eisenbud, Commutative Algebra, 15.10):
    let I be homogeneous for a positive grading w and G a Groebner basis of
    I under a w-graded order in which var is the smallest variable among
    monomials of equal w-degree.  Then var divides the lead term of an
    element of G only if it divides the element, so in(I : var^inf) =
    in(I) : var^inf and the elements of G, each divided by its largest power
    of var, form a Groebner basis of I : var^inf under the same order,
    `MatrixOrder.grevlex(ring, w, last=var)`.  w defaults to the ring's top
    weight row; a non-positive w or a generator that is not w-homogeneous
    raises AlgebraError, since the theorem does not apply.
    """
    ring = ideal.ring
    if var not in ring.index:
        raise AlgebraError(f"{var!r} is not a ring variable")
    w = tuple(weights) if weights is not None else ring.top
    if len(w) != ring.nvars or any(x <= 0 for x in w):
        raise AlgebraError(f"saturation needs a positive grading, got weights {w}")
    _require_homogeneous(ideal, w)
    gb = buchberger(ideal, MatrixOrder.grevlex(ring, w, last=var), budget)
    out = [divide_out(g, var)[0] for g in gb.elements]
    return Ideal(out, ring) if out else _trivial_ideal(ring)


def _require_homogeneous(ideal: Ideal, w: Sequence[int]) -> None:
    for g in ideal.generators:
        if len({sum(a * e for a, e in zip(w, m)) for m in g.terms}) > 1:
            raise AlgebraError(f"generator is not homogeneous for weights {w}: {g}")


def eliminate(ideal: Ideal, names: Iterable[str], budget: int = DEFAULT_BUDGET) -> Ideal:
    """Generators of I intersected with the subring omitting `names`."""
    names = list(names)
    if not names:
        return ideal
    ring = ideal.ring
    for nm in names:
        if nm not in ring.index:
            raise AlgebraError(f"{nm!r} is not a ring variable")
    order = MatrixOrder.block(ring, names, weights=(1,) * ring.nvars)
    gb = buchberger(ideal, order, budget)
    out = [g for g in gb.elements if all(g.max_degree_in(nm) == 0 for nm in names)]
    return Ideal(out, ring) if out else _trivial_ideal(ring)


def _trivial_ideal(ring: Ring) -> Ideal:
    ideal = Ideal.__new__(Ideal)
    ideal.generators = []
    ideal.ring = ring
    return ideal


# ---------------------------------------------------------------------------
# Hilbert series of a lead-term ideal

def hilbert_numerator(lead_monos: Sequence[Mono], nvars: int) -> list[int]:
    """Coefficients of N(u) with sum_d #std(d) u^d = N(u) / (1-u)^nvars.

    Variables are weighted 1; works by the colon recursion
    N(J + <m>) = N(J) - u^deg(m) * N(J : m) on minimalized monomial sets.
    """

    def minimalize(ms) -> frozenset:
        keep: list[Mono] = []
        for m in sorted(ms, key=lambda x: (sum(x), x)):
            if not any(divides(k, m) for k in keep):
                keep.append(m)
        return frozenset(keep)

    cache: dict[frozenset, tuple] = {}

    def poly_sub(a: tuple, b: tuple, shift: int) -> tuple:
        out = list(a) + [0] * max(0, shift + len(b) - len(a))
        for i, c in enumerate(b):
            out[shift + i] -= c
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def go(ms: frozenset) -> tuple:
        if not ms:
            return (1,)
        got = cache.get(ms)
        if got is not None:
            return got
        m = max(ms, key=lambda x: (sum(x), x))
        rest = minimalize(x for x in ms if x != m)
        colon = minimalize(tuple(max(e - f, 0) for e, f in zip(x, m)) for x in rest)
        out = poly_sub(go(rest), go(colon), sum(m))
        cache[ms] = out
        return out

    return list(go(minimalize(tuple(m) for m in lead_monos)))


def projective_dim_degree(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(projective dimension, degree) of Proj(ring/ideal) for weights all 1."""
    ring = ideal.ring
    order = MatrixOrder.grevlex(ring, weights=(1,) * ring.nvars)
    gb = buchberger(ideal, order, budget)
    keyf = order.key
    leads = [_lead(g.terms, keyf) for g in gb.elements]
    num = hilbert_numerator(leads, ring.nvars)
    if not num:
        return (-1, 0)  # unit ideal: empty
    strips = 0
    while sum(num) == 0:
        acc = 0
        out = []
        for c in num:
            acc += c
            out.append(acc)
        assert out[-1] == 0
        out.pop()
        num = out
        strips += 1
    return (ring.nvars - strips - 1, int(sum(num)))


def zero_dim_degree(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> int:
    """Length of a zero-dimensional subscheme of projective space.

    Theorem (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, Ch. 9):
    for an ideal generated by polynomials homogeneous in total degree, the
    Hilbert polynomial of ring/ideal is the constant equal to the length of
    the scheme when that scheme is zero-dimensional.  The length is then the
    degree `projective_dim_degree` reads off one Groebner basis.  An empty
    scheme has length 0; a positive-dimensional one raises
    NotZeroDimensional and a generator that is not homogeneous in total
    degree raises AlgebraError, since the theorem does not apply.
    """
    _require_homogeneous(ideal, (1,) * ideal.ring.nvars)
    dim, deg = projective_dim_degree(ideal, budget)
    if dim > 0:
        raise NotZeroDimensional(f"the scheme has dimension {dim}")
    return deg if dim == 0 else 0
