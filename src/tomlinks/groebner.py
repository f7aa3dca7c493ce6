"""Buchberger-based ideal computations under matrix monomial orders.

Covers reduced Groebner bases, multivariate division / normal forms,
minimal generators of a graded ideal, membership in a graded ideal,
saturation by a single variable and the test whether an ideal is already
saturated (both from one basis, by Bayer's revlex saturation of a
homogeneous ideal), and the dimension and degree of a projective scheme
read off the Hilbert series of one lead-term ideal, which for a
zero-dimensional scheme is its length.

Minimal generators come from graded Nakayama (Kreuzer-Robbiano,
Computational Commutative Algebra 2, 4.6): let I be generated by forms
that are homogeneous for a positive grading w, so the degree-0 part of the
ring is the field.  Then a subset of the generators generates I minimally
iff it generates I and none of its elements lies in the ideal of the
others, and all minimal generating sets have the same number of elements
in each degree.  Taking the generators in increasing degree and keeping
each one that is not in the ideal of those kept before it gives such a
subset.  `minimal_generators` decides each membership in one Buchberger
run, reducing pairs only while a verdict is open: every basis element lies
in the ideal J of the generators kept so far, so a zero remainder against
the basis built so far is a standard representation and certifies g in J
however few pairs have been reduced, while a nonzero remainder certifies
g not in J only against a basis complete up to g's degree.

`contains` decides membership in a fixed graded ideal by the same loop,
`_Run.settle`.  Once every pair of sugar <= d has been reduced the
basis is d-truncated Groebner (Kreuzer-Robbiano, 4.5): a basis lead
divides the lead of every ideal element of degree <= d.  So a target of
top degree d is decided without any pair above d, and a member often
before most pairs below it.  The unprojection needs exactly this check,
y_i g_j - y_j g_i in the pfaffian ideal, where a complete reduced basis
and six normal forms reduce many pairs that decide nothing.

Polynomials are the sparse ones from `algebra`, whose coefficients are
ints when integral and Fractions otherwise.  Reduction is fraction-free:
at the boundary each polynomial becomes a primitive integer dict with a
positive lead coefficient (a polynomial with integer coefficients only
loses its content), a reduction step scales the remainder by lead/gcd
instead of dividing, and the scale accumulates as one int.  Content is
stripped only at the boundary: a remainder that joins a basis is made
primitive, and a normal form is divided by its accumulated scale, by
Fraction, when it goes back to a Polynomial, whose constructor makes
integral quotients ints again.  A strip in mid-reduction would cost a gcd
over the whole remainder and change no result, since the boundary strips
anyway.

Inside the kernel a monomial is its packed `MatrixOrder.key`, one int
linear in the exponents (see `MatrixOrder` for the layout): the order is
int comparison, so the largest pending term is the top of a heap of
negated keys; multiplying by a monomial adds its key; b/a is key(b) -
key(a), and a divides b iff that difference has no guard bit set.
Exponents must stay below 2^31: every monomial the kernel makes by
addition (S-polynomial and reduction terms) is checked against the guard
mask, and a field that would overflow raises AlgebraError instead of
wrapping.  Keys are made when a polynomial enters and unpacked when a
result leaves, so results, a `GroebnerBasis` too, leave as Polynomials
only.  A run also keeps its basis leads as exponent tuples, for the lcms
and sugars it computes once per pair; a sugar is a degree in the order's
first row, the grading that a graded order refines.  Each routine call is
one run, `_Run`, with its own step counter: a budget caps one Groebner
computation, not a chain of them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence

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
    """The configured cap on reduction steps was hit; the instance is beyond desk scale.

    `routine` names the Groebner routine whose run hit the cap (buchberger,
    minimal_generators, contains or normal_form), or is None when the raiser
    did not say.
    """

    def __init__(self, budget: int, routine: str | None = None):
        # args are the constructor's, so a pickled copy rebuilds the same error
        super().__init__(budget, routine)
        self.budget = budget
        self.routine = routine

    def __str__(self) -> str:
        where = f" in {self.routine}" if self.routine else ""
        return f"Groebner budget of {self.budget} reduction steps exceeded{where}"


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


# ---------------------------------------------------------------------------
# reduction core (fraction-free over the integers, primitive basis elements,
# monomials as packed order keys)

def _to_int(terms: dict, order: MatrixOrder) -> dict:
    """The primitive integer multiple, with positive lead, of a nonzero
    rational term dict, keyed by packed monomials."""
    den = lcm(*(c.denominator for c in terms.values()))
    key = order.key
    return _normalize_int({key(m): int(c * den) for m, c in terms.items()})


def _normalize_int(terms: dict) -> dict:
    """Strip content and make the lead coefficient positive; a nonzero input
    that already is so comes back itself."""
    g = gcd(*terms.values())
    out = {m: c // g for m, c in terms.items()} if g > 1 else terms
    if out[max(out)] < 0:
        out = {m: -c for m, c in out.items()}
    return out


def _entry(terms: dict) -> tuple:
    """(lead, lead coefficient, tail list) of a nonzero packed term dict."""
    lead = max(terms)
    return lead, terms[lead], [(m, c) for m, c in terms.items() if m != lead]


def _overflow() -> AlgebraError:
    return AlgebraError("a product monomial has an exponent of 2^31 or more")


def _spoly(f: tuple, g: tuple, joint: int, guard: int) -> dict:
    """Integer S-polynomial of primitive (lead, lead coeff, tail) entries
    whose leads have the packed lcm `joint`."""
    lf, cf, tf = f
    lg, cg, tg = g
    d = gcd(cf, cg)
    af, ag = cg // d, cf // d
    sf, sg = joint - lf, joint - lg
    out: dict = {}
    for m, c in tf:
        mm = sf + m
        if mm & guard:
            raise _overflow()
        out[mm] = af * c
    for m, c in tg:
        mm = sg + m
        if mm & guard:
            raise _overflow()
        s = out.get(mm, 0) - ag * c
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


class _Run:
    """One Groebner computation: its order, step budget, basis and pairs.

    Reduction works with integer coefficients: a step against a primitive
    basis element of lead coefficient L scales the remainder by L/gcd
    instead of introducing fractions, so the accumulated scale is a plain
    int.  The remainder's content is left in until the caller's boundary
    strips it (a new basis element is made primitive, a normal form is
    divided by its scale): the primitive result is the same either way, and
    a strip in mid-reduction costs a gcd over every pending term.
    Monomials are packed keys of one order, so a lead test is one
    subtraction and one AND, and a step shifts each tail term by one
    addition.  A full reduction reduces every term.  With `lead_only` it
    stops at the first term no basis lead divides, which is then the
    remainder's lead, and the pending terms go out unreduced: enough for a
    caller that only reads the lead or asks whether the remainder is zero.

    `add` is the Gebauer-Moeller update, which with the product criterion
    covers Buchberger's first and second criteria.  Pairs leave in normal
    order of (sugar, lcm), the sugar measured by w, the order's first row:
    the grading that a graded order refines (Giovini-Mora-Niesi-Robbiano-
    Traverso, "One sugar cube, please", ISSAC 1991).  Leads are also kept
    as exponent tuples, for the lcms and sugars, which are computed once
    per pair; pairs the update drops are skipped when they reach the top of
    the heap.

    The constructor loads `generators` in increasing lead, each with the
    degree of its lead as sugar.  `routine` names the Groebner routine that
    owns the budget, for `BudgetExceeded`.  Reduction need not stop under an
    order that is not a well-order, so such an order raises AlgebraError
    before anything is loaded.
    """

    def __init__(self, order: MatrixOrder, budget: int, routine: str,
                 generators: Iterable[Polynomial] = (), lead_only: bool = False):
        if not order.well_ordered:
            raise AlgebraError(f"{routine} needs a well-order, got rows {order.rows}")
        self.order = order
        self.guard = order.guard
        self.w = order.rows[0]
        self.budget = budget
        self.routine = routine
        self.lead_only = lead_only
        self.steps = 0
        self.basis: list[tuple] = []  # (lead, positive lead coeff, integer tail), packed
        self.leads: list[Mono] = []  # the basis leads as exponent tuples
        self.sugars: list[int] = []
        self.live: set[tuple[int, int]] = set()
        self.heap: list[tuple] = []
        for terms in sorted((_to_int(g.terms, order) for g in generators), key=max):
            self.add(terms, self.wdeg(order.unpack(max(terms))))

    def wdeg(self, m: Mono) -> int:
        return sum(a * e for a, e in zip(self.w, m) if e)

    def reduce(self, target: dict, basis: list) -> tuple[dict, int]:
        """(R, lam) with R = lam * (target mod basis), reduced lead-only or
        fully; basis entries are (lead, positive lead coeff, tail list), all
        monomials packed."""
        guard = self.guard
        work = dict(target)
        out: dict = {}
        lam = 1
        # a key is pushed once while it is in `work`; a cancelled term stays
        # there with coefficient 0 until it is popped
        heap = [-m for m in work]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)
            c = work.pop(m)
            if not c:
                continue
            for lm, lc, tail in basis:
                if not (m - lm) & guard:
                    break
            else:
                out[m] = c
                if self.lead_only:
                    out.update((k, v) for k, v in work.items() if v)
                    break
                continue
            self.steps += 1
            if self.steps > self.budget:
                raise BudgetExceeded(self.budget, self.routine)
            d = gcd(c, lc)
            scale, mult = lc // d, c // d
            if scale != 1:
                for k in work:
                    work[k] *= scale
                for k in out:
                    out[k] *= scale
                lam *= scale
            shift = m - lm
            for mg, cg in tail:
                mm = shift + mg
                if mm & guard:
                    raise _overflow()
                old = work.get(mm)
                if old is None:
                    work[mm] = -mult * cg
                    heapq.heappush(heap, -mm)
                else:
                    work[mm] = old - mult * cg
        return out, lam

    def add(self, terms: dict, sugar: int) -> None:
        """Append a primitive packed integer dict with positive lead coefficient."""
        keyf, leads = self.order.key, self.leads
        entry = _entry(terms)
        lead = self.order.unpack(entry[0])
        k = len(leads)
        kept = set()
        for (i, j) in self.live:
            lij = _lcm(leads[i], leads[j])
            if (not divides(lead, lij)) or _lcm(leads[i], lead) == lij \
                    or _lcm(leads[j], lead) == lij:
                kept.add((i, j))
        new_lcms: dict[Mono, list[int]] = {}
        for i in range(k):
            new_lcms.setdefault(_lcm(leads[i], lead), []).append(i)
        minimal: list[Mono] = []
        for L in sorted(new_lcms, key=keyf):
            if all(not divides(M, L) for M in minimal):
                minimal.append(L)
        self.basis.append(entry)
        leads.append(lead)
        self.sugars.append(sugar)
        for L in minimal:
            coprime = any(
                L == tuple(map(add, leads[i], lead))
                for i in new_lcms[L]
            )
            if not coprime:
                i = min(new_lcms[L])
                sug = max(self.sugars[i] + self.wdeg(tuple(map(sub, L, leads[i]))),
                          sugar + self.wdeg(tuple(map(sub, L, lead))))
                kept.add((i, k))
                heapq.heappush(self.heap, (sug, keyf(L), i, k))
        self.live = kept

    def next_sugar(self) -> int | None:
        """Sugar of the next pair, or None when no pair is left."""
        heap = self.heap
        while heap and heap[0][2:] not in self.live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def reduce_next(self) -> bool:
        """Reduce the next pair's S-polynomial; a nonzero remainder joins the
        basis, and the return value says whether one did."""
        self.next_sugar()  # drops dead pairs from the top of the heap
        sug, joint, i, j = heapq.heappop(self.heap)
        self.live.discard((i, j))
        s = _spoly(self.basis[i], self.basis[j], joint, self.guard)
        rem = self.reduce(s, self.basis)[0] if s else None
        if rem:
            self.add(_normalize_int(rem), sug)
        return bool(rem)

    def settle(self, target: dict, d: int) -> dict:
        """The lead-only remainder of a packed integer target of top degree d
        against the basis, reducing the pending pairs of sugar <= d one at a
        time while it is nonzero and reducing it again after each pair that
        adds a basis element.

        Every basis element lies in the ideal J the basis generates, so a
        zero remainder is a standard representation and proves the target
        in J however few pairs have been reduced.  A nonzero remainder is
        returned only once no pair of sugar <= d is left; the basis is then
        a d-truncated Groebner basis of J (with the generators of degree
        <= d in it, w positive and every element w-homogeneous), so every
        element of J of degree <= d has a lead that a basis lead divides,
        and the remainder proves the target not in J.

        Lead-only reduction, of a pair or of the target, stops at the first
        term that no basis lead divides; that term is the lead of the full
        remainder too, so zero versus nonzero is unchanged.  A basis element
        with an unreduced tail is still an element of J with the same lead,
        and any reduction to zero is a standard representation, so
        Buchberger's criterion holds for the truncated basis without reduced
        tails (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, Ch. 2
        Sec. 6).
        """
        rem, _ = self.reduce(target, self.basis)
        while rem and (sug := self.next_sugar()) is not None and sug <= d:
            if self.reduce_next():
                rem, _ = self.reduce(rem, self.basis)
        return rem


def _lcm(m1: Mono, m2: Mono) -> Mono:
    return tuple(map(max, m1, m2))


def _polynomial(ring: Ring, order: MatrixOrder, terms: dict, factor) -> Polynomial:
    """The Polynomial of a packed term dict, each coefficient divided by factor."""
    unpack = order.unpack
    return Polynomial(ring, {unpack(m): Fraction(c) / factor for m, c in terms.items()})


def buchberger(ideal: Ideal, order: MatrixOrder, budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order.

    Sugar is measured by the order's first row, the sugar of a generator
    being the degree of its lead (see `_Run`).  The minimal basis is kept in
    increasing lead, and interreduction keeps each lead, so the elements
    come out in increasing lead.
    """
    run = _Run(order, budget, "buchberger", ideal.generators)
    while run.live:
        run.reduce_next()
    basis, guard = run.basis, order.guard

    keep: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: basis[i][0]):
        if all((basis[i][0] - basis[k][0]) & guard for k in keep):
            keep.append(i)
    minimal_basis = [basis[i] for i in keep]

    elements: list[Polynomial] = []
    for i, (lead, lc, tail) in enumerate(minimal_basis):
        others = [minimal_basis[k] for k in range(len(minimal_basis)) if k != i]
        full = dict(tail)
        full[lead] = lc
        # no other lead divides `lead`, so it stays the remainder's lead
        rem, _ = run.reduce(full, others)
        elements.append(_polynomial(ideal.ring, order, rem, rem[lead]))
    return GroebnerBasis(elements, order)


def minimal_generators(ideal: Ideal, order: MatrixOrder,
                       budget: int = DEFAULT_BUDGET) -> list[Polynomial]:
    """A minimal generating set of a graded ideal, chosen from its generators.

    w, the order's first row, must be a positive grading for which every
    generator is homogeneous (see the module docstring for the theorem);
    otherwise AlgebraError.  Generators enter in increasing (w-degree,
    length) order, input order breaking ties.  A generator g of degree d is
    settled by `_Run.settle` against the basis of the generators kept so
    far, an ideal J that grows as generators are kept:

    - a zero remainder proves g in J, and g is dropped with the remaining
      pairs still queued;
    - a nonzero remainder comes back only once every pair of sugar <= d is
      done, and proves g not in J; g is kept, and the remainder joins the
      basis with sugar d.

    Later generators have degree >= d, so a pair left queued by a dropped
    generator is still reduced before any later verdict of "not in J".
    The run stops after the last generator, so no pair above the top
    generator degree is reduced.  Kept generators are returned unchanged,
    in entry order.
    """
    _grading(ideal, order, "minimal_generators")
    run = _Run(order, budget, "minimal_generators", lead_only=True)

    def degree(g: Polynomial) -> int:
        return run.wdeg(next(iter(g.terms)))

    kept: list[Polynomial] = []
    for g in sorted(ideal.generators, key=lambda g: (degree(g), len(g))):
        d = degree(g)
        rem = run.settle(_to_int(g.terms, order), d)
        if rem:
            kept.append(g)
            run.add(_normalize_int(rem), d)
    return kept


def contains(ideal: Ideal, polys: Sequence[Polynomial], order: MatrixOrder,
             budget: int = DEFAULT_BUDGET) -> list[bool]:
    """Whether each polynomial lies in a graded ideal, in input order.

    Same hypotheses as `minimal_generators`: w, the order's first row, must
    be a positive grading for which every generator is homogeneous, else
    AlgebraError.  All generators enter one run, and the targets are
    settled by `_Run.settle` in increasing top w-degree d: a zero
    remainder proves membership however few pairs have been reduced, a
    nonzero one comes back only from a d-truncated basis and proves
    non-membership.  That holds for a target that is not homogeneous too:
    the ideal is homogeneous, so a member's homogeneous parts are members,
    and the order is w-graded, so the remainder's lead is that of its top
    part.  A remainder never joins the basis, and no pair of sugar above
    the top target degree is reduced.  The zero polynomial is a member.
    """
    _grading(ideal, order, "contains")
    ring = ideal.ring
    run = _Run(order, budget, "contains", ideal.generators, lead_only=True)
    targets = []
    for k, p in enumerate(polys):
        if p.ring != ring:
            raise AlgebraError("a polynomial and the ideal live in different rings")
        if not p.is_zero():
            t = _to_int(p.terms, order)
            targets.append((run.wdeg(order.unpack(max(t))), k, t))
    verdicts = [True] * len(polys)
    for d, k, t in sorted(targets, key=lambda dkt: dkt[:2]):
        verdicts[k] = not run.settle(t, d)
    return verdicts


def normal_form(p: Polynomial, basis, order: MatrixOrder | None = None,
                budget: int = DEFAULT_BUDGET) -> Polynomial:
    """Remainder of multivariate division of p by a basis.

    Against a Groebner basis the remainder is canonical and vanishes exactly
    on ideal members; against a raw generator list a zero remainder still
    certifies membership (a nonzero one proves nothing).
    """
    if p.is_zero():
        return p
    if isinstance(basis, GroebnerBasis):
        order, basis = basis.order, basis.elements
    elif order is None:
        order = MatrixOrder.grevlex(p.ring)
    prepped = sorted((_entry(_to_int(g.terms, order)) for g in basis if not g.is_zero()),
                     key=lambda e: e[0])
    run = _Run(order, budget, "normal_form")
    target = _to_int(p.terms, order)
    rem, lam = run.reduce(target, prepped)
    k = next(iter(target))  # target is one rational multiple of p
    return _polynomial(p.ring, order, rem, lam * Fraction(target[k], p.terms[order.unpack(k)]))


# ---------------------------------------------------------------------------
# saturation

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
    gb = buchberger(ideal, _saturation_order(ideal, var, weights), budget)
    out = [divide_out(g, var)[0] for g in gb.elements]
    return Ideal(out, ideal.ring)


def is_saturated(ideal: Ideal, var: str, budget: int = DEFAULT_BUDGET,
                 weights: Sequence[int] | None = None) -> bool:
    """Whether I = I : var^inf, from the one reduced Groebner basis G of I
    in the order of `saturate` (same hypotheses, same AlgebraError).

    I is saturated iff no element of G has the factor var.  If none has,
    Bayer's theorem makes G itself a basis of I : var^inf.  If var divides
    g in G, then g/var lies in I : var^inf; were that I, lead(g)/var would
    lie in in(I), so the lead of another element of G would divide lead(g),
    which a reduced basis forbids.
    """
    gb = buchberger(ideal, _saturation_order(ideal, var, weights), budget)
    i = ideal.ring.index[var]
    return all(any(m[i] == 0 for m in g.terms) for g in gb.elements)


def _saturation_order(ideal: Ideal, var: str, weights: Sequence[int] | None) -> MatrixOrder:
    """The order of Bayer's theorem for I and var, once its hypotheses hold."""
    ring = ideal.ring
    if var not in ring.index:
        raise AlgebraError(f"{var!r} is not a ring variable")
    w = tuple(weights) if weights is not None else ring.top
    if len(w) != ring.nvars:
        raise AlgebraError(f"saturation needs {ring.nvars} weights, one per variable, got {w}")
    order = MatrixOrder.grevlex(ring, w, last=var)
    _grading(ideal, order, "saturation")
    return order


def _grading(ideal: Ideal, order: MatrixOrder, routine: str) -> None:
    """Refuse the ideal unless the order's first row is a positive grading
    for which every generator is homogeneous."""
    w = order.rows[0]
    if any(x <= 0 for x in w):
        raise AlgebraError(f"{routine} needs a positive grading, got weights {w}")
    for g in ideal.generators:
        if len({sum(a * e for a, e in zip(w, m)) for m in g.terms}) > 1:
            raise AlgebraError(f"generator is not homogeneous for weights {w}: {g}")


# ---------------------------------------------------------------------------
# Hilbert series of a lead-term ideal

def hilbert_numerator(lead_monos: Sequence[Mono]) -> list[int]:
    """Coefficients of N(u) with sum_d #std(d) u^d = N(u) / (1-u)^n, n the
    number of variables.

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
    """(projective dimension, degree) of Proj(ring/ideal) for weights all 1;
    a generator not homogeneous in total degree raises AlgebraError."""
    ring = ideal.ring
    order = MatrixOrder.grevlex(ring, weights=(1,) * ring.nvars)
    _grading(ideal, order, "projective_dim_degree")
    gb = buchberger(ideal, order, budget)
    num = hilbert_numerator([max(g.terms, key=order.key) for g in gb.elements])
    if not num:
        return (-1, 0)  # unit ideal: empty
    # N(u) = (1-u)^k Q(u) with Q(1) != 0 gives dimension n - k - 1 and degree
    # Q(1); S_j = N^(j)(1)/j! = sum_i c_i C(i, j) is 0 for j < k and
    # (-1)^k Q(1) at j = k
    taylor = (sum(c * comb(i, j) for i, c in enumerate(num)) for j in range(len(num)))
    k, s = next((j, s) for j, s in enumerate(taylor) if s)
    return (ring.nvars - k - 1, (-1) ** k * s)


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
    dim, deg = projective_dim_degree(ideal, budget)
    if dim > 0:
        raise NotZeroDimensional(f"the scheme has dimension {dim}")
    return deg if dim == 0 else 0
