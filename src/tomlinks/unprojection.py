"""Type I unprojection of a Tom matrix: the four equations s*y_j = g_j.

Given a Tom_k matrix M over P^6(a,b,c,d1..d4), the construction (after
relabelling so the unconstrained row is row 1):

  * decompose each constrained entry as sum_j alpha_j * y_j,
  * form N_j by replacing constrained entries with their alpha_j,
  * Q[i][j] = i-th linear pfaffian of N_j, so that Q . y = (linear pfaffians),
  * H_i = i-th row of the cofactor matrix of Q,
  * g = H_i / p_i for the first i with p_i != 0: one row of four exact
    divisions,
  * H_k = p_k * g checked for all four rows k, zero p_k included.

The last check is equivalent to p_i H_j = p_j H_i for all i, j (the ring is
a domain, so the nonzero p_i cancels), so g is the same quotient whichever
row it is read from (Brown-Kerber-Reid, Fano 3-folds in codimension 4, Tom
and Jerry).  The codimension-4 ideal is then spanned by the five pfaffians
together with s*y_j - g_j in the ring extended by the unprojection
variable s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    AlgebraError,
    NotDivisible,
    Polynomial,
    Ring,
    bidegree,
    dot,
    exact_divide,
    substitute,
)
from .groebner import Ideal, MatrixOrder, buchberger, normal_form
from .pfaffian import (
    SkewMatrix5,
    TomFormat,
    WeightMatrix5,
    check_tom,
    constrained_pairs,
    maximal_pfaffians,
)


class UnprojectionError(AlgebraError):
    pass


@dataclass
class EntryDecomposition:
    """alpha[(k, l)][j] with a_{k,l} = sum_j alpha_j * y_{j+1} for constrained entries."""

    alpha: dict[tuple[int, int], list[Polynomial]]
    fmt: TomFormat


def decompose_entries(M: SkewMatrix5, fmt: TomFormat) -> EntryDecomposition:
    """Greedy decomposition: y1-divisible terms feed alpha_1, then y2, y3, y4."""
    if not check_tom(M, fmt):
        raise UnprojectionError(f"matrix is not in Tom_{fmt.k} format")
    ring = M.ring
    yidx = [ring.index[v] for v in fmt.ideal_vars]
    alpha: dict[tuple[int, int], list[Polynomial]] = {}
    for (k, l) in constrained_pairs(fmt):
        entry = M.entries[(k, l)]
        parts: list[dict] = [dict() for _ in fmt.ideal_vars]
        for mono, c in entry.terms.items():
            for slot, i in enumerate(yidx):
                if mono[i]:
                    reduced = tuple(e - 1 if p == i else e for p, e in enumerate(mono))
                    parts[slot][reduced] = c
                    break
            else:
                raise UnprojectionError(
                    f"constrained entry {(k, l)} has a term with no y factor"
                )
        alpha[(k, l)] = [Polynomial(ring, p, _clean=True) for p in parts]
    # recombination must reproduce each entry exactly
    ygens = [ring.gen(v) for v in fmt.ideal_vars]
    for (k, l), parts in alpha.items():
        if dot((1, a, y) for a, y in zip(parts, ygens)) != M.entries[(k, l)]:
            raise UnprojectionError(f"decomposition failed to recombine entry {(k, l)}")
    return EntryDecomposition(alpha, fmt)


@dataclass
class UnprojectionResult:
    N: list[SkewMatrix5]          # N_1..N_4, Tom-normalised ordering
    Q: list[list[Polynomial]]     # 4x4, Q . (y1..y4)^T = linear pfaffians
    H: list[list[Polynomial]]     # H_i = i-th cofactor row of Q
    g: list[Polynomial]           # right-hand sides of s*y_j = g_j
    p: list[Polynomial]           # unconstrained row entries of the normalised matrix
    pfaffians: list[Polynomial]   # the five pfaffians of the input matrix
    X_ideal: Ideal                # 9 generators in the ring extended by s
    ring_x: Ring                  # ambient of X (with s)
    s_weight: int
    permutation: dict[int, int]   # Tom-normalising row/column relabelling


def _pfaffian_linear_rows(Mn: SkewMatrix5) -> list[Polynomial]:
    """Pfaffians 2..5 of the Tom_1-normalised matrix (the y-linear ones)."""
    return maximal_pfaffians(Mn)[1:]


def _cofactor_row(Q: list[list[Polynomial]], i: int, minors: dict) -> list[Polynomial]:
    """(H_i)_j = (-1)^(i+j) det(Q with row i and column j removed); 1-based i, j.

    Each 3x3 minor is expanded along its first row over the 2x2 minors of
    its other two rows, as `det` does.  `minors` caches those 2x2 minors by
    (rows, columns) across calls: the four cofactor rows need 18 distinct
    ones, which Laplace expansions one by one would compute 48 times.
    """
    r0, ra, rb = [r for r in range(4) if r != i - 1]
    out = []
    for j in range(1, 5):
        cols = [c for c in range(4) if c != j - 1]
        sign = 1 if (i + j) % 2 == 0 else -1
        terms = []
        for c in cols:
            ca, cb = [x for x in cols if x != c]
            m2 = minors.get((ra, rb, ca, cb))
            if m2 is None:
                m2 = dot(((1, Q[ra][ca], Q[rb][cb]), (-1, Q[ra][cb], Q[rb][ca])))
                minors[(ra, rb, ca, cb)] = m2
            terms.append((sign, Q[r0][c], m2))
            sign = -sign
        out.append(dot(terms))
    return out


def tom_normalising_permutation(k: int) -> dict[int, int]:
    """Relabelling that moves row/column k to slot 1, keeping the rest in order."""
    order = [k] + [i for i in range(1, 6) if i != k]
    return {new: old for new, old in enumerate(order, start=1)}


def extend_ring_by_s(ring: Ring, s_weight: int) -> Ring:
    if "s" in ring.index:
        raise UnprojectionError("ambient ring already has an s variable")
    return Ring(ring.names + ("s",), (ring.top + (s_weight,),))


def build_unprojection(M: SkewMatrix5, fmt: TomFormat, s_weight: int) -> UnprojectionResult:
    """Run the unprojection construction and assemble the 9-equation ideal."""
    ring = M.ring
    perm = tom_normalising_permutation(fmt.k)
    Mn = M.permuted(perm) if fmt.k != 1 else M
    fmt1 = TomFormat(1, fmt.ideal_vars)
    dec = decompose_entries(Mn, fmt1)

    p = [Mn.entries[(1, j)] for j in range(2, 6)]
    if all(pi.is_zero() for pi in p):
        raise UnprojectionError("all p_i vanish; unprojection undefined")

    N: list[SkewMatrix5] = []
    for slot in range(4):
        entries = {(1, j): p[j - 2] for j in range(2, 6)}
        wts = {(1, j): Mn.weights[(1, j)] for j in range(2, 6)}
        for (k, l) in constrained_pairs(fmt1):
            entries[(k, l)] = dec.alpha[(k, l)][slot]
            d_slot = bidegree(ring.gen(fmt.ideal_vars[slot])).top
            wts[(k, l)] = Mn.weights[(k, l)] - d_slot
        N.append(SkewMatrix5(entries, WeightMatrix5(wts), ring))

    Q = [[None] * 4 for _ in range(4)]
    for j in range(4):
        lin = _pfaffian_linear_rows(N[j])
        for i in range(4):
            Q[i][j] = lin[i]

    # consistency: Q . y reproduces the linear pfaffians of Mn
    lin_pf = _pfaffian_linear_rows(Mn)
    ygens = [ring.gen(v) for v in fmt.ideal_vars]
    for i in range(4):
        if dot((1, q, y) for q, y in zip(Q[i], ygens)) != lin_pf[i]:
            raise UnprojectionError(f"Q row {i + 1} does not recombine its pfaffian")

    minors: dict = {}
    H = [_cofactor_row(Q, i, minors) for i in range(1, 5)]

    i = next(i for i in range(4) if not p[i].is_zero())
    try:
        g = [exact_divide(H[i][j], p[i]) for j in range(4)]
    except NotDivisible as e:
        raise UnprojectionError(f"H_{i + 1}/p_{i + 1} is not exact: {e}")
    for k in range(4):
        if any(H[k][j] != p[k] * g[j] for j in range(4)):
            raise UnprojectionError(f"H_{k + 1} != p_{k + 1} * g")

    ring_x = extend_ring_by_s(ring, s_weight)
    into_x = {nm: ring_x.gen(nm) for nm in ring.names}
    s = ring_x.gen("s")
    pf_orig = maximal_pfaffians(M)
    gens = [substitute(q, into_x, ring_x) for q in pf_orig]
    for j, v in enumerate(fmt.ideal_vars):
        gens.append(s * ring_x.gen(v) - substitute(g[j], into_x, ring_x))
    return UnprojectionResult(
        N=N, Q=Q, H=H, g=g, p=p, pfaffians=pf_orig,
        X_ideal=Ideal(gens, ring_x), ring_x=ring_x,
        s_weight=s_weight, permutation=perm,
    )


@dataclass
class VerificationReport:
    degrees_ok: bool
    degree_detail: list[tuple[int, int]]        # (expected, actual) per g_j
    consistency_ok: bool                        # y_i g_j - y_j g_i in (Pf)
    consistency_detail: list[tuple[int, int, bool]]

    def ok(self) -> bool:
        return self.degrees_ok and self.consistency_ok


def verify_unprojection(res: UnprojectionResult, d_weights: Sequence[int],
                        budget: int = 10**6) -> VerificationReport:
    """Certify what build_unprojection does not: the degrees of the g_j and
    the membership of y_i g_j - y_j g_i in the pfaffian ideal, decided by
    normal forms against one Groebner basis of the pfaffians."""
    ring = res.pfaffians[0].ring

    degree_detail = []
    degrees_ok = True
    for j in range(4):
        expected = res.s_weight + d_weights[j]
        actual = bidegree(res.g[j]).top if not res.g[j].is_zero() else expected
        degree_detail.append((expected, actual))
        degrees_ok = degrees_ok and expected == actual

    gb = buchberger(Ideal(res.pfaffians, ring), MatrixOrder.grevlex(ring), budget)
    consistency = []
    cons_ok = True
    ygens = [ring.gen(v) for v in ("y1", "y2", "y3", "y4")]
    for i in range(4):
        for j in range(i + 1, 4):
            target = dot(((1, ygens[i], res.g[j]), (-1, ygens[j], res.g[i])))
            good = normal_form(target, gb, budget=budget).is_zero()
            consistency.append((i + 1, j + 1, good))
            cons_ok = cons_ok and good

    return VerificationReport(degrees_ok, degree_detail, cons_ok, consistency)
