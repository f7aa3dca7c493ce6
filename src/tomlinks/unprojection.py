"""Type I unprojection of a Tom matrix: the four equations s*y_j = g_j.

Given a Tom_k matrix M over P^6(a,b,c,d1..d4), the construction (after
relabelling so the unconstrained row is row 1, with entries p_1..p_4):

  * decompose each constrained entry as sum_j alpha_j * y_j,
  * form N_j by replacing constrained entries with their alpha_j,
  * Q[i][j] = i-th linear pfaffian of N_j, so that Q . y = (linear pfaffians),
  * H_i = i-th row of the cofactor matrix C of Q for the first i with
    p_i != 0, and g = H_i / p_i by four exact divisions,
  * p^T Q = 0 checked: row 1 of N_j . Pf(N_j) = 0 (see `signed_pfaffian`),
  * Q . g = 0 checked on the three rows k != i.

The first check lets row i stand for the whole cofactor matrix C, so the
other three rows are not computed.  Over the fraction field K of the
ring, p != 0 and p^T Q = 0 give det Q = 0, so adj(Q) . Q = 0 and every
column of C lies in the left kernel of Q.  If rank Q = 3 that kernel is
K.p, so C = p . mu^T, and row i gives mu = H_i / p_i = g; if rank Q <= 2
then C = 0 and g = 0.  Either way C[k][j] = p_k * g_j for all k and j,
zero p_k included, so g is the same quotient whichever row it is read
from (Brown-Kerber-Reid, Fano 3-folds in codimension 4, Tom and Jerry).
Q . g = 0 is forced too, as Q . adj(Q) = 0.  Its row i follows from the
other three, since p^T (Q . g) = 0 and p_i != 0, so the second check
guards the one computed row: a wrong H_i passes it only if H_i / p_i
still lies in the kernel of Q.

The codimension-4 ideal is spanned by the five pfaffians together with
s*y_j - g_j in the ring extended by the unprojection variable s, which is
appended last, so each polynomial enters it by appending a zero exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    AlgebraError,
    MatrixOrder,
    NotDivisible,
    Polynomial,
    Ring,
    dot,
    exact_divide,
    minors,
)
from .groebner import DEFAULT_BUDGET, Ideal, contains
from .pfaffian import (
    IDEAL_VARS,
    SkewMatrix5,
    TomFormat,
    WeightMatrix5,
    constrained_pairs,
    maximal_pfaffians,
    signed_pfaffian,
)


class UnprojectionError(AlgebraError):
    pass


def decompose_entries(M: SkewMatrix5,
                      fmt: TomFormat) -> dict[tuple[int, int], list[Polynomial]]:
    """alpha[(k, l)][j] with a_{k,l} = sum_j alpha_j * y_{j+1} for the
    constrained entries.

    Greedy decomposition: each term c*x^m goes to the part of the first y_s
    that divides it, as c*x^m / y_s, so distinct terms stay distinct within
    a part and sum_s y_s * alpha_s is the entry term by term.  A term with
    no y factor means the matrix is not in Tom format.
    """
    ring = M.ring
    yidx = [ring.index[v] for v in IDEAL_VARS]
    alpha: dict[tuple[int, int], list[Polynomial]] = {}
    for (k, l) in constrained_pairs(fmt):
        entry = M.entries[(k, l)]
        parts: list[dict] = [dict() for _ in IDEAL_VARS]
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
    return alpha


@dataclass
class UnprojectionResult:
    g: list[Polynomial]           # right-hand sides of s*y_j = g_j
    p: list[Polynomial]           # unconstrained row entries of the normalised matrix
    Q: list[list[Polynomial]]     # Q . y = the linear pfaffians of the normalised matrix
    pfaffians: list[Polynomial]   # the five pfaffians of the input matrix
    X_ideal: Ideal                # 9 generators in the ring extended by s
    s_weight: int
    weights: WeightMatrix5        # of the normalised matrix that p and Q belong to


def _cofactor_row(Q: list[list[Polynomial]], i: int) -> list[Polynomial]:
    """(H_i)_j = (-1)^(i+j) det(Q with row i and column j removed); 1-based i, j.

    The four 3x3 minors are the `minors` of Q without row i, built from the
    six 2x2 minors of its last two rows.
    """
    kept = minors([row for k, row in enumerate(Q, 1) if k != i])
    # in `combinations` order the column tuples leave out columns 4, 3, 2, 1
    return [h if (i + j) % 2 == 0 else -h for j, h in enumerate(reversed(kept.values()), 1)]


def _linear_pfaffian_matrix(Mn: SkewMatrix5) -> list[list[Polynomial]]:
    """Q for the Tom_1 matrix Mn: column j holds the linear pfaffians of N_j,
    Mn with each constrained entry replaced by its alpha_j."""
    alpha = decompose_entries(Mn, TomFormat(1))
    Q = [[None] * 4 for _ in range(4)]
    for slot in range(4):
        table = Mn.entries | {pair: parts[slot] for pair, parts in alpha.items()}
        for i in range(4):
            Q[i][slot] = signed_pfaffian(table, i + 2)
    return Q


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
    Q = _linear_pfaffian_matrix(Mn)

    p = [Mn.entries[(1, j)] for j in range(2, 6)]
    if all(pi.is_zero() for pi in p):
        raise UnprojectionError("all p_i vanish; unprojection undefined")

    # p^T Q = 0: row 1 of N_j . Pf(N_j) = 0, whose row 1 is (0, p_1..p_4)
    for slot in range(4):
        if dot((1, pk, Q[k][slot]) for k, pk in enumerate(p)):
            raise UnprojectionError(f"p^T Q != 0 in column {slot + 1}")
    # consistency: Q . y reproduces the linear pfaffians of Mn
    pf_n = maximal_pfaffians(Mn)
    ygens = [ring.gen(v) for v in IDEAL_VARS]
    for i in range(4):
        if dot((1, q, y) for q, y in zip(Q[i], ygens)) != pf_n[i + 1]:
            raise UnprojectionError(f"Q row {i + 1} does not recombine its pfaffian")

    i = next(i for i in range(4) if not p[i].is_zero())
    H = _cofactor_row(Q, i + 1)
    try:
        g = [exact_divide(H[j], p[i]) for j in range(4)]
    except NotDivisible as e:
        raise UnprojectionError(f"H_{i + 1}/p_{i + 1} is not exact: {e}")
    for k in range(4):
        if k != i and dot((1, q, gj) for q, gj in zip(Q[k], g)):
            raise UnprojectionError(f"Q g != 0 in row {k + 1}")

    ring_x = extend_ring_by_s(ring, s_weight)
    s = ring_x.gen("s")
    pf_orig = pf_n if Mn is M else maximal_pfaffians(M)
    gens = [_append_s(q, ring_x) for q in pf_orig]
    for j, v in enumerate(IDEAL_VARS):
        gens.append(s * ring_x.gen(v) - _append_s(g[j], ring_x))
    return UnprojectionResult(
        g=g, p=p, Q=Q, pfaffians=pf_orig, X_ideal=Ideal(gens, ring_x), s_weight=s_weight,
        weights=Mn.weights)


def _append_s(q: Polynomial, ring_x: Ring) -> Polynomial:
    """q in the ring extended by s: s is the last variable, with exponent 0."""
    return Polynomial(ring_x, {m + (0,): c for m, c in q.terms.items()}, _clean=True)


@dataclass
class VerificationReport:
    degrees_ok: bool
    degree_detail: list[tuple[int, int]]        # (expected, actual) per g_j
    consistency_ok: bool                        # y_i g_j - y_j g_i in (Pf)
    consistency_detail: list[tuple[int, int, bool]]

    def ok(self) -> bool:
        return self.degrees_ok and self.consistency_ok


def verify_unprojection(res: UnprojectionResult, d_weights: Sequence[int],
                        budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Certify what build_unprojection does not: the degrees of the g_j and
    the membership of y_i g_j - y_j g_i in the pfaffian ideal, all six
    decided by one `contains` run over the pfaffians, which reduces pairs
    only while a verdict is open and none above the targets' degree.  A g_j
    that is not homogeneous of degree r + d_j fails `degrees_ok`; its
    detail records its top degree."""
    ring = res.pfaffians[0].ring

    degree_detail = []
    degrees_ok = True
    for j, g in enumerate(res.g):
        expected = res.s_weight + d_weights[j]
        actual = g.degree() if not g.is_zero() else expected
        degree_detail.append((expected, actual))
        degrees_ok = degrees_ok and all(ring.mono_degree(m) == expected for m in g.terms)

    ygens = [ring.gen(v) for v in IDEAL_VARS]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    targets = [dot(((1, ygens[i], res.g[j]), (-1, ygens[j], res.g[i]))) for i, j in pairs]
    verdicts = contains(Ideal(res.pfaffians, ring), targets, MatrixOrder.grevlex(ring), budget)
    consistency = [(i + 1, j + 1, good) for (i, j), good in zip(pairs, verdicts)]
    return VerificationReport(degrees_ok, degree_detail, all(verdicts), consistency)
