"""The link engine: blow-up scroll, wall crossings, endpoints, baskets.

Pipeline for one case: build the Tom matrix, unproject, put the blow-up
inside the rank-2 scroll, divide out the t factors to get the nine
equations of the blown-up 3-fold, then walk the Mori-cone walls in
decreasing ideal weight.  Every wall is analysed locally at its base point
via the Jacobian of the nine equations: variables with an invertible
linear coefficient there are eliminable, the survivors' localised weights
are the flip data.  The link ends in a divisorial contraction, a del Pezzo
fibration or a conic bundle according to the multiplicity pattern of the
ideal weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .algebra import (
    AlgebraError,
    MatrixOrder,
    NotDivisible,
    Polynomial,
    Ring,
    bidegree,
    det,
    divide_out,
    exact_divide,
    minors,
    substitute,
)
from .groebner import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Ideal,
    buchberger,
    is_saturated,
    minimal_generators,
    projective_dim_degree,
    zero_dim_degree,
)
from .pfaffian import (
    IDEAL_VARS,
    SkewMatrix5,
    TomFormat,
    WeightMatrix5,
    build_general_tom,
    complement_pairs,
)
from .unprojection import UnprojectionResult, build_unprojection, tom_normalising_permutation

SCROLL_NAMES = ("t", "s", "x1", "x2", "x3", "y1", "y2", "y3", "y4")
X_NAMES = ("x1", "x2", "x3")


class LinkError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# case data

@dataclass
class Basket:
    """Multiset of cyclic quotient singularities 1/r(a,b,c)."""

    entries: list[tuple[int, tuple[int, int, int]]] = field(default_factory=list)

    @staticmethod
    def normal(r: int, weights: Sequence[int]) -> tuple[int, tuple[int, int, int]]:
        return (int(r), tuple(sorted(int(x) % r for x in weights)))

    def copy(self) -> "Basket":
        return Basket(list(self.entries))

    def add(self, r: int, weights: Sequence[int]):
        if r <= 1:
            return  # smooth point
        self.entries.append(Basket.normal(r, weights))
        self.entries.sort()

    def remove(self, r: int, weights: Sequence[int]):
        if r <= 1:
            return
        key = Basket.normal(r, weights)
        if key not in self.entries:
            raise LinkError(f"basket removal target {quotient_token(key)} absent: {self}")
        self.entries.remove(key)

    def __str__(self):
        return "{" + ", ".join(quotient_token(e) for e in self.entries) + "}"

    def __eq__(self, other):
        if not isinstance(other, Basket):
            return NotImplemented
        return sorted(self.entries) == sorted(other.entries)


def quotient_token(entry: tuple[int, tuple[int, int, int]]) -> str:
    """A basket entry as the quotient token of a case file, `1/r(a,b,c)`."""
    r, (a, b, c) = entry
    return f"1/{r}({a},{b},{c})"


@dataclass
class FanoCase:
    """Input data for one Tom-type family."""

    id: str
    abc: tuple[int, int, int]          # orbinate weights, sorted ascending, min 1
    d: tuple[int, int, int, int]       # ideal weights, sorted descending
    r: int                             # unprojection variable weight / centre index
    tom_k: int
    matrix_weights: WeightMatrix5
    matrix: SkewMatrix5 | None         # explicit entries, or None for seeded general
    basket: Basket
    declared_nodes: int | None = None
    matrix_seed: int | None = None     # fixed seed for GENERAL matrices

    def __post_init__(self):
        a, b, c = self.abc
        if sorted(self.abc) != list(self.abc) or a != 1:
            raise LinkError("orbinate weights must be ascending with minimum 1")
        if list(self.d) != sorted(self.d, reverse=True):
            raise LinkError("ideal weights not sorted")
        if min(self.d) < 1:
            raise LinkError("ideal weights must be positive")

    @property
    def ambient6(self) -> Ring:
        return Ring(X_NAMES + IDEAL_VARS, (self.abc + self.d,))

    def build_matrix(self, seed: int) -> SkewMatrix5:
        if self.matrix is not None:
            return self.matrix
        use = self.matrix_seed if self.matrix_seed is not None else seed
        return build_general_tom(self.matrix_weights, TomFormat(self.tom_k), self.ambient6, use)


def kawamata_scroll(case: FanoCase) -> Ring:
    """Rank-2 ambient of the blow-up: top (0,r,a,b,c,d), bottom (1,1,0,0,0,-1,...);
    the two rows fix both pull-backs of `blowup_ideal`."""
    a, b, c = case.abc
    top = (0, case.r, a, b, c) + case.d
    bottom = (1, 1, 0, 0, 0, -1, -1, -1, -1)
    return Ring(SCROLL_NAMES, (top, bottom))


# ---------------------------------------------------------------------------
# deltas and the blow-up ideal

def compute_deltas(g: Sequence[Polynomial], case: FanoCase) -> tuple[int, int, int, int]:
    """Least t-exponent picked up by each unprojection equation under pull-back.

    The pull-back phi of `blowup_ideal` gives each variable the exponent
    top - bottom of its scroll weight rows, d_k + 1 for y_k, so a monomial
    of g_j (degree r + d_j) with E factors y picks up r + d_j + E.  Over the
    monomials that avoid y_j the minimum is r + d_j exactly when g_j has a
    pure-orbinate monomial, as a general Tom member does and the standard
    scroll shape needs; any other minimum raises LinkError.
    """
    S = kawamata_scroll(case)
    exps = {n: up - down for n, up, down in zip(S.names, S.top, S.bottom)}
    ring = g[0].ring
    phi = [exps[n] for n in ring.names]
    yi = [ring.index[n] for n in IDEAL_VARS]
    deltas = []
    for j, gj in enumerate(g):
        best = min((sum(map(mul, phi, m)) for m in gj.terms if not m[yi[j]]), default=None)
        if best is None:
            raise LinkError(
                f"g_{j + 1} has no y_{j + 1}-free monomial; input is not a general Tom member"
            )
        if best < case.d[j]:
            raise LinkError(f"delta_{j + 1} = {best} < d_{j + 1}; grading bug")
        if best != case.r + case.d[j]:
            raise LinkError(
                f"delta_{j + 1} = {best} != r + d_{j + 1} = {case.r + case.d[j]}: "
                f"g_{j + 1} lacks a pure-orbinate monomial (non-general member)"
            )
        deltas.append(best)
    return tuple(deltas)


@dataclass
class BlowupData:
    generators: list[Polynomial]    # h_1..h_9 in the scroll ring
    deltas: tuple[int, int, int, int]
    t_exponents: list[int]          # power of t divided out of each generator
    pullback_ideal: Ideal           # the nine raw pull-backs (before division)


def blowup_ideal(res: UnprojectionResult, S: Ring, case: FanoCase) -> BlowupData:
    """The nine equations of the blow-up: pull back the generators of
    `res.X_ideal`, then divide out all t factors.

    The scroll's two weight rows fix both pull-backs: phi = t^(top - bottom)
    and alpha = t^(-bottom) on each variable but t.  The pfaffians, Tom slot
    first, go by alpha and lose at least t^2, t, t, t, t; s*y_j - g_j go by
    phi and lose t^delta_j (DECISIONS.md, "The blow-up is stated once").  By
    construction each quotient is bihomogeneous in the scroll grading.
    """
    deltas = compute_deltas(res.g, case)
    t = S.gen("t")
    weights = {n: (up, down) for n, up, down in zip(S.names, S.top, S.bottom) if n != "t"}
    phi = {n: t ** (up - down) * S.gen(n) for n, (up, down) in weights.items()}
    alpha = {n: t ** -down * S.gen(n) for n, (_, down) in weights.items() if n != "s"}
    X = res.X_ideal.generators
    slots = tom_normalising_permutation(case.tom_k).values()
    raw = [substitute(X[i - 1], alpha, S) for i in slots] + [substitute(f, phi, S) for f in X[5:]]
    gens, exps = (list(col) for col in zip(*(divide_out(f, "t") for f in raw)))
    for i, k, least in zip(slots, exps, (2, 1, 1, 1, 1)):
        if k < least:
            raise LinkError(
                f"pfaffian {i} pull-back lost t^{k}, expected at least t^{least}: not Tom")
    if tuple(exps[5:]) != deltas:
        raise LinkError(
            f"unprojection pull-backs divided by t^{tuple(exps[5:])}, deltas predicted {deltas}")
    for h in gens:
        bidegree(h)  # raises if any generator fails bihomogeneity
    return BlowupData(gens, deltas, exps, Ideal(raw, S))


# ---------------------------------------------------------------------------
# classification

def classify_case(d: Sequence[int]) -> str:
    """Equality pattern tag (i)..(viii) of the sorted ideal weights, read off
    the sizes of its groups of equal weights."""
    d1, d2, d3, d4 = d
    if not (d1 >= d2 >= d3 >= d4 >= 1):
        raise LinkError("ideal weights must be sorted descending and positive")
    sizes = tuple(len(g) for g in wall_groups(d))
    return {(1, 1, 1, 1): "i", (1, 2, 1): "ii", (2, 1, 1): "iii", (1, 1, 2): "iv",
            (2, 2): "v", (1, 3): "vi", (3, 1): "vii", (4,): "viii"}[sizes]


@dataclass
class WeightConfig:
    tag: str                      # "a", "b" or "neither"
    pi: int | None


def detect_weight_config(w: WeightMatrix5, d: Sequence[int]) -> WeightConfig:
    """Match the two special weight patterns of the ideal block.

    (a): the four entries (2,4),(2,5),(3,4),(3,5) share one weight pi.
    (b): (2,5) and (3,4) share pi, which must be d1 or d2.  Configuration
    (b) is what makes a pure square of an ideal variable appear in the
    blown-up equations, so a wall crossing restricts to an isomorphism.

    Each pattern is its defining equalities alone.  The homogeneity that
    `WeightMatrix5` enforces is ten equations of rank 5, so every weight
    matrix is m_ij = (v_i + v_j)/2 for some row weights v; (a) then means
    v2 = v3 and v4 = v5, (b) means v2 + v5 = v3 + v4, and v fixes the rest
    (DECISIONS.md, "Each link-engine quantity has one owner").
    """
    if w[(2, 4)] == w[(2, 5)] == w[(3, 4)] == w[(3, 5)]:
        return WeightConfig("a", w[(2, 4)])
    if w[(2, 5)] == w[(3, 4)] and w[(2, 5)] in (d[0], d[1]):
        return WeightConfig("b", w[(2, 5)])
    return WeightConfig("neither", None)


# ---------------------------------------------------------------------------
# flops

def minors_ideal(A: list[list[Polynomial]], ring: Ring, size: int = 3) -> Ideal:
    """The ideal of the size x size minors of A."""
    return Ideal([d for rows in combinations(A, size) for d in minors(rows).values()], ring)


def on_plane(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The polynomials at y = 0, in the ring of the plane P^2(1,1,1)."""
    P2 = Ring(X_NAMES, ((1, 1, 1),))
    into = {n: P2.gen(n) for n in X_NAMES} | {n: 0 for n in IDEAL_VARS}
    return [substitute(q, into, P2) for q in polys]


def count_flops(res: UnprojectionResult, case: FanoCase,
                budget: int = DEFAULT_BUDGET) -> int | None:
    """Number of nodes on the unprojected plane: the length of the rank<=2
    locus of A = Q^T at y = 0, counted in P^2(1,1,1); None on a weighted
    plane, where the count is not implemented (ROADMAP item 4).

    The 3x3 minors of Q are its cofactors up to sign, C[k][j] = p_k * g_j,
    which `build_unprojection` certifies, and setting y = 0 is a ring map,
    so the 3x3 minors of A span the ideal of the sixteen products
    p_k * g_j at y = 0 (DECISIONS.md, "The flop locus from the cofactor
    identity"), and the count is the length of that ideal.  Once the p_k
    have no common zero on the plane, some power of the irrelevant ideal
    lies in (p), so the products and the four g_j span the same ideal in
    high degree, and the count is the length of (g); otherwise it is
    taken from the products.
    """
    if case.abc != (1, 1, 1):
        return None
    p, g = on_plane(res.p), on_plane(res.g)
    P2 = p[0].ring
    if projective_dim_degree(Ideal(p, P2), budget)[0] == -1:
        return zero_dim_degree(Ideal(g, P2), budget)
    return zero_dim_degree(Ideal([pk * gj for pk in p for gj in g], P2), budget)


# ---------------------------------------------------------------------------
# quadratic field extension for conjugate wall points

class QuadExt:
    """Element a + b*w of Q[w]/(w^2 - P*w - Q0)."""

    __slots__ = ("a", "b", "P", "Q0")

    def __init__(self, a, b, P, Q0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.P = Fraction(P)
        self.Q0 = Fraction(Q0)

    def _lift(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        return QuadExt(other, 0, self.P, self.Q0)

    def __add__(self, other):
        o = self._lift(other)
        return QuadExt(self.a + o.a, self.b + o.b, self.P, self.Q0)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.P, self.Q0)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        # (a + bw)(c + dw) with w^2 = P w + Q0
        a, b, c, d = self.a, self.b, o.a, o.b
        return QuadExt(a * c + b * d * self.Q0, a * d + b * c + b * d * self.P,
                       self.P, self.Q0)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # solve (a + bw)(x + yw) = 1
        a, b = self.a, self.b
        det = a * a + a * b * self.P - b * b * self.Q0
        if det == 0:
            raise ZeroDivisionError("non-invertible quadratic extension element")
        return QuadExt((a + b * self.P) / det, -b / det, self.P, self.Q0)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __eq__(self, other):
        o = self._lift(other)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"({self.a} + {self.b}w)"


# ---------------------------------------------------------------------------
# wall analysis

@dataclass
class Flip:
    wall: tuple[str, ...]
    survivors: tuple[str, ...]
    weights: tuple[int, ...]              # localised top weights, descending
    hypersurface_degree: int | None
    eliminated: tuple[str, ...]
    point: str                            # label of the base point
    hyp_pair: tuple[str, str] | None = None  # t*(negative variable) in the cutting equation


@dataclass
class Isomorphism:
    wall: tuple[str, ...]
    witness: str  # the pure power certifying the wall misses the 3-fold


@dataclass
class SimultaneousFlips:
    wall: tuple[str, ...]
    flips: tuple[Flip, Flip]
    quadratic_form: str


@dataclass
class KawamataBlowup:
    centre: tuple[int, tuple[int, int, int]]


@dataclass
class Flop:
    count: int | None
    declared: int | None


@dataclass
class DivisorialContractionToFano:
    kind: tuple[int, int]                 # (2,0) or (2,1)
    wall: tuple[str, ...]
    endpoint: "EndpointFano"


@dataclass
class DelPezzoFibration:
    base: tuple[str, ...]
    degree: int | None
    note: str = ""


@dataclass
class ConicBundle:
    base: tuple[str, ...]
    discriminant_degree: int | None
    patch_determinants: list[tuple[str, Polynomial]]   # (patch variable, Gram determinant)
    overlap: int
    note: str = ""


def wall_groups(d: Sequence[int]) -> list[list[str]]:
    """Ideal variables grouped by equal weight, in decreasing weight order."""
    groups: list[list[str]] = []
    for k, name in enumerate(IDEAL_VARS):
        if groups and d[k] == d[k - 1]:
            groups[-1].append(name)
        else:
            groups.append([name])
    return groups


def _localized_ring(S: Ring, weight: int) -> Ring:
    top = tuple(t + weight * b for t, b in zip(S.top, S.bottom))
    return Ring(S.names, (top, S.bottom))


_PRIORITY = ("s", "x1", "x2", "x3", "y1", "y2", "y3", "y4", "t")


def _gauss_jordan(rows: list[dict], columns: Iterable) -> dict:
    """Reduce sparse rows (column -> nonzero field element) in place.

    Pivots are taken in `columns` order, each in the first row not yet used
    that has the column, and cleared from every other row.  Returns pivot
    column -> row index; each pivot row is then an invertible combination of
    the original pivot rows with no other pivot column.  Works over any
    field whose elements support + - * / and truth testing (Fraction,
    QuadExt).
    """
    pivots: dict = {}
    used: set[int] = set()
    for col in columns:
        hit = next((i for i, row in enumerate(rows) if i not in used and row.get(col)), None)
        if hit is None:
            continue
        used.add(hit)
        pivots[col] = hit
        prow = rows[hit]
        for i, row in enumerate(rows):
            if i == hit or not row.get(col):
                continue
            f = row[col] / prow[col]
            for k, v in prow.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return pivots


def _local_parts(gens: Sequence[Polynomial], point: dict[int, object]) -> list[dict]:
    """Linear and quadratic coefficients of the generators at a point, one
    dict per generator: slot -> coefficient for a linear term and
    (slot, slot) -> coefficient for a quadratic one."""
    # point: variable slot -> point value, a Fraction or a QuadExt
    rows: list[dict] = []
    for g in gens:
        row: dict = {}
        for m, c in g.terms.items():
            supp = [i for i, e in enumerate(m) if i not in point for _ in range(e)]
            if len(supp) not in (1, 2):
                continue
            scale = Fraction(c)
            for i, v in point.items():
                for _ in range(m[i]):
                    scale = scale * v
            key = supp[0] if len(supp) == 1 else tuple(supp)
            row[key] = row.get(key, 0) + scale
        rows.append({k: v for k, v in row.items() if v})
    return rows


def _composed_quad_coeff(row: dict[tuple[int, int], object],
                         image: dict[int, dict[int, object]], t_slot: int, v_slot: int):
    """Coefficient of x_t * x_v (t != v) in a reduced row no pivot used
    (any linear term left would have been a pivot, so every key is a pair)
    once each slot is replaced by its image, a linear form in the
    survivors.  A square x_a^2 is the case a = b of the cross-term formula."""
    total = 0
    for (al, be), c in row.items():
        la, lb = image[al], image[be]
        total = total + c * (la.get(t_slot, 0) * lb.get(v_slot, 0)
                             + la.get(v_slot, 0) * lb.get(t_slot, 0))
    return total


def analyze_wall(gens: Sequence[Polynomial], S: Ring,
                 wall: Sequence[str]) -> "Isomorphism | Flip | SimultaneousFlips":
    """Cross one Mori-cone wall: isomorphism, flip, or two simultaneous flips."""
    wall = tuple(wall)
    widx = [S.index[v] for v in wall]
    wall_weight = S.top[widx[0]]
    loc = _localized_ring(S, wall_weight)

    if len(wall) == 1:
        # pure power of the wall variable => the wall misses the 3-fold
        for g in gens:
            for m in g.terms:
                if m[widx[0]] and all(e == 0 for i, e in enumerate(m) if i != widx[0]):
                    return Isomorphism(wall, f"{wall[0]}^{m[widx[0]]}")
        return _flip_at_point(gens, loc, {widx[0]: Fraction(1)}, wall, f"P_{wall[0]}")

    if len(wall) == 2:
        return _simultaneous_flips(gens, loc, wall, widx)

    raise LinkError(f"wall group of size {len(wall)} is not a flip wall")


def _wall_quadratic(gens: Sequence[Polynomial], widx: list[int]):
    """Restriction of the generators to the wall line: one quadratic form."""
    i1, i2 = widx
    found = None
    for g in gens:
        coeffs = {}
        for m, c in g.terms.items():
            if all(e == 0 for i, e in enumerate(m) if i not in (i1, i2)) and (m[i1] or m[i2]):
                coeffs[(m[i1], m[i2])] = c
        if coeffs:
            if set(map(sum, coeffs)) != {2}:
                raise LinkError("wall-line restriction is not a single quadratic form")
            if found is not None:
                raise LinkError("several generators survive on the wall line")
            found = coeffs
    if found is None:
        raise LinkError("no quadratic form on the wall line: the line lies on the 3-fold")
    return tuple(Fraction(found.get(k, 0)) for k in ((2, 0), (1, 1), (0, 2)))


def _is_square(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        return None
    return Fraction(rn, rd)


def _simultaneous_flips(gens, loc: Ring, wall, widx) -> SimultaneousFlips:
    A, B, C = _wall_quadratic(gens, widx)
    # a binary quadratic form has rank < 2 exactly when its discriminant is 0
    disc = B * B - 4 * A * C
    if disc == 0:
        raise LinkError("wall quadratic form has rank < 2")
    qtext = _quad_text(A, B, C, wall)

    points: list[tuple[dict[int, object], str]] = []
    if A == 0:
        # roots [1:0] and [-C : B]
        points.append(({widx[0]: Fraction(1), widx[1]: Fraction(0)}, "P1"))
        points.append(({widx[0]: -C / B, widx[1]: Fraction(1)}, "P2"))
    else:
        root = _is_square(disc)
        if root is not None:
            r1 = (-B + root) / (2 * A)
            r2 = (-B - root) / (2 * A)
            points.append(({widx[0]: r1, widx[1]: Fraction(1)}, "P1"))
            points.append(({widx[0]: r2, widx[1]: Fraction(1)}, "P2"))
        else:
            # conjugate pair: analyse over Q[w]/(w^2 - P w - Q0), mirror the result
            P, Q0 = -B / A, -C / A
            points.append(({widx[0]: QuadExt(0, 1, P, Q0), widx[1]: QuadExt(1, 0, P, Q0)},
                           "P1"))

    flips = [_flip_at_point(gens, loc, point, wall, label) for point, label in points]
    if len(flips) == 1:
        flips.append(replace(flips[0], point="P2"))
    return SimultaneousFlips(wall, (flips[0], flips[1]), qtext)


def _quad_text(A, B, C, wall) -> str:
    parts = []
    for coeff, mono in ((A, f"{wall[0]}^2"), (B, f"{wall[0]}*{wall[1]}"), (C, f"{wall[1]}^2")):
        if coeff:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def _flip_at_point(gens, loc: Ring, point: dict[int, object], wall,
                   point_label: str) -> Flip:
    rows = _local_parts(gens, point)
    # Gauss-Jordan on whole rows (reduced in place), pivots on the linear
    # parts in the fixed variable priority; each pivot row reads
    # row[v]*x_v + sum row[k]*x_k = 0 to first order, any other row is quadratic
    priority = [loc.index[n] for n in _PRIORITY if loc.index[n] not in point]
    pivots = _gauss_jordan(rows, priority)
    surv = [v for v in priority if v not in pivots]
    if len(surv) not in (4, 5):
        raise LinkError(
            f"{len(surv)} surviving variables at {point_label}; expected a toric or "
            f"hypersurface flip"
        )
    ordered = sorted(surv, key=lambda v: -loc.top[v])
    hdeg = None
    hyp_pair = None
    if len(surv) == 5:
        # the local solution: a pivot maps to its linear part, a survivor to itself
        image = {v: {k: -rows[r][k] / rows[r][v] for k in surv if rows[r].get(k)}
                 for v, r in pivots.items()}
        image.update((k, {k: 1}) for k in surv)
        t_slot = loc.index["t"]
        used_rows = set(pivots.values())
        negative = [v for v in surv if loc.top[v] < 0 and v != t_slot]
        partner = next((v for gi, row in enumerate(rows) if gi not in used_rows
                        for v in negative
                        if _composed_quad_coeff(row, image, t_slot, v)), None)
        if partner is None:
            raise LinkError(f"no surviving t*(negative variable) monomial at {point_label}")
        # a pivot's image holds survivors of its own weight only, so the
        # cutting row has the degree of its t*partner term
        hdeg = loc.top[t_slot] + loc.top[partner]
        hyp_pair = ("t", loc.names[partner])
    return Flip(tuple(wall), tuple(loc.names[v] for v in ordered),
                tuple(loc.top[v] for v in ordered), hdeg,
                tuple(loc.names[i] for i in sorted(pivots)), point_label, hyp_pair)


# ---------------------------------------------------------------------------
# global (exact) elimination for endpoint operations

def global_eliminate(gens: Sequence[Polynomial], ring: Ring,
                     priority: Sequence[str] = _PRIORITY):
    """Repeatedly solve for variables occurring as a lone scalar linear term.

    A variable is eliminated only when its occurrences in the chosen
    equation are exactly the single monomial v (so the solve is polynomial,
    not merely local-analytic); the substitution is propagated and the scan
    restarts at the first name of `priority`.  Returns (surviving nonzero
    generators, eliminated names).
    """
    work = [g for g in gens if not g.is_zero()]
    eliminated: list[str] = []
    while True:
        for name in priority:
            slot = ring.index[name]
            unit = tuple(1 if i == slot else 0 for i in range(ring.nvars))
            # the cheap lookup first; then the solve must be polynomial
            k = next((k for k, g in enumerate(work) if g.terms.get(unit)
                      and not any(m[slot] for m in g.terms if m != unit)), None)
            if k is not None:
                break
        else:
            return work, tuple(eliminated)
        g = work[k]
        c = g.terms[unit]
        expr = Polynomial(ring, {m: Fraction(-cf, c) for m, cf in g.terms.items() if m != unit})
        work = [substitute(h, {name: expr}, ring) if any(m[slot] for m in h.terms) else h
                for i, h in enumerate(work) if i != k]
        work = [h for h in work if not h.is_zero()]
        eliminated.append(name)


@dataclass
class EndpointFano:
    names: tuple[str, ...]
    weights: tuple[int, ...]
    ring: Ring
    equations: list[Polynomial]
    degrees: tuple[int, ...]
    gorenstein: bool
    codim: int
    eliminated: tuple[str, ...]
    minimal_certified: bool
    notes: list[str] = field(default_factory=list)


def endpoint_fano(gens: Sequence[Polynomial], S: Ring,
                  contraction_group: Sequence[str], contracted: str,
                  budget: int = DEFAULT_BUDGET) -> EndpointFano:
    """Contract the last divisor: set the contracted variable to 1, globally
    eliminate, and present the image Fano with its induced weights and a
    minimal set of its equations.  On y_c = 1 the generator s*y_c - G_c
    reads s - G_c, so s is always eliminated and the codimension is at most
    3 (DECISIONS.md, "The unprojection variable is solved on every chart").

    The minimal set is taken under grevlex with last the variable that
    occurs in the most terms of the equations, the first such in ring
    order: the kept set does not depend on the order, and this one reaches
    it in fewer steps (DECISIONS.md, "The endpoint's minimal generators
    under its busiest variable").
    """
    dhat = S.top[S.index[contraction_group[0]]]
    d4 = S.top[S.index[contracted]]
    denom = dhat - d4
    if denom <= 0:
        raise LinkError("contraction ray weight must exceed the contracted weight")

    at_one = [substitute(g, {contracted: 1}, S) for g in gens]
    work, eliminated = global_eliminate(at_one, S)

    survivors = [n for n in S.names if n != contracted and n not in eliminated]
    loc = _localized_ring(S, d4)
    lam = [Fraction(loc.top[loc.index[n]], denom) for n in survivors]
    scale = lcm(*(x.denominator for x in lam))
    weights = tuple(int(x * scale) for x in lam)
    ring_new = Ring(tuple(survivors), (weights,))
    eqs = [substitute(g, {}, ring_new) for g in work]

    notes: list[str] = []
    minimal_certified = True
    busiest = max(survivors, key=lambda n: sum(
        m[ring_new.index[n]] > 0 for e in eqs for m in e.terms))
    order = MatrixOrder.grevlex(ring_new, last=busiest)
    try:
        eqs = minimal_generators(Ideal(eqs, ring_new), order, budget)
    except BudgetExceeded as e:  # reported, not fatal
        minimal_certified = False
        notes.append(f"minimality not certified: {e}")
    degrees = tuple(e.degree() for e in eqs)
    if scale > 1:
        notes.append(f"weights scaled by {scale} to clear denominators")
    return EndpointFano(
        names=tuple(survivors), weights=weights, ring=ring_new, equations=eqs,
        degrees=degrees, gorenstein=denom == 1, codim=len(survivors) - 4,
        eliminated=eliminated, minimal_certified=minimal_certified, notes=notes,
    )


def dp_degree(gens: Sequence[Polynomial], S: Ring, base: Sequence[str],
              budget: int = DEFAULT_BUDGET) -> DelPezzoFibration:
    """Degree of the general fibre over the base line, by Hilbert series, read
    at the first of five fixed points (y_a : y_b) = (lam : mu) where the fibre
    is a surface.  With lam != 0 the generator s*y_a - G_a reads lam*s - G_a,
    so s is always eliminated."""
    loc = _localized_ring(S, S.top[S.index[base[0]]])
    fiber = [n for n in S.names if n not in base]
    fw = {n: loc.top[loc.index[n]] for n in fiber}
    fiber2 = [n for n in fiber if n != "s"]
    if any(fw[n] != 1 for n in fiber2):
        return DelPezzoFibration(tuple(base), None, "weighted fibre ambient; degree not computed")
    F = Ring(tuple(fiber), (tuple(fw[n] for n in fiber),))
    F2 = Ring(tuple(fiber2), (tuple(fw[n] for n in fiber2),))
    for lam, mu in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
        gens_f = [substitute(g, {base[0]: lam, base[1]: mu}, F) for g in gens]
        work, _ = global_eliminate(gens_f, F, priority=("s",))
        eqs = [substitute(g, {}, F2) for g in work]
        dim, deg = projective_dim_degree(Ideal(eqs, F2), budget)
        if dim == 2:
            return DelPezzoFibration(tuple(base), deg, "")
    raise LinkError("no fibre over five points of the base line is a surface")


def conic_discriminant(pf_gens: Sequence[Polynomial], S: Ring, base: Sequence[str],
                       budget: int = DEFAULT_BUDGET) -> ConicBundle:
    """Discriminant degree of the conic bundle over the plane of base variables.

    Works on the line where the last base variable vanishes: on each of its
    two affine patches the pfaffian equations reduce, after local
    eliminations, to a single conic in the three surviving fibre variables;
    the two Gram determinants meet the line in deg+deg-overlap points, which
    is the discriminant degree.
    """
    if len(base) != 3:
        return ConicBundle(tuple(base), None, [], 0,
                           "conic bundle over a 3-space; patch analysis done on planes only")
    fiber = [n for n in S.names if n not in base and n != "s"]
    dets: list[tuple[str, Polynomial]] = []
    for patch, free in ((base[0], base[1]), (base[1], base[0])):
        P = Ring(tuple(fiber) + (free,), ((1,) * (len(fiber) + 1),))
        subs = {patch: 1, base[2]: 0}
        gens_p = [substitute(g, subs, P) for g in pf_gens]
        work, eliminated = global_eliminate(gens_p, P, priority=tuple(fiber))
        if not work:
            raise LinkError(f"no conic equation survives on patch {patch}")
        # a divisor of every equation is the least one, up to a constant
        conic = min(work, key=lambda g: (g.degree(), len(g)))
        try:
            for other in work:
                exact_divide(other, conic)
        except NotDivisible:
            raise LinkError(f"surviving equations on patch {patch} are not principal")
        surv = [n for n in fiber if n not in eliminated]
        if len(surv) != 3:
            raise LinkError(f"{len(surv)} fibre variables survive on patch {patch}")
        vi = [P.index[n] for n in surv]
        fi = P.index[free]
        U = Ring((free,), ((1,),))
        # c*v_a*v_b*u^e puts c at (a, a), or c/2 at (a, b) and (b, a)
        entries: list[list[dict]] = [[{} for _ in range(3)] for _ in range(3)]
        for m, c in conic.terms.items():
            pair = [a for a, i in enumerate(vi) for _ in range(m[i])]
            if len(pair) != 2:
                raise LinkError(f"patch {patch} equation is not a fibre conic")
            a, b = pair
            if a == b:
                entries[a][a][(m[fi],)] = c
            else:
                entries[a][b][(m[fi],)] = entries[b][a][(m[fi],)] = Fraction(c, 2)
        dets.append((patch, det([[Polynomial(U, e) for e in row] for row in entries])))

    (_, f), (_, g) = dets
    overlap = _patch_overlap(f, g, budget)
    return ConicBundle(tuple(base), f.degree() + g.degree() - overlap, dets, overlap)


def conic_discriminant_or_note(pf_gens, S: Ring, base,
                               budget: int = DEFAULT_BUDGET) -> ConicBundle:
    """Structural fallback: a patch where the local eliminations do not leave
    a principal conic yields a ConicBundle step with a note instead of a
    discriminant degree."""
    try:
        return conic_discriminant(pf_gens, S, base, budget)
    except LinkError as e:
        return ConicBundle(tuple(base), None, [], 0, f"discriminant not computed: {e}")


def _patch_overlap(f: Polynomial, g: Polynomial, budget: int) -> int:
    """Common roots (with multiplicity) of two patch determinants away from
    the coordinate points, seen in the first patch's coordinate."""
    if f.is_zero() or g.is_zero():
        raise LinkError("vanishing patch determinant; discriminant undefined")
    U = f.ring
    dg = g.degree()
    reversed_terms = {(dg - m[0],): c for m, c in g.terms.items()}
    g_rev = Polynomial(U, reversed_terms, _clean=True)
    order = MatrixOrder.grevlex(U, weights=(1,))
    # f and g_rev are nonzero, so the reduced basis is one element, their gcd
    (h,) = buchberger(Ideal([f, g_rev], U), order, budget).elements
    deg = h.degree()
    val = min(m[0] for m in h.terms)
    return deg - val


# ---------------------------------------------------------------------------
# basket tracking

def _flip_basket_moves(flip: Flip):
    """(removed, added) singularity lists for one flip.

    At a singular coordinate point of the flipped locus the local transverse
    weights are the other survivors' localised weights; for a hypersurface
    flip the variable paired with the point in the cutting equation is
    locally eliminated there first.
    """
    removed = []
    added = []
    wts = dict(zip(flip.survivors, flip.weights))
    for u in flip.survivors:
        w = wts[u]
        if abs(w) <= 1:
            continue
        others = [v for v in flip.survivors if v != u]
        if flip.hyp_pair is not None and u in flip.hyp_pair:
            drop = flip.hyp_pair[0] if flip.hyp_pair[1] == u else flip.hyp_pair[1]
            others = [v for v in others if v != drop]
        if len(others) != 3:
            raise LinkError(f"cannot read 3 local weights at P_{u} of flip {flip.wall}")
        local = [wts[v] for v in others]
        entry = (abs(w), local)
        if w > 0:
            removed.append(entry)
        else:
            added.append(entry)
    return removed, added


def track_basket(steps: Sequence, case: FanoCase) -> list[Basket]:
    """Basket after each step.

    A removal target absent from the current basket means the declared
    basket and the link disagree; `Basket.remove` raises LinkError naming
    it.  The divisorial contraction moves nothing: it is read as a
    contraction to a Gorenstein point, and a non-Gorenstein one is flagged
    on the endpoint (`EndpointFano.gorenstein`) rather than in the basket.
    That reading is unchecked; ROADMAP item 2 gives the step its move.
    """
    basket = case.basket.copy()
    out = [basket.copy()]
    for step in steps:
        if isinstance(step, KawamataBlowup):
            r, (a, b, c) = step.centre
            basket.remove(r, (a, b, c))
            for w, others in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
                basket.add(w, (others[0], others[1], -r))
        elif isinstance(step, (Flip, SimultaneousFlips)):
            flips = step.flips if isinstance(step, SimultaneousFlips) else (step,)
            for flip in flips:
                removed, added = _flip_basket_moves(flip)
                for r, local in removed:
                    basket.remove(r, local)
                for r, local in added:
                    basket.add(r, local)
        out.append(basket.copy())
    return out


# ---------------------------------------------------------------------------
# Picard rank

@dataclass
class PicardReport:
    rho: int | None
    chain: list[str]


def picard_report(trace: "LinkTrace", endpoint_quasismooth: bool) -> PicardReport:
    """rho_X = 1 exactly when the link ends in a divisorial contraction to a
    quasi-smooth Fano of codimension <= 3 (flag supplied, not computed)."""
    last = trace.steps[-1] if trace.steps else None
    if not isinstance(last, DivisorialContractionToFano):
        return PicardReport(None, ["link does not end in a divisorial contraction"])
    ep = last.endpoint
    if ep.codim > 3:
        return PicardReport(None, [f"endpoint codimension {ep.codim} > 3"])
    if not endpoint_quasismooth:
        return PicardReport(None, ["endpoint quasi-smoothness not asserted"])
    chain = [
        f"endpoint X' is Fano of codimension {ep.codim} <= 3",
        "X' quasi-smooth (input flag) and Q-factorial, so rho(X') = 1",
        "the link is an isomorphism in codimension 1 apart from one divisor "
        "extracted and one contracted, so rho(X) = rho(X') = 1",
    ]
    return PicardReport(1, chain)


# ---------------------------------------------------------------------------
# full trace

@dataclass
class LinkTrace:
    case: FanoCase
    tag: str
    config: WeightConfig
    steps: list
    baskets: list[Basket]
    unprojection: UnprojectionResult
    blowup: BlowupData
    template_ok: bool
    template_notes: list[str]

    @property
    def endpoint(self):
        return self.steps[-1]


def wall_skip_expected(weights: WeightMatrix5, wall_weight: int) -> bool:
    """A single-variable wall is skipped when the quadratic pfaffian can carry
    a pure square of the wall variable: some complementary pair of ideal
    entries has both weights equal to the wall weight.  (Configuration (b)
    with pi equal to that weight is the typical source.)"""
    return any(weights[p] == wall_weight and weights[q] == wall_weight
               for p, q in complement_pairs(1))


def trace_link(case: FanoCase, seed: int = 0, budget: int = DEFAULT_BUDGET) -> LinkTrace:
    """Run the full birational link for one case.

    The weights fix the shape of the link: a two-variable wall is two
    simultaneous flips (`analyze_wall` raises otherwise) and the last wall
    group picks the endpoint.  Only a single-variable wall can go either
    way, so the template check compares it alone with its prediction
    (DECISIONS.md, "The link template compares only what can differ").
    """
    res = build_unprojection(case.build_matrix(seed), TomFormat(case.tom_k), case.r)
    S = kawamata_scroll(case)
    blow = blowup_ideal(res, S, case)
    tag = classify_case(case.d)
    config = detect_weight_config(res.weights, case.d)

    steps: list = [KawamataBlowup((case.r, case.abc))]
    nodes = count_flops(res, case, budget)
    steps.append(Flop(nodes, case.declared_nodes))

    groups = wall_groups(case.d)
    divisorial = len(groups[-1]) == 1
    middle = groups[:-2] if divisorial else groups[:-1]
    notes: list[str] = []
    for wall in middle:
        step = analyze_wall(blow.generators, S, wall)
        if len(wall) == 1:
            skip = wall_skip_expected(res.weights, S.top[S.index[wall[0]]])
            want, got = "Isomorphism" if skip else "Flip", type(step).__name__
            if got != want:
                notes.append(f"wall {wall}: expected {want}, computed {got}")
        steps.append(step)
    template_ok = not notes

    if divisorial:
        kind = (2, 0) if len(groups[-2]) == 1 else (2, 1)
        ep = endpoint_fano(blow.generators, S, groups[-2], groups[-1][0], budget)
        steps.append(DivisorialContractionToFano(kind, tuple(groups[-2]), ep))
    elif len(groups[-1]) == 2:
        steps.append(dp_degree(blow.generators, S, groups[-1], budget))
    else:
        pf_part = blow.generators[:5]
        steps.append(conic_discriminant_or_note(pf_part, S, groups[-1], budget))

    baskets = track_basket(steps, case)
    if nodes is not None and case.declared_nodes is not None and nodes != case.declared_nodes:
        notes.append(f"computed {nodes} nodes, declared {case.declared_nodes}")

    return LinkTrace(case, tag, config, steps, baskets, res, blow, template_ok, notes)


def verify_blowup_saturation(blow: BlowupData, budget: int = DEFAULT_BUDGET) -> bool:
    """Oracle: the divided generators h span J = I : t^inf, I the pull-back.

    (h) is contained in J: each raw pull-back r_i must equal t^{k_i}*h_i
    exactly, with k_i the recorded exponent (a length mismatch or a failed
    identity returns False).  Those identities put I inside (h) and each
    h_i inside J, so J = (h) : t^inf, and (h) = J iff (h) is saturated
    with respect to t.  The h are bihomogeneous on the scroll, so
    homogeneous for the positive grading w = 2*top + bottom, under which
    t, s, x and y_j weigh 1, 2r+1, 2a|2b|2c and 2d_j-1.  Let G be the
    reduced Groebner basis of (h) under the w-graded order with t smallest.
    Then (h) : t^inf = (h) iff no element of G has the factor t: if none
    has, Bayer's theorem (Bayer-Stillman 1987) makes G itself a basis of
    the saturation; if t divides g in G, then lead(g)/t lies in the initial
    ideal of the saturation, and were that in(h), the lead of another
    element of G would divide lead(g), which a reduced basis forbids.  One
    basis, of (h), decides it (`groebner.is_saturated`).
    """
    raw = blow.pullback_ideal.generators
    if not len(raw) == len(blow.generators) == len(blow.t_exponents):
        return False
    ring = blow.pullback_ideal.ring
    t = ring.gen("t")
    if any(r != t ** k * h for r, h, k in zip(raw, blow.generators, blow.t_exponents)):
        return False
    w = tuple(2 * a + b for a, b in zip(ring.top, ring.bottom))
    return is_saturated(Ideal(blow.generators, ring), "t", budget, w)
