from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomlinks import unprojection
from tomlinks.algebra import Polynomial, Ring, bidegree, det, parse, substitute
from tomlinks.casefile import load_bundled
from tomlinks.groebner import Ideal, MatrixOrder, buchberger, normal_form
from tomlinks.pfaffian import (
    IDEAL_VARS,
    PAIRS,
    SkewMatrix5,
    TomFormat,
    WeightMatrix5,
    build_general_tom,
)
from tomlinks.unprojection import (
    UnprojectionError,
    build_unprojection,
    decompose_entries,
    tom_normalising_permutation,
    verify_unprojection,
)

from reference import eliminate

R7 = Ring(("x1", "x2", "x3", "y1", "y2", "y3", "y4"), [(1, 1, 1, 6, 5, 4, 3)])
W10985 = WeightMatrix5.from_list([1, 2, 3, 4, 3, 4, 5, 5, 6, 7])

R20652 = Ring(("x1", "x2", "x3", "y1", "y2", "y3", "y4"), [(1, 1, 1, 2, 2, 1, 1)])
W20652 = WeightMatrix5.from_list([1, 1, 1, 1, 2, 2, 2, 2, 2, 2])


def matrix_20652():
    entries = {
        (1, 2): "x1", (1, 3): "x2", (1, 4): "x3", (1, 5): "y3",
        (2, 3): "y1", (2, 4): "y2", (2, 5): "x2*y4 - x3*y3 + y1",
        (3, 4): "x1*y3 - y2", (3, 5): "y4^2 - y2", (4, 5): "x1*y3 + y1",
    }
    return SkewMatrix5({k: parse(v, R20652) for k, v in entries.items()}, W20652, R20652)


class TestDecompose:
    def test_y4_squared_minus_y2(self):
        alpha = decompose_entries(matrix_20652(), TomFormat(1))[(3, 5)]  # entry y4^2 - y2
        assert alpha[3] == parse("y4", R20652)     # y4 branch of y4^2
        assert alpha[1] == parse("-1", R20652)     # coefficient of y2
        assert alpha[0].is_zero() and alpha[2].is_zero()

    def test_single_variable(self):
        alpha = decompose_entries(matrix_20652(), TomFormat(1))[(2, 3)]  # entry y1
        assert alpha[0] == R20652.one()

    def test_common_factor(self):
        ring = R20652
        entries = dict(matrix_20652().entries)
        entries[(2, 4)] = parse("x1*y3 + x2*y3", ring)  # weight 2 entry
        M = SkewMatrix5(entries, W20652, ring)
        assert decompose_entries(M, TomFormat(1))[(2, 4)][2] == parse("x1 + x2", ring)

    def test_non_ideal_term_rejected(self):
        entries = dict(matrix_20652().entries)
        entries[(2, 3)] = parse("x1^2", R20652)
        M = SkewMatrix5(entries, W20652, R20652)
        with pytest.raises(UnprojectionError):
            decompose_entries(M, TomFormat(1))


def toy_unit_p1():
    """p = (1,0,0,0), constrained entries the y variables themselves."""
    ring = Ring(("x1", "x2", "x3", "y1", "y2", "y3", "y4"), [(1, 1, 1, 1, 1, 1, 1)])
    W = WeightMatrix5.from_list([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
    z = ring.zero()
    entries = {
        (1, 2): ring.one(), (1, 3): z, (1, 4): z, (1, 5): z,
        (2, 3): ring.gen("y1"), (2, 4): ring.gen("y2"), (2, 5): ring.gen("y3"),
        (3, 4): ring.gen("y4"), (3, 5): z, (4, 5): z,
    }
    return SkewMatrix5(entries, W, ring)


def corrupt_cofactor_row(monkeypatch, entry, extra):
    """Make _cofactor_row add the polynomial extra to the given entry (1-based)
    of the row it computes."""
    original = unprojection._cofactor_row

    def corrupted(Q, i):
        out = original(Q, i)
        out[entry - 1] = out[entry - 1] + extra
        return out

    monkeypatch.setattr(unprojection, "_cofactor_row", corrupted)


def corrupt_q(monkeypatch, changes):
    """Make _linear_pfaffian_matrix add changes[(row, column)] (0-based) to Q."""
    original = unprojection._linear_pfaffian_matrix

    def corrupted(Mn):
        Q = original(Mn)
        for (r, c), extra in changes.items():
            Q[r][c] = Q[r][c] + extra
        return Q

    monkeypatch.setattr(unprojection, "_linear_pfaffian_matrix", corrupted)


def det3(m):
    """The six-term formula for a 3x3 determinant."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h


def reference_cofactors(Q):
    """All 16 signed 3x3 minors of Q by the six-term formula, independently
    of `algebra.minors`, which _cofactor_row calls."""
    return [[(1 if (k + j) % 2 == 0 else -1)
             * det3([[Q[r][c] for c in range(4) if c != j] for r in range(4) if r != k])
             for j in range(4)] for k in range(4)]


def normalised_q(M, fmt):
    """Q as build_unprojection forms it, and the p row it pairs with."""
    Mn = M.permuted(tom_normalising_permutation(fmt.k))
    return (unprojection._linear_pfaffian_matrix(Mn),
            [Mn.entries[(1, j)] for j in range(2, 6)])


R3 = Ring(("x", "y", "z"), [(1, 1, 1)])
# the supports of 0, 1 and 2 terms from {0,1}^3, and the nonzero
# coefficients in [-3, 3] of denominator <= 3: fixed lists, so no draw is
# filtered or retried
SUPPORTS = [list(combinations(product((0, 1), repeat=3), k)) for k in range(3)]
ENTRY_COEFFS = sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1) if n})


@st.composite
def entries(draw):
    support = draw(st.sampled_from(SUPPORTS[draw(st.integers(0, 2))]))
    return Polynomial(R3, {m: draw(st.sampled_from(ENTRY_COEFFS)) for m in support})


class TestCofactorRow:
    @given(st.lists(st.lists(entries(), min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_adjugate(self, Q):
        H = [unprojection._cofactor_row(Q, i) for i in range(1, 5)]
        assert H == reference_cofactors(Q)
        detQ = det(Q)
        for i in range(4):
            for k in range(4):
                total = sum((Q[k][j] * H[i][j] for j in range(4)), R3.zero())
                assert total == (detQ if i == k else R3.zero())


class TestBuildUnprojection:
    def test_degrees(self):
        M = build_general_tom(W10985, TomFormat(1), R7, seed=0)
        res = build_unprojection(M, TomFormat(1), s_weight=2)
        assert [bidegree(g).top for g in res.g] == [8, 7, 6, 5]

    def test_toy_unit_p1(self):
        # p_1 = 1, so g is the first cofactor row of Q read off directly
        M = toy_unit_p1()
        res = build_unprojection(M, TomFormat(1), s_weight=2)
        Q, _ = normalised_q(M, TomFormat(1))
        assert res.g == reference_cofactors(Q)[0]

    def test_toy_nonzero_row_with_zero_p_rejected(self, monkeypatch):
        # p = (1, 0, 0, 0) and Q's only nonzero row is row 4 = (0, 0, 0, 1):
        # Q g = 0 is checked on the rows whose p_k vanishes too
        M = toy_unit_p1()
        corrupt_cofactor_row(monkeypatch, 4, M.ring.gen("x1"))
        with pytest.raises(UnprojectionError, match="Q g != 0 in row 4"):
            build_unprojection(M, TomFormat(1), s_weight=2)

    @pytest.mark.parametrize("entry", [1, 2, 3, 4])
    def test_corrupted_row_20652_rejected(self, monkeypatch, entry):
        # p_1 = x1, so H_1 is the one row computed; adding p_1 * x1 keeps it
        # divisible by p_1, and only Q g = 0 catches the changed quotient
        corrupt_cofactor_row(monkeypatch, entry, parse("x1^2", R20652))
        with pytest.raises(UnprojectionError, match="Q g != 0 in row 2"):
            build_unprojection(matrix_20652(), TomFormat(1), s_weight=2)

    @pytest.mark.parametrize("paired", [False, True])
    def test_corrupted_q_breaks_left_kernel(self, monkeypatch, paired):
        # one changed entry of Q; the paired change also keeps Q . y, so the
        # recombination of the linear pfaffians cannot see it
        y = R20652.gen
        changes = ({(0, 0): y("y2"), (0, 1): -y("y1")} if paired
                   else {(0, 0): y("x1")})
        corrupt_q(monkeypatch, changes)
        with pytest.raises(UnprojectionError, match=r"p\^T Q != 0 in column 1"):
            build_unprojection(matrix_20652(), TomFormat(1), s_weight=2)

    def test_all_p_zero(self):
        ring = R20652
        z = ring.zero()
        entries = {p: z for p in PAIRS}
        entries[(2, 3)] = ring.gen("y1")
        entries[(4, 5)] = ring.gen("y2")
        W = WeightMatrix5.from_list([1, 1, 1, 1, 2, 2, 2, 2, 2, 2])
        M = SkewMatrix5(entries, W, ring)
        with pytest.raises(UnprojectionError):
            build_unprojection(M, TomFormat(1), s_weight=2)

    def test_ph_identity_20652(self):
        # the rows of the reference cofactor matrix are proportional as p is,
        # whatever the build computes
        Q, p = normalised_q(matrix_20652(), TomFormat(1))
        C = reference_cofactors(Q)
        for i in range(4):
            for j in range(4):
                for c in range(4):
                    assert p[i] * C[j][c] == p[j] * C[i][c]


# the bundled matrices (seed None) include 11005, whose p_4 has 15 terms;
# the seeded members have the weights of the three worked examples
@pytest.mark.parametrize("name, seed", [
    ("20652", None), ("10985", None), ("11005", None), ("5963", None),
    ("10985", 3), ("20652", 3), ("24097", 3),
])
def test_cofactor_matrix_is_p_times_g(name, seed):
    # the conclusion of the one-row certificate, against all 16 minors by
    # the six-term formula
    case = load_bundled(name).to_fano_case()
    fmt = TomFormat(case.tom_k)
    M = (case.build_matrix(0) if seed is None
         else build_general_tom(case.matrix_weights, fmt, case.ambient6, seed))
    res = build_unprojection(M, fmt, case.r)
    Q, p = normalised_q(M, fmt)
    assert p == res.p
    C = reference_cofactors(Q)
    for k in range(4):
        for j in range(4):
            assert C[k][j] == p[k] * res.g[j]


class TestVerify:
    def test_bundled_cases_pass(self):
        for M, d in ((matrix_20652(), (2, 2, 1, 1)),):
            res = build_unprojection(M, TomFormat(1), s_weight=2)
            rep = verify_unprojection(res, d)
            assert rep.ok()

    def test_corrupted_g_fails_consistency(self):
        res = build_unprojection(matrix_20652(), TomFormat(1), s_weight=2)
        res.g[0] = res.g[0] + parse("x1^4", R20652)
        rep = verify_unprojection(res, (2, 2, 1, 1))
        assert not rep.consistency_ok

    @pytest.mark.parametrize("replace", [False, True], ids=["inhomogeneous", "wrong-degree"])
    def test_bad_g_degree_fails_degrees(self, replace):
        # g_3 has degree r + d_3 = 3; adding x1^4 leaves it inhomogeneous
        res = build_unprojection(matrix_20652(), TomFormat(1), s_weight=2)
        before = verify_unprojection(res, (2, 2, 1, 1)).degree_detail
        x1_4 = parse("x1^4", R20652)
        res.g[2] = x1_4 if replace else res.g[2] + x1_4
        rep = verify_unprojection(res, (2, 2, 1, 1))
        assert not rep.degrees_ok and not rep.ok()
        assert rep.degree_detail == before[:2] + [(3, 4)] + before[3:]

    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_seeded_members(self, seed):
        M = build_general_tom(W20652, TomFormat(1), R20652, seed)
        res = build_unprojection(M, TomFormat(1), s_weight=2)
        rep = verify_unprojection(res, (2, 2, 1, 1))
        assert rep.ok()


def reference_consistency(res):
    """(i, j, y_i g_j - y_j g_i in (Pf)) for the six pairs, each decided by
    its normal form against the full reduced Groebner basis."""
    ring = res.pfaffians[0].ring
    gb = buchberger(Ideal(res.pfaffians, ring), MatrixOrder.grevlex(ring))
    y = [ring.gen(v) for v in IDEAL_VARS]
    return [(i + 1, j + 1, normal_form(y[i] * res.g[j] - y[j] * res.g[i], gb).is_zero())
            for i, j in combinations(range(4), 2)]


# 20652 as bundled and a seeded 10985 member.  g_j gains a form of its own
# degree e: x1^e, which takes the three pairs with g_j out of (Pf), or the
# x1-multiples of the pfaffians of degree <= e, which leaves all six in it
# (10985's g_4 has degree 5, below every pfaffian, so it stays as built)
@pytest.mark.parametrize("name, seed", [("20652", None), ("10985", 5)])
@pytest.mark.parametrize("j", range(4))
@pytest.mark.parametrize("member", [False, True], ids=["monomial", "pfaffian-multiple"])
def test_corrupted_g_verdicts_match_reference(name, seed, j, member):
    case = load_bundled(name).to_fano_case()
    fmt = TomFormat(case.tom_k)
    M = (case.build_matrix(0) if seed is None
         else build_general_tom(case.matrix_weights, fmt, case.ambient6, seed))
    res = build_unprojection(M, fmt, case.r)
    e = case.r + case.d[j]
    x1 = case.ambient6.gen("x1")
    if member:
        extra = sum((x1 ** (e - bidegree(pf).top) * pf for pf in res.pfaffians
                     if bidegree(pf).top <= e), case.ambient6.zero())
    else:
        extra = x1 ** e
    res.g[j] = res.g[j] + extra
    expected = reference_consistency(res)
    assert expected == [(a, b, member or j + 1 not in (a, b)) for a, b, _ in expected]
    rep = verify_unprojection(res, case.d)
    assert rep.consistency_detail == expected
    assert rep.consistency_ok == member


def test_eliminating_s_recovers_pfaffians():
    M = matrix_20652()
    res = build_unprojection(M, TomFormat(1), s_weight=2)
    el = eliminate(res.X_ideal, ["s"])
    assert el.generators
    ring_x = res.X_ideal.ring
    order = MatrixOrder.grevlex(ring_x)
    gb = buchberger(el, order)
    lift = {n: ring_x.gen(n) for n in R20652.names}
    for pf in res.pfaffians:
        assert normal_form(substitute(pf, lift, ring_x), gb).is_zero()
