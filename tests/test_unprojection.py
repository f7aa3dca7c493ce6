from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomlinks import unprojection
from tomlinks.algebra import Polynomial, Ring, bidegree, det, parse
from tomlinks.groebner import Ideal, MatrixOrder, buchberger, eliminate, normal_form
from tomlinks.pfaffian import (
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
    verify_unprojection,
)

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


def corrupt_cofactor_row(monkeypatch, row, extra):
    """Make _cofactor_row add the polynomial extra to entry 1 of the given row."""
    original = unprojection._cofactor_row

    def corrupted(Q, i, minors):
        out = original(Q, i, minors)
        if i == row:
            out[0] = out[0] + extra
        return out

    monkeypatch.setattr(unprojection, "_cofactor_row", corrupted)


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
        minors: dict = {}
        H = [unprojection._cofactor_row(Q, i, minors) for i in range(1, 5)]
        assert len(minors) == 18
        for i in range(4):
            for j in range(4):
                sub = [[Q[r][c] for c in range(4) if c != j] for r in range(4) if r != i]
                assert H[i][j] == (det(sub) if (i + j) % 2 == 0 else -det(sub))
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
        # g is the first cofactor row of Q read off directly
        res = build_unprojection(toy_unit_p1(), TomFormat(1), s_weight=2)
        for j in range(4):
            assert res.g[j] == res.H[0][j]

    def test_toy_nonzero_row_with_zero_p_rejected(self, monkeypatch):
        # p_2 = 0, so H_2 = p_2 * g forces H_2 = 0; no division ever reads row 2
        M = toy_unit_p1()
        corrupt_cofactor_row(monkeypatch, 2, M.ring.gen("x1"))
        with pytest.raises(UnprojectionError, match="H_2 != p_2"):
            build_unprojection(M, TomFormat(1), s_weight=2)

    @pytest.mark.parametrize("row", [1, 2, 3, 4])
    def test_corrupted_row_20652_rejected(self, monkeypatch, row):
        # the added multiple of p_row keeps the row divisible by p_row, so only
        # H_k = p_k * g catches it; a corrupted row 1 corrupts g, which row 2 exposes
        p = parse(("x1", "x2", "x3", "y3")[row - 1], R20652)
        corrupt_cofactor_row(monkeypatch, row, p * R20652.gen("x1"))
        k = max(row, 2)
        with pytest.raises(UnprojectionError, match=f"H_{k} != p_{k}"):
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
        res = build_unprojection(matrix_20652(), TomFormat(1), s_weight=2)
        for i in range(4):
            for j in range(4):
                for c in range(4):
                    assert res.p[i] * res.H[j][c] == res.p[j] * res.H[i][c]


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

    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_seeded_members(self, seed):
        M = build_general_tom(W20652, TomFormat(1), R20652, seed)
        res = build_unprojection(M, TomFormat(1), s_weight=2)
        rep = verify_unprojection(res, (2, 2, 1, 1))
        assert rep.ok()


def test_eliminating_s_recovers_pfaffians():
    M = matrix_20652()
    res = build_unprojection(M, TomFormat(1), s_weight=2)
    el = eliminate(res.X_ideal, ["s"])
    assert el.generators
    order = MatrixOrder.grevlex(res.ring_x)
    gb = buchberger(el, order)
    from tomlinks.algebra import substitute

    lift = {n: res.ring_x.gen(n) for n in R20652.names}
    for pf in res.pfaffians:
        assert normal_form(substitute(pf, lift, res.ring_x), gb).is_zero()
