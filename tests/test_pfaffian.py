import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomlinks.algebra import Ring, bidegree, parse, random_general
from tomlinks.pfaffian import (
    PAIRS,
    PfaffianError,
    SkewMatrix5,
    TomFormat,
    WeightMatrix5,
    build_general_tom,
    maximal_pfaffians,
)
from tomlinks.unprojection import UnprojectionError, decompose_entries

R7 = Ring(("x1", "x2", "x3", "y1", "y2", "y3", "y4"), [(1, 1, 1, 6, 5, 4, 3)])
W10985 = WeightMatrix5.from_list([1, 2, 3, 4, 3, 4, 5, 5, 6, 7])


def matrix_10985():
    entries = {
        (1, 2): "x1", (1, 3): "-x2*x3", (1, 4): "x1*x2^2 - x2^3 + y4",
        (1, 5): "-x3^4 + y3", (2, 3): "y4", (2, 4): "y3", (2, 5): "y2",
        (3, 4): "-y2", (3, 5): "y1", (4, 5): "x1^4*y4 + x2^2*y2",
    }
    return SkewMatrix5({k: parse(v, R7) for k, v in entries.items()}, W10985, R7)


class TestWeightMatrix:
    def test_homogeneity_enforced(self):
        bad = [1] * 10
        bad[0] = 5  # m12 + m34 != m13 + m24
        with pytest.raises(PfaffianError):
            WeightMatrix5.from_list(bad)

    def test_pfaffian_degrees(self):
        assert [W10985.pfaffian_degree(k) for k in range(1, 6)] == [10, 9, 8, 7, 6]


class TestMaximalPfaffians:
    def test_unit_pfaffian(self):
        ring = Ring(("x1",), [(1,)])
        entries = {p: ring.zero() for p in PAIRS}
        entries[(2, 3)] = ring.one()
        entries[(4, 5)] = ring.one()
        weights = WeightMatrix5.from_list([0] * 10)
        pf = maximal_pfaffians(SkewMatrix5(entries, weights, ring))
        assert pf[0] == ring.one()
        assert all(p.is_zero() for p in pf[1:])

    def test_tom1_linearity(self):
        pf = maximal_pfaffians(matrix_10985())
        ys = [R7.index[n] for n in ("y1", "y2", "y3", "y4")]
        for p in pf[1:]:
            assert all(sum(m[i] for i in ys) >= 1 for m in p.terms)
        assert all(sum(m[i] for i in ys) >= 2 for m in pf[0].terms)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_syzygy(self, seed):
        M = build_general_tom(W10985, TomFormat(1), R7, seed)
        pf = maximal_pfaffians(M)
        for i in range(1, 6):
            row = R7.zero()
            for j in range(1, 6):
                row = row + M[(i, j)] * pf[j - 1]
            assert row.is_zero()

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_homogeneous(self, seed):
        M = build_general_tom(W10985, TomFormat(1), R7, seed)
        for k, p in enumerate(maximal_pfaffians(M), start=1):
            assert bidegree(p).top == W10985.pfaffian_degree(k)


class TestCheckTom:
    """Tom_k membership: `decompose_entries` splits all six entries off
    row and column k over (y1..y4), or raises."""

    def test_bundled_matrix(self):
        assert len(decompose_entries(matrix_10985(), TomFormat(1))) == 6

    def test_wrong_index(self):
        with pytest.raises(UnprojectionError, match="no y factor"):
            decompose_entries(matrix_10985(), TomFormat(3))

    def test_zero_matrix(self):
        entries = {p: R7.zero() for p in PAIRS}
        M = SkewMatrix5(entries, WeightMatrix5.from_list([1] * 10), R7)
        for k in range(1, 6):
            assert len(decompose_entries(M, TomFormat(k))) == 6

    def test_monotone_under_ideal_addition(self):
        M = matrix_10985()
        entries = dict(M.entries)
        entries[(3, 4)] = entries[(3, 4)] + parse("x1^2*y4", R7)
        M2 = SkewMatrix5(entries, W10985, R7)
        assert len(decompose_entries(M2, TomFormat(1))) == 6


class TestBuildGeneralTom:
    def test_bundled_weight_data(self):
        M = build_general_tom(W10985, TomFormat(1), R7, seed=0)
        assert len(decompose_entries(M, TomFormat(1))) == 6
        # every admissible monomial appears, so y_j is linear in each
        # constrained entry of weight d_j
        for ij, y in (((2, 3), "y4"), ((2, 4), "y3"), ((2, 5), "y2"), ((3, 5), "y1")):
            assert next(iter(R7.gen(y).terms)) in M.entries[ij].terms

    def test_zero_degree_constraint(self):
        W = WeightMatrix5.from_list([1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        ring = Ring(("x1", "x2", "x3", "y1", "y2", "y3", "y4"), [(1, 1, 1, 3, 3, 3, 3)])
        # ideal entries have weight 1 < min ideal weight: no admissible monomial
        with pytest.raises(Exception):
            build_general_tom(W, TomFormat(1), ring, seed=0)

    def test_seed_changes_coefficients_only(self):
        M1 = build_general_tom(W10985, TomFormat(1), R7, seed=1)
        M2 = build_general_tom(W10985, TomFormat(1), R7, seed=2)
        for p in PAIRS:
            assert set(M1.entries[p].terms) == set(M2.entries[p].terms)
        assert any(M1.entries[p] != M2.entries[p] for p in PAIRS)

    def test_determinism(self):
        assert all(
            build_general_tom(W10985, TomFormat(1), R7, seed=4).entries[p]
            == build_general_tom(W10985, TomFormat(1), R7, seed=4).entries[p]
            for p in PAIRS
        )
