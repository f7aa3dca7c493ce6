"""The exit criteria, one test per asserted item, all tolerances exact.

Two sub-checks are strict expected failures: the recorded node count for the
third worked example and the recorded discriminant factor positions both
contradict the same source's displayed matrices (from which everything here
is computed).  The checks assert the recorded values as stated and the
xfail records the discrepancy; the analysis lives in the decisions ledger,
DECISIONS.md at the repository root.

Run `tomlinks selftest` for the same battery with one printed line per item.
"""

from fractions import Fraction

import pytest

from tomlinks import acceptance, birational
from tomlinks.acceptance import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)
from tomlinks.algebra import Ring, parse
from tomlinks.groebner import BudgetExceeded


def _index(results):
    out = {}
    for r in results:
        out.setdefault(r.criterion, []).append(r)
    return out


@pytest.fixture(scope="module")
def c1():
    return _index(criterion_1())


@pytest.fixture(scope="module")
def c2():
    return _index(criterion_2())


@pytest.fixture(scope="module")
def c3():
    return _index(criterion_3())


class TestCriterion1:
    def test_1a_blowup_equations_match_display(self, c1):
        assert c1["1a"][0].passed

    def test_1b_flop_count_24(self, c1):
        assert c1["1b"][0].passed, c1["1b"][0].detail

    def test_1c_flip_weights(self, c1):
        assert c1["1c"][0].passed

    def test_1d_second_wall_isomorphism(self, c1):
        assert c1["1d"][0].passed

    def test_1e_endpoint_equations(self, c1):
        assert c1["1e"][0].passed

    def test_1f_basket_evolution(self, c1):
        assert c1["1f"][0].passed, c1["1f"][0].detail


class TestCriterion2:
    def test_2a_flop_count_7(self, c2):
        assert c2["2a"][0].passed, c2["2a"][0].detail

    def test_2b_simultaneous_francia_flips(self, c2):
        assert c2["2b"][0].passed

    def test_2c_del_pezzo_degree_5(self, c2):
        assert c2["2c"][0].passed, c2["2c"][0].detail


class TestCriterion3:
    @pytest.mark.xfail(
        strict=True,
        reason="recorded count 8 contradicts the worked example's own displayed "
               "matrix and equations, which give 6 by two independent degree "
               "computations; see DECISIONS.md",
    )
    def test_3a_flop_count_recorded_value(self, c3):
        assert c3["3a"][0].passed, c3["3a"][0].detail

    def test_3b_francia_flip(self, c3):
        assert c3["3b"][0].passed

    @pytest.mark.xfail(
        strict=True,
        reason="recorded factors 1+y3 / 1+y2 contradict the displayed Gram "
               "matrices, whose determinants vanish at +1, not -1; see DECISIONS.md",
    )
    def test_3c_patch_determinants_recorded_values(self, c3):
        assert c3["3c"][0].passed, c3["3c"][0].detail

    def test_3d_patch_determinants_from_displayed_gram(self, c3):
        assert c3["3d"][0].passed

    def test_3e_discriminant_6_with_overlap(self, c3):
        assert c3["3e"][0].passed, c3["3e"][0].detail

    def test_conic_without_determinants_fails_its_lines(self, monkeypatch):
        # a conic step that carries only a note fails 3c-3e; the battery goes on
        def no_conic(*args, **kwargs):
            raise birational.LinkError("no principal conic")

        monkeypatch.setattr(birational, "conic_discriminant", no_conic)
        got = _index(criterion_3())
        assert [got[c][0].passed for c in ("3c", "3d", "3e")] == [False] * 3
        assert got["3e"][0].detail == "discriminant not computed: no principal conic"


class TestCriterion4:
    def test_saturation_oracle(self):
        for r in criterion_4():
            assert r.passed, r.name


class TestCriterion5:
    def test_unprojection_identities_25_members(self):
        r = criterion_5()[0]
        assert r.passed, r.detail


class TestCriterion6:
    def test_all_tags_and_skips(self):
        for r in criterion_6():
            assert r.passed, f"{r.name}: {r.detail}"


class TestCriterion7:
    def test_delta_lemma(self):
        r = criterion_7()[0]
        assert r.passed, r.detail

    def test_program_error_propagates(self, monkeypatch):
        # only LinkError becomes a failed line; a bug must fail loudly
        def broken(g, case):
            raise TypeError("bug in compute_deltas")

        monkeypatch.setattr(acceptance, "compute_deltas", broken)
        with pytest.raises(TypeError, match="bug in compute_deltas"):
            criterion_7()


class TestCriterion8:
    def test_rank_profile(self):
        for r in criterion_8():
            assert r.passed, r.name


class TestCriterion9:
    def test_picard_chain_all_rows(self):
        for r in criterion_9():
            assert r.passed, f"{r.name}: {r.detail}"

    def test_uncertified_endpoint_fails(self, monkeypatch):
        # an endpoint whose minimality is not certified fails the row
        def capped(ideal, order, budget):
            raise BudgetExceeded(budget)

        monkeypatch.setattr(acceptance, "TABLE1_ROWS", ["5963"])
        monkeypatch.setattr(birational, "minimal_generators", capped)
        # trace anew, and leave no capped trace behind for later criteria
        acceptance._seed0_trace.cache_clear()
        try:
            (r,) = criterion_9()
        finally:
            acceptance._seed0_trace.cache_clear()
        assert not r.passed
        assert "minimality certified: False" in r.detail


class TestScale:
    U = Ring(("y",), [(1,)])

    def test_rational_scale_of_integer_polynomials(self):
        c = acceptance._scale(parse("3*y^4 + 3*y^5", self.U), parse("2*y^4 + 2*y^5", self.U))
        assert type(c) is Fraction and c == Fraction(3, 2)

    def test_not_proportional(self):
        assert acceptance._scale(parse("3*y^4 + y^5", self.U), parse("2*y^4 + 2*y^5", self.U)) is None
        assert acceptance._scale(parse("y^3", self.U), parse("y^4", self.U)) is None
