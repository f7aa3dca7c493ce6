import pickle
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tomlinks.algebra import (
    AlgebraError,
    MatrixOrder,
    Polynomial,
    Ring,
    monomials_of_degree,
    parse,
    random_general,
    substitute,
)
from tomlinks.groebner import (
    BudgetExceeded,
    Ideal,
    NotZeroDimensional,
    buchberger,
    contains,
    hilbert_numerator,
    is_saturated,
    minimal_generators,
    normal_form,
    projective_dim_degree,
    saturate,
    zero_dim_degree,
)

from reference import block_order, eliminate

R2 = Ring(("x1", "y1"), [(1, 1)])
P2 = Ring(("x1", "x2", "x3"), [(1, 1, 1)])


class TestBuchberger:
    def test_monomial_ideal(self):
        gb = buchberger(Ideal([parse("x1", R2), parse("y1", R2)]), MatrixOrder.grevlex(R2))
        assert sorted(str(g) for g in gb.elements) == ["x1", "y1"]

    def test_reduction_example(self):
        # <x1^2 - y1, x1^3> picks up x1*y1 and y1^2
        gb = buchberger(Ideal([parse("x1^2 - y1", R2), parse("x1^3", R2)]),
                        MatrixOrder.grevlex(R2))
        assert normal_form(parse("x1*y1", R2), gb).is_zero()
        assert normal_form(parse("y1^2", R2), gb).is_zero()
        # hand S-polynomial check: S(x1^2 - y1, x1^3) = x1*y1
        leads = {str(max(g.terms, key=gb.order.key)) for g in []}
        assert {str(g) for g in gb.elements} == {"x1^2 - y1", "x1*y1", "y1^2"}

    def test_principal(self):
        p = parse("2*x1^2 - 4*y1", R2)
        gb = buchberger(Ideal([p]), MatrixOrder.grevlex(R2))
        assert len(gb.elements) == 1
        assert gb.elements[0] == parse("x1^2 - 2*y1", R2)

    def test_budget(self):
        gens = [random_general(3, P2, seed=s) for s in range(3)]
        with pytest.raises(BudgetExceeded, match="exceeded in buchberger") as exc:
            buchberger(Ideal(gens), MatrixOrder.grevlex(P2), budget=1)
        assert (exc.value.budget, exc.value.routine) == (1, "buchberger")

    def test_budget_exceeded_without_routine(self):
        e = BudgetExceeded(7)
        assert (e.budget, e.routine) == (7, None)
        assert str(e) == "Groebner budget of 7 reduction steps exceeded"

    @pytest.mark.parametrize("routine", ["buchberger", None])
    def test_budget_exceeded_pickle_round_trip(self, routine):
        e = BudgetExceeded(5, routine)
        copy = pickle.loads(pickle.dumps(e))
        assert (type(copy), str(copy)) == (BudgetExceeded, str(e))
        assert (copy.budget, copy.routine) == (5, routine)

    def test_budget_counts_every_reduction_step(self):
        # this basis takes exactly 91 reduction steps: a budget of s steps
        # allows s, and the step over it raises
        gens = [random_general(3, P2, seed=s) for s in range(3)]
        buchberger(Ideal(gens), MatrixOrder.grevlex(P2), budget=91)
        with pytest.raises(BudgetExceeded):
            buchberger(Ideal(gens), MatrixOrder.grevlex(P2), budget=90)

    def test_s_polynomial_exponent_overflow_raises(self):
        # S(x1^2 - y1^2, x1*y1^(2^31 - 2)) has the term y1^(2^31)
        gens = [parse("x1^2 - y1^2", R2), R2.monomial((1, 2**31 - 2))]
        with pytest.raises(AlgebraError, match="2\\^31"):
            buchberger(Ideal(gens), MatrixOrder.grevlex(R2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_generates_same_ideal(self, seed):
        # mutual membership against bases under two different orders
        gens = [random_general(2, P2, seed=seed + k) for k in range(2)]
        gb = buchberger(Ideal(gens), MatrixOrder.grevlex(P2))
        lex_ish = MatrixOrder(P2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        gb2 = buchberger(Ideal(gens), lex_ish)
        assert all(normal_form(g, gb).is_zero() for g in gens)
        assert all(normal_form(e, gb2).is_zero() for e in gb.elements)
        assert all(normal_form(e, gb).is_zero() for e in gb2.elements)

    def test_reduced_basis_shape(self):
        gens = [random_general(2, P2, seed=3), random_general(3, P2, seed=4)]
        order = MatrixOrder.grevlex(P2)
        gb = buchberger(Ideal(gens), order)
        leads = [max(g.terms, key=order.key) for g in gb.elements]
        for i, g in enumerate(gb.elements):
            assert g.terms[leads[i]] == 1  # monic
            for m in g.terms:
                for j, lm in enumerate(leads):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lm, m))


class TestNormalForm:
    def test_self_membership(self):
        gens = [parse("x1^2 - y1", R2), parse("x1*y1", R2)]
        gb = buchberger(Ideal(gens), MatrixOrder.grevlex(R2))
        for g in gens:
            assert normal_form(g, gb).is_zero()

    def test_non_membership(self):
        assert normal_form(R2.one(), [parse("x1", R2)]) == R2.one()

    def test_budget(self):
        p = parse("x1^3", R2)
        basis = [parse("x1 - y1", R2)]
        assert normal_form(p, basis, MatrixOrder.grevlex(R2), budget=3) == parse("y1^3", R2)
        with pytest.raises(BudgetExceeded, match="exceeded in normal_form"):
            normal_form(p, basis, MatrixOrder.grevlex(R2), budget=2)

    def test_reduction_exponent_overflow_raises(self):
        # x1^2 leads x1^2 - y1^2; reducing x1^2*y1^(2^31 - 2) by it makes y1^(2^31)
        p = R2.monomial((2, 2**31 - 2))
        with pytest.raises(AlgebraError, match="2\\^31"):
            normal_form(p, [parse("x1^2 - y1^2", R2)], MatrixOrder.grevlex(R2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_basis_entries_match_elements(self, seed):
        # a GroebnerBasis gives the same remainder, values and term order,
        # as the raw-list path on its elements under its order
        gens = [random_general(2, P2, seed=seed + k) * Fraction(k + 1, 3) for k in range(2)]
        gb = buchberger(Ideal(gens), MatrixOrder.grevlex(P2))
        for k in range(3):
            p = random_general(3, P2, seed=seed + 7 + k) * Fraction(2, 5)
            nf = normal_form(p, gb)
            assert nf == normal_form(p, gb.elements, gb.order)
            assert list(nf.terms) == list(normal_form(p, gb.elements, gb.order).terms)


def t_multiple_ideal(weights, specs) -> Ideal:
    """Generators t^k * f with f homogeneous of degree d*lcm(weights)."""
    R = Ring(("t", "x1", "y1"), [weights])
    t = R.gen("t")
    gens = []
    for k, d, coeffs in specs:
        monos = monomials_of_degree(R, d * lcm(*weights))
        f = sum((R.monomial(monos[(7 * i) % len(monos)], c) for i, c in enumerate(coeffs)),
                R.zero())
        gens.append(t ** k * f)
    return Ideal(gens, R)


SPECS = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3),
                           st.lists(st.integers(-3, 3), min_size=3, max_size=3)),
                 min_size=1, max_size=3)


class TestSaturate:
    def test_single_factor(self):
        R = Ring(("t", "x1"), [(1, 1)])
        sat = saturate(Ideal([parse("t*x1", R)]), "t")
        assert [str(g) for g in sat.generators] == ["x1"]

    def test_fixed_point(self):
        R = Ring(("t", "x1"), [(1, 1)])
        sat = saturate(Ideal([parse("x1^2", R)]), "t")
        assert [str(g) for g in sat.generators] == ["x1^2"]

    def test_idempotent_and_contains(self):
        R = Ring(("t", "x1", "y1"), [(1, 1, 1)])
        I = Ideal([parse("t^2*x1 - t^2*y1", R), parse("t*y1^2", R)])
        s1 = saturate(I, "t")
        s2 = saturate(s1, "t")
        order = MatrixOrder.grevlex(R)
        gb1 = buchberger(s1, order)
        gb2 = buchberger(s2, order)
        assert all(normal_form(g, gb2).is_zero() for g in s1.generators)
        assert all(normal_form(g, gb1).is_zero() for g in s2.generators)
        # saturation contains the input ideal
        assert all(normal_form(g, gb1).is_zero() for g in I.generators)

    @given(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)), SPECS)
    @settings(max_examples=20, deadline=None)
    def test_matches_z_trick(self, weights, specs):
        # reference: I : t^inf = (I + (t*z - 1)) intersected with k[t, x1, y1]
        I = t_multiple_ideal(weights, specs)
        R = I.ring
        sat = saturate(I, "t")
        Z = Ring(("z",) + R.names, [(1,) + R.top])
        lift = {nm: Z.gen(nm) for nm in R.names}
        zgens = [substitute(g, lift, Z) for g in I.generators] + [Z.gen("t") * Z.gen("z") - 1]
        ref = [substitute(g, {"z": 0}, R) for g in eliminate(Ideal(zgens, Z), ["z"]).generators]
        # the saturation's generators are a Groebner basis in the documented order
        order = MatrixOrder.grevlex(R, weights, last="t")
        assert all(normal_form(g, sat.generators, order).is_zero() for g in ref)
        if ref:
            gb_ref = buchberger(Ideal(ref, R), order)
            assert all(normal_form(g, gb_ref).is_zero() for g in sat.generators)
        else:
            assert sat.generators == []

    def test_rejects_inhomogeneous_generator(self):
        R = Ring(("t", "x1"), [(1, 1)])
        with pytest.raises(AlgebraError, match="not homogeneous"):
            saturate(Ideal([parse("t*x1 - x1", R)]), "t")

    @pytest.mark.parametrize("weights", [(0, 1), (1, -1)])
    def test_rejects_non_positive_weights(self, weights):
        R = Ring(("t", "x1"), [(1, 1)])
        with pytest.raises(AlgebraError, match="positive grading"):
            saturate(Ideal([parse("t*x1", R)]), "t", weights=weights)



class TestIsSaturated:
    def test_examples(self):
        R = Ring(("t", "x1", "y1"), [(1, 1, 1)])
        assert not is_saturated(Ideal([parse("t*x1", R)]), "t")
        assert is_saturated(Ideal([parse("x1^2", R), parse("t*x1 + y1^2", R)]), "t")
        # t*x1 - t*y1 is in the ideal, so no generator has the factor t, yet
        # x1 - y1 lies in the saturation and not in the ideal
        assert not is_saturated(
            Ideal([parse("t*x1 + y1^2", R), parse("t*y1 + y1^2", R)]), "t")

    @given(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)), SPECS,
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_iff_saturation_has_same_basis(self, weights, specs, pre_saturate):
        I = t_multiple_ideal(weights, specs)
        if pre_saturate:
            I = saturate(I, "t")
        assume(I.generators)
        order = MatrixOrder.grevlex(I.ring, weights, last="t")
        same = buchberger(saturate(I, "t"), order).elements == buchberger(I, order).elements
        assert is_saturated(I, "t") == same

    def test_rejects_inhomogeneous_generator(self):
        R = Ring(("t", "x1"), [(1, 1)])
        with pytest.raises(AlgebraError, match="not homogeneous"):
            is_saturated(Ideal([parse("t*x1 - x1", R)]), "t")

    @pytest.mark.parametrize("weights", [(0, 1), (1, -1)])
    def test_rejects_non_positive_weights(self, weights):
        R = Ring(("t", "x1"), [(1, 1)])
        with pytest.raises(AlgebraError, match="positive grading"):
            is_saturated(Ideal([parse("t*x1", R)]), "t", weights=weights)

    def test_rejects_weights_of_the_wrong_length(self):
        R = Ring(("t", "x1"), [(1, 1)])
        with pytest.raises(AlgebraError, match=r"needs 2 weights, one per variable, got \(1,\)"):
            is_saturated(Ideal([parse("t*x1", R)]), "t", weights=(1,))

    def test_rejects_unknown_variable(self):
        R = Ring(("t", "x1"), [(1, 1)])
        with pytest.raises(AlgebraError, match="not a ring variable"):
            is_saturated(Ideal([parse("t*x1", R)]), "z")


def s_combination(f, g, order):
    """The S-polynomial combination of f and g: their lead terms cancel."""
    lf, lg = max(f.terms, key=order.key), max(g.terms, key=order.key)
    L = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = f.ring.monomial(tuple(a - b for a, b in zip(L, lf)), g.terms[lg])
    mg = g.ring.monomial(tuple(a - b for a, b in zip(L, lg)), f.terms[lf])
    return mf * f - mg * g


@st.composite
def planted_ideals(draw):
    """(R, order, base, gens): 2 or 3 forms of a weighted grading, plus up
    to 3 nonzero multiples of S-combinations of two of them, shuffled.  The
    ring's own row is standard; the order's first row is the grading."""
    weights = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    specs = draw(st.lists(st.tuples(st.integers(1, 3),
                                    st.lists(st.integers(-3, 3).filter(bool),
                                             min_size=3, max_size=3)),
                          min_size=2, max_size=3))
    plants = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                     st.integers(-2, 2).filter(bool)),
                           min_size=1, max_size=3))
    R = Ring(("x1", "x2", "x3"), [(1, 1, 1)])
    W = Ring(R.names, [weights])
    order = MatrixOrder.grevlex(R, weights)
    base = []
    for d, coeffs in specs:
        monos = monomials_of_degree(W, d * lcm(*weights))
        base.append(sum((R.monomial(monos[(5 * i + d) % len(monos)], c)
                         for i, c in enumerate(coeffs)), R.zero()))
    base = [f for f in base if not f.is_zero()]
    assume(len(base) >= 2)
    planted = []
    n = len(base)
    for i, k, c in plants:
        # a pair of two different base generators
        f, g = base[i % n], base[(i + 1 + k % (n - 1)) % n]
        p = R.const(c) * s_combination(f, g, order)
        if not p.is_zero():
            planted.append(p)
    gens = base + planted
    draw(st.randoms(use_true_random=False)).shuffle(gens)
    return R, order, base, gens


def greedy_minimal_generators(gens, order) -> list:
    """The kept list by definition: in increasing (degree, length) order,
    keep g iff its normal form against a Groebner basis of the kept ones
    is nonzero."""
    ring, w = gens[0].ring, order.rows[0]
    kept = []
    for g in sorted(gens, key=lambda g: (sum(a * e for a, e in zip(w, next(iter(g.terms)))),
                                         len(g))):
        if not kept or not normal_form(g, buchberger(Ideal(kept, ring), order)).is_zero():
            kept.append(g)
    return kept


class TestMinimalGenerators:
    def test_planted_s_polynomial(self):
        # x3*f1 - x2*f2 = -x3^3 lies in (f1, f2), but only the degree-3
        # S-pair shows it: its lead term is divisible by no lead term
        f1, f2 = parse("x1*x2 - x3^2", P2), parse("x1*x3", P2)
        planted = parse("x3^3", P2)
        assert not normal_form(planted, [f1, f2], MatrixOrder.grevlex(P2)).is_zero()
        kept = minimal_generators(Ideal([planted, f1, f2]), MatrixOrder.grevlex(P2))
        assert kept == [f2, f1]  # increasing (degree, length)

    @given(planted_ideals())
    @settings(max_examples=60, deadline=None)
    def test_planted_redundant_generators(self, planted_ideal):
        R, order, base, gens = planted_ideal
        kept = minimal_generators(Ideal(gens, R), order)
        assert all(any(k is g for g in gens) for k in kept)
        assert len(kept) <= len(base)
        # the kept generators generate the same ideal
        gb_kept = buchberger(Ideal(kept, R), order)
        gb_all = buchberger(Ideal(gens, R), order)
        assert all(normal_form(g, gb_kept).is_zero() for g in gens)
        assert all(normal_form(g, gb_all).is_zero() for g in kept)
        # and none lies in the ideal of the others
        for k, g in enumerate(kept):
            others = kept[:k] + kept[k + 1:]
            if others:
                gb = buchberger(Ideal(others, R), order)
                assert not normal_form(g, gb).is_zero(), f"{g} is redundant"

    @given(planted_ideals())
    @settings(max_examples=60, deadline=None)
    def test_same_list_as_greedy_reference(self, planted_ideal):
        R, order, _, gens = planted_ideal
        kept = minimal_generators(Ideal(gens, R), order)
        expected = greedy_minimal_generators(gens, order)
        assert len(kept) == len(expected)
        assert all(k is e for k, e in zip(kept, expected))

    def test_rejects_inhomogeneous_generator(self):
        with pytest.raises(AlgebraError, match="not homogeneous"):
            minimal_generators(Ideal([parse("x1^2 - x2", P2)]), MatrixOrder.grevlex(P2))

    def test_rejects_non_positive_grading(self):
        order = block_order(P2, ["x1"])
        with pytest.raises(AlgebraError, match="positive grading"):
            minimal_generators(Ideal([parse("x1*x2", P2)]), order)

    def test_budget(self):
        f1, f2 = parse("x1*x2 - x3^2", P2), parse("x1*x3", P2)
        with pytest.raises(BudgetExceeded, match="exceeded in minimal_generators"):
            minimal_generators(Ideal([f1, f2, parse("x3^3", P2)]),
                               MatrixOrder.grevlex(P2), budget=0)

    def test_budget_counts_every_reduction_step(self):
        # two general quadrics q0, q1, the redundant cubic x1*q0 - x2*q1
        # and a general cubic take exactly 11 lead-only reduction steps: a
        # budget of s steps allows s, and the step over it raises
        q = [random_general(2, P2, seed=s) for s in range(2)]
        planted = parse("x1", P2) * q[0] - parse("x2", P2) * q[1]
        gens = Ideal([q[0], q[1], planted, random_general(3, P2, seed=7)])
        kept = minimal_generators(gens, MatrixOrder.grevlex(P2), budget=11)
        assert planted not in kept and len(kept) == 3
        with pytest.raises(BudgetExceeded):
            minimal_generators(gens, MatrixOrder.grevlex(P2), budget=10)

    def test_zero_remainder_settles_redundancy(self):
        # three general quadrics and the redundant cubic x1*q0 + x3*q2: the
        # cubic reduces to zero against the basis of the quadrics alone, so
        # it is dropped before any degree-3 pair is reduced, and the run
        # takes 7 lead-only steps (17 if every pair of sugar <= 3 came first)
        q = [random_general(2, P2, seed=s) for s in range(3)]
        planted = parse("x1", P2) * q[0] + parse("x3", P2) * q[2]
        gens = Ideal([q[0], q[1], q[2], planted])
        kept = minimal_generators(gens, MatrixOrder.grevlex(P2), budget=7)
        assert len(kept) == 3 and all(k is g for k, g in zip(kept, q))
        with pytest.raises(BudgetExceeded):
            minimal_generators(gens, MatrixOrder.grevlex(P2), budget=6)


# the 10985 scroll ring: t has top weight 0, so t < 1 under its grevlex order
SCROLL = Ring(("t", "s", "x1", "x2", "x3", "y1", "y2", "y3", "y4"),
              [(0, 2, 1, 1, 1, 6, 5, 4, 3), (1, 1, 0, 0, 0, -1, -1, -1, -1)])


class TestWellOrder:
    @pytest.mark.parametrize("order", [MatrixOrder.grevlex(SCROLL), MatrixOrder(P2, [(-1, 1, 1)])],
                             ids=["scroll-grevlex", "negative-row"])
    def test_routines_refuse_a_non_well_order(self, order):
        assert not order.well_ordered
        x = order.ring.gens()
        f, g = x[0] * x[1] - x[2] ** 2, x[0] ** 2 - x[1]
        with pytest.raises(AlgebraError, match="buchberger needs a well-order"):
            buchberger(Ideal([f, g]), order)
        with pytest.raises(AlgebraError, match="normal_form needs a well-order"):
            normal_form(f, [g], order)
        # a first row that is no positive grading is refused before the order
        with pytest.raises(AlgebraError, match="positive grading"):
            minimal_generators(Ideal([f, g]), order)

    def test_default_order_of_the_scroll_is_refused(self):
        f, g = parse("t*x1 - s", SCROLL), parse("x2^2 - s", SCROLL)
        with pytest.raises(AlgebraError, match="normal_form needs a well-order"):
            normal_form(f, [g])

    @pytest.mark.parametrize("ring, first", [(SCROLL, ["t"]), (P2, ["x1"])],
                             ids=["scroll", "P2"])
    def test_block_orders_are_accepted(self, ring, first):
        # the block row puts each first variable above 1, and the grevlex
        # rows below it the others
        order = block_order(ring, first)
        assert order.well_ordered
        x = ring.gens()
        f, g = x[0] * x[1] - x[2] ** 2, x[0] ** 2 - x[1]
        gb = buchberger(Ideal([f, g]), order)
        assert normal_form(f * x[2] + g * x[1], gb).is_zero()
        assert normal_form(f * x[2], [f], order).is_zero()


@st.composite
def membership_problems(draw):
    """(ideal, order, targets, planted): an ideal from `planted_ideals`, and
    targets that are members (combinations of the generators with form
    coefficients), planted non-members (a member plus a nonzero normal
    form), sums of two parts of different degrees, and zero.  `planted`
    holds the verdict each target was built to have."""
    R, order, _, gens = draw(planted_ideals())
    w = order.rows[0]
    W = Ring(R.names, [w])
    rnd = draw(st.randoms(use_true_random=False))
    gb = buchberger(Ideal(gens, R), order)

    def degree(f):
        return sum(a * e for a, e in zip(w, next(iter(f.terms))))

    def form(d):
        monos = monomials_of_degree(W, d) if d >= 0 else []
        return sum((R.monomial(m, rnd.choice((-2, -1, 1, 3)))
                    for m in rnd.sample(monos, min(3, len(monos)))), R.zero())

    def member(d):
        return sum((form(d - degree(g)) * g for g in rnd.sample(gens, 2)), R.zero())

    top = max(map(degree, gens))
    targets, planted = [R.zero()], [True]
    for _ in range(3):
        d = rnd.randint(1, top + 2)
        low = rnd.randint(0, d - 1)
        m, r, r_low = member(d), normal_form(form(d), gb), normal_form(form(low), gb)
        targets += [m, m + member(low)]
        planted += [True, True]
        if not r.is_zero():
            targets.append(m + r + form(low))
            planted.append(False)
        if not r_low.is_zero():
            # the top-degree part is a member, a lower one is not
            targets.append(m + r_low)
            planted.append(False)
    return Ideal(gens, R), order, targets, planted


class TestContains:
    @given(membership_problems())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_match_full_basis_normal_forms(self, problem):
        ideal, order, targets, planted = problem
        gb = buchberger(ideal, order)
        expected = [normal_form(f, gb).is_zero() for f in targets]
        assert expected == planted
        assert contains(ideal, targets, order) == expected

    def test_needs_an_s_pair(self):
        # x3^3 = x3*f1 - x2*f2 lies in (f1, f2), but no generator lead
        # divides its lead: only the degree-3 pair shows it
        f1, f2 = parse("x1*x2 - x3^2", P2), parse("x1*x3", P2)
        targets = [parse("x3^3", P2), parse("x3^2", P2), parse("x3^3 + x1*x3", P2),
                   parse("x3^3 + x1", P2), P2.zero()]
        assert contains(Ideal([f1, f2]), targets, MatrixOrder.grevlex(P2)) == \
            [True, False, True, False, True]

    def test_rejects_inhomogeneous_generator(self):
        with pytest.raises(AlgebraError, match="not homogeneous"):
            contains(Ideal([parse("x1^2 - x2", P2)]), [parse("x1", P2)],
                     MatrixOrder.grevlex(P2))

    def test_rejects_non_positive_grading(self):
        order = MatrixOrder(P2, [(1, 0, 1), (0, 1, 0)])
        assert order.well_ordered
        with pytest.raises(AlgebraError, match="contains needs a positive grading"):
            contains(Ideal([parse("x1*x2", P2)]), [parse("x1", P2)], order)

    @pytest.mark.parametrize("order", [MatrixOrder.grevlex(SCROLL), MatrixOrder(P2, [(-1, 1, 1)])],
                             ids=["scroll-grevlex", "negative-row"])
    def test_refuses_a_non_well_order(self, order):
        # neither first row is a positive grading, which is refused first
        x = order.ring.gens()
        with pytest.raises(AlgebraError, match="contains needs a positive grading"):
            contains(Ideal([x[0] * x[1] - x[2] ** 2]), [x[0]], order)

    def test_refuses_before_it_loads_as_minimal_generators_does(self):
        # an inhomogeneous ideal under a non-well-order: the grading is
        # checked before any generator enters a run, in both routines
        order = MatrixOrder(R2, [(-1, 1), (0, 1)])
        ideal = Ideal([parse("x1^2 - y1", R2)])
        with pytest.raises(AlgebraError, match="contains needs a positive grading"):
            contains(ideal, [parse("x1", R2)], order)
        with pytest.raises(AlgebraError, match="minimal_generators needs a positive grading"):
            minimal_generators(ideal, order)

    def test_rejects_a_target_of_another_ring(self):
        with pytest.raises(AlgebraError, match="different rings"):
            contains(Ideal([parse("x1", P2)]), [parse("x1", R2)], MatrixOrder.grevlex(P2))

    def test_budget(self):
        f1, f2 = parse("x1*x2 - x3^2", P2), parse("x1*x3", P2)
        with pytest.raises(BudgetExceeded, match="exceeded in contains"):
            contains(Ideal([f1, f2]), [parse("x3^3", P2)], MatrixOrder.grevlex(P2), budget=0)

    def test_member_settles_before_any_pair(self):
        # x1*q0 + x3*q2 reduces to zero against the three general quadrics
        # themselves, so the run takes 5 lead-only steps, all on the target,
        # and reduces none of the degree-3 pairs
        q = [random_general(2, P2, seed=s) for s in range(3)]
        target = parse("x1", P2) * q[0] + parse("x3", P2) * q[2]
        assert contains(Ideal(q), [target], MatrixOrder.grevlex(P2), budget=5) == [True]
        with pytest.raises(BudgetExceeded):
            contains(Ideal(q), [target], MatrixOrder.grevlex(P2), budget=4)


class TestZeroDimDegree:
    def test_coordinate_point(self):
        assert zero_dim_degree(Ideal([parse("x1", P2), parse("x2", P2)])) == 1

    def test_fat_point_at_coordinate_vertex(self):
        assert zero_dim_degree(Ideal([parse("x1^2", P2), parse("x2", P2)])) == 2

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_bezout(self, data):
        # two curves that are unions of a and b lines, with no line in
        # common, meet in a scheme of length a*b (points counted with
        # their intersection multiplicity)
        coeffs = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any)
        a = data.draw(st.integers(1, 3))
        b = data.draw(st.integers(1, 3))
        f_lines = data.draw(st.lists(coeffs, min_size=a, max_size=a))
        g_lines = data.draw(st.lists(coeffs, min_size=b, max_size=b))
        for u in f_lines:
            for v in g_lines:
                cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                         u[0] * v[1] - u[1] * v[0])
                assume(any(cross))

        def product(lines):
            out = P2.one()
            for u in lines:
                out = out * sum((c * x for c, x in zip(u, P2.gens())), P2.zero())
            return out

        assert zero_dim_degree(Ideal([product(f_lines), product(g_lines)])) == a * b

    def test_bezout_conics(self):
        I = Ideal([parse("x1^2 - x2*x3", P2), parse("x2^2 - x1*x3", P2)])
        assert zero_dim_degree(I) == 4

    def test_rejects_inhomogeneous_generator(self):
        with pytest.raises(AlgebraError, match="not homogeneous"):
            zero_dim_degree(Ideal([parse("x1 - x2^2", P2), parse("x3", P2)]))

    def test_empty_scheme(self):
        assert zero_dim_degree(Ideal([parse("x1", P2), parse("x2", P2), parse("x3", P2)])) == 0

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensional):
            zero_dim_degree(Ideal([parse("x1", P2)]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_invariant_under_linear_change(self, seed):
        import random

        rng = random.Random(seed)
        I = Ideal([parse("x1^2 - x2*x3", P2), parse("x2^3 - x3^2*x1", P2)])
        base = zero_dim_degree(I)
        while True:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                   - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                   + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
            if det != 0:
                break
        gens = P2.gens()
        images = {n: sum((rows[i][j] * gens[j] for j in range(3)), P2.zero())
                  for i, n in enumerate(P2.names)}
        from tomlinks.algebra import substitute

        moved = Ideal([substitute(g, images, P2) for g in I.generators])
        assert zero_dim_degree(moved) == base


class TestHilbert:
    def test_numerator_simple(self):
        # single generator x^2 in one variable: N = 1 - u^2
        assert hilbert_numerator([(2,)]) == [1, 0, -1]

    def test_quadric_surface(self):
        P3 = Ring(("x1", "x2", "x3", "x4"), [(1, 1, 1, 1)])
        dim, deg = projective_dim_degree(Ideal([parse("x1*x4 - x2*x3", P3)]))
        assert (dim, deg) == (2, 2)

    @pytest.mark.parametrize("exponents", [(), (2,), (2, 3), (1, 2, 3)])
    def test_coordinate_powers(self, exponents):
        # x1^a, x2^b, ... on the first k variables of P^3: a complete
        # intersection of dimension 3 - k and degree a*b*..., so the
        # numerator (1-u^a)(1-u^b)... vanishes to order exactly k at u = 1
        P3 = Ring(("x1", "x2", "x3", "x4"), [(1, 1, 1, 1)])
        gens = [x ** a for x, a in zip(P3.gens(), exponents)]
        dim, deg = projective_dim_degree(Ideal(gens, P3))
        assert (dim, deg) == (3 - len(exponents), prod(exponents))

    def test_unit_ideal_is_empty(self):
        assert projective_dim_degree(Ideal([P2.one()])) == (-1, 0)

    def test_rejects_inhomogeneous_generator(self):
        # the Hilbert series of this ideal's lead terms reads (0, 4), a
        # degree that an inhomogeneous ideal does not have
        with pytest.raises(AlgebraError, match="not homogeneous"):
            projective_dim_degree(Ideal([parse("x1^2 - x2", P2), parse("x2^2 - x3", P2)]))

    def test_generic_pfaffian_quintic(self):
        # five quadratic pfaffians of a generic skew matrix of linear forms
        # cut a quintic surface: degree 5 by Hilbert series
        from tomlinks.pfaffian import SkewMatrix5, WeightMatrix5, maximal_pfaffians

        P5 = Ring(tuple(f"z{i}" for i in range(6)), [(1,) * 6])
        W = WeightMatrix5.from_list([1] * 10)
        entries = {}
        seed = 0
        from tomlinks.algebra import random_general as rg

        for k, (i, j) in enumerate([(i, j) for i in range(1, 6) for j in range(i + 1, 6)]):
            entries[(i, j)] = rg(1, P5, seed=17 + k)
        M = SkewMatrix5(entries, W, P5)
        I = Ideal(maximal_pfaffians(M), P5)
        dim, deg = projective_dim_degree(I)
        assert (dim, deg) == (2, 5)


# ---------------------------------------------------------------------------
# cross-check against sympy's Groebner bases, an independent implementation;
# MatrixOrder.grevlex with all-one weights is sympy's "grevlex"

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p: Polynomial, gens):
    terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def terms_of(p) -> frozenset:
    """The terms of a Polynomial or a sympy Poly, as (exponents, Fraction)."""
    if isinstance(p, Polynomial):
        return frozenset((m, Fraction(c)) for m, c in p.terms.items())
    return frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in p.terms() if c)


def sympy_basis(sympy, polys, ring) -> set:
    gens = sympy.symbols(ring.names)
    gb = sympy.groebner([to_sympy(sympy, p, gens) for p in polys], *gens,
                        order="grevlex", domain="QQ")
    return {terms_of(g) for g in gb.polys}


def sympy_remainder(sympy, p: Polynomial, basis, ring) -> frozenset:
    gens = sympy.symbols(ring.names)
    polys = [to_sympy(sympy, g, gens) for g in basis]
    _, rem = sympy.reduced(to_sympy(sympy, p, gens), polys, *gens, order="grevlex", domain="QQ")
    return terms_of(sympy.Poly(rem, *gens, domain="QQ"))


@st.composite
def forms(draw, ring, degree):
    """A form of the degree with 1 to 3 terms and small integer coefficients."""
    monos = draw(st.lists(st.sampled_from(monomials_of_degree(ring, degree)),
                          min_size=1, max_size=3, unique=True))
    return Polynomial(ring, {m: draw(st.integers(-3, 3).filter(bool)) for m in monos})


@st.composite
def homogeneous_ideals(draw):
    """1 to 3 forms of degree 1 to 3 in 3 or 4 variables of weight 1."""
    n = draw(st.integers(3, 4))
    ring = Ring(tuple(f"x{i + 1}" for i in range(n)), [(1,) * n])
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return Ideal([draw(forms(ring, d)) for d in degrees], ring)


def sympy_saturation(sympy, ideal, var) -> set:
    """Reduced grevlex basis of I : var^inf, computed in sympy by eliminating
    z from I + (1 - var*z) under the block order z >> grevlex."""
    from sympy.polys.orderings import ProductOrder, grevlex, lex

    ring = ideal.ring
    gens = sympy.symbols(ring.names)
    z = sympy.Dummy("z")
    elim = ProductOrder((lex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))
    polys = [to_sympy(sympy, g, gens).as_expr() for g in ideal.generators]
    gb = sympy.groebner(polys + [1 - sympy.Symbol(var) * z], z, *gens, order=elim, domain="QQ")
    free = [g for g in gb.exprs if not g.has(z)]
    sat = sympy.groebner(free, *gens, order="grevlex", domain="QQ")
    return {terms_of(g) for g in sat.polys}


@st.composite
def t_multiple_ideals(draw):
    """1 to 3 forms of degree 1 to 3 in t, x1, x2, x3 (weights 1), and up to
    2 planted t-multiples t^k * f (k = 1, 2; f of degree 1 or 2), so that
    some ideals are not saturated in t."""
    ring = Ring(("t", "x1", "x2", "x3"), [(1, 1, 1, 1)])
    t = ring.gen("t")
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    plants = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=2))
    return Ideal([draw(forms(ring, d)) for d in degrees]
                 + [t ** k * draw(forms(ring, d)) for d, k in plants], ring)


class TestSympyCrossCheck:
    @given(homogeneous_ideals())
    @settings(max_examples=25, deadline=None)
    def test_buchberger_is_the_reduced_basis(self, sympy, ideal):
        gb = buchberger(ideal, MatrixOrder.grevlex(ideal.ring))
        assert {terms_of(g) for g in gb.elements} == sympy_basis(sympy, ideal.generators,
                                                                 ideal.ring)

    def test_flop_minor_ideal_of_10985(self, sympy, case_10985):
        from tomlinks.birational import minors_ideal, on_plane
        from tomlinks.pfaffian import TomFormat
        from tomlinks.unprojection import build_unprojection

        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        A = [on_plane(column) for column in zip(*res.Q)]
        ideal = minors_ideal(A, A[0][0].ring)
        gb = buchberger(ideal, MatrixOrder.grevlex(ideal.ring))
        assert {terms_of(g) for g in gb.elements} == sympy_basis(sympy, ideal.generators,
                                                                 ideal.ring)

    @given(homogeneous_ideals(), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_normal_form_is_sympy_remainder(self, sympy, ideal, seed):
        ring = ideal.ring
        gb = buchberger(ideal, MatrixOrder.grevlex(ring))
        rng = random.Random(seed)
        p = sum((ring.monomial(tuple(rng.randint(0, 2) for _ in ring.names), rng.randint(-4, 4))
                 for _ in range(5)), ring.zero())
        assert terms_of(normal_form(p, gb)) == sympy_remainder(sympy, p, gb.elements, ring)

    @given(homogeneous_ideals(), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                                     st.integers(0, 1)), max_size=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_minimal_generators_by_graded_nakayama(self, sympy, ideal, plants, rnd):
        # plant f*u + g*v of one degree, u and v monomials, among the generators
        ring, base = ideal.ring, ideal.generators
        gens = list(base)
        for i, j, extra in plants:
            f, g = base[i % len(base)], base[j % len(base)]
            d = max(f.degree(), g.degree()) + extra
            us = monomials_of_degree(ring, d - f.degree())
            vs = monomials_of_degree(ring, d - g.degree())
            u, v = us[i % len(us)], vs[-1 - j % len(vs)]
            p = ring.monomial(u) * f + ring.monomial(v) * g
            if not p.is_zero():
                gens.append(p)
        rnd.shuffle(gens)
        kept = minimal_generators(Ideal(gens, ring), MatrixOrder.grevlex(ring))
        assert all(any(k is g for g in gens) for k in kept)
        assert sympy_basis(sympy, kept, ring) == sympy_basis(sympy, gens, ring)
        for k, g in enumerate(kept):
            others = kept[:k] + kept[k + 1:]
            if others:
                # the remainder against a Groebner basis of the others is
                # nonzero iff g is not in their ideal
                gb = [Polynomial(ring, dict(t)) for t in sympy_basis(sympy, others, ring)]
                assert sympy_remainder(sympy, g, gb, ring), f"{g} is redundant"

    @given(t_multiple_ideals())
    @settings(max_examples=30, deadline=None)
    def test_saturate_is_sympy_saturation(self, sympy, ideal):
        sat = saturate(ideal, "t")
        gb = buchberger(sat, MatrixOrder.grevlex(ideal.ring))
        assert {terms_of(g) for g in gb.elements} == sympy_saturation(sympy, ideal, "t")

    @given(t_multiple_ideals())
    @settings(max_examples=30, deadline=None)
    def test_is_saturated_iff_sympy_bases_agree(self, sympy, ideal):
        same = sympy_basis(sympy, ideal.generators, ideal.ring) == \
            sympy_saturation(sympy, ideal, "t")
        assert is_saturated(ideal, "t") == same
