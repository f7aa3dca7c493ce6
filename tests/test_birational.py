import dataclasses
import hashlib
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomlinks import birational, groebner
from tomlinks.algebra import Ring, bidegree, det, parse, substitute
from tomlinks.birational import (
    Basket,
    ConicBundle,
    DelPezzoFibration,
    DivisorialContractionToFano,
    FanoCase,
    Flip,
    Flop,
    Isomorphism,
    KawamataBlowup,
    LinkError,
    QuadExt,
    SimultaneousFlips,
    blowup_ideal,
    classify_case,
    count_flops,
    compute_deltas,
    detect_weight_config,
    kawamata_scroll,
    minors_ideal,
    on_plane,
    picard_report,
    trace_link,
    track_basket,
    verify_blowup_saturation,
    wall_groups,
    wall_skip_expected,
    zero_dim_degree,
)
from tomlinks.casefile import bundled_case_names, load_bundled
from tomlinks.cli import main
from tomlinks.groebner import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Ideal,
    MatrixOrder,
    buchberger,
    projective_dim_degree,
    saturate,
)
from tomlinks.pfaffian import IDEAL_VARS, TomFormat, WeightMatrix5, build_general_tom
from tomlinks.report import step_dict
from tomlinks.unprojection import build_unprojection


class TestScroll:
    def test_10985(self, case_10985):
        S = kawamata_scroll(case_10985)
        assert S.top == (0, 2, 1, 1, 1, 6, 5, 4, 3)
        assert S.bottom == (1, 1, 0, 0, 0, -1, -1, -1, -1)

    def test_20652(self, case_20652):
        assert kawamata_scroll(case_20652).top == (0, 2, 1, 1, 1, 2, 2, 1, 1)

    def test_r1_formula(self):
        case = FanoCase(id="toy", abc=(1, 1, 1), d=(4, 3, 2, 1), r=1, tom_k=1,
                        matrix_weights=WeightMatrix5.from_list([1, 1, 1, 1, 3, 3, 3, 3, 3, 3]),
                        matrix=None, basket=Basket([]))
        S = kawamata_scroll(case)
        assert S.top == (0, 1, 1, 1, 1, 4, 3, 2, 1)
        assert S.bottom == (1, 1, 0, 0, 0, -1, -1, -1, -1)


class TestClassify:
    @pytest.mark.parametrize("d,tag", [
        ((6, 5, 4, 3), "i"), ((5, 4, 4, 3), "ii"), ((5, 5, 4, 3), "iii"),
        ((5, 4, 3, 3), "iv"), ((2, 2, 1, 1), "v"), ((2, 1, 1, 1), "vi"),
        ((3, 3, 3, 1), "vii"), ((2, 2, 2, 2), "viii"),
    ])
    def test_tags(self, d, tag):
        assert classify_case(d) == tag

    def test_unsorted_rejected(self):
        with pytest.raises(LinkError):
            classify_case((3, 4, 2, 1))


class TestWeightConfig:
    def test_10985_is_b(self, case_10985):
        cfg = detect_weight_config(case_10985.matrix_weights, case_10985.d)
        assert cfg.tag == "b"
        assert cfg.pi == 5

    def test_20652_is_a(self, case_20652):
        cfg = detect_weight_config(case_20652.matrix_weights, case_20652.d)
        assert cfg.tag == "a"
        assert cfg.pi == 2

    def test_24097_is_neither(self, case_24097):
        assert detect_weight_config(case_24097.matrix_weights, case_24097.d).tag == "neither"


class TestDeltas:
    def test_10985_values(self, case_10985):
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        assert compute_deltas(res.g, case_10985) == (8, 7, 6, 5)

    def test_pure_orbinate_realises_minimum(self, case_10985):
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        deltas = compute_deltas(res.g, case_10985)
        assert deltas == tuple(case_10985.r + dj for dj in case_10985.d)

    def test_missing_pure_monomial_detected(self, case_10985):
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        ring = res.g[3].ring
        ys = [ring.index[n] for n in ("y1", "y2", "y3", "y4")]
        from tomlinks.algebra import Polynomial

        stripped = Polynomial(
            ring,
            {m: c for m, c in res.g[3].terms.items() if any(m[i] for i in ys)},
        )
        broken = list(res.g)
        broken[3] = stripped
        with pytest.raises(LinkError):
            compute_deltas(broken, case_10985)


class TestBlowup:
    def test_10985_pfaffian_equations_match_known_forms(self, case_10985):
        # the five pfaffian generators of the blow-up, pinned exactly
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        S = kawamata_scroll(case_10985)
        blow = blowup_ideal(res, S, case_10985)
        expected = [
            "x1^4*y4^2 + x2^2*y4*y2 - y3*y1 - y2^2",
            "t*y4*y1 + t*y3*y2 + x1^4*x2*x3*y4 + x1*x2^2*y1 + x2^3*x3*y2 - x2^3*y1 - x3^4*y2",
            "-t*y4*y2 + t*y3^2 + x1^5*y4 + x2^3*y2 - x3^4*y3",
            "-t*y4*y3 - x1*y1 - x2*x3*y2 + x3^4*y4",
            "t*y4^2 + x1*x2^2*y4 - x1*y2 - x2^3*y4 + x2*x3*y3",
        ]
        for h, text in zip(blow.generators[:5], expected):
            target = parse(text, S)
            assert h == target or h == -target

    def test_bihomogeneous(self, case_20652):
        res = build_unprojection(case_20652.build_matrix(0), TomFormat(1), 2)
        blow = blowup_ideal(res, kawamata_scroll(case_20652), case_20652)
        for h in blow.generators:
            bidegree(h)  # raises on failure
        assert blow.t_exponents[0] == 2
        assert blow.t_exponents[1:5] == [1, 1, 1, 1]
        assert tuple(blow.t_exponents[5:]) == blow.deltas

    @pytest.mark.parametrize("name", bundled_case_names())
    def test_unprojection_pullbacks_carry_the_blowup_weights(self, name):
        # the scroll's weight rows agree with the Kawamata blow-up weights:
        # x by a, b, c and y_k by d_k + 1, so s*y_j - g_j pulls back to
        # t^(r + d_j)*s*y_j - phi_0(g_j)
        case = load_bundled(name).to_fano_case()
        res = build_unprojection(case.build_matrix(0), TomFormat(case.tom_k), case.r)
        S = kawamata_scroll(case)
        blow = blowup_ideal(res, S, case)
        t = S.gen("t")
        weights = case.abc + tuple(dk + 1 for dk in case.d)
        phi_0 = {n: t ** w * S.gen(n) for n, w in zip(("x1", "x2", "x3") + IDEAL_VARS, weights)}
        for j, (y, g) in enumerate(zip(IDEAL_VARS, res.g)):
            want = t ** (case.r + case.d[j]) * S.gen("s") * S.gen(y) - substitute(g, phi_0, S)
            assert blow.pullback_ideal.generators[5 + j] == want

    @pytest.mark.parametrize("name", ["10985", "11125-t2"])
    def test_a_y_free_term_in_the_tom_pfaffian_is_not_tom(self, name):
        case = load_bundled(name).to_fano_case()
        res = build_unprojection(case.build_matrix(0), TomFormat(case.tom_k), case.r)
        gens, R = list(res.X_ideal.generators), res.X_ideal.ring
        k = case.tom_k
        gens[k - 1] = gens[k - 1] + R.gen("x1") ** gens[k - 1].degree()
        broken = dataclasses.replace(res, X_ideal=Ideal(gens, R))
        with pytest.raises(LinkError, match=re.escape(
                f"pfaffian {k} pull-back lost t^0, expected at least t^2: not Tom")):
            blowup_ideal(broken, kawamata_scroll(case), case)

    def test_deltas_must_match_the_divided_powers(self, case_10985, monkeypatch):
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        real = birational.compute_deltas
        monkeypatch.setattr(birational, "compute_deltas",
                            lambda g, case: tuple(d + 1 for d in real(g, case)))
        with pytest.raises(LinkError, match=re.escape(
                "divided by t^(8, 7, 6, 5), deltas predicted (9, 8, 7, 6)")):
            blowup_ideal(res, kawamata_scroll(case_10985), case_10985)


class TestSaturationOracle:
    @pytest.fixture(scope="class", params=["case_10985", "case_20652"])
    def blow(self, request):
        case = request.getfixturevalue(request.param)
        res = build_unprojection(case.build_matrix(0), TomFormat(case.tom_k), case.r)
        return blowup_ideal(res, kawamata_scroll(case), case)

    def test_equations_span_saturation(self, blow):
        assert verify_blowup_saturation(blow)

    def test_rejects_extra_t_factor(self, blow):
        # t*h_9 with k_9 - 1 keeps r_9 = t^k_9 * h_9 and t*h_9 still lies in
        # the saturation, but (h) no longer contains h_9: only the basis of
        # (h), which now has an element divisible by t, can reject it
        t = blow.generators[0].ring.gen("t")
        gens = blow.generators[:8] + [t * blow.generators[8]]
        exps = blow.t_exponents[:8] + [blow.t_exponents[8] - 1]
        assert not verify_blowup_saturation(
            dataclasses.replace(blow, generators=gens, t_exponents=exps))

    @pytest.mark.parametrize("mutate", ["scaled_h", "shifted_k", "wrong_r"])
    def test_rejects_broken_pairing(self, blow, mutate):
        # r_i != t^k_i * h_i fails even where (h) itself is unchanged
        gens, exps = list(blow.generators), list(blow.t_exponents)
        raw = list(blow.pullback_ideal.generators)
        if mutate == "scaled_h":
            gens[1] = 2 * gens[1]
        elif mutate == "shifted_k":
            exps[0] += 1
        else:
            raw[8] = raw[8] * raw[8].ring.gen("x1")
        mutant = dataclasses.replace(blow, generators=gens, t_exponents=exps,
                                     pullback_ideal=Ideal(raw, blow.pullback_ideal.ring))
        assert not verify_blowup_saturation(mutant)

    def test_basis_equals_saturation_basis(self, blow):
        # the two-basis method as the independent reference: the reduced basis
        # of I : t^inf equals that of (h), element for element
        ring = blow.pullback_ideal.ring
        w = tuple(2 * a + b for a, b in zip(ring.top, ring.bottom))
        order = MatrixOrder.grevlex(ring, w, last="t")
        sat = saturate(blow.pullback_ideal, "t", weights=w)
        want = buchberger(sat, order).elements
        got = buchberger(Ideal(blow.generators, ring), order).elements
        assert [g.terms for g in got] == [g.terms for g in want]

    def test_rejects_dropped_equation(self, blow):
        assert not verify_blowup_saturation(
            dataclasses.replace(blow, generators=blow.generators[:8]))

    def test_rejects_equation_outside_saturation(self, blow):
        x1 = blow.generators[0].ring.gen("x1")
        gens = blow.generators + [x1]
        assert not verify_blowup_saturation(dataclasses.replace(blow, generators=gens))


PLANE_CASES = [name for name in bundled_case_names()
               if load_bundled(name).to_fano_case().abc == (1, 1, 1)]


@lru_cache(maxsize=None)
def plane_flops(name):
    """(case, unprojection, node count) of a bundled P^2 case."""
    case = load_bundled(name).to_fano_case()
    res = build_unprojection(case.build_matrix(0), TomFormat(case.tom_k), case.r)
    return case, res, count_flops(res, case)


def flop_matrix(res):
    """A = Q^T at y = 0."""
    return [on_plane(column) for column in zip(*res.Q)]


class TestFlops:
    @pytest.mark.parametrize("name", PLANE_CASES)
    def test_counts(self, name):
        case, _, count = plane_flops(name)
        # 24097's declared 8 contradicts its displayed matrix (known defect 3a)
        expected = 6 if name == "24097" else case.declared_nodes
        assert count == expected

    @pytest.mark.parametrize("name", PLANE_CASES)
    def test_minors_are_the_cofactor_products(self, name):
        # count_flops counts the ideal of the products p_k*g_j at y = 0; the
        # 3x3 minors of A, by the independent route, are the same sixteen
        # polynomials up to sign
        _, res, _ = plane_flops(name)
        P2 = Ring(("x1", "x2", "x3"), [(1, 1, 1)])
        into = {n: P2.gen(n) for n in ("x1", "x2", "x3")} | {y: 0 for y in IDEAL_VARS}
        p, g = ([substitute(q, into, P2) for q in qs] for qs in (res.p, res.g))
        products = [pk * gj for pk in p for gj in g]

        def up_to_sign(polys):
            return sorted(sorted((str(q), str(-q))) for q in polys if q)

        assert up_to_sign(minors_ideal(flop_matrix(res), P2, 3).generators) == up_to_sign(products)

    @pytest.mark.parametrize("name", PLANE_CASES)
    def test_p_has_no_zero_on_the_plane(self, name):
        # count_flops then counts the four g_j alone
        _, res, _ = plane_flops(name)
        p = on_plane(res.p)
        assert projective_dim_degree(Ideal(p, p[0].ring))[0] == -1

    @pytest.mark.parametrize("name", PLANE_CASES)
    def test_g_length_is_the_product_length(self, name):
        _, res, count = plane_flops(name)
        p, g = on_plane(res.p), on_plane(res.g)
        products = Ideal([pk * gj for pk in p for gj in g], p[0].ring)
        assert zero_dim_degree(Ideal(g, p[0].ring)) == zero_dim_degree(products) == count

    def test_common_zero_of_p_counts_the_products(self):
        # the p_k vanish at (0:0:1), off the four points of V(g), so the
        # products carry one more point than (g)
        R = Ring(("x1", "x2", "x3") + IDEAL_VARS, [(1,) * 7])
        p = [parse(q, R) for q in ("x1", "x2", "x1 + x2", "x1 - x2 + y1")]
        g = [parse(q, R) for q in ("x1^2 - x3^2", "x2^2 - x3^2", "x1^2 - x2^2 + x3*y2",
                                   "x1^2 + x2^2 - 2*x3^2")]
        res = SimpleNamespace(p=p, g=g)
        pbar, gbar = on_plane(p), on_plane(g)
        P2 = pbar[0].ring
        assert projective_dim_degree(Ideal(pbar, P2))[0] == 0
        products = zero_dim_degree(Ideal([pk * gj for pk in pbar for gj in gbar], P2))
        assert count_flops(res, SimpleNamespace(abc=(1, 1, 1))) == products == 5
        assert zero_dim_degree(Ideal(gbar, P2)) == 4

    def test_weighted_plane_records_no_count(self):
        # nodes are counted on P^2 only: a declared count stays a declaration
        case = dataclasses.replace(load_bundled("11455").to_fano_case(), declared_nodes=5)
        assert case.abc != (1, 1, 1)
        flop = trace_link(case).steps[1]
        assert isinstance(flop, Flop)
        assert flop.count is None and flop.declared == 5

    def test_24097_six_distinct_nodes(self, case_24097):
        # second, independent count for DECISIONS.md (3a): sympy finds six
        # distinct points on the rank <= 2 locus, chart by chart of P^2, so the
        # length-6 scheme is reduced and the recorded 8 cannot be a multiplicity
        sp = pytest.importorskip("sympy")
        res = build_unprojection(case_24097.build_matrix(0), TomFormat(1), 2)
        A = sp.Matrix([[sp.sympify(str(e).replace("^", "**")) for e in row]
                       for row in flop_matrix(res)])
        x1, x2, x3 = sp.symbols("x1 x2 x3")
        minors = [A.extract(list(r), list(c)).det() for r in combinations(range(4), 3)
                  for c in combinations(range(4), 3)]
        points = 0
        for fixed, free in (({x1: 1}, [x2, x3]), ({x1: 0, x2: 1}, [x3]), ({x1: 0, x2: 0, x3: 1}, [])):
            eqs = [e for e in (sp.expand(m.subs(fixed)) for m in minors) if e != 0]
            points += len(sp.solve(eqs, free, dict=True)) if free else int(not eqs)
        assert points == 6

    def test_nodes_avoid_x1_zero(self, case_10985):
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        P2 = Ring(("x1", "x2", "x3"), [(1, 1, 1)])
        minors = minors_ideal(flop_matrix(res), P2, 3)
        cut = Ideal(minors.generators + [P2.gen("x1")], P2)
        assert zero_dim_degree(cut) == 0

    def test_rank_profile(self, case_10985):
        res = build_unprojection(case_10985.build_matrix(0), TomFormat(1), 2)
        A = flop_matrix(res)
        P2 = Ring(("x1", "x2", "x3"), [(1, 1, 1)])
        # rank 3 off the nodes: det A vanishes identically (p^T Q = 0) and a
        # 3x3 minor does not, so the rank drops only on V(3x3 minors)
        assert det(A).is_zero()
        assert minors_ideal(A, P2, 3).generators
        # rank never drops below 2 anywhere on the node locus: the combined
        # 2x2 + 3x3 minor scheme is empty
        both = Ideal(minors_ideal(A, P2, 2).generators + minors_ideal(A, P2, 3).generators, P2)
        assert zero_dim_degree(both) == 0


class TestGreedyPivots:
    # `_flip_at_point` runs Gauss-Jordan on the linear parts at the wall
    # point in the fixed variable priority and reads the local solution off
    # the reduced pivot rows: row[v]*x_v + sum row[k]*x_k = 0 over the
    # survivors k.  10985's pivot rows have no survivor terms; 24097's and
    # 20652's have, over Q and over the quadratic wall field respectively.
    # 10985's hypersurface flip also composes its quadratic parts with that
    # solution, a survivor mapping to itself
    @pytest.mark.parametrize("name, field", [
        ("10985", Fraction), ("24097", Fraction), ("20652", QuadExt)])
    def test_linear_parts_solve_pivot_rows(self, name, field, monkeypatch):
        calls = []
        real = birational._gauss_jordan

        def spy(rows, columns):
            original = [dict(r) for r in rows]
            pivots = real(rows, columns)
            calls.append((original, rows, list(columns), pivots))
            return pivots

        images = []
        real_quad = birational._composed_quad_coeff

        def quad_spy(row, image, t_slot, v_slot):
            images.append((len(calls) - 1, image))
            return real_quad(row, image, t_slot, v_slot)

        monkeypatch.setattr(birational, "_gauss_jordan", spy)
        monkeypatch.setattr(birational, "_composed_quad_coeff", quad_spy)
        trace_link(load_bundled(name).to_fano_case(), seed=0)
        assert bool(images) == (name == "10985")
        assert field in {type(v) for original, *_ in calls for row in original
                         for v in row.values()}
        solutions = []
        for original, reduced, columns, pivots in calls:
            assert pivots
            surv = [k for k in columns if k not in pivots]
            image = {v: {k: -reduced[r][k] / reduced[r][v] for k in surv if reduced[r].get(k)}
                     for v, r in pivots.items()}
            solutions.append(image | {k: {k: 1} for k in surv})
            for ri in pivots.values():
                # substitute x_v = image[v] for every pivot v into the
                # original row's linear (int) keys
                combo = {}
                for k, c in original[ri].items():
                    if not isinstance(k, int):
                        continue
                    for sv, coeff in (image[k].items() if k in pivots else [(k, 1)]):
                        combo[sv] = combo.get(sv, 0) + c * coeff
                assert not any(combo.values())
        assert all(image == solutions[i] for i, image in images)


class TestReducedRowCutsTheFlip:
    """A hypersurface flip is cut by the row Gauss-Jordan reduced, not by
    the generator that row started from.  Scroll names, localised top
    weights (t, s, x1, x2, x3, y1..y4) = (3, 4, 2, 1, 1, 0, 1, 1, -1), the
    point y1 = 1; every generator is bihomogeneous.  Row 4 minus row 2 is
    the cutting equation."""

    loc = Ring(("t", "s", "x1", "x2", "x3", "y1", "y2", "y3", "y4"),
               [(3, 4, 2, 1, 1, 0, 1, 1, -1), (1, 1, 0, 0, 0, -1, -1, -1, -1)])

    def flip(self, last):
        gens = [parse(g, self.loc) for g in ("s*y1", "x1*y1 + t*y1*y4", "x2*y1", last)]
        return birational._flip_at_point(gens, self.loc, {self.loc.index["y1"]: Fraction(1)},
                                         ("y1",), "P_y1")

    def test_cleared_linear_part_leaves_the_cutting_equation(self):
        # the fourth generator has no quadratic part; its reduced row is -t*y4
        flip = self.flip("x1*y1")
        assert (flip.weights, flip.hypersurface_degree, flip.hyp_pair) == (
            (3, 1, 1, 1, -1), 2, ("t", "y4"))
        assert flip.eliminated == ("s", "x1", "x2")

    def test_a_row_that_reduces_to_zero_cuts_nothing(self):
        # the fourth generator is twice the second: its t*y4 term cancels
        with pytest.raises(LinkError, match=r"no surviving t\*\(negative variable\)"):
            self.flip("2*x1*y1 + 2*t*y1*y4")


class TestQuadExt:
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, a, b, c, d):
        # w^2 = w - 1 (the configuration-(a) wall field)
        x = QuadExt(a, b, 1, -1)
        y = QuadExt(c, d, 1, -1)
        assert (x + y) * (x - y) == x * x - y * y
        if x:
            assert x * x.inverse() == QuadExt(1, 0, 1, -1)
            # a rational on the left stays in the field: wall points mix the two
            assert Fraction(c) / x == QuadExt(c, 0, 1, -1) / x

    def test_root_property(self):
        w = QuadExt(0, 1, 1, -1)
        assert w * w - w + 1 == QuadExt(0, 0, 1, -1)


class TestExactDivisionSites:
    """Integer coefficients whose quotients are not integers give Fractions."""

    R = Ring(("a", "b", "c"), [(1, 1, 1)])

    def test_wall_quadratic(self):
        # only the first generator has terms on the wall line (a, b)
        gens = [parse("2*a^2 + 3*a*b + b^2 + a*c", self.R), parse("c^2", self.R)]
        A, B, C = birational._wall_quadratic(gens, [0, 1])
        for got, want in ((-B / A, Fraction(-3, 2)), (-C / A, Fraction(-1, 2)),
                          (-C / B, Fraction(-1, 3))):
            assert type(got) is Fraction and got == want

    def test_global_eliminate(self):
        gens = [parse("2*a - b^2", self.R), parse("a*c + b", self.R)]
        work, eliminated = birational.global_eliminate(gens, self.R, priority=("a",))
        assert eliminated == ("a",)
        assert work == [parse("1/2*b^2*c + b", self.R)]
        assert work[0].terms == {(0, 2, 1): Fraction(1, 2), (0, 1, 0): 1}
        assert type(work[0].terms[(0, 2, 1)]) is Fraction
        assert type(work[0].terms[(0, 1, 0)]) is int


@pytest.mark.parametrize("form", ["a^2 + 2*a*b + b^2", "b^2"])
def test_degenerate_wall_form_has_rank_below_2(form):
    # B^2 - 4AC = 0 exactly when the form has rank < 2; A = B = 0 is one case
    R = Ring(("a", "b", "c"), [(1, 1, 1)])
    with pytest.raises(LinkError, match="rank < 2"):
        birational._simultaneous_flips([parse(form, R)], R, ("a", "b"), [0, 1])


def test_a_wall_form_without_first_square_has_the_point_at_infinity(monkeypatch):
    # A = 0: the roots of y1*y2 + 3*y2^2 are [1 : 0] and [-3 : 1], both rational
    R = Ring(("y1", "y2", "y3"), [(1, 1, 1)])
    form = parse("y1*y2 + 3*y2^2", R)
    points = []

    def spy(gens, loc, point, wall, label):
        points.append((point, label))
        return label

    monkeypatch.setattr(birational, "_flip_at_point", spy)
    step = birational._simultaneous_flips([form], R, ("y1", "y2"), [0, 1])
    assert step.flips == ("P1", "P2")
    assert [(list(point.values()), label) for point, label in points] == [
        ([1, 0], "P1"), ([-3, 1], "P2")]
    for point, _ in points:
        assert all(type(v) is Fraction for v in point.values())
        assert sum(c * point[0] ** m[0] * point[1] ** m[1] for m, c in form.terms.items()) == 0


def test_a_trace_reads_no_seed_beyond_its_member(monkeypatch):
    # 20652 pins its matrix, so no stage of its link may draw a seed
    def refuse(*args):
        raise RuntimeError("a seed was drawn")

    bindings = [m for name, m in sys.modules.items()
                if name.split(".")[0] == "tomlinks" and hasattr(m, "mix_seed")]
    assert bindings
    for module in bindings:
        monkeypatch.setattr(module, "mix_seed", refuse)
    trace = trace_link(load_bundled("20652").to_fano_case(), seed=3)
    assert trace.endpoint == DelPezzoFibration(("y3", "y4"), 5, "")


def test_global_eliminate_keeps_equations_without_the_variable():
    # solving a = b^2 substitutes only into the equation that contains a
    R = Ring(("a", "b", "c"), [(1, 1, 1)])
    gens = [parse("a - b^2", R), parse("b*c + c^2", R), parse("a*c + b", R)]
    work, eliminated = birational.global_eliminate(gens, R, priority=("a",))
    assert eliminated == ("a",)
    assert work[0] is gens[1]
    assert work[1] == parse("b^2*c + b", R)


def blowup_of(case):
    res = build_unprojection(case.build_matrix(0), TomFormat(case.tom_k), case.r)
    S = kawamata_scroll(case)
    return S, blowup_ideal(res, S, case)


class TestMirroredFlip:
    def test_conjugate_mirror_keeps_hyp_pair(self, case_20652, monkeypatch):
        # 20652's wall (y1, y2) has conjugate points: the P1 flip is computed,
        # the P2 flip mirrors it and must keep every field but the point
        real = birational._flip_at_point

        def with_pair(*args):
            return dataclasses.replace(real(*args), hyp_pair=("t", "y4"))

        monkeypatch.setattr(birational, "_flip_at_point", with_pair)
        S, blow = blowup_of(case_20652)
        step = birational.analyze_wall(blow.generators, S, ("y1", "y2"))
        assert isinstance(step, SimultaneousFlips)
        first, mirror = step.flips
        assert (first.point, mirror.point) == ("P1", "P2")
        assert first.hyp_pair == mirror.hyp_pair == ("t", "y4")
        assert dataclasses.replace(mirror, point="P1") == first


class TestRationalWallPoints:
    """tag-iii's weights with the member seed in place of the file's pinned
    one: seeds 10 and 13 give wall forms -15*y1^2 - 61*y1*y2 - 46*y2^2 and
    12*y1^2 - 39*y1*y2 - 36*y2^2, whose discriminants 961 and 3249 are
    squares, so each wall point is rational and analysed on its own."""

    @pytest.mark.parametrize("seed", [10, 13])
    def test_rational_roots_give_the_pinned_flips(self, seed, monkeypatch):
        pinned = load_bundled("tag-iii").to_fano_case()
        member = dataclasses.replace(pinned, matrix_seed=None)
        real = birational._flip_at_point
        points = []

        def spy(gens, loc, point, *rest):
            points.append(list(point.values()))
            return real(gens, loc, point, *rest)

        monkeypatch.setattr(birational, "_flip_at_point", spy)
        got = trace_link(member, seed=seed)
        S = kawamata_scroll(member)
        A, B, C = birational._wall_quadratic(got.blowup.generators,
                                             [S.index["y1"], S.index["y2"]])
        assert A != 0 and birational._is_square(B * B - 4 * A * C) is not None
        assert len(points) == 2
        assert all(type(v) is Fraction for point in points for v in point)

        want = trace_link(pinned)
        flips = next(s for s in got.steps if isinstance(s, SimultaneousFlips)).flips
        assert [f.point for f in flips] == ["P1", "P2"]
        for flip in flips:
            assert (flip.weights, flip.hypersurface_degree, flip.eliminated) == (
                (3, 1, -1, -2), None, ("s", "x1", "x2"))
        assert flips == next(s for s in want.steps if isinstance(s, SimultaneousFlips)).flips
        assert got.baskets == want.baskets
        assert got.template_ok and want.template_ok


@pytest.fixture(scope="module")
def recorded_pass():
    """The seed-0 trace of every bundled case, with each (generators, point)
    that `_flip_at_point` analyses, each (ring, survivors, eliminated)
    of `global_eliminate` and each `groebner._Run` the traces construct."""
    points, eliminations, runs = [], [], []
    real_flip, real_eliminate = birational._flip_at_point, birational.global_eliminate

    def flip(gens, loc, point, *rest):
        points.append((gens, point))
        return real_flip(gens, loc, point, *rest)

    def eliminate(gens, ring, *rest, **kwargs):
        work, eliminated = real_eliminate(gens, ring, *rest, **kwargs)
        eliminations.append((ring, work, eliminated))
        return work, eliminated

    class CountedRun(groebner._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(birational, "_flip_at_point", flip)
        mp.setattr(birational, "global_eliminate", eliminate)
        mp.setattr(groebner, "_Run", CountedRun)
        traces = {name: trace_link(load_bundled(name).to_fano_case(), seed=0)
                  for name in bundled_case_names()}
    return traces, points, eliminations, runs


@pytest.fixture(scope="module")
def recorded_traces(recorded_pass):
    """(traces, points, eliminations) of the recorded pass."""
    return recorded_pass[:3]


def test_groebner_work_of_the_bundled_traces(recorded_pass):
    # the Groebner runs and reduction steps of the 22 seed-0 traces; a change
    # that alters the Groebner work re-pins these with a CHANGES.md line
    runs = recorded_pass[3]
    assert (len(runs), sum(run.steps for run in runs)) == (41, 6988)


def value_at_wall_point(g, point):
    """g at the wall point: the slots of `point` (slot -> Fraction or
    QuadExt) at their values, every other variable 0."""
    total = 0
    for m, c in g.terms.items():
        if all(i in point for i, e in enumerate(m) if e):
            term = Fraction(c)
            for i, v in point.items():
                for _ in range(m[i]):
                    term = term * v
            total = total + term
    return total


class TestSettledChecks:
    """Facts an earlier step of the link engine settles, which the step
    after it therefore does not check again (DECISIONS.md, "Each
    link-engine quantity has one owner")."""

    def test_every_generator_vanishes_at_each_bundled_wall_point(self, recorded_traces):
        _, points, _ = recorded_traces
        assert len(points) == 14
        for gens, point in points:
            assert not any(value_at_wall_point(g, point) for g in gens)

    @pytest.mark.parametrize("seed", [10, 13])
    def test_every_generator_vanishes_at_rational_wall_points(self, seed, monkeypatch):
        # tag-iii's members at these seeds have two rational wall points
        member = dataclasses.replace(load_bundled("tag-iii").to_fano_case(), matrix_seed=None)
        real, values = birational._flip_at_point, []

        def spy(gens, loc, point, *rest):
            values.append([value_at_wall_point(g, point) for g in gens])
            return real(gens, loc, point, *rest)

        monkeypatch.setattr(birational, "_flip_at_point", spy)
        trace_link(member, seed=seed)
        assert len(values) == 2
        assert not any(v for point in values for v in point)

    def test_hypersurface_degree_from_the_weights(self, recorded_traces):
        # t + the partner's localised weight: 6 - 3 on 10985, 3 - 1 on tag-iv
        traces, _, _ = recorded_traces
        degrees = {}
        for name, trace in traces.items():
            for step in trace.steps:
                flips = step.flips if isinstance(step, SimultaneousFlips) else (step,)
                for flip in flips:
                    if isinstance(flip, Flip) and flip.hypersurface_degree is not None:
                        degrees.setdefault(name, []).append(flip.hypersurface_degree)
        assert degrees == {"10985": [3], "tag-iv": [2]}

    def test_uncertified_endpoint_degrees(self, case_10985):
        # with no budget the equations stay unminimised; each still has one degree
        S, blow = blowup_of(case_10985)
        groups = wall_groups(case_10985.d)
        ep = birational.endpoint_fano(blow.generators, S, groups[-2], groups[-1][0], budget=0)
        assert not ep.minimal_certified and len(ep.equations) > 2
        assert ep.degrees == tuple(bidegree(e).top for e in ep.equations)

    def test_every_chart_solves_s_first(self, recorded_traces):
        # on y_c = 1, and on a fibre (y_a, y_b) = (lam, mu) with lam != 0, the
        # generator s*y_c - G_c has s as a lone linear term
        traces, _, eliminations = recorded_traces
        charts = [eliminated for ring, _, eliminated in eliminations if "s" in ring.names]
        contractions = sum(isinstance(t.endpoint, DivisorialContractionToFano)
                           for t in traces.values())
        # one fibre chart, 20652's: tag-iv's fibre is weighted and not read
        assert len(charts) == contractions + 1 == 18
        assert all(eliminated[:1] == ("s",) for eliminated in charts)

    def test_no_eliminated_name_survives(self, recorded_traces):
        _, _, eliminations = recorded_traces
        assert any(eliminated for _, _, eliminated in eliminations)
        for ring, work, eliminated in eliminations:
            slots = [ring.index[name] for name in eliminated]
            assert not any(m[i] for g in work for m in g.terms for i in slots)


class TestConicBudget:
    @pytest.fixture
    def conic_input(self, case_24097):
        S, blow = blowup_of(case_24097)
        return blow.generators[:5], S, birational.wall_groups(case_24097.d)[-1]

    def test_bundled_overlap_takes_no_step(self, conic_input):
        assert birational.conic_discriminant(*conic_input, budget=0).overlap == 1

    def test_budget_reaches_overlap_basis(self, conic_input, monkeypatch):
        # patch determinants (u-1)(u-2) and 3v^2-4v+1, whose reversal is
        # (u-1)(u-3): the overlap basis needs reduction steps
        calls = []

        def fake_det(gram):
            calls.append(gram)
            u = gram[0][0].ring.gens()[0]
            return u * u - 3 * u + 2 if len(calls) % 2 else 3 * u * u - 4 * u + 1

        monkeypatch.setattr(birational, "det", fake_det)
        conic = birational.conic_discriminant(*conic_input)
        degrees = [d.degree() for _, d in conic.patch_determinants]
        assert (degrees, conic.overlap, conic.discriminant_degree) == ([2, 2], 1, 3)
        with pytest.raises(BudgetExceeded) as err:
            birational.conic_discriminant(*conic_input, budget=0)
        assert err.value.routine == "buchberger"

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_the_least_equation_is_the_conic(self, conic_input, monkeypatch, at):
        # the conic u^2 + z*v^2 + w^2, z the free base variable, divides the
        # two other surviving equations, and wherever it sits it is chosen:
        # its Gram matrix diag(1, z, 1) has determinant z on both patches
        def principal(gens, P, priority):
            u, v, w = (P.gen(n) for n in priority[:3])
            q = u * u + P.gen(P.names[-1]) * v * v + w * w
            work = [u * q, (v + w) * q]
            work.insert(at, q)
            return work, set(priority[3:])

        monkeypatch.setattr(birational, "global_eliminate", principal)
        conic = birational.conic_discriminant(*conic_input)
        assert [str(d) for _, d in conic.patch_determinants] == ["y3", "y2"]

    def test_a_least_equation_that_divides_not_all_raises(self, conic_input, monkeypatch):
        # u*q + w^4 leaves the remainder w^4 on division by the least, q
        def not_principal(gens, P, priority):
            u, v, w = (P.gen(n) for n in priority[:3])
            q = u * u + P.gen(P.names[-1]) * v * v + w * w
            return [u * q + w ** 4, q], set(priority[3:])

        monkeypatch.setattr(birational, "global_eliminate", not_principal)
        with pytest.raises(birational.LinkError,
                           match="surviving equations on patch y2 are not principal"):
            birational.conic_discriminant(*conic_input)

    def test_term_off_the_fibre_conic_raises(self, conic_input, monkeypatch):
        # a surviving equation with a cubic fibre term is no conic
        def cubic(gens, P, priority):
            u, v, w = (P.gen(n) for n in priority[:3])
            return [u ** 3 + v * w], set(priority[3:])

        monkeypatch.setattr(birational, "global_eliminate", cubic)
        with pytest.raises(birational.LinkError, match="is not a fibre conic"):
            birational.conic_discriminant(*conic_input)


def basket_case(abc, r, points):
    """A case with the basket track_basket starts from; the steps name their centres."""
    basket = Basket()
    for q, weights in points:
        basket.add(q, weights)
    return FanoCase(id="toy", abc=abc, d=(4, 3, 2, 1), r=r, tom_k=1,
                    matrix_weights=WeightMatrix5.from_list([1, 1, 1, 1, 3, 3, 3, 3, 3, 3]),
                    matrix=None, basket=basket)


# a toric flip: a 1/2 point at t is removed, a 1/3 point at y4 is added and
# the weight-1 survivors x1 and y3 carry no point
TORIC = Flip(wall=("y1",), survivors=("t", "x1", "y3", "y4"), weights=(2, 1, -1, -3),
             hypersurface_degree=None, eliminated=("s", "x2", "x3"), point="P_y1")
# 10985's flip: the cutting equation pairs t with y4, so at each of the two
# points the partner is eliminated and three local weights remain
HYPERSURFACE = Flip(wall=("y1",), survivors=("t", "x2", "x3", "y2", "y4"),
                    weights=(6, 1, 1, -1, -3), hypersurface_degree=3,
                    eliminated=("s", "x1", "y3"), point="P_y1", hyp_pair=("t", "y4"))


class TestBasketEquality:
    def test_entry_order_does_not_matter(self):
        assert Basket([(2, (1, 1, 1)), (3, (1, 1, 2))]) == Basket([(3, (1, 1, 2)), (2, (1, 1, 1))])
        assert Basket([(2, (1, 1, 1))]) != Basket([(3, (1, 1, 2))])

    @pytest.mark.parametrize("other", [None, 0, "{1/2(1,1,1)}", [(2, (1, 1, 1))]],
                             ids=["None", "int", "str", "list"])
    def test_a_non_basket_is_not_equal(self, other):
        basket = Basket([(2, (1, 1, 1))])
        assert basket.__eq__(other) is NotImplemented
        assert basket != other and not basket == other


class TestTrackBasket:
    def test_blowup_swaps_the_centre_for_the_orbinate_points(self):
        case = basket_case((1, 1, 3), 4, [(4, (1, 1, 3)), (2, (1, 1, 1))])
        got = track_basket([KawamataBlowup((4, (1, 1, 3)))], case)
        # at P_c the local weights are (a, b, -r) = (1, 1, -4), i.e. 1/3(1,1,2)
        assert [str(b) for b in got] == ["{1/2(1,1,1), 1/4(1,1,3)}",
                                         "{1/2(1,1,1), 1/3(1,1,2)}"]

    def test_blowup_reads_its_centre_off_the_step(self):
        # the case says 1/2(1,1,1); the step's own centre is what moves
        case = basket_case((1, 1, 1), 2, [(4, (1, 1, 3))])
        got = track_basket([KawamataBlowup((4, (1, 1, 3)))], case)
        assert [str(b) for b in got] == ["{1/4(1,1,3)}", "{1/3(1,1,2)}"]

    def test_toric_flip(self):
        assert birational._flip_basket_moves(TORIC) == (
            [(2, [1, -1, -3])], [(3, [2, 1, -1])])
        got = track_basket([TORIC], basket_case((1, 1, 1), 2, [(2, (1, 1, 1))]))
        assert [str(b) for b in got] == ["{1/2(1,1,1)}", "{1/3(1,2,2)}"]

    def test_hypersurface_flip_drops_the_partner(self):
        assert birational._flip_basket_moves(HYPERSURFACE) == (
            [(6, [1, 1, -1])], [(3, [1, 1, -1])])
        got = track_basket([HYPERSURFACE], basket_case((1, 1, 1), 2, [(6, (1, 1, 5))]))
        assert [str(b) for b in got] == ["{1/6(1,1,5)}", "{1/3(1,1,2)}"]
        with pytest.raises(LinkError, match="cannot read 3 local weights at P_t"):
            birational._flip_basket_moves(dataclasses.replace(HYPERSURFACE, hyp_pair=None))

    def test_simultaneous_flips_apply_both(self):
        step = SimultaneousFlips(wall=("y1", "y2"), flips=(TORIC, HYPERSURFACE),
                                 quadratic_form="y1^2 + y2^2")
        case = basket_case((1, 1, 1), 2, [(2, (1, 1, 1)), (6, (1, 1, 5))])
        got = track_basket([step], case)
        assert [str(b) for b in got] == ["{1/2(1,1,1), 1/6(1,1,5)}",
                                         "{1/3(1,1,2), 1/3(1,2,2)}"]

    def test_other_steps_leave_the_basket(self):
        steps = [Flop(24, None), Isomorphism(("y2",), "y2^2"),
                 DivisorialContractionToFano((2, 0), ("y3",), None)]
        got = track_basket(steps, basket_case((1, 1, 1), 2, [(3, (1, 1, 2))]))
        assert [str(b) for b in got] == ["{1/3(1,1,2)}"] * 4

    def test_absent_target_raises_naming_it(self):
        case = basket_case((1, 1, 1), 2, [(3, (1, 1, 2))])
        with pytest.raises(LinkError, match=re.escape(
                "basket removal target 1/2(1,1,1) absent: {1/3(1,1,2)}")):
            track_basket([KawamataBlowup((2, (1, 1, 1)))], case)
        with pytest.raises(LinkError, match=re.escape("basket removal target 1/6(1,1,5)")):
            track_basket([HYPERSURFACE], case)


class TestWallSkipPredicate:
    def test_10985_y2_wall(self, case_10985):
        assert wall_skip_expected(case_10985.matrix_weights, 5)
        assert not wall_skip_expected(case_10985.matrix_weights, 6)


@lru_cache(maxsize=None)
def bundled_trace(name):
    return trace_link(load_bundled(name).to_fano_case(), seed=0)


# the paper's endpoint for each equality pattern of the ideal weights: the
# class of the last step and, for a divisorial contraction, its type
ENDPOINT_KIND = {
    "i": (DivisorialContractionToFano, (2, 0)),
    "ii": (DivisorialContractionToFano, (2, 1)),
    "iii": (DivisorialContractionToFano, (2, 0)),
    "iv": (DelPezzoFibration, None),
    "v": (DelPezzoFibration, None),
    "vi": (ConicBundle, None),
    "vii": (DivisorialContractionToFano, (2, 1)),
    "viii": (ConicBundle, None),
}
# every sorted d in {1..5}^4
PATTERNS = [d for d in product(range(5, 0, -1), repeat=4) if list(d) == sorted(d, reverse=True)]


# the paper's tag of each equality pattern (d1 > d2, d2 > d3, d3 > d4)
PATTERN_TAG = {
    (True, True, True): "i", (True, False, True): "ii", (False, True, True): "iii",
    (True, True, False): "iv", (False, True, False): "v", (True, False, False): "vi",
    (False, False, True): "vii", (False, False, False): "viii",
}


class TestLinkTemplate:
    def test_tag_is_the_equality_pattern(self):
        for d in PATTERNS:
            assert classify_case(d) == PATTERN_TAG[(d[0] > d[1], d[1] > d[2], d[2] > d[3])], d

    @pytest.mark.parametrize("name", bundled_case_names())
    def test_endpoint_matches_the_tag(self, name):
        trace = bundled_trace(name)
        cls, kind = ENDPOINT_KIND[trace.tag]
        assert type(trace.endpoint) is cls
        assert kind is None or trace.endpoint.kind == kind

    def test_middle_walls_have_one_or_two_variables(self):
        # a two-variable wall is always SimultaneousFlips, so the template
        # compares only the single-variable walls with their prediction;
        # and the last groups give the table's endpoint on every pattern
        assert len(PATTERNS) == 70
        assert {classify_case(d) for d in PATTERNS} == set(ENDPOINT_KIND)
        for d in PATTERNS:
            groups = wall_groups(d)
            sizes = [len(g) for g in groups]
            middle = sizes[:-2] if sizes[-1] == 1 else sizes[:-1]
            assert set(middle) <= {1, 2}, d
            if sizes[-1] == 1:
                got = (DivisorialContractionToFano, (2, 0) if sizes[-2] == 1 else (2, 1))
            else:
                got = (DelPezzoFibration if sizes[-1] == 2 else ConicBundle, None)
            assert got == ENDPOINT_KIND[classify_case(d)], d

    def test_a_broken_prediction_fails_the_template(self, case_10985, monkeypatch):
        real = birational.wall_skip_expected
        monkeypatch.setattr(birational, "wall_skip_expected", lambda *args: not real(*args))
        trace = trace_link(case_10985, seed=0)
        assert not trace.template_ok
        assert trace.template_notes == ["wall ['y1']: expected Isomorphism, computed Flip",
                                        "wall ['y2']: expected Flip, computed Isomorphism"]
        assert main(["trace", "--case", "10985"]) == 1

    def test_declared_nodes_note_leaves_the_template(self, case_10985):
        trace = trace_link(dataclasses.replace(case_10985, declared_nodes=23), seed=0)
        assert trace.template_ok
        assert trace.template_notes == ["computed 24 nodes, declared 23"]


class TestTraces:
    def test_10985_full(self, case_10985):
        trace = trace_link(case_10985, seed=0)
        kinds = [type(s).__name__ for s in trace.steps]
        assert kinds == ["KawamataBlowup", "Flop", "Flip", "Isomorphism",
                         "DivisorialContractionToFano"]
        flip = trace.steps[2]
        assert flip.weights == (6, 1, 1, -1, -3)
        assert flip.hypersurface_degree == 3
        assert trace.steps[3].wall == ("y2",)
        div = trace.steps[4]
        assert div.kind == (2, 0)
        assert div.endpoint.gorenstein
        assert trace.template_ok

    def test_10985_baskets(self, case_10985):
        trace = trace_link(case_10985, seed=0)
        got = [str(b) for b in trace.baskets]
        assert got[0] == "{1/2(1,1,1), 1/6(1,1,5)}"
        assert got[1] == "{1/6(1,1,5)}"
        assert got[2] == "{1/6(1,1,5)}"
        assert got[3] == "{1/3(1,1,2)}"
        assert got[-1] == "{1/3(1,1,2)}"

    def test_20652_full(self, case_20652):
        trace = trace_link(case_20652, seed=0)
        kinds = [type(s).__name__ for s in trace.steps]
        assert kinds == ["KawamataBlowup", "Flop", "SimultaneousFlips", "DelPezzoFibration"]
        sf = trace.steps[2]
        assert sf.quadratic_form.replace(" ", "") == "1*y1^2-1*y1*y2+1*y2^2"
        for f in sf.flips:
            assert f.weights == (2, 1, -1, -1)
        assert trace.steps[3].degree == 5
        assert [str(b) for b in trace.baskets][-1] == "{}"
        assert trace.template_ok

    def test_24097_full(self, case_24097):
        trace = trace_link(case_24097, seed=0)
        kinds = [type(s).__name__ for s in trace.steps]
        assert kinds == ["KawamataBlowup", "Flop", "Flip", "ConicBundle"]
        assert trace.steps[2].weights == (2, 1, -1, -1)
        conic = trace.steps[3]
        assert conic.discriminant_degree == 6
        assert sorted(d.degree() for _, d in conic.patch_determinants) == [2, 5]
        assert conic.overlap == 1
        assert trace.template_ok

    def test_24097_patch_determinants(self, case_24097):
        # dets of the Gram matrices on the two patches of the base line,
        # pinned up to a nonzero scalar
        trace = trace_link(case_24097, seed=0)
        conic = trace.steps[3]
        U3 = Ring(("y3",), [(1,)])
        U2 = Ring(("y2",), [(1,)])
        got = dict(conic.patch_determinants)
        d_y2, d_y3 = got["y2"], got["y3"]
        assert (d_y2.ring, d_y3.ring) == (U3, U2)
        t_y2 = parse("y3^5 - y3^4", U3)   # y3^4 (y3 - 1)
        t_y3 = parse("y2^2 - y2", U2)     # y2 (y2 - 1)
        for d, t in ((d_y2, t_y2), (d_y3, t_y3)):
            lead = max(d.terms)
            scale = d.terms[lead] / t.terms[lead]
            assert d == t * scale

    def test_10985_endpoint_equations(self, case_10985):
        trace = trace_link(case_10985, seed=0)
        ep = trace.steps[-1].endpoint
        assert ep.names == ("x1", "x2", "x3", "y1", "y2", "y3")
        assert sorted(ep.weights) == [1, 1, 1, 1, 2, 3]
        assert ep.degrees == (4, 4)
        ring = ep.ring
        targets = [
            parse("x1^4 + x2^2*y2 - y1*y3 - y2^2", ring),
            parse("x1*x2^2*y3 - x1*y2*y3 - x1*y1 - x2^3*y3 + x2*x3*y3^2 - x2*x3*y2 + x3^4", ring),
        ]
        for target in targets:
            assert any(e == target or e == -target for e in ep.equations)

    def test_10985_endpoint_identification_hints(self, case_10985):
        # ambient, degrees and basket pin the endpoint family
        trace = trace_link(case_10985, seed=0)
        ep = trace.steps[-1].endpoint
        assert (tuple(sorted(ep.weights)), tuple(sorted(ep.degrees))) == \
            ((1, 1, 1, 1, 2, 3), (4, 4))
        assert str(trace.baskets[-1]) == "{1/3(1,1,2)}"


class TestPicard:
    def test_divisorial_with_flag(self, case_10985):
        trace = trace_link(case_10985, seed=0)
        rep = picard_report(trace, endpoint_quasismooth=True)
        assert rep.rho == 1

    def test_flag_gate(self, case_10985):
        trace = trace_link(case_10985, seed=0)
        rep = picard_report(trace, endpoint_quasismooth=False)
        assert rep.rho is None

    def test_fibration_unreachable(self, case_20652):
        trace = trace_link(case_20652, seed=0)
        rep = picard_report(trace, endpoint_quasismooth=True)
        assert rep.rho is None


# the bundled cases whose link ends in a divisorial contraction to a Fano
DIVISORIAL = ["10985", "11005", "11125-t1", "11125-t2", "11455", "1169", "1218",
              "1253", "1413", "16339", "4925", "5177", "5279", "5305", "5963",
              "tag-iii", "tag-vii"]
# minimal generators: codim 2 and the complete intersection of tag-vii, or
# the five Pfaffians of codim 3
GENERATORS = {"10985": 2, "5963": 2, "tag-vii": 3}
# sha256 prefix of the endpoint equations ("\n"-joined report strings) of
# seven endpoints as their reports pin them; the minimal generators chosen
# from the same generators in the same entry order must not change
CERTIFIED_BEFORE = {
    "10985": "d5b314457a9f80f1", "11125-t1": "c82e609c40a9061a",
    "11455": "e6a1c17e2dfacad5", "1218": "c82e609c40a9061a",
    "5963": "22956cc0aee71d77", "tag-iii": "114f16f1a6027cad",
    "tag-vii": "28b0e43cf26d8139",
}
# the endpoint weights of these rows are scaled to clear denominators, and
# k_X is -1 only in the scaled units; see DECISIONS.md
SCALED_K = pytest.mark.xfail(
    strict=True, reason="k_X = -1/3 or -1/4 in unscaled weights; see DECISIONS.md")


@lru_cache(maxsize=None)
def divisorial_endpoint(name):
    trace = bundled_trace(name)
    assert isinstance(trace.endpoint, DivisorialContractionToFano)
    return trace.endpoint.endpoint


def canonical_class(ep) -> Fraction:
    """k_X in the unscaled induced weights: a complete intersection has
    k = sum(deg) - sum(w), a codimension-3 Pfaffian k = sum(deg)/2 - sum(w)."""
    k = Fraction(sum(ep.degrees), 1 if len(ep.equations) == ep.codim else 2) - sum(ep.weights)
    scaled = re.search(r"weights scaled by (\d+)", " ".join(ep.notes))
    return k / int(scaled.group(1)) if scaled else k


class TestEndpointMinimalGenerators:
    @pytest.mark.parametrize("name", DIVISORIAL)
    def test_certified(self, name):
        ep = divisorial_endpoint(name)
        assert ep.minimal_certified
        assert not any("minimality not certified" in n for n in ep.notes)
        assert len(ep.equations) == GENERATORS.get(name, 5)
        assert ep.degrees == tuple(bidegree(e).top for e in ep.equations)
        assert list(ep.degrees) == sorted(ep.degrees)

    @pytest.mark.parametrize("name", sorted(CERTIFIED_BEFORE))
    def test_equations_unchanged(self, name):
        text = "\n".join(str(e) for e in divisorial_endpoint(name).equations)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == CERTIFIED_BEFORE[name]


class TestEndpointOrder:
    # endpoint_fano takes the minimal generators under grevlex with last
    # the variable in the most terms; membership does not depend on the
    # order, so neither does the kept set
    @pytest.mark.parametrize("name", ["10985", "1218", "tag-iii"])
    def test_kept_set_under_every_last_variable(self, name, monkeypatch):
        real, calls = birational.minimal_generators, []

        def spy(ideal, order, budget):
            calls.append((ideal, order))
            return real(ideal, order, budget)

        monkeypatch.setattr(birational, "minimal_generators", spy)
        trace = trace_link(load_bundled(name).to_fano_case(), seed=0)
        kept = [str(e) for e in trace.endpoint.endpoint.equations]
        ((ideal, order),) = calls
        ring = ideal.ring
        occurs = [sum(m[i] > 0 for g in ideal.generators for m in g.terms)
                  for i in range(ring.nvars)]
        busiest = ring.names[occurs.index(max(occurs))]
        assert order.rows == MatrixOrder.grevlex(ring, last=busiest).rows
        for v in ring.names:
            got = real(ideal, MatrixOrder.grevlex(ring, last=v), DEFAULT_BUDGET)
            assert [str(e) for e in got] == kept, v


class TestEndpointCanonicalClass:
    @pytest.mark.parametrize("name", [
        pytest.param(n, marks=SCALED_K) if n in ("1169", "4925", "5177") else n
        for n in DIVISORIAL])
    def test_k_is_minus_one(self, name):
        assert canonical_class(divisorial_endpoint(name)) == -1


def without_members(value):
    """A report value with the fields a general member may change dropped:
    equations, witnesses and the wall's quadratic form, which is the
    member's equation on the wall line."""
    if isinstance(value, dict):
        return {k: without_members(v) for k, v in value.items()
                if k not in ("equations", "witness", "quadratic_form")}
    if isinstance(value, list):
        return [without_members(v) for v in value]
    return value


GENERAL = [n for n in bundled_case_names() if load_bundled(n).general_seed is not None]


class TestSeedInvariance:
    def test_general_cases(self):
        assert len(GENERAL) == 19
        assert not {"10985", "20652", "24097"} & set(GENERAL)

    @pytest.mark.parametrize("name", GENERAL)
    def test_link_does_not_depend_on_the_general_member(self, name):
        # the case's pinned matrix is dropped, so each trace seed draws
        # another general member of the family
        case = dataclasses.replace(load_bundled(name).to_fano_case(), matrix_seed=None)
        seen, members = [], set()
        for seed in range(4):
            trace = trace_link(case, seed=seed)
            seen.append(([without_members(step_dict(s)) for s in trace.steps],
                         [str(b) for b in trace.baskets], trace.template_ok))
            members.add(tuple(str(h) for h in trace.blowup.generators))
        assert len(members) == 4
        assert all(s == seen[0] for s in seen[1:])
