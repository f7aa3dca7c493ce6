from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tomlinks.algebra import (
    AlgebraError,
    BiDegree,
    NotDivisible,
    NotHomogeneous,
    ParseError,
    Polynomial,
    Ring,
    RingMismatch,
    bidegree,
    det,
    divides,
    exact_divide,
    monomials_of_degree,
    parse,
    random_general,
    substitute,
)
from tomlinks.groebner import Ideal, MatrixOrder, buchberger, normal_form

R7 = Ring(("x1", "x2", "x3", "y1", "y2", "y3", "y4"), [(1, 1, 1, 6, 5, 4, 3)])
SCROLL = Ring(
    ("t", "s", "x1", "x2", "x3", "y1", "y2", "y3", "y4"),
    [(0, 2, 1, 1, 1, 6, 5, 4, 3), (1, 1, 0, 0, 0, -1, -1, -1, -1)],
)


def rand_poly(ring, seed, degree=3):
    # dense-ish random polynomial of bounded degree for property tests
    import random

    rng = random.Random(seed)
    terms = {}
    for _ in range(6):
        mono = [0] * ring.nvars
        for _ in range(degree):
            mono[rng.randrange(ring.nvars)] += rng.randrange(2)
        terms[tuple(mono)] = Fraction(rng.randint(-5, 5))
    return Polynomial(ring, terms)


class TestParse:
    def test_two_term(self):
        p = parse("x1*x2^2 - y4", R7)
        assert len(p) == 2
        assert p.coefficient((1, 2, 0, 0, 0, 0, 0)) == 1
        assert p.coefficient((0, 0, 0, 0, 0, 0, 1)) == -1

    def test_zero(self):
        assert parse("0", R7).is_zero()

    def test_underscored_names_round_trip(self):
        p = parse("-x_2^3 + y_4", R7)
        assert parse(str(p), R7) == p
        assert parse(str(parse(str(p), R7)), R7) == p

    def test_juxtaposition(self):
        assert parse("2x1y4", R7) == parse("2*x1*y4", R7)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("x1 + w3", R7)

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            parse("x1^", R7)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_print_parse_identity(self, seed):
        p = rand_poly(R7, seed)
        if p.is_zero():
            return
        assert parse(str(p), R7) == p


class TestArithmetic:
    def test_difference_of_squares(self):
        a, b = parse("x1+y1", R7), parse("x1-y1", R7)
        assert a * b == parse("x1^2 - y1^2", R7)

    def test_annihilator(self):
        p = rand_poly(R7, 5)
        assert (p * R7.zero()).is_zero()

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_ring_axioms(self, seed):
        p, q, r = (rand_poly(R7, seed + k) for k in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


class TestExactDivide:
    def test_monomial(self):
        assert exact_divide(parse("x1^2*y1", R7), parse("x1", R7)) == parse("x1*y1", R7)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_divide(parse("x1+1", R7), parse("x2", R7))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_product_round_trip(self, seed):
        p, q = rand_poly(R7, seed), rand_poly(R7, seed + 1)
        if q.is_zero():
            return
        assert exact_divide(p * q, q) == p


R3 = Ring(("x", "y", "z"), [(1, 1, 1)])
# rational coefficients, integral ones included both as int and as Fraction
COEFFS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4)).filter(bool)
R3_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), COEFFS,
                           min_size=1, max_size=4).map(lambda t: Polynomial(R3, t))


def assert_exact(p: Polynomial):
    """Every coefficient is an int when integral and a Fraction otherwise."""
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), c


class TestExactCoefficients:
    @given(R3_POLYS, R3_POLYS, COEFFS)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic(self, f, g, c):
        for p in (f, g, f + g, f - g, f * g, f * c, c * g, -f, f ** 2):
            assert_exact(p)
        assert_exact(exact_divide(f * g, g))
        assert_exact(substitute(f, {"x": g, "y": Fraction(1, 2)}))

    @given(R3_POLYS, R3_POLYS)
    @settings(max_examples=30, deadline=None)
    def test_groebner_results(self, f, g):
        order = MatrixOrder.grevlex(R3)
        gb = buchberger(Ideal([f, g * Fraction(2, 3)]), order)
        for p in gb.elements:
            assert_exact(p)
        assert_exact(normal_form(f * Fraction(1, 3) + g, gb))
        assert_exact(normal_form(f + g * Fraction(1, 3), [f], order))

    def test_integral_sums_become_ints(self):
        half = R3.const(Fraction(1, 2)) * parse("x", R3)
        assert_exact(half + half)
        assert (half + half).terms == {(1, 0, 0): 1}
        assert_exact(half * 2)
        assert_exact(parse("2/2*x + 4/3*y", R3))

    @pytest.mark.parametrize("make", [
        lambda: Polynomial(R3, {(1, 0, 0): 0.5}),
        lambda: Polynomial(R3, {(1, 0, 0): 0.0}),
        lambda: R3.const(0.5),
        lambda: R3.monomial((1, 0, 0), 2.0),
        lambda: parse("x", R3) * 0.5,
        lambda: 0.5 * parse("x", R3),
        lambda: parse("x", R3) + 0.5,
        lambda: 0.5 + parse("x", R3),
        lambda: parse("x", R3) - 0.5,
        lambda: 0.5 - parse("x", R3),
        lambda: parse("x", R3) == 0.5,
        lambda: R3.zero() == 0.0,
    ], ids=["constructor", "constructor-zero", "const", "monomial", "mul", "rmul",
            "add", "radd", "sub", "rsub", "eq", "eq-zero"])
    def test_float_rejected(self, make):
        with pytest.raises(AlgebraError, match="not an exact rational"):
            make()

    def test_eq_with_non_number(self):
        x = parse("x", R3)
        assert x.__eq__(None) is NotImplemented
        assert x != None  # noqa: E711
        assert x != "x"
        assert R3.one() == 1 and R3.const(Fraction(1, 2)) == Fraction(1, 2)


class TestExactDivideRational:
    @given(R3_POLYS, R3_POLYS)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, u, q):
        lead = max(q.terms, key=R3.display_key)
        assume(q.terms[lead] != 1)
        assert exact_divide(u * q, q) == u

    @given(R3_POLYS, R3_POLYS)
    @settings(max_examples=40, deadline=None)
    def test_remainder_raises(self, u, q):
        # u*q + 1 = v*q would make (v - u)*q = 1, so a non-constant q is a unit
        assume(any(any(m) for m in q.terms))
        with pytest.raises(NotDivisible):
            exact_divide(u * q + 1, q)

    def test_integer_inputs_rational_quotient(self):
        u = exact_divide(parse("3*x^2 + 6*x*y", R3), parse("2*x", R3))
        assert u == parse("3/2*x + 3*y", R3)
        assert u.terms == {(1, 0, 0): Fraction(3, 2), (0, 1, 0): 3}
        assert_exact(u)


def reference_product(p: Polynomial, q: Polynomial) -> dict:
    """p*q by adding exponent tuples term by term."""
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def top_exponent(p: Polynomial) -> int:
    return max((e for m in p.terms for e in m), default=0)


R1 = Ring(("x",), [(1,)])
R10 = Ring(tuple(f"v{i}" for i in range(10)), [(1,) * 10])
# the packed product's fields are 1, 2, 4 or 8 bytes wide; these exponents
# give sums on both sides of 2^8, 2^16, 2^32 and 2^64
PRODUCT_EXPONENT = st.one_of(st.integers(0, 3), st.sampled_from(
    [h + d for h in (1 << 7, 1 << 15, 1 << 31, 1 << 63) for d in (-2, -1, 0, 1)]
    + [b + d for b in (1 << 8, 1 << 16, 1 << 32) for d in (-2, -1, 0)]))


@st.composite
def factor_pairs(draw):
    """(p, q) in a 1- or 10-variable ring, either of them possibly zero; q is
    either independent of p or p with some signs flipped, so that cross
    terms cancel as in (u + v)(u - v)."""
    ring = draw(st.sampled_from([R1, R10]))
    n = ring.nvars
    # at most three variables per monomial keep the 10-variable draws cheap
    monos = st.dictionaries(st.integers(0, n - 1), PRODUCT_EXPONENT, max_size=min(n, 3)).map(
        lambda support: tuple(support.get(i, 0) for i in range(n)))
    terms = st.dictionaries(monos, COEFFS, max_size=4)
    p = Polynomial(ring, draw(terms))
    if draw(st.booleans()):
        q = Polynomial(ring, draw(terms))
    else:
        q = Polynomial(ring, {m: c if draw(st.booleans()) else -c for m, c in p.terms.items()})
    return p, q


class TestPackedProduct:
    @given(factor_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_tuple_loop(self, pq):
        p, q = pq
        if p and q and top_exponent(p) + top_exponent(q) >= 1 << 64:
            with pytest.raises(AlgebraError, match="64"):
                p * q
            return
        product = p * q
        assert product.terms == reference_product(p, q)
        assert_exact(product)

    @pytest.mark.parametrize("top", [255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1])
    def test_field_boundaries(self, top):
        # (x^a + y)(x^b - y) = x^top - x^a*y + x^b*y - y^2 with a + b = top
        a, b = top // 2, top - top // 2
        R2 = Ring(("x", "y"), [(1, 1)])
        f = R2.monomial((a, 0)) + R2.gen("y")
        g = R2.monomial((b, 0)) - R2.gen("y")
        assert (f * g).terms == reference_product(f, g)
        assert (f * g).coefficient((top, 0)) == 1

    def test_exponent_sum_of_2_64_raises(self):
        x = R1.monomial((1 << 63,))
        with pytest.raises(AlgebraError, match="64"):
            x * x
        with pytest.raises(AlgebraError, match="64"):
            R1.monomial((1 << 64,)) * R1.one()


TOP = 2**31 - 1  # the largest exponent a packed key holds
EXPONENT = st.one_of(st.integers(0, 49), st.integers(TOP - 49, TOP))


@st.composite
def orders(draw):
    """A weighted grevlex order, with or without `last=`, or a block order,
    on a ring of 3 or 4 variables."""
    n = draw(st.integers(3, 4))
    ring = Ring(tuple(f"v{i}" for i in range(n)), [(1,) * n])
    weights = tuple(draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["grevlex", "last", "block"]))
    if kind == "grevlex":
        return MatrixOrder.grevlex(ring, weights)
    if kind == "last":
        return MatrixOrder.grevlex(ring, weights, last=draw(st.sampled_from(ring.names)))
    first = draw(st.lists(st.sampled_from(ring.names), min_size=1, max_size=n - 1, unique=True))
    return MatrixOrder.block(ring, first, weights)


def monos(n):
    return st.tuples(*[EXPONENT] * n)


def reference_key(order, m):
    """The order as a tuple: row values, then the exponents."""
    return tuple(sum(w * e for w, e in zip(row, m)) for row in order.rows) + tuple(m)


class TestMatrixOrderKey:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_packed_key_laws(self, data):
        order = data.draw(orders())
        n = order.ring.nvars
        a, b = data.draw(monos(n)), data.draw(monos(n))
        ka, kb = order.key(a), order.key(b)
        assert type(ka) is int
        assert (ka < kb) == (reference_key(order, a) < reference_key(order, b))
        assert (ka == kb) == (a == b)
        assert order.unpack(ka) == a
        assert (not (kb - ka) & order.guard) == divides(a, b)
        product = tuple(x + y for x, y in zip(a, b))
        if max(product) <= TOP:
            assert ka + kb == order.key(product)
            assert order.key(product) - ka == kb
        else:
            assert (ka + kb) & order.guard

    @given(orders().flatmap(lambda o: st.tuples(st.just(o), monos(o.ring.nvars))))
    @settings(max_examples=100, deadline=None)
    def test_key_order_on_first_row_ties(self, order_and_mono):
        # moving u*w_j off variable i and u*w_i onto variable j keeps the
        # first row's value; one unit from k to j, then all that fits from i
        # to j make the lower rows differ by little, then by nearly 2^31
        order, a = order_and_mono
        w = order.rows[0]
        for i, j, k in permutations(range(len(a)), 3):
            b = list(a)
            for src, cap in ((k, 1), (i, TOP)):
                most = min(b[src] // w[j] if w[j] else 0,
                           (TOP - b[j]) // w[src] if w[src] else TOP, cap)
                b[src] -= most * w[j]
                b[j] += most * w[src]
            b = tuple(b)
            assert (order.key(a) < order.key(b)) == \
                (reference_key(order, a) < reference_key(order, b)), (a, b)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_multiple_divides(self, data):
        order = data.draw(orders())
        n = order.ring.nvars
        a = data.draw(st.tuples(*[st.integers(0, 49)] * n))
        b = tuple(e + data.draw(st.integers(0, TOP - 49)) for e in a)
        assert not (order.key(b) - order.key(a)) & order.guard

    @pytest.mark.parametrize("m", [(0, 0, 2**31), (-1, 0, 0), (0, 1), (0, 0, 0, 0)],
                             ids=["2^31", "-1", "short", "long"])
    def test_out_of_range_raises(self, m):
        with pytest.raises(AlgebraError, match="2\\^31"):
            MatrixOrder.grevlex(R3).key(m)


class TestDet:
    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_3x3_formula(self, seed):
        (a, b, c), (d, e, f), (g, h, i) = m = [
            [rand_poly(R7, seed + 3 * r + k, degree=2) for k in range(3)] for r in range(3)]
        expected = a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h
        assert det(m) == expected

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_equal_rows_vanish(self, seed):
        m = [[rand_poly(R7, seed + 4 * r + k, degree=2) for k in range(4)] for r in range(3)]
        m.append(list(m[1]))
        assert det(m).is_zero()


class TestBidegree:
    def test_rank1(self):
        ring = Ring(tuple(f"v{i}" for i in range(8)), [(1, 1, 1, 2, 3, 4, 5, 6)])
        assert bidegree(ring.gen("v0") * ring.gen("v1")) == BiDegree(2)

    def test_scroll_bidegree(self):
        assert bidegree(parse("t*y4^2", SCROLL)) == BiDegree(6, -1)

    def test_mixed_degrees(self):
        with pytest.raises(NotHomogeneous):
            bidegree(parse("x1 + y1", R7))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_additivity(self, seed):
        import random

        rng = random.Random(seed)
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        p = random_general(d1, R7, seed=seed)
        q = random_general(d2, R7, seed=seed + 1)
        assert bidegree(p * q).top == bidegree(p).top + bidegree(q).top


SOURCE = Ring(("a", "b", "c", "d", "e", "g"), [(1,) * 6])
TARGET = Ring(("t", "g", "u"), [(1, 1, 1)])  # g: index 5 in SOURCE, 1 here
SOURCE_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 6), COEFFS, max_size=5).map(
    lambda t: Polynomial(SOURCE, t))
MULTI_TERM = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), COEFFS, min_size=2,
                             max_size=3).map(lambda t: Polynomial(TARGET, t))


class TestSubstitute:
    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy")

    @given(SOURCE_POLYS, st.integers(2, 9),
           st.sampled_from([Fraction(2, 3), Fraction(-1, 2), Fraction(5, 4)]), COEFFS, MULTI_TERM)
    @settings(max_examples=25, deadline=None)
    def test_matches_sympy(self, sympy, p, k, q, c, multi):
        t, u = TARGET.gen("t"), TARGET.gen("u")
        values = {
            "a": t * u**2 * k,    # monomial image, coefficient != 1
            "b": t**2 * q,        # monomial image, Fraction coefficient
            "c": c,               # constant
            "d": 0,
            "e": multi,           # two or more terms
        }                         # g unassigned: kept, at another index
        got = substitute(p, values, TARGET)
        assert_exact(got)

        src, tgt = sympy.symbols(SOURCE.names), sympy.symbols(TARGET.names)

        def expr(f, gens):
            if not isinstance(f, Polynomial):
                return sympy.Rational(f.numerator, f.denominator)
            terms = {m: sympy.Rational(x.numerator, x.denominator) for m, x in f.terms.items()}
            return sympy.Poly.from_dict(terms, *gens, domain="QQ").as_expr()

        mapping = {src[SOURCE.index[n]]: expr(v, tgt) for n, v in values.items()}
        want = sympy.Poly(sympy.expand(expr(p, src).subs(mapping, simultaneous=True)),
                          *tgt, domain="QQ")
        assert got.terms == {m: Fraction(int(x.p), int(x.q)) for m, x in want.terms() if x}

    def test_unknown_source_name(self):
        with pytest.raises(AlgebraError, match="not a variable of the source ring"):
            substitute(parse("x1", R7), {"w": 1})

    def test_values_in_different_rings(self):
        with pytest.raises(RingMismatch):
            substitute(parse("x1*y1", R7), {"x1": SCROLL.gen("t"), "y1": TARGET.gen("t")})

    def test_unassigned_variable_missing_from_target(self):
        with pytest.raises(AlgebraError, match="'x1' missing from target ring"):
            substitute(parse("x1*y1", R7), {"y1": TARGET.gen("t")}, TARGET)

    def test_unit_substitution(self):
        p = parse("y1^2 - x1*y1", R7)
        assert substitute(p, {"y1": 1}) == parse("1 - x1", R7)

    def test_identity(self):
        p = rand_poly(R7, 11)
        assert substitute(p, {"y1": R7.gen("y1")}) == p

    def test_pullback_to_scroll(self):
        # y -> t*y realises the map contracting the ideal variables
        t = SCROLL.gen("t")
        image = substitute(parse("x1*y4", R7), {n: t * SCROLL.gen(n) for n in ("y1", "y2", "y3", "y4")}, SCROLL)
        assert image == parse("t*x1*y4", SCROLL)


class TestRandomGeneral:
    def test_dense_linear_form(self):
        ring = Ring(("x1", "x2", "x3"), [(1, 1, 1)])
        p = random_general(1, ring, seed=7)
        assert len(p) == 3

    def test_ideal_constraint(self):
        ys = [R7.index[n] for n in ("y1", "y2", "y3", "y4")]
        p = random_general(3, R7, constraint=lambda m: any(m[i] for i in ys), seed=1)
        assert all(any(m[i] for i in ys) for m in p.terms)

    def test_determinism(self):
        assert random_general(4, R7, seed=3) == random_general(4, R7, seed=3)

    def test_no_admissible_monomial(self):
        ys = [R7.index[n] for n in ("y1", "y2", "y3", "y4")]
        with pytest.raises(AlgebraError):
            random_general(1, R7, constraint=lambda m: any(m[i] for i in ys), seed=0)

    def test_full_support(self):
        p = random_general(3, R7, seed=9)
        assert len(p) == len(monomials_of_degree(R7, 3))
