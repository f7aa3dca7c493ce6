"""Exact sparse multivariate polynomial arithmetic over Q with weighted gradings.

A monomial is a tuple of non-negative integer exponents, one slot per ring
variable.  A polynomial is a map from monomials to nonzero rationals; the
zero polynomial has an empty term map.  A coefficient is an `int` when it is
integral and a `Fraction` otherwise, never a float: `exact` normalises every
coefficient that enters a Polynomial, so integral arithmetic never goes
through `Fraction`, and every coefficient division goes through `Fraction`
(`int / int` would give a float).  Rings carry one or two integer weight
rows ("top" and optional "bottom"), so a polynomial can be graded either by
a single weighted degree or by a bidegree.

Products work on packed monomials (after Monagan-Pearce, Polynomial
division using dynamic arrays, heaps, and packed exponent vectors, 2007):
each exponent gets a field of 1, 2, 4 or 8 bytes in one int, the smallest
width that holds the largest exponent of one factor plus the largest
exponent of the other.  So a product of two terms costs one int addition,
and no field ever carries into the next.  An exponent sum of 2^64 or more
raises AlgebraError instead of wrapping.  `dot` sums signed products
(a minor's expansion, a pfaffian, a matrix-vector row) in one packed
accumulator, with one field width for all of them, and unpacks only the
sum; `Polynomial.__mul__` is its one-product case.

`MatrixOrder` is the one monomial order definition: `grevlex(ring)` orders
printed terms and `exact_divide`, and Groebner takes any well-ordered one.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from numbers import Number
from operator import add, le, mul
from typing import Callable, Iterable, Mapping, Sequence

Mono = tuple  # tuple[int, ...], one exponent per ring variable

# MatrixOrder.key gives each exponent a field of this many bits, whose top
# bit is a guard: exponents lie in [0, 2^31)
_FIELD_BITS = 32
_EXP_BOUND = 1 << (_FIELD_BITS - 1)
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class AlgebraError(Exception):
    pass


class RingMismatch(AlgebraError):
    pass


class ParseError(AlgebraError):
    pass


class NotHomogeneous(AlgebraError):
    pass


class NotDivisible(AlgebraError):
    """Multivariate division left a nonzero remainder."""


def exact(c) -> "int | Fraction":
    """c as an int when integral, as a Fraction otherwise; anything else
    (a float above all) raises AlgebraError."""
    if type(c) is int:
        return c
    if isinstance(c, (int, Fraction)):
        return c.numerator if c.denominator == 1 else c
    raise AlgebraError(f"coefficient {c!r} is not an exact rational")


def _exact_terms(terms: dict) -> dict:
    """Apply `exact` to the values of an arithmetic result, in place."""
    for m, c in terms.items():
        if type(c) is not int:
            terms[m] = exact(c)
    return terms


@dataclass(frozen=True)
class BiDegree:
    top: int
    bottom: int | None = None


class Ring:
    """Ordered variable names plus one or two integer weight rows."""

    __slots__ = ("names", "weights", "index")

    def __init__(self, names: Sequence[str], weights: Sequence[Sequence[int]]):
        names = tuple(names)
        rows = tuple(tuple(int(w) for w in row) for row in weights)
        if not rows or len(rows) > 2:
            raise AlgebraError("a ring carries 1 or 2 weight rows")
        for row in rows:
            if len(row) != len(names):
                raise AlgebraError("weight row length != variable count")
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate variable names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Ring is immutable")

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def top(self) -> tuple:
        return self.weights[0]

    @property
    def bottom(self) -> tuple:
        if self.rank != 2:
            raise AlgebraError("ring has no bottom weight row")
        return self.weights[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ring)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return f"Ring({list(self.names)}, {[list(r) for r in self.weights]})"

    def gen(self, name: str) -> "Polynomial":
        i = self.index[name]
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mono: 1}, _clean=True)

    def gens(self) -> list["Polynomial"]:
        return [self.gen(n) for n in self.names]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = exact(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def monomial(self, mono: Mono, coeff=1) -> "Polynomial":
        c = exact(coeff)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {tuple(mono): c}, _clean=True)

    def mono_degree(self, mono: Mono, row: int = 0) -> int:
        w = self.weights[row]
        return sum(w[i] * e for i, e in enumerate(mono) if e)


class MatrixOrder:
    """Monomial order given by stacked integer weight rows.

    Monomials are compared by the lexicographic value of their weighted
    degrees under `rows`; remaining ties are broken by plain lex on the
    exponents in ring variable order, which makes the comparison total
    whatever the rows are.

    `key(m)` packs that comparison into one int.  The low bits hold one
    32-bit field per exponent, the first variable highest; the top bit of
    each field is a guard, so exponents must lie in [0, 2^31) and `key`
    raises AlgebraError otherwise.  Above the fields sits one balanced digit
    per row, the last row lowest, each wide enough that |row . m| stays
    below half its radix.  So comparing keys as ints compares (row values,
    then exponents) lexicographically, and the key is linear in the
    exponents, key(m) = sum_i m_i * c_i, which gives:

    * key(a * b) = key(a) + key(b) and key(b / a) = key(b) - key(a);
    * a divides b iff (key(b) - key(a)) & guard == 0: the row digits only
      touch bits above the fields, and a negative exponent difference
      borrows into, and sets, the guard bit of its field;
    * a sum of two keys overflowed an exponent iff it has a guard bit set;
    * `unpack(key(m)) == m`.

    By Dickson's lemma the order is a well-order iff every variable exceeds
    1, iff the first nonzero entry of each column of `rows` is positive (a
    zero column counts, by the tie-break).  `well_ordered` says which; the
    Groebner routines refuse an order that is not one.
    """

    __slots__ = ("ring", "rows", "guard", "well_ordered", "_coeffs", "_shifts")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[int]]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", tuple(tuple(int(w) for w in r) for r in rows))
        n = ring.nvars
        for r in self.rows:
            if len(r) != n:
                raise AlgebraError("order row length != variable count")
        shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        coeffs = [1 << s for s in shifts]
        unit = 1 << (_FIELD_BITS * n)
        for r in reversed(self.rows):
            for i, w in enumerate(r):
                coeffs[i] += w * unit
            bound = sum(map(abs, r)) * (_EXP_BOUND - 1)
            unit <<= (2 * bound + 1).bit_length()
        object.__setattr__(self, "guard", sum(1 << (s + _FIELD_BITS - 1) for s in shifts))
        # coeffs[i] = key(x_i), which has the sign of column i's first nonzero entry
        object.__setattr__(self, "well_ordered", min(coeffs, default=1) > 0)
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        object.__setattr__(self, "_shifts", shifts)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MatrixOrder is immutable")

    def key(self, mono: Mono) -> int:
        if len(mono) != len(self._coeffs) or min(mono, default=0) < 0 \
                or max(mono, default=0) >= _EXP_BOUND:
            raise AlgebraError(f"monomial {mono} has an exponent outside [0, 2^31) "
                               f"or the wrong length")
        return sum(map(mul, self._coeffs, mono))

    def unpack(self, key: int) -> Mono:
        """The exponent tuple of a key."""
        return tuple((key >> s) & _FIELD_MASK for s in self._shifts)

    @classmethod
    def grevlex(cls, ring: Ring, weights: Sequence[int] | None = None,
                last: str | None = None) -> "MatrixOrder":
        """Weighted graded reverse lexicographic order (top row by default).

        The weight row, then a row -e_i for every variable: among monomials
        of equal weight the one with the lower exponent of `last` (default:
        the last ring variable) is larger, then the other variables follow
        in reverse ring order.  `grevlex(ring)` is the print order.  The
        order is a well-order iff every weight is positive.
        """
        w = tuple(weights) if weights is not None else ring.top
        n = ring.nvars
        v = ring.index[last] if last is not None else n - 1
        rev = [v] + [i for i in range(n - 1, -1, -1) if i != v]
        return cls(ring, [w] + [tuple(-1 if j == i else 0 for j in range(n)) for i in rev])


# Polynomial.__mul__ packs monomials into fields of these (bytes, array
# typecode) pairs, smallest first; arrays are in native byte order
_FIELDS = sorted({array(code).itemsize: code for code in "QLIHB"}.items())
_BYTE_ORDER = sys.byteorder


@lru_cache(maxsize=None)
def _packer(bits: int, n: int) -> tuple[Callable[[dict], list], Callable[[dict], dict]]:
    """(pack, unpack) for n-variable term maps: `pack` turns {monomial: c}
    into [(packed monomial, c)], `unpack` turns {packed monomial: c} back
    into {monomial: c}, dropping zero coefficients.

    A packed monomial is an int with one field per variable, in the
    machine's byte order.  A field is the smallest of 1, 2, 4 or 8 bytes that
    holds a `bits`-bit exponent, so two packed monomials whose exponents sum
    to a number of at most `bits` bits add field by field without a carry.
    More than 64 bits raise AlgebraError.
    """
    for size, code in _FIELDS:
        if bits <= 8 * size:
            break
    else:
        raise AlgebraError(f"an exponent sum of {bits} bits does not fit in a 64-bit field")
    from_bytes, order, width = int.from_bytes, _BYTE_ORDER, size * n
    if size == 1:
        return (lambda terms: [(from_bytes(bytes(m), order), c) for m, c in terms.items()],
                lambda out: {tuple(k.to_bytes(n, order)): c for k, c in out.items() if c})
    return (lambda terms: [(from_bytes(array(code, m), order), c) for m, c in terms.items()],
            lambda out: {tuple(array(code, k.to_bytes(width, order))): c
                         for k, c in out.items() if c})


class Polynomial:
    """Sparse polynomial: map from exponent tuples to nonzero int or Fraction
    coefficients (see `exact`)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping, *, _clean: bool = False):
        object.__setattr__(self, "ring", ring)
        if _clean:
            object.__setattr__(self, "terms", dict(terms))
        else:
            object.__setattr__(
                self, "terms", {m: e for m, c in terms.items() if (e := exact(c))}
            )

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch("polynomials live in different rings")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if not isinstance(other, Number):
                return NotImplemented
            other = self.ring.const(other)  # a float raises in `exact`
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s if type(s) is int else exact(s)
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, _clean=True)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = exact(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(
                self.ring, _exact_terms({m: co * c for m, co in self.terms.items()}),
                _clean=True,
            )
        return dot(((1, self, other),))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise AlgebraError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degree(self) -> int:
        """Max top-row degree of the terms (0 for the zero polynomial)."""
        return max((self.ring.mono_degree(m) for m in self.terms), default=0)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)}>"


# ---------------------------------------------------------------------------
# parsing and printing

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9_]*|\^|\*|\+|-)")


def parse(text: str, ring: Ring) -> Polynomial:
    """Parse a +/- separated sum of integer- or rational-coefficient monomial words.

    Products are written with `*` or by juxtaposition, powers with `^`; a
    `*` must stand between two factors.  Underscores in variable names are
    ignored, so `x_2` reads as `x2`.
    """
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character at {pos}: {text[pos:pos+10]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    n = ring.nvars
    terms: dict = {}
    i = 0
    ntok = len(tokens)

    def add_term(coeff: Fraction, expo: list):
        m = tuple(expo)
        s = terms.get(m, 0) + coeff
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)

    if ntok == 0:
        raise ParseError("empty polynomial text")

    while i < ntok:
        sign = 1
        while i < ntok and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= ntok:
            raise ParseError("dangling sign")
        coeff = Fraction(sign)
        expo = [0] * n
        saw_factor = False
        while i < ntok and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*":
                if not saw_factor or i + 1 == ntok or tokens[i + 1] in "+-*^":
                    raise ParseError("a '*' must join two factors")
                i += 1
                continue
            if tok == "^":
                raise ParseError("exponent with no base")
            if tok[0].isdigit():
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise ParseError(f"zero denominator in {tok!r}")
                i += 1
            else:
                names = _split_variables(tok, ring)
                e = 1
                i += 1
                if i < ntok and tokens[i] == "^":
                    i += 1
                    if i >= ntok or not tokens[i].isdigit():
                        raise ParseError("malformed exponent")
                    e = int(tokens[i])
                    i += 1
                for name in names[:-1]:
                    expo[ring.index[name]] += 1
                expo[ring.index[names[-1]]] += e  # a trailing power binds to the last factor
            saw_factor = True
        if not saw_factor:
            raise ParseError("empty term")
        add_term(coeff, expo)
    return Polynomial(ring, terms)


def _split_variables(word: str, ring: Ring) -> list[str]:
    """Split a juxtaposed identifier like x1y4 into ring names, longest match first."""
    text = word.replace("_", "")
    if text in ring.index:
        return [text]
    by_length = sorted(ring.names, key=len, reverse=True)
    out: list[str] = []
    pos = 0
    while pos < len(text):
        for name in by_length:
            if text.startswith(name, pos):
                out.append(name)
                pos += len(name)
                break
        else:
            raise ParseError(f"unknown variable name {word!r}")
    return out


_print_order = lru_cache(maxsize=256)(MatrixOrder.grevlex)  # one build per ring


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in descending `MatrixOrder.grevlex` order."""
    if p.is_zero():
        return "0"
    ring = p.ring
    monos = sorted(p.terms, key=_print_order(ring).key, reverse=True)
    pieces: list[str] = []
    for k, m in enumerate(monos):
        c = p.terms[m]
        neg = c < 0
        c = -c if neg else c
        factors = []
        if c != 1 or not any(m):
            factors.append(str(c))
        for i, e in enumerate(m):
            if e == 1:
                factors.append(ring.names[i])
            elif e > 1:
                factors.append(f"{ring.names[i]}^{e}")
        body = "*".join(factors)
        if k == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# graded structure

def bidegree(p: Polynomial) -> BiDegree:
    """Common weighted (bi)degree of all terms; raises if p is 0 or inhomogeneous."""
    if p.is_zero():
        raise AlgebraError("the zero polynomial has no degree")
    degs = []
    for row in range(p.ring.rank):
        vals = {p.ring.mono_degree(m, row) for m in p.terms}
        if len(vals) > 1:
            raise NotHomogeneous(
                f"mixed degrees {sorted(vals)} in weight row {row}: {p}"
            )
        degs.append(vals.pop())
    return BiDegree(*degs)


def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return u with u*q == p, or raise NotDivisible.

    As in the Groebner reducer, each step pops the leading remainder key of
    the print order from a heap of negated packed keys (after Monagan-Pearce,
    Sparse polynomial division using a heap, 2011, whose heap holds the
    pending products instead); a key is pushed once while it has a term.
    A nonzero remainder signals a violated unprojection precondition upstream.

    If q divides p, a remainder term is a quotient term times a term of q,
    so it lies in p's Newton polytope (Ostrowski) and exponent box; a term
    outside raises NotDivisible, which also ends division under a non-well-order.
    """
    if q.is_zero():
        raise AlgebraError("division by zero polynomial")
    p._check(q)
    if p.is_zero():
        return p
    ring = p.ring
    order = _print_order(ring)
    key, guard = order.key, order.guard
    box = key(tuple(map(max, zip(*p.terms))))
    qtail = {key(m): c for m, c in q.terms.items()}
    qlead = max(qtail)
    qc = qtail.pop(qlead)
    work = {key(m): c for m, c in p.terms.items()}
    heap = [-k for k in work]
    heapq.heapify(heap)
    quot: dict = {}
    while heap:
        k = -heapq.heappop(heap)
        c = work.pop(k)
        if not c:
            continue
        shift = k - qlead
        if shift & guard:
            raise NotDivisible(f"remainder starts with {ring.monomial(order.unpack(k), c)}")
        factor = exact(Fraction(c, qc))
        quot[shift] = factor
        for kq, cq in qtail.items():
            kk = shift + kq
            if (box - kk) & guard:
                raise NotDivisible("a remainder term leaves the exponent box of p")
            s = work.get(kk, 0) - factor * cq
            if kk not in work:
                heapq.heappush(heap, -kk)
            work[kk] = s
    return Polynomial(ring, {order.unpack(k): c for k, c in quot.items()}, _clean=True)


def divide_out(p: Polynomial, var: str) -> tuple[Polynomial, int]:
    """(q, k) with p = var^k * q and k maximal."""
    if p.is_zero():
        return p, 0
    v = p.ring.index[var]
    k = min(m[v] for m in p.terms)
    if k == 0:
        return p, 0
    return Polynomial(
        p.ring, {m[:v] + (m[v] - k,) + m[v + 1:]: c for m, c in p.terms.items()}, _clean=True
    ), k


def divides(m1: Mono, m2: Mono) -> bool:
    return all(map(le, m1, m2))


def det(m: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix: its one maximal minor."""
    return minors(m)[tuple(range(len(m)))]


def minors(rows: Sequence[Sequence[Polynomial]]) -> dict[tuple[int, ...], Polynomial]:
    """Every maximal minor of a k x n matrix, k <= n, keyed by the tuple of
    its columns in `combinations` order.

    Each minor is expanded along the first row over the maximal minors of
    the rows below, which are built once for all of them, so a 4x4
    determinant takes four 1x1, six 2x2, four 3x3 and one 4x4 minor.
    """
    if len(rows) == 1:
        return {(c,): a for c, a in enumerate(rows[0])}
    below = minors(rows[1:])
    return {cols: dot((-1 if k % 2 else 1, rows[0][c], below[cols[:k] + cols[k + 1:]])
                      for k, c in enumerate(cols))
            for cols in combinations(range(len(rows[0])), len(rows))}


def dot(products: Iterable[tuple[int, Polynomial, Polynomial]]) -> Polynomial:
    """The sum of sign*a*b over (sign, a, b) triples, sign 1 or -1, in one
    packed accumulator.

    One field width serves every product: the smallest that holds the
    largest exponent sum of any pair, so all packed keys share one layout
    and each term product is one int addition and one dict update.  The
    sum is unpacked once, so no product is built as a Polynomial of its
    own.  All factors must share one ring (else RingMismatch), and there
    must be at least one triple, which names the ring.
    """
    products = list(products)
    if not products:
        raise AlgebraError("an empty sum of products has no ring")
    ring = products[0][1].ring
    n = ring.nvars
    top = 0
    pairs = []
    for sign, a, b in products:
        if a.ring != ring or b.ring != ring:
            raise RingMismatch("polynomials live in different rings")
        a, b = a.terms, b.terms
        if len(a) > len(b):
            a, b = b, a
        if a:
            if n:
                top = max(top, max(map(max, a)) + max(map(max, b)))
            pairs.append((sign, a, b))
    pack, unpack = _packer(top.bit_length(), n)
    out: dict = {}
    get = out.get
    for sign, a, b in pairs:
        pb = pack(b)
        for k1, c1 in pack(a):
            c1 *= sign
            for k2, c2 in pb:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return Polynomial(ring, _exact_terms(unpack(out)), _clean=True)


def substitute(p: Polynomial, assignments: Mapping[str, "Polynomial | int | Fraction"],
               target: Ring) -> Polynomial:
    """Simultaneous substitution of variables; unassigned names must exist in target.

    Each source variable occurring in p gets an image.  A value of at most
    one term is a monomial image, an exponent vector of the target with a
    coefficient: an unassigned variable (the target variable of the same
    name, coefficient 1), a term such as t^w*x, a constant, or 0.  A term of
    p whose variables all have monomial images maps to one monomial by
    exponent arithmetic; the values of the other variables, of two or more
    terms, are multiplied in as cached powers.
    """
    ring = p.ring
    values: dict[int, Polynomial] = {}
    for name, v in assignments.items():
        if name not in ring.index:
            raise AlgebraError(f"{name!r} is not a variable of the source ring")
        if isinstance(v, Polynomial):
            if v.ring != target:
                raise RingMismatch(f"the value of {name!r} lives outside the target ring")
            values[ring.index[name]] = v
        else:
            values[ring.index[name]] = target.const(v)

    occurring = set()
    for m in p.terms:
        occurring.update(i for i, e in enumerate(m) if e)
    # a monomial image is ((target index, exponent) pairs, coefficient)
    images: dict[int, tuple] = {}
    for i in sorted(occurring):
        v = values.get(i)
        if v is None:
            name = ring.names[i]
            if name not in target.index:
                raise AlgebraError(f"unassigned variable {name!r} missing from target ring")
            images[i] = (((target.index[name], 1),), 1)
        elif len(v.terms) <= 1:
            mv, cv = next(iter(v.terms.items()), ((), 0))
            images[i] = (tuple((j, e) for j, e in enumerate(mv) if e), cv)

    powers: dict[tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        got = powers.get((i, e))
        if got is None:
            got = values[i] ** e
            powers[(i, e)] = got
        return got

    one = target.one()
    out: dict = {}
    for m, c in p.terms.items():
        base = [0] * target.nvars
        prod = one
        for i, e in enumerate(m):
            if not e:
                continue
            image = images.get(i)
            if image is None:
                prod = prod * power(i, e)
            else:
                exps, k = image
                for j, ej in exps:
                    base[j] += e * ej
                c *= k ** e
        if not c:
            continue
        for mp, cp in prod.terms.items():
            mm = tuple(map(add, base, mp))
            s = out.get(mm, 0) + c * cp
            if s:
                out[mm] = s
            else:
                del out[mm]
    return Polynomial(target, _exact_terms(out), _clean=True)


# ---------------------------------------------------------------------------
# seeded general elements

def mix_seed(seed: int, *tag) -> int:
    """Derive a child seed deterministically from a root seed and a tag."""
    blob = repr((seed,) + tag).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def monomials_of_degree(ring: Ring, degree: int) -> list[Mono]:
    """All monomials of the given weighted degree in the top weight row."""
    w = ring.top
    if any(x <= 0 for x in w):
        raise AlgebraError("degree enumeration needs positive top weights")
    n = ring.nvars
    out: list[Mono] = []
    expo = [0] * n

    def rec(i: int, rem: int):
        if i == n - 1:
            if rem % w[i] == 0:
                expo[i] = rem // w[i]
                out.append(tuple(expo))
                expo[i] = 0
            return
        for e in range(rem // w[i] + 1):
            expo[i] = e
            rec(i + 1, rem - e * w[i])
        expo[i] = 0

    rec(0, degree)
    return out


def random_general(degree: int, ring: Ring, constraint: Callable[[Mono], bool] | None = None,
                   seed: int = 0) -> Polynomial:
    """Seeded general form: every admissible monomial of the degree appears
    with a nonzero small integer coefficient drawn from [-9, 9].

    Deterministic for a fixed seed; raises if no monomial is admissible.
    """
    monos = monomials_of_degree(ring, degree)
    if constraint is not None:
        monos = [m for m in monos if constraint(m)]
    if not monos:
        raise AlgebraError(f"no admissible monomial of degree {degree}")
    rng = random.Random(mix_seed(seed, "random_general", degree))
    terms = {}
    for m in sorted(monos):
        c = rng.randint(1, 18)  # 1..9 -> positive, 10..18 -> negative: never zero
        terms[m] = c if c <= 9 else 9 - c
    return Polynomial(ring, terms, _clean=True)
