"""Reference routines that only tests use: a block elimination order and
elimination of variables built on it."""

from tomlinks.algebra import MatrixOrder
from tomlinks.groebner import Ideal, buchberger


def block_order(ring, first, weights=None):
    """The order that puts every monomial involving a `first` variable above
    all others: a 0/1 row marking those variables, then the weighted grevlex
    rows (`weights`, default the top row, then -e_i from the last variable)."""
    n = ring.nvars
    head = tuple(int(name in first) for name in ring.names)
    w = tuple(weights) if weights is not None else ring.top
    return MatrixOrder(ring, [head, w] + [tuple(-int(j == i) for j in range(n))
                                          for i in reversed(range(n))])


def eliminate(ideal, names):
    """Generators of I intersected with the subring omitting `names`: the
    elements of a block-order Groebner basis in which none of them occurs."""
    ring = ideal.ring
    idx = [ring.index[name] for name in names]
    gb = buchberger(ideal, block_order(ring, names, (1,) * ring.nvars))
    return Ideal([g for g in gb.elements if not any(m[i] for m in g.terms for i in idx)], ring)
