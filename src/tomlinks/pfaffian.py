"""Graded 5x5 skew-symmetric matrices and their five maximal pfaffians.

A matrix is stored by its ten upper-triangle entries, indexed by pairs
(i, j) with 1 <= i < j <= 5.  The weight data carries the same shape and
must satisfy pfaffian homogeneity: m[i,j] + m[k,l] depends only on the set
{i, j, k, l}, so every maximal pfaffian is homogeneous.

Tom_k format: every entry off row/column k lies in the ideal spanned by the
y variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import (
    AlgebraError,
    Polynomial,
    Ring,
    bidegree,
    dot,
    mix_seed,
    random_general,
)

PAIRS = tuple((i, j) for i in range(1, 6) for j in range(i + 1, 6))

# the ideal variables of every Tom format, in ring order
IDEAL_VARS = ("y1", "y2", "y3", "y4")


class PfaffianError(AlgebraError):
    pass


@dataclass(frozen=True)
class WeightMatrix5:
    """Upper-triangle integer weights m[i,j] with pfaffian homogeneity."""

    m: Mapping[tuple[int, int], int]

    def __post_init__(self):
        entries = dict(self.m)
        if set(entries) != set(PAIRS):
            raise PfaffianError("weight matrix needs exactly the 10 upper-triangle slots")
        object.__setattr__(self, "m", entries)
        for k in range(1, 6):
            degs = {entries[p] + entries[q] for p, q in complement_pairs(k)}
            if len(degs) > 1:
                raise PfaffianError(
                    f"pfaffian {k} would be inhomogeneous: partial degrees {sorted(degs)}"
                )

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.m[_pair(*ij)]

    def pfaffian_degree(self, k: int) -> int:
        p, q = complement_pairs(k)[0]
        return self.m[p] + self.m[q]

    def permuted(self, perm: Mapping[int, int]) -> "WeightMatrix5":
        """Relabel rows and columns: weight (i,j) <- old (perm[i], perm[j])."""
        return WeightMatrix5({(i, j): self[(perm[i], perm[j])] for (i, j) in PAIRS})

    @classmethod
    def from_list(cls, values: Iterable[int]) -> "WeightMatrix5":
        vals = list(values)
        if len(vals) != 10:
            raise PfaffianError("expected 10 weights, row by row")
        return cls(dict(zip(PAIRS, (int(v) for v in vals))))

    def as_list(self) -> list[int]:
        return [self.m[p] for p in PAIRS]


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def complement_pairs(k: int):
    """The three 2+2 splittings of {1..5} minus {k}, as ordered pairs, in
    the order of the pfaffian expansion ab.cd - ac.bd + ad.bc."""
    a, b, c, d = (i for i in range(1, 6) if i != k)
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


def signed_pfaffian(table: Mapping[tuple[int, int], Polynomial], k: int) -> Polynomial:
    """Pf_k = (-1)^(k+1) pf(M with row/col k deleted), M given by its
    upper-triangle entry table.

    The signs are fixed so that M . (Pf_1..Pf_5)^T = 0 identically.
    """
    sign = 1 if k % 2 else -1
    return dot((s * sign, table[p], table[q])
               for s, (p, q) in zip((1, -1, 1), complement_pairs(k)))


@dataclass(frozen=True)
class TomFormat:
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= 5:
            raise PfaffianError("Tom index out of range 1..5")


class SkewMatrix5:
    """Graded skew 5x5 matrix over a ring, held as its upper triangle."""

    __slots__ = ("entries", "weights", "ring")

    def __init__(self, entries: Mapping[tuple[int, int], Polynomial],
                 weights: WeightMatrix5, ring: Ring):
        table = {}
        for (i, j), p in entries.items():
            table[_pair(i, j)] = p
        for p_ij in PAIRS:
            if p_ij not in table:
                raise PfaffianError(f"missing entry {p_ij}")
        for p_ij, p in table.items():
            if p.ring != ring:
                raise PfaffianError(f"entry {p_ij} lives in the wrong ring")
            if not p.is_zero() and bidegree(p).top != weights[p_ij]:
                raise PfaffianError(
                    f"entry {p_ij} has degree {bidegree(p).top}, declared {weights[p_ij]}"
                )
        self.entries = table
        self.weights = weights
        self.ring = ring

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        if i == j:
            return self.ring.zero()
        p = self.entries[_pair(i, j)]
        return p if i < j else -p

    def permuted(self, perm: Mapping[int, int]) -> "SkewMatrix5":
        """Conjugate by a row/column permutation (entry (i,j) <- old (perm[i], perm[j]))."""
        return SkewMatrix5({(i, j): self[(perm[i], perm[j])] for (i, j) in PAIRS},
                           self.weights.permuted(perm), self.ring)


def maximal_pfaffians(M: SkewMatrix5) -> list[Polynomial]:
    """The five signed 4x4 pfaffians Pf_1..Pf_5 (see `signed_pfaffian`)."""
    return [signed_pfaffian(M.entries, k) for k in range(1, 6)]


def _ideal_indices(ring: Ring) -> tuple[int, ...]:
    try:
        return tuple(ring.index[v] for v in IDEAL_VARS)
    except KeyError as e:
        raise PfaffianError(f"ring lacks ideal variable {e}")


def constrained_pairs(fmt: TomFormat) -> list[tuple[int, int]]:
    return [(i, j) for (i, j) in PAIRS if i != fmt.k and j != fmt.k]


def build_general_tom(weights: WeightMatrix5, fmt: TomFormat, ambient: Ring,
                      seed: int) -> SkewMatrix5:
    """Seeded general Tom matrix: constrained entries are general elements of
    (y1..y4) in their degree, the rest general forms; deterministic per seed.
    """
    idx = _ideal_indices(ambient)
    entries = {}
    constrained = constrained_pairs(fmt)
    for (i, j) in PAIRS:
        d = weights[(i, j)]
        entry_seed = mix_seed(seed, "tom_entry", i, j)
        if (i, j) in constrained:
            entries[(i, j)] = random_general(
                d, ambient, constraint=lambda m: any(m[k] for k in idx), seed=entry_seed
            )
        else:
            entries[(i, j)] = random_general(d, ambient, seed=entry_seed)
    return SkewMatrix5(entries, weights, ambient)
