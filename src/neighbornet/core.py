"""Core types: dissimilarity maps, splits, circular and partial circular orderings.

Taxa are integers 0..n-1 throughout. Distances may be float, int, or
fractions.Fraction; exact (int/Fraction) inputs keep all derived
quantities exact, which is what the brute-force oracle tests rely on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

Num = Union[int, float, Fraction]

_EXACT_TYPES = (int, Fraction)


def is_exact_number(x) -> bool:
    return isinstance(x, _EXACT_TYPES) and not isinstance(x, bool)


class DissimilarityMap:
    """Symmetric nonnegative matrix of finite entries with zero diagonal over
    taxa 0..n-1. Immutable; whether every entry is exact (int or Fraction) is
    decided once, at construction."""

    __slots__ = ("_rows", "n", "_exact")

    def __init__(self, rows: Sequence[Sequence[Num]], *, exact: bool = False):
        n = len(rows)
        if n < 1:
            raise ValueError("dissimilarity map needs at least one taxon")
        if any(len(r) != n for r in rows):
            raise ValueError("square matrix required")
        all_exact = all(map(is_exact_number, chain.from_iterable(rows)))
        if not all_exact:
            # a row holding nan or inf has a non-finite sum
            for i, row in enumerate(rows):
                if not math.isfinite(sum(row)):
                    for j, x in enumerate(row):
                        if not math.isfinite(x):
                            raise ValueError(f"non-finite entry at ({i},{j})")
        if exact:
            rows = [[Fraction(x) for x in r] for r in rows]
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"asymmetric entries at ({i},{j})")
                if rows[i][j] < 0:
                    raise ValueError(f"negative entry at ({i},{j})")
        self._rows = tuple(tuple(r) for r in rows)
        self.n = n
        self._exact = exact or all_exact

    def __getitem__(self, ij) -> Num:
        i, j = ij
        return self._rows[i][j]

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def is_exact(self) -> bool:
        return self._exact

    def to_exact(self) -> "DissimilarityMap":
        return DissimilarityMap(self._rows, exact=True)

    def __eq__(self, other):
        return isinstance(other, DissimilarityMap) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"DissimilarityMap(n={self.n})"


@dataclass(frozen=True)
class Split:
    """A bipartition of {0..n-1}; the stored block is the side containing taxon 0."""

    n: int
    block: frozenset

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("splits need n >= 3")
        if 0 not in self.block:
            raise ValueError("stored block must contain taxon 0")
        if len(self.block) >= self.n:
            raise ValueError("block must be a proper subset")
        if not all(0 <= t < self.n for t in self.block):
            raise ValueError("taxon out of range")

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "Split":
        """Canonicalize: store whichever side of the bipartition contains taxon 0."""
        block = frozenset(members)
        if not block or len(block) >= n:
            raise ValueError("block must be a nonempty proper subset")
        if 0 not in block:
            block = frozenset(range(n)) - block
        return cls(n, block)

    @property
    def other(self) -> frozenset:
        return frozenset(range(self.n)) - self.block

    def separates(self, i: int, j: int) -> bool:
        return (i in self.block) != (j in self.block)

    def __repr__(self):
        a = ",".join(map(str, sorted(self.block)))
        b = ",".join(map(str, sorted(self.other)))
        return f"Split({a}|{b})"


def split_metric(s: Split, i: int, j: int) -> int:
    """0 if i and j lie in the same block of s, else 1."""
    if not (0 <= i < s.n and 0 <= j < s.n):
        raise IndexError("taxon index out of range")
    return 1 if s.separates(i, j) else 0


def sorted_splits(splits) -> list:
    """The one split order: by block size, then block contents."""
    return sorted(splits, key=lambda s: (len(s.block), tuple(sorted(s.block))))


def split_masks(splits: Iterable[Split], n: int) -> Iterator[np.ndarray]:
    """For each split, in input order, the bool mask of the taxon pairs it
    separates: the pair x split incidence delta_S(i, j), one column at a time.
    Pairs i < j follow np.triu_indices(n, 1) order, (0,1), (0,2), ...,
    (0,n-1), (1,2), ..., which is the order of DesignMatrix.pairs."""
    rows, cols = np.triu_indices(n, 1)
    for s in splits:
        side = np.zeros(n, dtype=bool)
        side[list(s.block)] = True
        yield side[rows] != side[cols]


def pair_sums(weights: Mapping[Split, Num], n: int, scalar: type = float) -> np.ndarray:
    """sum_S w_S delta_S(i, j) for every pair, in split_masks order. Each
    weight, converted to scalar (float or Fraction), is added over its mask in
    the mapping's order, so a float sum is the one a loop over the pairs
    would give, bit for bit. Weights may be negative."""
    out = np.full(n * (n - 1) // 2, scalar(0), dtype=float if scalar is float else object)
    for mask, w in zip(split_masks(weights, n), weights.values()):
        out[mask] += scalar(w)
    return out


class WeightedSplitSystem:
    """A set of splits with finite nonnegative weights; duplicates collapse by
    canonical form."""

    __slots__ = ("n", "_weights")

    def __init__(self, n: int, weights: Mapping[Split, Num]):
        for s, w in weights.items():
            if s.n != n:
                raise ValueError("split taxon count mismatch")
            if not (is_exact_number(w) or math.isfinite(w)):
                raise ValueError(f"non-finite weight for {s}")
            if w < 0:
                raise ValueError(f"negative weight for {s}")
        self.n = n
        self._weights = dict(weights)

    @property
    def splits(self) -> frozenset:
        return frozenset(self._weights)

    def weight(self, s: Split) -> Num:
        return self._weights[s]

    def items(self):
        return self._weights.items()

    def __len__(self):
        return len(self._weights)

    def __iter__(self):
        return iter(self._weights)

    def __contains__(self, s):
        return s in self._weights

    @property
    def is_exact(self) -> bool:
        return all(is_exact_number(w) for w in self._weights.values())

    def __repr__(self):
        return f"WeightedSplitSystem(n={self.n}, splits={len(self)})"


def metric_from_splits(sys: WeightedSplitSystem) -> DissimilarityMap:
    """d[i][j] = sum of weights of the splits separating i from j; Fractions
    when every weight is exact, floats otherwise."""
    n = sys.n
    scalar = Fraction if sys.is_exact else float
    upper = pair_sums(dict(sys.items()), n, scalar)
    full = np.full((n, n), scalar(0), dtype=upper.dtype)
    rows, cols = np.triu_indices(n, 1)
    full[rows, cols] = upper
    full[cols, rows] = upper
    return DissimilarityMap(full.tolist())


def is_pairwise_compatible(splits: Iterable[Split]) -> bool:
    """True iff every pair of distinct splits has an empty block intersection."""
    splits = list(splits)
    if not splits:
        return True
    n = splits[0].n
    if any(s.n != n for s in splits):
        raise ValueError("splits over different taxon sets")
    universe = frozenset(range(n))
    for s1, s2 in combinations(splits, 2):
        a, b = s1.block, s2.block
        if a & b and a - b and b - a and (a | b) != universe:
            return False
    return True


def canonical_cycle(order: Sequence[int]) -> tuple:
    """Dihedral canonical form: taxon 0 first, then the smaller of the two directions."""
    seq = list(order)
    k = seq.index(0)
    seq = seq[k:] + seq[:k]
    if len(seq) >= 3 and seq[1] > seq[-1]:
        seq = [seq[0]] + seq[:0:-1]
    return tuple(seq)


@dataclass(frozen=True, eq=False)
class CircularOrdering:
    """A cyclic arrangement of taxa 0..n-1; equality is up to rotation and reflection."""

    order: tuple

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        n = len(order)
        if n < 3:
            raise ValueError("circular orderings need n >= 3")
        if sorted(order) != list(range(n)):
            raise ValueError("not a permutation of 0..n-1")
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return len(self.order)

    def canonical(self) -> "CircularOrdering":
        return CircularOrdering(canonical_cycle(self.order))

    def positions(self) -> dict:
        return {t: k for k, t in enumerate(self.order)}

    def __eq__(self, other):
        if not isinstance(other, CircularOrdering):
            return NotImplemented
        return canonical_cycle(self.order) == canonical_cycle(other.order)

    def __hash__(self):
        return hash(canonical_cycle(self.order))

    def __repr__(self):
        return f"CircularOrdering({self.order})"


def canonical_orderings(n: int) -> Iterator[tuple]:
    """All (n-1)!/2 canonical cycles on 0..n-1, in lexicographic order."""
    if n < 3:
        raise ValueError("n >= 3 required")
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield (0,) + rest


def is_circular_split(s: Split, ordering: CircularOrdering) -> bool:
    """True iff one block of s is a contiguous arc of the ordering."""
    if s.n != ordering.n:
        raise ValueError("taxon count mismatch")
    pos = ordering.positions()
    block_pos = {pos[t] for t in s.block}
    n = ordering.n
    starts = sum(1 for p in block_pos if (p - 1) % n not in block_pos)
    return starts == 1


def all_circular_splits(ordering: CircularOrdering) -> frozenset:
    """The n(n-1)/2 splits whose blocks are contiguous arcs of the ordering."""
    n = ordering.n
    order = ordering.order
    out = set()
    for start in range(n):
        for length in range(1, n):
            arc = [order[(start + k) % n] for k in range(length)]
            out.add(Split.of(arc, n))
    return frozenset(out)


@dataclass(frozen=True)
class PartialCircularOrdering:
    """An ordered partition of 0..n-1 into paths; block order and path direction
    are representation detail, the constraint is only which pairs are adjacent."""

    blocks: tuple

    def __init__(self, blocks: Iterable[Sequence[int]]):
        blocks = tuple(tuple(b) for b in blocks)
        seen = [t for b in blocks for t in b]
        n = len(seen)
        if n == 0:
            raise ValueError("empty partial ordering")
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1")
        if any(not b for b in blocks):
            raise ValueError("empty block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def endpoints(self, r: int) -> tuple:
        return path_ends(self.blocks[r])

    def adjacent_pairs(self) -> Iterator[tuple]:
        for b in self.blocks:
            for k in range(len(b) - 1):
                yield b[k], b[k + 1]

    def __repr__(self):
        return "PCO(" + " | ".join(",".join(map(str, b)) for b in self.blocks) + ")"


def path_ends(path: Sequence[int]) -> tuple:
    """The one or two endpoints of a path."""
    return (path[0],) if len(path) == 1 else (path[0], path[-1])


def merged_at(items: Sequence, r: int, s: int, value) -> list:
    """items after blocks r and s merge: value replaces item min(r, s) and
    item max(r, s) is deleted."""
    if r == s:
        raise ValueError("r and s must differ")
    lo, hi = min(r, s), max(r, s)
    out = list(items)
    out[lo] = value
    del out[hi]
    return out


def join_paths(path_r: Sequence[int], path_s: Sequence[int], i: int, j: int) -> tuple:
    """Concatenate two paths with an edge (i, j), reversing either path as
    needed so that i ends the first and j starts the second."""
    path_r = list(path_r)
    path_s = list(path_s)
    if path_r[-1] != i:
        if path_r[0] != i:
            raise ValueError(f"{i} is not an endpoint of the first path")
        path_r.reverse()
    if path_s[0] != j:
        if path_s[-1] != j:
            raise ValueError(f"{j} is not an endpoint of the second path")
        path_s.reverse()
    return tuple(path_r + path_s)


class NodeWeighting:
    """Per-taxon weights mu relative to a partial circular ordering."""

    __slots__ = ("mu",)

    def __init__(self, mu: Mapping[int, Num]):
        self.mu = dict(mu)

    def __getitem__(self, taxon: int) -> Num:
        return self.mu[taxon]

    def validate(self, pco: PartialCircularOrdering) -> None:
        """Check the weighting axioms: block sums 1, positive on endpoints, nonnegative."""
        for r, b in enumerate(pco.blocks):
            if any(self.mu[t] < 0 for t in b):
                raise ValueError(f"negative weight in block {r}")
            total = sum(self.mu[t] for t in b)
            if total != 1:
                raise ValueError(f"block {r} weights sum to {total}, not 1")
            for t in pco.endpoints(r):
                if self.mu[t] <= 0:
                    raise ValueError(f"endpoint {t} must have positive weight")


# -- counting identities ----------------------------------------------------

def count_nnet_outputs(n: int) -> int:
    """Number of distinct (ordering, tree) pairs the agglomeration can emit:
    (2n-5)!/(n-3)!."""
    if n < 3:
        raise ValueError("n >= 3 required")
    return math.factorial(2 * n - 5) // math.factorial(n - 3)


def count_associahedron_vertices(n: int) -> int:
    """Catalan count (1/(n-1)) * C(2n-4, n-2)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    return math.comb(2 * n - 4, n - 2) // (n - 1)


def count_distinct_orderings(n: int) -> int:
    """Circular orderings up to the dihedral action: (n-1)!/2."""
    if n < 3:
        raise ValueError("n >= 3 required")
    return max(math.factorial(n - 1) // 2, 1)
