"""Core types: dissimilarity maps, splits, circular and partial circular orderings.

Taxa are integers 0..n-1 throughout. Distances may be float, int, or
fractions.Fraction; exact (int/Fraction) inputs keep all derived
quantities exact, which is what the brute-force oracle tests rely on.
Exact sums are formed on Python-int numerators over one common denominator,
which divides each result once: Fractions are made for results only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

Num = Union[int, float, Fraction]


def is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


_fractions = np.frompyfunc(lambda x: x if type(x) is Fraction else Fraction(x), 1, 1)
_over = np.frompyfunc(Fraction, 2, 1)  # _over(numerators, den): the Fractions they stand for


@lru_cache(maxsize=4)
def upper_pairs(n: int) -> tuple:
    """The pairs i < j of n taxa as read-only (rows, cols) index arrays, in
    np.triu_indices(n, 1) order; the last few n asked for are cached."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def int_numerators(values) -> tuple:
    """Exact numbers (ints or Fractions, any iterable) as (numerators, den):
    a list of Python ints over den, the lcm of their denominators."""
    values = list(values)
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


class DissimilarityMap:
    """Symmetric nonnegative matrix of finite entries with zero diagonal over
    taxa 0..n-1, held as one read-only array, d.array.

    The array's dtype is the map's one exactness decision: an object array
    of Fractions when every input entry is exact (int or Fraction) or when
    exact=True, float64 otherwise. Entries come back as Python numbers.

    An exact map's arithmetic runs on d.integer_form, built on first use:
    the entries as an object array of Python-int numerators over one common
    denominator. Fractions are made only where values leave the library:
    d.array, d[i, j] and d.rows."""

    __slots__ = ("array", "n", "_integer_form")

    def __init__(self, rows: Union[np.ndarray, Sequence[Sequence[Num]]], *, exact: bool = False):
        n = len(rows)
        if n < 1:
            raise ValueError("dissimilarity map needs at least one taxon")
        if any(len(r) != n for r in rows):
            raise ValueError("square matrix required")
        a = np.array(rows)
        # an object array holds Fractions, ints beyond int64, or a mix with floats
        all_exact = all(map(is_exact_number, a.flat)) if a.dtype == object else a.dtype.kind in "iu"
        if not all_exact:
            floats = a.astype(float)
            bad = np.argwhere(~np.isfinite(floats))
            if len(bad):
                raise ValueError("non-finite entry at ({},{})".format(*bad[0]))
        exact = exact or all_exact
        if not exact:
            a = floats
        _check_entries(a)  # before any Fraction is made: comparing Python numbers is exact
        if exact:
            a = _fractions(a)
        a.flags.writeable = False
        self.array = a
        self.n = n
        self._integer_form = None

    def __getitem__(self, ij) -> Num:
        return self.array.item(ij)

    @property
    def rows(self) -> tuple:
        return tuple(map(tuple, self.array.tolist()))

    @property
    def is_exact(self) -> bool:
        return self.array.dtype == object

    @property
    def integer_form(self) -> tuple:
        """(numerators, den) of an exact map: a read-only object array of
        Python ints with numerators / den == d.array entry by entry, den the
        lcm of the entries' denominators."""
        if self._integer_form is None:
            if not self.is_exact:
                raise ValueError("a float map has no integer form")
            numerators, den = int_numerators(self.array.flat)
            numerators = np.array(numerators, dtype=object).reshape(self.n, self.n)
            numerators.flags.writeable = False
            self._integer_form = (numerators, den)
        return self._integer_form

    def to_exact(self) -> "DissimilarityMap":
        return self if self.is_exact else DissimilarityMap(self.array, exact=True)

    def __eq__(self, other):
        return isinstance(other, DissimilarityMap) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"DissimilarityMap(n={self.n})"


def _check_entries(a: np.ndarray) -> None:
    """Raise on the first fault a row-major scan of the upper triangle meets:
    at row i the diagonal entry, then for each j > i symmetry before sign;
    then on entries above float max / n^2, whose sums would overflow."""
    n = len(a)
    rows, cols = upper_pairs(n)
    upper = a[rows, cols]
    bad = np.zeros((n, n), dtype=bool)
    bad[rows, cols] = (upper != a[cols, rows]) | (upper < 0)
    bad[np.diag_indices(n)] = np.diagonal(a) != 0
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        if i == j:
            raise ValueError(f"nonzero diagonal at {i}")
        if a[i, j] != a[j, i]:
            raise ValueError(f"asymmetric entries at ({i},{j})")
        raise ValueError(f"negative entry at ({i},{j})")
    limit = float(np.finfo(float).max) / (n * n)  # a Python float compares exactly with any int
    if upper.max(initial=0) > limit:
        k = int(np.argmax(upper > limit))
        raise ValueError(f"entry at ({rows[k]},{cols[k]}) above {limit:.4g}: sums over the map would overflow")


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
        if not (0 <= min(self.block) and max(self.block) < self.n):
            raise ValueError("taxon out of range")

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "Split":
        """Canonicalize: store whichever side of the bipartition contains taxon 0."""
        block = frozenset(members)
        if not block or len(block) >= n:
            raise ValueError("block must be a nonempty proper subset")
        if not (0 <= min(block) and max(block) < n):
            raise ValueError("taxon out of range")
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


def sorted_splits(splits) -> list:
    """The one split order: by block size, then block contents."""
    return sorted(splits, key=lambda s: (len(s.block), tuple(sorted(s.block))))


def sides_of(splits: Iterable[Split], n: int) -> np.ndarray:
    """The side matrix of the splits: an n x k bool array whose column c
    marks split c's stored block, the side holding taxon 0."""
    splits = list(splits)
    sides = np.zeros((n, len(splits)), dtype=bool)
    for c, s in enumerate(splits):
        sides[list(s.block), c] = True
    return sides


def split_masks(splits: Iterable[Split], n: int) -> Iterator[np.ndarray]:
    """For each split, in input order, the bool mask of the taxon pairs it
    separates: the pair x split incidence delta_S(i, j), one column at a time.
    Pairs i < j follow np.triu_indices(n, 1) order, (0,1), (0,2), ...,
    (0,n-1), (1,2), ..., which is the order of the DesignMatrix rows."""
    rows, cols = upper_pairs(n)
    for side in sides_of(splits, n).T:
        yield side[rows] != side[cols]


def pair_sums(weights: Mapping[Split, Num], n: int, scalar: type = float) -> np.ndarray:
    """sum_S w_S delta_S(i, j) for every pair, in split_masks order, as
    scalar (float or Fraction). Each weight is added over its mask in the
    mapping's order: as a float, so a float sum is the one a loop over the
    pairs would give, bit for bit; or, for Fraction, as its Python-int
    numerator over the weights' common denominator, which divides each sum
    once at the end. Weights may be negative."""
    if scalar is float:
        addends, den = map(float, weights.values()), None
    else:
        addends, den = int_numerators(map(Fraction, weights.values()))
    out = np.zeros(n * (n - 1) // 2, dtype=float if den is None else object)
    for mask, w in zip(split_masks(weights, n), addends):
        out[mask] += w
    return out if den is None else _over(out, den)


class WeightedSplitSystem:
    """The splits of n taxa that carry positive weight, with their weights.

    Every weight given is validated (finite, nonnegative, its split over n
    taxa); zero weights are then dropped, so len, iteration, items, splits
    and `in` cover the positive splits only, and weight(s) is 0 for a split
    of n taxa outside the system. Duplicates collapse by canonical form."""

    __slots__ = ("n", "_weights", "_exact")

    def __init__(self, n: int, weights: Mapping[Split, Num]):
        for s, w in weights.items():
            if s.n != n:
                raise ValueError("split taxon count mismatch")
            if not (is_exact_number(w) or math.isfinite(w)):
                raise ValueError(f"non-finite weight for {s}")
            if w < 0:
                raise ValueError(f"negative weight for {s}")
        self.n = n
        self._weights = {s: w for s, w in weights.items() if w > 0}
        self._exact = all(map(is_exact_number, weights.values()))

    @property
    def splits(self) -> frozenset:
        return frozenset(self._weights)

    def weight(self, s: Split) -> Num:
        if s.n != self.n:
            raise ValueError("split taxon count mismatch")
        return self._weights.get(s, 0)

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
        """Whether every weight given was exact, the dropped zeros included,
        so an all-zero float fit stays a float system."""
        return self._exact

    def __repr__(self):
        return f"WeightedSplitSystem(n={self.n}, splits={len(self)})"


def metric_from_splits(sys: WeightedSplitSystem) -> DissimilarityMap:
    """d[i][j] = sum of weights of the splits separating i from j; Fractions
    when every weight is exact, floats otherwise."""
    n = sys.n
    scalar = Fraction if sys.is_exact else float
    upper = pair_sums(dict(sys.items()), n, scalar)
    full = np.full((n, n), scalar(0), dtype=upper.dtype)
    rows, cols = upper_pairs(n)
    full[rows, cols] = full[cols, rows] = upper
    return DissimilarityMap(full)


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


def arc_splits(ordering: CircularOrdering, starts: np.ndarray, ends: np.ndarray) -> list:
    """The Split of each arc order[s:e], for the position pairs s < e of
    starts and ends. No arc holds position n-1, so the pairs of
    upper_pairs(n) give each of the n(n-1)/2 circular splits once."""
    order, zero = ordering.order, ordering.order.index(0)
    return [Split(ordering.n, frozenset(order[s:e] if s <= zero < e else order[:s] + order[e:]))
            for s, e in zip(starts.tolist(), ends.tolist())]


def corner_differences(d: DissimilarityMap, ordering: CircularOrdering) -> np.ndarray:
    """The n x n array whose entry (a, b) is twice the lambda of the arc of
    positions a..b (mod n): with D the map in the ordering's positions,

        D[a-1, b] + D[a, b+1] - D[a-1, b+1] - D[a, b]

    summed in that order, in the map's arithmetic: on an exact map over its
    integer form, with one division per entry at the end."""
    if ordering.n != d.n:
        raise ValueError("taxon count mismatch")
    values, den = d.integer_form if d.is_exact else (d.array, None)
    x = list(ordering.order)
    here = values[x][:, x]
    before = np.roll(here, 1, axis=0)  # before[a, b] = D[a-1, b]
    out = before + np.roll(here, -1, axis=1) - np.roll(before, -1, axis=1) - here
    return out if den is None else _over(out, den)


def all_circular_splits(ordering: CircularOrdering) -> frozenset:
    """The n(n-1)/2 splits whose blocks are contiguous arcs of the ordering."""
    return frozenset(arc_splits(ordering, *upper_pairs(ordering.n)))


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


def merged_at(items: Sequence, r: int, s: int, value) -> tuple:
    """items after blocks r and s merge: value replaces item min(r, s) and
    item max(r, s) is deleted."""
    if r == s:
        raise ValueError("r and s must differ")
    out = list(items)
    out[min(r, s)] = value
    del out[max(r, s)]
    return tuple(out)


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
