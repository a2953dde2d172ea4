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
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

Num = Union[int, float, Fraction]


def is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction, np.integer)) and not isinstance(x, bool)


def as_fraction(x) -> Fraction:
    """x as a Fraction of Python ints: a numpy integer's own numerator is a
    fixed-width int, whose products overflow."""
    return x if type(x) is Fraction else Fraction(int(x) if isinstance(x, np.integer) else x)


def _real_kind(x) -> Optional[bool]:
    """True for an exact number, False for a float or a bool, None for what is not a real number."""
    return True if is_exact_number(x) else False if isinstance(x, (float, bool, np.floating, np.bool_)) else None


def _check_taxa(taxa: Sequence, n: int, message: str) -> None:
    """Raise ValueError(message) unless taxa are distinct ints or numpy integers in 0..n-1: no bool, no float."""
    whole = all(issubclass(k, (int, np.integer)) and k is not bool for k in set(map(type, taxa)))
    if not (whole and len(set(taxa)) == len(taxa) and 0 <= min(taxa, default=0) and max(taxa, default=0) < n):
        raise ValueError(message)


_fractions = np.frompyfunc(as_fraction, 1, 1)
_over = np.frompyfunc(Fraction, 2, 1)  # _over(numerators, den): the Fractions they stand for


@lru_cache(maxsize=4)
def upper_pairs(n: int) -> tuple:
    """The pairs i < j of n taxa as read-only (rows, cols) index arrays, in
    np.triu_indices(n, 1) order; the last few n asked for are cached."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def int_numerators(values) -> tuple:
    """Exact numbers (ints or Fractions, any iterable) as (numerators, den):
    a list of Python ints over den, the lcm of their denominators."""
    values = list(values)
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


class DissimilarityMap:
    """Symmetric nonnegative matrix of finite entries with zero diagonal over
    taxa 0..n-1, read as one read-only array, d.array.

    A map is exact when every input entry is exact (int or Fraction) or when
    exact=True, float otherwise. A float map holds d.array, float64. An
    exact map holds d.integer_form, its entries as a read-only object array
    of Python-int numerators over one common denominator, on which its
    arithmetic runs. d.array, an object array of Fractions, is made on its
    first read, or d.rows', and kept; d[i, j] makes one Fraction until then.
    Entries come back as Python numbers."""

    __slots__ = ("_array", "n", "_integer_form")

    def __init__(self, rows: Union[np.ndarray, Sequence[Sequence[Num]]], *, exact: bool = False):
        n = len(rows)
        if n < 1:
            raise ValueError("dissimilarity map needs at least one taxon")
        if any(len(r) != n for r in rows):
            raise ValueError("square matrix required")
        a = np.array(rows)
        # an object array holds Fractions, ints beyond int64, or a mix with floats
        kinds = list(map(_real_kind, a.flat)) if a.dtype == object else [_real_kind(a.flat[0])]  # the dtype's kind
        if None in kinds:
            raise ValueError("entry at ({},{}) is not a real number".format(*divmod(kinds.index(None), n)))
        all_exact = all(kinds)
        if not all_exact:
            floats = a.astype(float)
            bad = np.argwhere(~np.isfinite(floats))
            if len(bad):
                raise ValueError("non-finite entry at ({},{})".format(*bad[0]))
        exact = exact or all_exact
        if not exact:
            a = floats
        elif a.dtype == object:  # first: a numpy integer compares with a Fraction in fixed width
            a = _fractions(a)
        _check_entries(a)  # a numeric array before its Fractions are made, which is exact and cheaper
        self.n, self._array, self._integer_form = n, None, None
        if a.dtype.kind in "iu":  # exact, over 1: no Fraction is made
            self._integer_form = _read_only(a.astype(object)), 1
            return
        if exact and a.dtype != object:
            a = _fractions(a)
        self._array = _read_only(a)
        if exact:
            numerators, den = int_numerators(a.flat)
            self._integer_form = _read_only(np.array(numerators, dtype=object).reshape(n, n)), den

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            numerators, den = self._integer_form
            rows, cols = upper_pairs(self.n)
            a = np.full((self.n, self.n), Fraction(0), dtype=object)
            a[rows, cols] = a[cols, rows] = _over(numerators[rows, cols], den)
            self._array = _read_only(a)
        return self._array

    def __getitem__(self, ij) -> Num:
        if self._array is None:
            return Fraction(self._integer_form[0].item(ij), self._integer_form[1])
        return self._array.item(ij)

    @property
    def rows(self) -> tuple:
        return tuple(map(tuple, self.array.tolist()))

    @property
    def is_exact(self) -> bool:
        return self._integer_form is not None

    @property
    def integer_form(self) -> tuple:
        """(numerators, den) of an exact map: a read-only object array of
        Python ints with numerators / den == d.array entry by entry, den the
        lcm of the entries' denominators."""
        if self._integer_form is None:
            raise ValueError("a float map has no integer form")
        return self._integer_form

    @classmethod
    def from_integer_form(cls, numerators: np.ndarray, den: int) -> "DissimilarityMap":
        """The exact map numerators / den (a square integer array, den > 0),
        checked as __init__ checks entries; gcd(den, every numerator) is
        divided out, leaving den the lcm of the entries' denominators. No
        Fraction is made."""
        n = len(numerators)
        if n < 1:
            raise ValueError("dissimilarity map needs at least one taxon")
        _check_entries(numerators, den)
        g = math.gcd(den, int(np.gcd.reduce(numerators.ravel())))
        d = object.__new__(cls)
        d._array, d.n, d._integer_form = None, n, (_read_only((numerators // g).astype(object)), den // g)
        return d

    def to_exact(self) -> "DissimilarityMap":
        return self if self.is_exact else DissimilarityMap(self.array, exact=True)

    def __eq__(self, other):
        if self.is_exact and isinstance(other, DissimilarityMap) and other.is_exact:
            (a, p), (b, q) = self._integer_form, other._integer_form  # canonical: p, q are lcms of denominators
            return p == q and np.array_equal(a, b)
        return isinstance(other, DissimilarityMap) and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self[0, self.n - 1]))  # equal exact and float maps hash alike

    def __repr__(self):
        return f"DissimilarityMap(n={self.n})"


def _check_entries(a: np.ndarray, den: int = 1) -> None:
    """Raise on the first fault a row-major scan of the upper triangle of the
    map a / den meets: at row i the diagonal entry, then for each j > i
    symmetry before sign; then on entries above float max / n^2, whose sums
    would overflow."""
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
    limit = float(np.finfo(float).max) / (n * n)
    bound = int(limit) * den  # exact: a float this large is a whole number
    if upper.max(initial=0) > bound:
        k = int(np.argmax(upper > bound))
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
        _check_taxa(block, n, "taxon out of range")
        if 0 not in block:
            block = frozenset(range(n)) - block
        return cls(n, block)

    @classmethod
    def _unchecked(cls, n: int, block: frozenset) -> "Split":
        """Split(n, block) without the checks, for a block the library built."""
        split = object.__new__(cls)
        split.__dict__.update(n=n, block=block)
        return split

    @property
    def other(self) -> frozenset:
        return frozenset(range(self.n)) - self.block

    def separates(self, i: int, j: int) -> bool:
        return (i in self.block) != (j in self.block)

    def __repr__(self):
        a = ",".join(map(str, sorted(self.block)))
        b = ",".join(map(str, sorted(self.other)))
        return f"Split({a}|{b})"


def _packed_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a 2-D bool array, its columns the taxa, as uint64 words with
    taxon 0 the top bit of word 0: two rows compare as their word sequences do."""
    k, n = bits.shape
    packed = np.zeros((k, -(-n // 64) * 8), np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(bits, axis=1)
    return packed.view(">u8").astype(np.uint64)


def split_order(sizes: np.ndarray, others: np.ndarray) -> np.ndarray:
    """The one split order, by block size and then by the block's sorted taxa,
    as indices into the splits, given each block's size and its off-block
    side as _packed_words rows. Of two blocks of one size, the one whose sorted
    taxa come first holds the first taxon in which they differ, so its
    off-block side is the smaller bit string: one np.lexsort, size first."""
    return np.lexsort((*others.T[::-1], sizes))


def sorted_splits(splits) -> list:
    """The splits in the one split order (split_order)."""
    splits = list(splits)
    sides = sides_of(splits, max((s.n for s in splits), default=0))
    return [splits[c] for c in split_order(sides.sum(axis=0), _packed_words(~sides.T)).tolist()]


def sides_of(splits: Iterable[Split], n: int) -> np.ndarray:
    """The side matrix of the splits: an n x k bool array whose column c
    marks split c's stored block, the side holding taxon 0."""
    blocks = [s.block for s in splits]
    sizes = list(map(len, blocks))
    sides = np.zeros((n, len(blocks)), dtype=bool)
    taxa = np.fromiter(chain.from_iterable(blocks), np.intp, sum(sizes))
    sides[taxa, np.repeat(np.arange(len(blocks)), sizes)] = True
    return sides


CHUNK_CELLS = 1 << 20  # rows x taxa of a chunk's member mask


def _chunks(order, n: int, part) -> Iterator[tuple]:
    """(values, bounds, taxa) for the rows of order, max(1, CHUNK_CELLS // n)
    at a time: part(rows) gives their values and their members' bool mask,
    a column per taxon; row k's members are taxa[bounds[k]:bounds[k + 1]]."""
    step = max(1, CHUNK_CELLS // n)
    for a in range(0, len(order), step):
        values, mask = part(order[a : a + step])
        yield values, [0, *np.cumsum(np.count_nonzero(mask, axis=1)).tolist()], np.flatnonzero(mask) % n


def split_masks(splits: Iterable[Split], n: int) -> Iterator[np.ndarray]:
    """For each split, in input order, the bool mask of the taxon pairs it
    separates: the pair x split incidence delta_S(i, j), one column at a time.
    Pairs i < j follow np.triu_indices(n, 1) order, (0,1), (0,2), ...,
    (0,n-1), (1,2), ..., which is the order of the DesignMatrix rows."""
    rows, cols = upper_pairs(n)
    for side in sides_of(splits, n).T:
        yield side[rows] != side[cols]


def _masked_sums(splits: Iterable[Split], addends: Iterable, n: int, dtype: type) -> np.ndarray:
    out = np.zeros(n * (n - 1) // 2, dtype=dtype)
    for mask, w in zip(split_masks(splits, n), addends):
        out[mask] += w
    return out


class WeightedSplitSystem:
    """The splits of n taxa that carry positive weight, with their weights.

    Every weight given is validated (finite, nonnegative, its split over n
    taxa); zero weights are then dropped, so len, iteration, items, splits
    and `in` cover the positive splits only, and weight(s) is 0 for a split
    of n taxa outside the system. Duplicates collapse by canonical form.
    row_chunks() and rows() read the splits in sorted_splits order, sorted
    once and kept."""

    __slots__ = ("n", "_weights", "_exact", "_order")

    def __init__(self, n: int, weights: Mapping[Split, Num]):
        for s, w in weights.items():
            if s.n != n:
                raise ValueError("split taxon count mismatch")
            if _real_kind(w) is None:
                raise ValueError(f"weight for {s} is not a real number: {w!r}")
            if not (is_exact_number(w) or math.isfinite(w)):
                raise ValueError(f"non-finite weight for {s}")
            if w < 0:
                raise ValueError(f"negative weight for {s}")
        self.n = n
        self._weights = {s: w for s, w in weights.items() if w > 0}
        self._exact = all(map(is_exact_number, weights.values()))
        self._order = None

    def _split_map(self) -> dict:
        return self._weights

    @property
    def splits(self) -> frozenset:
        return frozenset(self._split_map())

    def weight(self, s: Split) -> Num:
        if s.n != self.n:
            raise ValueError("split taxon count mismatch")
        return self._split_map().get(s, 0)

    def items(self):
        return self._split_map().items()

    def row_chunks(self) -> Iterator[tuple]:
        """The rows in sorted_splits order, sorted on the first call and kept,
        as _chunks of (weights, bounds, taxa): a row's members are the sorted
        taxa off its block, the side without taxon 0."""
        if self._order is None:
            self._order = sorted_splits(self._weights)
        weights, n = self._weights, self.n
        return _chunks(self._order, n, lambda splits: ([weights[s] for s in splits], ~sides_of(splits, n).T))

    def rows(self) -> Iterator[tuple]:
        """(weight, members) for each row of row_chunks(), members a list."""
        for values, bounds, taxa in self.row_chunks():
            taxa = taxa.tolist()
            yield from zip(values, (taxa[a:b] for a, b in zip(bounds, bounds[1:])))

    def __len__(self):
        return len(self._weights)

    def __iter__(self):
        return iter(self._split_map())

    def __contains__(self, s):
        return s in self._split_map()

    @property
    def is_exact(self) -> bool:
        """Whether every weight given was exact, the dropped zeros included,
        so an all-zero float fit stays a float system."""
        return self._exact

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, splits={len(self)})"


def metric_from_splits(sys: WeightedSplitSystem) -> DissimilarityMap:
    """d[i][j] = sum of weights of the splits separating i from j; Fractions
    when every weight is exact, floats otherwise.

    A CircularSplits makes no Split: arc_pair_sums adds its weights, or its
    numerators over den, as int64 while they total below 2^62, so that a
    pair sum's two terms fit, and as Python ints above. Its float sums are
    within (k + 8n + 8) 2^-53 sum(w) of the split-by-split ones, k splits.
    A WeightedSplitSystem of floats adds each weight as a float over its
    split's pair mask, in the mapping's order: the sums a loop over the
    pairs would give, bit for bit. An exact one sums its numerators N into
    the map's integer form: with X the side matrix and B = X diag(N) X^T,
    the pair sum is B[i, i] + B[j, j] - 2 B[i, j], formed by BLAS, exact
    while 2 sum(N) <= 2^53, and above that over each split's pair mask as
    Python ints."""
    n, den = sys.n, None
    if isinstance(sys, CircularSplits):
        x, den = sys._arc_weights, sys._den
        if den is not None:
            x = x.astype(np.int64 if sum(x.tolist()) < 2**62 else object)
        sums = arc_pair_sums(sys.ordering, sys.starts, sys.ends, x)
    elif not sys.is_exact:
        sums = _masked_sums(sys, [float(w) for _, w in sys.items()], n, float)
    else:
        weights = dict(sys.items())
        numerators, den = int_numerators(map(as_fraction, weights.values()))
        if 2 * sum(numerators) <= 2 ** 53:  # the weights are positive
            sides = sides_of(weights, n).astype(float)
            both = (sides * np.array(numerators, dtype=float)) @ sides.T
            held = both.diagonal()
            return DissimilarityMap.from_integer_form((held[:, None] + held - 2 * both).astype(np.int64), den)
        sums = _masked_sums(weights, numerators, n, object)
    rows, cols = upper_pairs(n)
    full = np.zeros((n, n), dtype=sums.dtype)
    full[rows, cols] = full[cols, rows] = sums
    return DissimilarityMap(full) if den is None else DissimilarityMap.from_integer_form(full, den)


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
        _check_taxa(order, n, "not a permutation of 0..n-1")
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
    upper_pairs(n) give each of the n(n-1)/2 circular splits once. Each is
    the Split of its side holding taxon 0, made unchecked."""
    order, zero, n = ordering.order, ordering.order.index(0), ordering.n
    return [Split._unchecked(n, frozenset(order[s:e] if s <= zero < e else order[:s] + order[e:]))
            for s, e in zip(starts.tolist(), ends.tolist())]


def split_arcs(ordering: CircularOrdering, splits: Iterable[Split]) -> tuple:
    """(starts, ends) of splits circular for the ordering, for arc_splits:
    each arc order[s:e] is the side without the taxon at position n-1. A
    split that is not circular for the ordering raises ValueError."""
    sides = sides_of(splits, ordering.n)[list(ordering.order)]  # a row per position
    sides ^= sides[-1]
    starts, positions = sides.argmax(axis=0), np.arange(ordering.n)[:, None]
    ends = starts + sides.sum(axis=0)
    if (((starts <= positions) & (positions < ends)) != sides).any():
        raise ValueError("a split is not circular for the ordering")
    return starts, ends


def arc_positions(n: int, starts, ends) -> tuple:
    """starts and ends as intp arrays, checked to be the positions of arcs of
    an n-cycle: 1-D integer arrays of one length, 0 <= s < e <= n-1."""
    starts, ends = np.asarray(starts), np.asarray(ends)
    if starts.ndim != 1 or starts.shape != ends.shape:
        raise ValueError("starts and ends must be 1-D and of one length")
    whole = starts.size == 0 or {starts.dtype.kind, ends.dtype.kind} <= set("iu")  # no bool, float or object
    if not (whole and ((0 <= starts) & (starts < ends) & (ends < n)).all()):
        raise ValueError("arcs need integer positions 0 <= start < end <= n-1")
    return starts.astype(np.intp), ends.astype(np.intp)


def pair_positions(ordering: CircularOrdering) -> tuple:
    """The lower and the higher position of the taxa of each pair i < j, in
    upper_pairs order."""
    rows, cols = upper_pairs(ordering.n)
    position = np.argsort(ordering.order)
    p, q = position[rows], position[cols]
    return np.minimum(p, q), np.maximum(p, q)


def arc_pair_sums(ordering: CircularOrdering, starts: np.ndarray, ends: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each pair i < j, in upper_pairs order, the sum of x over the arcs
    order[s:e] that hold exactly one of i and j, in x's dtype. Q[a, b], the
    weight of the arcs s <= a, e >= b, is a cumsum each way over an n x
    (n+1) grid of the arcs; positions p < q are held each by Q[p, p+1] and
    Q[q, q+1], both by Q[p, q+1], and the pair sums the arcs holding one."""
    n = ordering.n
    grid = np.zeros(n * (n + 1), dtype=x.dtype)
    np.add.at(grid, starts * (n + 1) + ends, x)
    held = grid.reshape(n, n + 1)[:, ::-1].cumsum(axis=1)[:, ::-1].cumsum(axis=0)  # Q
    lo, hi = pair_positions(ordering)
    return held.diagonal(1)[lo] + held.diagonal(1)[hi] - 2 * held[lo, hi + 1]


class CircularSplits(WeightedSplitSystem):
    """The circular splits of an ordering that carry positive weight, held as
    its arcs: split c is the one of the taxa order[starts[c]:ends[c]], for
    distinct arcs 0 <= s < e <= n-1 (an arc never holds position n-1, so a
    split has one arc, and a repeated arc is refused). Weights are float or
    integer, held as float64, or, with den given, the integer numerators of
    exact weights over den: an integer array, or Python ints in an object
    array, over a positive int; zero weights are dropped.

    A WeightedSplitSystem whose Splits are made only when a method other
    than len, row_chunks, rows and is_exact, or a function other than
    metric_from_splits, asks for them. row_chunks()
    reads the arcs in split_order, computed on the first call and kept, and
    takes a chunk's members from one mask: the taxa in each arc, flipped
    for the arcs that hold taxon 0."""

    __slots__ = ("ordering", "starts", "ends", "_arc_weights", "_den")

    def __init__(self, ordering: CircularOrdering, starts, ends, weights, den: Optional[int] = None):
        n, weights = ordering.n, np.asarray(weights)
        starts, ends = arc_positions(n, starts, ends)
        if weights.shape != starts.shape:
            raise ValueError("one weight per arc")
        taken = np.zeros((n, n), dtype=bool)
        taken[starts, ends] = True
        if taken.sum() != starts.size:
            raise ValueError("an arc is given twice")
        whole = weights.dtype.kind in "iu" or weights.dtype == object and all(type(v) is int for v in weights.tolist())
        if den is None and weights.dtype.kind in "fiu":
            weights = weights.astype(float, copy=False)
        elif not (whole and type(den) is int and den > 0):  # bool, object and str weights too
            raise ValueError("weights need a float or int dtype; exact ones integer numerators over a positive int den")
        if not ((den is not None or np.isfinite(weights).all()) and (weights >= 0).all()):
            raise ValueError("split weights must be finite and nonnegative")
        keep = np.asarray(weights > 0, dtype=bool)
        self.n, self.ordering, self.starts, self.ends = n, ordering, starts[keep], ends[keep]
        self._arc_weights, self._den, self._exact = weights[keep], den, den is not None
        self._weights = self._order = None

    def _values(self) -> list:
        values = self._arc_weights.tolist()
        return values if self._den is None else [Fraction(v, self._den) for v in values]

    def _split_map(self) -> dict:
        if self._weights is None:
            self._weights = dict(zip(arc_splits(self.ordering, self.starts, self.ends), self._values()))
        return self._weights

    def __len__(self):
        return self.starts.size

    def row_chunks(self) -> Iterator[tuple]:
        position = np.argsort(self.ordering.order)  # of each taxon
        held = (self.starts <= position[0]) & (position[0] < self.ends)  # the arcs holding taxon 0
        if self._order is None:
            sizes = np.where(held, self.ends - self.starts, self.n - self.ends + self.starts)
            self._order = split_order(sizes, _arc_sides(self.ordering, self.starts, self.ends))
        values, s, e, held = self._values(), self.starts[:, None], self.ends[:, None], held[:, None]
        return _chunks(self._order, self.n, lambda c: (
            [values[k] for k in c.tolist()], ((s[c] <= position) & (position < e[c])) ^ held[c]))


def _arc_sides(ordering: CircularOrdering, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The off-block side of each arc's split, the side without taxon 0, as
    _packed_words rows: the arc order[s:e] is the XOR of the prefixes
    order[:e] and order[:s], and complemented when it holds taxon 0."""
    n = ordering.n
    position = np.argsort(ordering.order)
    prefixes = _packed_words(np.arange(n + 1)[:, None] > position)
    zero = position[0]
    out = prefixes[ends] ^ prefixes[starts]
    out[(starts <= zero) & (zero < ends)] ^= prefixes[n]
    return out


def corner_numerators(d: DissimilarityMap, ordering: CircularOrdering) -> tuple:
    """Twice the lambda of the arc of positions a..b (mod n) at entry (a, b)
    of an n x n array, with D the map in the ordering's positions,

        D[a-1, b] + D[a, b+1] - D[a-1, b+1] - D[a, b]

    summed in that order, as (values, den): on an exact map Python ints over
    d.integer_form's den, on a float map floats and None."""
    if ordering.n != d.n:
        raise ValueError("taxon count mismatch")
    values, den = d.integer_form if d.is_exact else (d.array, None)
    x = list(ordering.order)
    here = values[x][:, x]
    before = np.roll(here, 1, axis=0)  # before[a, b] = D[a-1, b]
    return before + np.roll(here, -1, axis=1) - np.roll(before, -1, axis=1) - here, den


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
        _check_taxa(seen, n, "blocks must partition 0..n-1")
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
