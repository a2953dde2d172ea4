"""Agglomerative construction of circular orderings with pluggable weighting
schemes. Neighbor-joining is the same agglomeration under a tree weighting,
so it has no engine of its own.

The engine repeatedly (1) picks the block pair minimizing the Q criterion,
(2) picks the endpoint pair minimizing the Q-hat criterion, (3) joins the two
paths with an edge, (4) adjusts the node weights according to the scheme, and
(5) records the split induced by the merged block. Block-level distances are
the mu-weighted sums over the original matrix:

    delta(C_r, C_s) = sum_{i in C_r, j in C_s} mu(i) mu(j) d(i, j)
    delta(x, C_r)   = sum_{i in C_r} mu(i) d(x, i)

Q reads only delta(C_r, C_s), which each BlockState holds in one numpy
table, bb (m x m); delta(x, C_r) is summed on demand over the original
matrix when Q-hat needs it, at the far ends of a candidate join. One code
path, with one formula for Q and one for Q-hat, serves both arithmetics: a
float map is an exact one with L = D = 1 on float64. An exact map's arrays
hold integers: with L the map's common denominator (d.integer_form) and D a
common denominator of the node weights, the weights are held times D, bb
holds its values times L*D^2 and delta(x, C_r) comes out times L*D, so Q,
Q-hat's key and the tie rule compare integers and no Fraction is formed per
table entry. D only grows: when new weights bring in a denominator D does
not divide (1/2 and 1/4 under the dyadic schemes, alpha's under
TreeWeighting), the weights are scaled up by the factor, f, and bb by f^2.

The lane rule: while m * W^2 * sum(N) < 2^63, with N the map's numerators
and W the largest |weight numerator| or growth factor of D (each of W and
sum(N) taken as at least 1), these integers are int64 on the float
kernels. Every value formed is then an integer of at most that size, so no
sum overflows. A reweight that would break the bound first converts the
arrays to object arrays of Python ints, for good. A value leaves the engine through one
division helper, which rounds on a float map and makes a Fraction on an
exact one: the accessors, the winning Q-hat's terms, the records and mu.

bb is the top-left m x m of one buffer, built in one pass and never
rebuilt. A merge closes the gap at hi by moving the later rows up and the
later columns left, which keeps the block order the tie rule reads. Every
scheme changes weights inside the merged block alone, so its new weights
are the one value a step passes on: adjust_weights returns them, the
_reweight kernel applies them and sums the merged block's row, the one row
a step changes, from the original matrix in O(n |block|); the step record
keeps them. A step costs O(n^2), a run O(n^3), and float runs cannot
accumulate drift.

Ownership: the step API (merge_blocks, with_mu) copies a state once and
changes the copy, so every state it hands out is a snapshot, its merged
row summed at once; with_mu checks the weights first. run_neighbor_net
owns the one state it drives and changes it in place with the same
kernels, so its steps copy nothing and sum the merged row once. Q reads the
table through flat indices kept per buffer size; the joins are ranked from
their shared terms, read once per step, and q_hat_criterion runs for the
winner alone; the splits are built after the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    PartialCircularOrdering,
    Split,
    as_fraction,
    is_exact_number,
    join_paths,
    merged_at,
    path_ends,
)

REL_TIE_TOL = 1e-12


def _arithmetic(d: DissimilarityMap) -> tuple:
    """The type of every weight and criterion value, and the tie unit:
    (Fraction, 0) for an exact map, (float, REL_TIE_TOL * max|d|) otherwise."""
    return (Fraction, 0) if d.is_exact else (float, REL_TIE_TOL * d.array.max().item())


def _exact_weights(mu: dict) -> dict:
    """The weights of an exact map's state as Fractions; a weight that is
    not exact is refused."""
    for t, v in mu.items():
        if not is_exact_number(v):
            raise ValueError(f"taxon {t}: weight {v!r} is not exact, but the map is")
    return {t: as_fraction(v) for t, v in mu.items()}


def _other_end(path: tuple, x: int) -> int:
    """The end of path that is not x; x itself on a one-taxon path."""
    return path[0] if path[-1] == x else path[-1]


@dataclass(frozen=True)
class BalancedTSP:
    """Endpoints of every merged path get weight 1/2, interior nodes 0."""


@dataclass(frozen=True)
class TreeWeighting:
    """Scale the first merged block by alpha and the second by 1-alpha.

    The default alpha = 1/2 is exact in both arithmetics; other values in
    [0, 1] are exposed for BIONJ-style experimentation.
    """

    alpha: Union[float, Fraction] = Fraction(1, 2)

    def __post_init__(self):
        if isinstance(self.alpha, str) or not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be a number in [0, 1]")


@dataclass(frozen=True)
class OriginalBM:
    """The historical scheme: quarter the far part and the incoming block,
    halve the part next to the junction. Neither a TSP nor a tree weighting,
    and block weights no longer sum to 1."""


WeightingScheme = Union[BalancedTSP, TreeWeighting, OriginalBM]
_TSP_WEIGHTS = {float: (0.0, 0.5), Fraction: (Fraction(0), Fraction(1, 2))}  # interior, ends


@dataclass(frozen=True)
class MergeInfo:
    """What the last merge did; consumed by adjust_weights. The joined
    blocks' taxa, r's then s's, are the merged state's parts[merged_index]."""

    merged_index: int
    parts_r: Optional[tuple]
    parts_s: Optional[tuple]
    i: int
    j: int


class BlockState:
    """Snapshot of the agglomeration: paths, weights, distances.

    _bb is the block table, the top-left m x m view of the buffer _buf;
    _w holds each taxon's table weight and _block its block index, and _den
    is (L, D). On an exact map _w holds the weights as ints over D and _bb
    ints over L*D^2: int64 while _size, the sum of the map's numerators, is
    set, with _top a bound on every |weight numerator|, Python ints once it
    is None (see the module docstring). On a float map they hold mu and the distances, and _den is
    (1, 1). mu and every accessor give the state's scalar: Fraction or float.

    A state the step API hands out never changes: merge_blocks and with_mu
    copy its arrays once and run their kernel, _merge or _reweight, on the
    copy. The one state run_neighbor_net drives is its own (_in_place), and
    the same kernels change that state's arrays in place. A merge on a
    snapshot, and every reweight, refreshes the one row a step changes, at
    last_merge.merged_index. The values read off the table (row sums, the
    taxa of nonzero weight, the shared Q-hat terms of one join) are cached
    until the next transition.
    """

    __slots__ = (
        "d", "blocks", "mu", "parts", "last_merge", "scalar",
        "_unit", "_dm", "_den", "_size", "_top", "_w", "_block", "_buf", "_bb", "_in_place",
        "_scratch", "_rowsum", "_total", "_nonzero", "_terms",
    )

    def __init__(self, d, blocks, mu, parts, last_merge=None):
        self.d = d
        self.scalar, self._unit = _arithmetic(d)
        self.blocks = tuple(tuple(b) for b in blocks)
        self.mu = dict(mu)
        self.parts = tuple(parts)
        self.last_merge = last_merge
        if self.scalar is Fraction:
            self.mu = _exact_weights(self.mu)
            self._dm, map_den = d.integer_form
            self._den = (map_den, 1)
        else:
            self._dm, self._den = d.array, (1, 1)
        self._size = self._top = None
        self._w = np.zeros(d.n, dtype=self._dm.dtype)
        self._take_weights(self.mu)
        if self.scalar is Fraction and self._fits(size := int(self._dm.sum()), top := np.abs(self._w).max()):
            self._size, self._top, self._dm, self._w = size, top, self._dm.astype(np.int64), self._w.astype(np.int64)
        self._block = np.empty(d.n, dtype=np.intp)
        for t, b in enumerate(self.blocks):
            self._block[list(b)] = t
        self._buf = self._bb = self._table()
        self._in_place, self._scratch = False, None
        self._stale()

    def _table(self) -> np.ndarray:
        """The block table in one pass over the original matrix: the entries
        mu(i) d(i, j) mu(j), summed per block over rows, then over columns."""
        taxa = [k for b in self.blocks for k in b]
        w = self._w[taxa]
        bb = self._dm[np.ix_(taxa, taxa)]
        bb *= w[:, None]
        bb *= w
        starts = np.cumsum([0, *(len(b) for b in self.blocks[:-1])])
        bb = np.add.reduceat(np.add.reduceat(bb, starts, axis=0), starts, axis=1)
        np.copyto(bb, bb.T.copy(), where=np.tri(len(bb), k=-1, dtype=bool))  # Q reads (s, r) as (r, s)
        np.fill_diagonal(bb, 0)
        return bb

    def _take_weights(self, changed: dict) -> int:
        """Make _w the table weights of mu after the taxa in changed took the
        new weights it maps them to; returns the factor by which D grew.
        Weights that would break the lane rule promote the state first; the
        largest weight outside changed is scanned for only when _top does
        not pass the rule."""
        taxa, new = np.fromiter(changed, np.intp, len(changed)), list(changed.values())
        f = 1
        if self.scalar is Fraction:
            map_den, den = self._den
            grown = math.lcm(den, *{v.denominator for v in new})
            f = grown // den
            new = [v.numerator * (grown // v.denominator) for v in new]
            self._den = (map_den, grown)
            if self._size is not None:
                top = max(self._top * f, f, *map(abs, new))
                if not self._fits(self._size, top):
                    self._w[taxa] = 0
                    top = max(int(np.abs(self._w).max()) * f, f, *map(abs, new))
                    if not self._fits(self._size, top):
                        self._promote()
                self._top = top
        if f > 1:
            self._w *= f
        self._w[taxa] = new
        return f

    def _fits(self, size: int, top) -> bool:
        """The lane rule, m * W^2 * sum(N) < 2^63, for a map whose
        numerators sum to size and weight numerators of at most top."""
        return len(self.blocks) * max(top, 1) ** 2 * max(size, 1) < 2**63

    def _promote(self):
        """Leave the int64 lane for object arrays of Python ints, for good."""
        self._dm, self._size = self.d.integer_form[0], None
        self._w = self._w.astype(object)
        self._buf = self._bb = self._bb.astype(object)

    def _stale(self):
        """Drop every value cached from the table or the weights."""
        self._rowsum = self._nonzero = self._terms = None

    def _copy(self) -> "BlockState":
        """This state on arrays of its own, for one transition to change."""
        new = object.__new__(BlockState)
        new.d, new.scalar, new._unit, new._dm, new._den = self.d, self.scalar, self._unit, self._dm, self._den
        new._size, new._top = self._size, self._top
        new.blocks, new.parts, new.last_merge = self.blocks, self.parts, self.last_merge
        new.mu, new._w, new._block = dict(self.mu), self._w.copy(), self._block.copy()
        new._buf = new._bb = self._bb.copy()
        new._in_place, new._scratch = False, None
        new._stale()
        return new

    def _target(self) -> "BlockState":
        """The state a transition changes: this one if the run owns it,
        otherwise a copy."""
        return self if self._in_place else self._copy()

    def _check_pair(self, r: int, s: int):
        m = len(self.blocks)
        if not (0 <= r < m and 0 <= s < m):
            raise ValueError(f"block indices must lie in 0..{m - 1}")
        if r == s:
            raise ValueError("r and s must differ")

    def _merge(self, r: int, s: int, i: int, j: int) -> "BlockState":
        """Join block r's path at endpoint i to block s's at j, in place. The
        later rows and columns move up and left over row and column hi, which
        keeps the block order; row lo, the union's, is summed by _refresh:
        here on a snapshot, in the run by the _reweight that follows."""
        blocks, m = self.blocks, len(self.blocks)
        lo, hi = min(r, s), max(r, s)
        joined = join_paths(blocks[r], blocks[s], i, j)
        self.last_merge = MergeInfo(lo, self.parts[r], self.parts[s], i, j)
        self.parts = merged_at(self.parts, r, s, (frozenset(blocks[r]), frozenset(blocks[s])))
        self.blocks = merged_at(blocks, r, s, joined)
        bb = self._bb
        bb[hi:m - 1] = bb[hi + 1:]
        bb[:, hi:m - 1] = bb[:, hi + 1:]
        self._bb = self._buf[:m - 1, :m - 1]
        block = self._block
        block[list(blocks[hi])] = lo
        block -= block > hi
        self._stale()
        if not self._in_place:
            self._refresh(lo)
        return self

    def _reweight(self, mu) -> "BlockState":
        """Give the taxa in mu, all in the last merged block, their new
        weights, in place: bb is scaled if D grew, and that block's row
        recomputed."""
        self.mu.update(mu)
        if mu and (f := self._take_weights(mu)) > 1:
            self._bb *= f * f
        self._stale()
        self._refresh(self.last_merge.merged_index)
        return self

    def _refresh(self, t: int):
        """Recompute delta(C_t, .) from the original matrix: v = delta(., C_t)
        over every taxon, then the weighted sum of v per block; zero weights
        are skipped."""
        w = self._w
        idx = [k for k in self.blocks[t] if w.item(k)]
        v = w.take(idx) @ self._dm.take(idx, 0)
        taxa, weights, owner = self._weighted()
        row = self._bb[t]
        row[:] = 0
        np.add.at(row, owner, weights * v[taxa])
        row[t] = 0
        self._bb[:, t] = row

    def _weighted(self) -> tuple:
        """The taxa of nonzero weight, in increasing order, with their table
        weights and their blocks."""
        if self._nonzero is None:
            taxa = np.flatnonzero(self._w)
            self._nonzero = (taxa, self._w[taxa], self._block[taxa])
        return self._nonzero

    def _join_terms(self, r: int, s: int) -> tuple:
        """What every Q-hat of joining blocks r and s shares, in table units
        (Python ints over L*D^2, and L*D for delta, on an exact map): the
        distance across the join, the total pair sum P, and delta(x, far)
        for each endpoint x of the two blocks, where far holds the taxa of
        nonzero weight outside blocks r and s."""
        if self._terms is None or self._terms[0] != (r, s):
            raw, rowsum, p_total = self._raw, self._row_sums(), self._total  # _row_sums sets _total
            across = p_total - raw(rowsum.item(r)) - raw(rowsum.item(s)) + raw(self._bb.item(r, s))
            taxa, weights, owner = self._weighted()
            far = (owner != r) & (owner != s)
            ends = [*self.endpoints(r), *self.endpoints(s)]
            sums = (self._dm.take(ends, 0).take(taxa[far], 1) @ weights[far]).tolist()
            self._terms = ((r, s), across, p_total, dict(zip(ends, map(raw, sums))))
        return self._terms[1:]

    def _pairs(self) -> tuple:
        """The block pairs r < s of an m-block table, read as the entries
        (s, r) of its lower triangle in row-major order, so that the pairs
        of every smaller table come first: each pair's flat index into _buf,
        its r and its s. Built once per buffer size, since a promotion
        replaces _buf by the m x m table."""
        size = len(self._buf)
        if self._scratch is None or self._scratch[0] != size:
            s, r = np.tril_indices(size, -1)
            self._scratch = (size, s * size + r, r, s)
        _, flat, r, s = self._scratch
        k = len(self.blocks) * (len(self.blocks) - 1) // 2
        return flat[:k], r[:k], s[:k]

    def _raw(self, x) -> Num:
        """A table value in table units as a Python number: an int on an
        exact map."""
        return int(x) if self.scalar is Fraction else float(x)

    def _div(self, num: Num, den: int) -> Num:
        """num / den as the state's scalar: a Fraction on an exact map."""
        return Fraction(num, den) if self.scalar is Fraction else num / den

    def _number(self, x, power: int) -> Num:
        """A table value as the Python number it stands for, x over
        L*D**power."""
        map_den, den = self._den
        return self._div(self._raw(x), map_den * den**power)

    @classmethod
    def initial(cls, d: DissimilarityMap) -> "BlockState":
        one = _arithmetic(d)[0](1)
        return cls(d, [(t,) for t in range(d.n)], dict.fromkeys(range(d.n), one), [None] * d.n)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def tie_tol(self) -> Num:
        """Criterion values this close to the minimum tie: REL_TIE_TOL * m *
        max|d| for a float map, 0 for an exact one. Q sums O(m) block
        distances, each at most max|d| while block weights sum to one, so its
        rounding error grows with m * max|d|; the tolerance has no absolute
        floor, so scaling the map scales it too."""
        return self._unit * self.m

    def endpoints(self, r: int) -> tuple:
        return path_ends(self.blocks[r])

    def _row_sums(self) -> np.ndarray:
        """The row sums of bb, in its units; _total becomes P in the same
        units."""
        if self._rowsum is None:
            self._rowsum = self._bb.sum(axis=1)
            total = self._raw(self._rowsum.sum())
            self._total = total // 2 if self.scalar is Fraction else total / 2  # even: bb is symmetric
        return self._rowsum

    def block_distance(self, r: int, s: int) -> Num:
        """delta(C_r, C_s) per the weighted double sum."""
        return self._number(self._bb.item(r, s), 2)

    def taxon_block_distance(self, x: int, t: int) -> Num:
        """delta(x, C_t) per the weighted single sum, summed on demand."""
        return self._number((self._w * (self._block == t)) @ self._dm[x], 1)

    def row_sum(self, r: int) -> Num:
        return self._number(self._row_sums().item(r), 2)

    def total_pair_sum(self) -> Num:
        """Sum of delta(C_t, C_u) over unordered block pairs."""
        self._row_sums()
        return self._number(self._total, 2)

    def with_mu(self, mu) -> "BlockState":
        """This state with new weights for the taxa in mu, which must lie in
        the block the last merge made, as adjust_weights returns them. Every
        taxon given counts as changed; bb refreshes that block alone."""
        if self.last_merge is None:
            raise ValueError("no merge has been performed on this state")
        if not mu.keys() <= set(self.blocks[self.last_merge.merged_index]):
            raise ValueError("new weights must lie in the last merged block")
        if self.scalar is Fraction:
            mu = _exact_weights(mu)
        return self._target()._reweight(mu)

    def to_pco(self):
        return PartialCircularOrdering(self.blocks)


def q_criterion(state: BlockState, r: int, s: int) -> Num:
    """(m-2) delta(C_r,C_s) - sum_t delta(C_r,C_t) - sum_t delta(C_t,C_s)."""
    state._check_pair(r, s)
    m = state.m
    return (m - 2) * state.block_distance(r, s) - state.row_sum(r) - state.row_sum(s)


def q_hat_criterion(state: BlockState, r: int, s: int, i: int, j: int) -> Num:
    """Endpoint selection criterion for joining blocks r and s at taxa i, j:
    the change in balanced length caused by this specific join, in closed form.

    The merged path's far ends become the new half-weight endpoints; the other
    blocks keep their current weights. For a balanced TSP weighting this equals
    the enumerated quantity l(d, C') - l(d, C) exactly, so minimizing it picks
    the join of minimal balanced length among the endpoint candidates.

    One formula serves both arithmetics: from _q_hat_scores' key and
    _join_terms' across and total pair sum P in table units, the value is
    (D key + 2 across) / (2 L D^2 (m-2)) - P / (L D^2 (m-1)); at m = 2,
    (D^2 key - 2 bb[r, s]) / (2 L D^2). L = D = 1 on a float map, whose
    division rounds where an exact map's forms a Fraction; dividing before
    subtracting keeps its terms near m * max|d|, finite at the map's bound.
    """
    state._check_pair(r, s)
    path_r, path_s = state.blocks[r], state.blocks[s]
    if i not in (path_r[0], path_r[-1]) or j not in (path_s[0], path_s[-1]):
        raise ValueError("i and j must be endpoints of the selected blocks")
    key = _q_hat_scores(state, r, s, [(i, j)])[0]
    m = len(state.blocks)
    map_den, den = state._den
    scale = map_den * den * den
    if m == 2:
        return state._div(den * den * key - 2 * state._raw(state._bb.item(r, s)), 2 * scale)
    across, p_total, _ = state._join_terms(r, s)
    return state._div(den * key + 2 * across, 2 * scale * (m - 2)) - state._div(p_total, scale * (m - 1))


def _q_hat_scores(state: BlockState, r: int, s: int, joins: list) -> list:
    """The key of each join (i, j) of blocks r and s, which ranks them as
    their Q-hat values do: 2 (m-2) L D times the part of Q-hat that differs
    between joins, (m-2) D N[i, j] + F[i2] + F[j2], with N the map's
    numerators, F the far sums over L*D and i2, j2 the far ends; at m = 2,
    closing the cycle with the edges (i, j) and (i2, j2), 2 L times it,
    N[i, j] + N[i2, j2]. On a float map N is d and L = D = 1."""
    m, path_r, path_s = len(state.blocks), state.blocks[r], state.blocks[s]
    ends = [(i, j, _other_end(path_r, i), _other_end(path_s, j)) for i, j in joins]
    raw, dm = state._raw, state._dm
    if m == 2:
        return [raw(dm.item(i, j)) + raw(dm.item(i2, j2)) for i, j, i2, j2 in ends]
    far, c = state._join_terms(r, s)[2], (m - 2) * state._den[1]
    return [c * raw(dm.item(i, j)) + far[i2] + far[j2] for i, j, i2, j2 in ends]


def merge_blocks(state: BlockState, r: int, s: int, i: int, j: int) -> BlockState:
    """Join block r's path at endpoint i to block s's path at endpoint j.

    The merged path sits at index min(r, s); node weights are carried over
    unchanged (adjust_weights produces the new ones).
    """
    state._check_pair(r, s)
    return state._target()._merge(r, s, i, j)


def adjust_weights(state: BlockState, scheme: WeightingScheme) -> dict:
    """The merged path's new weights, in path order, after the merge recorded
    in state.last_merge: no scheme changes any other weight. with_mu
    applies them."""
    info = state.last_merge
    if info is None:
        raise ValueError("no merge has been performed on this state")
    merged_path = state.blocks[info.merged_index]
    if isinstance(scheme, BalancedTSP):
        zero, half = _TSP_WEIGHTS[state.scalar]
        mu = dict.fromkeys(merged_path, zero)
        mu[merged_path[0]] = mu[merged_path[-1]] = half
        return mu
    one = state.scalar(1)
    mu = {t: state.mu[t] for t in merged_path}
    block_r, block_s = state.parts[info.merged_index]
    if isinstance(scheme, TreeWeighting):
        alpha = state.scalar(scheme.alpha)
        for t in block_r:
            mu[t] = alpha * mu[t]
        for t in block_s:
            mu[t] = (one - alpha) * mu[t]
    elif isinstance(scheme, OriginalBM):
        # once per compound block, the block with the smaller minimum taxon
        # first (arbitrary but fixed): the sub-block holding the junction
        # endpoint is halved, its sibling and the whole other block quartered
        quarter, h = one / 4, one / 2
        sides = [(block_r, info.parts_r, info.i, block_s), (block_s, info.parts_s, info.j, block_r)]
        compound = [side for side in sorted(sides, key=lambda side: min(side[0])) if side[1] is not None]
        for _, (part_a, part_b), junction, other in compound:
            near, far = (part_a, part_b) if junction in part_a else (part_b, part_a)
            for t in (*far, *other):
                mu[t] = mu[t] * quarter
            for t in near:
                mu[t] = mu[t] * h
        if not compound:
            # the first merge of two singletons: both keep equal shares
            for t in merged_path:
                mu[t] = mu[t] * h
    else:
        raise TypeError(f"unknown weighting scheme: {scheme!r}")
    return mu


@dataclass(frozen=True)
class StepRecord:
    """One merge. mu is what adjust_weights returned, the merged path's new
    weights, so the records replayed over all-ones weights rebuild every
    state's weights."""

    m: int
    pair: tuple
    q_value: Num
    endpoints: tuple
    q_hat_value: Num
    split: Optional[Split]
    merged_block: tuple
    mu: dict


@dataclass(frozen=True)
class AgglomerationTrace:
    steps: tuple

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class NeighborNetResult:
    """tree_splits: the splits of the first n-2 merges. When the m = 3 join
    leaves out a block of two or more taxa, its split is that block's, so
    one split appears twice and n-3 are distinct."""
    ordering: CircularOrdering
    tree_splits: tuple
    trace: AgglomerationTrace


def _near_min(values: np.ndarray, tol: Num) -> np.ndarray:
    """Indices, in increasing order, of the values within tol of the minimum."""
    return (values <= values.min() + tol).nonzero()[0]


def _select_pair(state: BlockState) -> tuple:
    """Argmin of Q over the block pairs r < s, as ((r, s), Q value).

    Tie rule, on sets and scaled to the input, with tol = state.tie_tol
    (REL_TIE_TOL * m * max|d| for a float map, 0 for an exact one):
      1. take the minimum Q;
      2. keep the pairs whose Q is within tol of it;
      3. among those, keep the pairs whose block distance is within tol of
         the smallest, a label-independent criterion;
      4. take the lexicographically first (r, s) of what remains.
    Ties always occur at three blocks, where Q is the same for every pair.
    """
    m, tol, row_sums = state.m, state.tie_tol, state._row_sums()
    flat, rows, cols = state._pairs()
    q = state._buf.take(flat)  # the table is symmetric: entry (s, r) is delta(C_r, C_s)
    q *= m - 2
    q -= row_sums.take(rows)
    q -= row_sums.take(cols)
    near = _near_min(q, tol)
    k = int(near[0])
    if len(near) > 1:
        near = near[_near_min(state._buf.take(flat[near]), tol)]
        k = int(near[np.argmin(rows[near] * len(q) + near)])  # the first (r, s)
    return (int(rows[k]), int(cols[k])), state._number(q.item(k), 2)


def _select_endpoints(state: BlockState, r: int, s: int) -> tuple:
    """Argmin of Q-hat over the endpoint joins (i, j), as ((i, j), Q-hat
    value): values within state.tie_tol of the minimum tie, and ties go to
    the lexicographically first (i, j). The joins are ranked by
    _q_hat_scores' keys, 2 (m-2) L D times the values, or 2 L at m = 2, so
    the keys tie within the tolerance times 2 (m-2), or 2 (L = D = 1 where
    it is not 0); q_hat_criterion is evaluated for the winner alone."""
    state._check_pair(r, s)
    joins = sorted((i, j) for i in state.endpoints(r) for j in state.endpoints(s))
    scores = _q_hat_scores(state, r, s, joins)
    bound = min(scores) + state.tie_tol * 2 * max(state.m - 2, 1)
    i, j = joins[next(k for k, v in enumerate(scores) if v <= bound)]
    return (i, j), q_hat_criterion(state, r, s, i, j)


def _splits(blocks: list, n: int) -> list:
    """The split of each merged block, None for the final one holding all n
    taxa; each split stores the side that holds taxon 0, made unchecked."""
    taxa = frozenset(range(n))
    return [None if len(b) == n else Split._unchecked(n, frozenset(b) if 0 in b else taxa.difference(b)) for b in blocks]


def run_neighbor_net(
    d: DissimilarityMap, scheme: WeightingScheme = BalancedTSP()
) -> NeighborNetResult:
    """Run the full agglomeration; deterministic under the lexicographic tie rule.

    Returns the canonical circular ordering, the n-2 recorded splits with a
    nonempty complement (the final degenerate one is dropped), and the
    per-step trace. The run owns its state, so every merge and reweight
    changes that state's arrays in place; the splits are built after the
    loop.
    """
    n = d.n
    if n < 3:
        raise ValueError("n >= 3 required")
    state = BlockState.initial(d)
    state._in_place = True
    steps = []
    while state.m > 1:
        m = state.m
        pair, q_val = ((0, 1), q_criterion(state, 0, 1)) if m == 2 else _select_pair(state)
        r, s = pair
        (i, j), qh_val = _select_endpoints(state, r, s)
        state = merge_blocks(state, r, s, i, j)
        mu = adjust_weights(state, scheme)
        state._reweight(mu)
        steps.append((m, pair, q_val, (i, j), qh_val, state.blocks[min(r, s)], mu))
    ordering = CircularOrdering(state.blocks[0]).canonical()
    del state  # its table goes before the splits are built
    merged = [step[5] for step in steps]
    records = tuple(
        StepRecord(m, pair, q_val, ends, qh_val, split, block, mu)
        for (m, pair, q_val, ends, qh_val, block, mu), split in zip(steps, _splits(merged, n))
    )
    tree_splits = tuple(rec.split for rec in records if rec.split is not None)
    return NeighborNetResult(ordering, tree_splits, AgglomerationTrace(records))


def neighbor_joining(d: DissimilarityMap, alpha: Union[float, Fraction] = Fraction(1, 2)) -> frozenset:
    """The splits of the neighbor-joining tree whose reduced distances are
    alpha * d(C_r, .) + (1 - alpha) * d(C_s, .).

    Under a tree weighting the neighbor-net tree is the neighbor-joining tree
    (Levy & Pachter, The Neighbor-Net Algorithm), so these are the splits that
    run_neighbor_net records under TreeWeighting(alpha). The tests compare
    them with an independent NJ recursion.
    """
    return frozenset(run_neighbor_net(d, TreeWeighting(alpha)).tree_splits)
