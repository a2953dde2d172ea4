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
path serves both arithmetics. A float map's arrays are float64. An exact
map's are object arrays of Python ints: with L the map's common denominator
(d.integer_form) and D a common denominator of the node weights, bb holds
its values times L*D^2 and delta(x, C_r) comes out times L*D, so Q and the
tie rule compare integers and no Fraction is formed per table entry. D only
grows: when new weights bring in a denominator D does not divide (1/2 and
1/4 under the dyadic schemes, alpha's under TreeWeighting), the weights are
scaled up by the factor, f, and bb by f^2. Fractions appear only where
values leave the engine: the accessors, Q-hat, the step records and mu.

The table is never rebuilt whole. A merge leaves the weights alone, so it
drops row and column hi and makes the merged row the sum of the two it
joins. Every scheme changes weights inside the merged block alone, so its
new weights are the one value a step passes on: adjust_weights returns
them, with_mu applies them and recomputes, from the original matrix, the
merged block's row alone, in O(n |block|), and the step record keeps them.
A step costs O(n^2) with the vectorised Q, a run O(n^3), and float runs
cannot accumulate drift.
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
    join_paths,
    merged_at,
    path_ends,
)

REL_TIE_TOL = 1e-12


def _arithmetic(d: DissimilarityMap) -> tuple:
    """The type of every weight and criterion value, and the tie unit:
    (Fraction, 0) for an exact map, (float, REL_TIE_TOL * max|d|) otherwise."""
    return (Fraction, 0) if d.is_exact else (float, REL_TIE_TOL * d.array.max().item())


def _py(x) -> Num:
    """A numpy scalar as the Python number it holds; Python objects pass through."""
    return x.item() if isinstance(x, np.generic) else x


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
    """Immutable snapshot of the agglomeration: paths, weights, distances.

    The arrays are private and belong to one state; a transition builds its
    successor on copies of those it changes, so a state handed out never
    changes. Beside the block table _bb, _w holds each taxon's table weight
    and _block its block index. On an exact map _w holds the weights as
    ints over D and _bb ints over L*D^2 (see the module docstring); on a
    float map they hold mu and the distances. mu and every accessor give the
    state's scalar: Fraction or float. Only the constructor copies and normalises its input; a
    merge's successor shares mu and _w, which no state changes. A transition
    refreshes only the block at last_merge.merged_index, the one block whose
    weights a scheme changes.
    """

    __slots__ = (
        "d", "blocks", "mu", "parts", "last_merge", "scalar",
        "_unit", "_dm", "_den", "_w", "_block", "_bb", "_rowsum", "_total",
    )

    def __init__(self, d, blocks, mu, parts, last_merge=None):
        self.d = d
        self.scalar, self._unit = _arithmetic(d)
        if self.scalar is Fraction:
            self._dm, map_den = d.integer_form
            self._den = (map_den, 1)
        else:
            self._dm, self._den = d.array, None
        self.blocks = tuple(tuple(b) for b in blocks)
        self.mu = dict(mu)
        self.parts = tuple(parts)
        self.last_merge = last_merge
        self._w = np.zeros(d.n, dtype=self._dm.dtype)
        self._take_weights(self.mu)
        m = len(self.blocks)
        self._block = np.empty(d.n, dtype=np.intp)
        for t, b in enumerate(self.blocks):
            self._block[list(b)] = t
        self._bb = np.empty((m, m), dtype=self._dm.dtype)
        self._refresh(range(m))

    def _take_weights(self, changed) -> int:
        """Make _w, on a copy, the table weights of mu after the taxa in
        changed took new weights; returns the factor by which D grew."""
        new = [self.mu[k] for k in changed]
        f = 1
        if self._den is not None:
            map_den, den = self._den
            grown = math.lcm(den, *(v.denominator for v in new))
            f = grown // den
            new = [v.numerator * (grown // v.denominator) for v in new]
            self._den = (map_den, grown)
        self._w = self._w * f
        self._w[list(changed)] = new
        return f

    def _successor(self, blocks, mu, parts, last_merge, bb, block, changed=()) -> "BlockState":
        """A state on the same map whose block table is bb (which it now owns)
        and taxon-to-block index block, after the taxa in changed, all in the
        last merged block, took their weights in mu: bb is scaled if D grew,
        and that block's row recomputed. The other arguments are taken as is."""
        new = object.__new__(BlockState)
        new.d, new.scalar, new._unit, new._dm = self.d, self.scalar, self._unit, self._dm
        new.blocks, new.mu, new.parts, new.last_merge = blocks, mu, parts, last_merge
        new._den, new._w, new._block, new._bb = self._den, self._w, block, bb
        if changed and (f := new._take_weights(changed)) > 1:
            bb *= f * f
        new._refresh([last_merge.merged_index] if changed else [])
        return new

    def _refresh(self, stale):
        """Recompute delta(C_t, .) for each block t in stale from the original
        matrix: v = delta(., C_t) over every taxon, then the weighted sum of v
        per block; zero weights are skipped."""
        dm, w, bb = self._dm, self._w, self._bb
        for t in stale:
            idx = [k for k in self.blocks[t] if w[k] != 0]
            v = w[idx] @ dm[idx, :]
            row = np.zeros(len(bb), dtype=dm.dtype)
            np.add.at(row, self._block, w * v)
            row[t] = 0
            bb[t, :] = row
            bb[:, t] = row
        self._rowsum = None

    def _taxa_sum(self, x: int, mask: np.ndarray) -> Num:
        """The sum of mu(k) d(x, k) over the taxa k that mask selects."""
        return self._number((self._w * mask) @ self._dm[x], 1)

    def _number(self, x, power: int) -> Num:
        """A table value as the Python number it stands for: on an exact map
        x is an int over L*D**power."""
        if self._den is None:
            return _py(x)
        map_den, den = self._den
        return Fraction(x, map_den * den**power)

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
        """The row sums of bb, in its units."""
        if self._rowsum is None:
            self._rowsum = self._bb.sum(axis=1)
            self._total = self._number(self._rowsum.sum(), 2) / 2
        return self._rowsum

    def block_distance(self, r: int, s: int) -> Num:
        """delta(C_r, C_s) per the weighted double sum."""
        return self._number(self._bb.item(r, s), 2)

    def taxon_block_distance(self, x: int, t: int) -> Num:
        """delta(x, C_t) per the weighted single sum, summed on demand."""
        return self._taxa_sum(x, self._block == t)

    def row_sum(self, r: int) -> Num:
        return self._number(self._row_sums().item(r), 2)

    def total_pair_sum(self) -> Num:
        """Sum of delta(C_t, C_u) over unordered block pairs."""
        self._row_sums()
        return self._total

    def with_mu(self, mu) -> "BlockState":
        """This state with new weights for the taxa in mu, which must lie in
        the block the last merge made, as adjust_weights returns them. Every
        taxon given counts as changed; bb refreshes that block alone."""
        if self.last_merge is None:
            raise ValueError("no merge has been performed on this state")
        if not mu.keys() <= set(self.blocks[self.last_merge.merged_index]):
            raise ValueError("new weights must lie in the last merged block")
        return self._successor(
            self.blocks, {**self.mu, **mu}, self.parts, self.last_merge,
            self._bb.copy(), self._block, mu.keys(),
        )

    def to_pco(self):
        return PartialCircularOrdering(self.blocks)


def q_criterion(state: BlockState, r: int, s: int) -> Num:
    """(m-2) delta(C_r,C_s) - sum_t delta(C_r,C_t) - sum_t delta(C_t,C_s)."""
    if r == s:
        raise ValueError("r and s must differ")
    m = state.m
    return (m - 2) * state.block_distance(r, s) - state.row_sum(r) - state.row_sum(s)


def q_hat_criterion(state: BlockState, r: int, s: int, i: int, j: int) -> Num:
    """Endpoint selection criterion for joining blocks r and s at taxa i, j:
    the change in balanced length caused by this specific join, in closed form.

    The merged path's far ends become the new half-weight endpoints; the other
    blocks keep their current weights. For a balanced TSP weighting this equals
    the enumerated quantity l(d, C') - l(d, C) exactly, so minimizing it picks
    the join of minimal balanced length among the endpoint candidates.
    """
    if i not in state.endpoints(r) or j not in state.endpoints(s):
        raise ValueError("i and j must be endpoints of the selected blocks")
    m = state.m
    dm = state.d.array
    path_r, path_s = state.blocks[r], state.blocks[s]
    i2 = path_r[0] if path_r[-1] == i else path_r[-1]
    j2 = path_s[0] if path_s[-1] == j else path_s[-1]
    if m == 2:
        # closing the cycle: the two new edges are (i, j) and the far ends
        return (dm.item(i, j) + dm.item(i2, j2)) / 2 - state.block_distance(r, s)
    p_total = state.total_pair_sum()
    across = p_total - state.row_sum(r) - state.row_sum(s) + state.block_distance(r, s)
    far = (state._block != r) & (state._block != s)  # the taxa outside blocks r and s
    far_sum = state._taxa_sum(i2, far) + state._taxa_sum(j2, far)
    return dm.item(i, j) / 2 + (across + far_sum / 2) / (m - 2) - p_total / (m - 1)


def merge_blocks(state: BlockState, r: int, s: int, i: int, j: int) -> BlockState:
    """Join block r's path at endpoint i to block s's path at endpoint j.

    The merged path sits at index min(r, s); node weights are carried over
    unchanged (adjust_weights produces the new ones).
    """
    blocks = merged_at(state.blocks, r, s, join_paths(state.blocks[r], state.blocks[s], i, j))
    parts = merged_at(state.parts, r, s, (frozenset(state.blocks[r]), frozenset(state.blocks[s])))
    lo, hi = min(r, s), max(r, s)
    info = MergeInfo(
        merged_index=lo,
        parts_r=state.parts[r],
        parts_s=state.parts[s],
        i=i,
        j=j,
    )
    # weights are unchanged, so the union's distances are the sums of the two
    # blocks' distances
    old, m = state._bb, state.m
    bb = np.empty((m - 1, m - 1), dtype=old.dtype)
    bb[:hi, :hi], bb[:hi, hi:] = old[:hi, :hi], old[:hi, hi + 1:]
    bb[hi:, :hi], bb[hi:, hi:] = old[hi + 1:, :hi], old[hi + 1:, hi + 1:]
    row = np.delete(old[r] + old[s], hi)
    row[lo] = 0
    bb[lo, :] = row
    bb[:, lo] = row
    block = np.where(state._block == hi, lo, state._block)
    block -= block > hi
    return state._successor(blocks, state.mu, parts, info, bb, block)


def adjust_weights(state: BlockState, scheme: WeightingScheme) -> dict:
    """The merged path's new weights, in path order, after the merge recorded
    in state.last_merge: no scheme changes any other weight. with_mu
    applies them."""
    info = state.last_merge
    if info is None:
        raise ValueError("no merge has been performed on this state")
    one = state.scalar(1)
    merged_path = state.blocks[info.merged_index]
    mu = {t: state.mu[t] for t in merged_path}
    block_r, block_s = state.parts[info.merged_index]
    if isinstance(scheme, BalancedTSP):
        zero, h = 0 * one, one / 2
        for t in merged_path:
            mu[t] = zero
        mu[merged_path[0]] = h
        mu[merged_path[-1]] = h
    elif isinstance(scheme, TreeWeighting):
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
    ordering: CircularOrdering
    tree_splits: tuple
    trace: AgglomerationTrace


def _near_min(values: np.ndarray, tol: Num) -> np.ndarray:
    """Indices, in increasing order, of the values within tol of the minimum."""
    return np.flatnonzero(values <= values.min() + tol)


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
    q = (m - 2) * state._bb - row_sums[:, None] - row_sums
    q[np.tri(m, dtype=bool)] = np.inf  # row-major order over r < s is the pair order
    q = q.ravel()
    near = _near_min(q, tol)
    k = near[_near_min(state._bb.ravel()[near], tol)[0]]
    return divmod(int(k), m), state._number(q[k], 2)


def _select_endpoints(state: BlockState, r: int, s: int) -> tuple:
    """Argmin of Q-hat over the endpoint joins (i, j), as ((i, j), Q-hat
    value): values within state.tie_tol of the minimum tie, and ties go to
    the lexicographically first (i, j)."""
    candidates = sorted(
        (i, j) for i in state.endpoints(r) for j in state.endpoints(s)
    )
    values = [q_hat_criterion(state, r, s, i, j) for i, j in candidates]
    k = _near_min(np.array(values), state.tie_tol)[0]
    return candidates[k], values[k]


def run_neighbor_net(
    d: DissimilarityMap, scheme: WeightingScheme = BalancedTSP()
) -> NeighborNetResult:
    """Run the full agglomeration; deterministic under the lexicographic tie rule.

    Returns the canonical circular ordering, the n-2 recorded splits with a
    nonempty complement (the final degenerate one is dropped), and the
    per-step trace.
    """
    n = d.n
    if n < 3:
        raise ValueError("n >= 3 required")
    state = BlockState.initial(d)
    records = []
    while state.m > 1:
        m = state.m
        if m == 2:
            pair = (0, 1)
            q_val = q_criterion(state, 0, 1)
        else:
            pair, q_val = _select_pair(state)
        r, s = pair
        (i, j), qh_val = _select_endpoints(state, r, s)
        state = merge_blocks(state, r, s, i, j)
        mu = adjust_weights(state, scheme)
        state = state.with_mu(mu)
        merged = state.blocks[min(r, s)]
        records.append(
            StepRecord(
                m=m,
                pair=pair,
                q_value=q_val,
                endpoints=(i, j),
                q_hat_value=qh_val,
                split=Split.of(merged, n) if len(merged) < n else None,
                merged_block=merged,
                mu=mu,
            )
        )
    ordering = CircularOrdering(state.blocks[0]).canonical()
    tree_splits = tuple(rec.split for rec in records if rec.split is not None)
    return NeighborNetResult(ordering, tree_splits, AgglomerationTrace(tuple(records)))


def neighbor_joining(d: DissimilarityMap, alpha: Union[float, Fraction] = Fraction(1, 2)) -> frozenset:
    """The splits of the neighbor-joining tree whose reduced distances are
    alpha * d(C_r, .) + (1 - alpha) * d(C_s, .).

    Under a tree weighting the neighbor-net tree is the neighbor-joining tree
    (Levy & Pachter, The Neighbor-Net Algorithm), so these are the splits that
    run_neighbor_net records under TreeWeighting(alpha). The tests compare
    them with an independent NJ recursion.
    """
    return frozenset(run_neighbor_net(d, TreeWeighting(alpha)).tree_splits)
