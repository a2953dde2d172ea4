"""Agglomerative construction of circular orderings with pluggable weighting
schemes, plus a standalone neighbor-joining used as an oracle.

The engine repeatedly (1) picks the block pair minimizing the Q criterion,
(2) picks the endpoint pair minimizing the Q-hat criterion, (3) joins the two
paths with an edge, (4) adjusts the node weights according to the scheme, and
(5) records the split induced by the merged block. Block-level distances are
the mu-weighted sums over the original matrix:

    delta(C_r, C_s) = sum_{i in C_r, j in C_s} mu(i) mu(j) d(i, j)
    delta(x, C_r)   = sum_{i in C_r} mu(i) d(x, i)

Each BlockState holds them in two numpy tables, tb (n x m, taxon to block)
and bb (m x m, block to block): float64 for float maps and object arrays of
Fraction for exact ones, so one code path serves both. The tables are never
rebuilt whole. A merge leaves the weights alone, so it drops column hi and
makes the merged column the sum of the two it joins; a weight change
recomputes, from the original matrix, only the columns of the blocks whose
weights changed, in O(n |block|) each. Every scheme changes weights inside the
merged block alone, so a step costs O(n^2) with the vectorised Q, a run
O(n^3), and float runs cannot accumulate drift.
"""
from __future__ import annotations

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


def _scalar_type(d: DissimilarityMap) -> type:
    """The type of every weight and criterion value: Fraction for an exact
    map, float otherwise."""
    return Fraction if d.is_exact else float


def _numeric(d: DissimilarityMap):
    """The matrix of d as an array (Fractions or float64) and the tie unit,
    REL_TIE_TOL * max|d| for a float map and 0 for an exact one."""
    if d.is_exact:
        return np.array([[Fraction(x) for x in row] for row in d.rows], dtype=object), 0
    dm = np.array(d.rows, dtype=float)
    return dm, REL_TIE_TOL * float(dm.max())


def _py(x) -> Num:
    """A numpy scalar as the Python number it holds; Fractions pass through."""
    return x.item() if isinstance(x, np.generic) else x


@dataclass(frozen=True)
class BalancedTSP:
    """Endpoints of every merged path get weight 1/2, interior nodes 0."""


@dataclass(frozen=True)
class TreeWeighting:
    """Scale the first merged block by alpha and the second by 1-alpha.

    alpha="balanced" fixes alpha = 1/2 at every step; numeric alpha in [0, 1]
    is exposed for BIONJ-style experimentation.
    """

    alpha: Union[str, float, Fraction] = "balanced"

    def __post_init__(self):
        if isinstance(self.alpha, str):
            if self.alpha != "balanced":
                raise ValueError("alpha must be 'balanced' or a number in [0, 1]")
        elif not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")

    def resolve_alpha(self, scalar) -> Num:
        """alpha as a value of the scalar type (Fraction or float)."""
        if self.alpha == "balanced":
            return scalar(1) / 2
        return scalar(self.alpha)


@dataclass(frozen=True)
class OriginalBM:
    """The historical scheme: quarter the far part and the incoming block,
    halve the part next to the junction. Neither a TSP nor a tree weighting,
    and block weights no longer sum to 1."""


WeightingScheme = Union[BalancedTSP, TreeWeighting, OriginalBM]


@dataclass(frozen=True)
class MergeInfo:
    """What the last merge did; consumed by adjust_weights."""

    merged_index: int
    block_r: frozenset
    block_s: frozenset
    parts_r: Optional[tuple]
    parts_s: Optional[tuple]
    i: int
    j: int


class BlockState:
    """Immutable snapshot of the agglomeration: paths, weights, distances.

    The distance tables are private arrays that belong to one state; a
    transition builds its successor on copies, so a state handed out never
    changes.
    """

    __slots__ = (
        "d", "blocks", "mu", "parts", "last_merge", "scalar",
        "_dm", "_unit", "_tb", "_bb", "_rowsum", "_total",
    )

    def __init__(self, d, blocks, mu, parts, last_merge=None):
        self.d = d
        self.scalar = _scalar_type(d)
        self._dm, self._unit = _numeric(d)
        self._set(blocks, mu, parts, last_merge)
        m = len(self.blocks)
        self._tb = np.empty((d.n, m), dtype=self._dm.dtype)
        self._bb = np.empty((m, m), dtype=self._dm.dtype)
        self._refresh(range(m))

    def _set(self, blocks, mu, parts, last_merge):
        self.blocks = tuple(tuple(b) for b in blocks)
        self.mu = dict(mu)
        self.parts = tuple(parts)
        self.last_merge = last_merge

    def _successor(self, blocks, mu, parts, last_merge, tb, bb, stale) -> "BlockState":
        """A state on the same map whose tables are tb and bb (which it now
        owns) with the columns of the blocks in stale recomputed."""
        new = object.__new__(BlockState)
        new.d, new._dm, new.scalar, new._unit = self.d, self._dm, self.scalar, self._unit
        new._set(blocks, mu, parts, last_merge)
        new._tb, new._bb = tb, bb
        new._refresh(stale)
        return new

    def _refresh(self, stale):
        """Recompute delta(., C_t) and delta(C_t, .) for each block t in stale
        from the original matrix; zero weights are skipped."""
        dm, tb, bb, mu = self._dm, self._tb, self._bb, self.mu
        weighted = []
        for t in stale:
            idx = [k for k in self.blocks[t] if mu[k] != 0]
            w = np.array([mu[k] for k in idx], dtype=dm.dtype)
            tb[:, t] = dm[:, idx] @ w
            weighted.append((t, idx, w))
        for t, idx, w in weighted:
            row = w @ tb[idx, :]
            row[t] = self.scalar(0)
            bb[t, :] = row
            bb[:, t] = row
        self._rowsum = None

    @classmethod
    def initial(cls, d: DissimilarityMap) -> "BlockState":
        one = _scalar_type(d)(1)
        return cls(d, [(t,) for t in range(d.n)], dict.fromkeys(range(d.n), one), [None] * d.n)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def is_exact(self) -> bool:
        return self.d.is_exact

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
        if self._rowsum is None:
            self._rowsum = self._bb.sum(axis=1)
            self._total = _py(self._rowsum.sum()) / 2
        return self._rowsum

    def block_distance(self, r: int, s: int) -> Num:
        """delta(C_r, C_s) per the weighted double sum."""
        return self._bb.item(r, s)

    def taxon_block_distance(self, x: int, t: int) -> Num:
        """delta(x, C_t) per the weighted single sum."""
        return self._tb.item(x, t)

    def row_sum(self, r: int) -> Num:
        return self._row_sums().item(r)

    def total_pair_sum(self) -> Num:
        """Sum of delta(C_t, C_u) over unordered block pairs."""
        self._row_sums()
        return self._total

    def with_mu(self, mu) -> "BlockState":
        changed = {k for k, v in self.mu.items() if mu[k] != v}
        stale = [t for t, block in enumerate(self.blocks) if not changed.isdisjoint(block)]
        return self._successor(
            self.blocks, mu, self.parts, self.last_merge,
            self._tb.copy(), self._bb.copy(), stale,
        )

    def to_pco(self):
        return PartialCircularOrdering(self.blocks)


def q_criterion(state: BlockState, r: int, s: int) -> Num:
    """(m-2) delta(C_r,C_s) - sum_t delta(C_r,C_t) - sum_t delta(C_t,C_s)."""
    if r == s:
        raise ValueError("r and s must differ")
    m = state.m
    return (m - 2) * state.block_distance(r, s) - state.row_sum(r) - state.row_sum(s)


def _far_sum(state: BlockState, x: int, r: int, s: int) -> Num:
    """sum over blocks t other than r, s of delta(x, C_t)."""
    tb = state._tb
    return _py(tb[x].sum()) - tb.item(x, r) - tb.item(x, s)


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
    dm = state._dm
    path_r, path_s = state.blocks[r], state.blocks[s]
    i2 = path_r[0] if path_r[-1] == i else path_r[-1]
    j2 = path_s[0] if path_s[-1] == j else path_s[-1]
    if m == 2:
        # closing the cycle: the two new edges are (i, j) and the far ends
        return (dm.item(i, j) + dm.item(i2, j2)) / 2 - state.block_distance(r, s)
    p_total = state.total_pair_sum()
    across = p_total - state.row_sum(r) - state.row_sum(s) + state.block_distance(r, s)
    far_sum = _far_sum(state, i2, r, s) + _far_sum(state, j2, r, s)
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
        block_r=frozenset(state.blocks[r]),
        block_s=frozenset(state.blocks[s]),
        parts_r=state.parts[r],
        parts_s=state.parts[s],
        i=i,
        j=j,
    )
    # weights are unchanged, so the union's distances are the sums of the two
    # blocks' distances
    tb = np.delete(state._tb, hi, axis=1)
    tb[:, lo] = state._tb[:, r] + state._tb[:, s]
    bb = _joined(state._bb, lo, hi, state._bb[r] + state._bb[s], state.scalar(0))
    return state._successor(blocks, state.mu, parts, info, tb, bb, [])


def _joined(dist: np.ndarray, lo: int, hi: int, row: np.ndarray, zero: Num) -> np.ndarray:
    """A copy of the symmetric matrix dist without row and column hi, whose
    row and column lo are row (indexed as in dist) with a zero diagonal."""
    row = np.delete(row, hi)
    row[lo] = zero
    out = np.delete(np.delete(dist, hi, axis=0), hi, axis=1)
    out[lo, :] = row
    out[:, lo] = row
    return out


def _apply_original_bm(mu, compound_parts, junction, other_block, quarter, hlf):
    """One application of the historical update: the sub-block holding the
    junction endpoint is halved, its sibling and the whole other block are
    quartered."""
    part_a, part_b = compound_parts
    near = part_a if junction in part_a else part_b
    far = part_b if near is part_a else part_a
    for t in far:
        mu[t] = mu[t] * quarter
    for t in other_block:
        mu[t] = mu[t] * quarter
    for t in near:
        mu[t] = mu[t] * hlf


def adjust_weights(state: BlockState, scheme: WeightingScheme) -> dict:
    """New node weights after the merge recorded in state.last_merge."""
    info = state.last_merge
    if info is None:
        raise ValueError("no merge has been performed on this state")
    one = state.scalar(1)
    mu = dict(state.mu)
    merged_path = state.blocks[info.merged_index]
    if isinstance(scheme, BalancedTSP):
        zero, h = 0 * one, one / 2
        for t in merged_path:
            mu[t] = zero
        mu[merged_path[0]] = h
        mu[merged_path[-1]] = h
    elif isinstance(scheme, TreeWeighting):
        alpha = scheme.resolve_alpha(state.scalar)
        for t in info.block_r:
            mu[t] = alpha * mu[t]
        for t in info.block_s:
            mu[t] = (one - alpha) * mu[t]
    elif isinstance(scheme, OriginalBM):
        quarter, h = one / 4, one / 2
        r_compound = info.parts_r is not None
        s_compound = info.parts_s is not None
        if not r_compound and not s_compound:
            # first-ever merge of two singletons: no sub-block structure to
            # quarter, both survivors keep equal shares
            for t in merged_path:
                mu[t] = mu[t] * h
        elif r_compound and not s_compound:
            _apply_original_bm(mu, info.parts_r, info.i, info.block_s, quarter, h)
        elif s_compound and not r_compound:
            _apply_original_bm(mu, info.parts_s, info.j, info.block_r, quarter, h)
        else:
            # both compound: apply once per block, the block with the smaller
            # minimum taxon first (arbitrary but fixed order)
            first_is_r = min(info.block_r) < min(info.block_s)
            order = [
                (info.parts_r, info.i, info.block_s),
                (info.parts_s, info.j, info.block_r),
            ]
            if not first_is_r:
                order.reverse()
            for parts, junction, other in order:
                _apply_original_bm(mu, parts, junction, other, quarter, h)
    else:
        raise TypeError(f"unknown weighting scheme: {scheme!r}")
    return mu


@dataclass(frozen=True)
class StepRecord:
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


def _q_argmin(dist: np.ndarray, row_sums: np.ndarray, tol: Num) -> tuple:
    """The pair r < s chosen by Q over a matrix of block distances, with its
    Q value; the tie rule is _select_pair's."""
    m = len(dist)
    rows, cols = np.triu_indices(m, 1)
    between = dist[rows, cols]
    q = (m - 2) * between - row_sums[rows] - row_sums[cols]
    near = _near_min(q, tol)
    k = near[_near_min(between[near], tol)[0]]
    return (int(rows[k]), int(cols[k])), _py(q[k])


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
    return _q_argmin(state._bb, state._row_sums(), state.tie_tol)


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
        union = set(state.blocks[r]) | set(state.blocks[s])
        split = Split.of(union, n) if len(union) < n else None
        state = merge_blocks(state, r, s, i, j)
        mu = adjust_weights(state, scheme)
        state = state.with_mu(mu)
        records.append(
            StepRecord(
                m=m,
                pair=pair,
                q_value=q_val,
                endpoints=(i, j),
                q_hat_value=qh_val,
                split=split,
                merged_block=state.blocks[min(r, s)],
                mu=dict(mu),
            )
        )
    ordering = CircularOrdering(state.blocks[0]).canonical()
    tree_splits = tuple(rec.split for rec in records if rec.split is not None)
    return NeighborNetResult(ordering, tree_splits, AgglomerationTrace(tuple(records)))


def neighbor_joining(d: DissimilarityMap, alpha: Union[str, float, Fraction] = "balanced") -> frozenset:
    """Standalone neighbor-joining, reduced distances d' = a*d_r + (1-a)*d_s.

    Returns the splits induced by the merges (those with a nonempty
    complement). Selection, tie-breaking, and block bookkeeping are
    run_neighbor_net's, so that split sets can be compared.
    """
    n = d.n
    if n < 3:
        raise ValueError("n >= 3 required")
    scalar = _scalar_type(d)
    a = TreeWeighting(alpha).resolve_alpha(scalar)
    dist, unit = _numeric(d)
    blocks = [frozenset((t,)) for t in range(n)]
    splits = set()
    while len(blocks) > 1:
        m = len(blocks)
        if m == 2:
            r, s = 0, 1
        else:
            (r, s), _ = _q_argmin(dist, dist.sum(axis=1), unit * m)
        union = blocks[r] | blocks[s]
        if len(union) < n:
            splits.add(Split.of(union, n))
        dist = _joined(dist, r, s, a * dist[r] + (1 - a) * dist[s], scalar(0))
        blocks[r] = union
        del blocks[s]
    return frozenset(splits)
