"""The scalar agglomeration engine as it stood before the array engine: Python
tables rebuilt from the original matrix at every step, a pair-by-pair Q scan,
and a sequential tie rule with a relative 1e-12 tolerance (absolute floor
1e-12). Kept unchanged, with its own scheme and record classes, as the reference
oracle of tests/test_engine_differential.py; only `half`, which the library
no longer has, is defined here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    Split,
    is_exact_number,
    join_paths,
)


def half(exact: bool) -> Num:
    return Fraction(1, 2) if exact else 0.5


REL_TIE_TOL = 1e-12


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

    def resolve_alpha(self, exact: bool) -> Num:
        if self.alpha == "balanced":
            return half(exact)
        if exact and not is_exact_number(self.alpha):
            return Fraction(self.alpha)
        return self.alpha


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
    """Immutable snapshot of the agglomeration: paths, weights, distances."""

    __slots__ = ("d", "blocks", "mu", "parts", "last_merge", "_tb", "_bb", "_rowsum")

    def __init__(self, d, blocks, mu, parts, last_merge=None):
        self.d = d
        self.blocks = tuple(tuple(b) for b in blocks)
        self.mu = dict(mu)
        self.parts = tuple(parts)
        self.last_merge = last_merge
        self._tb = None
        self._bb = None
        self._rowsum = None

    @classmethod
    def initial(cls, d: DissimilarityMap) -> "BlockState":
        one: Num = Fraction(1) if d.is_exact else 1.0
        blocks = [(t,) for t in range(d.n)]
        mu = {t: one for t in range(d.n)}
        return cls(d, blocks, mu, [None] * d.n)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def is_exact(self) -> bool:
        return self.d.is_exact

    def endpoints(self, r: int) -> tuple:
        b = self.blocks[r]
        return (b[0],) if len(b) == 1 else (b[0], b[-1])

    def _ensure_tables(self):
        if self._bb is not None:
            return
        d, mu, blocks = self.d, self.mu, self.blocks
        n, m = d.n, len(self.blocks)
        zero: Num = Fraction(0) if self.is_exact else 0.0
        tb = [[zero] * m for _ in range(n)]
        for t, block in enumerate(blocks):
            weighted = [(k, mu[k]) for k in block if mu[k] != 0]
            for x in range(n):
                acc = zero
                for k, w in weighted:
                    acc += w * d[x, k]
                tb[x][t] = acc
        bb = [[zero] * m for _ in range(m)]
        for r, block in enumerate(blocks):
            for s in range(r + 1, m):
                acc = zero
                for i in block:
                    w = mu[i]
                    if w != 0:
                        acc += w * tb[i][s]
                bb[r][s] = bb[s][r] = acc
        self._tb = tb
        self._bb = bb
        self._rowsum = [sum(row) for row in bb]

    def block_distance(self, r: int, s: int) -> Num:
        """delta(C_r, C_s) per the weighted double sum."""
        self._ensure_tables()
        return self._bb[r][s]

    def taxon_block_distance(self, x: int, t: int) -> Num:
        """delta(x, C_t) per the weighted single sum."""
        self._ensure_tables()
        return self._tb[x][t]

    def row_sum(self, r: int) -> Num:
        self._ensure_tables()
        return self._rowsum[r]

    def total_pair_sum(self) -> Num:
        """Sum of delta(C_t, C_u) over unordered block pairs."""
        self._ensure_tables()
        total = sum(self._rowsum)
        return total / 2 if not self.is_exact else Fraction(total, 2)

    def with_mu(self, mu) -> "BlockState":
        return BlockState(self.d, self.blocks, mu, self.parts, self.last_merge)

    def to_pco(self):
        from .core import PartialCircularOrdering

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
    d = state.d
    exact = state.is_exact
    h = half(exact)
    path_r, path_s = state.blocks[r], state.blocks[s]
    i2 = path_r[0] if path_r[-1] == i else path_r[-1]
    j2 = path_s[0] if path_s[-1] == j else path_s[-1]
    if m == 2:
        # closing the cycle: the two new edges are (i, j) and the far ends
        return h * (d[i, j] + d[i2, j2]) - state.block_distance(r, s)
    p_total = state.total_pair_sum()
    across = p_total - state.row_sum(r) - state.row_sum(s) + state.block_distance(r, s)
    far_sum = sum(
        state.taxon_block_distance(i2, t) + state.taxon_block_distance(j2, t)
        for t in range(m)
        if t != r and t != s
    )
    if exact:
        return h * d[i, j] + Fraction(across + h * far_sum, m - 2) - Fraction(p_total, m - 1)
    return h * d[i, j] + (across + h * far_sum) / (m - 2) - p_total / (m - 1)


def merge_blocks(state: BlockState, r: int, s: int, i: int, j: int) -> BlockState:
    """Join block r's path at endpoint i to block s's path at endpoint j.

    The merged path sits at index min(r, s); node weights are carried over
    unchanged (adjust_weights produces the new ones).
    """
    if r == s:
        raise ValueError("r and s must differ")
    merged = join_paths(state.blocks[r], state.blocks[s], i, j)
    lo, hi = min(r, s), max(r, s)
    blocks = list(state.blocks)
    parts = list(state.parts)
    blocks[lo] = merged
    del blocks[hi]
    new_parts = (frozenset(state.blocks[r]), frozenset(state.blocks[s]))
    parts[lo] = new_parts
    del parts[hi]
    info = MergeInfo(
        merged_index=lo,
        block_r=frozenset(state.blocks[r]),
        block_s=frozenset(state.blocks[s]),
        parts_r=state.parts[r],
        parts_s=state.parts[s],
        i=i,
        j=j,
    )
    return BlockState(state.d, blocks, state.mu, parts, last_merge=info)


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
    exact = state.is_exact
    mu = dict(state.mu)
    merged_path = state.blocks[info.merged_index]
    if isinstance(scheme, BalancedTSP):
        zero: Num = Fraction(0) if exact else 0.0
        h = half(exact)
        for t in merged_path:
            mu[t] = zero
        mu[merged_path[0]] = h
        mu[merged_path[-1]] = h
    elif isinstance(scheme, TreeWeighting):
        alpha = scheme.resolve_alpha(exact)
        one: Num = Fraction(1) if exact else 1.0
        for t in info.block_r:
            mu[t] = alpha * mu[t]
        for t in info.block_s:
            mu[t] = (one - alpha) * mu[t]
    elif isinstance(scheme, OriginalBM):
        quarter = Fraction(1, 4) if exact else 0.25
        h = half(exact)
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


def _improves(candidate: Num, best: Num, exact: bool) -> bool:
    """Strict improvement; float values within relative 1e-12 count as ties."""
    if exact:
        return candidate < best
    scale = max(1.0, abs(candidate), abs(best))
    return candidate < best - REL_TIE_TOL * scale


def _ties(a: Num, b: Num, exact: bool) -> bool:
    return not _improves(a, b, exact) and not _improves(b, a, exact)


def _select_pair(state: BlockState) -> tuple:
    """Argmin of Q. Ties (which always occur at three blocks, where Q is the
    same for every pair) break first by smaller block distance, a
    label-independent criterion, then by the lexicographic (r, s) scan order.
    """
    exact = state.is_exact
    best_pair = None
    best_q = None
    best_dist = None
    for r in range(state.m):
        for s in range(r + 1, state.m):
            q = q_criterion(state, r, s)
            dist = state.block_distance(r, s)
            if (
                best_q is None
                or _improves(q, best_q, exact)
                or (_ties(q, best_q, exact) and _improves(dist, best_dist, exact))
            ):
                best_pair, best_q, best_dist = (r, s), q, dist
    return best_pair, best_q


def _select_endpoints(state: BlockState, r: int, s: int) -> tuple:
    exact = state.is_exact
    candidates = sorted(
        (i, j) for i in state.endpoints(r) for j in state.endpoints(s)
    )
    best_pair = None
    best_q = None
    for i, j in candidates:
        q = q_hat_criterion(state, r, s, i, j)
        if best_q is None or _improves(q, best_q, exact):
            best_pair, best_q = (i, j), q
    return best_pair, best_q


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
    complement). Selection, tie-breaking, and block bookkeeping mirror
    run_neighbor_net exactly so that split sets can be compared.
    """
    n = d.n
    if n < 3:
        raise ValueError("n >= 3 required")
    exact = d.is_exact
    a = TreeWeighting(alpha).resolve_alpha(exact)
    one: Num = Fraction(1) if exact else 1.0
    dist = [list(row) for row in d.rows]
    blocks = [frozenset((t,)) for t in range(n)]
    splits = set()
    while len(blocks) > 1:
        m = len(blocks)
        if m == 2:
            r, s = 0, 1
        else:
            rowsum = [sum(row) for row in dist]
            best_pair = None
            best_q = None
            best_dist = None
            for r_ in range(m):
                for s_ in range(r_ + 1, m):
                    q = (m - 2) * dist[r_][s_] - rowsum[r_] - rowsum[s_]
                    if (
                        best_q is None
                        or _improves(q, best_q, exact)
                        or (_ties(q, best_q, exact) and _improves(dist[r_][s_], best_dist, exact))
                    ):
                        best_pair, best_q, best_dist = (r_, s_), q, dist[r_][s_]
            r, s = best_pair
        union = blocks[r] | blocks[s]
        if len(union) < n:
            splits.add(Split.of(union, n))
        new_row = [a * dist[r][t] + (one - a) * dist[s][t] for t in range(m)]
        for t in range(m):
            dist[r][t] = new_row[t]
            dist[t][r] = new_row[t]
        dist[r][r] = Fraction(0) if exact else 0.0
        del dist[s]
        for row in dist:
            del row[s]
        blocks[r] = union
        del blocks[s]
    return frozenset(splits)
