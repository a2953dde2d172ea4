"""Balanced length of dissimilarity maps over partial circular orderings and
split systems, adjacency counts, and the Z-criterion.

Everything here is oracle machinery: the enumerators are capped and the
agglomeration engine never calls them. All quantities stay exact when the
input distances are exact.

The balanced length of a map d over a partial circular ordering C averages
half the tour length over every circular ordering consistent with C:

    l(d, C) = (1 / |o(C)|) * sum_orderings (1/2) sum_k d(x_k, x_{k+1})
            = (1 / (2 |o(C)|)) * sum_{i<j} eta_C(i, j) d(i, j)

where eta_C(i, j) counts the consistent orderings in which i and j are
adjacent. The split-system length uses the same normalization with
"consistent" meaning every split is a contiguous arc of the ordering.

Every division here is num / Fraction(den), with den an int: a Fraction
when num is an int or a Fraction, and for a float num the float num / den
bit for bit. So exact inputs give exact results with no exactness flag.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable

from .agglomerate import BlockState, q_criterion
from .core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    PartialCircularOrdering,
    Split,
    canonical_cycle,
    canonical_orderings,
    count_distinct_orderings,
    is_circular_split,
    join_paths,
    merged_at,
)
from .tsp import tour_length

DEFAULT_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EtaTable:
    """Adjacency counts eta(i, j) per unordered pair, with the number of
    orderings they were counted over."""

    n: int
    counts: dict
    total_orderings: Num

    def eta(self, i: int, j: int) -> Num:
        if i == j:
            return 0
        return self.counts.get((min(i, j), max(i, j)), 0)

    def row_sum(self, i: int) -> Num:
        return sum(self.eta(i, j) for j in range(self.n) if j != i)

    def pairs(self):
        return combinations(range(self.n), 2)


def adjacency_counts(orderings: Iterable[CircularOrdering]) -> dict:
    """(i, j) with i < j -> the number of the orderings in which i and j are
    adjacent."""
    counts: dict = defaultdict(int)
    for o in orderings:
        seq = o.order
        for a, b in zip(seq, seq[1:] + seq[:1]):
            counts[(min(a, b), max(a, b))] += 1
    return dict(counts)


def _mean_half_tour(d: DissimilarityMap, orderings: list) -> Num:
    """Average half tour length over the orderings (sequences or orderings)."""
    return sum(tour_length(d, o) for o in orderings) / Fraction(2 * len(orderings))


def count_consistent_orderings(pco: PartialCircularOrdering) -> int:
    """(1/2) (m-1)! * prod_r |endpoints(C_r)|, and 1 for a single block."""
    m = pco.m
    if m == 1:
        return 1
    prod = 1
    for r in range(m):
        prod *= len(pco.endpoints(r))
    return math.factorial(m - 1) * prod // 2


def enumerate_consistent_orderings(
    pco: PartialCircularOrdering, cap: int = DEFAULT_CAP
) -> list:
    """All canonical circular orderings that keep every block's path intact."""
    expected = count_consistent_orderings(pco)
    if expected > cap:
        raise EnumerationCapExceeded(f"{expected} consistent orderings exceed cap {cap}")
    first, rest = pco.blocks[0], pco.blocks[1:]
    seen = set()
    for perm in permutations(rest):
        arrangement = (first,) + perm
        orient_choices = [
            ((b, b[::-1]) if len(b) > 1 else (b,)) for b in arrangement
        ]
        for oriented in product(*orient_choices):
            seq = [t for b in oriented for t in b]
            seen.add(canonical_cycle(seq))
    assert len(seen) == expected
    return [CircularOrdering(o) for o in sorted(seen)]


def pco_join(
    pco: PartialCircularOrdering, r: int, s: int, i: int, j: int
) -> PartialCircularOrdering:
    """The single-edge extension joining block r at endpoint i to block s at j."""
    merged = join_paths(pco.blocks[r], pco.blocks[s], i, j)
    return PartialCircularOrdering(merged_at(pco.blocks, r, s, merged))


def join_extensions(pco: PartialCircularOrdering, r: int, s: int):
    """All joined partial orderings over the endpoint choices of blocks r, s."""
    for i in pco.endpoints(r):
        for j in pco.endpoints(s):
            yield (i, j), pco_join(pco, r, s, i, j)


def eta_table(pco: PartialCircularOrdering, cap: int = DEFAULT_CAP) -> EtaTable:
    """Brute-force adjacency counts over the consistent orderings."""
    orderings = enumerate_consistent_orderings(pco, cap)
    return EtaTable(pco.n, adjacency_counts(orderings), len(orderings))


def eta_table_for_join(
    pco: PartialCircularOrdering, r: int, s: int, mu
) -> EtaTable:
    """Closed-form adjacency counts over o(C_{r,s}), the orderings consistent
    with some endpoint joining of blocks r and s.

    Only valid for TSP-style weightings (interior weights zero) and m >= 3.
    """
    m = pco.m
    if m < 3:
        raise ValueError("closed form requires at least 3 blocks")
    if r == s:
        raise ValueError("r and s must differ")
    for t_idx, block in enumerate(pco.blocks):
        ends = pco.endpoints(t_idx)
        for t in block:
            if t not in ends and mu[t] != 0:
                raise ValueError("closed form requires a TSP weighting (interior weights zero)")
    n_total = count_consistent_orderings(pco)
    block_of = {t: b for b, blk in enumerate(pco.blocks) for t in blk}
    adjacent = {(min(a, b), max(a, b)) for a, b in pco.adjacent_pairs()}

    counts = {}
    n = pco.n
    for i, j in combinations(range(n), 2):
        bi, bj = block_of[i], block_of[j]
        if bi == bj:
            val = 2 * n_total / Fraction(m - 1) if (i, j) in adjacent else 0
        else:
            mm = mu[i] * mu[j]
            if {bi, bj} == {r, s}:
                val = 2 * n_total * mm / Fraction(m - 1)
            elif bi in (r, s) or bj in (r, s):
                val = 2 * n_total * mm / Fraction((m - 1) * (m - 2))
            else:
                val = 4 * n_total * mm / Fraction((m - 1) * (m - 2))
        if val:
            counts[(i, j)] = val
    return EtaTable(n, counts, 2 * n_total / Fraction(m - 1))


def balanced_length(
    d: DissimilarityMap, pco: PartialCircularOrdering, cap: int = DEFAULT_CAP
) -> Num:
    """Average half tour length over the orderings consistent with pco."""
    if d.n != pco.n:
        raise ValueError("taxon count mismatch")
    return _mean_half_tour(d, enumerate_consistent_orderings(pco, cap))


def balanced_length_from_eta(d: DissimilarityMap, table: EtaTable) -> Num:
    """The eta-weighted form of the balanced length; agrees with the average."""
    total = sum(table.eta(i, j) * d[i, j] for i, j in table.pairs())
    return total / (2 * Fraction(table.total_orderings))


def balanced_length_of_join_family(
    d: DissimilarityMap,
    pco: PartialCircularOrdering,
    r: int,
    s: int,
    cap: int = DEFAULT_CAP,
) -> Num:
    """l(d, C_{r,s}): balanced length over the union of the endpoint joinings."""
    seen = set()
    for _, joined in join_extensions(pco, r, s):
        for o in enumerate_consistent_orderings(joined, cap):
            seen.add(o.order)
    return _mean_half_tour(d, list(seen))


def w_neighborliness(state: BlockState, r: int, s: int, t: int, u: int) -> Num:
    """Pairwise neighborliness w(C_r C_s : C_t C_u)."""
    bd = state.block_distance
    val = (
        bd(r, t) + bd(r, u) + bd(s, t) + bd(s, u) - 2 * bd(r, s) - 2 * bd(t, u)
    )
    return val / Fraction(2)


def z_criterion(state: BlockState, r: int, s: int) -> Num:
    """Balanced-length decrease achieved by joining blocks r and s:

        Z(r, s) = l(d, C) - l(d, C_{r,s})
                = -P / ((m-1)(m-2)) - Q(r, s) / (2 (m-2))

    with P the sum of block distances over unordered pairs. Equivalently
    Z = sum_{t<u not in {r,s}} w(C_r C_s : C_t C_u) / ((m-1)(m-2)). Requires
    m >= 3 blocks.
    """
    if r == s:
        raise ValueError("r and s must differ")
    m = state.m
    if m < 3:
        raise ValueError("Z-criterion requires at least 3 blocks")
    p_total = state.total_pair_sum()
    q = q_criterion(state, r, s)
    return -p_total / Fraction((m - 1) * (m - 2)) - q / Fraction(2 * (m - 2))


def z_from_w_sum(state: BlockState, r: int, s: int) -> Num:
    """Z recomputed from the neighborliness sum; equals z_criterion."""
    m = state.m
    if m < 3:
        raise ValueError("requires at least 3 blocks")
    others = [t for t in range(m) if t not in (r, s)]
    total = state.scalar(0)
    for a in range(len(others)):
        for b in range(a + 1, len(others)):
            total += w_neighborliness(state, r, s, others[a], others[b])
    return total / Fraction((m - 1) * (m - 2))


def split_system_orderings(
    splits: Iterable[Split], n: int, cap: int = DEFAULT_CAP
) -> list:
    """Canonical orderings for which every split is a contiguous arc."""
    splits = list(splits)
    if any(s.n != n for s in splits):
        raise ValueError("split taxon count mismatch")
    if count_distinct_orderings(n) > cap:
        raise EnumerationCapExceeded(
            f"{count_distinct_orderings(n)} candidate orderings exceed cap {cap}"
        )
    out = []
    for seq in canonical_orderings(n):
        o = CircularOrdering(seq)
        if all(is_circular_split(s, o) for s in splits):
            out.append(o)
    return out


def eta_for_splits(splits: Iterable[Split], n: int, cap: int = DEFAULT_CAP) -> EtaTable:
    orderings = split_system_orderings(splits, n, cap)
    if not orderings:
        raise ValueError("no circular ordering is consistent with the split system")
    return EtaTable(n, adjacency_counts(orderings), len(orderings))


def split_system_length(
    d: DissimilarityMap, splits: Iterable[Split], cap: int = DEFAULT_CAP
) -> Num:
    """Length of d with respect to a circular split system, normalized the same
    way as the balanced length over partial orderings."""
    return balanced_length_from_eta(d, eta_for_splits(splits, d.n, cap))
