"""Brute-force oracles, each capped: the orderings consistent with a partial
ordering or a split system and the lengths averaged over them, the
neighborliness sum behind the Z-criterion, the eta-weighted least-squares
length identity, exact minimum tours, the four-deep Kalmanson scan, the
quartet sets and an exhaustive Kalmanson search; the node-weighting
axioms, which the tests check along agglomeration steps; and the readings
of the paper's identities that only the tests use: the split metric
delta_S, split compatibility and circularity, the canonical orderings, Z as
the balanced-length drop over the join family, the four-point condition
and the residual of a split weighting.

A quartet (ab;cd) is stored as frozenset({frozenset({a,b}), frozenset({c,d})})
over taxa, so quartet sets from different orderings compare directly.

Oracle-only: no other module of the package imports this one. The tests pin
the closed forms and the agglomeration against these enumerations.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .agglomerate import BlockState, q_criterion
from .core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    PartialCircularOrdering,
    Split,
    WeightedSplitSystem,
    canonical_cycle,
    count_distinct_orderings,
    join_paths,
    merged_at,
    pair_sums,
    sides_of,
    sorted_splits,
    split_masks,
    upper_pairs,
)
from .kalmanson import _default_tol, first_four_point_violation
from .length import EtaTable, balanced_length, balanced_length_from_eta, count_consistent_orderings
from .tsp import Tour, tour_length
from .weights import DesignMatrix

DEFAULT_CAP = 10**6
BRUTE_FORCE_LIMIT = 9
BRUTE_FORCE_MAX_N = 11
_BATCH = 100_000


class EnumerationCapExceeded(RuntimeError):
    pass


class NodeWeighting:
    """Per-taxon weights mu relative to a partial circular ordering, with the
    axioms of a node weighting: in every block the weights are nonnegative,
    sum to 1 and are positive on the path's endpoints. BalancedTSP and
    TreeWeighting keep them at every step; OriginalBM does not, as its
    block weights no longer sum to 1."""

    __slots__ = ("mu",)

    def __init__(self, mu: Mapping[int, Num]):
        self.mu = dict(mu)

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


def join_extensions(pco: PartialCircularOrdering, r: int, s: int):
    """((i, j), the single-edge extension joining block r at endpoint i to
    block s at endpoint j) for every endpoint choice."""
    for i in pco.endpoints(r):
        for j in pco.endpoints(s):
            merged = join_paths(pco.blocks[r], pco.blocks[s], i, j)
            yield (i, j), PartialCircularOrdering(merged_at(pco.blocks, r, s, merged))


def balanced_length_of_join_family(
    d: DissimilarityMap, pco: PartialCircularOrdering, r: int, s: int
) -> Num:
    """l(d, C_{r,s}): balanced length over the union of the endpoint joinings,
    the mean over the joinings, whose families are disjoint and of equal size
    for m >= 3 (for m = 2 each cycle recurs equally often)."""
    lengths = [balanced_length(d, joined) for _, joined in join_extensions(pco, r, s)]
    return sum(lengths) / Fraction(len(lengths))


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
        orient_choices = [(b, b[::-1]) if len(b) > 1 else (b,) for b in arrangement]
        for oriented in product(*orient_choices):
            seq = [t for b in oriented for t in b]
            seen.add(canonical_cycle(seq))
    assert len(seen) == expected
    return [CircularOrdering(o) for o in sorted(seen)]


def enumerated_eta_table(pco: PartialCircularOrdering, cap: int = DEFAULT_CAP) -> EtaTable:
    """Adjacency counts over the enumerated consistent orderings."""
    orderings = enumerate_consistent_orderings(pco, cap)
    return EtaTable(pco.n, adjacency_counts(orderings), len(orderings))


def enumerated_balanced_length(
    d: DissimilarityMap, pco: PartialCircularOrdering, cap: int = DEFAULT_CAP
) -> Num:
    """Average half tour length over the orderings consistent with pco."""
    if d.n != pco.n:
        raise ValueError("taxon count mismatch")
    return _mean_half_tour(d, enumerate_consistent_orderings(pco, cap))


def enumerated_join_family_length(
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
    return (bd(r, t) + bd(r, u) + bd(s, t) + bd(s, u) - 2 * bd(r, s) - 2 * bd(t, u)) / Fraction(2)


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


def split_metric(s: Split, i: int, j: int) -> int:
    """0 if i and j lie in the same block of s, else 1."""
    if not (0 <= i < s.n and 0 <= j < s.n):
        raise IndexError("taxon index out of range")
    return 1 if s.separates(i, j) else 0


def is_pairwise_compatible(splits: Iterable[Split]) -> bool:
    """True iff every two splits are compatible: some side of one misses
    some side of the other."""
    splits = list(splits)
    n = splits[0].n if splits else 0
    if any(s.n != n for s in splits):
        raise ValueError("splits over different taxon sets")
    sides = sides_of(splits, n).astype(int)
    meets = [x.T @ y for x in (sides, 1 - sides) for y in (sides, 1 - sides)]
    return not (np.minimum.reduce(meets) > 0).any()


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
    orderings = map(CircularOrdering, canonical_orderings(n))
    return [o for o in orderings if all(is_circular_split(s, o) for s in splits)]


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


def _solve_normal_equations_exact(a, weights, y):
    """Solve (A^T W A) x = A^T W y over Fractions; free coordinates are 0.

    The normal equations are always consistent, so a solution exists even when
    the design is rank-deficient.
    """
    n = a.shape[1]
    aug = [[Fraction(0)] * (n + 1) for _ in range(n)]  # [A^T W A | A^T W y], over each row's nonzero columns
    for row, wt in zip(np.column_stack([a, y]).tolist(), map(Fraction, weights)):
        cols = [c for c in range(n) if row[c]] if wt else []  # a row of weight zero adds nothing
        for i, j in product(cols, cols + [n]):
            aug[i][j] += wt * row[i] * row[j]
    pivots = []
    rank_row = 0
    for col in range(n):
        pivot = next((r for r in range(rank_row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank_row], aug[pivot] = aug[pivot], aug[rank_row]
        pv = aug[rank_row][col]
        aug[rank_row] = [v / pv for v in aug[rank_row]]
        for r in range(n):
            if r != rank_row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[rank_row])]
        pivots.append((rank_row, col))
        rank_row += 1
    x = [Fraction(0)] * n
    for r, col in pivots:
        x[col] = aug[r][n]
    # consistency check (zero rows must have zero rhs)
    for r in range(rank_row, n):
        if aug[r][n] != 0:
            raise ArithmeticError("inconsistent normal equations")
    return x


def wls_split_weights(
    d: DissimilarityMap, splits, pair_weights: Mapping[tuple, Num]
) -> dict:
    """Unconstrained weighted least squares over the given splits.

    Exact (Fraction) when d and the weights are exact, else a float
    minimum-norm solve. Weight-zero pairs are excluded. The sum of the fitted
    values is invariant across solutions of a rank-deficient system because
    every split crosses exactly two edges of any consistent ordering.
    """
    splits = sorted_splits(splits)
    rows, cols = upper_pairs(d.n)  # the design's row order
    a = np.array(list(split_masks(splits, d.n)), dtype=float).reshape(len(splits), len(rows)).T
    w = [pair_weights.get(p, 0) for p in zip(rows.tolist(), cols.tolist())]
    if d.is_exact and all(not isinstance(v, float) for v in w):
        y = d.array[rows, cols]
        return dict(zip(splits, _solve_normal_equations_exact(a.astype(int), w, y)))
    root = np.sqrt(np.array(w, dtype=float))  # scales each row of A and b
    sol, *_ = np.linalg.lstsq(a * root[:, None], DesignMatrix.rhs(d) * root, rcond=None)
    return dict(zip(splits, (float(v) for v in sol)))


def wls_length_identity_check(
    d: DissimilarityMap, splits, cap: int = DEFAULT_CAP
) -> tuple:
    """Return (lhs, rhs): the split-system length of d, and the sum of the
    eta-weighted least-squares split weights. The two agree when the variance
    of each observed distance is inversely proportional to its adjacency
    count."""
    splits = list(splits)
    n = d.n
    table = eta_for_splits(splits, n, cap)
    lam = wls_split_weights(d, splits, table.counts)  # the nonzero counts
    lhs = split_system_length(d, splits, cap)
    rhs = sum(lam.values())
    return lhs, rhs


def reconstruction_residual(d: DissimilarityMap, lam: Mapping[Split, Num]) -> float:
    """Sum of squared errors between d and the metric of lam, whose weights
    may be negative."""
    errors = DesignMatrix.rhs(d) - pair_sums(lam, d.n)
    return float(np.sum(errors**2))


def brute_force_tsp(d: DissimilarityMap) -> Tour:
    """Exact minimum over all (n-1)!/2 canonical cycles; ties resolve to the
    lexicographically least canonical ordering. Cycles are scored in batches,
    in that order: in float64, or on an exact map as integer numerators over
    the entries' common denominator, which add far faster than Fractions."""
    if d.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_MAX_N}")
    a, den = d.integer_form if d.is_exact else (d.array, 1)
    best_seq = best_len = None
    orderings = canonical_orderings(d.n)
    while batch := list(islice(orderings, _BATCH)):
        perms = np.array(batch)
        lengths = a[perms, np.roll(perms, -1, axis=1)].sum(axis=1)
        k = int(np.argmin(lengths))  # the first of equal minima
        if best_len is None or lengths[k] < best_len:
            best_len = lengths.item(k)
            best_seq = tuple(perms[k].tolist())
    return Tour(CircularOrdering(best_seq), Fraction(best_len, den) if d.is_exact else best_len)


def satisfies_four_point(d: DissimilarityMap, tol=None) -> bool:
    return first_four_point_violation(d, tol) is None


def brute_force_kalmanson_violation(
    d: DissimilarityMap, ordering: CircularOrdering, tol=None
) -> Optional[dict]:
    """First position quadruple i<j<k<l violating either inequality, or None."""
    if d.n != ordering.n:
        raise ValueError("taxon count mismatch")
    tol = _default_tol(d, tol)
    x = ordering.order
    n = d.n
    dx = d.array.take(x, 0).take(x, 1).tolist()  # dx[i][j] = d(x_i, x_j); lists index fastest
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    cross = dx[i][k] + dx[j][l]
                    near = dx[i][j] + dx[k][l]
                    wrap = dx[i][l] + dx[j][k]
                    if near > cross + tol or wrap > cross + tol:
                        return {
                            "positions": (i, j, k, l),
                            "taxa": (x[i], x[j], x[k], x[l]),
                            "near_sum": near,
                            "cross_sum": cross,
                            "wrap_sum": wrap,
                        }
    return None


def brute_force_kalmanson_ordering(d: DissimilarityMap, tol=None) -> Optional[CircularOrdering]:
    """The first canonical ordering making d Kalmanson, or None (n <= 9)."""
    if d.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force search capped at n={BRUTE_FORCE_LIMIT}")
    tol = _default_tol(d, tol)
    for seq in canonical_orderings(d.n):
        ordering = CircularOrdering(seq)
        if brute_force_kalmanson_violation(d, ordering, tol) is None:
            return ordering
    return None


def quartet(a: int, b: int, c: int, d: int) -> frozenset:
    return frozenset({frozenset({a, b}), frozenset({c, d})})


def quartets_of_ordering(ordering: CircularOrdering) -> frozenset:
    """W_pi: for every position quadruple the two non-crossing pairings."""
    return frozenset(
        q
        for i, j, k, l in combinations(ordering.order, 4)  # taxa in position order
        for q in (quartet(i, j, k, l), quartet(i, l, j, k))
    )


def strict_quartets(d: DissimilarityMap, ordering: CircularOrdering, tol=None) -> frozenset:
    """W_delta: the quartets whose Kalmanson inequality is strict (beyond tol)."""
    tol = _default_tol(d, tol)
    if brute_force_kalmanson_violation(d, ordering, tol) is not None:
        raise ValueError("map is not Kalmanson with respect to the ordering")
    x = ordering.order
    dx = d.array.take(x, 0).take(x, 1).tolist()  # dx[i][j] = d(x_i, x_j); lists index fastest
    out = set()
    for i, j, k, l in combinations(range(d.n), 4):
        cross = dx[i][k] + dx[j][l]
        if dx[i][j] + dx[k][l] < cross - tol:
            out.add(quartet(x[i], x[j], x[k], x[l]))
        if dx[i][l] + dx[j][k] < cross - tol:
            out.add(quartet(x[i], x[l], x[j], x[k]))
    return frozenset(out)


def positive_split_quartets(system: WeightedSplitSystem) -> frozenset:
    """Quartets (ab;cd) separated by some split of positive weight."""
    return frozenset(
        quartet(a, b, c, e)
        for i, j, k, l in combinations(range(system.n), 4)
        for a, b, c, e in ((i, j, k, l), (i, k, j, l), (i, l, j, k))
        if any(
            not s.separates(a, b) and not s.separates(c, e) and s.separates(a, c)
            for s in system
        )
    )
