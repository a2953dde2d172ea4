"""Kalmanson and four-point condition checking, quartet extraction, ordering
search, and the perturbation-radius check.

A quartet (ab;cd) is stored as frozenset({frozenset({a,b}), frozenset({c,d})})
over taxa, so quartet sets from different orderings compare directly.

Tolerance: a sum of two distances counts as larger than another only when it
is larger by more than tol. An explicit tol is absolute; the default is 0 on
an exact map and FLOAT_TOL * max|d| on a float map, so scale changes no verdict.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .agglomerate import BalancedTSP, run_neighbor_net
from .core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    WeightedSplitSystem,
    is_circular_split,
    metric_from_splits,
)

FLOAT_TOL = 1e-9


def _default_tol(d: DissimilarityMap, tol) -> Num:
    if tol is not None:
        return tol
    return 0 if d.is_exact else FLOAT_TOL * d.array.max().item()


def quartet(a: int, b: int, c: int, d: int) -> frozenset:
    return frozenset({frozenset({a, b}), frozenset({c, d})})


def first_kalmanson_violation(
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


def is_kalmanson(d: DissimilarityMap, ordering: CircularOrdering, tol=None) -> bool:
    """Both quadruple inequalities hold (within tol) at every i<j<k<l."""
    return first_kalmanson_violation(d, ordering, tol) is None


def first_four_point_violation(d: DissimilarityMap, tol=None) -> Optional[dict]:
    """First quadruple where the max of the three pairwise sums is attained
    only once (beyond tol), or None."""
    tol = _default_tol(d, tol)
    n = d.n
    dd = d.array.tolist()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    sums = sorted((dd[i][j] + dd[k][l], dd[i][k] + dd[j][l], dd[i][l] + dd[j][k]))
                    if sums[2] - sums[1] > tol:
                        return {"taxa": (i, j, k, l), "sums": tuple(sums)}
    return None


def satisfies_four_point(d: DissimilarityMap, tol=None) -> bool:
    return first_four_point_violation(d, tol) is None


def quartets_of_ordering(ordering: CircularOrdering) -> frozenset:
    """W_pi: for every position quadruple the two non-crossing pairings."""
    x = ordering.order
    n = ordering.n
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    out.add(quartet(x[i], x[j], x[k], x[l]))
                    out.add(quartet(x[i], x[l], x[j], x[k]))
    return frozenset(out)


def strict_quartets(d: DissimilarityMap, ordering: CircularOrdering, tol=None) -> frozenset:
    """W_delta: the quartets whose Kalmanson inequality is strict (beyond tol)."""
    tol = _default_tol(d, tol)
    if not is_kalmanson(d, ordering, tol):
        raise ValueError("map is not Kalmanson with respect to the ordering")
    x = ordering.order
    n = d.n
    dx = d.array.take(x, 0).take(x, 1).tolist()  # dx[i][j] = d(x_i, x_j); lists index fastest
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    cross = dx[i][k] + dx[j][l]
                    if dx[i][j] + dx[k][l] < cross - tol:
                        out.add(quartet(x[i], x[j], x[k], x[l]))
                    if dx[i][l] + dx[j][k] < cross - tol:
                        out.add(quartet(x[i], x[l], x[j], x[k]))
    return frozenset(out)


def positive_split_quartets(system: WeightedSplitSystem) -> frozenset:
    """Quartets (ab;cd) separated by some split of positive weight."""
    n = system.n
    positive = [s for s, w in system.items() if w > 0]
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    for a, b, c, dd in (
                        (i, j, k, l),
                        (i, k, j, l),
                        (i, l, j, k),
                    ):
                        if any(
                            not s.separates(a, b)
                            and not s.separates(c, dd)
                            and s.separates(a, c)
                            for s in positive
                        ):
                            out.add(quartet(a, b, c, dd))
    return frozenset(out)


def find_kalmanson_ordering(d: DissimilarityMap, tol=None) -> Optional[CircularOrdering]:
    """The agglomeration's ordering when d is Kalmanson with respect to it, else
    None: sound, but it may miss an ordering on non-generic inputs (the
    exhaustive search is neighbornet.oracle.brute_force_kalmanson_ordering)."""
    ordering = run_neighbor_net(d, BalancedTSP()).ordering
    return ordering if is_kalmanson(d, ordering, tol) else None


def perturbed_map(system: WeightedSplitSystem, noise: Sequence[Sequence[Num]]) -> DissimilarityMap:
    """metric_from_splits(system) + noise, validated symmetric with zero diagonal."""
    base = metric_from_splits(system).array
    noise = np.array(noise, dtype=object)  # added entry by entry as Python numbers
    if noise.shape != base.shape:
        raise ValueError("noise shape mismatch")
    return DissimilarityMap(base + noise)


def radius_perturbation_check(
    system: WeightedSplitSystem,
    noise: Sequence[Sequence[Num]],
    *,
    enforce_bound: bool = True,
) -> bool:
    """Run the agglomeration on metric(system) + noise; True iff every split of
    the system is circular with respect to the output ordering.

    With enforce_bound, require sup|noise| < min weight / 2, the radius inside
    which recovery is guaranteed. Pass enforce_bound=False to probe beyond it.
    """
    weights = [w for _, w in system.items()]
    if not weights or min(weights) <= 0:
        raise ValueError("system must have all-positive weights")
    sup = max(abs(v) for row in noise for v in row)
    if enforce_bound and not sup < min(weights) / 2:
        raise ValueError("perturbation bound violated: sup|noise| must be < min weight / 2")
    d = perturbed_map(system, noise)
    result = run_neighbor_net(d, BalancedTSP())
    return all(is_circular_split(s, result.ordering) for s in system)
