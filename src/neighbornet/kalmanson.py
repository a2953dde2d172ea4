"""Kalmanson and four-point condition checking, ordering search, and the
perturbation-radius check.

The Kalmanson check reads the lambda formula: d is Kalmanson for an ordering
exactly when every nontrivial arc has lambda >= 0, an O(n^2) test. The
four-deep scan over position quadruples is its test oracle, in
neighbornet.oracle, beside the quartet sets.

Tolerance: a sum of two distances counts as larger than another only when it
is larger by more than tol; the Kalmanson check applies it at each arc's
corner quadruple. An explicit tol is absolute; the default is 0 on an exact
map and FLOAT_TOL * max|d| on a float map, so scale changes no verdict.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .agglomerate import BalancedTSP, run_neighbor_net
from .core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    WeightedSplitSystem,
    all_circular_splits,
    corner_differences,
    is_exact_number,
    metric_from_splits,
)

FLOAT_TOL = 1e-9


def _default_tol(d: DissimilarityMap, tol) -> Num:
    if tol is not None:
        return tol
    return 0 if d.is_exact else FLOAT_TOL * d.array.max().item()


def first_kalmanson_violation(
    d: DissimilarityMap, ordering: CircularOrdering, tol=None
) -> Optional[dict]:
    """A position quadruple i<j<k<l violating either inequality, or None.

    d is Kalmanson for the ordering exactly when every nontrivial arc (of
    length 2..n-2) has lambda >= 0 (Chepoi & Fichet 1998), so the check reads
    the doubled lambdas of core.corner_differences. An arc a..b whose value
    is below -tol names its corner quadruple (a-1, a, b, b+1), which violates
    by that much; the first such arc in row-major (a, b) order is reported.
    tol bounds each corner quadruple, so a violation spread over several
    arcs, each within tol, passes.
    """
    if d.n != ordering.n:
        raise ValueError("taxon count mismatch")
    tol = _default_tol(d, tol)
    n = d.n
    pos = np.arange(n)
    length = (pos[None, :] - pos[:, None]) % n + 1  # of the arc a..b
    negative = corner_differences(d, ordering) < -tol
    arcs = np.flatnonzero(negative & (length >= 2) & (length <= n - 2))
    if arcs.size == 0:
        return None
    a, b = divmod(int(arcs[0]), n)
    positions = tuple(sorted({(a - 1) % n, a, b, (b + 1) % n}))
    taxa = tuple(ordering.order[p] for p in positions)
    i, j, k, l = taxa
    return {"positions": positions, "taxa": taxa, "near_sum": d[i, j] + d[k, l],
            "cross_sum": d[i, k] + d[j, l], "wrap_sum": d[i, l] + d[j, k]}


def is_kalmanson(d: DissimilarityMap, ordering: CircularOrdering, tol=None) -> bool:
    """Both quadruple inequalities hold at every i<j<k<l: exactly on an exact
    map with tol 0, and within tol at each arc's corner quadruple otherwise."""
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


def find_kalmanson_ordering(d: DissimilarityMap, tol=None) -> Optional[CircularOrdering]:
    """The agglomeration's ordering when d is Kalmanson with respect to it, else
    None: sound, but it may miss an ordering on non-generic inputs (the
    exhaustive search is neighbornet.oracle.brute_force_kalmanson_ordering)."""
    ordering = run_neighbor_net(d, BalancedTSP()).ordering
    return ordering if is_kalmanson(d, ordering, tol) else None


def radius_perturbation_check(
    system: WeightedSplitSystem,
    noise: Sequence[Sequence[Num]],
    *,
    enforce_bound: bool = True,
) -> bool:
    """Run the agglomeration on metric(system) + noise; True iff every split of
    the system is circular with respect to the output ordering.

    With enforce_bound, require the system to hold all n(n-1)/2 circular
    splits of one ordering and sup|noise| < min weight / 2, the radius inside
    which recovery is guaranteed: each arc's lambda is its split's weight,
    noise moves it by at most 2 sup|noise|, so every lambda stays positive
    and the map Kalmanson. A missing split's lambda is 0, which noise may
    push negative. Pass enforce_bound=False to probe beyond it. Either way
    noise must be an n x n array of finite numbers, checked before any run.
    """
    if not system:
        raise ValueError("system has no splits")
    noise = np.array(noise, dtype=object)  # added entry by entry as Python numbers
    if noise.shape != (system.n, system.n):
        raise ValueError("noise shape mismatch")
    for (i, j), v in np.ndenumerate(noise):
        if not (is_exact_number(v) or math.isfinite(v)):
            raise ValueError(f"non-finite noise entry at ({i},{j})")
    clean = metric_from_splits(system)
    if enforce_bound:
        ordering = run_neighbor_net(clean, BalancedTSP()).ordering
        if system.splits != all_circular_splits(ordering):
            raise ValueError("perturbation bound needs weight on every circular split of one ordering")
        if not max(abs(v) for v in noise.flat) < min(w for _, w in system.items()) / 2:
            raise ValueError("perturbation bound violated: sup|noise| must be < min weight / 2")
    result = run_neighbor_net(DissimilarityMap(clean.array + noise), BalancedTSP())
    return system.splits <= all_circular_splits(result.ordering)
