"""Kalmanson and four-point condition checking, and ordering search.

The Kalmanson check reads the lambda formula: d is Kalmanson for an ordering
exactly when every nontrivial arc has lambda >= 0, an O(n^2) test. The
four-deep scan over position quadruples is its test oracle, in
neighbornet.oracle, beside the quartet sets.

Tolerance: a sum of two distances counts as larger than another only when it
is larger by more than tol; the Kalmanson check applies it at each arc's
corner quadruple. An explicit tol is absolute and >= 0 (NaN raises); the
default is 0 on an exact map, FLOAT_TOL * max|d| on a float map: scale-free.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .agglomerate import BalancedTSP, run_neighbor_net
from .core import CircularOrdering, DissimilarityMap, Num, as_fraction, corner_numerators

FLOAT_TOL = 1e-9


def _default_tol(d: DissimilarityMap, tol) -> Num:
    if tol is None:
        return 0 if d.is_exact else FLOAT_TOL * d.array.max().item()
    if not tol >= 0:  # a NaN fails this too: every comparison with it is False
        raise ValueError(f"tol must be >= 0, not {tol}")
    return tol


def first_kalmanson_violation(
    d: DissimilarityMap, ordering: CircularOrdering, tol=None
) -> Optional[dict]:
    """A position quadruple i<j<k<l violating either inequality, or None.

    d is Kalmanson for the ordering exactly when every nontrivial arc (of
    length 2..n-2) has lambda >= 0 (Chepoi & Fichet 1998), so the check reads
    the doubled lambdas of core.corner_numerators. An arc a..b whose value
    is below -tol names its corner quadruple (a-1, a, b, b+1), which violates
    by that much; the first such arc in row-major (a, b) order is reported.
    tol bounds each corner quadruple, so a violation spread over several
    arcs, each within tol, passes. On an exact map the integer numerators v
    are compared with tol * den exactly, a float tol taken at its binary
    value: v / den < -tol exactly when v < -floor(tol * den).
    """
    values, den = corner_numerators(d, ordering)  # raises on a taxon count mismatch
    tol = _default_tol(d, tol)
    n = d.n
    pos = np.arange(n)
    length = (pos[None, :] - pos[:, None]) % n + 1  # of the arc a..b
    bound = -tol  # on a float map, and for an infinite tol
    if den is not None and tol != math.inf:
        tol = as_fraction(tol)
        bound = -(tol.numerator * den // tol.denominator)
    negative = values < bound
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
    tol = _default_tol(d, tol)  # refused before the run
    ordering = run_neighbor_net(d, BalancedTSP()).ordering
    return ordering if is_kalmanson(d, ordering, tol) else None
