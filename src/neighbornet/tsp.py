"""Tour lengths, the agglomerative greedy tour heuristic, exact brute-force
tours for small n, and a TSPLIB EUC_2D reader.

Tour lengths are full cycle lengths (no 1/2 factor): the halving in the
balanced-length definition only symmetrizes the per-ordering average, and
reported tour lengths are conventionally unhalved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence, Union

import numpy as np

from .agglomerate import BalancedTSP, WeightingScheme, run_neighbor_net
from .core import CircularOrdering, DissimilarityMap, Num, canonical_orderings

BRUTE_FORCE_MAX_N = 11
_BATCH = 100_000


def tour_length(d: DissimilarityMap, ordering: Union[CircularOrdering, Sequence[int]]) -> Num:
    """Sum of the n cycle edges of an ordering, or of a sequence of the n taxa
    read as a cycle; exact on exact maps."""
    seq = ordering.order if isinstance(ordering, CircularOrdering) else ordering
    n = len(seq)
    if d.n != n:
        raise ValueError("taxon count mismatch")
    return sum(d[seq[k], seq[(k + 1) % n]] for k in range(n))


@dataclass(frozen=True)
class Tour:
    ordering: CircularOrdering
    length: Num

    @classmethod
    def of(cls, d: DissimilarityMap, ordering: CircularOrdering) -> "Tour":
        return cls(ordering, tour_length(d, ordering))


def greedy_tsp(d: DissimilarityMap, scheme: WeightingScheme = BalancedTSP()) -> Tour:
    """Tour from the agglomerative ordering; optimal on Kalmanson inputs."""
    result = run_neighbor_net(d, scheme)
    return Tour.of(d, result.ordering)


def _brute_force_exact(d: DissimilarityMap) -> Tour:
    # min keeps the first of equal lengths, the lexicographically least cycle
    best = min(canonical_orderings(d.n), key=lambda seq: tour_length(d, seq))
    return Tour.of(d, CircularOrdering(best))


def _brute_force_float(d: DissimilarityMap) -> Tour:
    arr = np.array([[float(v) for v in row] for row in d.rows])
    best_seq, best_len = None, math.inf
    orderings = canonical_orderings(d.n)
    while batch := list(islice(orderings, _BATCH)):
        perms = np.array(batch)
        lengths = arr[perms, np.roll(perms, -1, axis=1)].sum(axis=1)
        k = int(np.argmin(lengths))
        if lengths[k] < best_len:
            best_len = float(lengths[k])
            best_seq = tuple(int(t) for t in perms[k])
    return Tour(CircularOrdering(best_seq), best_len)


def brute_force_tsp(d: DissimilarityMap) -> Tour:
    """Exact minimum over all (n-1)!/2 canonical cycles; ties resolve to the
    lexicographically least canonical ordering."""
    if d.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_MAX_N}")
    if d.is_exact:
        return _brute_force_exact(d)
    return _brute_force_float(d)


def read_tsplib_euc2d(text: str, rounding: str = "none") -> DissimilarityMap:
    """Parse a TSPLIB file with EDGE_WEIGHT_TYPE EUC_2D.

    rounding="tsplib" applies the standard nearest-integer rounding;
    rounding="none" (default) keeps unrounded Euclidean distances.
    """
    if rounding not in ("none", "tsplib"):
        raise ValueError("rounding must be 'none' or 'tsplib'")
    header = {}
    coord_lines = []
    in_coords = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "EOF":
            continue
        if in_coords:
            coord_lines.append(line)
            continue
        if line.upper().startswith("NODE_COORD_SECTION"):
            in_coords = True
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            header[key.strip().upper()] = value.strip()
        else:
            header[line.upper()] = ""
    if "DIMENSION" not in header:
        raise ValueError("malformed header: missing DIMENSION")
    if not in_coords:
        raise ValueError("malformed header: missing NODE_COORD_SECTION")
    weight_type = header.get("EDGE_WEIGHT_TYPE", "").upper()
    if weight_type != "EUC_2D":
        raise ValueError(f"unsupported EDGE_WEIGHT_TYPE {weight_type or '(none)'}")
    n = int(header["DIMENSION"])
    if len(coord_lines) != n:
        raise ValueError(f"coordinate count mismatch: expected {n}, got {len(coord_lines)}")
    coords = []
    for line in coord_lines:
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"bad coordinate line: {line!r}")
        coords.append((float(parts[1]), float(parts[2])))
    rows: list = [[0] * n for _ in range(n)]
    for i in range(n):
        xi, yi = coords[i]
        for j in range(i + 1, n):
            xj, yj = coords[j]
            dist = math.hypot(xi - xj, yi - yj)
            if rounding == "tsplib":
                dist = int(dist + 0.5)
            rows[i][j] = rows[j][i] = dist
    return DissimilarityMap(rows)
