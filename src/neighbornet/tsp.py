"""Tour lengths, the agglomerative greedy tour heuristic, and a TSPLIB EUC_2D
reader. The exact brute-force tour is in neighbornet.oracle.

Tour lengths are full cycle lengths (no 1/2 factor): the halving in the
balanced-length definition only symmetrizes the per-ordering average, and
reported tour lengths are conventionally unhalved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .agglomerate import BalancedTSP, WeightingScheme, run_neighbor_net
from .core import CircularOrdering, DissimilarityMap, Num, _check_taxa, upper_pairs

_hypot = np.frompyfunc(math.hypot, 2, 1)  # math.hypot's rounding, which np.hypot does not share
_int = np.frompyfunc(int, 1, 1)  # Python ints: exact at any size


def tour_length(d: DissimilarityMap, ordering: Union[CircularOrdering, Sequence[int]]) -> Num:
    """Sum of the n cycle edges of an ordering, or of a sequence of the n taxa
    read as a cycle; exact on exact maps."""
    seq = ordering.order if isinstance(ordering, CircularOrdering) else ordering
    n = len(seq)
    if d.n != n:
        raise ValueError("taxon count mismatch")
    if not isinstance(ordering, CircularOrdering):  # an ordering was checked when made
        _check_taxa(seq, n, "not a permutation of 0..n-1")
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
        key, _, value = line.partition(":")  # a line without ":" is a key with the value ""
        header[key.strip().upper()] = value.strip()
    if "DIMENSION" not in header:
        raise ValueError("malformed header: missing DIMENSION")
    if not in_coords:
        raise ValueError("malformed header: missing NODE_COORD_SECTION")
    weight_type = header.get("EDGE_WEIGHT_TYPE", "").upper()
    if weight_type != "EUC_2D":
        raise ValueError(f"unsupported EDGE_WEIGHT_TYPE {weight_type or '(none)'}")
    try:
        n = int(header["DIMENSION"])
    except ValueError:
        raise ValueError(f"bad DIMENSION {header['DIMENSION']!r}") from None
    if len(coord_lines) != n:
        raise ValueError(f"coordinate count mismatch: expected {n}, got {len(coord_lines)}")
    xy, placed = np.zeros((n, 2)), [None] * n  # node k's coordinates and line at index k - 1
    for line in coord_lines:
        node, *parts = line.split()
        k = int(node) - 1 if node.isdecimal() else -1
        if not 0 <= k < n or placed[k] is not None:
            raise ValueError(f"bad node id in line {line!r}: the ids must be a permutation of 1..{n}")
        try:
            placed[k], xy[k] = line, (float(parts[0]), float(parts[1]))
        except (IndexError, ValueError):  # a short line or a non-numeric coordinate
            raise ValueError(f"bad coordinate line: {line!r}") from None
        if not all(map(math.isfinite, xy[k])):
            raise ValueError(f"non-finite coordinate in line {line!r}")
    rows, cols = upper_pairs(n)
    with np.errstate(over="ignore"):  # an overflow is reported below
        upper = _hypot(*(xy[rows] - xy[cols]).T).astype(float)
    bad = np.flatnonzero(~np.isfinite(upper))
    if bad.size:
        i, j = rows[bad[0]], cols[bad[0]]
        raise ValueError(f"non-finite distance between {placed[i]!r} and {placed[j]!r}")
    dist = np.zeros((n, n))
    dist[rows, cols] = dist[cols, rows] = upper
    return DissimilarityMap(_int(dist + 0.5) if rounding == "tsplib" else dist)
