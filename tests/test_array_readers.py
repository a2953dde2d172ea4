"""The layers that read DissimilarityMap.array, against the scalar loops they
replaced, kept here as references: the TSPLIB distance matrix, the
brute-force tour over both dtypes, and the design's right-hand side."""
import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from neighbornet.core import CircularOrdering, DissimilarityMap, canonical_orderings
from neighbornet.oracle import brute_force_tsp
from neighbornet.tsp import read_tsplib_euc2d, tour_length
from neighbornet.weights import DesignMatrix
from conftest import random_dissimilarity


def loop_tsplib_rows(coords, rounding):
    n = len(coords)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        xi, yi = coords[i]
        for j in range(i + 1, n):
            xj, yj = coords[j]
            dist = math.hypot(xi - xj, yi - yj)
            if rounding == "tsplib":
                dist = int(dist + 0.5)
            rows[i][j] = rows[j][i] = dist
    return rows


def tsplib_text(coords):
    return (
        f"NAME: t\nTYPE: TSP\nDIMENSION: {len(coords)}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        + "".join(f"{k + 1} {x!r} {y!r}\n" for k, (x, y) in enumerate(coords))
        + "EOF\n"
    )


@pytest.mark.parametrize("rounding", ["none", "tsplib"])
def test_tsplib_matrix_matches_the_loop(rounding):
    rng = random.Random(f"tsplib/{rounding}")
    for _ in range(20):
        n = rng.randint(1, 30)
        scale = rng.choice([1e-3, 1.0, 1e3, 1e6])
        coords = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)]
        d = read_tsplib_euc2d(tsplib_text(coords), rounding=rounding)
        expected = loop_tsplib_rows(coords, rounding)
        assert d.is_exact == (rounding == "tsplib")
        for got, want in zip(d.rows, expected):
            for x, y in zip(got, want):
                if rounding == "tsplib":
                    assert type(x) is Fraction and x == y
                else:
                    assert float(x).hex() == float(y).hex()


def loop_brute_force(d):
    """The two paths brute_force_tsp replaced: a min over exact tour
    lengths, or batched float64 sums of a float copy."""
    if d.is_exact:
        best = min(canonical_orderings(d.n), key=lambda seq: tour_length(d, seq))
        return best, tour_length(d, best)
    arr = np.array([[float(v) for v in row] for row in d.rows])
    best_seq, best_len = None, math.inf
    orderings = canonical_orderings(d.n)
    while batch := list(islice(orderings, 100_000)):
        perms = np.array(batch)
        lengths = arr[perms, np.roll(perms, -1, axis=1)].sum(axis=1)
        k = int(np.argmin(lengths))
        if lengths[k] < best_len:
            best_len = float(lengths[k])
            best_seq = tuple(int(t) for t in perms[k])
    return best_seq, best_len


@pytest.mark.parametrize("exact", [False, True])
def test_brute_force_matches_the_replaced_paths(exact):
    rng = random.Random(f"brute/{exact}")
    for _ in range(12):
        n = rng.randint(3, 8)
        if rng.random() < 0.5:  # few distinct values: many tied tours
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(1, 3)
            d = DissimilarityMap(rows, exact=exact) if exact else DissimilarityMap(
                [[float(v) for v in row] for row in rows]
            )
        else:
            d = random_dissimilarity(rng, n, exact=exact)
        tour = brute_force_tsp(d)
        seq, length = loop_brute_force(d)
        assert tour.ordering.order == tuple(seq)
        assert type(tour.length) is (Fraction if exact else float)
        assert tour.length == length
        if exact:
            assert tour.length == tour_length(d, CircularOrdering(seq))


def test_design_rhs_matches_the_pair_loop():
    rng = random.Random(5)
    for exact in (False, True):
        d = random_dissimilarity(rng, 9, exact=exact)
        design = DesignMatrix.for_splits([], 9)
        expected = np.array([float(d[i, j]) for i in range(9) for j in range(i + 1, 9)])
        got = design.rhs(d)
        assert got.dtype == np.float64
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected.tolist()]
