"""The pair x split incidence (delta_S(i, j) = 1 when S separates i and j),
checked against a plain loop over split_metric: the metric of a split system,
the design matrix, and the reconstruction residual."""
import random
from fractions import Fraction

import numpy as np
import pytest

from neighbornet.core import (
    CircularOrdering,
    Split,
    WeightedSplitSystem,
    metric_from_splits,
    split_masks,
)
from neighbornet.oracle import all_circular_splits, reconstruction_residual, split_metric
from neighbornet.weights import DesignMatrix, lambda_formula
from conftest import random_arc_design, random_circular_instance, random_dissimilarity


def loop_metric(system, zero):
    """sum_S w_S delta_S(i, j) by a loop over every pair, in split order."""
    n = system.n
    rows = [[zero] * n for _ in range(n)]
    for s, w in system.items():
        for i in range(n):
            for j in range(i + 1, n):
                if split_metric(s, i, j):
                    rows[i][j] += w
                    rows[j][i] += w
    return rows


def random_splits(rng, n, count):
    """Distinct splits drawn without regard to any ordering."""
    out = set()
    while len(out) < count:
        k = rng.randint(1, n - 1)
        out.add(Split.of(rng.sample(range(n), k), n))
    return list(out)


def bits(rows):
    return [[float(x).hex() for x in row] for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_float_metric_is_bit_identical_to_the_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    splits = random_splits(rng, n, rng.randint(1, min(30, 2 ** (n - 1) - 1)))
    system = WeightedSplitSystem(n, {s: rng.uniform(0, 3) for s in splits})
    d = metric_from_splits(system)
    assert not d.is_exact
    assert bits(d.rows) == bits(loop_metric(system, 0.0))
    assert all(type(x) is float for row in d.rows for x in row)


def test_float_metric_of_all_circular_splits():
    rng = random.Random(11)
    pi = CircularOrdering(rng.sample(range(9), 9))
    system = WeightedSplitSystem(9, {s: rng.expovariate(1.0) for s in all_circular_splits(pi)})
    assert bits(metric_from_splits(system).rows) == bits(loop_metric(system, 0.0))


@pytest.mark.parametrize("weight", [lambda rng: rng.randint(0, 9),
                                    lambda rng: Fraction(rng.randint(0, 20), rng.randint(1, 7))])
def test_exact_metric_stays_fraction(weight):
    rng = random.Random(5)
    for n in (3, 5, 8):
        system = WeightedSplitSystem(n, {s: weight(rng) for s in random_splits(rng, n, n)})
        d = metric_from_splits(system)
        assert d.is_exact
        assert d.rows == tuple(map(tuple, loop_metric(system, Fraction(0))))
        assert all(type(x) is Fraction for row in d.rows for x in row)


def test_empty_system_gives_the_zero_map():
    d = metric_from_splits(WeightedSplitSystem(4, {}))
    assert d.rows == tuple((0,) * 4 for _ in range(4))
    assert d.is_exact


def test_masks_follow_triu_order():
    rng = random.Random(2)
    n = 7
    splits = random_splits(rng, n, 10)
    rows, cols = np.triu_indices(n, 1)
    masks = list(split_masks(splits, n))
    assert len(masks) == len(splits)
    for s, mask in zip(splits, masks):
        assert mask.tolist() == [bool(split_metric(s, i, j)) for i, j in zip(rows, cols)]


@pytest.mark.parametrize("n", [4, 7])
def test_design_matrix_equals_the_loop(n):
    rng = random.Random(n)
    pi = CircularOrdering(rng.sample(range(n), n))
    for design in (DesignMatrix.for_ordering(pi), random_arc_design(rng, pi, 5)):
        a = design.as_array()
        assert a.dtype == np.float64
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert a.tolist() == [[split_metric(s, i, j) for s in design.splits] for i, j in pairs]


def test_residual_on_negative_lambda():
    rng = random.Random(3)
    n = 7
    d = random_dissimilarity(rng, n)
    pi = CircularOrdering(range(n))
    lam = lambda_formula(d, pi)
    assert min(lam.values()) < 0
    # the formula inverts the circular incidence, negative weights included
    assert reconstruction_residual(d, lam) == pytest.approx(0.0, abs=1e-18)
    part = {s: v for k, (s, v) in enumerate(lam.items()) if k % 3}
    expected = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            fitted = sum(float(v) for s, v in part.items() if split_metric(s, i, j))
            expected += (float(d[i, j]) - fitted) ** 2
    assert reconstruction_residual(d, part) == pytest.approx(expected, rel=1e-12)


def test_residual_of_exact_weights():
    rng = random.Random(4)
    pi, system, d = random_circular_instance(rng, 6, exact=True)
    lam = lambda_formula(d, pi)
    lam[next(iter(lam))] -= 1
    assert reconstruction_residual(d, lam) > 0
    # the residual is a float, so the exact fit leaves only rounding error
    assert reconstruction_residual(d, dict(system.items())) == pytest.approx(0.0, abs=1e-20)
