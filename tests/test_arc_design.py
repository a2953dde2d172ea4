"""The circular design built straight from an ordering's arcs, the split
objects a fit makes, and the hypothesis of the radius-1/2 guarantee."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from neighbornet.core import (
    CircularOrdering,
    Split,
    WeightedSplitSystem,
    all_circular_splits,
    sorted_splits,
    split_masks,
)
from neighbornet.kalmanson import radius_perturbation_check
from neighbornet.weights import DesignMatrix, lambda_formula, nnls_fit
from conftest import random_circular_instance, random_dissimilarity


def random_ordering(rng, n):
    return CircularOrdering(rng.sample(range(n), n))


@pytest.fixture
def split_count(monkeypatch):
    """A list whose length counts the Splits constructed while it lives."""
    made = []
    check = Split.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(Split, "__post_init__", counted)
    return made


@pytest.mark.parametrize("n", range(4, 16))
def test_arc_columns_come_in_the_lambda_formula_key_order(n):
    rng = random.Random(n)
    pi = random_ordering(rng, n)
    assert DesignMatrix.for_ordering(pi).splits == tuple(lambda_formula(random_dissimilarity(rng, n), pi))


@pytest.mark.parametrize("n", range(4, 16))
def test_arc_design_equals_the_split_design_split_by_split(n):
    pi = random_ordering(random.Random(100 + n), n)
    design = DesignMatrix.for_ordering(pi)
    arcs = design.as_array()
    assert arcs.dtype == np.float64 and arcs.flags.c_contiguous
    assert len(set(design.splits)) == arcs.shape[1] and set(design.splits) == all_circular_splits(pi)
    by_split = np.array(list(split_masks(design.splits, n)), dtype=float).T
    assert np.array_equal(arcs, by_split)


def test_the_arc_design_makes_no_split(split_count):
    DesignMatrix.for_ordering(random_ordering(random.Random(7), 12)).as_array()
    assert split_count == []


def test_a_fit_makes_one_split_per_positive_weight(split_count):
    rng = random.Random(8)
    d = random_dissimilarity(rng, 12)
    pi = random_ordering(rng, 12)
    fit = nnls_fit(d, pi)
    assert 0 < len(fit) < 12 * 11 // 2
    assert len(split_count) == len(fit)


# n=5, ordering (0 1 2 3 4): six of the ten circular splits, each of weight 1.
# sup|noise| = 2/5 < 1/2, yet the run's ordering breaks {0,1,4}|{2,3}: on the
# true ordering the two missing splits have lambda -1/2 and -3/20.
SPARSE_BLOCKS = [{0}, {0, 1, 2}, {0, 1, 4}, {0, 3, 4}, {0, 1, 2, 4}, {0, 1, 3, 4}]
SPARSE_NOISE = [[0, 0, 4, -3, 4], [0, 0, 1, 4, 1], [4, 1, 0, 4, 0], [-3, 4, 4, 0, -3], [4, 1, 0, -3, 0]]


def test_the_radius_needs_every_circular_split():
    system = WeightedSplitSystem(5, {Split.of(b, 5): 1 for b in SPARSE_BLOCKS})
    noise = [[Fraction(v, 10) for v in row] for row in SPARSE_NOISE]
    with pytest.raises(ValueError, match="every circular split"):
        radius_perturbation_check(system, noise)
    assert not radius_perturbation_check(system, noise, enforce_bound=False)


def test_a_full_system_that_is_not_circular_is_refused():
    # as many splits as an ordering has circular ones, but no ordering holds them all
    n = 5
    splits = [Split.of(b, n) for b in ({0}, {0, 1}, {0, 2}, {0, 3}, {0, 4})]
    splits += [Split.of({t}, n) for t in range(1, n)] + [Split.of({0, 1, 2}, n)]
    system = WeightedSplitSystem(n, dict.fromkeys(splits, 1.0))
    assert len(system) == n * (n - 1) // 2
    with pytest.raises(ValueError, match="every circular split"):
        radius_perturbation_check(system, [[0.0] * n for _ in range(n)])


@seed(111)
@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(4, 10),
    system_seed=st.integers(0, 2**32 - 1),
    dropped=st.integers(0, 3),
    share=st.floats(0.0, 0.49),
)
def test_every_system_the_radius_accepts_is_recovered(n, system_seed, dropped, share):
    # only a system holding every circular split of its ordering is accepted
    rng = random.Random(system_seed)
    _, full, _ = random_circular_instance(rng, n)
    gone = set(rng.sample(sorted_splits(full), dropped))
    system = WeightedSplitSystem(n, {s: w for s, w in full.items() if s not in gone})
    bound = share * min(w for _, w in system.items())
    noise = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            noise[i][j] = noise[j][i] = rng.uniform(-bound, bound)
    if dropped:
        with pytest.raises(ValueError):
            radius_perturbation_check(system, noise)
    else:
        assert radius_perturbation_check(system, noise)
