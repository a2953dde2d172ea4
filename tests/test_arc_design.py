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
    sorted_splits,
    split_masks,
)
from neighbornet import core, weights
from neighbornet.oracle import all_circular_splits, radius_perturbation_check
from neighbornet.weights import DesignMatrix, lambda_formula, nnls_fit
from conftest import random_circular_instance, random_dissimilarity


def random_ordering(rng, n):
    return CircularOrdering(rng.sample(range(n), n))


@pytest.fixture
def split_count(monkeypatch):
    """A list whose length counts the Splits constructed while it lives:
    those of Split(n, block), through its checks, and those of
    core.arc_splits, which skips them, wherever it is bound."""
    made = []
    check, arc_splits = Split.__post_init__, core.arc_splits

    def counted(self):
        made.append(self)
        check(self)

    def counted_arcs(*args):
        splits = arc_splits(*args)
        made.extend(splits)
        return splits

    monkeypatch.setattr(Split, "__post_init__", counted)
    for module in (core, weights):
        monkeypatch.setattr(module, "arc_splits", counted_arcs)
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


@pytest.mark.parametrize("estimate", [nnls_fit, lambda d, pi: weights.clamped_lambda(d, pi)[0]])
def test_a_fit_makes_no_split(split_count, estimate):
    """Neither a fit nor reading its rows, as the writers do, makes a Split;
    splits makes one per positive weight, when asked."""
    rng = random.Random(8)
    d = random_dissimilarity(rng, 12)
    pi = random_ordering(rng, 12)
    fit = estimate(d, pi)
    assert 0 < len(fit) < 12 * 11 // 2
    assert len(list(fit.rows())) == len(fit)
    assert split_count == []
    assert len(fit.splits) == len(split_count) == len(fit)


@pytest.mark.parametrize("den", [None, 100])
def test_the_arc_metric_makes_no_split(split_count, den):
    """metric_from_splits of a CircularSplits reads its arcs, float or exact."""
    starts, ends = core.upper_pairs(12)
    weights = np.arange(1, starts.size + 1)
    system = core.CircularSplits(random_ordering(random.Random(9), 12), starts, ends,
                                 weights if den else weights / 10, den)
    d = core.metric_from_splits(system)
    assert d.is_exact == (den is not None) and d.n == 12
    assert split_count == []


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


@pytest.mark.parametrize("starts, ends, values, message", [
    ([0, 1], [2, 3], [1.0], "one weight per arc"),
    ([1, 1], [3, 3], [1.0, 2.0], "an arc is given twice"),
    ([0], [5], [1.0], "arcs need integer positions"),
    ([0, 1], [2, 3], [1.0, -0.5], "finite and nonnegative"),
    ([0, 1], [2, 3], [1.0, float("nan")], "finite and nonnegative"),
    ([0, 1], [2, 3], [True, False], "weights need a float or int dtype"),
    ([0], [2], [Fraction(1, 2)], "weights need a float or int dtype"),
    ([0], [2], ["1"], "weights need a float or int dtype"),
    ([0], [2], [None], "weights need a float or int dtype"),
    ([0], [2], [2**70], "weights need a float or int dtype"),
])
def test_circular_splits_refuse_bad_arcs_and_weights(starts, ends, values, message):
    with pytest.raises(ValueError, match=message):
        core.CircularSplits(CircularOrdering(range(5)), starts, ends, values)


@pytest.mark.parametrize("values, den", [
    (np.array([0.5, 1.5]), 3),
    (np.array([1.0, 3.0]), 3),
    (np.array([0.5, 1], dtype=object), 3),
    (np.array([True, False]), 3),
    (np.array([1, 3]), 0),
    (np.array([1, 3]), -2),
    (np.array([1, 3]), 3.0),
    (np.array([1, 3]), Fraction(3)),
    (np.array([1, 3]), True),
])
def test_exact_circular_splits_refuse_weights_that_are_not_integer_numerators(values, den):
    with pytest.raises(ValueError, match="integer numerators over a positive int den"):
        core.CircularSplits(CircularOrdering(range(5)), [0, 1], [2, 3], values, den=den)


def test_circular_splits_drop_zero_weights_and_answer_as_a_split_system():
    pi = CircularOrdering([0, 3, 1, 4, 2])
    system = core.CircularSplits(pi, [0, 1, 2], [2, 3, 4], [0.0, 2.5, 1.0])
    expected = {Split.of([3, 1], 5): 2.5, Split.of([1, 4], 5): 1.0}
    assert len(system) == 2 and not system.is_exact and dict(system.items()) == expected
    assert system.weight(Split.of([0, 3], 5)) == 0 and Split.of([0, 3], 5) not in system
    assert list(system.rows()) == [(1.0, [1, 4]), (2.5, [1, 3])]  # blocks {0, 2, 3} before {0, 2, 4}
    exact = core.CircularSplits(pi, [1], [3], [3], 4)
    assert exact.is_exact and exact.weight(Split.of([3, 1], 5)) == Fraction(3, 4)
