"""The metric of a CircularSplits, summed over its arcs by prefix sums,
against the split-by-split metric of the same splits; and exact maps that
make Fractions only when their entries are read."""
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from neighbornet import core
from neighbornet.core import (
    CircularOrdering,
    CircularSplits,
    DissimilarityMap,
    WeightedSplitSystem,
    metric_from_splits,
    upper_pairs,
)


def random_arcs(rng: random.Random, n: int) -> tuple:
    """A random ordering of n taxa and a random nonempty subset of its arcs."""
    starts, ends = upper_pairs(n)
    share = rng.random()
    keep = np.array([rng.random() < share for _ in range(starts.size)], dtype=bool)
    keep[rng.randrange(starts.size)] = True
    return CircularOrdering(rng.sample(range(n), n)), starts[keep], ends[keep]


def numerators(rng: random.Random, k: int, size: str) -> list:
    """k positive Python ints: 'small' up to 200; 'below' and 'above' total
    just under and at least 2^62, the switch from int64 to Python ints."""
    if size == "small":
        return [rng.randint(1, 200) for _ in range(k)]
    if size == "below":
        return [rng.randint(1, (2**62 - 1) // k) for _ in range(k)]
    return [rng.randint(-(-(2**62) // k), 2**63 // k) for _ in range(k)]


@seed(92)
@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(3, 70),
    arc_seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from(["float", "small", "below", "above"]),
)
@example(n=64, arc_seed=1, size="above")
@example(n=64, arc_seed=2, size="below")
@example(n=64, arc_seed=3, size="float")
@example(n=65, arc_seed=4, size="above")
@example(n=65, arc_seed=5, size="below")
@example(n=65, arc_seed=6, size="float")
@example(n=3, arc_seed=7, size="above")
def test_the_arc_metric_equals_the_split_metric(n, arc_seed, size):
    rng = random.Random(arc_seed)
    ordering, starts, ends = random_arcs(rng, n)
    k = starts.size
    if size == "float":
        weights = np.array([rng.uniform(0.1, 2.0) for _ in range(k)]) * 10.0 ** rng.randint(-3, 3)
        system = CircularSplits(ordering, starts, ends, weights)
    else:
        weights = numerators(rng, k, size)
        system = CircularSplits(ordering, starts, ends, np.array(weights, dtype=object), rng.choice((1, 7, 100)))
    with mock.patch.object(core, "arc_pair_sums", wraps=core.arc_pair_sums) as kernel:
        arc = metric_from_splits(system)
    by_split = metric_from_splits(WeightedSplitSystem(n, dict(system.items())))
    if size == "float":
        assert not arc.is_exact and kernel.call_args.args[3].dtype == np.float64
        tol = (k + 8 * n + 8) * 2.0**-53 * weights.sum()  # metric_from_splits' stated bound
        assert np.abs(arc.array - by_split.array.astype(float)).max() <= tol
    else:
        total = sum(weights)
        assert (total < 2**62) == (size != "above")
        assert kernel.call_args.args[3].dtype == (np.int64 if total < 2**62 else object)
        assert arc.integer_form[1] == by_split.integer_form[1]
        assert np.array_equal(arc.integer_form[0], by_split.integer_form[0])
        assert arc.rows == by_split.rows


@pytest.fixture
def fraction_count(monkeypatch):
    """A list whose length counts the Fractions constructed while it lives."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return made


N = 6
ORDERING = CircularOrdering([3, 0, 4, 1, 5, 2])


def exact_maps():
    """Four ways to make an exact map, as functions, from integers or from
    Fractions made before any of them is called."""
    starts, ends = upper_pairs(N)
    weights = np.arange(1, starts.size + 1)
    arcs = CircularSplits(ORDERING, starts, ends, weights, 100)
    splits = WeightedSplitSystem(N, dict(arcs.items()))
    entries = np.triu(np.arange(N * N).reshape(N, N) % 5 + 1, 1)
    entries += entries.T
    return {
        "arc metric": lambda: metric_from_splits(arcs),
        "split metric": lambda: metric_from_splits(splits),
        "integer form": lambda: DissimilarityMap.from_integer_form(entries, 3),
        "integer entries": lambda: DissimilarityMap(entries.tolist()),
    }


@pytest.mark.parametrize("read", ["array", "rows", "item"])
@pytest.mark.parametrize("build", sorted(exact_maps()))
def test_an_exact_map_makes_fractions_only_when_read(fraction_count, build, read):
    make, made = exact_maps()[build], fraction_count
    made.clear()
    d = make()
    assert d.is_exact and d.integer_form and made == []
    numerators, den = d.integer_form
    assert d[1, 4] == Fraction(numerators[1, 4], den) and len(made) == 2  # d[1, 4] made one, the test one
    made.clear()
    if read == "item":
        assert d[2, 0] is not d[2, 0] and len(made) == 2  # one per read until d.array is made
        return
    getattr(d, read)
    entries = N * (N - 1) // 2 + 1  # each entry above the diagonal, and the zero
    assert len(made) == entries
    assert d.array is d.array and d[1, 4] is d.array[1, 4] and len(made) == entries  # kept, and read from
    assert not d.array.flags.writeable
