"""The metric of a CircularSplits, summed over its arcs by prefix sums,
against the split-by-split metric of the same splits; and exact maps that
make Fractions only when their entries are read, not when a fit reads them
as floats or two of them are compared."""
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
from neighbornet.weights import DesignMatrix


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


@seed(35)
@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(3, 12),
    arc_seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(["floats", "ints", "fractions"]),
    big=st.booleans(),
)
@example(n=5, arc_seed=1, form="ints", big=True)
@example(n=5, arc_seed=1, form="ints", big=False)
def test_the_metric_is_exact_exactly_when_the_system_is(n, arc_seed, form, big):
    """Arcs take floats or ints without den as float weights, ints from 2^62
    too, and exact weights only as numerators over den; Splits take any of
    them, and are exact when every weight is an int or a Fraction."""
    rng = random.Random(arc_seed)
    ordering, starts, ends = random_arcs(rng, n)
    ints = [(2**62 if big else 0) + rng.randint(1, 200) for _ in starts]
    den = rng.choice((1, 7, 100))
    weights = {"floats": [v / 7 for v in ints], "ints": ints, "fractions": [Fraction(v, den) for v in ints]}[form]
    if form == "fractions":
        with pytest.raises(ValueError, match="float or int dtype"):
            CircularSplits(ordering, starts, ends, weights)
        arcs = CircularSplits(ordering, starts, ends, np.array(ints, dtype=object), den)
    else:
        arcs = CircularSplits(ordering, starts, ends, weights)
    splits = WeightedSplitSystem(n, dict(zip(core.arc_splits(ordering, starts, ends), weights)))
    assert (arcs.is_exact, splits.is_exact) == (form == "fractions", form != "floats")
    for system in (arcs, splits):
        assert metric_from_splits(system).is_exact == system.is_exact


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


@pytest.mark.parametrize("read", ["array", "rows", "item", "rhs"])
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
    if read == "rhs":
        rhs = DesignMatrix.rhs(d)
        assert made == []
        expected = d.array[upper_pairs(N)].astype(float)
        assert rhs.dtype == np.float64 and rhs.tobytes() == expected.tobytes()  # bit for bit
        return
    getattr(d, read)
    entries = N * (N - 1) // 2 + 1  # each entry above the diagonal, and the zero
    assert len(made) == entries
    assert d.array is d.array and d[1, 4] is d.array[1, 4] and len(made) == entries  # kept, and read from
    assert not d.array.flags.writeable


def test_the_float_rhs_of_large_numerators_rounds_as_fractions_do(fraction_count):
    # numerators far above 2^53 over a den that is no power of two: one
    # rounding per entry, the one float(Fraction) makes
    rng = random.Random(88)
    entries = np.zeros((N, N), dtype=object)
    for i, j in zip(*upper_pairs(N)):
        entries[i, j] = entries[j, i] = rng.randrange(1, 10**40)
    d = DissimilarityMap.from_integer_form(entries, 3 * 10**21 + 7)
    fraction_count.clear()
    rhs = DesignMatrix.rhs(d)
    assert fraction_count == []
    assert rhs.tobytes() == d.array[upper_pairs(N)].astype(float).tobytes()


def test_exact_maps_compare_by_their_integer_forms(fraction_count):
    entries = np.triu(np.arange(N * N).reshape(N, N) % 7 + 1, 1)
    entries += entries.T
    fraction_count.clear()
    a = DissimilarityMap.from_integer_form(entries, 4)
    b = DissimilarityMap.from_integer_form(entries * 3, 12)  # the same map: gcd 3 is divided out
    assert a == b and b == a and fraction_count == []
    other = entries.copy()
    other[0, 1] = other[1, 0] = other[0, 1] + 1
    assert a != DissimilarityMap.from_integer_form(other, 4)
    assert a != DissimilarityMap.from_integer_form(entries, 8)
    assert a != DissimilarityMap.from_integer_form(entries[:-1, :-1], 4)
    assert fraction_count == []


def test_an_exact_map_equals_and_hashes_as_the_float_map_of_its_values():
    entries = np.triu(np.arange(N * N).reshape(N, N) % 7 + 1, 1)
    entries += entries.T
    exact = DissimilarityMap.from_integer_form(entries, 4)  # quarters: every value a float
    floats = DissimilarityMap(entries / 4)
    assert exact == floats and floats == exact and hash(exact) == hash(floats)
    assert len({exact, floats}) == 1
    thirds = DissimilarityMap.from_integer_form(entries, 3)
    assert thirds != DissimilarityMap(entries / 3) and DissimilarityMap(entries / 3) != thirds
    assert thirds != floats and floats != entries.tolist()
