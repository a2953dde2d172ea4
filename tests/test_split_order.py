"""The one split order, core.split_order, against the order it replaced: by
block size, then by the block's sorted taxa. It orders the splits of
sorted_splits and the rows of both system types, over any split set and any
set of an ordering's arcs, at sizes around the byte and word edges of its
packed masks (n = 8, 9, 64, 65). Each row's members are the sorted taxa off
its block, for float and for exact weights."""
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from neighbornet.core import CircularOrdering, CircularSplits, Split, WeightedSplitSystem, sorted_splits, upper_pairs

SIZES = st.one_of(st.sampled_from([3, 4, 8, 9, 63, 64, 65]), st.integers(3, 70))


def tuple_key(s: Split) -> tuple:
    """The order before split_order, kept here as the oracle."""
    return len(s.block), tuple(sorted(s.block))


def weights_of(draw, k: int, exact: bool) -> list:
    if exact:
        return [Fraction(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**6))) for _ in range(k)]
    return [draw(st.floats(1e-300, 1e300)) for _ in range(k)]


@st.composite
def split_sets(draw):
    n = draw(SIZES)
    rest = st.sets(st.integers(1, n - 1), max_size=n - 2)
    blocks = draw(st.lists(rest.map(lambda r: frozenset({0} | r)), max_size=40, unique=True))
    return n, [Split(n, block) for block in blocks]


@st.composite
def arc_sets(draw):
    n = draw(SIZES)
    order = draw(st.permutations(range(n)))
    starts, ends = upper_pairs(n)
    columns = sorted(draw(st.sets(st.integers(0, starts.size - 1), max_size=60)))
    return CircularOrdering(order), starts[columns], ends[columns]


@settings(max_examples=150, deadline=None)
@given(split_sets())
def test_sorted_splits_is_the_tuple_key_order(case):
    n, splits = case
    assert sorted_splits(splits) == sorted(splits, key=tuple_key)
    assert sorted_splits(reversed(splits)) == sorted(splits, key=tuple_key)


@settings(max_examples=100, deadline=None)
@given(split_sets(), st.booleans(), st.data())
def test_split_system_rows_follow_the_tuple_key_order(case, exact, data):
    n, splits = case
    weights = dict(zip(splits, weights_of(data.draw, len(splits), exact)))
    expected = [(weights[s], sorted(s.other)) for s in sorted(splits, key=tuple_key)]
    assert list(WeightedSplitSystem(n, weights).rows()) == expected


@settings(max_examples=150, deadline=None)
@given(arc_sets(), st.booleans(), st.data())
def test_arc_rows_follow_the_tuple_key_order(case, exact, data):
    ordering, starts, ends = case
    n = ordering.n
    values = weights_of(data.draw, starts.size, exact)
    if exact:
        den = math.lcm(*(v.denominator for v in values))
        system = CircularSplits(ordering, starts, ends, np.array([int(v * den) for v in values], dtype=object), den)
    else:
        system = CircularSplits(ordering, starts, ends, np.array(values))
    splits = [Split.of(ordering.order[s:e], n) for s, e in zip(starts.tolist(), ends.tolist())]
    weights = dict(zip(splits, values))
    expected = [(weights[s], sorted(s.other)) for s in sorted(splits, key=tuple_key)]
    assert system.is_exact == exact and len(system) == len(splits)
    assert list(system.rows()) == list(system.rows()) == expected
    assert dict(system.items()) == weights and system.splits == frozenset(splits)
    assert all(s in system and system.weight(s) == w for s, w in weights.items())
