"""The engine's tie rule scales with the input, its states are immutable
snapshots whose tables match a fresh build, and its records hold plain
Python numbers."""
import random
from fractions import Fraction

import numpy as np
import pytest

from neighbornet.agglomerate import (
    BalancedTSP,
    BlockState,
    OriginalBM,
    TreeWeighting,
    _select_endpoints,
    _select_pair,
    adjust_weights,
    merge_blocks,
    run_neighbor_net,
)
from neighbornet.core import DissimilarityMap
from conftest import random_circular_instance, random_dissimilarity

SCHEMES = (BalancedTSP(), TreeWeighting(), OriginalBM())


def scaled(d, factor):
    return DissimilarityMap([[x * factor for x in row] for row in d.rows])


@pytest.mark.parametrize("k", range(-15, 16))
def test_ordering_unchanged_by_power_of_ten_scaling(k):
    for seed in range(6):
        rng = random.Random(500 + seed)
        d = random_dissimilarity(rng, rng.randint(5, 14))
        scheme = SCHEMES[seed % 3]
        base = run_neighbor_net(d, scheme)
        result = run_neighbor_net(scaled(d, 10.0**k), scheme)
        assert result.ordering == base.ordering, f"seed {seed}"
        assert result.tree_splits == base.tree_splits, f"seed {seed}"


def test_circular_map_recovered_in_tiny_units():
    for seed in range(50):
        rng = random.Random(900 + seed)
        pi, _, d = random_circular_instance(rng, rng.randint(5, 10))
        assert run_neighbor_net(scaled(d, 1e-13)).ordering == pi.canonical(), f"seed {seed}"


@pytest.mark.parametrize("factor", [1, 1.0, 1e-20, 1e20])
def test_three_block_tie_goes_to_smallest_block_distance(factor):
    # with three blocks Q is the same for every pair; the pair (1, 2) is the
    # closest, whatever the units
    d = DissimilarityMap([[0, 3, 2], [3, 0, 1], [2, 1, 0]])
    state = BlockState.initial(scaled(d, factor))
    assert _select_pair(state)[0] == (1, 2)


def test_remaining_ties_break_lexicographically():
    d = DissimilarityMap([[0.0 if i == j else 1.0 for j in range(6)] for i in range(6)])
    state = BlockState.initial(d)
    assert _select_pair(state)[0] == (0, 1)
    state = merge_blocks(state, 0, 1, 0, 1)
    state = state.with_mu(adjust_weights(state, BalancedTSP()))
    state = merge_blocks(state, 1, 2, 2, 3)
    state = state.with_mu(adjust_weights(state, BalancedTSP()))
    # blocks (0,1), (2,3), (4,), (5,): the joins of two paths tie on Q-hat
    assert _select_endpoints(state, 0, 1)[0] == (0, 2)


def table_values(state):
    m = state.m
    return (
        state.blocks,
        dict(state.mu),
        [[state.block_distance(r, s) for s in range(m)] for r in range(m)],
        [[state.taxon_block_distance(x, t) for t in range(m)] for x in range(state.d.n)],
        [state.row_sum(r) for r in range(m)],
        state.total_pair_sum(),
    )


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: type(s).__name__)
def test_states_are_snapshots_matching_a_fresh_build(scheme):
    d = random_dissimilarity(random.Random(61), 9, exact=True)
    state = BlockState.initial(d)
    history = []
    while state.m > 1:
        history.append((state, table_values(state)))
        pair = (0, 1) if state.m == 2 else _select_pair(state)[0]
        (i, j), _ = _select_endpoints(state, *pair)
        merged = merge_blocks(state, *pair, i, j)
        history.append((merged, table_values(merged)))
        path = merged.blocks[merged.last_merge.merged_index]
        for other in (*SCHEMES, TreeWeighting(0.3)):  # only the merged path's weights change
            assert list(adjust_weights(merged, other)) == list(path)
        state = merged.with_mu(adjust_weights(merged, scheme))
    for old, values in history:
        assert table_values(old) == values
        fresh = BlockState(d, old.blocks, old.mu, old.parts, old.last_merge)
        assert table_values(fresh) == values


@pytest.mark.parametrize("exact", [False, True])
def test_records_hold_python_numbers(exact):
    d = random_dissimilarity(random.Random(62), 8, exact=exact)
    kind = Fraction if exact else float
    for scheme in SCHEMES:
        for st in run_neighbor_net(d, scheme).trace.steps:
            values = [st.q_value, st.q_hat_value, *st.mu.values()]
            assert all(type(v) is kind for v in values), st
    state = BlockState.initial(d)
    for v in (state.block_distance(0, 1), state.row_sum(0), state.total_pair_sum()):
        assert type(v) is kind and not isinstance(v, np.generic)
