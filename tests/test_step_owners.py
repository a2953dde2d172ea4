"""One kernel, two owners: run_neighbor_net changes the one state it owns in
place, the step API copies a state once per transition. Both must make the
same decisions with the same values, the run must leave its map alone, and
an index outside the table must be refused before it can touch a buffer."""
import random
from fractions import Fraction

import numpy as np
import pytest

from neighbornet.agglomerate import (
    BalancedTSP,
    BlockState,
    OriginalBM,
    StepRecord,
    TreeWeighting,
    _select_endpoints,
    _select_pair,
    adjust_weights,
    merge_blocks,
    q_criterion,
    q_hat_criterion,
    run_neighbor_net,
)
from neighbornet.core import CircularOrdering, DissimilarityMap, Split
from conftest import random_dissimilarity

SCHEMES = (BalancedTSP(), TreeWeighting(), OriginalBM())
SIZES = (4, 5, 7, 10, 14, 19, 25, 32, 40)


def step_api_run(d, scheme):
    """The agglomeration through the public step API, one snapshot per
    transition, recorded as run_neighbor_net records it."""
    state = BlockState.initial(d)
    records = []
    while state.m > 1:
        m = state.m
        pair, q = ((0, 1), q_criterion(state, 0, 1)) if m == 2 else _select_pair(state)
        (i, j), q_hat = _select_endpoints(state, *pair)
        merged = merge_blocks(state, *pair, i, j)
        mu = adjust_weights(merged, scheme)
        state = merged.with_mu(mu)
        block = state.blocks[min(pair)]
        split = Split.of(block, d.n) if len(block) < d.n else None
        records.append(StepRecord(m, pair, q, (i, j), q_hat, split, block, mu))
    return CircularOrdering(state.blocks[0]).canonical(), tuple(records)


def ties_map(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, 3)
    return DissimilarityMap(rows)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("kind", ["float", "exact", "float-ties"])
def test_run_records_equal_the_step_api_records(scheme, kind):
    for n in SIZES:
        rng = random.Random(f"owners/{kind}/{n}")
        if kind == "float-ties":
            d = DissimilarityMap(ties_map(rng, n).array.astype(float))
        else:
            d = random_dissimilarity(rng, n, exact=kind == "exact")
        result = run_neighbor_net(d, scheme)
        ordering, records = step_api_run(d, scheme)
        assert result.trace.steps == records, n
        assert result.ordering == ordering, n
        assert result.tree_splits == tuple(r.split for r in records if r.split is not None), n


@pytest.mark.parametrize("exact", [False, True])
def test_run_leaves_the_map_alone_and_repeats(exact):
    d = random_dissimilarity(random.Random(71), 16, exact=exact)
    array = d.array.copy()
    integers = [row[:] for row in d.integer_form[0].tolist()] if exact else None
    for scheme in (*SCHEMES, TreeWeighting(Fraction(1, 3))):
        first = run_neighbor_net(d, scheme)
        assert np.array_equal(d.array, array)
        if exact:
            assert d.integer_form[0].tolist() == integers
        second = run_neighbor_net(d, scheme)
        assert second.trace.steps == first.trace.steps
        assert second.ordering == first.ordering


def test_a_run_leaves_a_step_api_state_alone():
    d = random_dissimilarity(random.Random(72), 9, exact=True)
    state = merge_blocks(BlockState.initial(d), 2, 5, 2, 5)
    before = [[state.block_distance(r, s) for s in range(state.m)] for r in range(state.m)]
    run_neighbor_net(d)
    assert [[state.block_distance(r, s) for s in range(state.m)] for r in range(state.m)] == before


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("r, s", [(-1, 0), (0, -1), (6, 0), (2, 6), (3, 3)])
def test_block_indices_outside_the_table_are_refused(exact, r, s):
    d = random_dissimilarity(random.Random(73), 6, exact=exact)
    state = BlockState.initial(d)
    table = [[state.block_distance(a, b) for b in range(6)] for a in range(6)]
    i, j = max(r, 0) % 6, max(s, 0) % 6
    calls = [
        lambda: merge_blocks(state, r, s, i, j),
        lambda: q_criterion(state, r, s),
        lambda: q_hat_criterion(state, r, s, i, j),
        lambda: _select_endpoints(state, r, s),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert state.blocks == tuple((t,) for t in range(6))
    assert [[state.block_distance(a, b) for b in range(6)] for a in range(6)] == table
