"""Exact mode computes on Python-int numerators over one common denominator
and makes Fractions only where values leave the library. These tests pin
what that must not change: the map's integer form and the shared pair
indices, the exact metric of a split system, exact runs against the scalar
engine (tests/scalar_engine.py) on every scheme, float against exact runs on
generic rational maps, and the exact CLI outputs (tests/golden/exact_cli.json,
written before the integer rewrite)."""
import contextlib
import io
import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import neighbornet.agglomerate as engine
import scalar_engine as reference
from neighbornet import cli
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    WeightedSplitSystem,
    all_circular_splits,
    metric_from_splits,
    pair_sums,
    split_masks,
    upper_pairs,
)
from neighbornet.weights import nnls_fit
from conftest import random_dissimilarity

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CLI = json.loads((GOLDEN / "exact_cli.json").read_text())
GOLDEN_INPUTS = ("points30.tsp", "hundredths14.phy", "ties10.phy")

SCHEMES = {
    "balanced-tsp": (engine.BalancedTSP(), reference.BalancedTSP()),
    "tree": (engine.TreeWeighting(), reference.TreeWeighting("balanced")),
    "tree-1/3": (engine.TreeWeighting(Fraction(1, 3)), reference.TreeWeighting(Fraction(1, 3))),
    "original": (engine.OriginalBM(), reference.OriginalBM()),
}
# map denominators: 1, odd, decimal, and the 2^52 of a float read with --rational
DENOMINATORS = (1, 3, 7, 100, 360, 2**52)


def rational_map(rng: random.Random, n: int, kind: str) -> DissimilarityMap:
    """'ties': entries 1..3 over one denominator, so Q and Q-hat tie often;
    'mixed': numerators up to 300 over denominators drawn per entry."""
    den = rng.choice(DENOMINATORS)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "ties":
                v = Fraction(rng.randint(1, 3), den)
            else:
                v = Fraction(rng.randint(1, 300), rng.choice(DENOMINATORS))
            rows[i][j] = rows[j][i] = v
    return DissimilarityMap(rows)


def assert_same_run(d, name):
    ours, theirs = SCHEMES[name]
    new = engine.run_neighbor_net(d, ours)
    old = reference.run_neighbor_net(d, theirs)
    assert new.ordering == old.ordering
    assert new.tree_splits == old.tree_splits
    assert len(new.trace.steps) == len(old.trace.steps)
    for a, b in zip(new.trace.steps, old.trace.steps):
        assert (a.m, a.pair, a.endpoints, a.split, a.merged_block) == (b.m, b.pair, b.endpoints, b.split, b.merged_block)
        assert type(a.q_value) is Fraction and a.q_value == b.q_value
        assert type(a.q_hat_value) is Fraction and a.q_hat_value == b.q_hat_value
        assert a.mu == {t: b.mu[t] for t in a.merged_block}


class TestIntegerForm:
    def test_numerators_over_the_lcm_of_the_denominators(self):
        rng = random.Random(31)
        for k in range(20):
            d = rational_map(rng, rng.randint(1, 9), "mixed" if k % 2 else "ties")
            numerators, den = d.integer_form
            assert den == math.lcm(*(x.denominator for x in d.array.flat))
            assert numerators.dtype == object and all(type(x) is int for x in numerators.flat)
            assert all(Fraction(p, den) == x for p, x in zip(numerators.flat, d.array.flat))

    def test_built_once_and_read_only(self):
        d = rational_map(random.Random(32), 5, "mixed")
        assert d.integer_form is d.integer_form
        with pytest.raises(ValueError):
            d.integer_form[0][0, 1] = 1

    def test_float_maps_have_none(self):
        with pytest.raises(ValueError, match="float map"):
            random_dissimilarity(random.Random(33), 4).integer_form

    def test_entries_still_come_back_as_fractions(self):
        d = rational_map(random.Random(34), 6, "mixed")
        d.integer_form
        assert all(type(x) is Fraction for x in d.array.flat)
        assert type(d[0, 1]) is Fraction and all(type(x) is Fraction for row in d.rows for x in row)


def test_upper_pairs_are_cached_read_only_triu_indices():
    for n in range(7):
        rows, cols = upper_pairs(n)
        expected = np.triu_indices(n, 1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        assert not rows.flags.writeable and not cols.flags.writeable
        assert upper_pairs(n)[0] is rows
    assert upper_pairs.cache_info().maxsize is not None


class TestExactMetric:
    def test_pair_sums_equal_the_fraction_loop(self):
        # mixed denominators and negative weights, as lambda values may be
        rng = random.Random(35)
        for _ in range(10):
            n = rng.randint(3, 9)
            splits = sorted(all_circular_splits(CircularOrdering(range(n))), key=lambda s: sorted(s.block))
            weights = {s: Fraction(rng.randint(-50, 50), rng.choice(DENOMINATORS)) for s in splits}
            got = pair_sums(weights, n, Fraction)
            expected = [Fraction(0)] * (n * (n - 1) // 2)
            for mask, w in zip(split_masks(weights, n), weights.values()):
                for k in np.flatnonzero(mask):
                    expected[k] += w
            assert all(type(x) is Fraction for x in got)
            assert list(got) == expected

    def test_an_all_zero_float_fit_gives_a_float_map(self):
        # the fit drops its ten zero weights; the exactness comes from them
        fit = nnls_fit(DissimilarityMap(np.zeros((5, 5))), CircularOrdering(range(5)))
        assert len(fit) == 0 and not fit.is_exact
        d = metric_from_splits(fit)
        assert not d.is_exact and d.array.dtype == float

    def test_zero_exact_weights_give_an_exact_map(self):
        pi = CircularOrdering(range(5))
        system = WeightedSplitSystem(5, dict.fromkeys(all_circular_splits(pi), Fraction(0)))
        assert len(system) == 0 and system.is_exact
        assert metric_from_splits(system).is_exact


@seed(90)
@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(4, 12),
    map_seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["mixed", "ties"]),
    name=st.sampled_from(sorted(SCHEMES)),
)
def test_exact_runs_match_the_scalar_engine(n, map_seed, kind, name):
    assert_same_run(rational_map(random.Random(map_seed), n, kind), name)


def test_a_non_dyadic_alpha_matches_the_scalar_engine_on_the_differential_seeds():
    # every fourth map tests/test_engine_differential.py runs the tree scheme
    # on (seeds 3000 + k); alpha = 1/3 brings a new denominator in at every
    # merge, so the tables are rescaled each step
    for k in range(0, 104, 4):
        d = random_dissimilarity(random.Random(3000 + k), 4 + k % 13, exact=True)
        assert_same_run(d, "tree-1/3")


def test_rescaled_states_match_a_fresh_build():
    d = rational_map(random.Random(36), 8, "mixed")
    scheme = engine.TreeWeighting(Fraction(1, 3))
    state = engine.BlockState.initial(d)
    while state.m > 1:
        pair = (0, 1) if state.m == 2 else engine._select_pair(state)[0]
        (i, j), _ = engine._select_endpoints(state, *pair)
        merged = engine.merge_blocks(state, *pair, i, j)
        state = merged.with_mu(engine.adjust_weights(merged, scheme))
        fresh = engine.BlockState(d, state.blocks, state.mu, state.parts, state.last_merge)
        for x in range(d.n):
            for t in range(state.m):
                assert state.taxon_block_distance(x, t) == fresh.taxon_block_distance(x, t)
        assert [state.row_sum(r) for r in range(state.m)] == [fresh.row_sum(r) for r in range(state.m)]
        assert all(type(x) is int for x in state._bb.flat)


def accessor_values(state):
    """Every delta(C_r, C_s), delta(x, C_t), row sum and the total pair sum."""
    m, n = state.m, state.d.n
    return (
        [[state.block_distance(r, s) for s in range(m) if s != r] for r in range(m)],
        [[state.taxon_block_distance(x, t) for t in range(m)] for x in range(n)],
        [state.row_sum(r) for r in range(m)],
        state.total_pair_sum(),
    )


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_every_state_matches_the_scalar_engines_sums(name):
    # the scalar engine sums every table entry over Fractions from the
    # definition, so this checks the block table and the on-demand
    # delta(x, C) at every state of exact runs, merged and reweighted
    def check(state):
        values = accessor_values(state)
        assert all(type(v) is Fraction for v in (*values[1][0], *values[2], values[3]))
        expected = accessor_values(reference.BlockState(d, state.blocks, state.mu, state.parts))
        assert values == expected, (k, state.m)

    scheme = SCHEMES[name][0]
    for k, (n, kind) in enumerate([(5, "ties"), (8, "mixed"), (12, "ties"), (12, "mixed")]):
        d = rational_map(random.Random(f"states/{k}"), n, kind)
        state = engine.BlockState.initial(d)
        check(state)
        while state.m > 1:
            pair = (0, 1) if state.m == 2 else engine._select_pair(state)[0]
            (i, j), _ = engine._select_endpoints(state, *pair)
            merged = engine.merge_blocks(state, *pair, i, j)
            check(merged)
            state = merged.with_mu(engine.adjust_weights(merged, scheme))
            check(state)


@seed(91)
@settings(max_examples=12, deadline=None, database=None)
@given(
    n=st.integers(4, 60),
    map_seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["balanced-tsp", "tree", "original"]),
)
@example(n=60, map_seed=0, name="balanced-tsp")
def test_float_and_exact_runs_agree_on_generic_rational_maps(n, map_seed, name):
    rng = random.Random(map_seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 10**9), rng.choice((10**6, 3**13, 7**11)))
    exact = DissimilarityMap(rows)
    approx = DissimilarityMap(exact.array.astype(float))
    scheme = SCHEMES[name][0]
    a, b = engine.run_neighbor_net(exact, scheme), engine.run_neighbor_net(approx, scheme)
    assert a.ordering == b.ordering
    assert a.tree_splits == b.tree_splits


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI))
def test_exact_cli_outputs_are_unchanged(name, tmp_path, monkeypatch):
    expected = GOLDEN_CLI[name]
    for file in GOLDEN_INPUTS:
        shutil.copy(GOLDEN / file, tmp_path)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(expected["argv"]) == 0
    assert out.getvalue() == expected["stdout"]
    if "trace" in expected:
        assert (tmp_path / "trace.jsonl").read_text() == expected["trace"]
