"""Exact mode computes on Python-int numerators over one common denominator
and makes Fractions only where values leave the library. These tests pin
what that must not change: the map's integer form and the shared pair
indices, the exact metric of a split system, exact runs against the scalar
engine (tests/scalar_engine.py) on every scheme, the int64 lane of the
agglomeration (its bound, promotion, the integer Q-hat), float against exact
runs on generic rational maps, and the exact CLI outputs
(tests/golden/exact_cli.json, written before the integer rewrite)."""
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
    metric_from_splits,
    upper_pairs,
)
from neighbornet.oracle import all_circular_splits
from neighbornet.weights import nnls_fit
from conftest import random_circular_instance, random_dissimilarity

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CLI = json.loads((GOLDEN / "exact_cli.json").read_text())
GOLDEN_INPUTS = ("points30.tsp", "hundredths14.phy", "ties10.phy", "noisy12.phy")

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


@pytest.mark.parametrize("kind", ["mixed", "ties"])  # a 2^52 denominator: Python ints; 1..3: int64
def test_rescaled_states_match_a_fresh_build(kind):
    d = rational_map(random.Random(36), 8, kind)
    scheme = engine.TreeWeighting(Fraction(1, 3))
    state = engine.BlockState.initial(d)
    assert state._bb.dtype == (object if kind == "mixed" else np.int64)
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
        m = state.m
        assert [[state.block_distance(r, t) for t in range(m)] for r in range(m)] == [
            [fresh.block_distance(r, t) for t in range(m)] for r in range(m)
        ]
        assert all(x == int(x) for x in state._bb.flat)  # whole numbers in either lane


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
@example(n=40, map_seed=1, name="tree")
@example(n=40, map_seed=2, name="original")
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
    # the float run's values round the exact ones within each step's tie tolerance
    for x, y in zip(a.trace.steps, b.trace.steps, strict=True):
        tol = engine.REL_TIE_TOL * x.m * approx.array.max()
        assert (y.m, y.pair, y.endpoints) == (x.m, x.pair, x.endpoints)
        assert abs(y.q_value - float(x.q_value)) <= tol
        assert abs(y.q_hat_value - float(x.q_hat_value)) <= tol


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
    if "nexus" in expected:
        assert (tmp_path / "out.nex").read_text() == expected["nexus"]


def lane(state) -> str:
    return "int64" if state._bb.dtype == np.int64 else "object"


def assert_state_matches_the_scalar_engine(state):
    """Every accessor value, and Q and Q-hat of every pair and endpoint
    join, equal the scalar engine's sums from the definition."""
    d = state.d
    ref = reference.BlockState(d, state.blocks, state.mu, state.parts)
    assert accessor_values(state) == accessor_values(ref)
    for r in range(state.m):
        for s in range(r + 1, state.m):
            assert engine.q_criterion(state, r, s) == reference.q_criterion(ref, r, s)
            for i in state.endpoints(r):
                for j in state.endpoints(s):
                    assert engine.q_hat_criterion(state, r, s, i, j) == reference.q_hat_criterion(ref, r, s, i, j)


def other_end(path: tuple, x: int) -> int:
    """The end of path that is not x; x itself on a one-taxon path."""
    return path[0] if path[-1] == x else path[-1]


def q_hat_from_the_accessors(state, r, s, i, j) -> Fraction:
    """Q-hat of joining blocks r and s at i and j, in Fractions read from the
    accessors: d(i, j)/2 + (across + (delta(i2, far) + delta(j2, far))/2)/(m-2)
    - P/(m-1), or (d(i, j) + d(i2, j2))/2 - delta(C_r, C_s) at m = 2."""
    d, m = state.d, state.m
    i2 = other_end(state.blocks[r], i)
    j2 = other_end(state.blocks[s], j)
    if m == 2:
        return (d[i, j] + d[i2, j2]) / 2 - state.block_distance(r, s)
    p_total = state.total_pair_sum()
    across = p_total - state.row_sum(r) - state.row_sum(s) + state.block_distance(r, s)
    far = [t for t in range(m) if t not in (r, s)]
    far_sum = sum(state.taxon_block_distance(x, t) for x in (i2, j2) for t in far)
    return d[i, j] / 2 + (across + far_sum / 2) / (m - 2) - p_total / (m - 1)


def exact_step_run(d, scheme):
    """The agglomeration through the step API, as run_neighbor_net records
    it, checking each recorded Q-hat against the accessors' formula; returns
    the records and the lane of every state."""
    state = engine.BlockState.initial(d)
    records, lanes = [], [lane(state)]
    while state.m > 1:
        m = state.m
        pair, q = ((0, 1), engine.q_criterion(state, 0, 1)) if m == 2 else engine._select_pair(state)
        (i, j), q_hat = engine._select_endpoints(state, *pair)
        assert type(q_hat) is Fraction and q_hat == q_hat_from_the_accessors(state, *pair, i, j)
        merged = engine.merge_blocks(state, *pair, i, j)
        mu = engine.adjust_weights(merged, scheme)
        state = merged.with_mu(mu)
        lanes.append(lane(state))
        block = state.blocks[min(pair)]
        split = engine.Split.of(block, d.n) if len(block) < d.n else None
        records.append(engine.StepRecord(m, pair, q, (i, j), q_hat, split, block, mu))
    return tuple(records), lanes


class TestInt64Lane:
    """An exact map's tables are int64 while m * W^2 * sum(N) < 2^63 and
    Python ints once a reweight breaks that."""

    @staticmethod
    def map_with_sum(n: int, total: int) -> DissimilarityMap:
        """An integer map whose entries sum to total (even), spread evenly."""
        k = n * (n - 1) // 2
        upper = [total // 2 // k] * k
        upper[-1] += total // 2 - sum(upper)
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(zip(*upper_pairs(n)), upper):
            rows[i][j] = rows[j][i] = v
        return DissimilarityMap(rows)

    @pytest.mark.parametrize("weight", [1, 2, Fraction(2, 3)])
    @pytest.mark.parametrize("offset", [-2, 0, 2])
    def test_the_bound_decides_the_lane(self, weight, offset):
        # n = 4 singletons of weight numerator W: m W^2 sum(N) = 16 W^2 (sum(N) / 4)
        n, top = 4, Fraction(weight).numerator
        d = self.map_with_sum(n, 2**63 // (n * top * top) + offset)
        assert n * top * top * int(d.integer_form[0].sum()) - 2**63 == n * top * top * offset
        state = engine.BlockState(d, [(t,) for t in range(n)], dict.fromkeys(range(n), weight), [None] * n)
        assert lane(state) == ("int64" if offset < 0 else "object")
        assert_state_matches_the_scalar_engine(state)
        if weight == 1:
            for name in SCHEMES:
                assert_same_run(d, name)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_circular_hundredths_runs_match_the_scalar_engine_through_both_lanes(self, name):
        # weights k/100 at n = 40: every run starts in int64, and the
        # non-dyadic alpha and the quartering scheme grow D past the bound
        # (at n = 32 the quartering scheme stays below 2^63)
        _, _, d = random_circular_instance(random.Random(f"lane/{name}"), 40, exact=True, lo=0.01, hi=1.0)
        records, lanes = exact_step_run(d, SCHEMES[name][0])
        assert lanes[0] == "int64"
        promoted = "object" in lanes
        if name in ("tree-1/3", "original"):
            assert promoted
            k = lanes.index("object")
            assert 0 < k < len(lanes) - 1 and set(lanes[k:]) == {"object"}  # mid-run, for good
        run = engine.run_neighbor_net(d, SCHEMES[name][0])
        assert run.trace.steps == records
        assert_same_run(d, name)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_a_run_leaves_the_lane_at_the_first_step_that_breaks_the_rule(self, name):
        # the rule from the definition: W the largest |weight numerator| over
        # the new D, or D's growth factor, after each step's reweight
        _, _, d = random_circular_instance(random.Random(f"lane/{name}"), 40, exact=True, lo=0.01, hi=1.0)
        size, scheme = int(d.integer_form[0].sum()), SCHEMES[name][0]
        state, fits = engine.BlockState.initial(d), True
        while state.m > 1:
            den = state._den[1]
            pair = (0, 1) if state.m == 2 else engine._select_pair(state)[0]
            merged = engine.merge_blocks(state, *pair, *engine._select_endpoints(state, *pair)[0])
            state = merged.with_mu(engine.adjust_weights(merged, scheme))
            grown = state._den[1]
            top = max(*(abs(v) * grown for v in state.mu.values()), grown // den, 1)
            fits = fits and state.m * top**2 * size < 2**63
            assert lane(state) == ("int64" if fits else "object")

    def test_promotion_keeps_every_value(self):
        _, _, d = random_circular_instance(random.Random(37), 30, exact=True, lo=0.01, hi=1.0)
        scheme = engine.TreeWeighting(Fraction(1, 3))
        state = engine.BlockState.initial(d)
        while lane(state) == "int64" and state.m > 2:
            previous = state
            pair = engine._select_pair(state)[0]
            (i, j), _ = engine._select_endpoints(state, *pair)
            merged = engine.merge_blocks(state, *pair, i, j)
            state = merged.with_mu(engine.adjust_weights(merged, scheme))
        assert lane(state) == "object"
        assert lane(previous) == lane(merged) == "int64"  # snapshots keep their lane
        assert_state_matches_the_scalar_engine(state)
        assert all(type(x) is int for x in (*state._bb.flat, *state._w))
        assert_state_matches_the_scalar_engine(previous)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_maps_between_2_53_and_2_63_run_on_int64_and_match_the_scalar_engine(self, n, name):
        # numerators near 2^50 put m * W^2 * sum(N) between 2^53 and 2^63
        # at the start, and under the TSP weights (W = 2) for the whole run
        rng = random.Random(f"int64/{n}/{name}")
        den = rng.choice((1, 7))
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(2**49, 2**50), den)
        d = DissimilarityMap(rows)
        assert 2**53 < n * int(d.integer_form[0].sum()) < 2**63
        records, lanes = exact_step_run(d, SCHEMES[name][0])
        assert lanes[0] == "int64"
        if name == "balanced-tsp":
            assert set(lanes) == {"int64"}
        assert engine.run_neighbor_net(d, SCHEMES[name][0]).trace.steps == records
        assert_same_run(d, name)

    def test_an_all_zero_map_leaves_the_lane_before_its_weights_overflow(self):
        # sum(N) = 0 counts as 1: alpha = 1/3 makes D = 3^41 > 2^63 at n = 42
        d = DissimilarityMap(np.zeros((42, 42), dtype=np.int64))
        records, lanes = exact_step_run(d, SCHEMES["tree-1/3"][0])
        assert lanes[0] == "int64" and lanes[-1] == "object"
        assert_same_run(d, "tree-1/3")

    def test_a_state_built_past_the_bound_stays_on_python_ints(self):
        d = rational_map(random.Random(38), 9, "ties")
        n, huge = d.n, Fraction(2**40, 3)
        state = engine.BlockState(d, [(t,) for t in range(n)], dict.fromkeys(range(n), huge), [None] * n)
        assert lane(state) == "object"
        assert_state_matches_the_scalar_engine(state)
        merged = engine.merge_blocks(state, 0, 1, 0, 1)
        state = merged.with_mu(engine.adjust_weights(merged, engine.TreeWeighting(Fraction(1, 3))))
        assert lane(state) == "object"
        assert_state_matches_the_scalar_engine(state)

    @pytest.mark.parametrize("weight", [Fraction(7, 2), 3, np.int64(5), 2**45])
    def test_with_mu_takes_a_weight_above_one(self, weight):
        d = rational_map(random.Random(39), 7, "ties")
        merged = engine.merge_blocks(engine.BlockState.initial(d), 2, 5, 2, 5)
        assert lane(merged) == "int64"
        state = merged.with_mu({2: weight, 5: Fraction(1, 2)})
        assert state.mu[2] == weight and type(state.mu[2]) is Fraction
        assert lane(state) == ("object" if weight == 2**45 else "int64")
        assert_state_matches_the_scalar_engine(state)
        assert lane(merged) == "int64" and merged.mu[2] == 1  # the snapshot is unchanged

    def test_q_hat_is_evaluated_once_per_step(self, monkeypatch):
        calls = []
        real = engine.q_hat_criterion
        monkeypatch.setattr(engine, "q_hat_criterion", lambda *args: calls.append(args) or real(*args))
        d = rational_map(random.Random(40), 12, "ties")
        result = engine.run_neighbor_net(d)
        assert len(calls) == len(result.trace.steps) == d.n - 1


class TestWeightsOnExactMaps:
    def test_a_float_weight_is_refused_with_its_taxon(self):
        d = rational_map(random.Random(41), 5, "ties")
        merged = engine.merge_blocks(engine.BlockState.initial(d), 0, 1, 0, 1)
        with pytest.raises(ValueError, match="taxon 0"):
            merged.with_mu({0: 0.5})
        blocks, parts = [(t,) for t in range(5)], [None] * 5
        with pytest.raises(ValueError, match="taxon 3"):
            engine.BlockState(d, blocks, {0: 1, 1: 1, 2: 1, 3: 0.25, 4: 1}, parts)
        with pytest.raises(ValueError, match="taxon 1"):
            engine.BlockState(d, blocks, {0: 1, 1: True, 2: 1, 3: 1, 4: 1}, parts)

    def test_ints_fractions_and_numpy_ints_are_taken(self):
        d = rational_map(random.Random(42), 5, "ties")
        mu = {0: 1, 1: Fraction(1, 3), 2: np.int64(2), 3: np.int32(1), 4: Fraction(5, 2)}
        state = engine.BlockState(d, [(t,) for t in range(5)], mu, [None] * 5)
        assert state.mu == mu and all(type(v) is Fraction for v in state.mu.values())
        assert_state_matches_the_scalar_engine(state)
