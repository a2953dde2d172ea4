"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with pytest -s / in the captured
output) so the gate can be read off directly.
"""
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from neighbornet.agglomerate import (
    BalancedTSP,
    BlockState,
    OriginalBM,
    TreeWeighting,
    adjust_weights,
    merge_blocks,
    run_neighbor_net,
    _select_endpoints,
    _select_pair,
)
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    WeightedSplitSystem,
    all_circular_splits,
    canonical_cycle,
    count_distinct_orderings,
    count_nnet_outputs,
    metric_from_splits,
)
from neighbornet.kalmanson import is_kalmanson, radius_perturbation_check
from neighbornet.oracle import (
    brute_force_tsp,
    canonical_orderings,
    enumerated_balanced_length,
    enumerated_join_family_length,
    join_extensions,
    positive_split_quartets,
    reconstruction_residual,
    satisfies_four_point,
    strict_quartets,
    wls_length_identity_check,
    z_criterion,
)
from neighbornet.tsp import greedy_tsp, read_tsplib_euc2d
from neighbornet.weights import (
    clamp_nonnegative,
    lambda_formula,
    nnls_fit,
)
import scalar_engine
from conftest import random_circular_instance, random_dissimilarity, random_tree_instance
from test_agglomerate import BM_DIVERGENCE_ROWS
from test_tsp import st70_text


def test_criterion_1_consistency_and_exact_recovery():
    start = time.perf_counter()
    rng = random.Random(101)
    for trial in range(200):
        n = rng.randint(5, 10)
        pi, system, d = random_circular_instance(rng, n, lo=0.1, hi=2.0)
        result = run_neighbor_net(d, BalancedTSP())
        assert result.ordering == pi.canonical(), f"trial {trial}"
        lam = lambda_formula(d, result.ordering)
        err = max(abs(lam[s] - w) for s, w in system.items())
        assert err <= 1e-9, f"trial {trial}: reconstruction error {err}"
    for trial in range(25):
        n = rng.randint(5, 10)
        pi, system, d = random_circular_instance(rng, n, exact=True, lo=0.1, hi=2.0)
        result = run_neighbor_net(d, BalancedTSP())
        assert result.ordering == pi.canonical()
        lam = lambda_formula(d, result.ordering)
        assert all(lam[s] == w for s, w in system.items()), "rational recovery not exact"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: consistency 200/200 float + 25/25 rational, "
          f"exact/<=1e-9 weight recovery, {elapsed:.2f}s")


def test_criterion_2_optimal_radius():
    rng = random.Random(102)
    for trial in range(200):
        n = rng.randint(5, 10)
        pi, system, d = random_circular_instance(rng, n, lo=0.1, hi=2.0)
        eps = min(w for _, w in system.items())
        noise = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.uniform(-0.49 * eps, 0.49 * eps)
                noise[i][j] = noise[j][i] = v
        assert radius_perturbation_check(system, noise), f"trial {trial}"
    print("\nACCEPTANCE 2 PASS: recovery under sup-noise 0.49*eps in 200/200 trials")


def test_criterion_3_nj_equivalence_and_bm_divergence():
    rng = random.Random(103)
    for trial in range(100):
        n = rng.randint(4, 15)
        d = random_dissimilarity(rng, n)
        nnet_splits = set(run_neighbor_net(d, TreeWeighting()).tree_splits)
        nj_splits = set(scalar_engine.neighbor_joining(d, "balanced"))
        assert nnet_splits == nj_splits, f"trial {trial}"
    d = DissimilarityMap(BM_DIVERGENCE_ROWS)
    assert set(run_neighbor_net(d, OriginalBM()).tree_splits) != set(scalar_engine.neighbor_joining(d))
    print("\nACCEPTANCE 3 PASS: tree-weighted splits == independent NJ recursion in 100/100 trials; "
          "frozen input where the historical scheme's tree differs")


def test_criterion_4_greedy_balanced_length_steps():
    rng = random.Random(104)
    for trial in range(50):
        n = rng.randint(4, 7)
        d = random_dissimilarity(rng, n, exact=True)
        state = BlockState.initial(d)
        while state.m > 1:
            pair = (0, 1) if state.m == 2 else _select_pair(state)[0]
            r, s = pair
            (i, j), _ = _select_endpoints(state, r, s)
            pco = state.to_pco()
            lengths = {ij: enumerated_balanced_length(d, joined)
                       for ij, joined in join_extensions(pco, r, s)}
            assert lengths[(i, j)] == min(lengths.values()), f"trial {trial}"
            if state.m >= 3:
                drop = enumerated_balanced_length(d, pco) - enumerated_join_family_length(d, pco, r, s)
                assert z_criterion(state, r, s) == drop, f"trial {trial}: Z identity"
            state = merge_blocks(state, r, s, i, j)
            state = state.with_mu(adjust_weights(state, BalancedTSP()))
    print("\nACCEPTANCE 4 PASS: per-step balanced-length minimality and exact Z identity "
          "in 50/50 rational runs")


def test_criterion_5_counting():
    assert [count_nnet_outputs(n) for n in (4, 5, 6, 7)] == [6, 60, 840, 15120]
    for n in range(3, 9):
        enumerated = {canonical_cycle(p) for p in permutations(range(n))}
        assert len(enumerated) == count_distinct_orderings(n)
        assert enumerated == set(canonical_orderings(n))
    print("\nACCEPTANCE 5 PASS: output counts match {6,60,840,15120}; "
          "ordering counts match exhaustive enumeration for n<=8")


def test_criterion_6_tsp_optimality_on_kalmanson_inputs():
    rng = random.Random(106)
    for trial in range(100):
        n = rng.randint(5, 9)
        pi, _, d = random_circular_instance(rng, n, lo=0.1, hi=2.0)
        greedy = greedy_tsp(d, BalancedTSP())
        best = brute_force_tsp(d)
        assert greedy.ordering == best.ordering, f"trial {trial}"
    print("\nACCEPTANCE 6 PASS: greedy tour == brute-force optimum in 100/100 trials")


def test_criterion_7_st70_experiment():
    text = st70_text()
    if text is None:
        pytest.skip(
            "st70.tsp unavailable: TSPLIB data is not distributable through this "
            "environment's package mirrors and the file is not bundled; place it at "
            "data/st70.tsp or set NEIGHBORNET_ST70 (see decisions ledger)"
        )
    d = read_tsplib_euc2d(text, rounding="none")
    start = time.perf_counter()
    balanced = greedy_tsp(d, BalancedTSP())
    elapsed = time.perf_counter() - start
    tree = greedy_tsp(d, TreeWeighting())
    assert 678.598 <= balanced.length <= 780.0, balanced.length
    assert tree.length > balanced.length
    assert elapsed < 5.0, f"balanced run took {elapsed:.2f}s"
    within_1pct = abs(balanced.length - 759.801) <= 0.01 * 759.801
    print(f"\nACCEPTANCE 7 PASS: st70 balanced tour {balanced.length:.3f} in "
          f"[678.598, 780.0], tree tour {tree.length:.3f} longer, {elapsed:.2f}s "
          f"(bonus: within 1% of 759.801: {within_1pct})")


def test_criterion_8_wls_length_identity():
    rng = random.Random(108)
    for trial in range(20):
        n = rng.choice([5, 6, 7])
        if trial % 2 == 0:
            pi, _, base = random_circular_instance(rng, n)
            splits = all_circular_splits(pi)
            rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = float(base[i, j]) + rng.uniform(0, 0.05)
            d = DissimilarityMap(rows)
        else:
            d, splits, _ = random_tree_instance(rng, n)
        lhs, rhs = wls_length_identity_check(d, splits)
        assert abs(lhs - rhs) <= 1e-9, f"trial {trial}: {lhs} vs {rhs}"
    for trial in range(5):
        n = rng.choice([5, 6])
        pi, _, d = random_circular_instance(rng, n, exact=True)
        lhs, rhs = wls_length_identity_check(d, all_circular_splits(pi))
        assert lhs == rhs, f"rational trial {trial}"
    print("\nACCEPTANCE 8 PASS: eta-weighted WLS length identity to 1e-9 in 20/20 "
          "trials, exact on 5/5 decomposable rational inputs")


def test_criterion_9_characterization_roundtrips():
    rng = random.Random(109)
    for trial in range(100):
        n = rng.randint(4, 8)
        _, splits, _ = random_tree_instance(rng, n, exact=True)
        weights = {s: Fraction(rng.randint(0, 8), 4) for s in splits}
        d = metric_from_splits(WeightedSplitSystem(n, weights))
        assert satisfies_four_point(d, tol=0), f"trial {trial}: four-point"
    quartet_checks = 0
    for trial in range(100):
        n = rng.randint(5, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        pi = CircularOrdering(perm)
        weights = {s: Fraction(rng.randint(0, 6), 4) for s in all_circular_splits(pi)}
        system = WeightedSplitSystem(n, weights)
        d = metric_from_splits(system)
        assert is_kalmanson(d, pi, tol=0), f"trial {trial}: Kalmanson"
        assert strict_quartets(d, pi, tol=0) == positive_split_quartets(system), \
            f"trial {trial}: quartet sets"
        quartet_checks += 1
    print(f"\nACCEPTANCE 9 PASS: 100/100 compatible systems satisfy the four-point "
          f"condition; 100/100 circular systems are Kalmanson with strict-quartet "
          f"sets equal to positive-split separation ({quartet_checks} exhaustive checks)")


def test_criterion_10_nnls_dominance():
    rng = random.Random(110)
    for trial in range(50):
        n = rng.randint(5, 8)
        pi, _, base = random_circular_instance(rng, n)
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = float(base[i, j]) + rng.uniform(0, 0.4)
        d = DissimilarityMap(rows)
        fit = nnls_fit(d, pi)
        clamped = clamp_nonnegative(lambda_formula(d, pi))
        assert reconstruction_residual(d, dict(fit.items())) <= \
            reconstruction_residual(d, clamped) + 1e-9, f"trial {trial}"
    rng2 = random.Random(111)
    for trial in range(10):
        n = rng2.randint(5, 8)
        pi, _, d = random_circular_instance(rng2, n)
        fit = nnls_fit(d, pi)
        assert reconstruction_residual(d, dict(fit.items())) <= 1e-10, f"trial {trial}"
    print("\nACCEPTANCE 10 PASS: NNLS residual <= clamped-formula residual in 50/50 "
          "perturbed trials; residual <= 1e-10 on 10/10 unperturbed inputs")
