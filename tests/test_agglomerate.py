"""Engine behavior: selection criteria, merges, weight adjustment, full runs,
and neighbor-joining as the tree-weighted run, checked against the independent
recursion in scalar_engine."""
import random
from fractions import Fraction

import pytest

from neighbornet import agglomerate
from neighbornet.agglomerate import (
    BalancedTSP,
    BlockState,
    OriginalBM,
    TreeWeighting,
    adjust_weights,
    merge_blocks,
    neighbor_joining,
    q_criterion,
    q_hat_criterion,
    run_neighbor_net,
    _select_endpoints,
    _select_pair,
)
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    Split,
)
from neighbornet.oracle import (
    enumerated_balanced_length,
    is_circular_split,
    is_pairwise_compatible,
    join_extensions,
)
import scalar_engine
from conftest import (
    permute_map,
    random_circular_instance,
    random_dissimilarity,
    random_tree_instance,
    relabel_ordering,
    relabel_split,
)


def quartet_tree_metric():
    """Additive metric for the quartet tree with cherries (0,1) and (2,3)."""
    #   0 --1        1-- 2
    #        \______/
    #   1 --1/  3   \1-- 3
    rows = [
        [0, 2, 5, 5],
        [2, 0, 5, 5],
        [5, 5, 0, 2],
        [5, 5, 2, 0],
    ]
    return DissimilarityMap(rows)


class TestQCriterion:
    def test_equal_distances_give_symmetric_q(self):
        d = DissimilarityMap([[0, 3, 3], [3, 0, 3], [3, 3, 0]])
        state = BlockState.initial(d)
        values = {(r, s): q_criterion(state, r, s) for r in range(3) for s in range(3) if r != s}
        assert set(values.values()) == {-9}  # (m-2)c - 2c - 2c = -3c with c=3

    def test_quartet_argmin_is_a_cherry(self):
        state = BlockState.initial(quartet_tree_metric())
        (r, s), _ = _select_pair(state)
        assert {r, s} in ({0, 1}, {2, 3})

    def test_m2_degenerates_to_minus_twice_distance(self):
        d = DissimilarityMap([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        state = BlockState.initial(d)
        state = merge_blocks(state, 0, 1, 0, 1)
        state = state.with_mu(adjust_weights(state, BalancedTSP()))
        assert state.m == 2
        assert q_criterion(state, 0, 1) == -2 * state.block_distance(0, 1)

    def test_same_block_rejected(self):
        state = BlockState.initial(quartet_tree_metric())
        with pytest.raises(ValueError):
            q_criterion(state, 1, 1)


class TestQHatCriterion:
    def test_singleton_blocks_have_single_candidate(self):
        state = BlockState.initial(quartet_tree_metric())
        candidates = [(i, j) for i in state.endpoints(0) for j in state.endpoints(1)]
        assert candidates == [(0, 1)]

    def test_non_endpoint_rejected(self):
        d = random_dissimilarity(random.Random(0), 5)
        state = BlockState.initial(d)
        state = merge_blocks(state, 0, 1, 0, 1)
        state = state.with_mu(adjust_weights(state, BalancedTSP()))
        state2 = merge_blocks(state, 0, 1, 1, 2)
        state2 = state2.with_mu(adjust_weights(state2, BalancedTSP()))
        # block 0 is now the path (0,1,2); taxon 1 is interior
        with pytest.raises(ValueError):
            q_hat_criterion(state2, 0, 1, 1, 3)

    def test_equals_exact_balanced_length_change(self):
        rng = random.Random(21)
        for _ in range(6):
            n = rng.choice([5, 6, 7])
            d = random_dissimilarity(rng, n, exact=True)
            state = BlockState.initial(d)
            while state.m > 1:
                pco = state.to_pco()
                l_before = enumerated_balanced_length(d, pco)
                pair = (0, 1) if state.m == 2 else _select_pair(state)[0]
                r, s = pair
                for (i, j), joined in join_extensions(pco, r, s):
                    assert q_hat_criterion(state, r, s, i, j) == enumerated_balanced_length(d, joined) - l_before
                (i, j), _ = _select_endpoints(state, r, s)
                state = merge_blocks(state, r, s, i, j)
                state = state.with_mu(adjust_weights(state, BalancedTSP()))

    def test_chosen_join_minimizes_balanced_length(self):
        rng = random.Random(22)
        for _ in range(8):
            n = rng.choice([5, 6, 7])
            d = random_dissimilarity(rng, n, exact=True)
            state = BlockState.initial(d)
            while state.m > 1:
                pair = (0, 1) if state.m == 2 else _select_pair(state)[0]
                r, s = pair
                (i, j), _ = _select_endpoints(state, r, s)
                pco = state.to_pco()
                lengths = {ij: enumerated_balanced_length(d, joined) for ij, joined in join_extensions(pco, r, s)}
                assert lengths[(i, j)] == min(lengths.values())
                state = merge_blocks(state, r, s, i, j)
                state = state.with_mu(adjust_weights(state, BalancedTSP()))


    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("scheme", [BalancedTSP(), TreeWeighting(), OriginalBM()], ids=["tsp", "tree", "original"])
    def test_a_run_evaluates_q_hat_once_per_step_for_its_winner(self, monkeypatch, scheme, exact):
        calls = []

        def counted(state, r, s, i, j):
            calls.append(((i, j), q_hat_criterion(state, r, s, i, j)))
            return calls[-1][1]

        monkeypatch.setattr(agglomerate, "q_hat_criterion", counted)
        d = random_dissimilarity(random.Random(41), 13, exact=exact)
        steps = run_neighbor_net(d, scheme).trace.steps
        assert len(calls) == len(steps) == d.n - 1
        # the recorded value is the winner's q_hat_criterion, bit for bit
        assert [(ends, type(v), repr(v)) for ends, v in calls] == [
            (step.endpoints, type(step.q_hat_value), repr(step.q_hat_value)) for step in steps
        ]

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_select_endpoints_returns_its_winners_q_hat(self, exact):
        d = random_dissimilarity(random.Random(42), 9, exact=exact)
        state = BlockState.initial(d)
        while state.m > 1:
            r, s = (0, 1) if state.m == 2 else _select_pair(state)[0]
            (i, j), value = _select_endpoints(state, r, s)
            expected = q_hat_criterion(BlockState(d, state.blocks, state.mu, state.parts), r, s, i, j)
            assert value == expected if exact else abs(value - expected) <= 1e-9 * d.array.max()
            assert repr(value) == repr(q_hat_criterion(state, r, s, i, j))
            state = merge_blocks(state, r, s, i, j)
            state = state.with_mu(adjust_weights(state, OriginalBM()))


class TestMergeBlocks:
    def test_merge_singletons(self):
        d = random_dissimilarity(random.Random(1), 4)
        state = BlockState.initial(d)
        merged = merge_blocks(state, 0, 1, 0, 1)
        assert merged.blocks[0] == (0, 1)
        assert merged.m == 3

    def test_merge_reverses_to_align_endpoints(self):
        d = random_dissimilarity(random.Random(2), 4)
        state = BlockState.initial(d)
        state = merge_blocks(state, 0, 1, 0, 1)  # (0,1)
        state = merge_blocks(state, 1, 2, 2, 3)  # (2,3)
        merged = merge_blocks(state, 0, 1, 0, 3)
        assert merged.blocks[0] == (1, 0, 3, 2)

    def test_final_block_closes_to_valid_ordering(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(4, 9)
            d = random_dissimilarity(rng, n)
            result = run_neighbor_net(d)
            assert sorted(result.ordering.order) == list(range(n))


class TestAdjustWeights:
    def test_tree_weighting_on_singletons(self):
        d = random_dissimilarity(random.Random(3), 4, exact=True)
        state = BlockState.initial(d)
        state = merge_blocks(state, 0, 1, 0, 1)
        mu = adjust_weights(state, TreeWeighting())
        assert mu[0] == mu[1] == Fraction(1, 2)

    def test_balanced_tsp_zeroes_interior(self):
        d = random_dissimilarity(random.Random(4), 4, exact=True)
        state = BlockState.initial(d)
        state = merge_blocks(state, 0, 1, 0, 1)  # path (1,0)... orientation depends on join
        state = state.with_mu(adjust_weights(state, BalancedTSP()))
        state = merge_blocks(state, 0, 1, state.blocks[0][-1], 2)
        mu = adjust_weights(state, BalancedTSP())
        path = state.blocks[0]
        assert mu[path[0]] == mu[path[-1]] == Fraction(1, 2)
        assert mu[path[1]] == 0

    def test_original_bm_quarters_and_halves(self):
        d = random_dissimilarity(random.Random(5), 5, exact=True)
        state = BlockState.initial(d)
        state = merge_blocks(state, 0, 1, 0, 1)
        state = state.with_mu(adjust_weights(state, OriginalBM()))
        assert state.mu[0] == state.mu[1] == Fraction(1, 2)
        # merge the compound (0,1)-block with singleton {2} at junction 1
        path = state.blocks[0]
        state = merge_blocks(state, 0, 1, 1, 2)
        mu = adjust_weights(state, OriginalBM())
        # far sub-block {0} and the incoming {2} are quartered, near {1} halved
        assert mu[0] == Fraction(1, 2) * Fraction(1, 4)
        assert mu[1] == Fraction(1, 2) * Fraction(1, 2)
        assert mu[2] == Fraction(1, 4)

    def test_original_bm_double_compound(self):
        d = random_dissimilarity(random.Random(6), 8, exact=True)
        state = BlockState.initial(d)
        for a, b in ((0, 1), (2, 3)):
            r = state.blocks.index((a,))
            s = state.blocks.index((b,))
            state = merge_blocks(state, r, s, a, b)
            state = state.with_mu(adjust_weights(state, OriginalBM()))
        r = state.blocks.index((0, 1))
        s = state.blocks.index((2, 3))
        state = merge_blocks(state, r, s, 1, 2)
        mu = adjust_weights(state, OriginalBM())
        # both blocks compound: each application quarters the far part and the
        # other block, halves the near part
        assert mu[0] == Fraction(1, 2) * Fraction(1, 4) * Fraction(1, 4)
        assert mu[1] == Fraction(1, 2) * Fraction(1, 2) * Fraction(1, 4)
        assert mu[2] == Fraction(1, 2) * Fraction(1, 4) * Fraction(1, 2)
        assert mu[3] == Fraction(1, 2) * Fraction(1, 4) * Fraction(1, 4)

    def test_requires_a_merge(self):
        d = random_dissimilarity(random.Random(7), 4)
        with pytest.raises(ValueError):
            adjust_weights(BlockState.initial(d), BalancedTSP())

    @pytest.mark.parametrize("scheme", [None, "balanced-tsp", 0.5, TreeWeighting])
    def test_an_unknown_scheme_is_a_type_error(self, scheme):
        state = merge_blocks(BlockState.initial(random_dissimilarity(random.Random(8), 4)), 0, 1, 0, 1)
        with pytest.raises(TypeError, match="unknown weighting scheme"):
            adjust_weights(state, scheme)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            TreeWeighting(1.5)
        for alias in ("bogus", "balanced"):  # the default is the exact 1/2
            with pytest.raises(ValueError):
                TreeWeighting(alias)


class TestRunNeighborNet:
    def test_zero_map_is_deterministic(self):
        d = DissimilarityMap([[0.0] * 5 for _ in range(5)])
        first = run_neighbor_net(d)
        second = run_neighbor_net(d)
        assert first.ordering == second.ordering
        assert [st.pair for st in first.trace.steps] == [st.pair for st in second.trace.steps]
        # any ordering is valid for the zero map; the tie rule fixes this one
        assert first.ordering == CircularOrdering([0, 1, 3, 4, 2])

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            run_neighbor_net(DissimilarityMap([[0]]))

    def test_recovers_generating_ordering(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(5, 10)
            pi, _, d = random_circular_instance(rng, n)
            assert run_neighbor_net(d).ordering == pi.canonical()

    def test_tree_metric_tree_splits(self):
        rng = random.Random(33)
        for _ in range(8):
            n = rng.randint(5, 9)
            d, _, internal = random_tree_instance(rng, n)
            result = run_neighbor_net(d, TreeWeighting())
            nontrivial = {s for s in result.tree_splits if len(s.block) >= 2 and len(s.other) >= 2}
            assert nontrivial == internal

    def test_trace_structure(self):
        rng = random.Random(35)
        n = 7
        d = random_dissimilarity(rng, n)
        result = run_neighbor_net(d)
        steps = result.trace.steps
        assert len(steps) == n - 1
        assert [st.m for st in steps] == [n - t for t in range(n - 1)]
        assert steps[-1].split is None
        assert len(result.tree_splits) == n - 2
        for st in steps[:-1]:
            merged = frozenset(st.merged_block)
            assert merged in (st.split.block, st.split.other)

    def test_three_taxa_run(self):
        d = DissimilarityMap([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        result = run_neighbor_net(d)
        assert result.ordering == CircularOrdering([0, 1, 2])
        assert len(result.tree_splits) == 1
        assert len(result.trace.steps) == 2

    def test_all_recorded_splits_circular_wrt_ordering(self):
        rng = random.Random(36)
        for scheme in (BalancedTSP(), TreeWeighting(), OriginalBM()):
            n = rng.randint(5, 9)
            d = random_dissimilarity(rng, n)
            result = run_neighbor_net(d, scheme)
            for s in result.tree_splits:
                assert is_circular_split(s, result.ordering)

    def test_merge_sequence_is_laminar_and_contiguous(self):
        rng = random.Random(37)
        d = random_dissimilarity(rng, 8)
        result = run_neighbor_net(d)
        final_path = list(result.trace.steps[-1].merged_block)
        blocks = [frozenset(st.merged_block) for st in result.trace.steps]
        for b in blocks:
            positions = sorted(final_path.index(t) for t in b)
            assert positions == list(range(positions[0], positions[0] + len(b)))
        for a in blocks:
            for b in blocks:
                assert a <= b or b <= a or not (a & b)

    def test_relabel_equivariance(self):
        rng = random.Random(38)
        for scheme in (BalancedTSP(), TreeWeighting()):
            for _ in range(5):
                n = rng.randint(5, 10)
                d = random_dissimilarity(rng, n)
                perm = list(range(n))
                rng.shuffle(perm)
                base = run_neighbor_net(d, scheme)
                permuted = run_neighbor_net(permute_map(d, perm), scheme)
                assert relabel_ordering(base.ordering, perm) == permuted.ordering
                assert {relabel_split(s, perm) for s in base.tree_splits} == set(permuted.tree_splits)


class TestNeighborJoining:
    def test_quartet_recovers_cherries(self):
        splits = neighbor_joining(quartet_tree_metric())
        assert Split.of({0, 1}, 4) in splits

    def test_matches_tree_weighted_run(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(4, 15)
            d = random_dissimilarity(rng, n)
            result = run_neighbor_net(d, TreeWeighting())
            assert set(result.tree_splits) == set(scalar_engine.neighbor_joining(d))

    def test_matches_tree_weighted_run_other_alpha(self):
        rng = random.Random(42)
        for alpha in (0.3, 0.8):
            for _ in range(5):
                n = rng.randint(4, 12)
                d = random_dissimilarity(rng, n)
                result = run_neighbor_net(d, TreeWeighting(alpha))
                assert set(result.tree_splits) == set(scalar_engine.neighbor_joining(d, alpha))

    def test_consistent_on_additive_metrics(self):
        rng = random.Random(43)
        for _ in range(8):
            n = rng.randint(5, 12)
            d, _, internal = random_tree_instance(rng, n)
            splits = neighbor_joining(d)
            nontrivial = {s for s in splits if len(s.block) >= 2 and len(s.other) >= 2}
            assert nontrivial == internal

    def test_splits_always_pairwise_compatible(self):
        rng = random.Random(44)
        for scheme in (TreeWeighting(), TreeWeighting(0.25), OriginalBM()):
            for _ in range(5):
                n = rng.randint(4, 10)
                d = random_dissimilarity(rng, n)
                result = run_neighbor_net(d, scheme)
                assert is_pairwise_compatible(set(result.tree_splits))


# Frozen instance where the historical weighting produces a different tree
# than neighbor-joining (found by randomized search, seed 0).
BM_DIVERGENCE_ROWS = [
    [0.0, 2.322, 1.378, 0.925, 1.632, 1.334, 2.395, 1.049],
    [2.322, 0.0, 1.534, 1.833, 2.743, 1.613, 0.989, 2.316],
    [1.378, 1.534, 0.0, 1.931, 0.901, 2.747, 2.952, 2.469],
    [0.925, 1.833, 1.931, 0.0, 2.726, 1.068, 2.244, 2.717],
    [1.632, 2.743, 0.901, 2.726, 0.0, 2.115, 1.522, 0.482],
    [1.334, 1.613, 2.747, 1.068, 2.115, 0.0, 1.416, 1.91],
    [2.395, 0.989, 2.952, 2.244, 1.522, 1.416, 0.0, 2.756],
    [1.049, 2.316, 2.469, 2.717, 0.482, 1.91, 2.756, 0.0],
]


class TestOriginalBMDivergence:
    def test_regression_tree_differs_from_nj(self):
        d = DissimilarityMap(BM_DIVERGENCE_ROWS)
        bm = set(run_neighbor_net(d, OriginalBM()).tree_splits)
        nj = set(scalar_engine.neighbor_joining(d))
        assert bm != nj
        assert is_pairwise_compatible(bm)


class TestWithMu:
    def test_requires_a_merge(self):
        d = random_dissimilarity(random.Random(8), 4)
        with pytest.raises(ValueError, match="no merge"):
            BlockState.initial(d).with_mu({0: 0.5})

    def test_rejects_a_weight_outside_the_merged_block(self):
        d = random_dissimilarity(random.Random(9), 5, exact=True)
        state = merge_blocks(BlockState.initial(d), 1, 3, 1, 3)
        mu = adjust_weights(state, BalancedTSP())
        with pytest.raises(ValueError, match="last merged block"):
            state.with_mu({**mu, 0: Fraction(1, 2)})
        assert state.with_mu(mu).mu == {0: 1, 1: Fraction(1, 2), 2: 1, 3: Fraction(1, 2), 4: 1}
