"""Core types, split machinery, and the counting identities."""
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    PartialCircularOrdering,
    Split,
    WeightedSplitSystem,
    all_circular_splits,
    canonical_cycle,
    count_associahedron_vertices,
    count_distinct_orderings,
    count_nnet_outputs,
    join_paths,
    metric_from_splits,
)
from neighbornet.agglomerate import BalancedTSP, BlockState, OriginalBM, TreeWeighting, adjust_weights, merge_blocks
from neighbornet.oracle import (
    NodeWeighting,
    canonical_orderings,
    is_circular_split,
    is_pairwise_compatible,
    split_metric,
)
from conftest import random_circular_instance, random_dissimilarity, random_tree_instance


def split(members, n):
    return Split.of(members, n)


class TestDissimilarityMap:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DissimilarityMap([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            DissimilarityMap([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            DissimilarityMap([[0, -1], [-1, 0]])
        with pytest.raises(ValueError):
            DissimilarityMap([[0, 1, 2], [1, 0, 3]])

    def test_exact_flag_converts(self):
        d = DissimilarityMap([[0, 0.5], [0.5, 0]], exact=True)
        assert d[0, 1] == Fraction(1, 2)
        assert d.is_exact

    def test_to_exact_roundtrip(self):
        d = DissimilarityMap([[0, 1.25], [1.25, 0]])
        assert not d.is_exact
        assert d.to_exact()[0, 1] == Fraction(5, 4)


class TestSplit:
    def test_canonical_block_contains_zero(self):
        s = split({2, 3}, 4)
        assert s.block == frozenset({0, 1})
        assert s == split({0, 1}, 4)

    def test_invalid_splits_rejected(self):
        with pytest.raises(ValueError):
            split(set(), 4)
        with pytest.raises(ValueError):
            split({0, 1, 2, 3}, 4)
        with pytest.raises(ValueError):
            split({0}, 2)

    def test_split_metric_examples(self):
        s = split({0, 1}, 4)
        assert split_metric(s, 0, 1) == 0
        assert split_metric(s, 1, 2) == 1
        s2 = split({0}, 4)
        assert split_metric(s2, 0, 0) == 0
        with pytest.raises(IndexError):
            split_metric(s, 0, 7)


class TestMetricFromSplits:
    def test_empty_system_is_zero(self):
        d = metric_from_splits(WeightedSplitSystem(4, {}))
        assert all(d[i, j] == 0 for i in range(4) for j in range(4))

    def test_single_split_scaled(self):
        d = metric_from_splits(WeightedSplitSystem(4, {split({0, 1}, 4): 2}))
        for i, j, want in [(0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 3, 2), (0, 1, 0), (2, 3, 0)]:
            assert d[i, j] == want

    def test_matches_double_loop_oracle(self):
        rng = random.Random(5)
        n = 5
        splits = random.Random(6).sample(sorted(all_circular_splits(CircularOrdering(range(n))),
                                                key=lambda s: sorted(s.block)), 5)
        weights = {s: Fraction(rng.randint(1, 9), 2) for s in splits}
        d = metric_from_splits(WeightedSplitSystem(n, weights))
        for i in range(n):
            for j in range(n):
                expected = sum(w * split_metric(s, i, j) for s, w in weights.items())
                assert d[i, j] == expected

    def test_triangle_inequality_on_random_systems(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(4, 8)
            _, _, d = random_circular_instance(rng, n, exact=True)
            for i, j, k in combinations(range(n), 3):
                assert d[i, k] <= d[i, j] + d[j, k]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedSplitSystem(4, {split({0, 1}, 4): -1})


class TestCompatibility:
    def test_nested_blocks_compatible(self):
        assert is_pairwise_compatible([split({0, 1}, 4), split({0, 1, 2}, 4)])

    def test_crossing_blocks_incompatible(self):
        assert not is_pairwise_compatible([split({0, 1}, 4), split({1, 2}, 4)])

    def test_tree_splits_compatible(self):
        rng = random.Random(3)
        for _ in range(5):
            _, splits, _ = random_tree_instance(rng, 6)
            assert is_pairwise_compatible(splits)


class TestCircularOrdering:
    def test_needs_three_taxa(self):
        with pytest.raises(ValueError):
            CircularOrdering([0, 1])

    def test_canonical_form_shape(self):
        o = CircularOrdering([3, 2, 0, 1]).canonical()
        assert o.order[0] == 0
        assert o.order[1] < o.order[-1]

    @given(st.permutations(list(range(6))), st.integers(0, 5), st.booleans())
    def test_equality_is_dihedral(self, perm, rotation, reflect):
        seq = perm[rotation:] + perm[:rotation]
        if reflect:
            seq = seq[::-1]
        assert CircularOrdering(seq) == CircularOrdering(perm)
        assert hash(CircularOrdering(seq)) == hash(CircularOrdering(perm))

    @given(st.permutations(list(range(5))))
    def test_canonical_is_idempotent(self, perm):
        assert canonical_cycle(canonical_cycle(perm)) == canonical_cycle(perm)


class TestCircularSplits:
    def test_arc_is_circular(self):
        pi = CircularOrdering([0, 1, 2, 3])
        assert is_circular_split(split({0, 1}, 4), pi)
        assert not is_circular_split(split({0, 2}, 4), pi)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_circular_splits_exhaustive(self, n):
        pi = CircularOrdering(range(n))
        splits = all_circular_splits(pi)
        assert len(splits) == n * (n - 1) // 2
        # no other bipartition is circular
        all_blocks = []
        for bits in range(1, 2 ** (n - 1)):
            block = {0} | {t + 1 for t in range(n - 1) if bits >> t & 1}
            if len(block) < n:
                all_blocks.append(block)
        for block in all_blocks:
            s = split(block, n)
            assert is_circular_split(s, pi) == (s in splits)

    def test_compatible_system_is_circular_for_some_ordering(self):
        rng = random.Random(17)
        for _ in range(5):
            _, splits, _ = random_tree_instance(rng, 5)
            assert is_pairwise_compatible(splits)
            found = False
            for seq in canonical_orderings(5):
                o = CircularOrdering(seq)
                if all(is_circular_split(s, o) for s in splits):
                    found = True
                    break
            assert found


class TestPartialCircularOrdering:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            PartialCircularOrdering([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            PartialCircularOrdering([(0, 2)])

    def test_endpoints(self):
        pco = PartialCircularOrdering([(0, 1, 2), (3,)])
        assert pco.endpoints(0) == (0, 2)
        assert pco.endpoints(1) == (3,)

    def test_join_paths_reversal(self):
        # joining (a,b) and (c,d) at (a,d) yields (b,a,d,c)
        assert join_paths((0, 1), (2, 3), 0, 3) == (1, 0, 3, 2)
        with pytest.raises(ValueError):
            join_paths((0, 1, 2), (3,), 1, 3)


def axiom_failures(scheme, seed):
    """Walk a seeded random merge sequence on an exact map through the step
    API; the axiom each state (the initial one, then the one after each
    step's reweighting) breaks, or None where it keeps them all."""
    rng = random.Random(seed)
    state = BlockState.initial(random_dissimilarity(rng, rng.randint(4, 12), exact=True))
    failures = []
    while True:
        try:
            NodeWeighting(state.mu).validate(state.to_pco())
            failures.append(None)
        except ValueError as exc:
            failures.append(str(exc))
        if state.m == 1:
            return failures
        r, s = rng.sample(range(state.m), 2)
        merged = merge_blocks(state, r, s, rng.choice(state.endpoints(r)), rng.choice(state.endpoints(s)))
        state = merged.with_mu(adjust_weights(merged, scheme))


class TestNodeWeighting:
    @pytest.mark.parametrize("scheme", [BalancedTSP(), TreeWeighting(), TreeWeighting(0.3)], ids=repr)
    def test_weightings_keep_the_axioms_at_every_step(self, scheme):
        for seed in range(20):
            assert set(axiom_failures(scheme, seed)) == {None}, seed

    def test_original_bm_breaks_the_block_sum(self):
        failures = [f for seed in range(5) for f in axiom_failures(OriginalBM(), seed) if f]
        assert failures and all("weights sum to" in f for f in failures)

    def test_validate_accepts_balanced(self):
        pco = PartialCircularOrdering([(0, 1, 2), (3,)])
        NodeWeighting({0: 0.5, 1: 0.0, 2: 0.5, 3: 1.0}).validate(pco)

    def test_validate_rejects_bad_sum_and_zero_endpoint(self):
        pco = PartialCircularOrdering([(0, 1), (2,)])
        with pytest.raises(ValueError):
            NodeWeighting({0: 0.5, 1: 0.25, 2: 1.0}).validate(pco)
        with pytest.raises(ValueError):
            NodeWeighting({0: 1.0, 1: 0.0, 2: 1.0}).validate(pco)


def _count_triangulations(k: int) -> int:
    """Independent oracle: triangulations of a convex k-gon by explicit
    recursion on the triangle attached to a fixed edge."""
    if k <= 3:
        return 1
    total = 0
    for apex in range(1, k - 1):
        total += _count_triangulations(apex + 1) * _count_triangulations(k - apex)
    return total


class TestCounting:
    def test_nnet_output_counts_match_known_sequence(self):
        assert count_nnet_outputs(4) == 6
        assert count_nnet_outputs(6) == 840
        assert count_nnet_outputs(9) == 8648640
        assert [count_nnet_outputs(n) for n in range(3, 8)] == [1, 6, 60, 840, 15120]

    def test_associahedron_vertices_vs_triangulation_oracle(self):
        assert count_associahedron_vertices(3) == 1
        assert count_associahedron_vertices(4) == 2 == _count_triangulations(4)
        assert count_associahedron_vertices(5) == 5 == _count_triangulations(5)
        for n in range(3, 10):
            assert count_associahedron_vertices(n) == _count_triangulations(n)

    def test_distinct_orderings_small_values(self):
        assert count_distinct_orderings(3) == 1
        assert count_distinct_orderings(4) == 3
        assert count_distinct_orderings(5) == 12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_distinct_orderings_vs_dihedral_dedup(self, n):
        canonical = {canonical_cycle(p) for p in permutations(range(n))}
        assert len(canonical) == count_distinct_orderings(n)
        assert canonical == set(canonical_orderings(n))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_product_identity(self, n):
        lhs = count_associahedron_vertices(n) * count_distinct_orderings(n)
        assert lhs == count_nnet_outputs(n)
        # same identity straight from the formulas
        assert (math.comb(2 * n - 4, n - 2) // (n - 1)) * (math.factorial(n - 1) // 2) \
            == math.factorial(2 * n - 5) // math.factorial(n - 3)

    def test_small_n_rejected(self):
        for fn in (count_nnet_outputs, count_associahedron_vertices, count_distinct_orderings):
            with pytest.raises(ValueError):
                fn(2)


class TestSplitRange:
    @pytest.mark.parametrize("members", [[1, 5], [1, -2]])
    def test_of_rejects_out_of_range_members_before_complementing(self, members):
        with pytest.raises(ValueError, match="taxon out of range"):
            Split.of(members, 4)

    def test_constructor_rejects_out_of_range_block(self):
        with pytest.raises(ValueError, match="taxon out of range"):
            Split(4, frozenset({0, 7}))
