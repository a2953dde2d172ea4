"""Balanced-length machinery: enumeration counts, eta tables, the Z-criterion
identity, and split-system lengths. The closed forms of neighbornet.length
are pinned against the enumerating oracles of neighbornet.oracle."""
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from neighbornet.agglomerate import (
    BalancedTSP,
    BlockState,
    adjust_weights,
    merge_blocks,
    _select_endpoints,
    _select_pair,
)
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    PartialCircularOrdering,
    Split,
)
from neighbornet.length import (
    balanced_length,
    balanced_length_from_eta,
    count_consistent_orderings,
    eta_table,
)
from neighbornet.oracle import (
    EnumerationCapExceeded,
    adjacency_counts,
    all_circular_splits,
    balanced_length_of_join_family,
    enumerate_consistent_orderings,
    enumerated_balanced_length,
    enumerated_eta_table,
    enumerated_join_family_length,
    eta_for_splits,
    join_extensions,
    split_system_length,
    split_system_orderings,
    z_criterion,
    z_from_w_sum,
)
from conftest import random_dissimilarity


def random_pco(rng, n):
    """Random partition of 0..n-1 into ordered paths."""
    taxa = list(range(n))
    rng.shuffle(taxa)
    blocks = []
    while taxa:
        size = min(rng.randint(1, 3), len(taxa))
        blocks.append([taxa.pop() for _ in range(size)])
    return PartialCircularOrdering(blocks)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def all_pcos(n):
    """Every partial circular ordering of 0..n-1 once: each set partition,
    with each block's paths taken up to reversal."""
    for partition in set_partitions(list(range(n))):
        paths = [[p for p in permutations(b) if p[0] <= p[-1]] for b in partition]
        for blocks in product(*paths):
            yield PartialCircularOrdering(blocks)


class TestCounting:
    def test_formula_examples(self):
        assert count_consistent_orderings(PartialCircularOrdering([(0,), (1,), (2,), (3,)])) == 3
        assert count_consistent_orderings(PartialCircularOrdering([(0, 1), (2, 3)])) == 2
        assert count_consistent_orderings(PartialCircularOrdering([(0, 1, 2, 3)])) == 1

    def test_figure_shape_twelve_orderings(self):
        # blocks of sizes 2,2,1,1 admit 12 consistent orderings
        pco = PartialCircularOrdering([(0, 1), (2, 3), (4,), (5,)])
        assert count_consistent_orderings(pco) == 12
        assert len(enumerate_consistent_orderings(pco)) == 12

    @pytest.mark.parametrize("seed", range(8))
    def test_count_matches_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        pco = random_pco(rng, n)
        orderings = enumerate_consistent_orderings(pco)
        assert len(orderings) == count_consistent_orderings(pco)
        assert len(set(orderings)) == len(orderings)

    def test_enumeration_preserves_block_adjacency(self):
        pco = PartialCircularOrdering([(0, 1, 2), (3,), (4,)])
        for o in enumerate_consistent_orderings(pco):
            seq = o.order
            n = len(seq)
            adjacent = {frozenset((seq[k], seq[(k + 1) % n])) for k in range(n)}
            assert frozenset((0, 1)) in adjacent and frozenset((1, 2)) in adjacent

    def test_singletons_give_all_canonical_orderings(self):
        pco = PartialCircularOrdering([(t,) for t in range(4)])
        got = {o.order for o in enumerate_consistent_orderings(pco)}
        assert got == {(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)}

    def test_cap_enforced(self):
        pco = PartialCircularOrdering([(t,) for t in range(9)])
        with pytest.raises(EnumerationCapExceeded):
            enumerate_consistent_orderings(pco, cap=100)


class TestEtaTable:
    def test_single_block_counts_cycle_edges(self):
        pco = PartialCircularOrdering([(0, 1, 2, 3, 4)])
        table = eta_table(pco)
        assert table.total_orderings == 1
        assert table.eta(0, 1) == 1 and table.eta(1, 2) == 1
        assert table.eta(0, 4) == 1  # the closing edge
        assert table.eta(0, 2) == 0

    def test_row_sums_are_twice_total(self):
        rng = random.Random(12)
        for _ in range(6):
            n = rng.randint(4, 7)
            pco = random_pco(rng, n)
            table = eta_table(pco)
            for i in range(n):
                assert table.row_sum(i) == 2 * table.total_orderings

    def test_closed_form_matches_brute_force(self):
        # for m >= 3 the endpoint joinings of blocks r and s have disjoint
        # consistent families of equal size, so their closed-form counts add
        # up to the counts over the enumerated union
        rng = random.Random(13)
        checked = 0
        while checked < 10:
            pco = random_pco(rng, rng.randint(5, 7))
            if pco.m < 3:
                continue
            r, s = sorted(rng.sample(range(pco.m), 2))
            tables = [eta_table(joined) for _, joined in join_extensions(pco, r, s)]
            union = {o for _, joined in join_extensions(pco, r, s)
                     for o in enumerate_consistent_orderings(joined)}
            assert len({t.total_orderings for t in tables}) == 1
            assert sum(t.total_orderings for t in tables) == len(union)
            assert sum((Counter(t.counts) for t in tables), Counter()) == adjacency_counts(union)
            checked += 1


class TestBalancedLength:
    def test_single_block_is_half_tour(self):
        d = random_dissimilarity(random.Random(1), 5, exact=True)
        pco = PartialCircularOrdering([(0, 1, 2, 3, 4)])
        tour = sum(d[i, (i + 1) % 5] for i in range(5))
        assert balanced_length(d, pco) == Fraction(tour, 2)

    def test_all_ones_gives_half_n(self):
        n = 6
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        d = DissimilarityMap(rows)
        rng = random.Random(2)
        for _ in range(4):
            pco = random_pco(rng, n)
            assert balanced_length(d, pco) == Fraction(n, 2)

    def test_average_form_equals_eta_form(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(4, 7)
            d = random_dissimilarity(rng, n, exact=True)
            pco = random_pco(rng, n)
            expected = enumerated_balanced_length(d, pco)
            assert balanced_length_from_eta(d, enumerated_eta_table(pco)) == expected

    def test_needs_three_taxa(self):
        d = DissimilarityMap([[0, 1], [1, 0]])
        for blocks in ([(0,), (1,)], [(0, 1)]):
            pco = PartialCircularOrdering(blocks)
            for closed_form in (eta_table, count_consistent_orderings):
                with pytest.raises(ValueError, match="circular orderings need n >= 3"):
                    closed_form(pco)
            with pytest.raises(ValueError, match="circular orderings need n >= 3"):
                balanced_length(d, pco)


class TestClosedFormAgainstOracle:
    """eta_table, balanced_length and the join-family length against the
    enumeration, on every PCO with n <= 6 and on seeded PCOs with 7 <= n <= 9:
    equal on exact maps, within 1e-12 relative on float maps. The join family
    is checked for one block pair per PCO, the pair moving from one PCO to
    the next, which keeps the test near one second."""

    @staticmethod
    def cases():
        rng = random.Random(14)
        for n in range(3, 10):
            maps = random_dissimilarity(rng, n, exact=True), random_dissimilarity(rng, n)
            pcos = all_pcos(n) if n <= 6 else (random_pco(rng, n) for _ in range(12))
            for pco in pcos:
                yield pco, maps

    def test_closed_forms_equal_enumeration(self):
        checked = 0
        for pco, (exact, approx) in self.cases():
            assert eta_table(pco) == enumerated_eta_table(pco)
            assert balanced_length(exact, pco) == enumerated_balanced_length(exact, pco)
            assert balanced_length(approx, pco) == pytest.approx(
                enumerated_balanced_length(approx, pco), rel=1e-12, abs=0)
            if pco.m >= 2:
                r, s = checked % pco.m, (checked + 1) % pco.m
                closed = balanced_length_of_join_family(exact, pco, r, s)
                assert closed == enumerated_join_family_length(exact, pco, r, s)
                assert balanced_length_of_join_family(approx, pco, r, s) == pytest.approx(
                    enumerated_join_family_length(approx, pco, r, s), rel=1e-12, abs=0)
            checked += 1
        assert checked == 1733 + 3 * 12


def engine_states(d, max_blocks=None):
    """Walk the balanced agglomeration, yielding each pre-merge state."""
    state = BlockState.initial(d)
    while state.m > 1:
        yield state
        pair = (0, 1) if state.m == 2 else _select_pair(state)[0]
        r, s = pair
        (i, j), _ = _select_endpoints(state, r, s)
        state = merge_blocks(state, r, s, i, j)
        state = state.with_mu(adjust_weights(state, BalancedTSP()))


class TestZCriterion:
    def test_equals_balanced_length_drop_exactly(self):
        rng = random.Random(4)
        for _ in range(6):
            n = rng.randint(5, 7)
            d = random_dissimilarity(rng, n, exact=True)
            for state in engine_states(d):
                if state.m < 3:
                    continue
                pco = state.to_pco()
                l_before = enumerated_balanced_length(d, pco)
                for r in range(state.m):
                    for s in range(r + 1, state.m):
                        z = z_criterion(state, r, s)
                        assert z == l_before - enumerated_join_family_length(d, pco, r, s)
                        assert z == z_from_w_sum(state, r, s)

    def test_three_blocks_give_zero(self):
        # with three blocks every pair join keeps the same consistent set,
        # so the drop and the (empty) neighborliness sum are both zero
        rng = random.Random(5)
        for _ in range(5):
            d = random_dissimilarity(rng, rng.randint(5, 7), exact=True)
            for state in engine_states(d):
                if state.m == 3:
                    for r in range(3):
                        for s in range(r + 1, 3):
                            assert z_criterion(state, r, s) == 0
                            assert z_from_w_sum(state, r, s) == 0

    def test_rejects_degenerate_inputs(self):
        d = random_dissimilarity(random.Random(6), 4)
        state = BlockState.initial(d)
        with pytest.raises(ValueError):
            z_criterion(state, 1, 1)
        state = merge_blocks(state, 0, 1, 0, 1)
        state = state.with_mu(adjust_weights(state, BalancedTSP()))
        state = merge_blocks(state, 0, 1, state.blocks[0][-1], 2)
        state = state.with_mu(adjust_weights(state, BalancedTSP()))
        assert state.m == 2
        with pytest.raises(ValueError):
            z_criterion(state, 0, 1)


class TestSplitSystemLength:
    def test_full_system_has_unique_ordering(self):
        rng = random.Random(7)
        n = 5
        d = random_dissimilarity(rng, n, exact=True)
        pi = CircularOrdering([0, 2, 4, 1, 3])
        splits = all_circular_splits(pi)
        orderings = split_system_orderings(splits, n)
        assert orderings == [pi.canonical()]
        table = eta_for_splits(splits, n)
        assert set(table.counts.values()) == {1}
        seq = pi.order
        cycle_sum = sum(d[seq[k], seq[(k + 1) % n]] for k in range(n))
        assert split_system_length(d, splits) == Fraction(cycle_sum, 2)

    def test_empty_system_is_symmetric(self):
        n = 5
        d = random_dissimilarity(random.Random(8), n, exact=True)
        table = eta_for_splits([], n)
        values = {table.eta(i, j) for i in range(n) for j in range(i + 1, n)}
        assert len(values) == 1

    def test_inconsistent_system_raises(self):
        # all three 2|2 bipartitions would need taxon 0 adjacent to everything
        crossing = [Split.of({0, 1}, 4), Split.of({0, 2}, 4), Split.of({0, 3}, 4)]
        with pytest.raises(ValueError):
            split_system_length(random_dissimilarity(random.Random(9), 4), crossing)

    def test_matches_balanced_length_on_path_systems(self):
        # the splits realized by a partial ordering's own adjacencies give the
        # same consistent-ordering family, hence the same length
        d = random_dissimilarity(random.Random(10), 6, exact=True)
        pco = PartialCircularOrdering([(0, 1, 2), (3, 4), (5,)])
        family = {o.order for o in enumerate_consistent_orderings(pco)}
        splits = [s for s in all_circular_splits(CircularOrdering(range(6)))
                  if all(s in all_circular_splits(CircularOrdering(seq)) for seq in family)]
        consistent = {o.order for o in split_system_orderings(splits, 6)}
        if consistent == family:
            assert split_system_length(d, splits) == balanced_length(d, pco)
