"""Kalmanson/four-point checks, quartet sets, ordering search, and the
perturbation radius."""
import random
from fractions import Fraction

import pytest

from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    Split,
    WeightedSplitSystem,
    all_circular_splits,
    metric_from_splits,
)
from neighbornet.kalmanson import (
    find_kalmanson_ordering,
    first_four_point_violation,
    first_kalmanson_violation,
    is_kalmanson,
    positive_split_quartets,
    quartet,
    quartets_of_ordering,
    radius_perturbation_check,
    satisfies_four_point,
    strict_quartets,
)
from neighbornet.oracle import brute_force_kalmanson_ordering
from conftest import random_circular_instance, random_dissimilarity, random_tree_instance


class TestIsKalmanson:
    def test_circular_metrics_pass_exactly(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(5, 10)
            pi, _, d = random_circular_instance(rng, n, exact=True)
            assert is_kalmanson(d, pi, tol=0)

    def test_zero_map_passes_every_ordering(self):
        d = DissimilarityMap([[0] * 5 for _ in range(5)])
        rng = random.Random(2)
        for _ in range(5):
            perm = list(range(5))
            rng.shuffle(perm)
            assert is_kalmanson(d, CircularOrdering(perm))

    def test_violating_quartet_detected(self):
        # cross pairing strictly smallest: 0-2 and 1-3 close, everything else far
        rows = [
            [0, 5, 1, 5],
            [5, 0, 5, 1],
            [1, 5, 0, 5],
            [5, 1, 5, 0],
        ]
        d = DissimilarityMap(rows)
        pi = CircularOrdering([0, 1, 2, 3])
        assert not is_kalmanson(d, pi)
        violation = first_kalmanson_violation(d, pi)
        assert violation["positions"] == (0, 1, 2, 3)
        assert violation["cross_sum"] == 2


class TestFourPoint:
    def test_tree_metrics_pass(self):
        rng = random.Random(3)
        for _ in range(8):
            d, _, _ = random_tree_instance(rng, rng.randint(4, 8), exact=True)
            assert satisfies_four_point(d, tol=0)

    def test_equilateral_passes(self):
        rows = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        assert satisfies_four_point(DissimilarityMap(rows))

    def test_crossing_splits_fail(self):
        system = WeightedSplitSystem(4, {Split.of({0, 1}, 4): 1, Split.of({1, 2}, 4): 1})
        d = metric_from_splits(system)
        assert not satisfies_four_point(d)
        violation = first_four_point_violation(d)
        assert violation["taxa"] == (0, 1, 2, 3)

    def test_compatible_systems_pass(self):
        rng = random.Random(4)
        for _ in range(8):
            n = rng.randint(4, 8)
            _, splits, _ = random_tree_instance(rng, n, exact=True)
            weights = {s: Fraction(rng.randint(1, 8), 4) for s in splits}
            d = metric_from_splits(WeightedSplitSystem(n, weights))
            assert satisfies_four_point(d, tol=0)

    def test_four_point_implies_kalmanson_for_some_ordering(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(4, 7)
            d, _, _ = random_tree_instance(rng, n, exact=True)
            assert brute_force_kalmanson_ordering(d, tol=0) is not None


class TestStrictQuartets:
    def test_zero_map_has_no_strict_quartets(self):
        d = DissimilarityMap([[0] * 5 for _ in range(5)])
        assert strict_quartets(d, CircularOrdering(range(5))) == frozenset()

    def test_requires_kalmanson_input(self):
        rows = [[0, 5, 1, 5], [5, 0, 5, 1], [1, 5, 0, 5], [5, 1, 5, 0]]
        with pytest.raises(ValueError):
            strict_quartets(DissimilarityMap(rows), CircularOrdering(range(4)))

    def test_all_positive_system_gives_full_quartet_set(self):
        rng = random.Random(6)
        for _ in range(6):
            n = rng.randint(5, 8)
            pi, _, d = random_circular_instance(rng, n, exact=True)
            assert strict_quartets(d, pi, tol=0) == quartets_of_ordering(pi)

    def test_single_split_gives_exactly_separated_quartets(self):
        n = 6
        pi = CircularOrdering(range(n))
        s = Split.of({1, 2, 3}, n)
        system = WeightedSplitSystem(n, {s: Fraction(2)})
        d = metric_from_splits(system)
        got = strict_quartets(d, pi, tol=0)
        expected = set()
        for quad in __import__("itertools").combinations(range(n), 4):
            for a, b, c, dd in ((quad[0], quad[1], quad[2], quad[3]),
                                (quad[0], quad[2], quad[1], quad[3]),
                                (quad[0], quad[3], quad[1], quad[2])):
                if not s.separates(a, b) and not s.separates(c, dd) and s.separates(a, c):
                    expected.add(quartet(a, b, c, dd))
        assert got == expected

    def test_matches_positive_split_separation_exhaustively(self):
        rng = random.Random(7)
        for _ in range(8):
            n = rng.randint(5, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            pi = CircularOrdering(perm)
            # random subset of circular splits gets positive weight
            weights = {}
            for s in all_circular_splits(pi):
                weights[s] = Fraction(rng.randint(0, 3), 2)
            system = WeightedSplitSystem(n, weights)
            d = metric_from_splits(system)
            assert strict_quartets(d, pi, tol=0) == positive_split_quartets(system)


class TestFindKalmansonOrdering:
    def test_circular_input_found_with_quartet_containment(self):
        rng = random.Random(8)
        for _ in range(6):
            n = rng.randint(5, 9)
            pi, _, d = random_circular_instance(rng, n, exact=True)
            found = find_kalmanson_ordering(d, tol=0)
            assert found is not None
            assert strict_quartets(d, found, tol=0) <= quartets_of_ordering(found)
            assert found == pi.canonical()

    def test_random_map_rejected_by_both_modes(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(20):
            n = rng.randint(5, 7)
            d = random_dissimilarity(rng, n)
            brute = brute_force_kalmanson_ordering(d)
            if brute is None:
                assert find_kalmanson_ordering(d) is None
                checked += 1
        assert checked >= 10  # random maps are essentially never Kalmanson

    def test_tree_metric_found(self):
        rng = random.Random(10)
        d, _, _ = random_tree_instance(rng, 7, exact=True)
        assert find_kalmanson_ordering(d, tol=0) is not None

    def test_brute_force_cap(self):
        d = random_dissimilarity(random.Random(11), 12)
        with pytest.raises(ValueError):
            brute_force_kalmanson_ordering(d)


def box_noise(rng, n, magnitude):
    noise = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.uniform(-magnitude, magnitude)
            noise[i][j] = noise[j][i] = v
    return noise


class TestRadiusPerturbation:
    def test_zero_noise_recovers(self):
        rng = random.Random(12)
        _, system, _ = random_circular_instance(rng, 6)
        n = 6
        assert radius_perturbation_check(system, [[0.0] * n for _ in range(n)])

    def test_noise_below_half_eps_recovers(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(5, 9)
            _, system, _ = random_circular_instance(rng, n)
            eps = min(w for _, w in system.items())
            noise = box_noise(rng, n, 0.49 * eps)
            assert radius_perturbation_check(system, noise)

    def test_bound_enforcement(self):
        rng = random.Random(14)
        _, system, _ = random_circular_instance(rng, 5)
        eps = min(w for _, w in system.items())
        noise = box_noise(rng, 5, 2 * eps)
        with pytest.raises(ValueError):
            radius_perturbation_check(system, noise)

    def test_adversarial_noise_regression(self):
        # frozen failing instance at twice the radius (search seed 0):
        # all weights 0.5 on a random ordering of 6 taxa, +-1.0 noise
        rng = random.Random(0)
        n = rng.randint(5, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        assert (n, perm) == (6, [4, 1, 5, 2, 0, 3])
        pi = CircularOrdering(perm)
        system = WeightedSplitSystem(n, {s: 0.5 for s in all_circular_splits(pi)})
        noise = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice([-1.0, 1.0]) * 1.0
                noise[i][j] = noise[j][i] = v
        assert not radius_perturbation_check(system, noise, enforce_bound=False)
