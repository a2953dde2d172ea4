"""Kalmanson/four-point checks, the lambda-based Kalmanson check against the
four-deep scan, quartet sets, ordering search, and the perturbation radius."""
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
    _default_tol,
    find_kalmanson_ordering,
    first_four_point_violation,
    first_kalmanson_violation,
    is_kalmanson,
    radius_perturbation_check,
)
from neighbornet.oracle import (
    brute_force_kalmanson_ordering,
    brute_force_kalmanson_violation,
    positive_split_quartets,
    quartet,
    quartets_of_ordering,
    satisfies_four_point,
    split_metric,
    strict_quartets,
)
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


def kalmanson_cases(seed, count, exact):
    """Circular decomposable maps on their own ordering (Kalmanson) or with
    two positions swapped (most often not), n from 4 to 10."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 10)
        pi, _, d = random_circular_instance(rng, n, exact=exact)
        order = list(pi.order)
        if rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            order[i], order[j] = order[j], order[i]
        yield d, CircularOrdering(order)


class TestLambdaCheckAgainstScan:
    def test_exact_verdicts_match(self):
        verdicts = []
        for d, pi in kalmanson_cases(21, 150, exact=True):
            scan = brute_force_kalmanson_violation(d, pi, tol=0) is None
            assert is_kalmanson(d, pi, tol=0) == scan
            verdicts.append(scan)
        assert 30 < sum(verdicts) < 120

    def test_float_verdicts_match(self):
        verdicts = []
        for d, pi in kalmanson_cases(22, 150, exact=False):
            scan = brute_force_kalmanson_violation(d, pi) is None
            assert is_kalmanson(d, pi) == scan
            verdicts.append(scan)
        assert 30 < sum(verdicts) < 120

    def test_reported_quadruple_violates_under_the_scan(self):
        reported = 0
        for exact in (True, False):
            for d, pi in kalmanson_cases(23, 100, exact=exact):
                violation = first_kalmanson_violation(d, pi)
                if violation is None:
                    continue
                i, j, k, l = violation["taxa"]
                assert violation["positions"] == tuple(sorted(pi.positions()[t] for t in (i, j, k, l)))
                cross = d[i, k] + d[j, l]
                assert (violation["cross_sum"], violation["near_sum"], violation["wrap_sum"]) == (
                    cross, d[i, j] + d[k, l], d[i, l] + d[j, k])
                tol = _default_tol(d, None)
                assert d[i, j] + d[k, l] > cross + tol or d[i, l] + d[j, k] > cross + tol
                reported += 1
        assert reported > 50

    def test_tolerance_bounds_each_corner_quadruple(self):
        # lambda -0.3 tol on two adjacent arcs, {1,2} and {1,2,3}: each corner
        # quadruple is off by 0.6 tol and passes, though the quadruple
        # (0, 1, 2, 4) that both arcs separate is off by 1.2 tol; one arc at
        # -0.6 tol, whose corner quadruple is off by 1.2 tol, fails
        n, tol = 7, 1e-3
        pi = CircularOrdering(range(n))

        def weighted(arcs):
            rows = [[0.0] * n for _ in range(n)]
            for s in all_circular_splits(pi):
                arc = tuple(sorted(s.other))
                w = arcs[arc] * tol if arc in arcs else 1.0
                for i in range(n):
                    for j in range(n):
                        rows[i][j] += w * split_metric(s, i, j)
            return DissimilarityMap(rows)

        spread = weighted({(1, 2): -0.3, (1, 2, 3): -0.3})
        assert is_kalmanson(spread, pi, tol)
        scan = brute_force_kalmanson_violation(spread, pi, tol)
        assert scan["positions"] == (0, 1, 2, 4)
        assert scan["wrap_sum"] - scan["cross_sum"] == pytest.approx(1.2 * tol)
        single = weighted({(1, 2): -0.6})
        violation = first_kalmanson_violation(single, pi, tol)
        assert violation["positions"] == (0, 1, 2, 3)
        assert violation["wrap_sum"] - violation["cross_sum"] == pytest.approx(1.2 * tol)


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

    @pytest.mark.parametrize("enforce_bound", [True, False])
    @pytest.mark.parametrize("noise, message", [
        ([], "noise shape mismatch"),
        ([[0.0] * 5] * 4, "noise shape mismatch"),
        ([[0.0] * 4] * 5, "noise shape mismatch"),
        ([[0.0] * 6] * 6, "noise shape mismatch"),
        ([[0.0] * 5 for _ in range(4)] + [[0.0] * 4 + [float("nan")]], r"non-finite noise entry at \(4,4\)"),
        ([[0.0] * 5 for _ in range(2)] + [[0.0, float("inf")] + [0.0] * 3] + [[0.0] * 5] * 2,
         r"non-finite noise entry at \(2,1\)"),
        ([[0.0] * 5 for _ in range(2)] + [[0.0, Fraction(1, 10), float("-inf"), 0, 0]] + [[0.0] * 5] * 2,
         r"non-finite noise entry at \(2,2\)"),
    ])
    def test_bad_noise_is_refused_before_any_agglomeration(self, monkeypatch, enforce_bound, noise, message):
        import neighbornet.kalmanson as kalmanson

        _, system, _ = random_circular_instance(random.Random(15), 5)

        def no_run(*args):
            raise AssertionError("the agglomeration ran")

        monkeypatch.setattr(kalmanson, "run_neighbor_net", no_run)
        with pytest.raises(ValueError, match=f"^{message}$"):
            radius_perturbation_check(system, noise, enforce_bound=enforce_bound)

    def test_huge_exact_noise_is_finite(self):
        # an int too large for a float is still a finite noise entry
        _, system, _ = random_circular_instance(random.Random(16), 5)
        noise = [[0] * 5 for _ in range(5)]
        noise[0][1] = noise[1][0] = 10**400
        with pytest.raises(ValueError, match="perturbation bound violated"):
            radius_perturbation_check(system, noise)
