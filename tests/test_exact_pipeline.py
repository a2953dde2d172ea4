"""The exact pipeline on machine integers: the metric of an exact split
system as one side-matrix product on float64 integers while they stay below
2^53, and on Python ints above; its integer form handed to the map; the
Kalmanson check on the corner numerators; the arc Splits made without their
checks; numpy integers as exact numbers; and the oracle's fraction-free
normal-equation solver."""
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from neighbornet import core
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    Split,
    WeightedSplitSystem,
    arc_splits,
    corner_numerators,
    is_exact_number,
    metric_from_splits,
    upper_pairs,
)
from neighbornet.kalmanson import first_kalmanson_violation, is_kalmanson
from neighbornet.oracle import _solve_normal_equations_exact, all_circular_splits, brute_force_kalmanson_violation
from conftest import random_circular_instance, random_dissimilarity

LANE = 2**53  # the exact product runs while 2 * sum(numerators) <= LANE


def fraction_loop(system):
    """The metric by a loop over splits and pairs, in Fractions."""
    n = system.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for s, w in system.items():
        for i in range(n):
            for j in range(i + 1, n):
                if s.separates(i, j):
                    rows[i][j] += Fraction(w)
                    rows[j][i] = rows[i][j]
    return rows


def random_splits(rng, n, count):
    out = set()
    while len(out) < count:
        out.add(Split.of(rng.sample(range(n), rng.randint(1, n - 1)), n))
    return sorted(out, key=lambda s: sorted(s.block))


def spread(rng, total, parts):
    """parts positive ints summing to total."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@pytest.fixture
def fallback_calls(monkeypatch):
    """A list that grows by one at each call of the Python-int fallback."""
    calls = []
    masked = core._masked_sums

    def counted(*args):
        calls.append(args[-1])
        return masked(*args)

    monkeypatch.setattr(core, "_masked_sums", counted)
    return calls


class TestTheIntegerLane:
    @pytest.mark.parametrize("den", [1, 3])
    @pytest.mark.parametrize("excess, lane", [(-2, True), (0, True), (2, False)])
    def test_the_metric_equals_the_fraction_loop_across_the_bound(self, fallback_calls, den, excess, lane):
        # blocks all hold taxa 0 and 2, never 1: the diagonal terms of 0 and 2
        # add to 2 sum(N), d(0, 1) is sum(N), and d(0, 2) is the difference
        # of two numbers at the bound
        rng = random.Random(f"{den}/{excess}")
        n = 9
        blocks = {frozenset([0, 2, *rng.sample(range(3, n), rng.randint(0, n - 3))]) for _ in range(40)}
        splits = [Split(n, b) for b in blocks]
        numerators = spread(rng, (LANE + excess) // 2, len(splits))
        if den > 1:
            assert any(v % den for v in numerators)  # so den stays the common denominator
        system = WeightedSplitSystem(n, {s: Fraction(v, den) for s, v in zip(splits, numerators)})
        d = metric_from_splits(system)
        assert d.rows == tuple(map(tuple, fraction_loop(system)))
        assert d[0, 1] == Fraction((LANE + excess) // 2, den) and d[0, 2] == 0
        assert fallback_calls == ([] if lane else [object])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_match_the_loop_in_both_lanes(self, fallback_calls, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        dens = [1, 2, 3, 7, 100, 360, 2**52]
        big = seed % 2  # odd seeds: numerators past the bound
        weights = {s: Fraction(rng.randint(0, 2**60 if big else 300), rng.choice(dens))
                   for s in random_splits(rng, n, rng.randint(1, min(25, 2 ** (n - 1) - 1)))}
        system = WeightedSplitSystem(n, weights)
        d = metric_from_splits(system)
        assert d.is_exact and all(type(x) is Fraction for x in d.array.flat)
        assert d.rows == tuple(map(tuple, fraction_loop(system)))
        assert bool(fallback_calls) == (2 * sum(core.int_numerators(system._weights.values())[0]) > LANE)

    def test_an_empty_exact_system_gives_the_zero_map(self):
        d = metric_from_splits(WeightedSplitSystem(4, {}))
        assert d.is_exact and d.rows == ((0,) * 4,) * 4
        assert d.integer_form[1] == 1 and all(v == 0 for v in d.integer_form[0].flat)


class TestTheEntryLimit:
    @pytest.mark.parametrize("weight", [10**307, Fraction(10**320, 3)])
    def test_a_weight_above_the_limit_raises_the_maps_error(self, weight):
        n = 5
        system = WeightedSplitSystem(n, {Split.of([0], n): weight, Split.of([0, 1], n): 1})
        with pytest.raises(ValueError) as expected:
            DissimilarityMap(fraction_loop(system))
        with pytest.raises(ValueError) as got:
            metric_from_splits(system)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("entry at (0,1) above ") and str(got.value).endswith("would overflow")

    def test_the_limit_is_compared_exactly_over_the_denominator(self):
        # d(0, 1) is base and d(0, 2) = base + the {0, 1} weight, over den 7
        n = 5
        limit = int(float(np.finfo(float).max) / (n * n))
        base = Fraction(limit * 7 - 1, 7)
        at = WeightedSplitSystem(n, {Split.of([0], n): base, Split.of([0, 1], n): Fraction(1, 7)})
        d = metric_from_splits(at)
        assert d[0, 2] == limit and d.integer_form[1] == 7
        above = WeightedSplitSystem(n, {Split.of([0], n): base, Split.of([0, 1], n): Fraction(1, 7) + Fraction(1, 10**20)})
        with pytest.raises(ValueError) as expected:
            DissimilarityMap(fraction_loop(above))
        with pytest.raises(ValueError, match=r"entry at \(0,2\) above") as got:
            metric_from_splits(above)
        assert str(got.value) == str(expected.value)


class TestTheIntegerForm:
    @pytest.mark.parametrize("seed", range(10))
    def test_the_handed_over_form_is_the_maps_own(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(3, 10)
        scale = rng.choice([1, 2**58])  # the second crosses into the fallback
        dens = [1, 4, 6, 100, 2**52]
        weights = {s: Fraction(2 * rng.randint(1, 50) * scale, rng.choice(dens))
                   for s in random_splits(rng, n, min(2 * n, 2 ** (n - 1) - 1))}
        d = metric_from_splits(WeightedSplitSystem(n, weights))
        numerators, den = d.integer_form
        fresh_numerators, fresh_den = DissimilarityMap(d.array).integer_form
        assert den == fresh_den
        assert numerators.dtype == object and all(type(v) is int for v in numerators.flat)
        assert numerators.tolist() == fresh_numerators.tolist()
        assert not numerators.flags.writeable and not d.array.flags.writeable

    def test_a_common_factor_leaves_the_denominator(self):
        # three weights 1/4 over den 4: every entry is 2/4, so den is 2
        n = 3
        d = metric_from_splits(WeightedSplitSystem(n, {Split.of([t], n): Fraction(1, 4) for t in range(n)}))
        assert d.integer_form[1] == 2 and d.integer_form[0].tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert d[0, 1] == Fraction(1, 2)


def kalmanson_maps():
    """Exact maps and orderings: circular decomposable maps under their own
    and another ordering, the same with one negative arc, and random maps."""
    for seed in range(12):
        rng = random.Random(200 + seed)
        n = rng.randint(4, 9)
        pi, system, d = random_circular_instance(rng, n, exact=True)
        other = CircularOrdering(rng.sample(range(n), n))
        yield d, pi
        yield d, other
        dented = dict(system.items())
        arc = rng.choice([s for s in dented if 2 <= len(s.block) <= n - 2])
        weights = {s: w for s, w in dented.items() if s != arc}
        rows = np.array(metric_from_splits(WeightedSplitSystem(n, weights)).array)
        side = np.array([t in arc.block for t in range(n)])
        rows[np.not_equal.outer(side, side)] -= Fraction(rng.randint(1, 20), 300)  # a negative weight
        yield DissimilarityMap(rows), pi
        yield random_dissimilarity(rng, n, exact=True), pi


def corner_reference(d, ordering, tol):
    """The first violation by Fraction comparisons of the corner values, each
    numerator of corner_numerators divided by its den, as the check read
    them before it compared numerators."""
    n = d.n
    pos = np.arange(n)
    length = (pos[None, :] - pos[:, None]) % n + 1
    values, den = corner_numerators(d, ordering)
    negative = np.array([[Fraction(v, den) < -tol for v in row] for row in values])
    arcs = np.flatnonzero(negative & (length >= 2) & (length <= n - 2))
    if arcs.size == 0:
        return None
    a, b = divmod(int(arcs[0]), n)
    return tuple(sorted({(a - 1) % n, a, b, (b + 1) % n}))


class TestKalmansonOnNumerators:
    @pytest.mark.parametrize("tol", [0, Fraction(1, 150), Fraction(1, 300), 0.01, 1e-9, 0.005])
    def test_verdicts_and_violations_match_the_four_deep_scan(self, tol):
        for d, pi in kalmanson_maps():
            got = first_kalmanson_violation(d, pi, tol)
            scan = brute_force_kalmanson_violation(d, pi, tol)
            assert (got is None) == (corner_reference(d, pi, tol) is None)
            if got is None:
                if tol == 0:
                    assert scan is None  # Chepoi & Fichet: the corner quadruples suffice
                continue
            assert got["positions"] == corner_reference(d, pi, tol)
            assert scan is not None  # a corner quadruple beyond tol is a quadruple beyond tol
            x = [pi.order[p] for p in got["positions"]]
            i, j, k, l = x
            assert got["taxa"] == tuple(x)
            assert (got["near_sum"], got["cross_sum"], got["wrap_sum"]) == (
                d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k])
            assert got["near_sum"] > got["cross_sum"] + tol or got["wrap_sum"] > got["cross_sum"] + tol
            assert is_kalmanson(d, pi, tol) is False

    def test_a_tol_equal_to_the_deficit_passes_and_a_float_tol_is_its_binary_value(self):
        n = 6
        pi = CircularOrdering(range(n))
        weights = {s: Fraction(1, 3) for s in all_circular_splits(pi)}
        rows = np.array(metric_from_splits(WeightedSplitSystem(n, weights)).array)
        side = np.array([t in (1, 2) for t in range(n)])
        rows[np.not_equal.outer(side, side)] -= Fraction(1, 3) + Fraction(1, 10)  # lambda of {1,2}: -1/10
        d = DissimilarityMap(rows)
        assert first_kalmanson_violation(d, pi, Fraction(1, 5)) is None  # corners off by exactly 2 * 1/10
        assert first_kalmanson_violation(d, pi, Fraction(1, 5) - Fraction(1, 10**30)) is not None
        # 0.2 as a float lies above 1/5 and 0.1 + 0.1 + 1e-17 rounds to it; the
        # nearest float below 1/5 gives a violation
        assert Fraction(0.2) > Fraction(1, 5)
        assert is_kalmanson(d, pi, 0.2)
        assert not is_kalmanson(d, pi, float(np.nextafter(0.2, 0)))
        assert is_kalmanson(d, pi, float("inf"))
        with pytest.raises(ValueError, match="tol must be >= 0"):
            is_kalmanson(d, pi, float("-inf"))

    def test_a_numpy_integer_tol_does_not_overflow(self):
        d = random_dissimilarity(random.Random(5), 6, exact=True)
        pi = CircularOrdering(range(6))
        assert is_kalmanson(d, pi, np.int64(2**62)) and is_kalmanson(d, pi, 2**62)


class TestArcSplits:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_arc_split_equals_a_checked_split(self, n):
        rng = random.Random(n)
        pi = CircularOrdering(rng.sample(range(n), n))
        starts, ends = upper_pairs(n)
        made = arc_splits(pi, starts, ends)
        for s, e, split in zip(starts.tolist(), ends.tolist(), made):
            checked = Split.of(pi.order[s:e], n)
            assert type(split) is Split and type(split.block) is frozenset
            assert split == checked and hash(split) == hash(checked) and repr(split) == repr(checked)
        assert len(set(made)) == n * (n - 1) // 2 == len(all_circular_splits(pi))


class TestNumpyIntegers:
    def test_numpy_integer_weights_make_an_exact_system(self):
        s = Split.of([0], 4)
        assert WeightedSplitSystem(4, {s: np.int64(2)}).is_exact
        assert WeightedSplitSystem(4, {s: np.uint8(2)}).is_exact
        assert not WeightedSplitSystem(4, {s: np.float64(2.0)}).is_exact
        assert DissimilarityMap(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)).is_exact

    def test_bools_stay_inexact(self):
        assert not is_exact_number(True) and not is_exact_number(np.bool_(True))
        assert is_exact_number(np.int32(1)) and not is_exact_number(np.float32(1))

    def test_large_numpy_integers_sum_without_overflow(self):
        n = 5
        pi = CircularOrdering(range(n))
        weights = {s: np.int64(2**62) for s in all_circular_splits(pi) if s.separates(0, 1)}
        d = metric_from_splits(WeightedSplitSystem(n, weights))
        assert d.is_exact and d[0, 1] == len(weights) * 2**62
        mixed = DissimilarityMap(np.array([[0, np.int64(2**62), Fraction(1, 3)],
                                           [np.int64(2**62), 0, 1],
                                           [Fraction(1, 3), 1, 0]], dtype=object))
        assert mixed.is_exact and mixed[0, 1] * 4 == 2**64
        assert all(type(v) is int for v in mixed.integer_form[0].flat)

    def test_a_map_mixing_numpy_integers_and_fractions_is_checked_exactly(self):
        # Fraction(10**308, 3) > np.int64(2**62) multiplies 10**308 by a numpy
        # integer, which cannot hold it
        big = Fraction(10**308, 3)
        rows = np.array([[0, np.int64(2**62), big], [np.int64(2**62), 0, 1], [big, 1, 0]], dtype=object)
        with pytest.raises(ValueError, match=r"entry at \(0,2\) above"):
            DissimilarityMap(rows)


def gauss_jordan(a, weights, y):
    """The solver the oracle used before: Gauss-Jordan elimination on Fractions."""
    n = a.shape[1]
    aug = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for row, wt in zip(np.column_stack([a, y]).tolist(), map(Fraction, weights)):
        cols = [c for c in range(n) if row[c]] if wt else []
        for i, j in product(cols, cols + [n]):
            aug[i][j] += wt * row[i] * row[j]
    pivots, rank_row = [], 0
    for col in range(n):
        pivot = next((r for r in range(rank_row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank_row], aug[pivot] = aug[pivot], aug[rank_row]
        pv = aug[rank_row][col]
        aug[rank_row] = [v / pv for v in aug[rank_row]]
        for r in range(n):
            if r != rank_row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[rank_row])]
        pivots.append((rank_row, col))
        rank_row += 1
    x = [Fraction(0)] * n
    for r, col in pivots:
        x[col] = aug[r][n]
    return x


def normal_system(seed):
    """A 0/1 design with row weights (zeros among them) and a right-hand
    side; every third one rank-deficient, with a repeated and a zero column."""
    rng = random.Random(seed)
    k = rng.randint(2, 8)
    rows = rng.randint(k, 3 * k + 2)
    a = np.array([[rng.randint(0, 1) for _ in range(k)] for _ in range(rows)], dtype=int)
    if seed % 3 == 0:
        a[:, rng.randrange(k)] = a[:, rng.randrange(k)]
        a[:, rng.randrange(k)] = 0
    weights = [rng.choice([0, 1, 2, Fraction(1, 3), Fraction(rng.randint(1, 9), rng.randint(1, 9))])
               for _ in range(rows)]
    y = np.array([Fraction(rng.randint(-50, 50), rng.choice([1, 7, 100])) for _ in range(rows)], dtype=object)
    return a, weights, y


class TestFractionFreeSolver:
    @pytest.mark.parametrize("seed", range(30))
    def test_equal_to_gauss_jordan(self, seed):
        a, weights, y = normal_system(seed)
        got = _solve_normal_equations_exact(a, weights, y)
        assert got == gauss_jordan(a, weights, y)
        assert all(type(v) is Fraction for v in got)

    def test_full_rank_and_rank_deficient_systems_both_occur(self):
        full = set()
        for seed in range(30):
            a, weights, _ = normal_system(seed)
            kept = a[[w != 0 for w in weights]]
            full.add(np.linalg.matrix_rank(kept) == a.shape[1] if len(kept) else False)
        assert full == {True, False}

    def test_inconsistent_equations_are_refused(self):
        # a negative weight cancels the one column's Gram entry, not its
        # right-hand side: 0 * x = 1 - 2
        with pytest.raises(ArithmeticError, match="inconsistent normal equations"):
            _solve_normal_equations_exact(np.array([[1], [1]]), [1, -1], np.array([Fraction(1), Fraction(2)], dtype=object))
