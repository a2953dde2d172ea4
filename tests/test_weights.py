"""Split-weight estimation: closed formula, clamping, NNLS, and the
eta-weighted least-squares length identity."""
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from neighbornet.core import (
    CircularOrdering,
    CircularSplits,
    DissimilarityMap,
    Split,
    WeightedSplitSystem,
    metric_from_splits,
    sorted_splits,
)
from neighbornet.weights import (
    DesignMatrix,
    kkt_violation,
    lambda_formula,
    nnls,
    nnls_fit,
)
from neighbornet.oracle import (
    DenseDesign,
    all_circular_splits,
    clamp_nonnegative,
    reconstruction_residual,
    wls_length_identity_check,
    wls_split_weights,
)
from conftest import random_arc_design, random_circular_instance, random_dissimilarity, random_tree_instance


class TestDesignMatrix:
    def test_dimensions_and_columns(self):
        pi = CircularOrdering(range(5))
        design = DesignMatrix.for_ordering(pi)
        assert len(design.splits) == 10
        a = design.as_array()
        assert a.shape == (10, 10)
        # every column has at least one separated and one unseparated pair
        assert (a.sum(axis=0) >= 1).all()
        assert (a.sum(axis=0) <= 9).all()


class TestLambdaFormula:
    def test_recovers_circular_metric_exactly(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(4, 10)
            pi, system, d = random_circular_instance(rng, n, exact=True)
            lam = lambda_formula(d, pi)
            assert set(lam) == set(system.splits)
            for s, w in system.items():
                assert lam[s] == w

    def test_zero_map_gives_zero_weights(self):
        d = DissimilarityMap([[0] * 5 for _ in range(5)])
        lam = lambda_formula(d, CircularOrdering(range(5)))
        assert all(v == 0 for v in lam.values())

    def test_kalmanson_map_gives_nonnegative_weights(self):
        rng = random.Random(2)
        for _ in range(8):
            n = rng.randint(5, 9)
            pi, _, d = random_circular_instance(rng, n, exact=True)
            lam = lambda_formula(d, pi)
            assert all(v >= 0 for v in lam.values())

    def test_three_taxa_give_each_trivial_split_half_its_excess(self):
        # at n = 3 every arc is one taxon a, and its corners are a's two
        # neighbours and a itself: lambda = (d_ab + d_ac - d_bc) / 2, negative
        # where the triangle inequality fails
        rng = random.Random(28)
        for _ in range(200):
            dab, dac, dbc = (Fraction(rng.randint(0, 40), rng.randint(1, 6)) for _ in range(3))
            d = DissimilarityMap([[0, dab, dac], [dab, 0, dbc], [dac, dbc, 0]])
            order = [0, 1, 2]
            rng.shuffle(order)
            lam = lambda_formula(d, CircularOrdering(order))
            assert len(lam) == 3
            for a in range(3):
                b, c = (t for t in range(3) if t != a)
                assert lam[Split.of([a], 3)] == (d[a, b] + d[a, c] - d[b, c]) / 2

    @staticmethod
    def double_loop(d, ordering):
        """lambda_formula as it stood when it walked all n(n-1) arcs, so that
        each split was written twice and kept its later arc's value."""
        n, x = d.n, ordering.order
        out = {}
        for a in range(n):
            for length in range(1, n):
                b = (a + length - 1) % n
                before, after = x[(a - 1) % n], x[(b + 1) % n]
                val = Fraction(1, 2) * (
                    d[before, x[b]] + d[x[a], after] - d[before, after] - d[x[a], x[b]]
                )
                out[Split.of([x[(a + k) % n] for k in range(length)], n)] = val
        return out

    def test_bit_identical_to_the_double_arc_loop_on_float_maps(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(4, 30)
            d = random_dissimilarity(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            pi = CircularOrdering(perm)
            new, old = lambda_formula(d, pi), self.double_loop(d, pi)
            assert [(s, v.hex()) for s, v in new.items()] == [(s, v.hex()) for s, v in old.items()]
            assert frozenset(new) == all_circular_splits(pi)


class TestClamp:
    def test_nonnegative_unchanged(self):
        pi = CircularOrdering(range(4))
        splits = sorted_splits(all_circular_splits(pi))
        lam = {s: Fraction(k + 1, 2) for k, s in enumerate(splits)}
        assert clamp_nonnegative(lam) == lam

    def test_negative_zeroed(self):
        # zeroed, so left out: a split system holds its positive splits
        pi = CircularOrdering(range(4))
        s1, s2, s3 = sorted_splits(all_circular_splits(pi))[:3]
        assert clamp_nonnegative({s1: -1.0, s2: 2.0, s3: Fraction(0)}) == {s2: 2.0}


class TestNNLS:
    def test_matches_scipy_on_random_problems(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = rng.integers(4, 12), rng.integers(2, 9)
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            x = nnls(DenseDesign(a), b)
            x_ref, _ = scipy.optimize.nnls(a, b)
            assert np.linalg.norm(a @ x - b) <= np.linalg.norm(a @ x_ref - b) + 1e-9
            assert (x >= 0).all()
            assert kkt_violation(DenseDesign(a), b, x) <= 1e-7 * max(1.0, np.abs(a.T @ b).max())

    def test_exact_recovery_on_circular_metrics(self):
        rng = random.Random(4)
        for _ in range(8):
            n = rng.randint(5, 8)
            pi, system, d = random_circular_instance(rng, n)
            fit = nnls_fit(d, pi)
            assert reconstruction_residual(d, dict(fit.items())) <= 1e-10
            for s, w in system.items():
                assert fit.weight(s) == pytest.approx(w, abs=1e-6)

    def test_zero_map_gives_zero_fit(self):
        d = DissimilarityMap([[0.0] * 5 for _ in range(5)])
        fit = nnls_fit(d, CircularOrdering(range(5)))
        assert all(w == 0 for _, w in fit.items())

    def test_dominates_clamped_formula_on_perturbed_inputs(self):
        rng = random.Random(5)
        for _ in range(12):
            n = rng.randint(5, 8)
            pi, _, base = random_circular_instance(rng, n)
            eps = 0.3
            rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = float(base[i, j]) + rng.uniform(0, eps)
            d = DissimilarityMap(rows)
            fit = nnls_fit(d, pi)
            clamped = clamp_nonnegative(lambda_formula(d, pi))
            assert reconstruction_residual(d, dict(fit.items())) <= \
                reconstruction_residual(d, clamped) + 1e-9

    def test_residual_monotone_in_split_basis(self):
        rng = random.Random(6)
        for _ in range(6):
            n = rng.randint(5, 7)
            pi = CircularOrdering(range(n))
            d = random_dissimilarity(rng, n)
            full = nnls_fit(d, pi)
            design = random_arc_design(rng, pi, rng.randint(2, n * (n - 1) // 2 - 1))
            partial = dict(zip(design.splits, nnls(design, DesignMatrix.rhs(d)).tolist()))
            assert reconstruction_residual(d, dict(full.items())) <= \
                reconstruction_residual(d, partial) + 1e-9

    def test_the_basis_is_the_orderings_arcs_and_nothing_else(self):
        d = random_dissimilarity(random.Random(9), 6)
        with pytest.raises(TypeError):
            nnls_fit(d, CircularOrdering(range(6)), splits=[])

    @pytest.mark.parametrize("k", [5, 7])
    def test_an_ordering_over_other_taxa_is_refused(self, k):
        d = random_dissimilarity(random.Random(10), 6)
        with pytest.raises(ValueError, match="^taxon count mismatch$"):
            nnls_fit(d, CircularOrdering(range(k)))

    def test_output_satisfies_system_invariants(self):
        rng = random.Random(7)
        d = random_dissimilarity(rng, 6)
        pi = CircularOrdering(range(6))
        fit = nnls_fit(d, pi)
        assert isinstance(fit, CircularSplits) and not fit.is_exact
        assert all(w > 0 for _, w in fit.items())  # zero weights are dropped
        assert fit.splits <= all_circular_splits(pi)


class TestWlsLengthIdentity:
    def test_full_circular_system_float(self):
        rng = random.Random(8)
        for _ in range(5):
            n = rng.choice([5, 6, 7])
            pi, _, base = random_circular_instance(rng, n)
            rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = float(base[i, j]) + rng.uniform(0, 0.05)
            d = DissimilarityMap(rows)
            lhs, rhs = wls_length_identity_check(d, all_circular_splits(pi))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_tree_system_float(self):
        rng = random.Random(9)
        for _ in range(5):
            n = rng.choice([5, 6])
            d, splits, _ = random_tree_instance(rng, n)
            lhs, rhs = wls_length_identity_check(d, splits)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_exact_on_decomposable_inputs(self):
        rng = random.Random(10)
        for _ in range(4):
            n = rng.choice([5, 6])
            pi, system, d = random_circular_instance(rng, n, exact=True)
            splits = list(all_circular_splits(pi))
            lhs, rhs = wls_length_identity_check(d, splits)
            assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
            assert lhs == rhs
            # on a decomposable input the fitted weights reproduce the system
            table_weights = wls_split_weights(
                d, splits, {(i, j): 1 for i in range(n) for j in range(i + 1, n)}
            )
            assert metric_from_splits(
                WeightedSplitSystem(n, clamp_nonnegative(table_weights))
            ).rows == d.rows


def test_kkt_violation_matches_the_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(12, 6))
        b = rng.normal(size=12)
        x = np.maximum(rng.normal(size=6), 0.0)
        grad = a.T @ (a @ x - b)
        viol = 0.0
        for k in range(len(x)):
            viol = max(viol, abs(grad[k]) if x[k] > 0 else max(0.0, -grad[k]))
        assert kkt_violation(DenseDesign(a), b, x) == viol
