"""The Gram-space NNLS against two oracles: the solver it replaced, which runs
one least-squares solve of the design per step (tests/lstsq_nnls.py), and
scipy.optimize.nnls on rank-deficient problems. Then nnls_fit's lambda path:
its weights, their accuracy, and the active set it skips."""
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from neighbornet.agglomerate import run_neighbor_net
from neighbornet.cli import main
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    WeightedSplitSystem,
    metric_from_splits,
    sorted_splits,
)
from neighbornet import weights
from neighbornet.oracle import DenseDesign, adjacency_counts, all_circular_splits
from neighbornet.weights import KKT_TOL, DesignMatrix, NonConvergence, kkt_violation, lambda_formula, nnls
from conftest import format_phylip, random_arc_design, random_circular_instance, random_dissimilarity
import lstsq_nnls


def system_of(d, ordering, design=None, pair_weights=None):
    """(A, b) of the fit over every arc of the ordering, or over the columns
    of design; with pair_weights, each row scaled by the square root of its
    pair's weight, 0 for a pair absent from them."""
    a = (DesignMatrix.for_ordering(ordering) if design is None else design).as_array()
    b = DesignMatrix.rhs(d)
    if pair_weights is None:
        return a, b
    rows, cols = np.triu_indices(d.n, 1)
    root = np.sqrt([float(pair_weights.get(p, 0)) for p in zip(rows.tolist(), cols.tolist())])
    return a * root[:, None], b * root


def scale_of(a, b):
    return max(1.0, float(np.abs(a.T @ b).max(initial=0.0)))


def noisy_circular_map(rng, n):
    """A circular decomposable map plus noise below half its smallest weight,
    with its hidden ordering."""
    pi, system, base = random_circular_instance(rng, n)
    radius = 0.4 * min(w for _, w in system.items())
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = float(base[i, j]) + rng.uniform(-radius, radius)
    return DissimilarityMap(rows), pi


def circular_map_with_zero_lambdas(rng, n):
    """The metric of about half an ordering's circular splits, with integer
    weights, the system and the ordering: lambda is 0 on the other arcs, in
    exact and in float arithmetic."""
    pi = CircularOrdering(rng.sample(range(n), n))
    splits = sorted_splits(all_circular_splits(pi))
    system = WeightedSplitSystem(n, {s: rng.randint(1, 200) for s in splits if rng.random() < 0.5})
    return metric_from_splits(system), system, pi


def write_map(path, d):
    path.write_text(format_phylip(d, [f"t{k}" for k in range(d.n)]))
    return str(path)


def map_off_the_lambda_path(rng, n):
    """A random map under its neighbor-net ordering, on which some lambda is
    not positive, so nnls_fit runs the active set."""
    d = random_dissimilarity(rng, n)
    pi = run_neighbor_net(d).ordering
    assert min(lambda_formula(d, pi).values()) <= 0
    return d, pi


def case(label, a, b):
    return pytest.param(a, b, id=label)


def fit_cases():
    """(a, b) cases: full-support circular maps, random maps under their
    neighbor-net ordering and under a random one, and split subsets."""
    rng = random.Random(40)
    for k in range(12):
        d, pi = noisy_circular_map(rng, rng.randint(5, 14))
        yield case(f"circular-{k}", *system_of(d, pi))
    for k in range(12):
        d = random_dissimilarity(rng, rng.randint(5, 30))
        yield case(f"random-nnet-{k}", *system_of(d, run_neighbor_net(d).ordering))
    for k in range(8):
        n = rng.randint(5, 20)
        d = random_dissimilarity(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        yield case(f"random-order-{k}", *system_of(d, CircularOrdering(perm)))
    for k in range(10):
        n = rng.randint(5, 14)
        d, pi = noisy_circular_map(rng, n) if k % 2 else (random_dissimilarity(rng, n), CircularOrdering(range(n)))
        subset = random_arc_design(rng, pi, rng.randint(2, n * (n - 1) // 2 - 1))
        yield case(f"subset-{k}", *system_of(d, pi, design=subset))


@pytest.mark.parametrize("a,b", list(fit_cases()))
def test_same_support_and_weights_as_the_lstsq_solver(a, b):
    x = nnls(DenseDesign(a), b)
    x_old = lstsq_nnls.nnls(a, b)
    assert ((x > 0) == (x_old > 0)).all()
    assert np.abs(x - x_old).max() <= 1e-9 * scale_of(a, b)


def eta_cases():
    rng = random.Random(41)
    for k in range(12):
        if k % 2:
            d, pi = noisy_circular_map(rng, rng.randint(5, 12))
        else:
            d = random_dissimilarity(rng, rng.randint(5, 20))
            pi = run_neighbor_net(d).ordering
        yield case(f"eta-{k}", *system_of(d, pi, pair_weights=adjacency_counts([pi])))


@pytest.mark.parametrize("a,b", list(eta_cases()))
def test_eta_weighted_fits_reach_the_same_objective(a, b):
    """Eta weights are nonzero only on the n adjacent pairs of the ordering,
    so these designs are rank-deficient and the minimiser is not unique: the
    two solvers may return different weights. They must reach the same
    objective, and each must pass the KKT test that nnls_fit applies."""
    x = nnls(DenseDesign(a), b)
    x_old = lstsq_nnls.nnls(a, b)
    scale = scale_of(a, b)
    objective = np.sum((a @ x - b) ** 2)
    assert objective == pytest.approx(np.sum((a @ x_old - b) ** 2), rel=1e-9, abs=1e-12 * max(1.0, b @ b))
    assert (x >= 0).all()
    assert kkt_violation(DenseDesign(a), b, x) <= 10 * KKT_TOL * scale


def rank_deficient_problems(rng, count):
    """Fewer rows than columns, repeated columns, and small-integer columns,
    cycled; right-hand sides over six decades of scale."""
    for k in range(count):
        if k % 3 == 0:
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        elif k % 3 == 1:
            base = rng.normal(size=(int(rng.integers(3, 14)), int(rng.integers(1, 7))))
            a = base[:, rng.integers(0, base.shape[1], size=int(rng.integers(2, 12)))]
        else:
            a = rng.integers(0, 3, size=(int(rng.integers(2, 12)), int(rng.integers(2, 12)))).astype(float)
        yield a, rng.normal(size=a.shape[0]) * 10 ** rng.uniform(-3, 3)


def test_rank_deficient_problems_against_scipy():
    rng = np.random.default_rng(42)
    for a, b in rank_deficient_problems(rng, 999):
        x = nnls(DenseDesign(a), b)
        x_ref, _ = scipy.optimize.nnls(a, b)
        assert (x >= 0).all()
        objective, reference = np.sum((a @ x - b) ** 2), np.sum((a @ x_ref - b) ** 2)
        assert objective <= reference + 1e-12 * max(1.0, b @ b)
        assert kkt_violation(DenseDesign(a), b, x) <= KKT_TOL * scale_of(a, b)


def test_one_least_squares_solve_per_fit(monkeypatch):
    """The Gram-space loop solves k x k blocks; np.linalg.lstsq runs once, to
    refine the final passive weights against the design itself."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    d, pi = noisy_circular_map(random.Random(43), 10)
    a, b = system_of(d, pi)
    x = nnls(DenseDesign(a), b)
    assert (x > 0).sum() > 1 and len(calls) == 1


def nan_pivot(*args, **kwargs):
    """Stands in for the dot product g . u of a column's pivot
    G[j, j] - g . u, which turns the pivot NaN."""
    return np.nan


def test_singular_passive_block_raises_non_convergence(monkeypatch):
    monkeypatch.setattr(np, "dot", nan_pivot)
    d, pi = noisy_circular_map(random.Random(44), 6)
    a, b = system_of(d, pi)
    with pytest.raises(NonConvergence, match="passive block of 1 columns is singular"):
        nnls(DenseDesign(a), b)


def test_cli_exits_3_on_a_singular_passive_block(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "dot", nan_pivot)
    d, _ = map_off_the_lambda_path(random.Random(45), 6)
    assert main(["nnet", write_map(tmp_path / "map.phy", d), "--estimate", "nnls"]) == 3
    assert "error: solver did not converge: NNLS passive block" in capsys.readouterr().err


def test_no_columns_give_an_empty_solution():
    assert nnls(DenseDesign(np.zeros((3, 0))), np.ones(3)).shape == (0,)


def test_iteration_cap_still_raises():
    d, pi = noisy_circular_map(random.Random(46), 8)
    a, b = system_of(d, pi)
    with pytest.raises(NonConvergence, match="within 3 iterations"):
        nnls(DenseDesign(a), b, max_iter=3)


def assert_matches_scipy(a, b):
    """The full circular design is square and invertible, so the minimiser is
    unique: both solvers must find its support and its weights."""
    x = nnls(DenseDesign(a), b)
    x_ref, _ = scipy.optimize.nnls(a, b)
    assert ((x > 0) == (x_ref > 0)).all()
    assert np.abs(x - x_ref).max() <= 1e-9 * scale_of(a, b)
    return x


@pytest.mark.parametrize("n", [18, 24, 28])
def test_full_support_fits_at_large_k_against_scipy(n):
    """k = 153, 276 and 378 passive columns: every entry borders the
    inverse of the passive block, so its rounding errors add up over
    hundreds of updates."""
    d, pi = noisy_circular_map(random.Random(47 + n), n)
    a, b = system_of(d, pi)
    assert (assert_matches_scipy(a, b) > 0).all()


def test_random_map_fit_where_columns_leave_against_scipy():
    """A random map under its neighbor-net ordering. Without exits every
    iteration ends in an entry, so the iterations would equal the final
    support; the cap at the support size fails, so some column left the
    passive set and its downdate ran."""
    d = random_dissimilarity(random.Random(48), 20)
    a, b = system_of(d, run_neighbor_net(d).ordering)
    support = int((assert_matches_scipy(a, b) > 0).sum())
    with pytest.raises(NonConvergence, match="within"):
        nnls(DenseDesign(a), b, max_iter=support)


@pytest.mark.parametrize("arg,index,value", [("b", 3, np.nan), ("b", 0, np.inf), ("a", (2, 1), np.nan)])
def test_non_finite_input_raises_value_error(arg, index, value):
    d, pi = noisy_circular_map(random.Random(49), 6)
    a, b = system_of(d, pi)
    {"a": a, "b": b}[arg][index] = value
    with pytest.raises(ValueError, match=f"nnls: {arg} holds a non-finite value"):
        nnls(DenseDesign(a), b)



def test_an_overflowing_gradient_raises_value_error():
    """a^T b = inf would set the tolerance to inf, and the all-zero x would
    pass for optimal."""
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"nnls: a\^T b overflows"):
        nnls(DenseDesign(np.array([[1.0, 0.0], [1.0, 1.0]])), np.array([1e308, 1e308]))


@pytest.mark.parametrize("a,b,message", [
    # the second pivot is subnormal: its reciprocal overflows, the inverse holds infinities and z is NaN
    ([[0.0, 1e-150], [1e-160, 1e-150], [1e-160, 1e-150]], [-2e154, 2e154, 2e154],
     "passive solution over 2 columns is not finite"),
    # z overflows to -inf and inf, every column leaves, and each restart from x = 0 overflows again
    ([[1e-151, 0.0, 1e-145], [2e-151, 0.0, 1e-145], [2e-151, 0.0, 1e-145]], [-1e163, 1e163, 2e163],
     "did not converge within 30 iterations"),
])
def test_overflow_raises_non_convergence(a, b, message):
    """Finite inputs whose solution overflows: the solver must say it failed,
    not crash on an empty reduction."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonConvergence, match=message):
        nnls(DenseDesign(np.array(a)), np.array(b))


def test_nnls_fit_rejects_a_nan_weight(monkeypatch):
    """kkt_violation is NaN when a weight is; the gate must fail, not pass."""
    d, pi = map_off_the_lambda_path(random.Random(51), 6)

    def nan_weight(a, b, max_iter=None):
        x = np.zeros(a.shape[1])
        x[0] = np.nan
        return x

    a, b = system_of(d, pi)
    assert np.isnan(kkt_violation(DenseDesign(a), b, nan_weight(a, b)))
    monkeypatch.setattr(weights, "nnls", nan_weight)
    with pytest.raises(NonConvergence, match="KKT violation nan above tolerance"):
        weights.nnls_fit(d, pi)


def fit_weights(d, pi):
    """nnls_fit's weights in the order of the design's columns, 0 for a split
    the fit leaves out."""
    fit = weights.nnls_fit(d, pi)
    return np.array([float(fit.weight(s)) for s in DesignMatrix.for_ordering(pi).splits])


def spy_on_nnls(monkeypatch):
    """Records each call of weights.nnls from nnls_fit."""
    calls = []
    solver = weights.nnls
    monkeypatch.setattr(weights, "nnls", lambda a, b: calls.append(1) or solver(a, b))
    return calls


@pytest.mark.parametrize("n", [5, 8, 12, 17, 24])
def test_full_support_fits_are_lambda_bit_for_bit(n, monkeypatch):
    """Every lambda is positive on a circular map plus noise below half its
    smallest weight, so the fit is lambda itself and nnls never runs."""
    d, pi = noisy_circular_map(random.Random(60 + n), n)
    lam = lambda_formula(d, pi)
    lam = np.array([float(lam[s]) for s in DesignMatrix.for_ordering(pi).splits])
    calls = spy_on_nnls(monkeypatch)
    assert (lam > 0).all() and (fit_weights(d, pi) == lam).all()
    assert calls == []


@pytest.mark.parametrize("seed", range(6))
def test_fits_with_a_nonpositive_lambda_run_the_active_set(seed, monkeypatch):
    d, pi = map_off_the_lambda_path(random.Random(70 + seed), random.Random(seed).randint(6, 20))
    a, b = system_of(d, pi)
    x = nnls(DenseDesign(a), b)
    calls = spy_on_nnls(monkeypatch)
    assert (fit_weights(d, pi) == x).all()
    assert calls == [1]


def wide_circular_instance(rng, n):
    """An exact circular system whose weights are thirds and sevenths near
    2^55, so the doubled-lambda numerators exceed 2^53, which float64 cannot
    hold, and each weight rounds when made a float; with its map."""
    pi = CircularOrdering(rng.sample(range(n), n))
    system = WeightedSplitSystem(n, {s: Fraction(rng.randrange(2**55, 2**56), rng.choice((3, 7)))
                                     for s in all_circular_splits(pi)})
    d = metric_from_splits(system)
    assert max(weights._twice_lambda(d, pi)[0]) > 2**53
    return pi, system, d


@pytest.mark.parametrize("instance", [
    pytest.param(lambda: random_circular_instance(random.Random(80), 12, exact=True), id="hundredths-12"),
    pytest.param(lambda: wide_circular_instance(random.Random(81), 10), id="wide-10"),
])
def test_an_exact_circular_map_takes_the_lambda_path_and_passes_the_kkt_gate(instance, monkeypatch):
    pi, system, d = instance()
    assert d.is_exact and min(lambda_formula(d, pi).values()) > 0
    calls = spy_on_nnls(monkeypatch)
    fit = weights.nnls_fit(d, pi)  # raises NonConvergence if the gate fails
    assert calls == [] and fit.splits == system.splits
    assert all(fit.weight(s) == float(w) for s, w in system.items())


def test_a_zero_lambda_stays_on_the_lambda_path(monkeypatch):
    """lambda >= 0 is the rule: splits left out of an exact circular system
    have lambda exactly 0, and the fit leaves them out too."""
    d, system, pi = circular_map_with_zero_lambdas(random.Random(83), 12)
    assert min(lambda_formula(d, pi).values()) == 0
    calls = spy_on_nnls(monkeypatch)
    fit = weights.nnls_fit(d, pi)
    assert calls == [] and fit.splits == system.splits
    assert all(fit.weight(s) == float(w) for s, w in system.items())


@pytest.mark.parametrize("n", [12, 24, 40])
def test_the_fit_is_within_2_eps_max_d_of_the_exact_optimum(n):
    """On a float map the optimum is the lambda of the map's exact values;
    the fit reads lambda in floats, a few roundings of entries up to max|d|."""
    d, pi = noisy_circular_map(random.Random(90 + n), n)
    exact = lambda_formula(d.to_exact(), pi)
    assert min(exact.values()) > 0
    fit = weights.nnls_fit(d, pi)
    bound = 2 * np.finfo(float).eps * float(np.abs(d.array).max())
    assert max(abs(Fraction(fit.weight(s)) - v) for s, v in exact.items()) <= bound


def formula_maps():
    """Float maps whose every lambda under the neighbor-net ordering is >= 0:
    seeded circular maps, and one with integer weights where some lambda is 0."""
    rng = random.Random(84)
    for n in (5, 7, 9, 12, 16, 20):
        yield pytest.param(random_circular_instance(rng, n)[2], id=f"circular-{n}")
    d, _, _ = circular_map_with_zero_lambdas(rng, 10)
    d = DissimilarityMap(d.array.astype(float))
    assert min(lambda_formula(d, run_neighbor_net(d).ordering).values()) == 0
    yield pytest.param(d, id="zero-lambda-10")


@pytest.mark.parametrize("d", formula_maps())
def test_nnls_writes_the_formula_nexus_when_no_lambda_is_negative(d, tmp_path):
    path = write_map(tmp_path / "map.phy", d)
    for method in ("formula", "nnls"):
        assert main(["nnet", path, "--estimate", method, "--nexus", str(tmp_path / f"{method}.nex")]) == 0
    assert (tmp_path / "formula.nex").read_bytes() == (tmp_path / "nnls.nex").read_bytes()


def test_the_kkt_gate_rejects_a_bad_lambda_path_result(monkeypatch):
    """A nonnegative but wrong lambda is kept, so the gate must catch it."""
    d, pi = noisy_circular_map(random.Random(82), 8)
    twice = weights._twice_lambda

    def doubled(d, o):
        values, den = twice(d, o)
        return 2 * values, den

    monkeypatch.setattr(weights, "_twice_lambda", doubled)
    calls = spy_on_nnls(monkeypatch)
    with pytest.raises(NonConvergence, match="KKT violation .* above tolerance"):
        weights.nnls_fit(d, pi)
    assert calls == []
