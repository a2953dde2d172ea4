"""DesignMatrix as an operator over an ordering's arcs: the closed-form Gram
columns, A x and A^T r against the dense design, nnls on the operator against
nnls on the array, the arcs the constructor accepts, and the memory an
nnls_fit and its KKT gate take without the array."""
import random
import tracemalloc

import numpy as np
import pytest

from neighbornet import weights
from neighbornet.agglomerate import run_neighbor_net
from neighbornet.core import CircularOrdering
from neighbornet.weights import DesignMatrix, kkt_violation, nnls, nnls_fit
from conftest import random_arc_design, random_circular_instance, random_dissimilarity


def designs():
    rng = random.Random(100)
    for n in (4, 5, 7, 10, 16, 23, 30):
        perm = list(range(n))
        rng.shuffle(perm)
        pi = CircularOrdering(perm)
        yield pytest.param(DesignMatrix.for_ordering(pi), id=f"ordering-{n}")
        k = rng.randint(1, min(60, n * (n - 1) // 2))
        yield pytest.param(random_arc_design(rng, pi, k), id=f"arcs-{n}")


@pytest.mark.parametrize("design", designs())
def test_gram_columns_are_the_dense_products_bit_for_bit(design):
    a = design.as_array()
    for j in range(design.shape[1]):
        assert (design.gram_column(j) == a.T @ a[:, j]).all()


@pytest.mark.parametrize("design", designs())
def test_products_match_the_dense_design(design):
    a = design.as_array()
    assert design.shape == a.shape
    rng = np.random.default_rng(design.n)
    for x in (rng.uniform(0, 2, a.shape[1]), rng.normal(size=a.shape[1])):
        dense = a @ x
        assert np.abs(design.matvec(x) - dense).max() <= 1e-12 * (np.abs(a) @ np.abs(x)).max()
    for r in (rng.uniform(0, 3, a.shape[0]), rng.normal(size=a.shape[0])):
        dense = a.T @ r
        assert np.abs(design.rmatvec(r) - dense).max() <= 1e-12 * (np.abs(a.T) @ np.abs(r)).max()
    mask = rng.random(a.shape[1]) < 0.5
    assert (design.columns(mask) == a[:, mask]).all()


def random_fit(seed):
    rng = random.Random(seed)
    d = random_dissimilarity(rng, rng.randint(5, 40))
    return d, run_neighbor_net(d).ordering


@pytest.mark.parametrize("seed", range(12))
def test_nnls_on_the_operator_equals_nnls_on_the_array(seed):
    d, pi = random_fit(300 + seed)
    design = DesignMatrix.for_ordering(pi)
    a, b = design.as_array(), design.rhs(d)
    x = nnls(design, b)
    x_dense = nnls(a, b)
    assert ((x > 0) == (x_dense > 0)).all()
    assert (x == x_dense).all()
    assert kkt_violation(design, b, x) == pytest.approx(kkt_violation(a, b, x), rel=1e-9, abs=1e-12)


def test_a_subset_fit_takes_the_design_itself():
    rng = random.Random(7)
    d = random_dissimilarity(rng, 12)
    design = random_arc_design(rng, CircularOrdering(rng.sample(range(12), 12)), 40)
    b = DesignMatrix.rhs(d)
    assert (nnls(design, b) == nnls(design.as_array(), b)).all()


def test_the_empty_design_gives_an_empty_fit():
    design = DesignMatrix(CircularOrdering(range(6)), [], [])
    assert design.shape == (15, 0)
    x = nnls(design, np.ones(15))
    assert x.shape == (0,)
    assert design.matvec(x).dtype == np.float64 and not design.matvec(x).any()


@pytest.mark.parametrize("starts,ends", [([0], [7]), ([-1], [3]), ([2], [2]), ([3], [1]), ([0, 1], [2, 7])])
def test_arcs_outside_the_ordering_are_refused(starts, ends):
    with pytest.raises(ValueError, match="0 <= start < end <= n-1"):
        DesignMatrix(CircularOrdering(range(7)), starts, ends)


@pytest.mark.parametrize("starts,ends", [([0, 1], [2]), ([0], [1, 2]), ([[0]], [[1]])])
def test_starts_and_ends_of_other_shapes_are_refused(starts, ends):
    with pytest.raises(ValueError, match="1-D and of one length"):
        DesignMatrix(CircularOrdering(range(7)), starts, ends)


def test_nnls_fit_forms_only_the_passive_columns(monkeypatch):
    d, pi = random_fit(400)
    shapes = []
    as_array = DesignMatrix.as_array

    def recorded(self):
        out = as_array(self)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(DesignMatrix, "as_array", recorded)
    fit = nnls_fit(d, pi)
    assert shapes == [(d.n * (d.n - 1) // 2, len(fit.splits))]


def test_a_lambda_path_fit_forms_no_design(monkeypatch):
    pi, system, d = random_circular_instance(random.Random(401), 12)
    assert min(weights.lambda_formula(d, pi).values()) >= 0
    monkeypatch.setattr(DesignMatrix, "as_array", lambda self: pytest.fail("as_array called"))
    assert nnls_fit(d, pi).splits == system.splits


def test_nnls_fit_memory_stays_below_the_dense_design():
    """The dense design of n=50 alone is 1225 x 1225 floats, 11.4 MiB, and
    so is each k x k solver buffer; the operator fit needs under 8 MiB."""
    d = random_dissimilarity(random.Random(550), 50)
    pi = run_neighbor_net(d).ordering
    assert min(weights.lambda_formula(d, pi).values()) < 0  # the active set runs
    tracemalloc.start()
    try:
        nnls_fit(d, pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20



def test_the_kkt_gate_of_a_full_circular_map_stays_below_the_side_matrix():
    """At n=150 the n x k float side matrix alone is 12.8 MiB; the KKT gate
    on the arcs' positions needs under 4 MiB."""
    pi, system, d = random_circular_instance(random.Random(551), 150)
    x = np.array([system.weight(s) for s in DesignMatrix.for_ordering(pi).splits])
    b = DesignMatrix.rhs(d)
    tracemalloc.start()
    try:
        viol = kkt_violation(DesignMatrix.for_ordering(pi), b, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert viol <= 1e-9 * np.abs(b).max()
    assert peak < 4 * 2 ** 20
