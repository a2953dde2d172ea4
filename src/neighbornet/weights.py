"""Split-weight estimation over the circular splits of an ordering: the closed
corner formula, clamping, and non-negative least squares.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .core import (
    CircularOrdering,
    DissimilarityMap,
    Num,
    Split,
    WeightedSplitSystem,
    arc_sides,
    corner_differences,
    sides_of,
    sorted_splits,
    splits_of,
    upper_pairs,
)

KKT_TOL = 1e-10


class NonConvergence(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """0/1 incidence of taxon pairs (rows, in split_masks order) against splits
    (columns, in sorted_splits order), held as their side matrix, core.sides_of."""

    n: int
    sides: np.ndarray

    @classmethod
    def for_ordering(cls, ordering: CircularOrdering) -> "DesignMatrix":
        """The ordering's circular splits from its arcs, with no Split made, in
        sorted_splits order."""
        sides = arc_sides(ordering)
        return cls(ordering.n, sides[:, _sorted_arcs(sides)])

    @classmethod
    def for_splits(cls, splits, n: int) -> "DesignMatrix":
        return cls(n, sides_of(sorted_splits(splits), n))

    @property
    def splits(self) -> tuple:
        return tuple(splits_of(self.sides))

    def as_array(self) -> np.ndarray:
        rows, cols = upper_pairs(self.n)
        return (self.sides[rows] != self.sides[cols]).astype(float)

    @staticmethod
    def rhs(d: DissimilarityMap) -> np.ndarray:
        """The map's distances as floats, in the order of the rows."""
        return d.array[upper_pairs(d.n)].astype(float)


def _sorted_arcs(sides: np.ndarray) -> np.ndarray:
    """The permutation of core.arc_sides columns into sorted_splits order: by block
    size, then by the membership of taxa 0, 1, ..., members first."""
    return np.lexsort((*~sides[::-1], sides.sum(axis=0)))


def lambda_formula(d: DissimilarityMap, ordering: CircularOrdering) -> dict:
    """Closed-form weight for every circular split of the ordering.

    For the split whose block is the arc x_a..x_b, the weight is half the
    quadruple excess at the four arc corners:

        (d(x_{a-1}, x_b) + d(x_a, x_{b+1}) - d(x_{a-1}, x_{b+1}) - d(x_a, x_b)) / 2

    (indices mod n), read from core.corner_differences. Reconstructs the
    weights of a circular decomposable metric exactly; values may be
    negative on other inputs.
    """
    if d.n < 4:
        raise ValueError("n >= 4 required")
    twice = _twice_lambda(d, ordering).tolist()
    h = Fraction(1, 2)  # an exact half of exact values; 0.5 times a float
    return {split: h * v for split, v in zip(splits_of(arc_sides(ordering)), twice)}


def _twice_lambda(d: DissimilarityMap, ordering: CircularOrdering) -> np.ndarray:
    """Twice the lambda of each arc, in the map's arithmetic, in core.arc_sides
    column order: the arc order[s:e] has its corners at positions e and s-1."""
    starts, ends = upper_pairs(d.n)
    return corner_differences(d, ordering)[ends, (starts - 1) % d.n]


def clamp_nonnegative(lam: Mapping[Split, Num]) -> dict:
    """The entries with a positive value; the rest clamp to weight 0, which
    a split system leaves out."""
    return {s: v for s, v in lam.items() if v > 0}


def nnls(a: np.ndarray, b: np.ndarray, max_iter: Optional[int] = None) -> np.ndarray:
    """Active-set non-negative least squares: min ||a x - b|| s.t. x >= 0.

    Lawson-Hanson on the normal equations (Bro & De Jong 1997): grow the
    passive set P by the most positive coordinate of the gradient c - G x
    (c = a^T b, G = a^T a), take z_P = inv(G[P, P]) c[P], and step back along
    the segment when z leaves the feasible cone. The inverse is bordered when
    a column enters and downdated by a rank-1 term per column that leaves,
    O(k^2) each. c is formed once, and the Gram row a^T a[:, j] when j first
    enters P, stored in order of entry: the memory touched grows as k x n.

    The normal equations square cond(a), so the final passive weights are
    refined by one least-squares solve of a[:, P] against b, kept when every
    weight stays positive. Non-finite a or b, or an overflowing a^T b, raises
    ValueError. A pivot that is not positive and finite (dependent passive
    columns, which the entry rule excludes), a non-finite z and running past
    max_iter raise NonConvergence; there is no fallback solver. On a
    rank-deficient problem the minimiser need not be unique: any x returned
    attains the minimum up to the KKT tolerance; which one is a solver detail.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, arg in (("a", a), ("b", b)):
        if not np.isfinite(arg).all():
            raise ValueError(f"nnls: {name} holds a non-finite value")
    m, n = a.shape
    if max_iter is None:
        max_iter = max(10 * n, 30)
    c = a.T @ b
    if not np.isfinite(c).all():  # the tolerance would be inf, and x = 0 would pass for optimal
        raise ValueError("nnls: a^T b overflows")
    tol = KKT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    gram = np.empty((n, n))  # row r holds a^T a[:, entered[r]]; unwritten rows stay untouched
    entered = np.empty(n, dtype=np.intp)
    row_of = np.full(n, -1, dtype=np.intp)
    count = 0
    inv = np.empty((n, n))  # inv[:k, :k] is the inverse of G[order, order]
    order = np.empty(0, dtype=np.intp)  # the k passive columns, in the order of that inverse's rows
    x = np.zeros(n)
    w = c
    iters = 0
    while not (passive := x > 0).all() and np.any(w[~passive] > tol):
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        if row_of[j] < 0:
            gram[count] = a.T @ a[:, j]
            entered[count] = j
            row_of[j] = count
            count += 1
        k, g = order.size, gram[row_of[j], order]  # g = G[order, j]
        u = inv[:k, :k] @ g
        s = gram[row_of[j], j] - np.dot(g, u)
        if not 0 < s < np.inf:
            raise NonConvergence(f"NNLS passive block of {k + 1} columns is singular")
        inv[:k, :k] += u[:, None] * (u / s)
        inv[k, : k + 1] = inv[: k + 1, k] = np.concatenate((-u, [1.0])) / s
        order, xp = np.concatenate((order, [j])), np.concatenate((x[order], [0.0]))
        while True:
            iters += 1
            if iters > max_iter:
                raise NonConvergence(f"NNLS did not converge within {max_iter} iterations")
            k = order.size
            z = inv[:k, :k] @ c[order]
            if z.min(initial=np.inf) > 0:  # empty when every column left: start again from x = 0
                break
            neg = z <= 0
            if not neg.any():
                raise NonConvergence(f"NNLS passive solution over {k} columns is not finite")
            alpha = (xp[neg] / (xp[neg] - z[neg])).min()
            xp = xp + alpha * (z - xp)
            keep = xp > tol
            for q in np.flatnonzero(~keep):  # inv[:k, :k] becomes the inverse without column q
                inv[:k, :k] -= inv[:k, q, None] * (inv[:k, q] / inv[q, q])
            inv[: keep.sum(), : keep.sum()] = inv[:k, :k][keep][:, keep]
            order, xp = order[keep], xp[keep]
        x = np.zeros(n)
        x[order] = z
        w = c - x[entered[:count]] @ gram[:count]
    del gram, inv  # freed before the refinement allocates: together they would set the peak memory
    if passive.any():
        refined = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        if refined.min() > 0:
            x = np.zeros(n)
            x[passive] = refined
    return x


def kkt_violation(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Max violation of the stationarity conditions at x for the
    nonnegative least-squares problem: gradient >= 0 on active bounds,
    gradient == 0 on free coordinates."""
    grad = a.T @ (a @ x - b)
    return float(np.where(x > 0, np.abs(grad), -grad).max(initial=0.0))


def nnls_fit(d: DissimilarityMap, ordering: CircularOrdering) -> WeightedSplitSystem:
    """Nonnegative weights over the ordering's n(n-1)/2 circular splits
    minimizing the squared reconstruction error; the system holds the splits
    whose weight is positive. A fit over a subset of splits is
    nnls(DesignMatrix.for_splits(splits, n).as_array(), DesignMatrix.rhs(d)).

    The full design is square and invertible with lambda_formula as its
    inverse, so when every lambda is >= 0 it is the unique optimum, and the
    fit is lambda, read in the map's arithmetic and rounded once to float.
    Otherwise nnls runs its active set from x = 0. The KKT gate checks both.
    """
    if d.n < 4:
        raise ValueError("n >= 4 required")
    sides = arc_sides(ordering)
    columns = _sorted_arcs(sides)
    twice = _twice_lambda(d, ordering)[columns]  # raises on a taxon count mismatch
    design = DesignMatrix(d.n, sides[:, columns])
    a, b = design.as_array(), design.rhs(d)
    x = 0.5 * twice.astype(float) if (twice >= 0).all() else nnls(a, b)
    viol = kkt_violation(a, b, x)
    scale = max(1.0, float(np.abs(a.T @ b).max(initial=0.0)))
    if not viol <= 10 * KKT_TOL * scale:  # a NaN violation fails too
        raise NonConvergence(f"KKT violation {viol} above tolerance")
    positive = x > 0
    fit = WeightedSplitSystem(d.n, dict(zip(splits_of(design.sides[:, positive]), x[positive].tolist())))
    fit._exact = False  # a float fit, though no weight may be left to say so
    return fit
