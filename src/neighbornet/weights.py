"""Split-weight estimation over the circular splits of an ordering: the closed
corner formula, clamping, non-negative least squares, and the eta-weighted
least-squares length identity.
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
    all_circular_splits,
    is_circular_split,
    pair_sums,
    sorted_splits,
    split_masks,
)
from .length import DEFAULT_CAP, eta_for_splits, split_system_length

KKT_TOL = 1e-10


class NonConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class DesignMatrix:
    """0/1 incidence of taxon pairs (rows, in split_masks order) against
    splits (columns, in sorted_splits order)."""

    n: int
    pairs: tuple
    splits: tuple

    @classmethod
    def for_ordering(cls, ordering: CircularOrdering) -> "DesignMatrix":
        return cls.for_splits(all_circular_splits(ordering), ordering.n)

    @classmethod
    def for_splits(cls, splits, n: int) -> "DesignMatrix":
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        return cls(n, pairs, tuple(sorted_splits(splits)))

    def as_array(self) -> np.ndarray:
        a = np.zeros((len(self.pairs), len(self.splits)))
        for col, mask in enumerate(split_masks(self.splits, self.n)):
            a[mask, col] = 1.0  # a bool-to-float copy would need a cast buffer
        return a

    def rhs(self, d: DissimilarityMap) -> np.ndarray:
        return np.array([float(d[i, j]) for i, j in self.pairs])

    def weighted_system(self, d: DissimilarityMap, pair_weights=None) -> tuple:
        """(A, b) with each row scaled by the square root of its pair's weight;
        pairs absent from pair_weights get weight zero."""
        a = self.as_array()
        b = self.rhs(d)
        if pair_weights is not None:
            root = np.sqrt(self.pair_weight_vector(pair_weights))
            a = a * root[:, None]
            b = b * root
        return a, b

    def pair_weight_vector(self, pair_weights: Mapping[tuple, Num]) -> np.ndarray:
        w = np.array([float(pair_weights.get(p, 0.0)) for p in self.pairs])
        if (w < 0).any():
            raise ValueError("pair weights must be nonnegative")
        return w


def lambda_formula(d: DissimilarityMap, ordering: CircularOrdering) -> dict:
    """Closed-form weight for every circular split of the ordering.

    For the split whose block is the arc x_a..x_b, the weight is half the
    quadruple excess at the four arc corners:

        (d(x_{a-1}, x_b) + d(x_a, x_{b+1}) - d(x_{a-1}, x_{b+1}) - d(x_a, x_b)) / 2

    (indices mod n). Reconstructs the weights of a circular decomposable
    metric exactly; values may be negative on other inputs.
    """
    n = d.n
    if n < 4:
        raise ValueError("n >= 4 required")
    if ordering.n != n:
        raise ValueError("taxon count mismatch")
    x = ordering.order
    h = Fraction(1, 2)  # an exact half of exact values; 0.5 times a float
    out = {}
    for a in range(n):
        for length in range(1, n):
            b = (a + length - 1) % n
            before = x[(a - 1) % n]
            after = x[(b + 1) % n]
            val = h * (
                d[before, x[b]] + d[x[a], after] - d[before, after] - d[x[a], x[b]]
            )
            block = [x[(a + k) % n] for k in range(length)]
            out[Split.of(block, n)] = val
    return out


def clamp_nonnegative(lam: Mapping[Split, Num]) -> dict:
    """Entrywise max(value, 0), preserving exactness."""
    return {s: (v if v > 0 else 0 * v) for s, v in lam.items()}


def nnls(a: np.ndarray, b: np.ndarray, max_iter: Optional[int] = None, tol: float = KKT_TOL) -> np.ndarray:
    """Active-set non-negative least squares: min ||a x - b|| s.t. x >= 0.

    Lawson-Hanson style: grow the passive set by the most positive gradient
    coordinate, solve the unconstrained subproblem, and step back along the
    segment when the subproblem leaves the feasible cone.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if max_iter is None:
        max_iter = max(10 * n, 30)
    scale = max(1.0, float(np.abs(a.T @ b).max(initial=0.0)))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = a.T @ (b - a @ x)
    iters = 0
    while not passive.all() and np.any(w[~passive] > tol * scale):
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        passive[j] = True
        while True:
            iters += 1
            if iters > max_iter:
                raise NonConvergence(f"NNLS did not converge within {max_iter} iterations")
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if z[passive].min() > 0:
                x = z
                break
            mask = passive & (z <= 0)
            ratios = x[mask] / (x[mask] - z[mask])
            alpha = ratios.min()
            x = x + alpha * (z - x)
            passive &= x > tol * scale
            x[~passive] = 0.0
        w = a.T @ (b - a @ x)
    return x


def kkt_violation(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Max violation of the stationarity conditions at x for the (weighted)
    nonnegative least-squares problem: gradient >= 0 on active bounds,
    gradient == 0 on free coordinates."""
    grad = a.T @ (a @ x - b)
    return float(np.where(x > 0, np.abs(grad), -grad).max(initial=0.0))


def nnls_fit(
    d: DissimilarityMap,
    ordering: CircularOrdering,
    pair_weights: Optional[Mapping[tuple, Num]] = None,
    tol: float = KKT_TOL,
    splits=None,
) -> WeightedSplitSystem:
    """Nonnegative weights over the circular splits of the ordering minimizing
    the (optionally pair-weighted) squared reconstruction error.

    pair_weights maps (i, j) with i < j to positive weights; pairs given
    weight zero are excluded from the fit. Passing splits restricts the basis
    to a subset of the ordering's circular splits.
    """
    if d.n < 4:
        raise ValueError("n >= 4 required")
    if splits is None:
        design = DesignMatrix.for_ordering(ordering)
    else:
        splits = list(splits)
        if any(not is_circular_split(s, ordering) for s in splits):
            raise ValueError("splits must be circular with respect to the ordering")
        design = DesignMatrix.for_splits(splits, d.n)
    a, b = design.weighted_system(d, pair_weights)
    x = nnls(a, b, tol=tol)
    viol = kkt_violation(a, b, x)
    scale = max(1.0, float(np.abs(a.T @ b).max(initial=0.0)))
    if viol > 10 * tol * scale:
        raise NonConvergence(f"KKT violation {viol} above tolerance")
    return WeightedSplitSystem(d.n, dict(zip(design.splits, (float(v) for v in x))))


def reconstruction_residual(
    d: DissimilarityMap,
    lam: Mapping[Split, Num],
    pair_weights: Optional[Mapping[tuple, Num]] = None,
) -> float:
    """Sum of (weighted) squared errors between d and the metric of lam,
    whose weights may be negative."""
    design = DesignMatrix.for_splits(lam, d.n)
    errors = design.rhs(d) - pair_sums(lam, d.n)
    w = 1.0 if pair_weights is None else design.pair_weight_vector(pair_weights)
    return float(np.sum(w * errors**2))


def _solve_normal_equations_exact(a_rows, weights, y):
    """Solve (A^T W A) x = A^T W y over Fractions; free coordinates are 0.

    The normal equations are always consistent, so a solution exists even when
    the design is rank-deficient.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    ata = [[Fraction(0)] * n for _ in range(n)]
    aty = [Fraction(0)] * n
    for r in range(m):
        wr = Fraction(weights[r])
        if wr == 0:
            continue
        row = a_rows[r]
        yr = Fraction(y[r])
        nz = [c for c in range(n) if row[c]]
        for c1 in nz:
            aty[c1] += wr * row[c1] * yr
            for c2 in nz:
                ata[c1][c2] += wr * row[c1] * row[c2]
    aug = [ata[r] + [aty[r]] for r in range(n)]
    pivots = []
    rank_row = 0
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
    # consistency check (zero rows must have zero rhs)
    for r in range(rank_row, n):
        if aug[r][n] != 0:
            raise ArithmeticError("inconsistent normal equations")
    return x


def wls_split_weights(
    d: DissimilarityMap, splits, pair_weights: Mapping[tuple, Num]
) -> dict:
    """Unconstrained weighted least squares over the given splits.

    Exact (Fraction) when d and the weights are exact, else a float
    minimum-norm solve. Weight-zero pairs are excluded. The sum of the fitted
    values is invariant across solutions of a rank-deficient system because
    every split crosses exactly two edges of any consistent ordering.
    """
    design = DesignMatrix.for_splits(splits, d.n)
    w = [pair_weights.get(p, 0) for p in design.pairs]
    if d.is_exact and all(not isinstance(v, float) for v in w):
        a_rows = design.as_array().astype(int).tolist()
        y = [d[i, j] for i, j in design.pairs]
        return dict(zip(design.splits, _solve_normal_equations_exact(a_rows, w, y)))
    sol, *_ = np.linalg.lstsq(*design.weighted_system(d, pair_weights), rcond=None)
    return dict(zip(design.splits, (float(v) for v in sol)))


def wls_length_identity_check(
    d: DissimilarityMap, splits, cap: int = DEFAULT_CAP
) -> tuple:
    """Return (lhs, rhs): the split-system length of d, and the sum of the
    eta-weighted least-squares split weights. The two agree when the variance
    of each observed distance is inversely proportional to its adjacency
    count."""
    splits = list(splits)
    n = d.n
    table = eta_for_splits(splits, n, cap)
    lam = wls_split_weights(d, splits, table.counts)  # the nonzero counts
    lhs = split_system_length(d, splits, cap)
    rhs = sum(lam.values())
    return lhs, rhs
