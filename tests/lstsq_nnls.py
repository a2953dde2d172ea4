"""The NNLS solver as it stood before the Gram-space rewrite: Lawson-Hanson on
the design itself, with one SVD least-squares solve of a[:, passive] per
iteration. Kept unchanged as the reference oracle of
tests/test_nnls_differential.py.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from neighbornet.weights import KKT_TOL, NonConvergence


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
