"""Split-weight estimation over the circular splits of an ordering: the closed
corner formula and non-negative least squares.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    CircularOrdering,
    CircularSplits,
    DissimilarityMap,
    arc_pair_sums,
    arc_positions,
    arc_splits,
    corner_numerators,
    pair_positions,
    upper_pairs,
)

KKT_TOL = 1e-10


class NonConvergence(RuntimeError):
    pass


class DesignMatrix:
    """0/1 incidence of taxon pairs (rows, in split_masks order) against
    circular splits of an ordering (columns): column c is the arc of
    positions starts[c] <= p < ends[c], the taxa order[s:e]. nnls and
    kkt_violation read it as an operator on the positions alone; only
    as_array forms the pairs x k array.

    - gram_column(j) is A^T A[:, j]. Splits A and B both separate
      |A&B| |A'&B'| + |A&B'| |A'&B| pairs, with ' the complement, a count that
      complementing either split keeps, so for two arcs every term is an
      interval overlap, max(0, min(e, e_j) - max(s, s_j)). Whole numbers: the
      bits of the dense product.
    - matvec(x) is A x, the prefix sums of core.arc_pair_sums.
    - rmatvec(r) is A^T r. With R the pair matrix of r in position order, an
      arc sums R's rows at its positions less its block R[s:e, s:e], both
      read from R's 2-D prefix sums.
    - columns(mask) is the pairs x |mask| array of the masked columns.

    Memory is O(n^2 + k), apart from the arrays as_array and columns return."""

    def __init__(self, ordering: CircularOrdering, starts, ends):
        self.ordering, self.n = ordering, ordering.n
        self.starts, self.ends = arc_positions(self.n, starts, ends)

    @classmethod
    def for_ordering(cls, ordering: CircularOrdering) -> "DesignMatrix":
        """All n(n-1)/2 circular splits of the ordering, with no Split made: the
        arcs of the pairs of upper_pairs(n), in lambda_formula's key order."""
        return cls(ordering, *upper_pairs(ordering.n))

    @property
    def splits(self) -> tuple:
        return tuple(arc_splits(self.ordering, self.starts, self.ends))

    @property
    def shape(self) -> tuple:
        return self.n * (self.n - 1) // 2, self.starts.size

    def gram_column(self, j: int) -> np.ndarray:
        s, e = self.starts, self.ends
        both = np.maximum(np.minimum(e, e[j]) - np.maximum(s, s[j]), 0)
        size, size_j = e - s, e[j] - s[j]
        return (both * (self.n - size - size_j + both) + (size - both) * (size_j - both)).astype(float)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return arc_pair_sums(self.ordering, self.starts, self.ends, np.asarray(x, dtype=float))

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        n = self.n
        lo, hi = pair_positions(self.ordering)
        pairs = np.zeros((n, n))
        pairs[lo, hi] = pairs[hi, lo] = r
        block = np.pad(pairs.cumsum(axis=0).cumsum(axis=1), (1, 0))  # block[a, b] sums R[:a, :b]
        s, e = self.starts, self.ends
        inside = block[e, e] - block[s, e] - block[e, s] + block[s, s]
        return block[e, n] - block[s, n] - inside

    def columns(self, mask: np.ndarray) -> np.ndarray:
        return DesignMatrix(self.ordering, self.starts[mask], self.ends[mask]).as_array()

    def as_array(self) -> np.ndarray:
        lo, hi = (p[:, None] for p in pair_positions(self.ordering))
        s, e = self.starts, self.ends
        return (((s <= lo) & (lo < e)) != ((s <= hi) & (hi < e))).astype(float)

    @staticmethod
    def rhs(d: DissimilarityMap) -> np.ndarray:
        """The map's distances as floats, in the order of the rows."""
        return d.array[upper_pairs(d.n)].astype(float)


def lambda_formula(d: DissimilarityMap, ordering: CircularOrdering) -> dict:
    """Closed-form weight for every circular split of the ordering.

    For the split whose block is the arc x_a..x_b, the weight is half the
    quadruple excess at the four arc corners:

        (d(x_{a-1}, x_b) + d(x_a, x_{b+1}) - d(x_{a-1}, x_{b+1}) - d(x_a, x_b)) / 2

    (indices mod n), read from core.corner_numerators. Reconstructs the
    weights of a circular decomposable metric exactly; values may be
    negative on other inputs. On an exact map each value is one Fraction of
    the numerator sum over twice the map's denominator.
    """
    twice, den = _twice_lambda(d, ordering)
    halves = (0.5 * twice).tolist() if den is None else [Fraction(v, 2 * den) for v in twice.tolist()]
    return dict(zip(arc_splits(ordering, *upper_pairs(d.n)), halves))


def clamped_lambda(d: DissimilarityMap, ordering: CircularOrdering) -> tuple:
    """(system, negatives): the CircularSplits of the arcs whose lambda is
    positive, with the values lambda_formula gives them, and the number of
    arcs whose lambda is negative. No Split is made."""
    twice, den = _twice_lambda(d, ordering)
    values = 0.5 * twice if den is None else twice
    kept = values >= 0
    starts, ends = upper_pairs(d.n)
    system = CircularSplits(ordering, starts[kept], ends[kept], values[kept], None if den is None else 2 * den)
    return system, int((values < 0).sum())


def _twice_lambda(d: DissimilarityMap, ordering: CircularOrdering) -> tuple:
    """Twice the lambda of each arc of DesignMatrix.for_ordering, as (values,
    den): core.corner_numerators at the arcs of upper_pairs(n), the arc
    order[s:e] having its corners at positions e and s-1. At n = 3 each arc
    is one taxon, its corners its two neighbours and itself, and the value
    is twice the trivial split's weight."""
    corners, den = corner_numerators(d, ordering)
    starts, ends = upper_pairs(d.n)
    return corners[ends, (starts - 1) % d.n], den


def nnls(a, b: np.ndarray, max_iter: Optional[int] = None) -> np.ndarray:
    """Active-set non-negative least squares: min ||a x - b|| s.t. x >= 0, a
    read only through shape, gram_column, matvec, rmatvec and columns: a
    DesignMatrix, or an explicit array in oracle.DenseDesign.

    Lawson-Hanson on the normal equations (Bro & De Jong 1997): grow the
    passive set P by the most positive coordinate of the gradient c - G x
    (c = a^T b, G = a^T a), take z_P = inv(G[P, P]) c[P], and step back along
    the segment when z leaves the feasible cone. The inverse, one contiguous
    |P| x |P| array, is bordered into a new array when a column enters and
    downdated in place by a rank-1 term per column that leaves, O(|P|^2)
    each. c is formed once, and the Gram column a^T a[:, j] when j first
    enters P, stored in order of entry in a buffer that doubles as it fills,
    so memory grows with the columns that entered, never as k x k.

    The normal equations square cond(a), so the final passive weights are
    refined by one least-squares solve of a's passive columns against b, kept
    when every weight stays positive. A non-finite b or an overflowing a^T b
    raises ValueError, as DenseDesign does for a non-finite array. A pivot
    that is not positive and finite (dependent passive columns, which the
    entry rule excludes), a non-finite z and running past max_iter raise
    NonConvergence; there is no fallback solver. On a rank-deficient problem
    the minimiser need not be unique: any x returned attains the minimum up
    to the KKT tolerance; which one is a solver detail.
    """
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("nnls: b holds a non-finite value")
    m, n = a.shape
    if max_iter is None:
        max_iter = max(10 * n, 30)
    c = a.rmatvec(b)
    if not np.isfinite(c).all():  # the tolerance would be inf, and x = 0 would pass for optimal
        raise ValueError("nnls: a^T b overflows")
    tol = KKT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    gram = np.empty((min(n, 16), n))  # row r holds a^T a[:, entered[r]]; unwritten rows stay untouched
    entered = np.empty(n, dtype=np.intp)
    row_of = np.full(n, -1, dtype=np.intp)
    count = 0
    inv = np.empty((0, 0))  # the inverse of G[order, order]
    order = np.empty(0, dtype=np.intp)  # the k passive columns, in the order of that inverse's rows
    x = np.zeros(n)
    free = c.copy()  # the gradient c - G x, -inf on the passive set
    iters = 0
    while n and free[j := int(np.argmax(free))] > tol:
        if row_of[j] < 0:
            if count == len(gram):  # no view of gram is alive here; realloc may grow it in place
                gram.resize((min(2 * count, n), n), refcheck=False)
            gram[count] = a.gram_column(j)
            entered[count] = j
            row_of[j] = count
            count += 1
        k, g = order.size, gram[row_of[j], order]  # g = G[order, j]
        u = inv @ g
        s = gram[row_of[j], j] - np.dot(g, u)
        if not 0 < s < np.inf:
            raise NonConvergence(f"NNLS passive block of {k + 1} columns is singular")
        inv, smaller = np.empty((k + 1, k + 1)), inv
        np.add(smaller, np.outer(u, u / s), out=inv[:k, :k])
        inv[k, :k] = inv[:k, k] = -u / s
        inv[k, k] = 1.0 / s
        order, xp = np.concatenate((order, [j])), np.concatenate((x[order], [0.0]))
        while True:
            iters += 1
            if iters > max_iter:
                raise NonConvergence(f"NNLS did not converge within {max_iter} iterations")
            z = inv @ c[order]
            if z.min(initial=np.inf) > 0:  # empty when every column left: start again from x = 0
                break
            neg = z <= 0
            if not neg.any():
                raise NonConvergence(f"NNLS passive solution over {order.size} columns is not finite")
            alpha = (xp[neg] / (xp[neg] - z[neg])).min()
            xp = xp + alpha * (z - xp)
            keep = xp > tol
            for q in np.flatnonzero(~keep):  # inv becomes the inverse without column q
                inv -= np.outer(inv[:, q], inv[:, q] / inv[q, q])
            inv, order, xp = inv[np.ix_(keep, keep)], order[keep], xp[keep]
        x = np.zeros(n)
        x[order] = z
        free = c - x[entered[:count]] @ gram[:count]
        free[order] = -np.inf
    del gram, inv  # freed before the refinement allocates: together they would set the peak memory
    passive = x > 0
    if passive.any():
        refined = np.linalg.lstsq(a.columns(passive), b, rcond=None)[0]
        if refined.min() > 0:
            x = np.zeros(n)
            x[passive] = refined
    return x


def kkt_violation(a, b: np.ndarray, x: np.ndarray) -> float:
    """Max violation of the stationarity conditions at x for the
    nonnegative least-squares problem, a read as nnls reads it: gradient
    >= 0 on active bounds, gradient == 0 on free coordinates."""
    grad = a.rmatvec(a.matvec(x) - b)
    return float(np.where(x > 0, np.abs(grad), -grad).max(initial=0.0))


def nnls_fit(d: DissimilarityMap, ordering: CircularOrdering) -> CircularSplits:
    """Nonnegative weights over the ordering's n(n-1)/2 circular splits
    minimizing the squared reconstruction error, as the CircularSplits of the
    arcs whose weight is positive. A fit over some of the ordering's arcs is
    nnls(DesignMatrix(ordering, starts, ends), DesignMatrix.rhs(d)); over any
    splits, nnls of oracle.DenseDesign of their pairs x splits array, the
    masks of core.split_masks as columns, against the same right-hand side.

    The full design is square and invertible with lambda_formula as its
    inverse, so when every lambda is >= 0 it is the unique optimum, and the
    fit is lambda read from core.corner_numerators, rounded once to float.
    Otherwise nnls runs its active set from x = 0. The KKT gate checks both.
    Both read the design, DesignMatrix.for_ordering, as an operator: the
    pairs x splits array is never formed, only the passive columns of nnls's
    refinement.
    """
    twice, den = _twice_lambda(d, ordering)
    design = DesignMatrix.for_ordering(ordering)
    b = design.rhs(d)
    x = 0.5 * (twice if den is None else twice / den).astype(float) if (twice >= 0).all() else nnls(design, b)
    viol = kkt_violation(design, b, x)
    scale = max(1.0, float(np.abs(design.rmatvec(b)).max(initial=0.0)))
    if not viol <= 10 * KKT_TOL * scale:  # a NaN violation fails too
        raise NonConvergence(f"KKT violation {viol} above tolerance")
    return CircularSplits(ordering, design.starts, design.ends, x)
