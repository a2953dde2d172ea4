#!/usr/bin/env python3
"""Consistency demo: sample a circular decomposable metric, recover its
ordering by agglomeration, and re-estimate the split weights three ways.

Usage: python scripts/recover_circular_metric.py [--n 8] [--seed 0] [--noise 0.0]
"""
import argparse
import random

from neighbornet.agglomerate import BalancedTSP, neighbor_joining, run_neighbor_net
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    all_circular_splits,
    metric_from_splits,
    WeightedSplitSystem,
)
from neighbornet.io import splits_to_newick
from neighbornet.kalmanson import is_kalmanson
from neighbornet.oracle import reconstruction_residual
from neighbornet.weights import clamp_nonnegative, lambda_formula, nnls_fit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.0, help="sup-norm of added noise")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    perm = list(range(args.n))
    rng.shuffle(perm)
    pi = CircularOrdering(perm)
    system = WeightedSplitSystem(args.n, {s: rng.uniform(0.1, 2.0) for s in all_circular_splits(pi)})
    base = metric_from_splits(system)
    rows = [list(row) for row in base.rows]
    for i in range(args.n):
        for j in range(i + 1, args.n):
            v = rng.uniform(-args.noise, args.noise)
            rows[i][j] += v
            rows[j][i] += v
    d = DissimilarityMap(rows)

    print("hidden ordering:   ", pi.canonical().order)
    result = run_neighbor_net(d, BalancedTSP())
    print("recovered ordering:", result.ordering.order)
    print("recovered == hidden:", result.ordering == pi)
    print("kalmanson w.r.t. recovered:", is_kalmanson(d, result.ordering))

    lam = lambda_formula(d, result.ordering)
    err = max(abs(lam.get(s, 0) - w) for s, w in system.items())
    print(f"formula weights: max abs error {err:.3g}")
    clamped = clamp_nonnegative(lam)
    fit = nnls_fit(d, result.ordering)
    print(f"residuals: clamped {reconstruction_residual(d, clamped):.3g}, "
          f"nnls {reconstruction_residual(d, dict(fit.items())):.3g}")

    labels = [f"t{k}" for k in range(args.n)]
    print("nj tree:", splits_to_newick(sorted(neighbor_joining(d), key=lambda s: sorted(s.block)), labels))


if __name__ == "__main__":
    main()
