#!/usr/bin/env python3
"""Exact consistency at scale: a full circular split system with weights
k/100 (k drawn from 1..100), held as arcs (CircularSplits), through the exact
pipeline: metric_from_splits, run_neighbor_net, is_kalmanson and
clamped_lambda. Then run_neighbor_net once more on the float image of the
same map, its numerators over its denominator as float64, to time the float
engine at the same size.

Usage: python scripts/exact_scale.py [--n 300] [--seed 0]

Prints each exact phase's seconds, their total, the float run's seconds and
the process's peak RSS. Exits 1 unless both runs recover the hidden
ordering, the map is Kalmanson for it, and the lambda formula gives back
every hidden weight exactly.
"""
import argparse
import random
import resource
import sys
import time

import numpy as np

from neighbornet.agglomerate import run_neighbor_net
from neighbornet.core import CircularOrdering, CircularSplits, DissimilarityMap, metric_from_splits, upper_pairs
from neighbornet.kalmanson import is_kalmanson
from neighbornet.weights import clamped_lambda


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    hidden = CircularOrdering(rng.sample(range(args.n), args.n)).canonical()
    starts, ends = upper_pairs(args.n)
    numerators = np.array([rng.randint(1, 100) for _ in range(starts.size)])
    system = CircularSplits(hidden, starts, ends, numerators, 100)

    seconds = {}

    def timed(name, phase, *arguments):
        start = time.perf_counter()
        out = phase(*arguments)
        seconds[name] = time.perf_counter() - start
        return out

    d = timed("metric_from_splits", metric_from_splits, system)
    ordering = timed("run_neighbor_net", run_neighbor_net, d).ordering
    kalmanson = timed("is_kalmanson", is_kalmanson, d, ordering)
    weights, negatives = timed("clamped_lambda", clamped_lambda, d, ordering)
    for name, value in seconds.items():
        print(f"{name}: {value:.3f} s")
    print(f"total: {sum(seconds.values()):.3f} s")
    entries, den = d.integer_form
    floats = DissimilarityMap((entries / den).astype(np.float64))
    start = time.perf_counter()
    float_ordering = run_neighbor_net(floats).ordering
    print(f"run_neighbor_net (float): {time.perf_counter() - start:.3f} s")
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")

    # Both orderings are canonical, so a recovered one has the hidden arcs in
    # the same positions. The weights are compared as integer numerators, as
    # CircularSplits holds them: its public readers make a Fraction per arc.
    recovered = ordering.order == hidden.order
    float_recovered = float_ordering.order == hidden.order
    exact = (recovered and negatives == 0 and np.array_equal(weights.starts, starts)
             and np.array_equal(weights.ends, ends)
             and bool((weights._arc_weights * 100 == numerators * weights._den).all()))
    print(f"ordering recovered: {recovered}; float ordering recovered: {float_recovered}; "
          f"Kalmanson: {kalmanson}; lambda exact: {exact}")
    return 0 if recovered and float_recovered and kalmanson and exact else 1


if __name__ == "__main__":
    sys.exit(main())
