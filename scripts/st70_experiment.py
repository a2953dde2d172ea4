#!/usr/bin/env python3
"""Greedy-tour comparison on a TSPLIB EUC_2D instance.

Runs the agglomerative tour heuristic under the balanced and the tree
weighting and prints both cycle lengths. For st70 with unrounded distances
the known optimum is 678.598; the balanced weighting should land roughly 12%
above it and strictly below the tree weighting.

Usage: python scripts/st70_experiment.py path/to/st70.tsp [--round {none,tsplib}]
"""
import argparse
import time

from neighbornet.agglomerate import BalancedTSP, TreeWeighting
from neighbornet.oracle import brute_force_tsp
from neighbornet.tsp import greedy_tsp, read_tsplib_euc2d


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("tsp_file")
    parser.add_argument("--round", choices=["none", "tsplib"], default="none")
    args = parser.parse_args()

    with open(args.tsp_file) as fh:
        d = read_tsplib_euc2d(fh.read(), rounding=args.round)
    print(f"{d.n} cities, rounding={args.round}")

    start = time.perf_counter()
    balanced = greedy_tsp(d, BalancedTSP())
    t_bal = time.perf_counter() - start
    print(f"balanced weighting: length {float(balanced.length):.6g}  ({t_bal:.2f}s)")

    tree = greedy_tsp(d, TreeWeighting())
    print(f"tree weighting: length {float(tree.length):.6g}")
    print(f"balanced shorter than tree: {balanced.length < tree.length}")

    if d.n <= 11:
        best = brute_force_tsp(d)
        print(f"brute-force optimum: {float(best.length):.6g}")
        print(f"greedy gap: {float(balanced.length - best.length):.6g}")


if __name__ == "__main__":
    main()
