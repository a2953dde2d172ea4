#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in interleaved pairs.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S
       [--first-seed K] [--trace 0|1]

Each pair runs benchmarks/run.py once in each checkout, with the seed
K + pair index (a fresh seed per pair, the same on both sides); the parent
runs first in even pairs and the change first in odd ones, so a drift of
the machine over a pair does not favour one side. Each run is one process
started from the root of its checkout, which imports its own src/. Nothing
is written: run.py removes its work directory itself.

After the last pair it prints, for each metric of the runs (BENCHMARK.json's
end_to_end section, or per_layer with --trace 1): both medians, the change
between them, the parent's quartiles, in how many pairs the change was
better, and whether the medians differ by more than the parent's
interquartile range. Exits 1 as soon as a run exits non-zero or reports
correct: false.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout; its metrics as {name: value}. Raises
    RuntimeError when the run fails or its result is not correct."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} seed {seed}: correct: false ({result['failed']} failed)\n{proc.stderr.strip()}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """The first and third quartiles (inclusive method); one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, spec: list) -> list:
    """One row per metric of spec ({name, unit, better}) from pairs of
    ({name: value} of the parent, {name: value} of the change): name, unit,
    both medians, the parent's quartiles, how many pairs the change was
    better in, and whether the medians differ by more than the parent's
    interquartile range."""
    rows = []
    for metric in spec:
        name = metric["name"]
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        lower = metric["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rows.append({
            "name": name, "unit": metric["unit"], "parent": p_med, "change": c_med,
            "q1": q1, "q3": q3, "won": won, "pairs": len(pairs),
            "clear": abs(c_med - p_med) > q3 - q1,
        })
    return rows


def format_row(row: dict) -> str:
    rel = (row["change"] / row["parent"] - 1) * 100 if row["parent"] else float("nan")
    return (f"{row['name']} ({row['unit']}): parent {row['parent']:.6g}, change {row['change']:.6g} ({rel:+.1f}%); "
            f"parent quartiles {row['q1']:.6g}..{row['q3']:.6g}; change better in {row['won']}/{row['pairs']}; "
            f"gap {'above' if row['clear'] else 'within'} the parent's IQR")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        sides = [("parent", args.parent), ("change", args.change)]
        if k % 2:
            sides.reverse()
        results = {}
        try:
            for label, checkout in sides:
                results[label] = run_once(checkout, args.workload, seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        pairs.append((results["parent"], results["change"]))
        print(f"pair {k + 1}/{args.pairs}, seed {seed}, {sides[0][0]} first: "
              + ", ".join(f"{name} {results['parent'][name]:.6g} -> {results['change'][name]:.6g}"
                          for name in results["parent"]), flush=True)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    section = [m for m in spec["per_layer" if args.trace else "end_to_end"] if m["name"] in pairs[0][0]]
    for row in summarize(pairs, section):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
