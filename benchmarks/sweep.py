"""Scaling sweep (informational, gates nothing): time each workload's jobs,
traced, over a ladder of n and fit the log-log slope of each layer's time.

    python3 benchmarks/sweep.py [--out FILE]

Expected from the algorithms: agglomeration O(n^3) in total; building the
dense design matrix O(n^4) (pairs x splits); metric_from_splits over all
n(n-1)/2 circular splits O(n^4); the Kalmanson scan O(n^4); the lambda
formula O(n^3) as written (O(n^2) entries, each building its block).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import neighbornet  # noqa: E402

import timing  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1
REPS = 3  # the median of REPS runs at each n
LADDERS = {
    "agglomerate": [30, 45, 60, 90, 120],
    "fit-dense": [12, 16, 20, 24],
    "fit-sparse": [20, 30, 40, 50],
    "recover-exact": [16, 24, 32, 40],
}


def slope(ns, ts):
    """Least-squares slope of log t against log n."""
    xs, ys = [math.log(n) for n in ns], [math.log(t) for t in ts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure(workload: str, n: int) -> dict:
    """Median over REPS runs of calibrated seconds per layer (and per job pass)."""
    workdir = HERE / "_work" / f"sweep-{workload}-{n}-p{os.getpid()}"
    try:
        return _measure(workloads.build(workload, SEED, n, str(workdir)), workloads.KERNELS[workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(jobs, kernels) -> dict:
    samples = defaultdict(list)
    for _ in range(REPS):
        totals = defaultdict(float)
        for job in jobs:
            t = tracer.Tracer()
            t.job = 0
            t.install(neighbornet)
            try:
                result, seconds, calibrated = timing.timed(job.run, kernels)
            finally:
                t.uninstall()
            job.check(result)
            factor = calibrated / seconds
            totals["pass"] += calibrated
            for name, (total, _, _) in tracer.layer_times(t.spans).get(0, {}).items():
                totals[name] += total * factor
        for name, value in totals.items():
            samples[name].append(value)
    return {name: statistics.median(v) for name, v in samples.items() if len(v) == REPS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = {}
    for workload, ladder in LADDERS.items():
        rows = {n: measure(workload, n) for n in ladder}
        names = set.intersection(*(set(rows[n]) for n in ladder))
        slopes = {name: slope(ladder, [rows[n][name] for n in ladder]) for name in sorted(names)}
        out[workload] = {"n": ladder, "seconds": {name: [rows[n][name] for n in ladder] for name in slopes},
                         "slope": slopes}
        print(f"== {workload}: n = {ladder}")
        for name, value in slopes.items():
            times = " ".join(f"{t:.3g}" for t in out[workload]["seconds"][name])
            print(f"  {name:28s} slope {value:5.2f}   seconds {times}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
