"""Benchmark entry point: one workload, one process, closed loop.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Lines before it are a
readable summary. Exits non-zero without a result when the library is not
there.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_ROUNDS = 7
MAX_REPORTED_ERRORS = 3

# One BLAS thread: with the interpreter's thread the process stays within
# the 2 CPUs of the machine the bounds were set on, and BLAS timings do not
# depend on what the other CPU is doing. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

if __name__ == "__main__" and not (
    (SRC / "neighbornet" / "__init__.py").is_file() and (ROOT / "BENCHMARK.json").is_file()
):
    sys.exit(f"error: run from a checkout holding src/neighbornet and BENCHMARK.json (looked in {ROOT})")
sys.path.insert(0, str(SRC))

import neighbornet  # noqa: E402

import timing  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
MMAP_THRESHOLD = 4 << 20


def pin_malloc_policy() -> bool:
    """Fix glibc's mmap threshold at 4 MiB. By default it rises after the
    first large block is freed, after which large arrays may stay in the heap,
    and peak RSS then depends on allocation history (58 or 67 MB on the same
    fit-sparse job). Pinned, every block of 4 MiB or more is mapped and
    unmapped, so peak RSS follows live memory. False where there is no glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def os_threads() -> int:
    """Threads of this process, from /proc where there is one."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def median_pass(per_kind: dict) -> float:
    """Sum over job kinds of the median: one typical pass of the job list."""
    return sum(statistics.median(v) for v in per_kind.values())


def run_guarded(job):
    """job.run(), or the exception it raised: a crashed job is a failure, not a benchmark error."""
    try:
        return job.run()
    except Exception as exc:
        return exc


class Runner:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.malloc_pinned = pin_malloc_policy()
        self.n, self.warm_n = workloads.SIZES[workload]
        self.kernels = workloads.KERNELS[workload]
        self.workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        self.attempted = self.failed = 0
        self.tracer = tracer.Tracer() if trace else None
        self.setup = []  # (seconds, calibrated seconds) per setup round
        self.plain = defaultdict(list)  # kind -> (seconds, calibrated seconds) per untraced run
        self.traced = defaultdict(list)  # kind -> (calibrated seconds, factor, job id, counts, bytes)

    def attempt(self, job, traced=False):
        """Run, time and check one job; returns (seconds, calibrated seconds, bytes written)."""
        self.attempted += 1
        if traced:
            self.tracer.job = self.attempted
            self.tracer.counts.clear()
            self.tracer.install(neighbornet)
        try:
            result, seconds, calibrated = timing.timed(lambda: run_guarded(job), self.kernels)
        finally:
            if traced:
                self.tracer.uninstall()
        return seconds, calibrated, self.check(job, result)

    def check(self, job, result) -> int:
        """Check one job's result; returns the bytes it wrote, 0 if it failed."""
        try:
            if isinstance(result, Exception):
                raise result
            return job.check(result)
        except Exception as exc:  # a failed check or a crashed job
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"FAILED {job.kind}: {exc}", file=sys.stderr)
                if not isinstance(exc, AssertionError):
                    traceback.print_exc()
            return 0

    def setup_round(self, k: int):
        """One set-up round; returns the jobs. Import the library in a fresh
        interpreter (what each CLI call pays, interpreter start-up aside),
        calibrated in that interpreter (import_probe.py); then generate the
        inputs and run and check each job once at a small size, timed as one
        block and calibrated once."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        probe = subprocess.run([sys.executable, str(HERE / "import_probe.py")], env=env, cwd=ROOT,
                               check=True, capture_output=True, text=True)
        imported, imported_calibrated = map(float, probe.stdout.split())
        jobs, seconds, calibrated = timing.timed(lambda: self.prepare(k), self.kernels)
        self.setup.append((imported + seconds, imported_calibrated + calibrated))
        return jobs

    def prepare(self, k: int):
        rounddir = self.workdir / f"setup{k}"
        for job in workloads.build(self.workload, self.seed, self.warm_n, str(rounddir / "warm")):
            self.attempted += 1
            self.check(job, run_guarded(job))
        return workloads.build(self.workload, self.seed, self.n, str(rounddir))

    def run(self, seconds: float) -> dict:
        for k in range(SETUP_ROUNDS):
            jobs = self.setup_round(k)
        deadline = time.perf_counter() + seconds
        kinds = {job.kind for job in jobs}
        while time.perf_counter() < deadline or set(self.plain) != kinds:
            for job in jobs:
                self.plain[job.kind].append(self.attempt(job)[:2])
                if self.trace:
                    raw, calibrated, written = self.attempt(job, traced=True)
                    counts = dict(self.tracer.counts)
                    self.traced[job.kind].append((calibrated, calibrated / raw, self.attempted, counts, written))
                if time.perf_counter() >= deadline and set(self.plain) == kinds:
                    break
        return self.report(seconds)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one pass of the job list: for each job kind
        the median over its traced runs, summed over kinds. Span times are
        calibrated with their job's factor."""
        times = tracer.layer_times(self.tracer.spans)
        per_kind = defaultdict(lambda: defaultdict(list))
        for kind, runs in self.traced.items():
            for _, factor, job_id, counts, written in runs:
                spans = times.get(job_id, {})

                def span(name, i=0):
                    value = spans.get(name, [0.0, 0.0, 0])[i]
                    return value * factor if i < 2 else value

                values = {
                    "agglomerate.run_s": span("agglomerate.run"),
                    "agglomerate.select_s": span("agglomerate.run", 1),
                    "agglomerate.merge_s": span("agglomerate.merge"),
                    "agglomerate.reweight_s": span("agglomerate.reweight"),
                    "agglomerate.steps": span("agglomerate.merge", 2),
                    "agglomerate.q_calls": counts.get("agglomerate.q_calls", 0),
                    "agglomerate.q_hat_calls": counts.get("agglomerate.q_hat_calls", 0),
                    "weights.design_s": span("weights.design"),
                    "weights.design_bytes": counts.get("weights.design_bytes", 0),
                    "weights.nnls_s": span("weights.nnls"),
                    "weights.nnls_solves": counts.get("weights.nnls_solves", 0),
                    "weights.nnls_support": counts.get("weights.nnls_support", 0),
                    "weights.kkt_s": span("weights.kkt"),
                    "weights.lambda_s": span("weights.lambda"),
                    "core.metric_from_splits_s": span("core.metric_from_splits"),
                    "core.is_exact_calls": span("core.is_exact", 2),
                    "core.is_exact_s": span("core.is_exact"),
                    "core.map_init_s": span("core.map_init"),
                    "kalmanson.check_s": span("kalmanson.check"),
                    "io.parse_s": span("io.parse"),
                    "io.nexus_s": span("io.nexus"),
                    "io.trace_s": span("io.trace"),
                    "io.bytes_out": written,
                    "tsp.parse_s": span("tsp.parse"),
                    "cli.self_s": span("cli.main", 1),
                }
                for name, value in values.items():
                    per_kind[name][kind].append(value)
        out = {name: median_pass(kinds) for name, kinds in per_kind.items()}
        traced = {kind: [r[0] for r in runs] for kind, runs in self.traced.items()}
        out["trace.overhead"] = median_pass(traced) / median_pass(self.plain_times(calibrated=True))
        out["uncalibrated.wall_s"] = median_pass(self.plain_times(calibrated=False))
        return out

    def plain_times(self, calibrated: bool) -> dict:
        """kind -> seconds of each untraced run, calibrated or as measured."""
        return {kind: [r[int(calibrated)] for r in runs] for kind, runs in self.plain.items()}

    def report(self, seconds: float) -> dict:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = "per_layer" if self.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[section]}
        if self.trace:
            values = self.layer_metrics()
            self.tracer.write(WORK / f"spans-{self.workload}-s{self.seed}.jsonl")
        else:
            values = {
                "wall_s": median_pass(self.plain_times(calibrated=True)),
                "setup_s": statistics.median(r[1] for r in self.setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "n": self.n,
            "seconds": seconds,
            "trace": int(self.trace),
            "runs_per_kind": {k: len(v) for k, v in self.plain.items()},
            "calibrated_wall_s": median_pass(self.plain_times(calibrated=True)),
            "uncalibrated_wall_s": median_pass(self.plain_times(calibrated=False)),
            "uncalibrated_setup_s": statistics.median(r[0] for r in self.setup),
            "fail_frac": self.failed / self.attempted,
            "threads": {"os": os_threads(), "blas": int(BLAS_THREADS)},
            "malloc_mmap_threshold_pinned": self.malloc_pinned,
        }
        for key, value in summary.items():
            print(f"{key}: {value}")
        for name in units:
            print(f"{name}: {values[name]:.6g} {units[name]}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.SIZES:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.SIZES)}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, bool(args.trace))
    try:
        result = runner.run(args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
