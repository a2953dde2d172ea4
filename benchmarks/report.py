"""Run every workload of BENCHMARK.json, untraced and traced, each in its own
process, and print every metric by name with its unit.

    python3 benchmarks/report.py [--out FILE]

Each workload runs with seed SEED for the run_seconds of BENCHMARK.json: once
with --trace 0 (end-to-end metrics) and twice with --trace 1 (per-layer
metrics; the second traced run shows whether the work counts and byte counts
repeat exactly). --out writes the numbers as JSON, with the line count of src/
as an informational field.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

# (numerator metrics, description): the share of the traced pass that the
# layers a workload exists to stress should account for
SHARES = {
    "agglomerate": (["agglomerate.select_s"], "pair selection (self time of run_neighbor_net)"),
    "fit-dense": (["weights.nnls_s", "weights.design_s"], "NNLS solve plus design matrix"),
    "fit-sparse": (["weights.nnls_s", "weights.design_s"], "NNLS solve plus design matrix"),
    "recover-exact": (
        ["core.metric_from_splits_s", "kalmanson.check_s", "agglomerate.run_s"],
        "metric_from_splits, Kalmanson check and agglomeration",
    ),
}


def run(workload: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = {k: v for k, _, v in (ln.partition(": ") for ln in lines[:-1] if ": " in ln)}
    return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {
        "seed": SEED,
        "seconds": seconds,
        "src_lines": src_lines(),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        plain = run(name, seconds, 0)
        traced = [run(name, seconds, 1) for _ in range(2)]
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if spec_unit(spec, k) in ("count", "B")}
            for t in traced
        ]
        # the traced pass of the same traced run: its plain pass times the overhead
        traced_pass = float(traced[0]["summary"]["calibrated_wall_s"]) * layers["trace.overhead"]
        numerators, what = SHARES[name]
        share = sum(layers[k] for k in numerators) / traced_pass
        record = {
            "why": entry["why"],
            "correct": plain["correct"] and all(t["correct"] for t in traced),
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_frac": plain["failed"] / plain["attempted"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "uncalibrated": {
                "wall_s": float(plain["summary"]["uncalibrated_wall_s"]),
                "setup_s": float(plain["summary"]["uncalibrated_setup_s"]),
            },
            "per_layer": layers,
            "counts_repeat": counts[0] == counts[1],
            "share": {"of": what, "value": share},
        }
        out["workloads"][name] = record
        print(f"== {name}: correct={record['correct']} attempted={record['attempted']} "
              f"fail_frac={record['fail_frac']:.3g}")
        for metric, value in record["end_to_end"].items():
            print(f"  {metric}: {value:.6g} {spec_unit(spec, metric)}")
        for metric, value in layers.items():
            if value:
                print(f"  {metric}: {value:.6g} {spec_unit(spec, metric)}")
        print(f"  share of the traced pass in {what}: {share:.3f}")
        print(f"  work counts repeat across two traced runs: {record['counts_repeat']}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


def spec_unit(spec: dict, name: str) -> str:
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if metric["name"] == name:
                return metric["unit"]
    raise KeyError(name)


if __name__ == "__main__":
    raise SystemExit(main())
