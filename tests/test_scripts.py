"""Smoke tests for scripts/: each runs in a fresh interpreter, exits 0 and
prints its key lines."""
import importlib.util
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_process(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    proc = script_process(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


def test_recover_circular_metric():
    out = run_script("recover_circular_metric.py", "--n", "7", "--noise", "0.01")
    # noise 0.01 is inside the recovery radius, half the smallest weight 0.1
    assert "recovered == hidden: True" in out
    assert re.search(r"^formula weights: max abs error [0-9.e+-]+$", out, re.M)
    assert re.search(r"^residuals: clamped [0-9.e+-]+, nnls [0-9.e+-]+$", out, re.M)
    assert re.search(r"^nj tree: \(.*\);$", out, re.M)


def test_exact_scale_at_n_12():
    out = run_script("exact_scale.py", "--n", "12", "--seed", "3")
    for phase in ("metric_from_splits", "run_neighbor_net", "is_kalmanson", "clamped_lambda", "total",
                  r"run_neighbor_net \(float\)"):
        assert re.search(rf"^{phase}: [0-9.]+ s$", out, re.M), phase
    assert re.search(r"^peak RSS: [0-9.]+ MB$", out, re.M)
    assert out.endswith("ordering recovered: True; float ordering recovered: True; Kalmanson: True; lambda exact: True\n")


@pytest.mark.parametrize("rounding", ["none", "tsplib"])
def test_st70_experiment_on_nine_cities(tmp_path, rounding):
    rng = random.Random(4)
    path = tmp_path / "nine.tsp"
    path.write_text(
        "NAME: nine\nTYPE: TSP\nDIMENSION: 9\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        + "".join(f"{k + 1} {rng.randint(0, 100)} {rng.randint(0, 100)}\n" for k in range(9))
        + "EOF\n"
    )
    out = run_script("st70_experiment.py", str(path), "--round", rounding)
    assert f"9 cities, rounding={rounding}" in out
    values = {
        key: float(m.group(1))
        for key in ("balanced weighting: length", "tree weighting: length", "brute-force optimum:", "greedy gap:")
        if (m := re.search(re.escape(key) + r" ([0-9.e+-]+)", out))
    }
    assert len(values) == 4, out  # n <= 11 takes the brute-force path
    assert values["brute-force optimum:"] <= values["balanced weighting: length"]
    assert values["greedy gap:"] >= 0


def test_cli_outputs_at_the_smallest_size(tmp_path):
    def outputs(sub):
        out = run_script("cli_outputs.py", str(ROOT), str(tmp_path / sub), "--max-n", "4", "--no-fit-sparse")
        assert re.fullmatch(r"\d+ calls written to .*\n", out)
        return {p.relative_to(tmp_path / sub): p.read_text() for p in (tmp_path / sub).rglob("*") if p.is_file()}

    first = outputs("a")
    assert first == outputs("b")  # seeded, and printed paths are relative
    nnls = first[Path("circular-4/nnet-nnls.txt")]
    assert nnls.startswith("exit 0\n--- stdout\nordering:") and "nexus written to circular-4/nnet-nnls.nex" in nnls
    assert first[Path("circular-4/nnet-nnls.nex")].startswith("#nexus")
    assert len(first[Path("ties-4/nnet-original.jsonl")].splitlines()) == 3
    assert first[Path("random-4/estimate-formula.txt")].startswith("exit 1\n")  # a negative lambda


def test_compare_outputs_allows_only_rounding_in_trace_criteria(tmp_path):
    run_script("cli_outputs.py", str(ROOT), str(tmp_path / "a"), "--max-n", "4", "--no-fit-sparse")
    a, b = tmp_path / "a", tmp_path / "b"

    def compare(other=b, summary=r"\d+ of \d+ files agree; \d+ q/q_hat values differ, largest relative difference [0-9.e-]+\n"):
        """The exit code and the differ lines, or the summary when there are none;
        the summary line is printed on every run."""
        proc = script_process("compare_outputs.py", str(a), str(other))
        assert "Traceback" not in proc.stderr and re.fullmatch(summary, proc.stdout)
        return proc.returncode, proc.stderr or proc.stdout

    def edited(name, edit, fresh=True, line=1):
        if fresh:
            shutil.rmtree(b, ignore_errors=True)
            shutil.copytree(a, b)
        path = b / name
        lines = path.read_text().splitlines(keepends=True)
        lines[line] = edit(lines[line])
        path.write_text("".join(lines))

    def record_edit(key, change):
        def edit(line):
            record = json.loads(line)
            record[key] = change(record[key])
            return json.dumps(record) + "\n"
        return edit

    code, out = compare(a)
    files = sum(1 for p in a.rglob("*") if p.is_file())
    assert (code, out) == (0, f"{files} of {files} files agree; 0 q/q_hat values differ, largest relative difference 0\n")
    edited("random-4/nnet-tree.jsonl", record_edit("q", lambda q: q * (1 + 1e-13)))
    code, out = compare()
    assert code == 0 and re.fullmatch(rf"{files} of {files} files agree; 1 q/q_hat values differ, largest relative difference [0-9.e-]+\n", out)
    edited("random-4/nnet-tree.nex", lambda line: line.rstrip("\n") + " \n", fresh=False)
    # a differing file still leaves the summary, with the trace's drift in it
    drift = rf"{files - 1} of {files} files agree; 1 q/q_hat values differ, largest relative difference [0-9.e-]+\n"
    assert compare(summary=drift) == (1, "differ: random-4/nnet-tree.nex: bytes differ\n")
    edited("random-4/nnet-tree.nex", lambda line: line.rstrip("\n") + " \n")
    assert compare() == (1, "differ: random-4/nnet-tree.nex: bytes differ\n")
    edited("random-4/nnet-tree.jsonl", record_edit("join", lambda join: join[::-1]))
    code, out = compare()
    assert code == 1 and out.startswith("differ: random-4/nnet-tree.jsonl: record 1: join ")
    edited("random-4/nnet-tree.jsonl", record_edit("q_hat", lambda q: q * (1 + 1e-11)))
    code, out = compare()
    assert code == 1 and out.startswith("differ: random-4/nnet-tree.jsonl: record 1: q_hat ")
    (b / "random-4" / "nnet-tree.jsonl").unlink()
    assert compare() == (1, f"differ: random-4/nnet-tree.jsonl: in {a} only\n")
    edited("random-4/nnet-tree.nex", lambda line: line.rstrip("\n") + " \n")
    edited("random-4/nnet-tree.jsonl", record_edit("join", lambda join: join[::-1]), fresh=False)
    code, out = compare()
    lines = out.splitlines()
    assert code == 1 and len(lines) == 2
    assert lines[0].startswith("differ: random-4/nnet-tree.jsonl: record 1: join ")
    assert lines[1] == "differ: random-4/nnet-tree.nex: bytes differ"
    nexus = "circular-4/nnet-nnls.nex"
    matrix = (a / nexus).read_text().splitlines()
    first = matrix.index("MATRIX") + 1
    largest = max(float(row.split(" \t ")[1]) for row in matrix[first:matrix.index(";", first)])

    def weight_edit(change):
        def edit(row):
            index, weight, members = row.split(" \t ")
            return " \t ".join([index, repr(change(float(weight))), members])
        return edit

    edited(nexus, weight_edit(lambda w: w + 1e-13 * largest), line=first)
    code, out = compare()
    found = re.fullmatch(rf"differ: {nexus}: only MATRIX weights differ, by at most ([0-9.e-]+) of the largest weight\n", out)
    assert code == 1 and found and math.isclose(float(found[1]), 1e-13, rel_tol=1e-2)
    edited(nexus, lambda row: row.rstrip(",\n") + " 9,\n", line=first)
    assert compare() == (1, f"differ: {nexus}: bytes differ\n")
    edited(nexus, weight_edit(lambda w: 2 * w), line=first)
    edited(nexus, lambda line: line.rstrip("\n") + " \n", fresh=False)
    assert compare() == (1, f"differ: {nexus}: bytes differ\n")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_and_compares_the_gap_with_the_parents_spread():
    bench_pairs = load_script("bench_pairs")
    spec = [{"name": "wall_s", "unit": "s", "better": "lower"}, {"name": "hits", "unit": "count", "better": "higher"}]
    parent = [1.00, 1.10, 0.90, 1.02, 0.98]
    change = [0.90, 1.00, 0.85, 0.91, 0.99]
    pairs = [({"wall_s": p, "hits": 10}, {"wall_s": c, "hits": 10 + k % 2}) for k, (p, c) in enumerate(zip(parent, change))]
    wall, hits = bench_pairs.summarize(pairs, spec)
    assert (wall["parent"], wall["change"], wall["won"], wall["pairs"]) == (1.00, 0.91, 4, 5)
    assert (wall["q1"], wall["q3"]) == pytest.approx((0.98, 1.02))
    assert wall["clear"]  # 0.09 apart, against an interquartile range of 0.04
    assert (hits["won"], hits["clear"]) == (2, False)  # higher is better; medians 10 and 10
    line = bench_pairs.format_row(wall)
    assert line.startswith("wall_s (s): parent 1, change 0.91 (-9.0%); parent quartiles 0.98..1.02; change better in 4/5")
    one = bench_pairs.summarize(pairs[:1], spec)[0]
    assert (one["q1"], one["q3"], one["clear"]) == (1.00, 1.00, True)


def fake_checkout(path, wall, correct=True, code=0):
    """A checkout whose benchmarks/run.py reports wall_s = wall + seed/1000."""
    (path / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    (path / "benchmarks" / "run.py").write_text(f"""if True:
        import json, sys
        seed = int(sys.argv[sys.argv.index("--seed") + 1])
        metrics = {{"wall_s": {wall} + seed / 1000, "setup_s": 0.5, "peak_rss_mb": 50.0}}
        print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": {int(not correct)},
                          "metrics": {{k: {{"value": v, "unit": "x"}} for k, v in metrics.items()}}}}))
        sys.exit({code})
    """)
    return path


def test_bench_pairs_alternates_the_sides_and_fails_on_a_failed_or_incorrect_run(tmp_path):
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 0.9)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    out = run_script("bench_pairs.py", str(parent), str(change), "--workload", "w", "--pairs", "3", "--seconds", "1",
                     "--first-seed", "7")
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:3]] == [
        "pair 1/3, seed 7, parent first", "pair 2/3, seed 8, change first", "pair 3/3, seed 9, parent first"]
    assert lines[3].startswith("wall_s (s): parent 1.008, change 0.908 (-9.9%); parent quartiles 1.0075..1.0085; "
                               "change better in 3/3; gap above")
    assert "setup_s (s): parent 0.5, change 0.5 (+0.0%)" in lines[4] and "better in 0/3; gap within" in lines[4]
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    for broken in (fake_checkout(tmp_path / "incorrect", 0.9, correct=False), fake_checkout(tmp_path / "crash", 0.9, code=1)):
        proc = script_process("bench_pairs.py", str(parent), str(broken), "--workload", "w", "--pairs", "2", "--seconds", "1")
        assert proc.returncode == 1 and proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
