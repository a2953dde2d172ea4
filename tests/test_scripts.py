"""Smoke tests for scripts/: each runs in a fresh interpreter, exits 0 and
prints its key lines."""
import json
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

    def compare(other=b):
        proc = script_process("compare_outputs.py", str(a), str(other))
        assert "Traceback" not in proc.stderr
        return proc.returncode, proc.stdout + proc.stderr

    def edited(name, edit, fresh=True):
        if fresh:
            shutil.rmtree(b, ignore_errors=True)
            shutil.copytree(a, b)
        path = b / name
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = edit(lines[1])
        path.write_text("".join(lines))

    def record_edit(key, change):
        def edit(line):
            record = json.loads(line)
            record[key] = change(record[key])
            return json.dumps(record) + "\n"
        return edit

    code, out = compare(a)
    assert code == 0 and re.fullmatch(r"\d+ files agree; 0 q/q_hat values differ, largest relative difference 0\n", out)
    edited("random-4/nnet-tree.jsonl", record_edit("q", lambda q: q * (1 + 1e-13)))
    code, out = compare()
    assert code == 0 and re.fullmatch(r"\d+ files agree; 1 q/q_hat values differ, largest relative difference [0-9.e-]+\n", out)
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
