"""Smoke tests for scripts/: each runs in a fresh interpreter, exits 0 and
prints its key lines."""
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
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
