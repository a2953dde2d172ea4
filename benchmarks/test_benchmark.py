"""Tests of the benchmark itself: seeded inputs, the oracles, each output check
rejecting a corrupted output, and the tracer.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import neighbornet  # noqa: E402
from neighbornet import cli, core, weights  # noqa: E402


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return out.getvalue()


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def texts(seed, sub):
        workloads.build("agglomerate", seed, 9, str(tmp_path / sub))
        return [(tmp_path / sub / f).read_text() for f in ("map.phy", "points.tsp")]

    assert texts(3, "a") == texts(3, "b")
    assert texts(3, "a") != texts(4, "c")


def test_circular_metric_matches_the_library():
    order, arc_weights = gen.circular_weights(random.Random(1), 9, exact=True)
    system = core.WeightedSplitSystem(
        9, {core.Split.of(gen.arc_taxa(order, arc), 9): w for arc, w in arc_weights.items()}
    )
    d = core.metric_from_splits(system)
    assert gen.circular_metric(order, arc_weights) == [list(r) for r in d.rows]


def test_arc_sums_is_the_transposed_design_matrix():
    rng = random.Random(2)
    n = 8
    cycle = list(range(n))
    rng.shuffle(cycle)
    rows = gen.random_map(rng, n)
    design = weights.DesignMatrix.for_ordering(core.CircularOrdering(cycle))
    expected = dict(zip((frozenset(s.other) for s in design.splits), design.as_array().T @ design.rhs(core.DissimilarityMap(rows))))
    got = checks.arc_sums(cycle, rows)
    for arc, value in zip(gen.arcs(n), got):
        assert value == pytest.approx(expected[gen.arc_side(cycle, arc)])


def test_tree_check_rejects_corrupted_output(tmp_path):
    n = 10
    phy = tmp_path / "m.phy"
    phy.write_text(gen.phylip_text(gen.random_map(random.Random(5), n)))
    stdout = cli_run(["nnet", phy, "--nexus", tmp_path / "o.nex", "--trace", tmp_path / "o.jsonl"])
    nexus, trace = (tmp_path / "o.nex").read_text(), (tmp_path / "o.jsonl").read_text()
    checks.check_tree_output(nexus, trace, stdout, n)
    lines = nexus.splitlines()
    matrix = [k for k, ln in enumerate(lines) if ln.startswith("[") and "size=" in ln]
    dropped = "\n".join(ln for k, ln in enumerate(lines) if k != matrix[-1])
    cycle = [int(t) for t in next(ln for ln in lines if ln.startswith("CYCLE"))[6:-1].split()]
    crossing = nexus.replace(lines[matrix[0]], f"[1, size=2] \t 1.0 \t {cycle[1]} {cycle[3]},")
    rejects(checks.check_tree_output, dropped, trace, stdout, n)
    rejects(checks.check_tree_output, crossing, trace, stdout, n)
    rejects(checks.check_tree_output, nexus, trace.split("\n", 1)[1], stdout, n)
    rejects(checks.check_tree_output, nexus, trace.replace("{", "[", 1), stdout, n)
    order = stdout.splitlines()[0].split()
    swapped = " ".join(order[:1] + [order[2], order[1]] + order[3:])
    rejects(checks.check_tree_output, nexus, trace, stdout.replace(" ".join(order), swapped), n)


def test_tsp_check_rejects_corrupted_output(tmp_path):
    points = gen.euc2d_points(random.Random(6), 9)
    path = tmp_path / "p.tsp"
    path.write_text(gen.tsplib_text(points))
    stdout = cli_run(["tsp", path])
    checks.check_tsp_output(stdout, points)
    tour_line, length_line = stdout.splitlines()[:2]
    length = float(length_line.split()[1])
    rejects(checks.check_tsp_output, stdout.replace(length_line, f"length: {length * 1.001:.6g}"), points)
    tour = tour_line.split()[1:]
    rejects(checks.check_tsp_output, stdout.replace(tour_line, "tour: " + " ".join(tour[:-1] + tour[:1])), points)


def fit_output(tmp_path, dense):
    n = 9
    rng = random.Random(7)
    if dense:
        order, arc_weights = gen.circular_weights(rng, n, exact=False)
        rows = gen.perturb(rng, gen.circular_metric(order, arc_weights), 0.4 * min(arc_weights.values()))
    else:
        order, rows = None, gen.random_map(rng, n)
    phy = tmp_path / "f.phy"
    phy.write_text(gen.phylip_text(rows))
    cli_run(["nnet", phy, "--estimate", "nnls", "--nexus", tmp_path / "f.nex"])
    return (tmp_path / "f.nex").read_text(), rows, order


@pytest.mark.parametrize("dense", [True, False])
def test_fit_check_rejects_corrupted_output(tmp_path, dense):
    nexus, rows, hidden = fit_output(tmp_path, dense)
    checks.check_fit_output(nexus, rows, weights.KKT_TOL, hidden)
    lines = nexus.splitlines()
    k, line = next((k, ln) for k, ln in enumerate(lines) if "size=" in ln and float(ln.split("\t")[1]) > 0)
    weight = line.split("\t")[1].strip()
    for bad in (f"-{weight}", repr(float(weight) * 1.01)):
        corrupted = "\n".join(lines[:k] + [line.replace(weight, bad)] + lines[k + 1:])
        rejects(checks.check_fit_output, corrupted, rows, weights.KKT_TOL, hidden)
    if hidden is not None:
        wrong = hidden[1:] + hidden[:1]
        wrong[0], wrong[1] = wrong[1], wrong[0]
        rejects(checks.check_fit_output, nexus, rows, weights.KKT_TOL, wrong)


def test_recovery_check_rejects_corrupted_output(tmp_path):
    (job,) = workloads.build("recover-exact", 8, 8, str(tmp_path))
    out = job.run()
    job.check(out)
    check = job.check

    split = next(iter(out["lambda"]))
    for wrong in (out["lambda"][split] + Fraction(1, 10**9), float(out["lambda"][split])):
        rejects(check, dict(out, **{"lambda": {**out["lambda"], split: wrong}}))
    rejects(check, dict(out, kalmanson=False))
    order = list(out["ordering"].order)
    order[1], order[2] = order[2], order[1]
    rejects(check, dict(out, ordering=core.CircularOrdering(order)))
    rows = [list(r) for r in out["metric"].rows]
    rows[0][1] = rows[1][0] = rows[0][1] + Fraction(1, 100)
    rejects(check, dict(out, metric=core.DissimilarityMap(rows)))


def test_layer_times_subtract_direct_children():
    spans = [
        ["outer", 0.0, 10.0, None, 1],
        ["inner", 1.0, 4.0, 0, 1],
        ["leaf", 2.0, 3.0, 1, 1],
        ["inner", 5.0, 6.0, 0, 1],
        ["outer", 0.0, 2.0, None, 2],
    ]
    times = tracer.layer_times(spans)
    assert times[1]["outer"] == [10.0, 6.0, 1]
    assert times[1]["inner"] == [4.0, 3.0, 2]
    assert times[2]["outer"] == [2.0, 2.0, 1]


def bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "neighbornet" or name.startswith("neighbornet."):
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    for cls in (core.DissimilarityMap, core.WeightedSplitSystem, weights.DesignMatrix):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    out["lstsq"] = np.linalg.lstsq
    return out


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = bindings()
    t = tracer.Tracer()
    t.install(neighbornet)
    assert neighbornet.run_neighbor_net is neighbornet.agglomerate.run_neighbor_net
    assert neighbornet.tsp.run_neighbor_net is neighbornet.cli.run_neighbor_net
    assert neighbornet.kalmanson.run_neighbor_net is not before[("neighbornet.kalmanson", "run_neighbor_net")]
    np.linalg.lstsq(np.eye(2), np.ones(2), rcond=None)
    assert t.counts["weights.nnls_solves"] == 0  # counted only inside weights.nnls
    t.job = 1
    nexus, rows, _ = fit_output(tmp_path, dense=False)
    t.uninstall()
    assert bindings() == before
    names = {span[0] for span in t.spans}
    assert {"cli.main", "agglomerate.run", "weights.nnls", "weights.design", "io.parse", "core.is_exact"} <= names
    assert all(span[4] == 1 for span in t.spans)
    parents = {span[0]: t.spans[span[3]][0] for span in t.spans if span[3] is not None}
    assert parents["weights.nnls"] == "cli.main" and parents["agglomerate.merge"] == "agglomerate.run"
    assert t.counts["weights.nnls_solves"] >= 1
    assert t.counts["agglomerate.q_calls"] > 0
    support = sum(1 for ln in nexus.splitlines() if "size=" in ln and float(ln.split("\t")[1]) > 0)
    assert t.counts["weights.nnls_support"] == support


def test_run_reports_every_metric_and_installs_no_wrappers_untraced(tmp_path, monkeypatch):
    before = bindings()
    installs = []
    monkeypatch.setattr(tracer.Tracer, "install", lambda self, pkg: installs.append(pkg))
    runner = run.Runner("fit-dense", 1, trace=False)
    monkeypatch.setattr(runner, "workdir", tmp_path / "work")
    result = runner.run(0.01)
    assert installs == [] and bindings() == before
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fit-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
