"""The benchmark's workloads: seeded inputs, job lists and output checks.

Each workload is a fixed list of jobs run back to back, one at a time, in one
process (a closed loop with a single client). CLI jobs go through
neighbornet.cli.main in-process, the path a CLI user takes; the exact
pipeline calls the library, because exact Fraction inputs are a library
feature.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

from neighbornet import agglomerate, cli, core, kalmanson, weights

import checks
import gen
import timing

# workload -> (n, n of the small warm-up run); BENCHMARK.json says why each exists
SIZES = {
    "agglomerate": (120, 12),
    "fit-dense": (24, 8),
    "fit-sparse": (50, 10),
    "recover-exact": (40, 8),
}
SPARSE_INSTANCES = 4

# The calibration kernels of each workload (timing.py): the kinds of work
# the workload does at the commit that added the benchmark. Dense LAPACK
# slows least in the machine's slow phases, so fit-dense is calibrated by a
# solve alone; the interpreted kernels would over-correct it. A change that
# moves work between interpreted code and BLAS no longer matches its kernels
# and is judged with a bias; see README, "Noise".
KERNELS = {
    "agglomerate": (timing.loops, timing.small_lstsq, timing.objects),
    "fit-dense": (timing.big_lstsq,),
    "fit-sparse": (timing.loops, timing.small_lstsq, timing.objects, timing.big_lstsq),
    "recover-exact": (timing.loops, timing.small_lstsq, timing.objects),
}


@dataclass
class Job:
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], int]  # raises CheckFailed; returns bytes the job wrote


def _rng(seed: int, what: str, n: int) -> random.Random:
    return random.Random(f"{seed}/{what}/{n}")


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_job(kind: str, argv: list, outputs: list, check) -> Job:
    """A CLI job. check(result, texts) gets the text of each output file;
    the files are removed after the check so a later run cannot pass on
    stale output."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def verify(result):
        texts = []
        try:
            checks.check_exit(result["code"], result["stderr"])
            for path in outputs:
                if not os.path.exists(path):
                    checks.fail(f"{os.path.basename(path)} was not written")
                with open(path) as fh:
                    texts.append(fh.read())
            check(result, texts)
        finally:
            for path in outputs:
                if os.path.exists(path):
                    os.remove(path)
        return len(result["stdout"].encode()) + sum(len(t.encode()) for t in texts)

    return Job(kind, run, verify)


def _agglomerate(seed: int, n: int, workdir: str) -> list:
    phy = _write(os.path.join(workdir, "map.phy"), gen.phylip_text(gen.random_map(_rng(seed, "map", n), n)))
    points = gen.euc2d_points(_rng(seed, "points", n), n)
    tsp = _write(os.path.join(workdir, "points.tsp"), gen.tsplib_text(points))

    def check(result, texts):
        checks.check_tree_output(texts[0], texts[1], result["stdout"], n)

    jobs = []
    for scheme in ("balanced-tsp", "tree", "original"):
        nex = os.path.join(workdir, f"{scheme}.nex")
        trace = os.path.join(workdir, f"{scheme}.jsonl")
        argv = ["nnet", phy, "--weighting", scheme, "--nexus", nex, "--trace", trace]
        jobs.append(_cli_job(f"nnet-{scheme}", argv, [nex, trace], check))
    jobs.append(_cli_job("tsp", ["tsp", tsp], [], lambda result, texts: checks.check_tsp_output(result["stdout"], points)))
    return jobs


def _fit(seed: int, n: int, workdir: str, dense: bool) -> list:
    """One dense job, or SPARSE_INSTANCES sparse ones: the NNLS support size,
    and with it the solve time, varies by about 15% between random maps, so
    the sparse workload averages several maps per seed."""
    jobs = []
    for k in range(1 if dense else SPARSE_INSTANCES):
        if dense:
            rng = _rng(seed, "dense", n)
            order, arc_weights = gen.circular_weights(rng, n, exact=False)
            rows = gen.circular_metric(order, arc_weights)
            rows = gen.perturb(rng, rows, 0.4 * min(arc_weights.values()))
            hidden, kind = order, "nnls-dense"
        else:
            rows = gen.random_map(_rng(seed, f"sparse{k}", n), n)
            hidden, kind = None, f"nnls-sparse-{k}"
        phy = _write(os.path.join(workdir, f"{kind}.phy"), gen.phylip_text(rows))
        nex = os.path.join(workdir, f"{kind}.nex")

        def check(result, texts, rows=rows, hidden=hidden):
            checks.check_fit_output(texts[0], rows, weights.KKT_TOL, hidden)

        jobs.append(_cli_job(kind, ["nnet", phy, "--estimate", "nnls", "--nexus", nex], [nex], check))
    return jobs


def _recover_exact(seed: int, n: int, workdir: str) -> list:
    order, arc_weights = gen.circular_weights(_rng(seed, "exact", n), n, exact=True)
    hidden = {gen.arc_side(order, arc): w for arc, w in arc_weights.items()}
    system = core.WeightedSplitSystem(n, {core.Split.of(side, n): w for side, w in hidden.items()})
    oracle = gen.circular_metric(order, arc_weights)

    def run():
        d = core.metric_from_splits(system)
        ordering = agglomerate.run_neighbor_net(d).ordering
        return {
            "metric": d,
            "ordering": ordering,
            "kalmanson": kalmanson.is_kalmanson(d, ordering),
            "lambda": weights.lambda_formula(d, ordering),
        }

    def check(out):
        checks.check_recovery(out, order, hidden, oracle)
        return 0

    return [Job("recover", run, check)]


def build(workload: str, seed: int, n: int, workdir: str) -> list:
    """Generate the workload's inputs at size n under workdir; returns its jobs."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "agglomerate":
        return _agglomerate(seed, n, workdir)
    if workload == "fit-dense":
        return _fit(seed, n, workdir, dense=True)
    if workload == "fit-sparse":
        return _fit(seed, n, workdir, dense=False)
    if workload == "recover-exact":
        return _recover_exact(seed, n, workdir)
    raise ValueError(f"unknown workload {workload!r}")
