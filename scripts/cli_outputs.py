#!/usr/bin/env python3
"""Run a fixed, seeded set of CLI calls against the library under SRC and
write what each call prints and writes into OUTDIR, so that the outputs of
two source trees compare with diff -r.

Usage: python scripts/cli_outputs.py SRC OUTDIR [--max-n 12] [--no-fit-sparse]

SRC is a checkout holding src/neighbornet, or a directory holding
neighbornet. The inputs come from this checkout's benchmarks/gen.py, so
every tree reads the same files: for each n in 4..MAX_N a random float map,
a tie-heavy map of integers 1..3, a circular map with float weights and one
with weights k/100. Each of these gets nnet under every weighting and every
--estimate, nj, tsp, check, estimate (also over an --ordering of n-1 and of
n+1 taxa, an input error) and length, and nnet and tsp with an --alpha
under a weighting other than tree, which is refused as an input error.

Then come the benchmark's inputs at seed 1, which --no-fit-sparse skips:
the four 50-taxon maps of the fit-sparse workload and the fit-dense
workload's 24-taxon circular map plus noise, each through nnet --estimate
nnls with --nexus; the agglomerate workload's 120-taxon map, through nnet
under each weighting with --nexus and --trace; and its 120-city EUC_2D
instance, through tsp and tsp --round tsplib under each weighting, which
runs the exact engine (the tree and original weightings outgrow the
engine's float64 lane and finish on Python ints).

Each of the small maps also goes through nnet --rational, the exact
engine, under every weighting with --trace, so the exact Q and Q-hat
records compare too (the tie maps' integers run in the float64 lane, the
other maps' binary fractions on Python ints), and through nnet --estimate
formula, formula-clamped and nnls with --rational, the exact lambda path.
The script pins one BLAS thread before numpy loads, since float fits may
differ in their last bits with the thread count; so two trees' outputs
compare bit for bit on any machine.

OUTDIR/inputs holds the input files. OUTDIR/<map>/<call>.txt holds a
call's exit code, stdout and stderr, with its Nexus (.nex) and trace
(.jsonl) files beside it. Calls run in-process from OUTDIR with relative paths, so the
printed paths match between trees.
"""
import argparse
import contextlib
import io
import os
import random
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before gen imports numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import gen  # noqa: E402


def maps(max_n: int, fit_sparse: bool):
    """(name, rows) for every PHYLIP input map, or (name, points) for the
    EUC_2D instance, in a fixed order."""
    for n in range(4, max_n + 1):
        rng = random.Random(f"cli-outputs/{n}")
        yield f"random-{n}", gen.random_map(rng, n)
        ties = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                ties[i][j] = ties[j][i] = rng.randint(1, 3)
        yield f"ties-{n}", ties
        for kind, exact in (("circular", False), ("circular-hundredths", True)):
            order, weights = gen.circular_weights(rng, n, exact=exact)
            yield f"{kind}-{n}", gen.circular_metric(order, weights)
    if fit_sparse:
        for k in range(4):  # as benchmarks/workloads.py builds them at seed 1
            yield f"fit-sparse-{k}", gen.random_map(random.Random(f"1/sparse{k}/50"), 50)
        rng = random.Random("1/dense/24")
        order, weights = gen.circular_weights(rng, 24, exact=False)
        yield "fit-dense", gen.perturb(rng, gen.circular_metric(order, weights), 0.4 * min(weights.values()))
        yield "agglomerate-map", gen.random_map(random.Random("1/map/120"), 120)
        yield "agglomerate-points", gen.euc2d_points(random.Random("1/points/120"), 120)


def calls(phy: str, n: int, name: str):
    """(call name, argv, whether it takes --nexus, whether it takes --trace)
    for the input file phy of map name."""
    if name.startswith("fit-"):
        yield "nnet-nnls", ["nnet", phy, "--estimate", "nnls"], True, False
        return
    if name == "agglomerate-map":
        for weighting in ("balanced-tsp", "tree", "original"):
            yield f"nnet-{weighting}", ["nnet", phy, "--weighting", weighting], True, True
        return
    if name == "agglomerate-points":
        yield "tsp", ["tsp", phy], False, False
        yield "tsp-tsplib", ["tsp", phy, "--round", "tsplib"], False, False
        for weighting in ("tree", "original"):
            yield f"tsp-tsplib-{weighting}", ["tsp", phy, "--round", "tsplib", "--weighting", weighting], False, False
        return
    taxa = [f"t{k}" for k in range(n)]
    for weighting in ("balanced-tsp", "tree", "original"):
        yield f"nnet-{weighting}", ["nnet", phy, "--weighting", weighting], True, True
    yield "nnet-tree-0.3", ["nnet", phy, "--weighting", "tree", "--alpha", "0.3"], True, True
    for weighting in ("balanced-tsp", "original"):  # --alpha outside the tree weighting: exit 1
        yield f"nnet-{weighting}-0.3", ["nnet", phy, "--weighting", weighting, "--alpha", "0.3"], True, True
        yield f"tsp-{weighting}-0.3", ["tsp", phy, "--weighting", weighting, "--alpha", "0.3"], False, False
    for weighting in ("balanced-tsp", "tree", "original"):
        yield f"nnet-{weighting}-rational", ["nnet", phy, "--weighting", weighting, "--rational"], False, True
    for estimate in ("formula", "formula-clamped", "nnls"):
        yield f"nnet-{estimate}", ["nnet", phy, "--estimate", estimate], True, False
    for estimate in ("formula", "formula-clamped", "nnls"):
        yield f"nnet-{estimate}-rational", ["nnet", phy, "--estimate", estimate, "--rational"], True, False
    for alpha in ("0.5", "0.3"):
        yield f"nj-{alpha}", ["nj", phy, "--alpha", alpha], False, False
    for weighting in ("balanced-tsp", "tree", "original"):
        yield f"tsp-{weighting}", ["tsp", phy, "--weighting", weighting], False, False
    yield "check", ["check", phy], False, False
    yield "check-identity", ["check", phy, "--ordering", ",".join(taxa)], False, False
    for method in ("formula", "formula-clamped", "nnls"):
        yield f"estimate-{method}", ["estimate", phy, "--method", method], False, False
        yield f"estimate-{method}-identity", ["estimate", phy, "--method", method, "--ordering", ",".join(taxa)], True, False
        for kind, wrong in (("short", taxa[:-1]), ("long", taxa + [str(n)])):  # n-1 and n+1 taxa: exit 1
            yield f"estimate-{method}-{kind}", ["estimate", phy, "--method", method, "--ordering", ",".join(wrong)], False, False
    blocks = "|".join(",".join(taxa[k:k + 2]) for k in range(0, n, 2))
    yield "length", ["length", phy, "--blocks", blocks], False, False
    yield "length-rational", ["length", phy, "--blocks", blocks, "--rational"], False, False


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=Path)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--no-fit-sparse", action="store_true")
    args = parser.parse_args()

    src = args.src.resolve()
    if (src / "src" / "neighbornet").is_dir():
        src = src / "src"
    sys.path.insert(0, str(src))
    from neighbornet import cli

    if Path(cli.__file__).resolve().parent != src / "neighbornet":
        sys.exit(f"error: imported neighbornet from {cli.__file__}, not from {src}")
    (args.outdir / "inputs").mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)
    count = 0
    for name, rows in maps(args.max_n, not args.no_fit_sparse):
        points = name == "agglomerate-points"
        path = f"inputs/{name}.tsp" if points else f"inputs/{name}.phy"
        Path(path).write_text(gen.tsplib_text(rows) if points else gen.phylip_text(rows))
        Path(name).mkdir(exist_ok=True)
        for call, argv, nexus, trace in calls(path, len(rows), name):
            stem = f"{name}/{call}"
            argv = argv + (["--nexus", f"{stem}.nex"] if nexus else []) + (["--trace", f"{stem}.jsonl"] if trace else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            Path(f"{stem}.txt").write_text(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
            count += 1
    print(f"{count} calls written to {args.outdir}")


if __name__ == "__main__":
    main()
