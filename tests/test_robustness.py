"""Bad input and solver failure: non-finite entries are rejected with a clear
message and exit code 1, and a solver that does not converge exits with 3.
Each refusal names its cause. The test-only oracles stay out of the
production modules."""
import ast
import io
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import neighbornet
from neighbornet import core, weights
from neighbornet.agglomerate import BalancedTSP, OriginalBM, TreeWeighting, run_neighbor_net
from neighbornet.cli import main
from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    PartialCircularOrdering,
    Split,
    WeightedSplitSystem,
)
from neighbornet.io import InputError, read_nexus_splits, write_nexus
from neighbornet.length import balanced_length
from neighbornet.oracle import join_paths, merged_at, radius_perturbation_check
from neighbornet.tsp import read_tsplib_euc2d, tour_length

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("rows, at", [
    ([[0, 1 + 5j], [1 + 5j, 0]], (0, 0)),
    ([[Fraction(0), Fraction(1), 2 + 0j], [Fraction(1), 0, "3"], [2 + 0j, "3", 0]], (0, 2)),
    ([[Fraction(0), Fraction(1), 2], [Fraction(1), 0, "3"], [2, "3", 0]], (1, 2)),
    ([["0", "2.5"], ["2.5", "0"]], (0, 0)),
    ([[0, None], [None, 0]], (0, 1)),
    ([[0.0, math.inf, None], [math.inf, 0.0, 1.0], [None, 1.0, 0.0]], (0, 2)),
], ids=["complex-dtype", "complex-among-fractions", "str-among-fractions", "str-dtype", "none", "before-non-finite"])
def test_map_rejects_entries_that_are_not_real_numbers(rows, at):
    for exact in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning: nothing is cast
            with pytest.raises(ValueError, match=r"^entry at \({},{}\) is not a real number$".format(*at)):
                DissimilarityMap(rows, exact=exact)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_map_rejects_non_finite_entries(bad):
    rows = [[0.0, 1.0, 2.0], [1.0, 0.0, bad], [2.0, bad, 0.0]]
    with pytest.raises(ValueError, match=r"non-finite entry at \(1,2\)"):
        DissimilarityMap(rows)
    with pytest.raises(ValueError, match=r"non-finite entry at \(1,2\)"):
        DissimilarityMap(rows, exact=True)


def test_nan_is_not_reported_as_asymmetry():
    with pytest.raises(ValueError, match="non-finite entry at \\(0,1\\)"):
        DissimilarityMap([[0.0, math.nan], [1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite entry at \\(1,1\\)"):
        DissimilarityMap([[0.0, 1.0], [1.0, math.nan]])


@pytest.mark.parametrize("scheme", [BalancedTSP(), TreeWeighting(), OriginalBM()], ids=["balanced-tsp", "tree", "original"])
@pytest.mark.parametrize("n", [4, 10])
def test_agglomeration_values_stay_finite_at_the_map_bound(n, scheme):
    # the map accepts entries up to float max / n^2; every recorded criterion
    # value must stay finite there, or a trace would hold inf or NaN
    limit = float(np.finfo(float).max) / (n * n)
    rng = np.random.default_rng(n)
    for top in (np.full((n, n), limit), rng.uniform(0.5, 1.0, (n, n)) * limit):
        top = np.triu(top, 1)
        result = run_neighbor_net(DissimilarityMap(top + top.T), scheme)
        values = [(step.q_value, step.q_hat_value) for step in result.trace.steps]
        assert len(values) == n - 1 and np.isfinite(values).all()


def test_is_exact_is_decided_at_construction(monkeypatch):
    exact = DissimilarityMap([[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
    mixed = DissimilarityMap([[0, 1.5], [1.5, 0]])
    converted = DissimilarityMap([[0, 1.5], [1.5, 0]], exact=True)

    def no_rescan(x):
        raise AssertionError("is_exact rescanned the entries")

    monkeypatch.setattr(core, "is_exact_number", no_rescan)
    assert exact.is_exact and converted.is_exact
    assert not mixed.is_exact


def write_phylip(path, rows):
    labels = [f"t{k}" for k in range(len(rows))]
    lines = [str(len(rows))] + [
        label + " " + " ".join(str(v) for v in row) for label, row in zip(labels, rows)
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


ROWS = [
    [0, 3, 4, 5, 4],
    [3, 0, 3, 4, 5],
    [4, 3, 0, 3, 4],
    [5, 4, 3, 0, 3],
    [4, 5, 4, 3, 0],
]


@pytest.mark.parametrize("token", ["inf", "nan"])
def test_cli_rejects_non_finite_phylip_entry(tmp_path, capsys, token):
    rows = [list(r) for r in ROWS]
    rows[1][3] = rows[3][1] = token
    path = write_phylip(tmp_path / "bad.phy", rows)
    for argv in (["nnet", path], ["nnet", path, "--estimate", "nnls"], ["check", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: non-finite entry at (1,3)" in err
        assert "Traceback" not in err


def test_cli_rejects_nan_on_the_diagonal(tmp_path, capsys):
    rows = [list(r) for r in ROWS]
    rows[2][2] = "nan"
    assert main(["nnet", write_phylip(tmp_path / "bad.phy", rows)]) == 1
    assert "nonzero diagonal for t2" in capsys.readouterr().err


# Some lambda is negative under this map's neighbor-net ordering, so an nnls
# fit of it runs the active set.
NEGATIVE_LAMBDA_ROWS = [
    [0, 6, 3, 6, 3],
    [6, 0, 4, 3, 2],
    [3, 4, 0, 6, 4],
    [6, 3, 6, 0, 6],
    [3, 2, 4, 6, 0],
]


def test_cli_reports_solver_non_convergence(tmp_path, capsys, monkeypatch):
    d = DissimilarityMap(NEGATIVE_LAMBDA_ROWS)
    assert min(weights.lambda_formula(d, run_neighbor_net(d).ordering).values()) < 0

    def diverge(a, b, max_iter=None):
        raise weights.NonConvergence("NNLS did not converge within 3 iterations")

    monkeypatch.setattr(weights, "nnls", diverge)
    path = write_phylip(tmp_path / "map.phy", NEGATIVE_LAMBDA_ROWS)
    assert main(["nnet", path, "--estimate", "nnls"]) == 3
    err = capsys.readouterr().err
    assert "error: solver did not converge: NNLS did not converge within 3 iterations" in err
    assert "internal error" not in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_split_system_rejects_non_finite_weights(bad):
    s = core.Split.of({2, 3}, 4)
    with pytest.raises(ValueError, match=r"non-finite weight for Split\(0,1\|2,3\)"):
        core.WeightedSplitSystem(4, {core.Split.of({1}, 4): 1.0, s: bad})


@pytest.mark.parametrize("bad", ["1", 1 + 2j, None])
def test_split_system_rejects_weights_that_are_not_real_numbers(bad):
    s = core.Split.of({2, 3}, 4)
    with pytest.raises(ValueError, match=r"^weight for Split\(0,1\|2,3\) is not a real number: "):
        core.WeightedSplitSystem(4, {core.Split.of({1}, 4): 1.0, s: bad})


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_nexus_reader_rejects_non_finite_weights(token):
    text = (GOLDEN / "single_split.nex").read_text()
    assert "\t 1.0 \t" in text
    with pytest.raises(InputError, match=r"non-finite weight for Split\(0,1\|2,3\)"):
        read_nexus_splits(text.replace("\t 1.0 \t", f"\t {token} \t"))



def golden_nexus_with(old, new):
    text = (GOLDEN / "single_split.nex").read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("old,new,message", [
    ("\t 3 4,", "\t 3 9,", r"taxon 9 in a MATRIX line is outside 1\.\.4"),
    ("\t 3 4,", "\t 0 3,", r"taxon 0 in a MATRIX line is outside 1\.\.4"),
    ("\t 3 4,", "\t 3 3 4,", "repeated taxon in a MATRIX line"),
    ("\t 3 4,", "\t 3 x,", "non-integer taxon in a MATRIX line"),
    ("\t 1.0 \t", "\t abc \t", "non-numeric split weight 'abc'"),
    ("[1, size=2] \t 1.0 \t 3 4,", "[1, size=0],", "empty MATRIX line"),
    ("\t 3 4,", "\t ,", "nonempty proper subset"),
    ("\t 3 4,", "\t 1 2 3 4,", "nonempty proper subset"),
    ("CYCLE 1 2 3 4;", "CYCLE 1 2 3;", "CYCLE lists 3 taxa, expected all 4"),
    ("CYCLE 1 2 3 4;", "CYCLE 1 2 3 5;", r"taxon 5 in CYCLE is outside 1\.\.4"),
    ("CYCLE 1 2 3 4;", "CYCLE 1 2 3 3;", "repeated taxon in CYCLE"),
    ("ntax=4 nsplits", "ntax=four nsplits", "bad taxon count"),
    ("\t 3 4,", "\t 3 4,\n[2, size=2] \t 9.0 \t 3 4,", r"Split\(0,1\|2,3\) listed twice in MATRIX"),
    ("\t 3 4,", "\t 3 4,\n[2, size=2] \t 9.0 \t 1 2,", r"Split\(0,1\|2,3\) listed twice in MATRIX"),
    ("[4] 'D'\n", "", "label count mismatch"),
    ("[4] 'D'\n", "[4] 'D'\n[5] 'E'\n", "label count mismatch"),
    ("#nexus\n", "#nexus\nMATRIX\n[1, size=2] \t 1.0 \t 3 4,\n;\n", "SPLITS matrix before DIMENSIONS"),
    ("ntax=4 nsplits=1", "ntax=4 nsplits=one", "bad split count 'nsplits=one'"),
    ("[1, size=2] \t 1.0 \t 3 4,\n", "", "MATRIX holds 0 lines, DIMENSIONS declares nsplits=1"),
    ("\t 3 4,", "\t 3 4,\n[2, size=1] \t 0.0 \t 4,", "MATRIX holds 2 lines, DIMENSIONS declares nsplits=1"),
    (",\n;\nEND; [Splits]\n", ",\n", "MATRIX is not closed"),
])
def test_nexus_reader_rejects_malformed_documents(old, new, message):
    with pytest.raises(InputError, match=message):
        read_nexus_splits(golden_nexus_with(old, new))


@pytest.mark.parametrize("splits_block, message", [
    ("BEGIN Splits;\nMATRIX\n;\nEND;", "missing DIMENSIONS ntax"),
    ("BEGIN Splits;\nDIMENSIONS nsplits=0;\nMATRIX\n;\nEND;", "missing DIMENSIONS ntax"),
    ("BEGIN Splits;\nDIMENSIONS ntax=2 nsplits=0;\nCYCLE 1 2;\nMATRIX\n;\nEND;", r"circular orderings need n >= 3"),
])
def test_nexus_reader_rejects_documents_without_a_usable_taxon_count(splits_block, message):
    with pytest.raises(InputError, match=message):
        read_nexus_splits(f"#nexus\n\n{splits_block}\n")


LINE4 = DissimilarityMap([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
TRIVIAL3 = Split.of([1], 3)


@pytest.mark.parametrize("refused, message", [
    (lambda: DissimilarityMap([]), "dissimilarity map needs at least one taxon"),
    (lambda: DissimilarityMap.from_integer_form(np.zeros((0, 0), dtype=np.int64), 1),
     "dissimilarity map needs at least one taxon"),
    (lambda: Split(4, frozenset({1})), "stored block must contain taxon 0"),
    (lambda: Split(3, frozenset({0, 1, 2})), "block must be a proper subset"),
    (lambda: WeightedSplitSystem(4, {TRIVIAL3: 1.0}), "split taxon count mismatch"),
    (lambda: WeightedSplitSystem(4, {}).weight(TRIVIAL3), "split taxon count mismatch"),
    (lambda: PartialCircularOrdering([]), "empty partial ordering"),
    (lambda: PartialCircularOrdering([[0, 1], [], [2]]), "empty block"),
    (lambda: merged_at((5, 6, 7), 1, 1, 9), "r and s must differ"),
    (lambda: join_paths((0, 1), (2, 3), 1, 9), "9 is not an endpoint of the second path"),
    (lambda: write_nexus(WeightedSplitSystem(4, {}), ["a", "b", "c"], fh=io.StringIO()), "label count mismatch"),
    (lambda: radius_perturbation_check(WeightedSplitSystem(4, {}), [[0] * 4] * 4), "system has no splits"),
    (lambda: balanced_length(LINE4, PartialCircularOrdering([[0], [1], [2]])), "taxon count mismatch"),
    (lambda: tour_length(LINE4, CircularOrdering(range(3))), "taxon count mismatch"),
    (lambda: read_tsplib_euc2d("NAME: x\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n1 0 0\n2 1 1\n3 2 2\nEOF\n"),
     "malformed header: missing NODE_COORD_SECTION"),
], ids=["empty-map", "empty-integer-form", "block-without-0", "whole-block", "system-over-other-n",
        "weight-over-other-n", "no-blocks", "empty-block", "merge-with-itself", "not-an-endpoint",
        "nexus-labels", "radius-of-nothing", "balanced-length-over-other-n", "tour-over-other-n",
        "tsplib-without-coordinates"])
def test_each_refusal_names_its_cause(refused, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        refused()


def test_the_test_rigs_live_in_the_oracle_alone():
    rigs = {"all_circular_splits", "clamp_nonnegative", "radius_perturbation_check"}
    package = Path(core.__file__).resolve().parent
    defined = {p.name: rigs & {node.name for node in ast.walk(ast.parse(p.read_text()))
                               if isinstance(node, ast.FunctionDef)} for p in package.glob("*.py")}
    assert {name: found for name, found in defined.items() if found} == {"oracle.py": rigs}
    assert not rigs & set(dir(neighbornet))


def test_library_import_does_not_load_scipy():
    """scipy and neighbornet.oracle are test-only oracles; the CLI must not
    pay for importing them."""
    probe = "import sys, neighbornet.cli; print('scipy' in sys.modules, 'neighbornet.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def oracle_imports(tree):
    """Line numbers of the imports of neighbornet.oracle anywhere in a module,
    inside functions too, absolute or relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = node.module if node.level == 0 else ".".join(filter(None, ["neighbornet", node.module]))
            names = [package] + [f"{package}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "neighbornet.oracle" or name.startswith("neighbornet.oracle.") for name in names):
            yield node.lineno


def test_no_production_module_imports_the_oracle():
    package = Path(core.__file__).resolve().parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "oracle.py"]
    assert len(modules) > 5
    found = {p.name: lines for p in modules if (lines := list(oracle_imports(ast.parse(p.read_text()))))}
    assert found == {}
