"""Bad input and solver failure: non-finite entries are rejected with a clear
message and exit code 1, and a solver that does not converge exits with 3.
The test-only oracles stay out of the production modules."""
import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from neighbornet import core, weights
from neighbornet.agglomerate import run_neighbor_net
from neighbornet.cli import main
from neighbornet.core import DissimilarityMap
from neighbornet.io import InputError, read_nexus_splits

GOLDEN = Path(__file__).resolve().parent / "golden"


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
])
def test_nexus_reader_rejects_malformed_documents(old, new, message):
    with pytest.raises(InputError, match=message):
        read_nexus_splits(golden_nexus_with(old, new))


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
