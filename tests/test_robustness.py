"""Bad input and solver failure: non-finite entries are rejected with a clear
message and exit code 1, and a solver that does not converge exits with 3."""
import math
from fractions import Fraction
from pathlib import Path

import pytest

from neighbornet import core, weights
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


def test_cli_reports_solver_non_convergence(tmp_path, capsys, monkeypatch):
    def diverge(a, b, max_iter=None, tol=weights.KKT_TOL):
        raise weights.NonConvergence("NNLS did not converge within 3 iterations")

    monkeypatch.setattr(weights, "nnls", diverge)
    path = write_phylip(tmp_path / "map.phy", ROWS)
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

