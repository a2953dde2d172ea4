"""Inputs at the edges of the command line: balanced lengths past any
enumeration are answered; two taxa, malformed or non-finite TSPLIB numbers,
--round tsplib on a PHYLIP file and an --ordering over the wrong number of
taxa are input errors (exit 1); so is a negative lambda under the formula
estimate, in words that name no flag the command lacks; a run out of memory
exits 4, not as an internal error; and seeded mutations of PHYLIP and TSPLIB
files never reach an internal error."""
import random
import re

import pytest

from neighbornet import cli
from neighbornet.agglomerate import run_neighbor_net
from neighbornet.cli import main
from neighbornet.io import format_phylip, read_phylip_distances
from neighbornet.tsp import read_tsplib_euc2d
from neighbornet.weights import lambda_formula
from conftest import random_dissimilarity

PHYLIP = """5
A 0 3 4 5 4
B 3 0 3 4 5
C 4 3 0 3 4
D 5 4 3 0 3
E 4 5 4 3 0
"""

TSPLIB = """NAME: toy
TYPE: TSP
DIMENSION: 6
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 1
3 6 0
4 7 4
5 3 6.5
6 -1 4
EOF
"""


def run(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


def all_ones_phylip(path, labels):
    path.write_text(f"{len(labels)}\n" + "".join(
        f"{a} " + " ".join("0" if a == b else "1" for b in labels) + "\n" for a in labels
    ))


def test_length_on_twelve_singletons_needs_no_cap(tmp_path, capsys):
    # 19,958,400 consistent orderings: the closed form never enumerates them
    path = tmp_path / "m.phy"
    labels = [f"t{k}" for k in range(12)]
    all_ones_phylip(path, labels)
    assert main(["length", str(path), "--blocks", "|".join(labels)]) == 0
    assert capsys.readouterr().out == "balanced length: 6\n"


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("block_size", [1, 10])
def test_length_at_two_hundred_taxa(tmp_path, capsys, rational, block_size):
    # an all-ones map has balanced length n/2 over every partial ordering
    path = tmp_path / "m.phy"
    labels = [f"t{k}" for k in range(200)]
    all_ones_phylip(path, labels)
    blocks = "|".join(",".join(labels[k:k + block_size]) for k in range(0, 200, block_size))
    argv = ["length", str(path), "--blocks", blocks] + ["--rational"] * rational
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == ("balanced length: 100 (100)\n" if rational else "balanced length: 100\n")


@pytest.mark.parametrize("blocks", ["A|B", "A,B"])
def test_length_on_two_taxa_is_an_input_error(tmp_path, capsys, blocks):
    path = tmp_path / "two.phy"
    path.write_text("2\nA 0 1\nB 1 0\n")
    code, err = run(capsys, ["length", str(path), "--blocks", blocks])
    assert code == 1
    assert err == "error: circular orderings need n >= 3\n"


@pytest.mark.parametrize("rounding", ["none", "tsplib"])
@pytest.mark.parametrize("x, y, line", [
    ("inf", "0", "3 inf 0"),
    ("0", "-inf", "3 0 -inf"),
    ("nan", "1", "3 nan 1"),
])
def test_non_finite_coordinates_are_input_errors(tmp_path, capsys, rounding, x, y, line):
    text = TSPLIB.replace("3 6 0", f"3 {x} {y}")
    with pytest.raises(ValueError, match=f"non-finite coordinate in line '{line}'"):
        read_tsplib_euc2d(text, rounding=rounding)
    path = tmp_path / "bad.tsp"
    path.write_text(text)
    code, err = run(capsys, ["tsp", str(path), "--round", rounding])
    assert code == 1 and f"error: non-finite coordinate in line '{line}'" in err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("old, new, message", [
    ("DIMENSION: 6", "DIMENSION: 3x", "bad DIMENSION '3x'"),
    ("2 3 1", "2 a 0", "bad coordinate line: '2 a 0'"),
    ("2 3 1", "2 3", "bad coordinate line: '2 3'"),
])
def test_malformed_tsplib_numbers_are_input_errors(tmp_path, capsys, old, new, message):
    text = TSPLIB.replace(old, new)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_tsplib_euc2d(text)
    path = tmp_path / "bad.tsp"
    path.write_text(text)
    assert run(capsys, ["tsp", str(path)]) == (1, f"error: {message}\n")


def test_tsplib_rounding_needs_tsplib_input(tmp_path, capsys):
    phy = tmp_path / "m.phy"
    phy.write_text(PHYLIP)
    assert run(capsys, ["tsp", str(phy), "--round", "tsplib"]) == (1, "error: --round tsplib needs TSPLIB EUC_2D input\n")
    assert run(capsys, ["tsp", str(phy), "--round", "none"]) == (0, "")
    tsp = tmp_path / "toy.tsp"
    tsp.write_text(TSPLIB)
    assert run(capsys, ["tsp", str(tsp), "--round", "tsplib"]) == (0, "")


@pytest.mark.parametrize("method", ["nnls", "formula", "formula-clamped"])
@pytest.mark.parametrize("ordering", ["A,B,C,D", "A,B,C,D,E,5"])
def test_an_ordering_over_other_taxa_is_an_input_error(tmp_path, capsys, method, ordering):
    path = tmp_path / "m.phy"
    path.write_text(PHYLIP)
    code, err = run(capsys, ["estimate", str(path), "--method", method, "--ordering", ordering])
    assert (code, err) == (1, "error: taxon count mismatch\n")


@pytest.mark.parametrize("command", [["nnet", "--estimate", "formula"], ["estimate", "--method", "formula"]])
def test_a_negative_lambda_refusal_names_no_flag_the_command_lacks(tmp_path, capsys, command):
    path = tmp_path / "m.phy"
    path.write_text(format_phylip(random_dissimilarity(random.Random(3), 6), list("ABCDEF")))
    d, _ = read_phylip_distances(path.read_text())
    negatives = sum(v < 0 for v in lambda_formula(d, run_neighbor_net(d).ordering).values())
    assert negatives > 0
    code, err = run(capsys, [command[0], str(path), *command[1:]])
    assert code == 1 and err.startswith(f"error: {negatives} negative weights from the closed formula; ")
    assert "formula-clamped or nnls" in err
    assert set(re.findall(r"--[a-z-]+", err)) <= {command[1]}


@pytest.mark.parametrize("command", [["nnet", "--estimate", "nnls"], ["estimate", "--method", "nnls"]])
def test_running_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, command):
    def allocate(d, ordering):
        raise MemoryError("Unable to allocate 1.87 GiB for an array with shape (44850, 44850) and data type bool")

    monkeypatch.setattr(cli, "nnls_fit", allocate)
    path = tmp_path / "m.phy"
    path.write_text(PHYLIP)
    code, err = run(capsys, [command[0], str(path), *command[1:]])
    assert (code, err) == (4, "error: out of memory: Unable to allocate 1.87 GiB for an array with shape "
                              "(44850, 44850) and data type bool\n")


@pytest.mark.parametrize("rounding", ["none", "tsplib"])
def test_infinite_distances_are_input_errors(tmp_path, capsys, rounding):
    text = TSPLIB.replace("1 0 0", "1 1e308 0").replace("3 6 0", "3 -1e308 0")
    path = tmp_path / "far.tsp"
    path.write_text(text)
    code, err = run(capsys, ["tsp", str(path), "--round", rounding])
    assert code == 1
    assert "error: non-finite distance between '1 1e308 0' and '3 -1e308 0'" in err
    assert "internal error" not in err


@pytest.mark.parametrize("rounding", ["none", "tsplib"])
def test_distances_whose_sums_overflow_are_input_errors(tmp_path, capsys, rounding):
    path = tmp_path / "far.tsp"
    path.write_text(TSPLIB.replace("2 3 1", "2 1e308 1"))
    code, err = run(capsys, ["tsp", str(path), "--round", rounding])
    assert code == 1 and "sums over the map would overflow" in err
    assert "internal error" not in err
    phy = tmp_path / "big.phy"
    phy.write_text("4\n" + "".join(
        f"{a} " + " ".join("0" if a == b else "8e307" for b in "ABCD") + "\n" for a in "ABCD"
    ))
    for argv in (["nnet", str(phy)], ["check", str(phy)], ["length", str(phy), "--blocks", "A,B|C|D"]):
        code, err = run(capsys, argv)
        assert code == 1 and "sums over the map would overflow" in err, (argv, err)


TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-0", "0", "-5", "2.5", "x", "", "1e400", "99999"]
CHARS = "0123456789.-+e :\nx\t"


def mutate(rng, text):
    """One to three random edits: a token swapped for a special one, a
    character inserted or deleted, or a line deleted or duplicated."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            parts = lines[k].split(" ")
            parts[rng.randrange(len(parts))] = rng.choice(TOKENS)
            lines[k] = " ".join(parts)
        elif op == 1:
            p = rng.randrange(len(lines[k]) + 1)
            lines[k] = lines[k][:p] + rng.choice(CHARS) + lines[k][p:]
        elif op == 2 and lines[k]:
            p = rng.randrange(len(lines[k]))
            lines[k] = lines[k][:p] + lines[k][p + 1:]
        elif op == 3:
            del lines[k]
        else:
            lines.insert(k, lines[k])
        text = "\n".join(lines)
    return text


COMMANDS = [["nnet"], ["nnet", "--estimate", "nnls"], ["check"], ["tsp"], ["nj"]]


@pytest.mark.parametrize("name, base, commands", [
    ("phylip", PHYLIP, COMMANDS),
    ("tsplib", TSPLIB, [["tsp"], ["tsp", "--round", "tsplib"], ["nnet"]]),
], ids=["phylip", "tsplib"])
def test_mutated_files_exit_0_or_1(tmp_path, capsys, name, base, commands):
    rng = random.Random(f"fuzz/{name}")
    path = tmp_path / "in.txt"
    codes = set()
    for trial in range(150):
        text = mutate(rng, base)
        path.write_text(text)
        argv = [*commands[trial % len(commands)]]
        argv.insert(1, str(path))
        code, err = run(capsys, argv)
        assert code in (0, 1), (argv, text, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, text, err)
        codes.add(code)
    assert codes == {0, 1}
