"""Inputs at the edges of the command line: balanced lengths past any
enumeration are answered; two taxa, malformed or non-finite TSPLIB numbers,
--round tsplib on a PHYLIP file and an --ordering over the wrong number of
taxa are input errors (exit 1); so is a negative lambda under the formula
estimate, in words that name no flag the command lacks and with nothing on
stdout; a PHYLIP entry past float max/2 meets the map's overflow bound, not
a non-finite sum; a run out of memory
exits 4, not as an internal error, and any other exception a command
raises exits 2 as one; an --n below 3 and an unknown taxon label are input
errors; estimate --nexus writes the file in place of the split list; main
builds one parser per process; and seeded mutations of PHYLIP and TSPLIB
files never reach an internal error. The estimates run from three taxa;
input is read and stdout written as UTF-8 whatever the locale, input with
an optional byte order mark; and check prints nothing before it has checked its input."""
import io
import os
import random
import re
import subprocess
import sys

import pytest

from neighbornet import cli
from neighbornet.agglomerate import run_neighbor_net
from neighbornet.cli import main
from neighbornet.core import CircularOrdering
from neighbornet.io import read_nexus_splits, read_phylip_distances
from neighbornet.tsp import read_tsplib_euc2d
from neighbornet.weights import lambda_formula
from conftest import format_phylip, random_dissimilarity

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


@pytest.mark.parametrize("command", [["nnet", "--estimate", "formula"], ["estimate", "--method", "formula"]])
def test_a_negative_lambda_refusal_leaves_stdout_empty(tmp_path, capsys, command):
    path = tmp_path / "m.phy"
    path.write_text(format_phylip(random_dissimilarity(random.Random(3), 6), list("ABCDEF")))
    assert main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "negative weights from the closed formula" in err


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


@pytest.mark.parametrize("failure", [RuntimeError("a broken invariant"), AssertionError("a broken invariant")])
@pytest.mark.parametrize("argv", [["nnet"], ["estimate"], ["check"]])
def test_an_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch, failure, argv):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "run_neighbor_net", fail)
    monkeypatch.setattr(cli, "find_kalmanson_ordering", fail)
    path = tmp_path / "m.phy"
    path.write_text(PHYLIP)
    assert run(capsys, [argv[0], str(path)]) == (2, "internal error: a broken invariant\n")


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--n", "2"], "error: --n must be >= 3\n"),
    (["estimate", "{path}", "--ordering", "A,B,Z,D,E"], "error: unknown taxon 'Z'\n"),
    (["check", "{path}", "--ordering", "A,B,C,D,x"], "error: unknown taxon 'x'\n"),
    (["length", "{path}", "--blocks", "A,B|C|D|F"], "error: unknown taxon 'F'\n"),
])
def test_bad_counts_and_labels_are_input_errors(tmp_path, capsys, argv, message):
    path = tmp_path / "m.phy"
    path.write_text(PHYLIP)
    assert run(capsys, [a.format(path=path) for a in argv]) == (1, message)


@pytest.mark.parametrize("method", ["nnls", "formula-clamped"])
def test_estimate_writes_nexus_in_place_of_the_split_list(tmp_path, capsys, method):
    path, nexus = tmp_path / "m.phy", tmp_path / "out.nex"
    path.write_text(PHYLIP)
    assert main(["estimate", str(path), "--method", method, "--ordering", "A,B,C,D,E", "--nexus", str(nexus)]) == 0
    assert capsys.readouterr().out == f"nexus written to {nexus}\n"
    labels, cycle, system = read_nexus_splits(nexus.read_text())
    assert labels == list("ABCDE") and cycle == CircularOrdering(range(5)) and len(system) > 0


@pytest.mark.parametrize("command", [["nnet", "--estimate"], ["estimate", "--method"]])
@pytest.mark.parametrize("rows, expected", [
    ("A 0 3 5\nB 3 0 4\nC 5 4 0\n", {
        method: [("2", "{B,C}"), ("3", "{C}"), ("1", "{B}")] for method in ("formula", "formula-clamped", "nnls")
    }),
    # d(A,C) > d(A,B) + d(B,C): the lambda of B is -2.5
    ("A 0 1 5\nB 1 0 1\nC 5 1 0\n", {
        "formula": None, "formula-clamped": [("2.5", "{B,C}"), ("2.5", "{C}")], "nnls": [("2", "{B,C}"), ("2", "{C}")],
    }),
], ids=["metric", "no-triangle"])
@pytest.mark.parametrize("method", ["formula", "formula-clamped", "nnls"])
def test_three_taxa_are_estimated(tmp_path, capsys, command, rows, expected, method):
    path = tmp_path / "three.phy"
    path.write_text("3\n" + rows)
    code = main([command[0], str(path), command[1], method])
    out, err = capsys.readouterr()
    lines = expected[method]
    if lines is None:
        assert (code, err) == (1, "error: 1 negative weights from the closed formula; "
                                  "estimate with formula-clamped or nnls instead\n")
    else:
        assert (code, err) == (0, "")
        assert out.endswith(f"splits ({len(lines)}):\n" + "".join(f"  {w} \t {side}\n" for w, side in lines))


@pytest.mark.parametrize("name, text, argv", [
    ("m.phy", PHYLIP, ["nnet", "--estimate", "nnls"]),
    ("m.phy", PHYLIP, ["estimate", "--method", "formula-clamped"]),
    ("m.phy", PHYLIP, ["check"]),
    ("m.phy", PHYLIP, ["length", "--blocks", "A,B|C|D,E"]),
    ("toy.tsp", TSPLIB, ["tsp", "--round", "tsplib"]),
], ids=["nnet", "estimate", "check", "length", "tsp"])
def test_a_byte_order_mark_is_skipped(tmp_path, capsys, name, text, argv):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    outputs = []
    for folder, encoding in ((plain, "utf-8"), (marked, "utf-8-sig")):
        folder.mkdir()
        (folder / name).write_text(text, encoding=encoding)
        code = main([argv[0], str(folder / name), *argv[1:]])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] == 0 and outputs[0][1].err == ""
    assert outputs[1] == outputs[0]


def test_labels_outside_ascii_are_read_and_written_under_an_ascii_locale(tmp_path):
    path, nexus = tmp_path / "m.phy", tmp_path / "out.nex"
    path.write_text(PHYLIP.replace("A ", "\u00c5 "), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               PYTHONCOERCECLOCALE="0", LC_ALL="C")
    for name in ("PYTHONUTF8", "PYTHONIOENCODING"):
        env.pop(name, None)
    argv = ["estimate", str(path), "--ordering", "0,1,2,3,4", "--nexus", str(nexus)]
    out = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "neighbornet.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    labels, cycle, system = read_nexus_splits(nexus.read_text(encoding="utf-8"))
    assert labels == ["\u00c5", "B", "C", "D", "E"] and cycle == CircularOrdering(range(5)) and len(system) > 0


def test_labels_outside_ascii_are_printed_in_utf8_under_an_ascii_locale(tmp_path):
    """stdout is UTF-8, as the input and Nexus files are, whatever the locale."""
    path, nexus = tmp_path / "ring.phy", tmp_path / "out.nex"
    path.write_text(PHYLIP.replace("A ", "\u00c5 "), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               PYTHONCOERCECLOCALE="0", LC_ALL="C")
    for name in ("PYTHONUTF8", "PYTHONIOENCODING"):
        env.pop(name, None)
    argv = ["nnet", str(path), "--nexus", str(nexus)]
    out = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "neighbornet.cli", *argv],
                         env=env, capture_output=True)
    assert (out.returncode, out.stderr) == (0, b"")
    stdout = out.stdout.decode("utf-8")
    assert stdout.startswith("ordering: \u00c5 ") and stdout.endswith(f"nexus written to {nexus}\n")
    assert read_nexus_splits(nexus.read_text(encoding="utf-8"))[0] == ["\u00c5", "B", "C", "D", "E"]


def test_an_encoding_named_by_pythonioencoding_is_kept_for_stdout(tmp_path):
    path = tmp_path / "ring.phy"
    path.write_text(PHYLIP.replace("A ", "\u00c5 "), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONIOENCODING="latin-1")
    env.pop("PYTHONUTF8", None)
    out = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "neighbornet.cli", "nnet", str(path)],
                         env=env, capture_output=True)
    assert (out.returncode, out.stderr) == (0, b"")
    assert out.stdout.startswith("ordering: \u00c5 ".encode("latin-1"))


def test_main_writes_utf8_to_a_text_stream_and_restores_its_encoding(tmp_path, monkeypatch):
    path = tmp_path / "ring.phy"
    path.write_text(PHYLIP.replace("A ", "\u00c5 "), encoding="utf-8")
    monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="strict")
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["nnet", str(path)]) == 0
    assert (stream.encoding, stream.errors) == ("ascii", "strict")
    stream.flush()
    assert stream.buffer.getvalue().decode("utf-8").startswith("ordering: \u00c5 ")


@pytest.mark.parametrize("text, argv, message", [
    ("2\nA 0 1\nB 1 0\n", [], "error: n >= 3 required\n"),
    (PHYLIP, ["--ordering", "A,B,C,D,x"], "error: unknown taxon 'x'\n"),
], ids=["two-taxa", "unknown-taxon"])
def test_check_prints_nothing_before_its_input_is_checked(tmp_path, capsys, text, argv, message):
    path = tmp_path / "m.phy"
    path.write_text(text)
    assert main(["check", str(path), *argv]) == 1
    assert capsys.readouterr() == ("", message)


def test_main_builds_one_parser_per_process():
    # argparse objects hold reference cycles; a parser per call leaves them to the collector
    probe = """if True:
        from neighbornet import cli
        built = []
        init = cli._Parser.__init__
        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        cli._Parser.__init__ = counted
        codes = cli.main(["nnet", "--bogus"]), cli.main(["enumerate", "--n", "3"])
        print(*codes, built.count("neighbornet"))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "1 0 1"
    assert "error: the following arguments are required: input" in out.stderr


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


def test_a_finite_phylip_entry_past_half_the_float_range_is_reported_by_the_map_bound(tmp_path, capsys):
    # averaging a pair with itself must not overflow to inf: 1e308 + 1e308 does
    big = dict.fromkeys([("A", "B"), ("B", "A")], "1e308")
    phy = tmp_path / "big.phy"
    phy.write_text("4\n" + "".join(
        f"{a} " + " ".join("0" if a == b else big.get((a, b), "1") for b in "ABCD") + "\n" for a in "ABCD"
    ))
    code, err = run(capsys, ["nnet", str(phy)])
    assert code == 1 and err == "error: entry at (0,1) above 1.124e+307: sums over the map would overflow\n"


def test_averaging_a_within_tolerance_pair_keeps_the_bits_of_the_mean():
    rows = [["0", "1e308", "3"], ["1.0000000001e308", "0", "5e-324"], ["3", "0", "0"]]
    text = "3\n" + "".join(f"{a} " + " ".join(row) + "\n" for a, row in zip("ABC", rows))
    with pytest.raises(ValueError, match="above"):
        read_phylip_distances(text)
    d, _ = read_phylip_distances(text.replace("1e308", "1e300").replace("1.0000000001e308", "1.0000000001e300"))
    assert d.array.item(0, 1) == (1e300 + 1.0000000001e300) / 2
    assert d.array.item(1, 2) == d.array.item(2, 1) == 5e-324 / 2


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
