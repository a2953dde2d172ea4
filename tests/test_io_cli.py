"""File formats and the command-line surface."""
import contextlib
import io
import json
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from neighbornet import core
from neighbornet.agglomerate import run_neighbor_net, neighbor_joining
from neighbornet.cli import main
from neighbornet.core import (
    CircularOrdering,
    Split,
    WeightedSplitSystem,
    metric_from_splits,
    sorted_splits,
)
from neighbornet.io import (
    InputError,
    fmt_num,
    read_nexus_splits,
    read_phylip_distances,
    splits_to_newick,
    trace_records,
    write_trace_jsonl,
)
from neighbornet.oracle import is_circular_split
from neighbornet.weights import nnls_fit
from conftest import format_phylip, nexus_text, permute_map, random_circular_instance, random_dissimilarity

GOLDEN = Path(__file__).resolve().parent / "golden"
# stdout and Nexus file of float nnet runs, written before the writers
# shared one row iterator; their weights come from lambda alone, no BLAS
GOLDEN_FLOAT_CLI = json.loads((GOLDEN / "float_cli.json").read_text())


def phylip_of(rows, labels):
    lines = [str(len(labels))]
    for label, row in zip(labels, rows):
        lines.append(label + " " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestPhylipReader:
    def test_zero_matrix(self):
        d, labels = read_phylip_distances(phylip_of([[0, 0, 0]] * 3, ["a", "b", "c"]))
        assert labels == ["a", "b", "c"]
        assert all(d[i, j] == 0 for i in range(3) for j in range(3))

    @pytest.mark.parametrize("text, message", [
        ("", "empty distance file"),
        ("\n  \n", "empty distance file"),
        ("0\n", "taxon count must be positive"),
        ("-2\na 0\n", "taxon count must be positive"),
    ])
    def test_no_taxa_rejected(self, text, message):
        with pytest.raises(InputError, match=message):
            read_phylip_distances(text)

    def test_lower_triangle_rejected(self):
        text = "3\na\nb 1\nc 2 3\n"
        with pytest.raises(InputError, match="square matrix required"):
            read_phylip_distances(text)

    def test_asymmetry_rejected(self):
        text = phylip_of([[0, 1, 2], [1.1, 0, 3], [2, 3, 0]], ["a", "b", "c"])
        with pytest.raises(InputError, match="asymmetric"):
            read_phylip_distances(text)

    def test_small_asymmetry_averaged(self):
        text = phylip_of([[0, 1.0000001, 2], [1, 0, 3], [2, 3, 0]], ["a", "b", "c"])
        d, _ = read_phylip_distances(text)
        assert d[0, 1] == pytest.approx(1.00000005)

    def test_duplicate_labels_rejected(self):
        text = phylip_of([[0, 1], [1, 0]], ["a", "a"])
        with pytest.raises(InputError, match="duplicate"):
            read_phylip_distances(text)

    def test_negative_entry_rejected(self):
        text = phylip_of([[0, -1], [-1, 0]], ["a", "b"])
        with pytest.raises(InputError, match="negative"):
            read_phylip_distances(text)

    def test_roundtrip_through_writer(self):
        rng = random.Random(1)
        d = random_dissimilarity(rng, 5)
        labels = [f"t{k}" for k in range(5)]
        d2, labels2 = read_phylip_distances(format_phylip(d, labels))
        assert labels2 == labels
        assert d2.rows == d.rows

    def test_permuted_file_gives_relabelled_ordering(self):
        rng = random.Random(2)
        n = 7
        d = random_dissimilarity(rng, n)
        labels = [f"t{k}" for k in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        d_perm = permute_map(d, perm)
        labels_perm = [None] * n
        for i in range(n):
            labels_perm[perm[i]] = labels[i]
        res_a = run_neighbor_net(read_phylip_distances(format_phylip(d, labels))[0])
        res_b = run_neighbor_net(read_phylip_distances(format_phylip(d_perm, labels_perm))[0])
        cycle_a = [labels[t] for t in res_a.ordering.order]
        cycle_b = [labels_perm[t] for t in res_b.ordering.order]
        k = cycle_b.index(cycle_a[0])
        rotated = cycle_b[k:] + cycle_b[:k]
        assert rotated == cycle_a or rotated == [cycle_a[0]] + cycle_a[:0:-1]


class TestNexus:
    def test_golden_single_split(self):
        system = WeightedSplitSystem(4, {Split.of({2, 3}, 4): 1.0})
        text = nexus_text(system, ["A", "B", "C", "D"], cycle=CircularOrdering([0, 1, 2, 3]))
        assert text == (GOLDEN / "single_split.nex").read_text()

    def test_empty_system_valid(self):
        text = nexus_text(WeightedSplitSystem(3, {}), ["A", "B", "C"])
        labels, cycle, system = read_nexus_splits(text)
        assert labels == ["A", "B", "C"]
        assert cycle is None
        assert len(system) == 0

    def test_roundtrip_exact(self):
        rng = random.Random(3)
        n = 6
        pi = CircularOrdering([0, 2, 4, 1, 3, 5])
        from neighbornet.oracle import all_circular_splits

        weights = {s: rng.uniform(0, 2) for s in all_circular_splits(pi)}
        system = WeightedSplitSystem(n, weights)
        labels = [f"x{k}" for k in range(n)]
        text = nexus_text(system, labels, cycle=pi)
        labels2, cycle2, system2 = read_nexus_splits(text)
        assert labels2 == labels
        assert cycle2 == pi
        assert system2.splits == system.splits
        for s in system:
            assert system2.weight(s) == system.weight(s)

    def test_result_variant_carries_cycle(self):
        d = random_dissimilarity(random.Random(4), 5)
        result = run_neighbor_net(d)
        system = WeightedSplitSystem(5, {s: 1.0 for s in result.tree_splits})
        text = nexus_text(system, [f"t{k}" for k in range(5)], cycle=result.ordering)
        _, cycle, system = read_nexus_splits(text)
        assert cycle == result.ordering
        assert system.splits == frozenset(result.tree_splits)


def split_systems():
    """Split systems over 3..9 taxa with positive finite float weights."""

    @st.composite
    def build(draw):
        n = draw(st.integers(3, 9))
        blocks = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1), max_size=12))
        weight = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
        return WeightedSplitSystem(n, {Split.of(b, n): draw(weight) for b in blocks})

    return build()


class TestPositiveSplits:
    """A split system holds its positive splits: zero weights given to it, or
    read from a Nexus file, leave no trace in what it prints or computes."""

    def test_zero_weights_leave_no_trace(self):
        rng = random.Random(21)
        for exact in (False, True):
            pi, full, _ = random_circular_instance(rng, 8, exact=exact)
            splits = sorted_splits(full.splits)
            positive = {s: full.weight(s) for s in splits[::3]}
            zero = Fraction(0) if exact else 0.0
            system = WeightedSplitSystem(8, positive)
            padded = WeightedSplitSystem(8, {s: positive.get(s, zero) for s in splits})
            assert len(padded) == len(system) == len(positive)
            assert list(padded.items()) == list(system.items()) == list(positive.items())
            assert padded.splits == system.splits and splits[1] not in padded
            assert padded.weight(splits[1]) == 0 and padded.weight(splits[3]) == positive[splits[3]]
            metric = metric_from_splits(system)
            assert metric_from_splits(padded) == metric
            assert metric_from_splits(padded).array.dtype == metric.array.dtype
            labels = [f"x{k}" for k in range(8)]
            text = nexus_text(system, labels, cycle=pi)
            assert nexus_text(padded, labels, cycle=pi) == text
            # a file that lists and counts the zero splits too, as older versions wrote
            members = [" ".join(str(t + 1) for t in sorted(s.other)) for s in splits if s not in positive]
            old = text.replace("MATRIX\n", "MATRIX\n" + "".join(f"[0, size=1] \t 0.0 \t {m},\n" for m in members))
            old = old.replace(f"nsplits={len(system)};", f"nsplits={len(splits)};")
            _, cycle, reread = read_nexus_splits(old)
            current = read_nexus_splits(text)[2]
            assert cycle == pi and list(reread.items()) == list(current.items())
            assert metric_from_splits(reread) == metric_from_splits(current)

    def test_nnls_cli_prints_the_positive_splits_of_the_fit(self, tmp_path, capsys):
        labels = [f"t{k}" for k in range(30)]
        path = tmp_path / "map.phy"
        path.write_text(format_phylip(random_dissimilarity(random.Random(22), 30), labels))
        d, _ = read_phylip_distances(path.read_text())
        fit = nnls_fit(d, run_neighbor_net(d).ordering)
        assert 0 < len(fit) < 30 * 29 // 2 and min(w for _, w in fit.items()) > 0
        assert main(["nnet", str(path), "--estimate", "nnls", "--nexus", str(tmp_path / "fit.nex")]) == 0
        out = capsys.readouterr().out.splitlines()
        start = out.index(f"splits ({len(fit)}):") + 1
        expected = [
            f"  {fmt_num(fit.weight(s))} \t {{{','.join(labels[t] for t in sorted(s.other))}}}"
            for s in sorted_splits(fit.splits)
        ]
        assert out[start:start + len(expected) + 1] == expected + [f"nexus written to {tmp_path / 'fit.nex'}"]
        _, _, written = read_nexus_splits((tmp_path / "fit.nex").read_text())
        assert dict(written.items()) == dict(fit.items())

    @seed(23)
    @settings(max_examples=60, deadline=None)
    @given(split_systems())
    def test_nexus_round_trips_any_positive_system(self, system):
        labels = [f"t{k}" for k in range(system.n)]
        text = nexus_text(system, labels)
        read_labels, cycle, reread = read_nexus_splits(text)
        assert (read_labels, cycle) == (labels, None)
        assert dict(reread.items()) == dict(system.items())
        assert nexus_text(reread, labels) == text


@pytest.mark.parametrize("name", sorted(GOLDEN_FLOAT_CLI))
def test_float_cli_outputs_are_unchanged(name, tmp_path, monkeypatch):
    expected = GOLDEN_FLOAT_CLI[name]
    shutil.copy(GOLDEN / expected["argv"][1], tmp_path)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(expected["argv"]) == 0
    assert out.getvalue() == expected["stdout"]
    assert (tmp_path / "out.nex").read_text() == expected["nexus"]


class TestNewick:
    def test_quartet(self):
        splits = [Split.of({0, 1}, 4)]
        assert splits_to_newick(splits, ["A", "B", "C", "D"]) == "(A,B,(C,D));"

    def test_nested(self):
        splits = [Split.of({2, 3}, 5), Split.of({2, 3, 4}, 5)]
        assert splits_to_newick(splits, list("abcde")) == "(a,b,((c,d),e));"

    def test_nj_output_parses_shape(self):
        d = random_dissimilarity(random.Random(5), 6)
        newick = splits_to_newick(sorted(neighbor_joining(d), key=lambda s: sorted(s.block)),
                                  [f"t{k}" for k in range(6)])
        assert newick.endswith(";")
        assert newick.count("(") == newick.count(")")

    def test_labels_with_metacharacters_are_quoted(self, tmp_path, capsys):
        labels = ["a(b", "c,d", "e:f", "g;h"]
        path = tmp_path / "meta.phy"
        path.write_text(phylip_of([[0, 1, 4, 4], [1, 0, 4, 4], [4, 4, 0, 1], [4, 4, 1, 0]], labels))
        assert main(["nj", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "('a(b','c,d',('e:f','g;h'));"
        quoted = ["it's", "[x]", "p)q", "plain", "under_score"]
        assert splits_to_newick([Split.of({0, 1}, 5)], quoted) == (
            "('it''s','[x]',('p)q',plain,under_score));"
        )


class TestTrace:
    def test_records_schema(self, tmp_path):
        d = random_dissimilarity(random.Random(6), 6)
        result = run_neighbor_net(d)
        records = trace_records(result.trace)
        assert len(records) == 5
        assert records[0]["blocks"] == 6
        assert records[-1]["split_block"] is None
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            write_trace_jsonl(result.trace, fh)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert parsed == records
        assert all(sorted(map(int, r["mu"])) == sorted(r["merged_path"]) for r in records)


@pytest.fixture
def phy_file(tmp_path):
    rng = random.Random(7)
    d = random_dissimilarity(rng, 6)
    labels = [f"t{k}" for k in range(6)]
    path = tmp_path / "input.phy"
    path.write_text(format_phylip(d, labels))
    return path, d, labels


class TestCli:
    def test_nnet_and_nj_agree(self, phy_file, capsys):
        path, d, labels = phy_file
        assert main(["nnet", str(path), "--weighting", "tree"]) == 0
        out = capsys.readouterr().out
        ordering_labels = out.splitlines()[0].split(":")[1].split()
        order = [labels.index(x) for x in ordering_labels]
        ordering = CircularOrdering(order)
        for s in neighbor_joining(d):
            assert is_circular_split(s, ordering)

    def test_nnet_writes_nexus_and_trace(self, phy_file, tmp_path, capsys):
        path, _, _ = phy_file
        nexus = tmp_path / "out.nex"
        trace = tmp_path / "trace.jsonl"
        code = main(["nnet", str(path), "--nexus", str(nexus), "--trace", str(trace),
                     "--estimate", "nnls"])
        assert code == 0
        assert nexus.read_text().startswith("#nexus")
        assert len(trace.read_text().splitlines()) == 5

    @staticmethod
    def sorts_and_systems(argv, monkeypatch):
        """The split_order calls, CircularSplits and WeightedSplitSystems that
        one CLI run makes."""
        made = {"sorts": 0, "arcs": 0, "splits": 0}
        order, arcs, splits = core.split_order, core.CircularSplits.__init__, core.WeightedSplitSystem.__init__

        def counted(key, fn):
            def call(*args):
                made[key] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(core, "split_order", counted("sorts", order))
        monkeypatch.setattr(core.CircularSplits, "__init__", counted("arcs", arcs))
        monkeypatch.setattr(core.WeightedSplitSystem, "__init__", counted("splits", splits))
        assert main(argv) == 0
        return made

    def test_nnls_nexus_run_sorts_once_and_builds_one_system(self, phy_file, tmp_path, monkeypatch):
        """stdout and the Nexus file read one CircularSplits' kept split order."""
        path, _, _ = phy_file
        argv = ["nnet", str(path), "--estimate", "nnls", "--nexus", str(tmp_path / "o.nex")]
        assert self.sorts_and_systems(argv, monkeypatch) == {"sorts": 1, "arcs": 1, "splits": 0}

    def test_formula_clamped_nexus_run_sorts_once_and_builds_one_system(self, phy_file, tmp_path, monkeypatch):
        path, _, _ = phy_file
        argv = ["nnet", str(path), "--estimate", "formula-clamped", "--nexus", str(tmp_path / "o.nex")]
        assert self.sorts_and_systems(argv, monkeypatch) == {"sorts": 1, "arcs": 1, "splits": 0}

    def test_an_empty_system_prints_no_split_lines(self, tmp_path, capsys):
        path = tmp_path / "zero.phy"
        path.write_text(phylip_of([[0] * 4] * 4, ["a", "b", "c", "d"]))
        assert main(["nnet", str(path), "--estimate", "formula-clamped"]) == 0
        assert capsys.readouterr().out.endswith("\nsplits (0):\n")
        nexus = tmp_path / "zero.nex"
        assert main(["nnet", str(path), "--estimate", "nnls", "--nexus", str(nexus)]) == 0
        assert capsys.readouterr().out.endswith(f"\nsplits (0):\nnexus written to {nexus}\n")
        assert "nsplits=0;" in nexus.read_text()

    def test_nnet_on_three_taxa_prints_its_one_tree_split(self, tmp_path, capsys):
        path = tmp_path / "three.phy"
        path.write_text(phylip_of([[0, 1, 2], [1, 0, 3], [2, 3, 0]], ["a", "b", "c"]))
        assert main(["nnet", str(path)]) == 0
        assert capsys.readouterr().out == "ordering: a b c\nsplits (1):\n  {c}\n"

    def test_nj_newick(self, phy_file, capsys):
        path, d, labels = phy_file
        assert main(["nj", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(";")
        for label in labels:
            assert label in out

    def test_tsp_on_tsplib_file(self, tmp_path, capsys):
        text = (
            "NAME: sq\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 0 1\n3 1 1\n4 1 0\nEOF\n"
        )
        path = tmp_path / "sq.tsp"
        path.write_text(text)
        assert main(["tsp", str(path)]) == 0
        out = capsys.readouterr().out
        assert "length: 4" in out

    def test_check_reports_kalmanson(self, tmp_path, capsys):
        rng = random.Random(8)
        from conftest import random_circular_instance

        pi, _, d = random_circular_instance(rng, 6)
        labels = [f"t{k}" for k in range(6)]
        path = tmp_path / "circ.phy"
        path.write_text(format_phylip(d, labels))
        ordering_arg = ",".join(labels[t] for t in pi.order)
        assert main(["check", str(path), "--ordering", ordering_arg]) == 0
        out = capsys.readouterr().out
        assert "four-point condition: FAIL" in out  # generic circular metric is not a tree
        assert "kalmanson conditions: PASS" in out

    def test_check_search_mode(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kalmanson ordering" in out

    def test_estimate_formula_on_circular_input(self, tmp_path, capsys):
        rng = random.Random(9)
        from conftest import random_circular_instance

        pi, system, d = random_circular_instance(rng, 5)
        labels = [f"t{k}" for k in range(5)]
        path = tmp_path / "circ.phy"
        path.write_text(format_phylip(d, labels))
        ordering_arg = ",".join(labels[t] for t in pi.order)
        assert main(["estimate", str(path), "--ordering", ordering_arg,
                     "--method", "formula"]) == 0
        out = capsys.readouterr().out
        assert f"splits ({len(system)})" in out

    def test_length_subcommand(self, phy_file, capsys):
        path, d, labels = phy_file
        assert main(["length", str(path), "--blocks", "t0,t1|t2|t3|t4|t5"]) == 0
        out = capsys.readouterr().out
        assert "balanced length:" in out

    def test_enumerate_contains_840(self, capsys):
        assert main(["enumerate", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "840" in out

    def test_unknown_flag_exits_1(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["nnet", str(path), "--bogus"]) == 1

    def test_alpha_out_of_range_exits_1(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["nnet", str(path), "--weighting", "tree", "--alpha", "1.5"]) == 1

    def test_missing_file_exits_1(self, capsys):
        assert main(["nnet", "/nonexistent/file.phy"]) == 1

    def test_bad_matrix_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.phy"
        path.write_text("3\na\nb 1\nc 2 3\n")
        assert main(["nnet", str(path)]) == 1


class TestCliFlags:
    def test_check_negative_tolerance_exits_1(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["check", str(path), "--tol", "-1"]) == 1
        assert "tolerance must be >= 0" in capsys.readouterr().err

    def test_alpha_is_checked_under_every_weighting(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["nnet", str(path), "--alpha", "1.5"]) == 1
        assert main(["tsp", str(path), "--alpha", "-0.5"]) == 1
        assert main(["nj", str(path), "--alpha", "2"]) == 1
        assert capsys.readouterr().err.count("alpha must be in [0, 1]") == 3

    @pytest.mark.parametrize("argv", [
        ["nnet", "--alpha", "0.3"],
        ["nnet", "--weighting", "original", "--alpha", "0.5"],
        ["nnet", "--weighting", "balanced-tsp", "--alpha", "0.5", "--estimate", "nnls"],
        ["tsp", "--alpha", "0.5"],
        ["tsp", "--weighting", "original", "--alpha", "1"],
    ])
    def test_alpha_is_refused_under_weightings_that_ignore_it(self, phy_file, capsys, argv):
        path, _, _ = phy_file
        assert main([argv[0], str(path), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --alpha applies to --weighting tree only" in err

    @pytest.mark.parametrize("command", ["nnet", "tsp"])
    def test_alpha_is_refused_before_the_input_is_read(self, command, capsys):
        assert main([command, "/nonexistent/file.phy", "--alpha", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --alpha applies to --weighting tree only" in err

    def test_ols_weights_flag_is_gone(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["nnet", str(path), "--estimate", "nnls", "--ols-weights", "eta"]) == 1
        assert main(["estimate", str(path), "--ols-weights", "uniform"]) == 1
        assert capsys.readouterr().err.count("unrecognized arguments: --ols-weights") == 2


class TestNexusLabels:
    LABELS = ["a'", "O'Brien", '"d"', "x y"]

    def test_labels_round_trip(self):
        text = nexus_text(WeightedSplitSystem(4, {}), self.LABELS)
        assert "[2] 'O''Brien'" in text
        assert read_nexus_splits(text)[0] == self.LABELS

    def test_undoubled_quote_reads_as_before(self):
        text = nexus_text(WeightedSplitSystem(4, {}), self.LABELS)
        assert read_nexus_splits(text.replace("'O''Brien'", "'O'Brien'"))[0][1] == "O'Brien"

    def test_brackets_round_trip(self):
        labels = ["a]", "[b] c", "'q']", ""]
        assert read_nexus_splits(nexus_text(WeightedSplitSystem(4, {}), labels))[0] == labels

    @pytest.mark.parametrize("label", ["a\nb", "a\u2028b", "a\r", "\x85"])
    def test_a_label_holding_a_line_break_is_refused(self, label):
        labels = ["A", label, "C", "D"]
        with pytest.raises(ValueError, match="^taxon label " + re.escape(repr(label)) + " holds a line break$"):
            nexus_text(WeightedSplitSystem(4, {}), labels)
