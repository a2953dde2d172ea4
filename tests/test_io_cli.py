"""File formats and the command-line surface."""
import json
import random
from pathlib import Path

import pytest

from neighbornet.agglomerate import run_neighbor_net, neighbor_joining
from neighbornet.cli import main
from neighbornet.core import (
    CircularOrdering,
    Split,
    WeightedSplitSystem,
    is_circular_split,
)
from neighbornet.io import (
    InputError,
    format_phylip,
    read_nexus_splits,
    read_phylip_distances,
    splits_to_newick,
    trace_records,
    write_nexus,
    write_trace_jsonl,
)
from neighbornet.weights import nnls_fit
from conftest import permute_map, random_dissimilarity

GOLDEN = Path(__file__).resolve().parent / "golden"


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
        text = write_nexus(system, ["A", "B", "C", "D"], cycle=CircularOrdering([0, 1, 2, 3]))
        assert text == (GOLDEN / "single_split.nex").read_text()

    def test_empty_system_valid(self):
        text = write_nexus(WeightedSplitSystem(3, {}), ["A", "B", "C"])
        labels, cycle, system = read_nexus_splits(text)
        assert labels == ["A", "B", "C"]
        assert cycle is None
        assert len(system) == 0

    def test_roundtrip_exact(self):
        rng = random.Random(3)
        n = 6
        pi = CircularOrdering([0, 2, 4, 1, 3, 5])
        from neighbornet.core import all_circular_splits

        weights = {s: rng.uniform(0, 2) for s in all_circular_splits(pi)}
        system = WeightedSplitSystem(n, weights)
        labels = [f"x{k}" for k in range(n)]
        text = write_nexus(system, labels, cycle=pi)
        labels2, cycle2, system2 = read_nexus_splits(text)
        assert labels2 == labels
        assert cycle2 == pi
        assert system2.splits == system.splits
        for s in system:
            assert system2.weight(s) == system.weight(s)

    def test_result_variant_carries_cycle(self):
        d = random_dissimilarity(random.Random(4), 5)
        result = run_neighbor_net(d)
        text = write_nexus(result, [f"t{k}" for k in range(5)])
        _, cycle, system = read_nexus_splits(text)
        assert cycle == result.ordering
        assert system.splits == frozenset(result.tree_splits)


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


class TestTrace:
    def test_records_schema(self, tmp_path):
        d = random_dissimilarity(random.Random(6), 6)
        result = run_neighbor_net(d)
        records = trace_records(result.trace)
        assert len(records) == 5
        assert records[0]["blocks"] == 6
        assert records[-1]["split_block"] is None
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(result.trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert parsed == records


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


def adjacency_pair_weights(ordering):
    seq = ordering.order
    return {(min(a, b), max(a, b)): 1.0 for a, b in zip(seq, seq[1:] + seq[:1])}


class TestCliFlags:
    def test_check_negative_tolerance_exits_1(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["check", str(path), "--tol", "-1"]) == 1
        assert "tolerance must be >= 0" in capsys.readouterr().err

    def test_length_zero_cap_exits_1(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["length", str(path), "--blocks", "t0,t1|t2|t3|t4|t5", "--cap", "0"]) == 1
        assert "cap must be >= 1" in capsys.readouterr().err

    def test_alpha_is_checked_under_every_weighting(self, phy_file, capsys):
        path, _, _ = phy_file
        assert main(["nnet", str(path), "--alpha", "1.5"]) == 1
        assert main(["tsp", str(path), "--alpha", "-0.5"]) == 1
        assert main(["nj", str(path), "--alpha", "2"]) == 1
        assert capsys.readouterr().err.count("alpha must be in [0, 1]") == 3

    def test_estimate_eta_weights_pin_nnls_fit(self, phy_file, tmp_path, capsys):
        path, d, labels = phy_file
        ordering = CircularOrdering([0, 3, 1, 5, 2, 4])
        nexus = tmp_path / "eta.nex"
        argv = ["estimate", str(path), "--method", "nnls", "--ols-weights", "eta",
                "--ordering", ",".join(labels[t] for t in ordering.order), "--nexus", str(nexus)]
        assert main(argv) == 0
        _, cycle, system = read_nexus_splits(nexus.read_text())
        expected = nnls_fit(d, ordering, pair_weights=adjacency_pair_weights(ordering))
        assert cycle == ordering
        assert dict(system.items()) == dict(expected.items())
        assert dict(expected.items()) != dict(nnls_fit(d, ordering).items())

    def test_nnet_eta_weights_pin_nnls_fit(self, phy_file, tmp_path, capsys):
        path, d, _ = phy_file
        nexus = tmp_path / "eta.nex"
        assert main(["nnet", str(path), "--estimate", "nnls", "--ols-weights", "eta",
                     "--nexus", str(nexus)]) == 0
        ordering = run_neighbor_net(d).ordering
        _, cycle, system = read_nexus_splits(nexus.read_text())
        expected = nnls_fit(d, ordering, pair_weights=adjacency_pair_weights(ordering))
        assert cycle == ordering
        assert dict(system.items()) == dict(expected.items())
