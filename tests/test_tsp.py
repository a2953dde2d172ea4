"""Tour evaluation, the greedy tour heuristic, exact brute force, and the
TSPLIB reader."""
import os
import random
import re
from pathlib import Path

import pytest

from neighbornet.agglomerate import BalancedTSP, TreeWeighting
from neighbornet.cli import main
from neighbornet.core import CircularOrdering, DissimilarityMap
from neighbornet.oracle import brute_force_tsp
from neighbornet.tsp import greedy_tsp, read_tsplib_euc2d, tour_length
from conftest import random_circular_instance, random_dissimilarity

ST70_PATHS = [
    Path(os.environ.get("NEIGHBORNET_ST70", "")),
    Path(__file__).resolve().parent.parent / "data" / "st70.tsp",
]


def st70_text():
    for p in ST70_PATHS:
        if p and p.is_file():
            return p.read_text()
    return None


class TestTourLength:
    def test_all_ones_cycle(self):
        n = 5
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        d = DissimilarityMap(rows)
        assert tour_length(d, CircularOrdering(range(n))) == 5

    @pytest.mark.parametrize("seq", [[0, 0, 0], [0, 1, 1], [1, 2, 3], [0, 1, -1], [True, False, 2], [0.0, 1.0, 2.0]])
    def test_a_sequence_that_is_not_a_permutation_is_refused(self, seq):
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.n-1"):
            tour_length(random_dissimilarity(random.Random(2), 3), seq)

    def test_dihedral_invariance(self):
        rng = random.Random(1)
        d = random_dissimilarity(rng, 6)
        base = tour_length(d, CircularOrdering(range(6)))
        seq = list(range(6))
        for rot in range(6):
            rotated = seq[rot:] + seq[:rot]
            assert tour_length(d, CircularOrdering(rotated)) == pytest.approx(base)
            assert tour_length(d, CircularOrdering(rotated[::-1])) == pytest.approx(base)

    def test_two_opt_reversal_shortens_suboptimal_tour(self):
        # on a generic circular decomposable metric, any other tour admits an
        # improving segment reversal across a violated quadruple
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(5, 8)
            pi, _, d = random_circular_instance(rng, n)
            sigma = list(pi.order)
            # perturb the optimal cycle into some other cycle
            a, b = sorted(rng.sample(range(n), 2))
            sigma[a], sigma[b] = sigma[b], sigma[a]
            if CircularOrdering(sigma) == pi:
                continue
            before = tour_length(d, CircularOrdering(sigma))
            improved = None
            for i in range(n):
                for k in range(i + 2, n):
                    if i == 0 and k == n - 1:
                        continue  # same edge pair
                    removed = d[sigma[i], sigma[i + 1]] + d[sigma[k], sigma[(k + 1) % n]]
                    added = d[sigma[i], sigma[k]] + d[sigma[i + 1], sigma[(k + 1) % n]]
                    if removed > added:
                        improved = sigma[: i + 1] + sigma[i + 1 : k + 1][::-1] + sigma[k + 1 :]
                        break
                if improved:
                    break
            assert improved is not None
            after = tour_length(d, CircularOrdering(improved))
            assert after < before


class TestGreedy:
    def test_optimal_on_kalmanson_inputs(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(5, 10)
            pi, _, d = random_circular_instance(rng, n)
            tour = greedy_tsp(d)
            best = brute_force_tsp(d)
            assert tour.ordering == best.ordering
            assert tour.length == pytest.approx(best.length)
            assert tour.ordering == pi.canonical()

    def test_never_beats_optimum(self):
        rng = random.Random(4)
        for _ in range(8):
            n = rng.randint(5, 8)
            d = random_dissimilarity(rng, n)
            assert greedy_tsp(d).length >= brute_force_tsp(d).length - 1e-9

    def test_relabel_equivariance(self):
        from conftest import permute_map, relabel_ordering

        rng = random.Random(8)
        for _ in range(6):
            n = rng.randint(5, 9)
            d = random_dissimilarity(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            base = greedy_tsp(d)
            permuted = greedy_tsp(permute_map(d, perm))
            assert relabel_ordering(base.ordering, perm) == permuted.ordering
            assert permuted.length == pytest.approx(base.length)


class TestBruteForce:
    def test_three_taxa_unique_tour(self):
        d = random_dissimilarity(random.Random(5), 3)
        tour = brute_force_tsp(d)
        assert tour.ordering.order == (0, 1, 2)

    def test_tie_break_lexicographic(self):
        n = 6
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        tour = brute_force_tsp(DissimilarityMap(rows))
        assert tour.ordering.order == tuple(range(n))
        assert tour.length == n

    def test_exact_mode_matches_float_mode(self):
        rng = random.Random(6)
        d_exact = random_dissimilarity(rng, 7, exact=True)
        d_float = DissimilarityMap([[float(v) for v in row] for row in d_exact.rows])
        assert brute_force_tsp(d_exact).ordering == brute_force_tsp(d_float).ordering

    def test_cap(self):
        d = random_dissimilarity(random.Random(7), 12)
        with pytest.raises(ValueError):
            brute_force_tsp(d)


TOY_TSPLIB = """NAME: toy
TYPE: TSP
COMMENT: two nodes
DIMENSION: 2
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
EOF
"""


class TestTsplibReader:
    def test_three_four_five(self):
        # a 3-4-5 pair comes out at distance 5 in both rounding modes, but the
        # reader cannot build a 2-taxon map, so embed it in a triangle
        text = TOY_TSPLIB.replace("DIMENSION: 2", "DIMENSION: 3").replace(
            "2 3 4\n", "2 3 4\n3 0 8\n"
        )
        for mode in ("none", "tsplib"):
            d = read_tsplib_euc2d(text, rounding=mode)
            assert d[0, 1] == 5

    def test_rounding_modes_differ(self):
        text = TOY_TSPLIB.replace("DIMENSION: 2", "DIMENSION: 3").replace(
            "2 3 4\n", "2 1 1\n3 5 0\n"
        )
        unrounded = read_tsplib_euc2d(text, rounding="none")
        rounded = read_tsplib_euc2d(text, rounding="tsplib")
        assert unrounded[0, 1] == pytest.approx(2 ** 0.5)
        assert rounded[0, 1] == 1
        assert rounded.is_exact

    def test_missing_dimension_rejected(self):
        with pytest.raises(ValueError, match="malformed header"):
            read_tsplib_euc2d("EDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n")

    def test_unsupported_weight_type_rejected(self):
        text = TOY_TSPLIB.replace("EUC_2D", "GEO")
        with pytest.raises(ValueError, match="unsupported"):
            read_tsplib_euc2d(text)

    def test_coordinate_count_mismatch_rejected(self):
        text = TOY_TSPLIB.replace("DIMENSION: 2", "DIMENSION: 3")
        with pytest.raises(ValueError, match="coordinate count"):
            read_tsplib_euc2d(text)

    def test_bad_rounding_mode_rejected(self):
        with pytest.raises(ValueError):
            read_tsplib_euc2d(TOY_TSPLIB, rounding="up")

    def test_node_ids_decide_each_nodes_place(self, tmp_path, capsys):
        # listed 3, 1, 4, 2: the file reads as its sorted image, and the CLI
        # label k names node k
        nodes = {1: "0 0", 2: "4 0", 3: "4 3", 4: "1 7"}
        tsplib = "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n{}EOF\n".format
        listed = tsplib("".join(f"{k} {nodes[k]}\n" for k in (3, 1, 4, 2)))
        in_order = tsplib("".join(f"{k} {nodes[k]}\n" for k in (1, 2, 3, 4)))
        d = read_tsplib_euc2d(listed)
        assert d == read_tsplib_euc2d(in_order)
        assert (d[0, 1], d[1, 2], d[0, 2], d[2, 3]) == (4.0, 3.0, 5.0, 5.0)
        outputs = []
        for name, text in (("listed.tsp", listed), ("in_order.tsp", in_order)):
            (tmp_path / name).write_text(text)
            assert main(["tsp", str(tmp_path / name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("ids, line", [
        ("1 1 3", "1 4 0"),
        ("1 2 x", "x 4 3"),
        ("0 1 2", "0 0 0"),
        ("1 2 4", "4 4 3"),
        ("1 2 -3", "-3 4 3"),
        ("1 2 3.0", "3.0 4 3"),
    ], ids=["repeated", "not-a-number", "zero", "past-dimension", "negative", "float"])
    def test_node_ids_that_are_not_a_permutation_are_refused(self, tmp_path, capsys, ids, line):
        coords = ("0 0", "4 0", "4 3")
        text = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n{}EOF\n".format(
            "".join(f"{k} {xy}\n" for k, xy in zip(ids.split(), coords)))
        message = f"bad node id in line {line!r}: the ids must be a permutation of 1..3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_tsplib_euc2d(text)
        (tmp_path / "bad.tsp").write_text(text)
        assert main(["tsp", str(tmp_path / "bad.tsp")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.skipif(st70_text() is None, reason="st70.tsp not available (see decisions ledger)")
class TestSt70:
    def test_greedy_lengths_and_weighting_order(self):
        d = read_tsplib_euc2d(st70_text(), rounding="none")
        assert d.n == 70
        balanced = greedy_tsp(d, BalancedTSP())
        tree = greedy_tsp(d, TreeWeighting())
        assert 678.598 <= balanced.length <= 780.0
        assert tree.length > balanced.length
