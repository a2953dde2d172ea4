"""The default tolerance of the Kalmanson and four-point checks is relative
to max|d| on float maps, so their verdicts do not depend on the units; an
explicit tol (and the CLI's --tol) stays absolute."""
import random

import pytest

from neighbornet.agglomerate import run_neighbor_net
from neighbornet.cli import main
from neighbornet.core import CircularOrdering, DissimilarityMap
from neighbornet.io import format_phylip
from neighbornet.kalmanson import (
    first_four_point_violation,
    first_kalmanson_violation,
    is_kalmanson,
)
from neighbornet.oracle import satisfies_four_point, strict_quartets
from conftest import random_circular_instance, random_dissimilarity, random_tree_instance

SCALES = [10.0**k for k in range(-15, 16)]


def scaled(d, factor):
    return DissimilarityMap([[x * factor for x in row] for row in d.rows])


def non_kalmanson_maps(count=20, n=12):
    rng = random.Random(7)
    out = []
    while len(out) < count:
        d = random_dissimilarity(rng, n)
        ordering = run_neighbor_net(d).ordering
        if not is_kalmanson(d, ordering):
            out.append((d, ordering))
    return out


def test_non_kalmanson_maps_stay_non_kalmanson_at_every_scale():
    for d, ordering in non_kalmanson_maps():
        first = first_kalmanson_violation(d, ordering)["positions"]
        for factor in SCALES:
            violation = first_kalmanson_violation(scaled(d, factor), ordering)
            assert violation is not None and violation["positions"] == first, factor


def test_circular_maps_stay_kalmanson_at_every_scale():
    rng = random.Random(8)
    for _ in range(10):
        pi, _, d = random_circular_instance(rng, 10)
        strict = strict_quartets(d, pi)
        for factor in SCALES:
            assert is_kalmanson(scaled(d, factor), pi), factor
            assert strict_quartets(scaled(d, factor), pi) == strict, factor


def test_tree_metrics_satisfy_four_point_at_every_scale():
    rng = random.Random(9)
    for _ in range(20):
        d, _, _ = random_tree_instance(rng, 10)
        for factor in SCALES:
            assert satisfies_four_point(scaled(d, factor)), factor


def test_non_tree_maps_fail_four_point_at_every_scale():
    rng = random.Random(10)
    for _ in range(10):
        d = random_dissimilarity(rng, 8)
        first = first_four_point_violation(d)["taxa"]
        for factor in SCALES:
            violation = first_four_point_violation(scaled(d, factor))
            assert violation is not None and violation["taxa"] == first, factor


def test_explicit_tolerance_is_absolute():
    d, ordering = non_kalmanson_maps(count=1)[0]
    tiny = scaled(d, 1e-12)
    assert not is_kalmanson(tiny, ordering)
    assert is_kalmanson(tiny, ordering, tol=1e-9)
    assert satisfies_four_point(tiny, tol=1e-9)
    tree, _, _ = random_tree_instance(random.Random(11), 8)
    huge = scaled(tree, 1e6)
    assert satisfies_four_point(huge)


@pytest.mark.parametrize("tol, verdict", [(None, "FAIL"), ("1e-9", "PASS")])
def test_cli_check_tolerance(tmp_path, capsys, tol, verdict):
    d, ordering = non_kalmanson_maps(count=1)[0]
    labels = [f"t{k}" for k in range(d.n)]
    path = tmp_path / "tiny.phy"
    path.write_text(format_phylip(scaled(d, 1e-12), labels))
    argv = ["check", str(path), "--ordering", ",".join(labels[t] for t in ordering.order)]
    assert main(argv + ([] if tol is None else ["--tol", tol])) == 0
    assert f"kalmanson conditions: {verdict}" in capsys.readouterr().out


def test_all_zero_map_is_kalmanson():
    d = DissimilarityMap([[0.0] * 5 for _ in range(5)])
    assert is_kalmanson(d, CircularOrdering(range(5)))
    assert satisfies_four_point(d)
