"""DissimilarityMap holds one read-only array; its checks are array
operations. The scalar scans they replaced are kept here as oracles: the
map's constructor scan and the PHYLIP reader's validation loops. On seeded
inputs with injected faults the new code raises the oracle's message; on
valid inputs it returns the oracle's values."""
import math
import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from neighbornet.core import DissimilarityMap, is_exact_number, metric_from_splits
from neighbornet.io import ASYM_REL_TOL, InputError, read_phylip_distances
from conftest import random_circular_instance


def scan_map(rows, exact=False):
    """The scalar constructor scan: (rows, is_exact), or ValueError."""
    n = len(rows)
    if n < 1:
        raise ValueError("dissimilarity map needs at least one taxon")
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    all_exact = all(map(is_exact_number, chain.from_iterable(rows)))
    if not all_exact:
        # a row holding nan or inf has a non-finite sum
        for i, row in enumerate(rows):
            if not math.isfinite(sum(row)):
                for j, x in enumerate(row):
                    if not math.isfinite(x):
                        raise ValueError(f"non-finite entry at ({i},{j})")
    if exact:
        rows = [[Fraction(x) for x in r] for r in rows]
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError(f"nonzero diagonal at {i}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"asymmetric entries at ({i},{j})")
            if rows[i][j] < 0:
                raise ValueError(f"negative entry at ({i},{j})")
    return tuple(tuple(r) for r in rows), exact or all_exact


def scan_phylip(raw, labels):
    """The PHYLIP reader's scalar validation and averaging: rows, or InputError."""
    n = len(raw)
    for i in range(n):
        for j in range(n):
            if raw[i][j] < 0:
                raise InputError(f"negative distance at ({labels[i]}, {labels[j]})")
    for i in range(n):
        if not abs(raw[i][i]) <= ASYM_REL_TOL:  # a nan fails this test too
            raise InputError(f"nonzero diagonal for {labels[i]}")
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = raw[i][j], raw[j][i]
            if abs(a - b) > ASYM_REL_TOL * max(1.0, abs(a), abs(b)):
                raise InputError(f"asymmetric entries at ({labels[i]}, {labels[j]}): {a} vs {b}")
            rows[i][j] = rows[j][i] = (a + b) / 2
    return rows


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def valid_rows(rng, n, kind):
    """A symmetric nonnegative matrix with zero diagonal: floats, Fractions,
    ints, or a mix of ints and Fractions."""
    def entry():
        if kind == "float":
            return rng.choice([rng.uniform(0, 5), rng.uniform(0, 1e-300), rng.uniform(0, 1e300), 0.0])
        if kind == "int":
            return rng.randint(0, 10**rng.choice([1, 5, 25]))
        if kind == "fraction":
            return Fraction(rng.randint(0, 999), rng.randint(1, 99))
        return rng.choice([rng.randint(0, 9), Fraction(rng.randint(0, 99), rng.randint(1, 9))])

    zero = {"float": 0.0, "fraction": Fraction(0)}.get(kind, 0)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = entry()
    return rows


FAULTS = ("asymmetric", "negative", "diagonal", "nan", "inf", "-inf")


def inject(rng, rows, fault):
    """One fault at a random place (non-finite ones only in float rows)."""
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    if fault == "asymmetric":  # on the diagonal this is a nonzero diagonal entry
        rows[i][j] = rows[i][j] + 1
    elif fault == "negative":
        rows[i][j] = rows[j][i] = -abs(rows[i][j]) - 1
    elif fault == "diagonal":
        rows[i][i] = rows[i][i] + rng.choice([1, -1, 3])
    else:
        rows[i][j] = float(fault)


KINDS = ("float", "fraction", "int", "mixed")


@pytest.mark.parametrize("kind", KINDS)
def test_faults_raise_the_scan_message(kind):
    rng = random.Random(f"faults/{kind}")
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = valid_rows(rng, n, kind)
        for fault in rng.sample(FAULTS if kind == "float" else FAULTS[:3], rng.randint(1, 3)):
            inject(rng, rows, fault)
        for exact in (False, True):
            expected = outcome(scan_map, rows, exact=exact)
            for source in (rows, np.array(rows)):
                got = outcome(DissimilarityMap, source, exact=exact)
                if expected[0] == "ok":  # two faults can cancel
                    assert got[0] == "ok"
                else:
                    assert got == expected, rows
                    checked += 1
    assert checked > 300


def test_several_faults_at_once_report_the_first_in_scan_order():
    rows = [[0.0, 1.0, 2.0, 3.0],
            [1.0, 5.0, -2.0, 1.0],  # nonzero diagonal at 1 comes before (1,2)
            [2.0, 7.0, 0.0, math.inf],
            [3.0, 1.0, math.inf, 0.0]]
    with pytest.raises(ValueError, match=r"non-finite entry at \(2,3\)"):
        DissimilarityMap(rows)
    rows[2][3] = rows[3][2] = 1.0
    assert outcome(DissimilarityMap, rows) == outcome(scan_map, rows) == ("ValueError", "nonzero diagonal at 1")
    rows[1][1] = 0.0
    # (1,2) is both asymmetric and negative: symmetry is checked first
    assert outcome(DissimilarityMap, rows) == ("ValueError", "asymmetric entries at (1,2)")
    rows[2][1] = -2.0
    assert outcome(DissimilarityMap, rows) == ("ValueError", "negative entry at (1,2)")


def bits(x):
    return (type(x), x.hex() if isinstance(x, float) else x)


@pytest.mark.parametrize("kind", KINDS)
def test_valid_maps_return_the_scan_values(kind):
    rng = random.Random(f"valid/{kind}")
    for _ in range(100):
        n = rng.randint(1, 8)
        rows = valid_rows(rng, n, kind)
        for exact in (False, True):
            old_rows, old_exact = scan_map(rows, exact=exact)
            for d in (DissimilarityMap(rows, exact=exact), DissimilarityMap(np.array(rows), exact=exact)):
                assert d.is_exact == old_exact
                if old_exact:  # exact entries come back as Fractions of the same value
                    assert d.rows == old_rows
                    assert all(type(x) is Fraction for x in chain.from_iterable(d.rows))
                else:
                    assert [bits(x) for x in chain.from_iterable(d.rows)] == [
                        bits(x) for x in chain.from_iterable(old_rows)
                    ]
                for i in range(n):
                    for j in range(n):
                        assert bits(d[i, j]) == bits(d.rows[i][j])


def test_mixed_int_and_float_rows_become_floats():
    d = DissimilarityMap([[0, 1.5], [1.5, 0]])
    assert not d.is_exact
    assert d.rows == ((0.0, 1.5), (1.5, 0.0))
    assert all(type(x) is float for x in chain.from_iterable(d.rows))


def test_mixed_fraction_and_float_with_exact_keeps_the_fractions():
    third = Fraction(1, 3)
    rows = [[0, third, 0.5], [third, 0, 0.25], [0.5, 0.25, 0]]
    assert DissimilarityMap(rows, exact=True).rows == scan_map(rows, exact=True)[0]
    assert DissimilarityMap(rows, exact=True)[0, 1] == third


def test_array_is_read_only_and_carries_the_exactness():
    rng = random.Random(3)
    _, _, d = random_circular_instance(rng, 6)
    _, exact_system, e = random_circular_instance(rng, 6, exact=True)
    assert d.array.dtype == np.float64 and not d.is_exact
    assert e.array.dtype == object and e.is_exact
    for m in (d, e):
        with pytest.raises(ValueError):
            m.array[0, 1] = 1
    source = np.array(d.array)
    copy = DissimilarityMap(source)
    source[0, 1] = source[1, 0] = 99.0  # the map does not alias its input
    assert copy == d
    converted = d.to_exact()
    assert converted.is_exact and converted.rows == d.rows
    assert e.to_exact() is e
    ints = DissimilarityMap([[0, 2**70], [2**70, 0]])
    assert ints.is_exact and ints[0, 1] == 2**70 and type(ints[0, 1]) is Fraction
    assert metric_from_splits(exact_system) == e


def phylip_text(raw, labels):
    return f"{len(raw)}\n" + "".join(
        label + " " + " ".join(repr(v) for v in row) + "\n" for label, row in zip(labels, raw)
    )


def test_phylip_validation_matches_the_scalar_loops():
    rng = random.Random("phylip")
    tokens = [0.0, -0.0, 1e-7, -1e-7, 2e-6, -3.0, math.nan, math.inf, -math.inf, 1e308]
    checked = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        labels = [f"t{k}" for k in range(n)]
        raw = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                raw[i][j] = raw[j][i] = rng.choice([rng.uniform(0, 10), rng.uniform(0, 1e-3)])
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.5:
                raw[i][j] = rng.choice(tokens)
            else:  # within or beyond the averaging tolerance
                raw[i][j] *= 1 + rng.choice([1e-9, 5e-7, 2e-6, 1e-3])
        status, expected = outcome(scan_phylip, raw, labels)
        if status == "ok":
            status, expected = outcome(scan_map, expected)
        got_status, got = outcome(read_phylip_distances, phylip_text(raw, labels))
        if status == "ok":
            assert got_status == "ok"
            assert [bits(x) for x in chain.from_iterable(got[0].rows)] == [
                bits(x) for x in chain.from_iterable(expected[0])
            ]
        else:
            assert got == expected, raw
            checked += 1
    assert checked > 100


def test_entries_whose_sums_overflow_are_rejected():
    limit = np.finfo(float).max / 9
    ok = DissimilarityMap([[0.0, limit, 1.0], [limit, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert ok[0, 1] == limit
    too_big = np.nextafter(limit, np.inf)
    for exact in (False, True):
        with pytest.raises(ValueError, match=r"entry at \(0,2\) above 1\.997e\+307: sums over the map would overflow"):
            DissimilarityMap([[0.0, 1.0, too_big], [1.0, 0.0, 1.0], [too_big, 1.0, 0.0]], exact=exact)
    huge = 10**400  # an exact entry beyond any float
    with pytest.raises(ValueError, match=r"entry at \(0,1\) above"):
        DissimilarityMap([[0, huge], [huge, 0]])
    # faults found by the scan come first
    with pytest.raises(ValueError, match="negative entry"):
        DissimilarityMap([[0, huge, -1], [huge, 0, 1], [-1, 1, 0]])
