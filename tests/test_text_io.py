"""The CLI's text I/O against the per-row code it replaced.

The PHYLIP reader parses with one np.loadtxt and falls back to a scan by
rows; a copy of the per-row reader it replaced is kept here as the oracle.
The split list and the Nexus MATRIX are formatted from chunks of rows whose
members come from one mask per chunk; the per-row formatting they replaced
is kept here too. The CLI opens its output files before the first print
and formats stdout and the Nexus file in one pass."""
import contextlib
import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neighbornet import cli, core
from neighbornet.agglomerate import run_neighbor_net
from neighbornet.cli import main
from neighbornet.core import (
    CircularOrdering,
    CircularSplits,
    DissimilarityMap,
    Split,
    WeightedSplitSystem,
    arc_splits,
    split_arcs,
    upper_pairs,
)
from neighbornet.io import ASYM_REL_TOL, InputError, _quoted, fmt_num, read_phylip_distances, write_nexus
from conftest import format_phylip, random_dissimilarity


# -- the per-row PHYLIP reader, as it was before np.loadtxt -------------------

def per_row_reader(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty distance file")
    head = lines[0].split()
    if len(head) != 1:
        raise InputError("first line must contain only the taxon count")
    try:
        n = int(head[0])
    except ValueError:
        raise InputError(f"bad taxon count {head[0]!r}") from None
    if n < 1:
        raise InputError("taxon count must be positive")
    if len(lines) - 1 != n:
        raise InputError(f"expected {n} matrix rows, found {len(lines) - 1}")
    labels = []
    raw = []
    for ln in lines[1:]:
        parts = ln.split()
        label, values = parts[0], parts[1:]
        if len(values) != n:
            raise InputError(
                f"square matrix required: row {label!r} has {len(values)} entries, expected {n}"
            )
        try:
            raw.append(list(map(float, values)))
        except ValueError:
            raise InputError(f"non-numeric entry in row {label!r}") from None
        labels.append(label)
    if len(set(labels)) != n:
        raise InputError("duplicate taxon labels")
    raw = np.array(raw)
    negative = np.argwhere(raw < 0)
    if len(negative):
        i, j = negative[0]
        raise InputError(f"negative distance at ({labels[i]}, {labels[j]})")
    off = np.flatnonzero(~(np.abs(np.diagonal(raw)) <= ASYM_REL_TOL))
    if off.size:
        raise InputError(f"nonzero diagonal for {labels[off[0]]}")
    with np.errstate(all="ignore"):
        excess = np.abs(raw - raw.T) > ASYM_REL_TOL * np.fmax(1.0, np.fmax(np.abs(raw), np.abs(raw.T)))
        rows = (raw + raw.T) / 2
        rows = np.where(np.isinf(rows), raw / 2 + raw.T / 2, rows)
    asymmetric = np.argwhere(np.triu(excess, 1))
    if len(asymmetric):
        i, j = asymmetric[0]
        raise InputError(
            f"asymmetric entries at ({labels[i]}, {labels[j]}): {raw.item(i, j)} vs {raw.item(j, i)}"
        )
    np.fill_diagonal(rows, 0.0)
    return DissimilarityMap(rows), labels


def outcome(reader, text):
    """The map's bits and the labels, or the error's type and message."""
    try:
        d, labels = reader(text)
    except ValueError as exc:  # InputError, or the map refusing an entry
        return type(exc).__name__, str(exc)
    return d.array.dtype, d.array.tobytes(), labels


# tokens numpy and float may read differently: float alone takes 1_0 and
# non-ASCII digits; neither takes #, a BOM inside a row or a hex float
ODD_TOKENS = [
    "+1.5", "1_0", "1_000.5", "inf", "-inf", "+inf", "Infinity", "nan", "NaN", "-nan", "#", "#1", "1e400",
    "-0", "-0.0", ".5", "5.", "1e-400", "0x10", "1,5", "\u0661\u0662", "\u0663.\u0665", "\uff11", "\ufeff1",
    "1\ufeff", "e5", "1e", "--1", "1.5d0", "True", "",
]
SEPARATORS = [" ", "\t", "  ", " \t ", "\xa0", "\u3000", "\u2000", "\x1f"]


def rarely(common, weight: int, *odd):
    """common in weight draws out of weight + len(odd), and each of odd in
    one; common comes first, so shrinking tends to it."""
    return st.sampled_from([common] * weight + list(odd))


@st.composite
def phylip_texts(draw):
    """A PHYLIP text near the valid ones: a symmetric matrix written with
    assorted separators and number forms, some entries swapped for odd
    tokens, some rows ragged or label-only, CRLF or LF, a BOM, a comment."""
    n = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=n * n, max_size=n * n))
    names = st.sampled_from(["a", "b", "c", "d", "e", "f", "t1", "\u00c5"])
    labels = draw(st.lists(names, min_size=n, max_size=n, unique=draw(rarely(True, 9, False))))
    forms = [repr, str, lambda v: f"{v:.3g}", lambda v: f"{v:.17e}", lambda v: str(int(v)), lambda v: f"+{v!r}"]
    rows = []
    for i in range(n):
        tokens = []
        for j in range(n):
            v = 0.0 if i == j else values[min(i, j) * n + max(i, j)]
            tokens.append(draw(st.sampled_from(forms))(v))
            if draw(rarely(False, 4 * n, True)):
                tokens[-1] = draw(st.sampled_from(ODD_TOKENS))
        shape = draw(rarely("full", 6 * n, "label only", "short", "long"))
        if shape == "label only":
            tokens = []
        elif shape == "short":
            tokens = tokens[:-1]
        elif shape == "long":
            tokens.append("1")
        sep = draw(st.sampled_from(SEPARATORS))
        row = labels[i] + draw(st.sampled_from(SEPARATORS)) + sep.join(t for t in tokens if t)
        row += draw(rarely("", 10, "  # note", " #", "\t", " ", "\x1f"))
        rows.append(row)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    head = draw(rarely(str(n), 6, f"  {n}  ", str(n + 1), "\ufeff" + str(n)))
    return draw(rarely("", 9, "\ufeff")) + end.join([head, *rows]) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phylip_texts())
def test_reader_matches_the_per_row_reader(text):
    assert outcome(read_phylip_distances, text) == outcome(per_row_reader, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789 .e+-_\t\n\r#abinf\u0661\xa0\ufeff", max_size=80))
def test_reader_matches_the_per_row_reader_on_any_text(text):
    assert outcome(read_phylip_distances, text) == outcome(per_row_reader, text)


@pytest.mark.parametrize("rows, expected", [
    ("a 0 1 2|b 1 0 3|c 2 3 0", [[0, 1, 2], [1, 0, 3], [2, 3, 0]]),
    ("a\t0\t1_0\t2|b 1_0 0 3|c 2 3 0", [[0, 10, 2], [10, 0, 3], [2, 3, 0]]),
    ("a 0 \u0661 2|b 1 0 \u0663|c 2 3 0", [[0, 1, 2], [1, 0, 3], [2, 3, 0]]),
    ("a 0 1|b 1 0 3|c 2 3 0", "square matrix required: row 'a' has 2 entries, expected 3"),
    ("a 0 1 2|b|c 2 3 0", "square matrix required: row 'b' has 0 entries, expected 3"),
    ("a|b|c", "square matrix required: row 'a' has 0 entries, expected 3"),
    ("a 0 1 2|b 1 0 #|c 2 3 0 4", "non-numeric entry in row 'b'"),
    ("a 0 1 2 # a comment|b 1 0 3|c 2 3 0", "square matrix required: row 'a' has 6 entries, expected 3"),
])
def test_reader_falls_back_to_the_rows(rows, expected):
    text = "3\r\n" + rows.replace("|", "\r\n") + "\r\n"
    if isinstance(expected, str):
        with pytest.raises(InputError, match=f"^{expected}$"):
            read_phylip_distances(text)
    else:
        d, labels = read_phylip_distances(text)
        assert labels == ["a", "b", "c"] and d.array.tolist() == expected
    assert outcome(read_phylip_distances, text) == outcome(per_row_reader, text)


def test_reader_reads_what_it_writes_bit_for_bit():
    rng = random.Random(3)
    for n in (1, 2, 5, 40):
        d = random_dissimilarity(rng, n) if n > 1 else DissimilarityMap([[0.0]])
        text = format_phylip(d, [f"t{k}" for k in range(n)])
        assert outcome(read_phylip_distances, text) == outcome(per_row_reader, text)
        assert read_phylip_distances(text)[0].array.tobytes() == d.array.tobytes()


# -- the per-row writers, as they were before the row chunks -----------------

def reference_rows(system):
    """(weight, members) by block size, then by the block's sorted taxa."""
    ordered = sorted(system.splits, key=lambda s: (len(s.block), sorted(s.block)))
    return [(system.weight(s), sorted(s.other)) for s in ordered]


def reference_listing(system, labels, show_weights=True):
    return "".join(
        (f"  {fmt_num(weight)} \t " if show_weights else "  ") + "{" + ",".join([labels[t] for t in members]) + "}\n"
        for weight, members in reference_rows(system)
    )


def reference_nexus(system, labels, cycle=None):
    n = system.n
    out = ["#nexus", "", "BEGIN Taxa;", f"DIMENSIONS ntax={n};", "TAXLABELS"]
    out += [f"[{k}] {_quoted(label)}" for k, label in enumerate(labels, start=1)]
    out += [";", "END; [Taxa]", "", "BEGIN Splits;", f"DIMENSIONS ntax={n} nsplits={len(system)};"]
    out.append("FORMAT labels=no weights=yes confidences=no intervals=no;")
    if cycle is not None:
        out.append("PROPERTIES fit=-1.0 cyclic;")
        out.append("CYCLE " + " ".join(str(t + 1) for t in cycle.canonical().order) + ";")
    else:
        out.append("PROPERTIES fit=-1.0;")
    out.append("MATRIX")
    matrix = [
        f"[{k}, size={len(members)}] \t {float(weight)!r} \t {' '.join(str(t + 1) for t in members)},\n"
        for k, (weight, members) in enumerate(reference_rows(system), start=1)
    ]
    return "\n".join(out) + "\n" + "".join(matrix) + ";\nEND; [Splits]\n"


def random_systems(rng: random.Random, n: int):
    """Float and exact systems of each type: a random share of the arcs of a
    random ordering, and random splits of n taxa."""
    perm = list(range(n))
    rng.shuffle(perm)
    ordering = CircularOrdering(perm)
    starts, ends = upper_pairs(n)
    keep = sorted(rng.sample(range(starts.size), rng.randint(1, starts.size)))
    starts, ends = starts[keep], ends[keep]
    floats = [rng.uniform(1e-3, 1e3) * (0 if rng.random() < 0.1 else 1) for _ in keep]
    numerators = np.array([rng.randint(0, 10**20) for _ in keep], dtype=object)
    yield ordering, CircularSplits(ordering, starts, ends, floats)
    yield ordering, CircularSplits(ordering, starts, ends, numerators, rng.randint(1, 999))
    blocks = {frozenset({0, *rng.sample(range(1, n), rng.randint(0, n - 2))}) for _ in range(rng.randint(0, 3 * n))}
    for exact in (False, True):
        weights = {Split(n, b): Fraction(rng.randint(0, 99), rng.randint(1, 7)) if exact else rng.uniform(0, 5)
                   for b in blocks}
        yield None, WeightedSplitSystem(n, weights)


def both_outputs(system, labels, ordering, show_weights=True):
    """stdout and the Nexus file of one _write_splits pass, and stdout of a
    pass without a Nexus file."""
    out, nexus = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_splits(system, labels, ordering, nexus, show_weights)
    alone = io.StringIO()
    with contextlib.redirect_stdout(alone):
        cli._write_splits(system, labels, ordering, None, show_weights)
    return out.getvalue(), nexus.getvalue(), alone.getvalue()


@pytest.mark.parametrize("chunk_cells", [core.CHUNK_CELLS, 200, 1])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 24, 63, 64, 65, 70])
def test_writers_match_the_per_row_formatting(n, chunk_cells, monkeypatch):
    monkeypatch.setattr(core, "CHUNK_CELLS", chunk_cells)
    rng = random.Random(f"writers/{n}")
    labels = [rng.choice(["t", "x'", "\u00c5", "long_label_"]) + str(k) for k in range(n)]
    for ordering, system in random_systems(rng, n):
        expected = reference_listing(system, labels)
        assert both_outputs(system, labels, ordering) == (expected, reference_nexus(system, labels, ordering), expected)
        plain = reference_listing(system, labels, show_weights=False)
        assert both_outputs(system, labels, ordering, False)[::2] == (plain, plain)
        assert list(system.rows()) == reference_rows(system)


def test_rows_span_several_chunks(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_CELLS", 64)
    ordering = CircularOrdering(range(40))
    system = CircularSplits(ordering, *upper_pairs(40), np.ones(780))
    chunks = list(system.row_chunks())
    assert len(chunks) == 780 // (64 // 40) and all(len(values) == 1 for values, _, _ in chunks)
    monkeypatch.setattr(core, "CHUNK_CELLS", 40 * 100)
    sizes = [len(values) for values, _, _ in system.row_chunks()]
    assert sizes == [100] * 7 + [80]
    assert [(w, m) for w, m in system.rows()] == reference_rows(system)


def test_nexus_matches_the_per_row_writer_without_a_cycle():
    rng = random.Random(5)
    for _, system in random_systems(rng, 12):
        labels = [f"t{k}" for k in range(12)]
        buffer = io.StringIO()
        write_nexus(system, labels, fh=buffer)
        assert buffer.getvalue() == reference_nexus(system, labels)


# -- tree splits as arcs, and the unchecked Split ----------------------------

@pytest.mark.parametrize("n", [3, 4, 7, 30])
def test_tree_splits_are_arcs_of_the_ordering(n):
    rng = random.Random(n)
    for _ in range(5):
        result = run_neighbor_net(random_dissimilarity(rng, n))
        tree = list(dict.fromkeys(result.tree_splits))
        starts, ends = split_arcs(result.ordering, tree)
        assert ((0 <= starts) & (starts < ends) & (ends <= n - 1)).all()
        assert arc_splits(result.ordering, starts, ends) == tree


def test_split_arcs_refuses_a_split_off_the_ordering():
    ordering = CircularOrdering([0, 2, 1, 3, 4])
    assert [a.tolist() for a in split_arcs(ordering, [Split.of({0, 2}, 5), Split.of({3}, 5)])] == [[0, 3], [2, 4]]
    with pytest.raises(ValueError, match="^a split is not circular for the ordering$"):
        split_arcs(ordering, [Split.of({3}, 5), Split.of({0, 1}, 5)])


def test_unchecked_splits_equal_checked_ones():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(3, 12)
        side = {0, *rng.sample(range(1, n), rng.randint(0, n - 2))}
        made = Split._unchecked(n, frozenset(side))
        assert made == Split(n, frozenset(side)) == Split.of(set(range(n)) - side, n)
        assert hash(made) == hash(Split.of(side, n)) and repr(made) == repr(Split.of(side, n))
    with pytest.raises(ValueError):
        Split.of({1, 2}, 2)  # Split.of keeps every check


def test_tree_output_is_a_circular_system(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "CircularSplits", lambda *args: built.append(CircularSplits(*args)) or built[-1])
    d = random_dissimilarity(random.Random(4), 9)
    path = tmp_path / "m.phy"
    path.write_text(format_phylip(d, [f"t{k}" for k in range(9)]))
    assert main(["nnet", str(path)]) == 0
    out = capsys.readouterr().out
    result = run_neighbor_net(d)
    assert len(built) == 1 and built[0].splits == frozenset(result.tree_splits)
    assert f"splits ({len(set(result.tree_splits))}):\n" in out


# -- one pass, and files opened before the first print ----------------------

def test_one_nexus_run_makes_each_rows_members_once(tmp_path, capsys, monkeypatch):
    made = []
    chunks = core._chunks

    def counting(order, n, part):
        for chunk in chunks(order, n, part):
            made.append(len(chunk[0]))
            yield chunk

    monkeypatch.setattr(core, "_chunks", counting)
    monkeypatch.setattr(core, "CHUNK_CELLS", 100)  # several chunks
    d = random_dissimilarity(random.Random(11), 12)
    path, nexus = tmp_path / "m.phy", tmp_path / "m.nex"
    path.write_text(format_phylip(d, [f"t{k}" for k in range(12)]))
    assert main(["nnet", str(path), "--estimate", "nnls", "--nexus", str(nexus)]) == 0
    out = capsys.readouterr().out
    rows = int(out.splitlines()[1].removeprefix("splits (").removesuffix("):"))
    assert len(made) > 1 and sum(made) == rows > 0
    assert nexus.read_text().count(" \t ") == 2 * rows and out.count("{") == rows


@pytest.mark.parametrize("argv", [
    ["nnet", "{phy}", "--nexus", "{bad}"],
    ["nnet", "{phy}", "--estimate", "nnls", "--nexus", "{bad}"],
    ["nnet", "{phy}", "--trace", "{bad}"],
    ["nnet", "{phy}", "--nexus", "{good}", "--trace", "{bad}"],
    ["estimate", "{phy}", "--nexus", "{bad}"],
])
def test_an_unwritable_output_path_leaves_stdout_empty(tmp_path, capsys, argv):
    phy = tmp_path / "m.phy"
    phy.write_text(format_phylip(random_dissimilarity(random.Random(2), 6), list("abcdef")))
    paths = {"phy": phy, "bad": tmp_path / "no" / "such" / "dir" / "x.out", "good": tmp_path / "x.nex"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 2] No such file or directory")
