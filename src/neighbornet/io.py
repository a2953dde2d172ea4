"""File formats: PHYLIP square distance matrices, Nexus TAXA/SPLITS documents,
Newick output for the agglomeration tree, and line-delimited trace records.

Trace record schema (one JSON object per line, one line per merge step):

    step         0-based step index
    blocks       number of blocks before the merge
    q_pair       [r, s] block indices chosen by the Q criterion
    q            Q value at the chosen pair
    join         [i, j] taxa joined by the new edge
    q_hat        endpoint criterion value at the chosen join
    split_block  sorted taxa of the merged side, or null for the final merge
    merged_path  the merged block's path after the merge
    mu           taxon -> weight after the adjustment step

Numeric fields are serialized as floats (exact values are rounded).
"""
from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence, Union

from .agglomerate import AgglomerationTrace, NeighborNetResult
from .core import (
    CircularOrdering,
    DissimilarityMap,
    Split,
    WeightedSplitSystem,
    sorted_splits,
)

ASYM_REL_TOL = 1e-6


class InputError(ValueError):
    """Malformed user input (file contents, flags); maps to exit code 1."""


def fmt_num(x, sig: int = 6) -> str:
    return f"{float(x):.{sig}g}"


# -- PHYLIP ------------------------------------------------------------------

def read_phylip_distances(text: str):
    """Parse a square PHYLIP distance matrix; returns (map, labels).

    Within-tolerance asymmetry (relative 1e-6, with an absolute floor for
    near-zero entries) is averaged away; anything larger is an error.
    """
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
            row = [float(v) for v in values]
        except ValueError:
            raise InputError(f"non-numeric entry in row {label!r}") from None
        labels.append(label)
        raw.append(row)
    if len(set(labels)) != n:
        raise InputError("duplicate taxon labels")
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
                raise InputError(
                    f"asymmetric entries at ({labels[i]}, {labels[j]}): {a} vs {b}"
                )
            rows[i][j] = rows[j][i] = (a + b) / 2
    return DissimilarityMap(rows), labels


def format_phylip(d: DissimilarityMap, labels: Sequence[str]) -> str:
    lines = [str(d.n)]
    for i, label in enumerate(labels):
        lines.append(label + " " + " ".join(repr(float(d[i, j])) for j in range(d.n)))
    return "\n".join(lines) + "\n"


# -- Nexus -------------------------------------------------------------------

def _split_system_of(obj) -> WeightedSplitSystem:
    if isinstance(obj, WeightedSplitSystem):
        return obj
    if isinstance(obj, NeighborNetResult):
        return WeightedSplitSystem(
            obj.ordering.n, {s: 1.0 for s in obj.tree_splits}
        )
    raise TypeError("expected a WeightedSplitSystem or NeighborNetResult")


def write_nexus(
    obj: Union[WeightedSplitSystem, NeighborNetResult],
    labels: Sequence[str],
    cycle: Optional[CircularOrdering] = None,
) -> str:
    """Nexus document with a TAXA block and a SPLITS block.

    Each MATRIX line carries the split weight and the 1-based members of the
    block not containing taxon 1. The CYCLE statement is included when an
    ordering is supplied (a NeighborNetResult brings its own).
    """
    system = _split_system_of(obj)
    if isinstance(obj, NeighborNetResult) and cycle is None:
        cycle = obj.ordering
    n = system.n
    if len(labels) != n:
        raise ValueError("label count mismatch")
    splits = sorted_splits(system.splits)
    out = ["#nexus", ""]
    out.append("BEGIN Taxa;")
    out.append(f"DIMENSIONS ntax={n};")
    out.append("TAXLABELS")
    for k, label in enumerate(labels, start=1):
        out.append(f"[{k}] '{label}'")
    out.append(";")
    out.append("END; [Taxa]")
    out.append("")
    out.append("BEGIN Splits;")
    out.append(f"DIMENSIONS ntax={n} nsplits={len(splits)};")
    out.append("FORMAT labels=no weights=yes confidences=no intervals=no;")
    if cycle is not None:
        out.append("PROPERTIES fit=-1.0 cyclic;")
        out.append("CYCLE " + " ".join(str(t + 1) for t in cycle.canonical().order) + ";")
    else:
        out.append("PROPERTIES fit=-1.0;")
    out.append("MATRIX")
    for k, s in enumerate(splits, start=1):
        members = sorted(t + 1 for t in s.other)
        weight = repr(float(system.weight(s)))
        out.append(f"[{k}, size={len(members)}] \t {weight} \t " + " ".join(map(str, members)) + ",")
    out.append(";")
    out.append("END; [Splits]")
    return "\n".join(out) + "\n"


def read_nexus_splits(text: str):
    """Parse a Nexus document written by write_nexus (labels, cycle, system)."""
    labels = []
    cycle = None
    n = None
    weights = {}
    mode = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("DIMENSIONS"):
            for piece in line.rstrip(";").split():
                if piece.lower().startswith("ntax="):
                    n = int(piece.split("=")[1])
            continue
        if upper.startswith("TAXLABELS"):
            mode = "taxa"
            continue
        if upper.startswith("CYCLE"):
            body = line.rstrip(";")[len("CYCLE"):].strip()
            cycle = CircularOrdering([int(t) - 1 for t in body.split()])
            continue
        if upper.startswith("MATRIX"):
            mode = "matrix"
            continue
        if line == ";":
            mode = None
            continue
        if mode == "taxa":
            label = line
            if "]" in label:
                label = label.split("]", 1)[1].strip()
            labels.append(label.strip("'\""))
            continue
        if mode == "matrix":
            body = line.rstrip(",")
            if "]" in body:
                body = body.split("]", 1)[1]
            parts = body.split()
            weight = float(parts[0])
            members = [int(t) - 1 for t in parts[1:]]
            if n is None:
                raise InputError("SPLITS matrix before DIMENSIONS")
            weights[Split.of(members, n)] = weight
    if n is None:
        raise InputError("missing DIMENSIONS ntax")
    if labels and len(labels) != n:
        raise InputError("label count mismatch")
    try:
        system = WeightedSplitSystem(n, weights)
    except ValueError as exc:  # a negative or non-finite weight
        raise InputError(str(exc)) from None
    return labels, cycle, system


# -- Newick ------------------------------------------------------------------

def splits_to_newick(splits: Iterable[Split], labels: Sequence[str]) -> str:
    """Newick form of a pairwise compatible split set, rooted beside taxon 0;
    no branch lengths (the tree is combinatorial)."""
    splits = list(splits)
    if not splits:
        members = ",".join(labels)
        return f"({members});"
    n = splits[0].n
    blocks = {s.other for s in splits}

    def render(universe, available):
        maximal = []
        for b in sorted(available, key=len, reverse=True):
            if b < universe and not any(b < m for m in maximal):
                maximal.append(b)
        covered = set().union(*maximal) if maximal else set()
        children = []
        for b in maximal:
            inner = [x for x in available if x < b]
            children.append((min(b), render(b, inner)))
        for t in sorted(universe - covered):
            children.append((t, labels[t]))
        children.sort()
        return "(" + ",".join(c for _, c in children) + ")"

    return render(frozenset(range(n)), [b for b in blocks if len(b) > 1]) + ";"


# -- traces ------------------------------------------------------------------

def trace_records(trace: AgglomerationTrace) -> list:
    records = []
    for t, step in enumerate(trace.steps):
        records.append(
            {
                "step": t,
                "blocks": step.m,
                "q_pair": list(step.pair),
                "q": float(step.q_value),
                "join": list(step.endpoints),
                "q_hat": float(step.q_hat_value),
                "split_block": sorted(step.split.block) if step.split else None,
                "merged_path": list(step.merged_block),
                "mu": {str(t_): float(v) for t_, v in sorted(step.mu.items())},
            }
        )
    return records


def write_trace_jsonl(trace: AgglomerationTrace, path) -> None:
    with open(path, "w") as fh:
        for record in trace_records(trace):
            fh.write(json.dumps(record) + "\n")
