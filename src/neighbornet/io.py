"""File formats: PHYLIP square distance matrices, Nexus TAXA/SPLITS documents,
Newick output for the agglomeration tree, and line-delimited trace records.

Trace record schema (one JSON object per line, one line per merge step):

    step         0-based step index
    blocks       number of blocks before the merge
    q_pair       [r, s] block indices chosen by the Q criterion
    q            Q value at the chosen pair
    join         [i, j] taxa joined by the new edge
    q_hat        endpoint criterion value at the chosen join
    split_block  sorted taxa of the side of the step's split that holds
                 taxon 0: the complement of merged_path, or merged_path
                 itself when it holds taxon 0; null for the final merge
    merged_path  the merged block's path after the merge
    mu           taxon -> weight after the adjustment step, for the taxa of
                 merged_path; every other weight is as in the previous
                 record (initially 1), since no scheme changes it

Numeric fields are serialized as floats (exact values are rounded).
"""
from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

import numpy as np

from .agglomerate import AgglomerationTrace
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


def fmt_num(x) -> str:
    return f"{float(x):.6g}"


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
    off = np.flatnonzero(~(np.abs(np.diagonal(raw)) <= ASYM_REL_TOL))  # a nan is off too
    if off.size:
        raise InputError(f"nonzero diagonal for {labels[off[0]]}")
    with np.errstate(all="ignore"):  # inf and nan entries pass here; the map rejects them
        excess = np.abs(raw - raw.T) > ASYM_REL_TOL * np.fmax(1.0, np.fmax(np.abs(raw), np.abs(raw.T)))
        rows = (raw + raw.T) / 2
    asymmetric = np.argwhere(np.triu(excess, 1))
    if len(asymmetric):
        i, j = asymmetric[0]
        raise InputError(
            f"asymmetric entries at ({labels[i]}, {labels[j]}): {raw.item(i, j)} vs {raw.item(j, i)}"
        )
    np.fill_diagonal(rows, 0.0)
    return DissimilarityMap(rows), labels


def format_phylip(d: DissimilarityMap, labels: Sequence[str]) -> str:
    rows = d.array.astype(float).tolist()
    lines = [label + " " + " ".join(map(repr, row)) for label, row in zip(labels, rows)]
    return "\n".join([str(d.n)] + lines) + "\n"


# -- Nexus -------------------------------------------------------------------

def write_nexus(
    system: WeightedSplitSystem,
    labels: Sequence[str],
    cycle: Optional[CircularOrdering] = None,
) -> str:
    """Nexus document with a TAXA block and a SPLITS block.

    Each MATRIX line carries the weight of one split of the system (a
    positive one) and the 1-based members of the block not containing taxon
    1. The CYCLE statement is included when an ordering is supplied. A label
    holding a line break raises ValueError: TAXLABELS are read line by line.
    """
    n = system.n
    if len(labels) != n:
        raise ValueError("label count mismatch")
    broken = next((label for label in labels if "".join(label.splitlines()) != label), None)
    if broken is not None:
        raise ValueError(f"taxon label {broken!r} holds a line break")
    splits = sorted_splits(system.splits)
    out = ["#nexus", ""]
    out.append("BEGIN Taxa;")
    out.append(f"DIMENSIONS ntax={n};")
    out.append("TAXLABELS")
    for k, label in enumerate(labels, start=1):
        out.append(f"[{k}] {_quoted(label)}")
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


def _nexus_taxa(tokens, n: int, what: str) -> list:
    """0-based taxa from 1-based tokens, each in 1..n and none repeated."""
    try:
        taxa = [int(t) - 1 for t in tokens]
    except ValueError:
        raise InputError(f"non-integer taxon in {what}") from None
    bad = next((t + 1 for t in taxa if not 0 <= t < n), None)
    if bad is not None:
        raise InputError(f"taxon {bad} in {what} is outside 1..{n}")
    if len(set(taxa)) != len(taxa):
        raise InputError(f"repeated taxon in {what}")
    return taxa


def read_nexus_splits(text: str):
    """Parse a Nexus document written by write_nexus (labels, cycle, system).

    Every MATRIX member and CYCLE entry must be a taxon in 1..ntax, named
    once; a split block must be nonempty and not the whole taxon set; a CYCLE
    must list all ntax taxa; no split may be listed twice, from either side;
    weights must be finite nonnegative numbers. Anything else raises
    InputError. Lines of weight 0, which older versions wrote, are read and
    left out of the system.
    """
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
                    try:
                        n = int(piece.split("=")[1])
                    except ValueError:
                        raise InputError(f"bad taxon count {piece!r}") from None
            continue
        if upper.startswith("TAXLABELS"):
            mode = "taxa"
            continue
        if upper.startswith("CYCLE"):
            cycle = line.rstrip(";")[len("CYCLE"):].split()
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
            if len(label) > 1 and label[0] == label[-1] in "'\"":
                label = label[1:-1].replace(label[0] * 2, label[0])
            labels.append(label)
            continue
        if mode == "matrix":
            body = line.rstrip(",")
            if "]" in body:
                body = body.split("]", 1)[1]
            parts = body.split()
            if n is None:
                raise InputError("SPLITS matrix before DIMENSIONS")
            if not parts:
                raise InputError("empty MATRIX line")
            try:
                weight = float(parts[0])
            except ValueError:
                raise InputError(f"non-numeric split weight {parts[0]!r}") from None
            members = _nexus_taxa(parts[1:], n, "a MATRIX line")
            try:
                split = Split.of(members, n)
            except ValueError as exc:  # an empty or full block, or n < 3
                raise InputError(str(exc)) from None
            if split in weights:
                raise InputError(f"{split!r} listed twice in MATRIX")
            weights[split] = weight
    if n is None:
        raise InputError("missing DIMENSIONS ntax")
    if labels and len(labels) != n:
        raise InputError("label count mismatch")
    if cycle is not None:
        order = _nexus_taxa(cycle, n, "CYCLE")
        if len(order) != n:
            raise InputError(f"CYCLE lists {len(order)} taxa, expected all {n}")
        try:
            cycle = CircularOrdering(order)
        except ValueError as exc:  # fewer than three taxa
            raise InputError(str(exc)) from None
    try:
        system = WeightedSplitSystem(n, weights)
    except ValueError as exc:  # a negative or non-finite weight, or n < 3
        raise InputError(str(exc)) from None
    return labels, cycle, system


# -- Newick ------------------------------------------------------------------

def _quoted(label: str) -> str:
    """label in single quotes, each ' inside doubled: the Nexus and Newick rule."""
    return "'" + label.replace("'", "''") + "'"


def _newick_label(label: str) -> str:
    """label, quoted if it holds a Newick metacharacter."""
    return _quoted(label) if any(c in "()[]':;," for c in label) else label


def splits_to_newick(splits: Iterable[Split], labels: Sequence[str]) -> str:
    """Newick form of a pairwise compatible split set, rooted beside taxon 0;
    no branch lengths (the tree is combinatorial)."""
    labels = [_newick_label(label) for label in labels]
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

    return render(frozenset(range(len(labels))), [b for b in blocks if len(b) > 1]) + ";"


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
