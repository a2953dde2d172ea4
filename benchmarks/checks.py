"""Output checks. Each check raises CheckFailed with a reason, or returns None.

The checks recompute what they compare against from the generated inputs
(see gen.py) rather than trusting library helpers. The one library function
they use is the Nexus reader, because re-reading the written file through it
is part of what is checked.
"""
from __future__ import annotations

import json
import math

import numpy as np
from neighbornet.io import read_nexus_splits

from gen import arc_side, arcs, circular_metric, labels


class CheckFailed(AssertionError):
    pass


def fail(message: str):
    raise CheckFailed(message)


def canonical_cycle(order) -> tuple:
    """Dihedral canonical form: taxon 0 first, then the smaller neighbour second."""
    seq = list(order)
    k = seq.index(0)
    seq = seq[k:] + seq[:k]
    if len(seq) >= 3 and seq[1] > seq[-1]:
        seq = [seq[0]] + seq[:0:-1]
    return tuple(seq)


def check_permutation(order, n: int, what: str):
    if sorted(order) != list(range(n)):
        fail(f"{what} is not a permutation of the {n} taxa")


def is_arc(side, cycle) -> bool:
    """True iff the taxa of side occupy consecutive positions of the cycle."""
    n = len(cycle)
    pos = {t: p for p, t in enumerate(cycle)}
    held = {pos[t] for t in side}
    return sum(1 for p in held if (p - 1) % n not in held) == 1


def compatible(a: frozenset, b: frozenset, n: int) -> bool:
    return not (a & b) or not (a - b) or not (b - a) or len(a | b) == n


def printed_line(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    fail(f"no {prefix!r} line in the output")


def check_exit(code, stderr: str):
    if code != 0:
        fail(f"exit code {code}: {stderr.strip()[:200]}")


def read_nexus(text: str, n: int):
    """Re-read a Nexus document through the library reader; returns
    (cycle, {side not holding taxon 0: weight})."""
    try:
        names, cycle, system = read_nexus_splits(text)
    except ValueError as exc:
        fail(f"Nexus output does not re-read: {exc}")
    if cycle is None:
        fail("Nexus output has no CYCLE")
    cycle = list(cycle.order)
    check_permutation(cycle, n, "CYCLE")
    if names != labels(n):
        fail("Nexus taxon labels differ from the input labels")
    return cycle, {frozenset(s.other): w for s, w in system.items()}


def check_tree_output(nexus: str, trace: str, stdout: str, n: int):
    """nnet without --estimate: the splits of a fully resolved tree, pairwise
    compatible and each an arc of the CYCLE; the trace has one JSON line per
    merge (n-1); the printed ordering is the CYCLE.

    The n-2 merges that leave a proper subset record n-2 splits, but the
    merge at three blocks repeats the bipartition of the block it leaves out,
    so the distinct splits are the n-3 nontrivial splits of a binary tree,
    plus one trivial split when that block is a single taxon."""
    cycle, weights = read_nexus(nexus, n)
    sides = list(weights)
    nontrivial = sum(1 for side in sides if 2 <= len(side) <= n - 2)
    if nontrivial != n - 3 or len(sides) - nontrivial > 1:
        fail(f"{nontrivial} nontrivial and {len(sides) - nontrivial} trivial splits; "
             f"expected {n - 3} and at most 1")
    for side in sides:
        if not is_arc(side, cycle):
            fail(f"split {sorted(side)} is not circular with respect to the CYCLE")
    for k, a in enumerate(sides):
        for b in sides[k + 1:]:
            if not compatible(a, b, n):
                fail(f"splits {sorted(a)} and {sorted(b)} are incompatible")
    lines = [ln for ln in trace.splitlines() if ln.strip()]
    if len(lines) != n - 1:
        fail(f"{len(lines)} trace lines, expected {n - 1}")
    for ln in lines:
        try:
            record = json.loads(ln)
        except json.JSONDecodeError:
            fail("trace line is not JSON")
        if not isinstance(record, dict):
            fail("trace line is not a JSON object")
    printed = [int(t[1:]) for t in printed_line(stdout, "ordering:").split()]
    check_permutation(printed, n, "printed ordering")
    if canonical_cycle(printed) != canonical_cycle(cycle):
        fail("printed ordering differs from the Nexus CYCLE")


def check_tsp_output(stdout: str, points):
    """The printed length is the length of the printed tour, recomputed from
    the coordinates (to the 6 significant digits the CLI prints)."""
    n = len(points)
    tour = [int(t) - 1 for t in printed_line(stdout, "tour:").split()]
    check_permutation(tour, n, "tour")
    printed = float(printed_line(stdout, "length:"))
    length = sum(
        math.dist(points[tour[k]], points[tour[(k + 1) % n]]) for k in range(n)
    )
    if not abs(printed - length) <= 1e-5 * length:
        fail(f"printed length {printed} but the tour is {length:.6g} long")


def arc_sums(cycle, matrix):
    """For every arc of gen.arcs(n), in that order, the sum of matrix entries
    over the pairs the arc separates: the transposed circular-split design
    matrix applied to a pair vector, in O(n^2) with prefix sums, so the check
    never holds a dense design matrix (it would add to peak_rss_mb)."""
    n = len(cycle)
    r = np.asarray(matrix, dtype=float)[np.ix_(cycle, cycle)]
    rows = np.concatenate([[0.0], np.cumsum(r.sum(axis=1))])
    block = np.zeros((n + 1, n + 1))
    block[1:, 1:] = r.cumsum(axis=0).cumsum(axis=1)
    a, b = np.triu_indices(n - 1)
    a, b = a + 1, b + 2
    inside = block[b, b] - block[a, b] - block[b, a] + block[a, a]
    return rows[b] - rows[a] - inside


def kkt_violation(cycle, weights, rows):
    """(violation, scale) of the NNLS optimality conditions for the given
    weights over all circular splits of the cycle, for min ||A x - d||."""
    sides = {arc: arc_side(cycle, arc) for arc in arcs(len(cycle))}
    if not set(weights) <= set(sides.values()):
        fail("some weighted splits are not circular with respect to the CYCLE")
    x = {arc: float(weights.get(side, 0.0)) for arc, side in sides.items()}
    d = np.asarray(rows, dtype=float)
    grad = arc_sums(cycle, np.asarray(circular_metric(cycle, x)) - d)
    x = np.array(list(x.values()))
    viol = float(np.max(np.where(x > 0, np.abs(grad), np.maximum(0.0, -grad))))
    scale = max(1.0, float(np.abs(arc_sums(cycle, d)).max()))
    return viol, scale


def check_fit_output(nexus: str, rows, kkt_tol: float, hidden=None):
    """nnet --estimate nnls: weights are >= 0 and satisfy the KKT conditions
    within the library's acceptance threshold (10 * tol * scale); with a
    hidden ordering, the CYCLE is that ordering."""
    n = len(rows)
    cycle, weights = read_nexus(nexus, n)
    negative = [w for w in weights.values() if not w >= 0]
    if negative:
        fail(f"{len(negative)} negative or non-finite weights, e.g. {negative[0]}")
    viol, scale = kkt_violation(cycle, weights, rows)
    if not viol <= 10 * kkt_tol * scale:
        fail(f"KKT violation {viol:.3g} above {10 * kkt_tol * scale:.3g}")
    if hidden is not None and canonical_cycle(cycle) != canonical_cycle(hidden):
        fail("the hidden ordering was not recovered")


def check_recovery(out: dict, hidden_order, hidden_weights: dict, oracle_rows):
    """Exact pipeline: the metric equals the oracle entry by entry, the map is
    Kalmanson for the found ordering, the ordering is the hidden one, and the
    lambda formula gives back every hidden weight exactly."""
    n = len(hidden_order)
    metric = out["metric"]
    for i in range(n):
        for j in range(n):
            if metric[i, j] != oracle_rows[i][j]:
                fail(f"metric entry ({i},{j}) is {metric[i, j]}, expected {oracle_rows[i][j]}")
    if out["kalmanson"] is not True:
        fail("map not Kalmanson for the found ordering")
    order = list(out["ordering"].order)
    check_permutation(order, n, "ordering")
    if canonical_cycle(order) != canonical_cycle(hidden_order):
        fail("the hidden ordering was not recovered")
    lam = {frozenset(s.other): w for s, w in out["lambda"].items()}
    if set(lam) != set(hidden_weights):
        fail("lambda splits differ from the hidden splits")
    for side, w in hidden_weights.items():
        got = lam[side]
        if isinstance(got, float) or got != w:
            fail(f"weight of {sorted(side)} is {got!r}, expected {w}")
