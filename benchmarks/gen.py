"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the workload seed, so the
same seed gives the same inputs. The generators and the oracle metric below
use no code from the library: the benchmark's checks compare the library's
outputs against values computed here.

Taxa are 0..n-1. A circular split system is described in position space: the
hidden ordering ``order`` places taxon ``order[p]`` at position p, and the
split with arc ``(start, length)`` separates positions start..start+length-1
from the rest (start >= 1, so no arc holds position 0).
"""
from __future__ import annotations

import random
from fractions import Fraction


def random_map(rng: random.Random, n: int) -> list:
    """Symmetric matrix with zero diagonal and off-diagonal entries uniform in [0.2, 3]."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.uniform(0.2, 3.0)
    return rows


def euc2d_points(rng: random.Random, n: int) -> list:
    """n distinct points uniform in a 1000 x 1000 square."""
    points = set()
    while len(points) < n:
        points.add((round(rng.uniform(0, 1000), 3), round(rng.uniform(0, 1000), 3)))
    out = sorted(points)
    rng.shuffle(out)
    return out


def arcs(n: int):
    """The n(n-1)/2 circular splits of an n-cycle as position arcs (start, length),
    each bipartition once: the arc is the side that does not hold position 0."""
    for start in range(1, n):
        for length in range(1, n - start + 1):
            yield start, length


def circular_weights(rng: random.Random, n: int, exact: bool) -> tuple:
    """A hidden ordering and a positive weight for every circular split of it.

    Returns (order, weights) where weights maps an arc (start, length) to its
    weight: a Fraction with denominator 100 in [1/10, 2] when exact, else a
    float uniform in [0.1, 2].
    """
    order = list(range(n))
    rng.shuffle(order)
    weights = {}
    for arc in arcs(n):
        weights[arc] = Fraction(rng.randint(10, 200), 100) if exact else rng.uniform(0.1, 2.0)
    return order, weights


def arc_taxa(order, arc) -> list:
    start, length = arc
    return [order[p] for p in range(start, start + length)]


def arc_side(order, arc) -> frozenset:
    """The side of the arc's split that does not hold taxon 0."""
    side = frozenset(arc_taxa(order, arc))
    return side if 0 not in side else frozenset(range(len(order))) - side


def circular_metric(order, weights) -> list:
    """The split metric of a circular split system, in O(n^2) with prefix sums.

    For positions p < q, the arc [a, b] (1 <= a <= b <= n-1) separates them iff
    it holds exactly one of them, so d(p, q) = B(p, p) + B(q, q) - 2 B(p, q)
    with B(p, q) = sum of the weights of the arcs with a <= p and b >= q.
    """
    n = len(order)
    zero = next(iter(weights.values())) * 0
    w = [[zero] * n for _ in range(n)]
    for (start, length), value in weights.items():
        w[start][start + length - 1] = value
    # c[a][q] = sum over b >= q of w[a][b]; big[p][q] = sum over a <= p of c[a][q]
    c = [[zero] * (n + 1) for _ in range(n)]
    for a in range(n):
        for q in range(n - 1, -1, -1):
            c[a][q] = c[a][q + 1] + w[a][q]
    big = [[zero] * n for _ in range(n)]
    for q in range(n):
        acc = zero
        for p in range(n):
            acc += c[p][q]
            big[p][q] = acc
    rows = [[zero] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            value = big[p][p] + big[q][q] - 2 * big[p][q]
            rows[order[p]][order[q]] = rows[order[q]][order[p]] = value
    return rows


def perturb(rng: random.Random, rows, radius: float) -> list:
    """Add symmetric noise uniform in (-radius, radius) to every off-diagonal entry."""
    n = len(rows)
    out = [list(r) for r in rows]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = out[j][i] = rows[i][j] + rng.uniform(-radius, radius)
    return out


def labels(n: int) -> list:
    return [f"t{k}" for k in range(n)]


def phylip_text(rows) -> str:
    """Square PHYLIP matrix with labels t0..t{n-1}; floats round-trip through repr."""
    n = len(rows)
    names = labels(n)
    lines = [str(n)]
    for i in range(n):
        lines.append(names[i] + " " + " ".join(repr(float(v)) for v in rows[i]))
    return "\n".join(lines) + "\n"


def tsplib_text(points) -> str:
    lines = [
        "NAME : bench",
        "TYPE : TSP",
        f"DIMENSION : {len(points)}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
    ]
    for k, (x, y) in enumerate(points, start=1):
        lines.append(f"{k} {x!r} {y!r}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"
