"""Shared generators for randomized oracle tests. Everything is seeded by the
caller so failures reproduce exactly."""
from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction

from neighbornet.core import (
    CircularOrdering,
    DissimilarityMap,
    Split,
    WeightedSplitSystem,
    all_circular_splits,
    metric_from_splits,
    upper_pairs,
)
from neighbornet.weights import DesignMatrix


def random_circular_instance(rng: random.Random, n: int, exact: bool = False,
                             lo: float = 0.1, hi: float = 2.0):
    """A random ordering with positive weights on all its circular splits,
    and the induced circular decomposable metric."""
    perm = list(range(n))
    rng.shuffle(perm)
    pi = CircularOrdering(perm)
    if exact:
        lo_c, hi_c = int(round(lo * 100)), int(round(hi * 100))
        weights = {s: Fraction(rng.randint(lo_c, hi_c), 100) for s in all_circular_splits(pi)}
    else:
        weights = {s: rng.uniform(lo, hi) for s in all_circular_splits(pi)}
    system = WeightedSplitSystem(n, weights)
    return pi, system, metric_from_splits(system)


def random_arc_design(rng: random.Random, ordering: CircularOrdering, k: int) -> DesignMatrix:
    """The design of k distinct arcs of the ordering, drawn at random and
    kept in the order drawn."""
    starts, ends = upper_pairs(ordering.n)
    picked = rng.sample(range(len(starts)), k)
    return DesignMatrix(ordering, starts[picked], ends[picked])


def random_dissimilarity(rng: random.Random, n: int, exact: bool = False,
                         lo: float = 0.2, hi: float = 3.0) -> DissimilarityMap:
    zero = Fraction(0) if exact else 0.0
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if exact:
                v = Fraction(rng.randint(int(lo * 100), int(hi * 100)), 100)
            else:
                v = rng.uniform(lo, hi)
            rows[i][j] = rows[j][i] = v
    return DissimilarityMap(rows)


def random_tree_instance(rng: random.Random, n: int, exact: bool = False):
    """A random unrooted binary tree on leaves 0..n-1 with positive branch
    lengths: returns (additive metric, all splits, internal splits)."""
    if n < 4:
        raise ValueError("n >= 4 for a tree with internal structure")

    def branch():
        return Fraction(rng.randint(25, 400), 100) if exact else rng.uniform(0.25, 4.0)

    adj = defaultdict(dict)

    def add(a, b):
        w = branch()
        adj[a][b] = w
        adj[b][a] = w

    nxt = n
    hub = nxt
    nxt += 1
    for leaf in (0, 1, 2):
        add(leaf, hub)
    for leaf in range(3, n):
        edges = [(a, b) for a in sorted(adj) for b in sorted(adj[a]) if a < b]
        a, b = rng.choice(edges)
        mid = nxt
        nxt += 1
        del adj[a][b]
        del adj[b][a]
        add(a, mid)
        add(mid, b)
        add(leaf, mid)

    zero = Fraction(0) if exact else 0.0
    rows = [[zero] * n for _ in range(n)]
    for src in range(n):
        dist = {src: zero}
        stack = [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u].items():
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        for j in range(src + 1, n):
            rows[src][j] = rows[j][src] = dist[j]
    d = DissimilarityMap(rows)

    def leaves_beyond(a, b):
        """Leaves in the component of b after cutting edge (a, b)."""
        seen = {a, b}
        stack = [b]
        out = set()
        while stack:
            u = stack.pop()
            if u < n:
                out.add(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return out

    splits = set()
    for a in adj:
        for b in adj[a]:
            if a < b:
                side = leaves_beyond(a, b)
                if 0 < len(side) < n:
                    splits.add(Split.of(side, n))
    internal = frozenset(s for s in splits if len(s.block) >= 2 and len(s.other) >= 2)
    return d, frozenset(splits), internal


def permute_map(d: DissimilarityMap, perm) -> DissimilarityMap:
    """Relabel taxa: taxon i becomes perm[i]."""
    n = d.n
    rows = [[d[0, 0]] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = d[i, j]
    return DissimilarityMap(rows)


def relabel_split(s: Split, perm) -> Split:
    return Split.of({perm[t] for t in s.block}, s.n)


def relabel_ordering(o: CircularOrdering, perm) -> CircularOrdering:
    return CircularOrdering([perm[t] for t in o.order])
