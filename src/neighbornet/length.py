"""Balanced length of dissimilarity maps over partial circular orderings, and
the adjacency counts behind it, in closed form.

The balanced length of a map d over a partial circular ordering C averages
half the tour length over the N circular orderings consistent with C:

    l(d, C) = (1 / N) * sum_orderings (1/2) sum_k d(x_k, x_{k+1})
            = (1 / (2 N)) * sum_{i<j} eta_C(i, j) d(i, j)

where eta_C(i, j) counts the consistent orderings in which i and j are
adjacent. With m >= 2 blocks, e_r endpoints of block r (1 for a singleton,
2 otherwise) and E_r the set of them, a path edge is adjacent in all N
orderings, x in E_r and y in E_t (r != t) in 2N / ((m-1) e_r e_t), and no
other pair in any. So

    l(d, C) = (1/2) sum_{path edges} d
              + (1 / (m-1)) sum_{r<t} sum_{x in E_r, y in E_t} d(x, y) / (e_r e_t),

and for m = 1 it is half the cycle the one path closes. The enumerating
counterparts live in neighbornet.oracle, which the tests pin these against.

Every division here is num / Fraction(den), with den an int: a Fraction
when num is an int or a Fraction, and for a float num the float num / den
bit for bit. So exact inputs give exact results with no exactness flag.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import DissimilarityMap, Num, PartialCircularOrdering


@dataclass(frozen=True)
class EtaTable:
    """Adjacency counts eta(i, j) per unordered pair, with the number of
    orderings they were counted over."""

    n: int
    counts: dict
    total_orderings: int

    def eta(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return self.counts.get((min(i, j), max(i, j)), 0)

    def row_sum(self, i: int) -> int:
        return sum(self.eta(i, j) for j in range(self.n) if j != i)


def count_consistent_orderings(pco: PartialCircularOrdering) -> int:
    """(1/2) (m-1)! * prod_r |endpoints(C_r)|, and 1 for a single block."""
    if pco.n < 3:
        raise ValueError("circular orderings need n >= 3")
    m = pco.m
    if m == 1:
        return 1
    prod = 1
    for r in range(m):
        prod *= len(pco.endpoints(r))
    return math.factorial(m - 1) * prod // 2


def eta_table(pco: PartialCircularOrdering) -> EtaTable:
    """Adjacency counts over the consistent orderings, in closed form."""
    total = count_consistent_orderings(pco)
    m = pco.m
    counts = {(a, b) if a < b else (b, a): total for a, b in pco.adjacent_pairs()}
    if m == 1:
        a, b = pco.endpoints(0)  # the edge that closes the cycle
        counts[(a, b) if a < b else (b, a)] = total
        return EtaTable(pco.n, counts, total)
    per_pair = 2 * total // (m - 1)  # (m-2)! prod_r e_r: divisible by e_r e_t
    for er, et in combinations([pco.endpoints(r) for r in range(m)], 2):
        share = per_pair // (len(er) * len(et))
        for x in er:
            for y in et:
                counts[(x, y) if x < y else (y, x)] = share
    return EtaTable(pco.n, counts, total)


def balanced_length(d: DissimilarityMap, pco: PartialCircularOrdering) -> Num:
    """Average half tour length over the orderings consistent with pco."""
    if d.n != pco.n:
        raise ValueError("taxon count mismatch")
    return balanced_length_from_eta(d, eta_table(pco))


def balanced_length_from_eta(d: DissimilarityMap, table: EtaTable) -> Num:
    """(1/2) sum_{i<j} (eta(i, j) / N) d(i, j). Distances are summed per
    distinct count, which enters as the exact ratio count / N: N passes the
    float range (10^308) long before the length does. An exact map's
    distances are summed as the integer numerators of d.integer_form, and
    its common denominator divides once at the end."""
    values, den = d.integer_form if d.is_exact else (d.array, 1)
    sums: dict = defaultdict(int)
    for (i, j), count in table.counts.items():
        sums[count] += values.item(i, j)
    total = sum(Fraction(count, table.total_orderings) * s for count, s in sums.items())
    return total / Fraction(2 * den)
