"""The agglomeration's answer does not depend on the units, the labels or an
additive offset of the input: a constant added to every off-diagonal entry
of an exact map leaves the ordering and the tree splits unchanged under the
schemes whose block weights sum to one; relabelling a generic float map
relabels the ordering and the tree splits; and recovery inside the radius
min weight / 2 holds at every scale."""
import random
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from neighbornet.agglomerate import BalancedTSP, OriginalBM, TreeWeighting, run_neighbor_net
from neighbornet.core import DissimilarityMap, WeightedSplitSystem
from neighbornet.oracle import radius_perturbation_check
from conftest import permute_map, random_circular_instance, random_dissimilarity, relabel_ordering, relabel_split


def shifted(d: DissimilarityMap, c) -> DissimilarityMap:
    n = d.n
    return DissimilarityMap([[d[i, j] + c if i != j else d[i, j] for j in range(n)] for i in range(n)])


@seed(101)
@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(4, 14),
    map_seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    c=st.fractions(min_value=-1, max_value=100, max_denominator=360),
    scheme=st.sampled_from([BalancedTSP(), TreeWeighting()]),
)
def test_an_added_constant_changes_neither_ordering_nor_tree(n, map_seed, ties, c, scheme):
    # block weights sum to one, so Q moves by the same amount for every pair
    # and Q-hat not at all; entries are at least 1, so every shift keeps
    # them nonnegative
    rng = random.Random(map_seed)
    if ties:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 3))
        d = DissimilarityMap(rows)
    else:
        d = random_dissimilarity(rng, n, exact=True, lo=1.0)
    base = run_neighbor_net(d, scheme)
    result = run_neighbor_net(shifted(d, c), scheme)
    assert result.ordering == base.ordering
    assert result.tree_splits == base.tree_splits


@seed(102)
@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(4, 20),
    map_seed=st.integers(0, 2**32 - 1),
    perm_seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from([BalancedTSP(), TreeWeighting(), OriginalBM()]),
)
def test_relabelling_commutes_with_the_agglomeration(n, map_seed, perm_seed, scheme):
    d = random_dissimilarity(random.Random(map_seed), n)
    perm = list(range(n))
    random.Random(perm_seed).shuffle(perm)
    base = run_neighbor_net(d, scheme)
    result = run_neighbor_net(permute_map(d, perm), scheme)
    assert result.ordering == relabel_ordering(base.ordering, perm).canonical()
    assert set(result.tree_splits) == {relabel_split(s, perm) for s in base.tree_splits}


@seed(103)
@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(5, 10),
    system_seed=st.integers(0, 2**32 - 1),
    k=st.integers(-12, 12),
)
def test_radius_half_recovery_at_every_scale(n, system_seed, k):
    rng = random.Random(system_seed)
    _, system, _ = random_circular_instance(rng, n)
    scaled = WeightedSplitSystem(n, {s: w * 10.0**k for s, w in system.items()})
    bound = 0.49 * min(w for _, w in scaled.items())
    noise = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            noise[i][j] = noise[j][i] = rng.uniform(-bound, bound)
    assert radius_perturbation_check(scaled, noise)
