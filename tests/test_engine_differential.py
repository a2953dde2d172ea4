"""The array engine against the scalar engine it replaced (tests/scalar_engine.py):
the same orderings, tree splits and per-step decisions on seeded maps, and in
exact arithmetic the same criterion values and weights too."""
import json
import math
import random
from fractions import Fraction

import pytest

import neighbornet.agglomerate as engine
import scalar_engine as reference
from conftest import random_dissimilarity
from neighbornet.io import trace_records

SCHEMES = {
    "balanced-tsp": (engine.BalancedTSP(), reference.BalancedTSP()),
    "tree": (engine.TreeWeighting(), reference.TreeWeighting("balanced")),
    "original": (engine.OriginalBM(), reference.OriginalBM()),
}


def decisions(result):
    return [(st.m, st.pair, st.endpoints, st.split, st.merged_block) for st in result.trace.steps]


def run_both(d, name):
    new_scheme, old_scheme = SCHEMES[name]
    new = engine.run_neighbor_net(d, new_scheme)
    old = reference.run_neighbor_net(d, old_scheme)
    assert new.ordering == old.ordering
    assert new.tree_splits == old.tree_splits
    assert decisions(new) == decisions(old)
    return new, old


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_exact_runs_match_reference(name):
    # 104 seeds per scheme, 312 in all; n cycles through 4..16. Entries are
    # multiples of 1/100, so exact ties in Q and Q-hat do occur.
    for k in range(104):
        seed = 1000 * (1 + sorted(SCHEMES).index(name)) + k
        d = random_dissimilarity(random.Random(seed), 4 + k % 13, exact=True)
        new, old = run_both(d, name)
        values = [(st.q_value, st.q_hat_value, st.mu) for st in new.trace.steps]
        expected = [
            (st.q_value, st.q_hat_value, {t: st.mu[t] for t in st.merged_block}) for st in old.trace.steps
        ]
        assert values == expected, f"seed {seed}"


def replayed(records, n, one):
    """The full weights after each record, rebuilt from all-ones by applying
    the record's weights, which cover the merged path alone."""
    mu = dict.fromkeys(range(n), one)
    for record in records:
        mu.update(record)
        yield dict(mu)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_replayed_records_rebuild_every_weight(name):
    # the reference keeps all n weights per step; on exact maps the weights
    # are dyadic, so the trace's floats must equal them exactly
    for k in range(13):
        seed = 9000 + 100 * sorted(SCHEMES).index(name) + k
        d = random_dissimilarity(random.Random(seed), 4 + k % 13, exact=True)
        new, old = run_both(d, name)
        full = [st.mu for st in old.trace.steps]
        assert list(replayed((st.mu for st in new.trace.steps), d.n, Fraction(1))) == full, f"seed {seed}"
        lines = [json.loads(json.dumps(record)) for record in trace_records(new.trace)]
        mus = ({int(t): w for t, w in line["mu"].items()} for line in lines)
        assert list(replayed(mus, d.n, 1.0)) == full, f"seed {seed}"


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_float_runs_match_reference(name):
    for k in range(8):
        seed = 5000 + 100 * sorted(SCHEMES).index(name) + k
        rng = random.Random(seed)
        d = random_dissimilarity(rng, 40 if k == 0 else rng.randint(4, 39))
        new, old = run_both(d, name)
        for a, b in zip(new.trace.steps, old.trace.steps):
            assert math.isclose(a.q_value, b.q_value, rel_tol=1e-9, abs_tol=1e-9), f"seed {seed}"
            assert math.isclose(a.q_hat_value, b.q_hat_value, rel_tol=1e-9, abs_tol=1e-9), f"seed {seed}"


def test_neighbor_joining_matches_reference():
    # engine.neighbor_joining is the tree-weighted agglomeration, so this pins
    # the theorem that its tree is the NJ tree, alpha = 0 and 1 included
    for k in range(30):
        rng = random.Random(8000 + k)
        n = rng.randint(4, 16)
        d = random_dissimilarity(rng, n, exact=k % 2 == 0)
        alpha = rng.choice(["balanced", 0.3, 0.8, 0, 1])  # the reference's name for 1/2
        ours = Fraction(1, 2) if alpha == "balanced" else alpha
        assert engine.neighbor_joining(d, ours) == reference.neighbor_joining(d, alpha), f"k {k}"
