"""E5 — Example 5 + Theorem 3.4: split key-equivalent schemes are not
ctm.

Regenerates the lower-bound shape: on the adversarial family the
paper's constant-seeing prober retrieves Θ(n) tuples (its σ_{B='b'}(R4)
probe matches the whole chain), while Algorithm 2 issues a constant
number of predetermined single-tuple selections — at the price of
evaluating joins whose cost grows with n.
"""

import pytest

from repro.core.maintenance import algebraic_insert
from repro.core.split import split_keys
from repro.oracle import ExpressionRILookup
from repro.workloads.adversarial import (
    example5_chain_state,
    example5_ctm_prober_tuples,
    example5_killer_insert,
)
from repro.workloads.paper import example4_split_scheme

SIZES = [8, 32, 128]


def test_scheme_is_split(benchmark, record):
    keys = benchmark.pedantic(
        lambda: split_keys(example4_split_scheme()), rounds=1, iterations=1
    )
    record("E5", "split keys", [sorted(k) for k in keys])
    assert keys == [frozenset("BC")]


@pytest.mark.parametrize("n", SIZES)
def test_prober_tuples_grow(benchmark, record, n):
    state = example5_chain_state(n)
    matched = benchmark.pedantic(
        lambda: example5_ctm_prober_tuples(state), rounds=1, iterations=1
    )
    record("E5", f"ctm-prober tuples matched at n={n}", matched)
    assert matched == n


def test_generic_theorem34_families(benchmark, record):
    """Theorem 3.4 beyond Example 5: the generic adversarial
    construction works for every split key of randomly generated split
    schemes — consistent base, inconsistent under one insert, and the
    fragment substate is necessary for the refutation."""
    import random

    from repro.core.split import split_keys as all_split_keys
    from repro.state.consistency import is_consistent
    from repro.workloads.adversarial import split_lower_bound_family
    from repro.workloads.random_schemes import random_key_equivalent_scheme

    rng = random.Random(3)
    schemes = [
        random_key_equivalent_scheme(rng, n_relations=4, composite_members=1)
        for _ in range(8)
    ]

    def sweep():
        verified = 0
        for scheme in schemes:
            for key in all_split_keys(scheme):
                family = split_lower_bound_family(scheme, key)
                inserted = family.state.insert(
                    family.insert_relation, family.insert_values
                )
                assert is_consistent(family.state)
                assert not is_consistent(inserted)
                verified += 1
        return verified

    verified = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("E5", "generic Theorem 3.4 families verified", verified)
    assert verified >= 8


@pytest.mark.parametrize("n", SIZES)
def test_algorithm2_selections_flat(benchmark, record, n):
    state = example5_chain_state(n)
    name, values = example5_killer_insert()

    def run():
        lookup = ExpressionRILookup(state)
        outcome = algebraic_insert(state, name, values, lookup=lookup)
        return outcome.consistent, lookup.selections_issued

    consistent, selections = benchmark(run)
    assert not consistent
    record("E5", f"Algorithm-2 selections at n={n}", selections)
    # Selections are scheme-determined; the Example 5 scheme issues the
    # same number regardless of the chain length.
    assert selections <= 40
