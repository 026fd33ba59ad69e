"""E6 — Examples 6, 7 + Theorems 3.1/3.2: Algorithm 2 solves the
maintenance problem for key-equivalent schemes.

Regenerates: the Example 6 and Example 7 rejections; agreement with the
full-chase baseline across a size sweep; and the cost separation —
Algorithm 2's expression probes vs. re-chasing everything.
"""

import random

import pytest

from repro.core.maintenance import algebraic_insert
from repro.oracle import ChaseRILookup, ExpressionRILookup
from repro.state.consistency import maintain_by_chase
from repro.workloads.paper import (
    example4_split_scheme,
    example6_scheme,
    example6_state,
)
from repro.workloads.states import (
    conflicting_insert_candidate,
    dense_consistent_state,
    random_consistent_state,
)

SIZES = [16, 64, 256]


def test_example6_walkthrough(benchmark):
    state = example6_state()
    insert = {"A": "a", "B": "b", "E": "e'"}
    outcome = benchmark(
        lambda: algebraic_insert(
            state, "R1", insert, lookup=ChaseRILookup(state)
        )
    )
    assert not outcome.consistent
    assert not maintain_by_chase(state, "R1", insert).consistent


@pytest.mark.parametrize("n", SIZES)
def test_agreement_with_chase_over_sizes(benchmark, record, n):
    rng = random.Random(n)
    scheme = example6_scheme()
    state = random_consistent_state(scheme, rng, n_entities=n)
    trials = 8
    candidates = [
        conflicting_insert_candidate(scheme, rng, n) for _ in range(trials)
    ]

    def sweep():
        agreements = 0
        for name, values in candidates:
            expected = maintain_by_chase(state, name, values).consistent
            actual = algebraic_insert(
                state, name, values, lookup=ExpressionRILookup(state)
            ).consistent
            agreements += expected == actual
        return agreements

    agreements = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("E6", f"agreement at n={n}", f"{agreements}/{trials}")
    assert agreements == trials


@pytest.mark.parametrize("n", SIZES)
def test_algorithm2_insert_latency(benchmark, n):
    rng = random.Random(n)
    scheme = example6_scheme()
    state = dense_consistent_state(scheme, n)
    name, values = conflicting_insert_candidate(scheme, rng, n)
    benchmark(
        lambda: algebraic_insert(
            state, name, values, lookup=ExpressionRILookup(state)
        )
    )


@pytest.mark.parametrize("n", SIZES)
def test_full_chase_insert_latency(benchmark, n):
    rng = random.Random(n)
    scheme = example6_scheme()
    state = dense_consistent_state(scheme, n)
    name, values = conflicting_insert_candidate(scheme, rng, n)
    benchmark(lambda: maintain_by_chase(state, name, values))
