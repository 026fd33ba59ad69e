"""A1 (ablation) — Algorithm 2's representative-instance lookup backend.

DESIGN choice: Algorithm 2 can resolve its step-(4) lookup either by
materializing the representative instance with Algorithm 1 (reads the
whole state once) or by Theorem 3.2's predetermined lossless-join
selections (a constant number of selections whose evaluation cost
depends on the probed fragment).  This ablation races the two backends
and the full-chase baseline across state sizes on the Example 6 scheme.
"""

import random

import pytest

from repro.core.maintenance import algebraic_insert
from repro.oracle import ChaseRILookup, ExpressionRILookup
from repro.state.consistency import maintain_by_chase
from repro.workloads.paper import example6_scheme
from repro.workloads.states import (
    conflicting_insert_candidate,
    dense_consistent_state,
)

SIZES = [16, 64, 256]


def _setup(n):
    rng = random.Random(n)
    scheme = example6_scheme()
    state = dense_consistent_state(scheme, n)
    name, values = conflicting_insert_candidate(scheme, rng, n)
    return state, name, values


@pytest.mark.parametrize("n", SIZES)
def test_chase_backed_lookup(benchmark, record, n):
    state, name, values = _setup(n)

    def run():
        lookup = ChaseRILookup(state)
        outcome = algebraic_insert(state, name, values, lookup=lookup)
        return outcome, lookup.tuples_retrieved

    outcome, retrieved = benchmark(run)
    record("A1", f"chase-lookup tuples at n={n}", retrieved)
    # The chase-backed lookup always reads the whole state.
    assert retrieved == state.total_tuples()


@pytest.mark.parametrize("n", SIZES)
def test_expression_backed_lookup(benchmark, record, n):
    state, name, values = _setup(n)

    def run():
        lookup = ExpressionRILookup(state)
        outcome = algebraic_insert(state, name, values, lookup=lookup)
        return outcome, lookup.tuples_retrieved, lookup.selections_issued

    outcome, retrieved, selections = benchmark(run)
    record(
        "A1",
        f"expression-lookup at n={n}",
        f"retrieved={retrieved} selections={selections}",
    )
    # Selections are single-tuple: retrieved tuples never exceed the
    # (scheme-bounded) number of selections.
    assert retrieved <= selections


@pytest.mark.parametrize("n", SIZES)
def test_full_chase_baseline(benchmark, n):
    state, name, values = _setup(n)
    benchmark(lambda: maintain_by_chase(state, name, values))


def test_backends_agree(benchmark, record):
    rng = random.Random(99)
    scheme = example6_scheme()
    state = dense_consistent_state(scheme, 32)
    candidates = [
        conflicting_insert_candidate(scheme, rng, 32) for _ in range(10)
    ]

    def sweep():
        agreements = 0
        for name, values in candidates:
            via_chase = algebraic_insert(
                state, name, values, lookup=ChaseRILookup(state)
            ).consistent
            via_expr = algebraic_insert(
                state, name, values, lookup=ExpressionRILookup(state)
            ).consistent
            baseline = maintain_by_chase(state, name, values).consistent
            agreements += via_chase == via_expr == baseline
        return agreements

    agreements = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record("A1", "backend agreement", f"{agreements}/10")
    assert agreements == 10
