"""E8 — Examples 11/12 + Theorem 4.1: bounded query answering on
independence-reducible schemes.

Regenerates: the paper's [ACG] expression on Example 12; agreement of
block evaluation, full-expression evaluation and the chase baseline;
the latency separation between block evaluation and re-chasing as
the state grows; and plan-building latency as the scheme grows.
"""

import random
from itertools import combinations

import pytest

from repro.core.query import total_projection_plan
from repro.core.reducible import recognize_independence_reducible
from repro.oracle import total_projection_reducible
from repro.state.consistency import total_projection
from repro.workloads.paper import example12_reducible
from repro.workloads.scaling import tiled_university
from repro.workloads.states import random_consistent_state

SIZES = [16, 64, 256]


def test_example12_plan(benchmark, record):
    plan = benchmark.pedantic(
        lambda: total_projection_plan(example12_reducible(), "ACG"),
        rounds=1,
        iterations=1,
    )
    record("E8", "[ACG] plan", str(plan.expression))
    assert str(plan.expression) == (
        "π_ACG((π_ACD(R1 ⋈ R2 ⋈ R4) ∪ π_ACD(R3 ⋈ R4)) ⋈ π_DG(R6))"
    )


@pytest.mark.parametrize("n", SIZES)
def test_methods_agree(benchmark, record, n):
    rng = random.Random(n)
    scheme = example12_reducible()
    state = random_consistent_state(scheme, rng, n_entities=n)
    recognition = recognize_independence_reducible(scheme)

    def run_all():
        return (
            total_projection(state, "ACG"),
            total_projection_reducible(state, "ACG", recognition),
            total_projection_reducible(
                state, "ACG", recognition, method="expression"
            ),
        )

    baseline, blocks, expression = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    record("E8", f"|[ACG]| at n={n}", len(baseline))
    assert blocks == baseline
    assert expression == baseline


@pytest.mark.parametrize("n", SIZES)
def test_block_evaluation_latency(benchmark, n):
    rng = random.Random(n)
    scheme = example12_reducible()
    state = random_consistent_state(scheme, rng, n_entities=n)
    recognition = recognize_independence_reducible(scheme)
    benchmark(
        lambda: total_projection_reducible(state, "ACG", recognition)
    )


@pytest.mark.parametrize("n", SIZES)
def test_chase_baseline_latency(benchmark, n):
    rng = random.Random(n)
    scheme = example12_reducible()
    state = random_consistent_state(scheme, rng, n_entities=n)
    benchmark(lambda: total_projection(state, "ACG"))


@pytest.mark.parametrize("tiles", [1, 6, 16, 64])
def test_plan_latency_tiled_university(benchmark, record, tiles):
    """Building one tile's plans — every 2-, 3- and 4-attribute target,
    the query shapes of the ``write_churn`` serving workload — must not
    grow with the number of tiles around it: a plan reads only the
    target's attribute-connected component."""
    scheme = tiled_university(tiles)
    recognition = recognize_independence_reducible(scheme)
    targets = [
        [f"{letter}{tiles - 1}" for letter in combo]
        for size in (2, 3, 4)
        for combo in combinations("HRCTSG", size)
    ]
    plans = benchmark(
        lambda: [
            total_projection_plan(scheme, target, recognition)
            for target in targets
        ]
    )
    record(
        "E8",
        f"plans over tiled university tiles={tiles}",
        f"{len(plans)} targets, {sum(len(p.branches) for p in plans)} branches",
    )
