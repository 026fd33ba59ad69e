"""Bounded query answering: Example 12's total projection, end to end.

Shows the three evaluation routes for a total projection on an
independence-reducible scheme — the predetermined Theorem 4.1 plan, the
block-wise evaluation, and the full-chase baseline — and that they
agree while the plan never looks at the data.

Run:  python examples/query_answering.py
"""

import time

from repro import total_projection
from repro.core.query import total_projection_plan
from repro.core.reducible import recognize_independence_reducible
from repro.oracle import total_projection_reducible
from repro.workloads.paper import example12_reducible
from repro.workloads.states import random_consistent_state

import random


def main() -> None:
    scheme = example12_reducible()
    print("scheme:", scheme)
    print("embedded key dependencies:", scheme.fds)
    print()

    recognition = recognize_independence_reducible(scheme)
    print(recognition.describe())
    print()

    # The predetermined plan: built from the scheme alone.
    plan = total_projection_plan(scheme, "ACG", recognition)
    print("predetermined plan (paper, Example 12):")
    print("   ", plan)
    print()

    # Evaluate on states of growing size; all three routes agree.
    rng = random.Random(0)
    for n in (10, 100, 1000):
        state = random_consistent_state(scheme, rng, n_entities=n)

        start = time.perf_counter()
        via_blocks = total_projection_reducible(state, "ACG", recognition)
        blocks_ms = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        via_chase = total_projection(state, "ACG")
        chase_ms = (time.perf_counter() - start) * 1000

        assert via_blocks == via_chase
        print(
            f"n={n:5d}: |[ACG]| = {len(via_blocks):4d}   "
            f"blocks {blocks_ms:8.2f} ms   chase {chase_ms:8.2f} ms"
        )

    print()
    print("sample answers:", sorted(via_blocks)[:5])


if __name__ == "__main__":
    main()
