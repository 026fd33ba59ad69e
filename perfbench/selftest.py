"""Fast self-test of the stream generators and the oracle (no server).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, for every workload, that the stream is a function of the seed;
that the oracle's verdicts agree with what the generator meant
(fresh rows accepted, deliberate conflicts rejected or aborted); that
the state rebuilt from the ops' row effects equals the oracle's state;
and that the durability comparison counts a lost row.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path.cwd()

#: Requests in each check (write_churn needs 20 batches for one
#: deliberate abort).
LENGTHS = {"read_hot": 300, "write_churn": 700}


def build(workload, seed: int, length: int):
    from workloads import StreamGenerator

    generator = StreamGenerator(workload, seed)
    seed_rows = [
        row for rows in generator.seed_rows().values() for row in rows
    ]
    return seed_rows, generator.stream(length)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_workload(workload) -> None:
    from oracle import Oracle, expected_state, state_difference

    length = LENGTHS[workload.name]
    seed_rows, ops = build(workload, 3, length)
    _, again = build(workload, 3, length)
    _, other = build(workload, 4, length)
    requests = [op.request for op in ops]
    check(
        requests == [op.request for op in again],
        "the same seed must give the same stream",
    )
    check(
        requests != [op.request for op in other],
        "another seed must give another stream",
    )
    check(
        len(seed_rows) == workload.seed_rows,
        f"seeded {len(seed_rows)} rows, expected {workload.seed_rows}",
    )

    oracle = Oracle(workload)
    oracle.load(seed_rows)
    oracle.fill(ops)
    oracle.close()
    check(oracle.intent_mismatches == 0, "oracle disagrees with the generator")
    kinds = {op.kind for op in ops}
    check(kinds == {"query", "insert", "delete", "batch"}, f"kinds {kinds}")
    rebuilt = expected_state(seed_rows, ops)
    truth = oracle.state_rows()
    check(
        all(truth[name] == rows for name, rows in rebuilt.items()),
        "row effects do not rebuild the oracle state",
    )
    served = {
        name: [dict(row) for row in rows] for name, rows in rebuilt.items()
    }
    check(state_difference(rebuilt, served) == 0, "identical states differ")
    victim = next(name for name, rows in served.items() if rows)
    served[victim] = served[victim][1:]
    check(state_difference(rebuilt, served) == 1, "a lost row is not counted")

    if workload.conflict_every:
        rejected = [
            op for op in ops
            if op.kind == "insert" and not op.expected["outcome"]["consistent"]
        ]
        check(bool(rejected), "no deliberate insert conflict was rejected")
    if workload.batch_conflict_every:
        aborted = [
            op for op in ops
            if op.kind == "batch" and not op.expected["outcome"]["committed"]
        ]
        check(bool(aborted), "no deliberate batch conflict aborted")
        check(
            all(
                op.expected["outcome"]["failed_index"] is not None
                and op.expected["outcome"]["failure"] is not None
                for op in aborted
            ),
            "an aborted batch lacks its failed_index or failure",
        )


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    failures = 0
    for workload in WORKLOADS.values():
        try:
            test_workload(workload)
        except AssertionError as error:
            failures += 1
            print(f"FAIL {workload.name}: {error}")
        else:
            print(f"ok   {workload.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
