"""Expected responses for a workload, from one in-process engine.

The oracle is a single-process :class:`repro.core.engine
.WeakInstanceEngine` over the full tiled scheme.  Before any timing it
runs the whole stream and stores on each op the exact response the
front door must return:

* ``query`` → the sorted rows;
* ``insert`` → the accept/reject decision with its ``to_dict``
  diagnostic;
* ``delete`` → a bare acknowledgement;
* ``batch`` → ``committed`` / ``applied`` / ``failed_index`` /
  ``failure``.

The oracle also checks the generator's intent (which inserts and batches it meant to be accepted)
against the engine's verdict; a disagreement is a generator bug and is
reported as a failure.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.core.engine import WeakInstanceEngine
from repro.workloads.scaling import tiled_university

from workloads import Op, Workload


def _plain(payload: Any) -> Any:
    """The value as it looks after a JSON round trip (tuples → lists)."""
    return json.loads(json.dumps(payload))


def seed_request(rows: Sequence[tuple[str, dict[str, str]]]) -> dict[str, Any]:
    """The front-door batch that loads one tile's seed rows."""
    return {
        "op": "batch",
        "updates": [["insert", name, values] for name, values in rows],
    }


class Oracle:
    """Runs an op stream through one engine and records expected replies."""

    def __init__(self, workload: Workload) -> None:
        self.scheme = tiled_university(workload.tiles)
        # Caches big enough for every target: the oracle is not measured.
        self.engine = WeakInstanceEngine(
            self.scheme, plan_cache_size=4096, read_cache_size=8192
        )
        self.state = self.engine.empty_state()
        self.intent_mismatches = 0

    def close(self) -> None:
        self.engine.close()

    def load(self, rows: Iterable[tuple[str, dict[str, str]]]) -> None:
        relations: dict[str, list[dict[str, str]]] = {}
        for name, values in rows:
            relations.setdefault(name, []).append(values)
        self.state = self.engine.load(relations)

    def expect(self, op: Op) -> dict[str, Any]:
        """Apply ``op`` to the oracle state; return the exact reply."""
        request = op.request
        engine = self.engine
        if op.kind == "query":
            rows = engine.query(self.state, request["target"])
            return {"ok": True, "rows": _plain(sorted(list(row) for row in rows))}
        if op.kind == "delete":
            self.state = engine.delete(
                self.state, request["relation"], request["values"]
            )
            return {"ok": True}
        if op.kind == "insert":
            outcome = engine.insert(
                self.state, request["relation"], request["values"]
            )
            if outcome.consistent:
                self.state = outcome.state
            if outcome.consistent != bool(op.effects):
                self.intent_mismatches += 1
            return {"ok": True, "outcome": _plain(outcome.to_dict())}
        if op.kind == "batch":
            updates = [
                (operation, name, values)
                for operation, name, values in request["updates"]
            ]
            outcome = engine.batch(self.state, updates)
            if outcome:
                self.state = outcome.state
            if bool(outcome) != bool(op.effects):
                self.intent_mismatches += 1
            return {"ok": True, "outcome": _plain(outcome.to_dict())}
        raise ValueError(f"unknown op kind {op.kind!r}")

    def fill(self, ops: Iterable[Op]) -> None:
        for op in ops:
            op.expected = self.expect(op)

    def state_rows(self) -> dict[str, set[tuple]]:
        """The oracle state as ``relation → {sorted item tuples}``."""
        return {
            name: {tuple(sorted(values.items())) for values in relation}
            for name, relation in self.state
        }


def expected_state(
    seed: Iterable[tuple[str, dict[str, str]]], executed: Sequence[Op]
) -> dict[str, set[tuple]]:
    """The state after the seed plus the ``executed`` ops, built from
    the ops' row effects (what an acknowledged op changed).  Relations
    the stream never touches are omitted."""
    state: dict[str, set[tuple]] = {}
    for name, values in seed:
        state.setdefault(name, set()).add(tuple(sorted(values.items())))
    for op in executed:
        for name, values, sign in op.effects:
            rows = state.setdefault(name, set())
            row = tuple(sorted(values.items()))
            if sign > 0:
                rows.add(row)
            else:
                rows.discard(row)
    return state


def state_difference(
    expected: dict[str, set[tuple]], served: dict[str, list[dict[str, Any]]]
) -> int:
    """Rows present on one side only: an acknowledged write missing,
    or an acknowledged delete (or a rejected write) present."""
    missing = 0
    for name in set(expected) | set(served):
        have = {
            tuple(sorted(values.items())) for values in served.get(name, [])
        }
        missing += len(expected.get(name, set()) ^ have)
    return missing
