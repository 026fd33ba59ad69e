"""Differential tests for block-parallel batch evaluation.

The independence decomposition says block tasks are share-nothing, so a
batch routed per block and run on an executor must be observationally
identical to the serial loop: same final relations, same first-failure
index and diagnostics, same raised errors.  These tests pin that
equivalence over random and adversarial workloads, plus the executor's
own contract and the per-block representative-instance cache.
"""

import random

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.core.parallel import ParallelExecutor
from repro.foundations.errors import StateError
from repro.state.database_state import DatabaseState
from repro.workloads.paper import example2_not_algebraic
from repro.workloads.scaling import tiled_university
from repro.workloads.states import (
    conflicting_insert_candidate,
    consistent_insert_candidate,
    random_consistent_state,
)

N_RANDOM_BATCHES = 25


class TestParallelExecutor:
    def test_single_worker_runs_inline(self):
        executor = ParallelExecutor(1)
        assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert executor._pool is None  # never built a pool

    def test_results_preserve_item_order(self):
        with ParallelExecutor(4) as executor:
            items = list(range(32))
            assert executor.map(lambda x: x * x, items) == [
                x * x for x in items
            ]

    def test_task_exceptions_propagate(self):
        def boom(x):
            if x == 3:
                raise ValueError("task 3")
            return x

        with ParallelExecutor(4) as executor:
            with pytest.raises(ValueError, match="task 3"):
                executor.map(boom, list(range(8)))

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2)
        executor.map(lambda x: x, [1, 2])
        executor.close()
        executor.close()
        # And usable again: a fresh pool is built lazily.
        assert executor.map(lambda x: x + 1, [1, 2]) == [2, 3]
        executor.close()


def _equal_outcomes(scheme, serial, parallel) -> None:
    """Batch outcomes must agree on verdict, diagnostics and state."""
    assert bool(serial) == bool(parallel)
    assert serial.applied == parallel.applied
    assert serial.failed_index == parallel.failed_index
    if serial.failure is None:
        assert parallel.failure is None
        for name in scheme.names:
            assert (
                serial.state[name].row_vectors
                == parallel.state[name].row_vectors
            )
    else:
        assert parallel.failure is not None
        assert serial.failure.consistent == parallel.failure.consistent
        assert (
            serial.failure.tuples_examined
            == parallel.failure.tuples_examined
        )
        assert serial.failure.chase_steps == parallel.failure.chase_steps
        assert serial.failure.witness == parallel.failure.witness


def _engines(scheme, workers=4):
    serial = WeakInstanceEngine(scheme)
    parallel = WeakInstanceEngine(scheme, workers=workers)
    return serial, parallel


class TestRandomWorkloads:
    def test_random_batches_match_serial(self):
        """Random mixed batches — consistent inserts, key conflicts,
        duplicates, deletes — on the tiled scheme: the parallel outcome
        (including every rejection's diagnostics) equals the serial
        one."""
        rng = random.Random(20260806)
        scheme = tiled_university(3)
        serial, parallel = _engines(scheme)
        try:
            for _ in range(N_RANDOM_BATCHES):
                n_entities = rng.randint(2, 4)
                state = random_consistent_state(scheme, rng, n_entities)
                updates = []
                for _ in range(rng.randint(4, 12)):
                    roll = rng.random()
                    if roll < 0.5:
                        name, values = consistent_insert_candidate(
                            scheme, rng, n_entities
                        )
                        updates.append(("insert", name, values))
                    elif roll < 0.75:
                        name, values = conflicting_insert_candidate(
                            scheme, rng, n_entities
                        )
                        updates.append(("insert", name, values))
                    else:
                        name = rng.choice(scheme.names)
                        stored = list(state[name])
                        if stored:
                            updates.append(
                                ("delete", name, rng.choice(stored))
                            )
                rng.shuffle(updates)
                _equal_outcomes(
                    scheme,
                    serial.batch(state, updates),
                    parallel.batch(state, updates),
                )
        finally:
            parallel.close()

    def test_workers_one_takes_the_serial_path(self):
        engine = WeakInstanceEngine(tiled_university(2), workers=1)
        assert engine.executor is None


class TestFailureOrdering:
    def _conflicting_batch(self, scheme, state):
        """A batch whose earliest rejection sits in one block while a
        later rejection sits in another: index 1 must win."""
        return [
            ("insert", "T1R4", {"C1": "cx", "S1": "sx", "G1": "A"}),
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("insert", "T1R4", {"C1": "cx", "S1": "sx", "G1": "B"}),
        ]

    def test_earliest_rejection_across_blocks_wins(self):
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = self._conflicting_batch(scheme, state)
        serial, parallel = _engines(scheme)
        try:
            serial_outcome = serial.batch(state, updates)
            parallel_outcome = parallel.batch(state, updates)
            assert serial_outcome.failed_index == 1
            _equal_outcomes(scheme, serial_outcome, parallel_outcome)
        finally:
            parallel.close()

    def test_error_after_earlier_rejection_is_not_raised(self):
        """Index 1 rejects in block A; index 2 would raise (malformed
        tuple) in block B.  The serial loop never reaches index 2, so
        the parallel batch must report the rejection, not the error."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T1R4", {"C1": "c", "S1": "s", "G1": "A"}),
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("insert", "T1R4", {"WRONG": "attrs"}),
        ]
        serial, parallel = _engines(scheme)
        try:
            with pytest.raises(StateError):
                # Sanity: the malformed tuple does raise when reached.
                serial.batch(state, updates[2:])
            serial_outcome = serial.batch(state, updates)
            parallel_outcome = parallel.batch(state, updates)
            assert serial_outcome.failed_index == 1
            _equal_outcomes(scheme, serial_outcome, parallel_outcome)
        finally:
            parallel.close()

    def test_earliest_error_is_raised(self):
        """When the malformed tuple precedes every rejection, both
        paths raise it."""
        scheme = tiled_university(2)
        state = DatabaseState(scheme)
        updates = [
            ("insert", "T1R4", {"WRONG": "attrs"}),
            ("insert", "T0R4", {"C0": "c", "S0": "s", "G0": "A"}),
        ]
        serial, parallel = _engines(scheme)
        try:
            with pytest.raises(StateError):
                serial.batch(state, updates)
            with pytest.raises(StateError):
                parallel.batch(state, updates)
        finally:
            parallel.close()

    def test_unknown_operation_falls_back_to_serial_semantics(self):
        """An unroutable batch (unknown op) takes the serial path, so
        an earlier rejection still wins over the later bad op."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("upsert", "T1R4", {"C1": "c", "S1": "s", "G1": "A"}),
        ]
        serial, parallel = _engines(scheme)
        try:
            serial_outcome = serial.batch(state, updates)
            parallel_outcome = parallel.batch(state, updates)
            assert serial_outcome.failed_index == 0
            _equal_outcomes(scheme, serial_outcome, parallel_outcome)
        finally:
            parallel.close()


#: The global batch indices a slice's operations carry: a shard's share
#: of a larger batch is never contiguous.
SLICE_INDEXES = (2, 5, 6, 11)


def _slice_case(label):
    """``(scheme, state, ok0, ok1, reject, error)`` for a scheme: two
    updates that apply (the second a delete), one insert the state
    rejects and one malformed insert that raises."""
    if label == "tiled_university":
        scheme = tiled_university(2)
        stored = {"C0": "c1", "S0": "s1", "G0": "B"}
        state = DatabaseState(
            scheme, {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}, stored]}
        )
        return (
            scheme,
            state,
            ("insert", "T1R4", {"C1": "c", "S1": "s", "G1": "A"}),
            ("delete", "T0R4", stored),
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("insert", "T1R4", {"WRONG": "attrs"}),
        )
    scheme = example2_not_algebraic()
    state = DatabaseState(
        scheme, {"R1": [{"A": 1, "B": 2}], "R2": [{"B": 2, "C": 3}]}
    )
    return (
        scheme,
        state,
        ("insert", "R1", {"A": 5, "B": 6}),
        ("delete", "R1", {"A": 5, "B": 6}),
        ("insert", "R3", {"A": 1, "C": 4}),
        ("insert", "R1", {"WRONG": "attrs"}),
    )


class TestApplySlice:
    """``WeakInstanceEngine.apply_slice`` — the shard workers' route —
    decides exactly what ``batch`` decides, at the slice's global
    indices."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("label", ["tiled_university", "example2"])
    @pytest.mark.parametrize(
        "ordering", ["clean", "reject_then_error", "error_then_reject"]
    )
    def test_slice_matches_batch(self, workers, label, ordering):
        scheme, state, ok0, ok1, reject, error = _slice_case(label)
        updates, event_at = {
            "clean": ([ok0, ok1], None),
            "reject_then_error": ([ok0, reject, ok1, error], 1),
            "error_then_reject": ([ok0, error, ok1, reject], 1),
        }[ordering]
        operations = [
            (index, *update) for index, update in zip(SLICE_INDEXES, updates)
        ]
        batch_engine = WeakInstanceEngine(scheme, workers=workers)
        slice_engine = WeakInstanceEngine(scheme, workers=workers)
        try:
            outcome = slice_engine.apply_slice(state, operations)
            if ordering == "error_then_reject":
                with pytest.raises(StateError) as raised:
                    batch_engine.batch(state, updates)
                assert type(outcome.error) is raised.type
                assert str(outcome.error) == str(raised.value)
                assert outcome.error_index == SLICE_INDEXES[event_at]
                assert outcome.failure is None
                assert outcome.substate is None
                return
            expected = batch_engine.batch(state, updates)
            assert outcome.error is None
            if ordering == "clean":
                assert expected and outcome.failed_index is None
                for name in scheme.names:
                    assert (
                        outcome.substate[name].row_vectors
                        == expected.state[name].row_vectors
                    )
                return
            assert expected.failed_index == event_at
            assert outcome.failed_index == SLICE_INDEXES[event_at]
            assert outcome.substate is None
            assert outcome.failure.to_dict() == expected.failure.to_dict()
        finally:
            batch_engine.close()
            slice_engine.close()


class TestBlockChaseCache:
    def test_assembled_representative_matches_whole_state_chase(self):
        """On the tiled scheme of many blocks the engine's memoized
        representative projects like the single global chase."""
        from repro.state.consistency import chase_state

        scheme = tiled_university(2)
        engine = WeakInstanceEngine(scheme)
        state = random_consistent_state(scheme, random.Random(11), 3)
        assembled = engine.representative(state)
        global_chase = chase_state(state)
        assert global_chase.consistent
        for member in scheme.relations:
            assert assembled.total_projection(
                member.attributes
            ) == global_chase.tableau.total_projection(member.attributes)
