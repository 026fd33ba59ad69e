"""Differential tests for the block route of a batch.

The independence decomposition says block tasks are share-nothing, so a
batch routed per block must be observationally identical to folding
the updates one at a time (:func:`repro.oracle.batch_per_update`): same
final relations, same first-failure index and diagnostics, same raised
errors.  ``engine.batch`` and ``engine.apply_slice`` share one routing
rule — every accepted scheme runs per block, single-block ones
included — so these tests pin that equivalence over random and
adversarial workloads on both entry points, plus the per-block
representative-instance cache.
"""

import random

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import StateError
from repro.obs.spans import Tracer, tracing
from repro.oracle import batch_per_update
from repro.state.database_state import DatabaseState
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example3_triangle,
    example4_split_scheme,
    example8_split,
)
from repro.workloads.scaling import tiled_university
from repro.workloads.states import (
    conflicting_insert_candidate,
    consistent_insert_candidate,
    random_consistent_state,
)

N_RANDOM_BATCHES = 25

#: Accepted schemes whose partition is one block: their batches take
#: the block route too, through a single ``block_batch`` call.
SINGLE_BLOCK_SCHEMES = {
    "example3_triangle": example3_triangle,
    "example4_split_scheme": example4_split_scheme,
    "example8_split": example8_split,
}

#: Accepted schemes of several blocks, then the single-block ones.
ACCEPTED_SCHEMES = {
    "tiled_university": lambda: tiled_university(2),
    "example1_university": example1_university,
    **SINGLE_BLOCK_SCHEMES,
}


def _equal_outcomes(scheme, reference, outcome) -> None:
    """Batch outcomes must agree on verdict, diagnostics and state."""
    assert bool(reference) == bool(outcome)
    assert reference.applied == outcome.applied
    assert reference.failed_index == outcome.failed_index
    if reference.failure is None:
        assert outcome.failure is None
        for name in scheme.names:
            assert (
                reference.state[name].row_vectors
                == outcome.state[name].row_vectors
            )
    else:
        assert outcome.failure is not None
        assert reference.failure.to_dict() == outcome.failure.to_dict()


def _run(function, *args):
    """``(result, None)``, or ``(None, error)`` when ``function``
    raised."""
    try:
        return function(*args), None
    except Exception as error:  # noqa: BLE001 — compared, not handled
        return None, error


def _matches_per_update(scheme, state, updates):
    """Run ``updates`` through ``engine.batch`` and through the
    per-update reference, each on its own engine, and check they agree
    — on the outcome, or on the raised error's type and message.
    Returns the reference's outcome (``None`` when it raised)."""
    expected, expected_error = _run(
        batch_per_update, WeakInstanceEngine(scheme), state, updates
    )
    got, got_error = _run(WeakInstanceEngine(scheme).batch, state, updates)
    if expected_error is not None:
        assert got_error is not None, "the batch did not raise"
        assert type(got_error) is type(expected_error)
        assert str(got_error) == str(expected_error)
        return None
    assert got_error is None, f"the batch raised {got_error!r}"
    _equal_outcomes(scheme, expected, got)
    return expected


def _random_batch(scheme, rng, state, n_entities):
    """Consistent inserts, key conflicts, duplicates and deletes, in a
    shuffled order."""
    updates = []
    for _ in range(rng.randint(4, 12)):
        roll = rng.random()
        if roll < 0.5:
            name, values = consistent_insert_candidate(scheme, rng, n_entities)
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
                updates.append(("delete", name, rng.choice(stored)))
    rng.shuffle(updates)
    return updates


class TestRandomWorkloads:
    def test_random_batches_match_serial(self):
        """Random mixed batches on the tiled scheme: the routed outcome
        (including every rejection's diagnostics) equals the per-update
        one."""
        rng = random.Random(20260806)
        scheme = tiled_university(3)
        for _ in range(N_RANDOM_BATCHES):
            n_entities = rng.randint(2, 4)
            state = random_consistent_state(scheme, rng, n_entities)
            _matches_per_update(
                scheme, state, _random_batch(scheme, rng, state, n_entities)
            )

    @pytest.mark.parametrize("label", sorted(SINGLE_BLOCK_SCHEMES))
    def test_single_block_schemes_match_per_update(self, label):
        scheme = SINGLE_BLOCK_SCHEMES[label]()
        partition = WeakInstanceEngine(scheme).partition
        assert partition.accepted and len(partition.blocks) == 1
        rng = random.Random(f"{label}-20261019")
        rejected = 0
        for _ in range(N_RANDOM_BATCHES):
            n_entities = rng.randint(2, 4)
            state = random_consistent_state(scheme, rng, n_entities)
            expected = _matches_per_update(
                scheme, state, _random_batch(scheme, rng, state, n_entities)
            )
            rejected += expected is not None and not expected
        assert rejected  # the rejection diagnostics were compared too

    @pytest.mark.parametrize("label", list(ACCEPTED_SCHEMES))
    def test_accepted_schemes_take_the_block_route(self, label):
        """One ``engine.block`` span per block a batch writes, and no
        per-update ``engine.insert`` span."""
        scheme = ACCEPTED_SCHEMES[label]()
        engine = WeakInstanceEngine(scheme)
        rng = random.Random(label)
        updates = [
            ("insert", *consistent_insert_candidate(scheme, rng, 3, name))
            for name in scheme.names
        ]
        tracer = Tracer()
        with tracing(tracer):
            assert engine.batch(engine.empty_state(), updates)
        spans = tracer.span_summaries()
        assert spans["engine.batch"]["count"] == 1
        assert spans["engine.block"]["count"] == len(engine.partition.blocks)
        assert "engine.insert" not in spans


class TestFailureOrdering:
    def test_earliest_rejection_across_blocks_wins(self):
        """The earliest rejection sits in one block while a later
        rejection sits in another: index 1 must win."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T1R4", {"C1": "cx", "S1": "sx", "G1": "A"}),
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("insert", "T1R4", {"C1": "cx", "S1": "sx", "G1": "B"}),
        ]
        assert _matches_per_update(scheme, state, updates).failed_index == 1

    def test_error_after_earlier_rejection_is_not_raised(self):
        """Index 1 rejects in block A; index 2 would raise (malformed
        tuple) in block B.  The per-update loop never reaches index 2,
        so the batch must report the rejection, not the error."""
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
        with pytest.raises(StateError):
            # Sanity: the malformed tuple does raise when reached.
            WeakInstanceEngine(scheme).batch(state, updates[2:])
        assert _matches_per_update(scheme, state, updates).failed_index == 1

    def test_earliest_error_is_raised(self):
        """When the malformed tuple precedes every rejection, both
        routes raise it."""
        scheme = tiled_university(2)
        updates = [
            ("insert", "T1R4", {"WRONG": "attrs"}),
            ("insert", "T0R4", {"C0": "c", "S0": "s", "G0": "A"}),
        ]
        with pytest.raises(StateError):
            WeakInstanceEngine(scheme).batch(DatabaseState(scheme), updates)
        assert _matches_per_update(scheme, DatabaseState(scheme), updates) is None

    def test_unknown_operation_falls_back_to_serial_semantics(self):
        """An unroutable batch (unknown op) takes the per-update loop,
        so an earlier rejection still wins over the later bad op."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("upsert", "T1R4", {"C1": "c", "S1": "s", "G1": "A"}),
        ]
        assert _matches_per_update(scheme, state, updates).failed_index == 0


def _case(label):
    """``(scheme, state, ok0, ok1, reject, error)`` for a scheme: two
    updates that apply (the second a delete), one insert the state
    rejects once ``ok0`` is in, and one malformed insert that raises."""
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
    if label == "example2":
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
    if label == "example3_triangle":
        # Every attribute is a key: a second C for a1 contradicts the
        # one the stored B reaches.
        scheme = example3_triangle()
        state = DatabaseState(
            scheme,
            {"R1": [{"A": "a1", "B": "b1"}], "R2": [{"B": "b1", "C": "c1"}]},
        )
        return (
            scheme,
            state,
            ("insert", "R3", {"A": "a1", "C": "c1"}),
            ("delete", "R2", {"B": "b1", "C": "c1"}),
            ("insert", "R3", {"A": "a1", "C": "c9"}),
            ("insert", "R2", {"WRONG": "attrs"}),
        )
    if label == "example4_split_scheme":
        # The Example 5 state; the key A of R1 already maps a to b.
        scheme = example4_split_scheme()
        stored = {"E": "e2", "B": "b"}
        state = DatabaseState(
            scheme,
            {
                "R1": [{"A": "a", "B": "b"}],
                "R2": [{"A": "a", "C": "c"}],
                "R4": [{"E": "e1", "B": "b"}, stored],
                "R5": [{"E": "e1", "C": "c"}],
            },
        )
        return (
            scheme,
            state,
            ("insert", "R3", {"A": "a2", "E": "e3"}),
            ("delete", "R4", stored),
            ("insert", "R1", {"A": "a", "B": "b9"}),
            ("insert", "R6", {"WRONG": "attrs"}),
        )
    assert label == "example8_split"
    # After ok0, a1 reaches D = d1 through A → BC → D, so d9 clashes.
    scheme = example8_split()
    state = DatabaseState(
        scheme,
        {"R1": [{"A": "a1", "C": "c1"}], "R2": [{"A": "a1", "B": "b1"}]},
    )
    return (
        scheme,
        state,
        ("insert", "R4", {"B": "b1", "C": "c1", "D": "d1"}),
        ("delete", "R1", {"A": "a1", "C": "c1"}),
        ("insert", "R5", {"A": "a1", "D": "d9"}),
        ("insert", "R5", {"WRONG": "attrs"}),
    )


CASE_LABELS = [
    "tiled_university",
    "example2",
    *sorted(SINGLE_BLOCK_SCHEMES),
]

ORDERINGS = {
    "clean": (lambda ok0, ok1, reject, error: [ok0, ok1], None),
    "reject_then_error": (
        lambda ok0, ok1, reject, error: [ok0, reject, ok1, error],
        1,
    ),
    "error_then_reject": (
        lambda ok0, ok1, reject, error: [ok0, error, ok1, reject],
        1,
    ),
}


class TestBatchMatchesPerUpdate:
    """``engine.batch`` against the per-update reference on every case:
    a clean batch, a rejection before an error, and an error before a
    rejection."""

    @pytest.mark.parametrize("label", CASE_LABELS)
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_batch_matches_per_update(self, ordering, label):
        scheme, state, *updates = _case(label)
        build, event_at = ORDERINGS[ordering]
        expected = _matches_per_update(scheme, state, build(*updates))
        if ordering == "error_then_reject":
            assert expected is None
        elif ordering == "clean":
            assert expected
        else:
            assert expected.failed_index == event_at


class TestApplySlice:
    """``WeakInstanceEngine.apply_slice`` — the shard workers' route —
    decides exactly what the per-update reference decides, at the
    slice's global indices."""

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("label", CASE_LABELS)
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_slice_matches_batch(self, ordering, label, stride):
        """``stride`` spaces the slice's global indices: 1 gives the
        positions ``batch`` passes, 4 a shard's share of a batch
        interleaved with three other shards' updates."""
        scheme, state, *updates = _case(label)
        build, event_at = ORDERINGS[ordering]
        updates = build(*updates)
        indexes = [stride * (position + 1) - 1 for position in range(4)]
        operations = [
            (index, *update) for index, update in zip(indexes, updates)
        ]
        outcome = WeakInstanceEngine(scheme).apply_slice(state, operations)
        reference = WeakInstanceEngine(scheme)
        if ordering == "error_then_reject":
            with pytest.raises(StateError) as raised:
                batch_per_update(reference, state, updates)
            assert type(outcome.error) is raised.type
            assert str(outcome.error) == str(raised.value)
            assert outcome.error_index == indexes[event_at]
            assert outcome.failure is None
            assert outcome.substate is None
            return
        expected = batch_per_update(reference, state, updates)
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
        assert outcome.failed_index == indexes[event_at]
        assert outcome.substate is None
        assert outcome.failure.to_dict() == expected.failure.to_dict()


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
