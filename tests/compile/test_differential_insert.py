"""Differential testing of the maintenance path: compiled RI lookups
must reproduce the interpreted Algorithm-2 validations *exactly* —
same accept/reject decisions, same instrumentation counters, and
byte-identical rejection diagnostics (the WAL and the CLI serialize
``MaintenanceOutcome.to_dict()``, so even the diagnostics must not
drift between the two routes).  The oracle is ``algebraic_insert``
over ``ExpressionRILookup`` on the block substate."""

import json

import pytest

from repro.core.ctm import InsertMaintainer
from repro.core.engine import BatchOutcome, WeakInstanceEngine
from repro.core.maintenance import algebraic_insert
from repro.oracle import ExpressionRILookup
from repro.state.consistency import maintain_by_chase
from repro.state.database_state import DatabaseState, tuples_from_rows
from repro.workloads.paper import (
    ALL_SCHEMES,
    example4_split_scheme,
    example5_state,
    example6_state,
    example10_state,
    example12_state,
)

from tests.compile.test_differential_query import saturated_state


def outcome_bytes(outcome) -> str:
    return json.dumps(outcome.to_dict(), sort_keys=True)


def uses_algorithm_2(maintainer, name) -> bool:
    return maintainer.report().strategy_by_relation[name] == "algorithm-2"


def interpreted_insert(maintainer, state, name, values):
    """The insert's outcome with its Algorithm-2 validation run over the
    interpreted RI lookup on the block substate.  Algorithm 5 and the
    full chase use no RI lookup, so there the maintainer's own answer
    stands."""
    if not uses_algorithm_2(maintainer, name):
        return maintainer.insert(state, name, values)
    partition = maintainer.partition
    sub = partition.substate(state, partition.block_index_of(name))
    return algebraic_insert(
        sub, name, values, lookup=ExpressionRILookup(sub), check_scheme=False
    )


def interpreted_batch(maintainer, state, updates) -> BatchOutcome:
    """An all-insert batch, applied serially through
    :func:`interpreted_insert`."""
    current = state
    for index, (_, name, values) in enumerate(updates):
        outcome = interpreted_insert(maintainer, current, name, values)
        if not outcome.consistent:
            return BatchOutcome(
                state=None, applied=index, failed_index=index, failure=outcome
            )
        current = current.insert(name, values)
    return BatchOutcome(state=current, applied=len(updates))


def converging_state() -> DatabaseState:
    """An Example 4 state where inserting into R3 (the all-key AE
    bridge) makes the lossless-join branches *converge*: E=e2 carries a
    C value that clashes with A=a's, so <R3, (a, e2)> must be refused
    with full diagnostics while <R3, (a, e)> is accepted."""
    return DatabaseState(
        example4_split_scheme(),
        {
            "R1": tuples_from_rows("AB", [("a", "b")]),
            "R2": tuples_from_rows("AC", [("a", "c")]),
            "R4": tuples_from_rows("EB", [("e", "b"), ("e2", "b")]),
            "R5": tuples_from_rows("EC", [("e", "c"), ("e2", "c2")]),
        },
    )


INSERT_SLATE = [
    ("R3", {"A": "a", "E": "e"}),  # branches agree: accept
    ("R3", {"A": "a", "E": "e2"}),  # C vs C2 clash: reject
    ("R4", {"E": "e9", "B": "b"}),  # fresh key value: accept
    ("R4", {"E": "e", "B": "b7"}),  # key E=e already bound: reject
    ("R1", {"A": "a", "B": "b_clash"}),  # key A=a already bound: reject
    ("R1", {"A": "a2", "B": "b"}),  # fresh key value: accept
]


class TestAlgorithm2Differential:
    def test_outcomes_byte_identical(self):
        maintainer = InsertMaintainer(example4_split_scheme())
        state = converging_state()
        decisions = []
        for name, values in INSERT_SLATE:
            assert uses_algorithm_2(maintainer, name)
            ours = maintainer.insert(state, name, values)
            oracle = interpreted_insert(maintainer, state, name, values)
            assert ours.consistent == oracle.consistent, (name, values)
            assert ours.tuples_examined == oracle.tuples_examined
            assert outcome_bytes(ours) == outcome_bytes(oracle)
            decisions.append(ours.consistent)
        # The slate must actually exercise both verdicts.
        assert True in decisions and False in decisions

    def test_accepted_states_identical(self):
        maintainer = InsertMaintainer(example4_split_scheme())
        state = converging_state()
        for name, values in INSERT_SLATE:
            ours = maintainer.insert(state, name, values)
            oracle = interpreted_insert(maintainer, state, name, values)
            if not ours.consistent:
                assert oracle.state is None and ours.state is None
                continue
            assert {
                relation_name: relation.row_vectors
                for relation_name, relation in ours.state
            } == {
                relation_name: relation.row_vectors
                for relation_name, relation in oracle.state
            }

    def test_block_batch_differential(self):
        # Example 4 is one key-equivalent block, so the whole state is
        # the block substate — this drives the batch-path _lookup site.
        maintainer = InsertMaintainer(example4_split_scheme())
        state = converging_state()
        operations = [
            (index, "insert", name, values)
            for index, (name, values) in enumerate(INSERT_SLATE)
        ]
        compiled = maintainer.block_batch(state, 0, operations)
        interpreted = interpreted_batch(
            maintainer, state, [operation[1:] for operation in operations]
        )
        assert compiled.applied == interpreted.applied
        assert compiled.failed_index == interpreted.failed_index
        assert compiled.failure is not None
        assert outcome_bytes(compiled.failure) == outcome_bytes(
            interpreted.failure
        )


@pytest.mark.parametrize(
    "build_state",
    [example5_state, example6_state, example10_state, example12_state],
    ids=["example5", "example6", "example10", "example12"],
)
def test_paper_states_insert_differential(build_state):
    state = build_state()
    scheme = state.scheme
    maintainer = InsertMaintainer(scheme)
    for member in scheme.relations:
        order = sorted(member.attributes)
        slates = [
            {a: a.lower() for a in order},  # joins the existing values
            {a: f"{a.lower()}_new" for a in order},  # entirely fresh
            {a: (a.lower() if i == 0 else f"{a.lower()}_mix")
             for i, a in enumerate(order)},  # half known, half fresh
        ]
        for values in slates:
            ours = maintainer.insert(state, member.name, values)
            if uses_algorithm_2(maintainer, member.name):
                oracle = interpreted_insert(
                    maintainer, state, member.name, values
                )
                assert outcome_bytes(ours) == outcome_bytes(oracle), (
                    member.name,
                    values,
                )
            else:
                # Algorithm 5 probes no RI lookup: check the decision
                # against the chase instead.
                assert ours.consistent == maintain_by_chase(
                    state, member.name, values
                ).consistent, (member.name, values)


@pytest.mark.parametrize("label", sorted(ALL_SCHEMES))
def test_engine_batch_differential(label):
    scheme = ALL_SCHEMES[label]()
    state = saturated_state(scheme)
    updates = []
    for member in scheme.relations:
        updates.append(
            ("insert", member.name,
             {a: f"{a.lower()}9" for a in member.attributes})
        )
        updates.append(
            ("insert", member.name,
             {a: (f"{a.lower()}0" if i == 0 else f"{a.lower()}9")
              for i, a in enumerate(sorted(member.attributes))})
        )
    engine = WeakInstanceEngine(scheme)
    ours = engine.batch(state, updates)
    oracle = interpreted_batch(engine.maintainer, state, updates)
    assert json.dumps(ours.to_dict(), sort_keys=True) == json.dumps(
        oracle.to_dict(), sort_keys=True
    )
    if ours.state is not None:
        assert {
            name: relation.row_vectors for name, relation in ours.state
        } == {
            name: relation.row_vectors for name, relation in oracle.state
        }
