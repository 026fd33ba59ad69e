"""Tests for Algorithms 2, 4 and 5 against the full-chase ground truth,
reproducing the paper's worked maintenance examples exactly."""

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import repro.state.relation as relation_module
from repro.core.engine import WeakInstanceEngine

from repro.core.maintenance import (
    StateIndex,
    algebraic_insert,
    ctm_insert,
    extend_tuple,
)
from repro.foundations.errors import NotApplicableError
from repro.oracle import (
    ChaseRILookup,
    ExpressionRILookup,
    GreatestExpressionRILookup,
)
from repro.state.consistency import maintain_by_chase
from repro.state.database_state import DatabaseState, tuples_from_rows
from tests.conftest import seeded_rng
from repro.workloads.paper import (
    example4_split_scheme,
    example5_state,
    example6_scheme,
    example6_state,
    example10_scheme,
    example10_state,
)
from repro.workloads.random_schemes import random_key_equivalent_scheme
from repro.workloads.scaling import tiled_university
from repro.workloads.states import (
    conflicting_insert_candidate,
    consistent_insert_candidate,
    random_consistent_state,
    universe_tuple,
)
from repro.core.split import is_split_free


class TestAlgorithm4:
    def test_example10_extension_of_a(self):
        """Example 10: extending <a> along key A yields <a, b, c>."""
        state = example10_state()
        index = StateIndex(state)
        extension = extend_tuple(index, frozenset("A"), {"A": "a"})
        assert extension.values == {"A": "a", "B": "b", "C": "c"}
        assert extension.attributes == frozenset("ABC")

    def test_example10_extension_of_missing_value(self):
        state = example10_state()
        index = StateIndex(state)
        extension = extend_tuple(index, frozenset("C"), {"C": "c'"})
        assert extension.values == {"C": "c'"}

    def test_extension_order_independence(self):
        """Lemma 3.3(b): re-extending from any key inside the result
        reproduces the same tuple."""
        state = example10_state()
        index = StateIndex(state)
        first = extend_tuple(index, frozenset("A"), {"A": "a"})
        again = extend_tuple(index, frozenset("B"), {"B": first.values["B"]})
        assert again.values == first.values


class TestAlgorithm5:
    def test_example10_rejects_conflicting_insert(self):
        """The paper's walk-through: inserting <a, c'> into s3 joins
        <a,c'> ⋈ <a,b,c> ⋈ <c'> = ∅ — output no."""
        state = example10_state()
        outcome = ctm_insert(state, "S3", {"A": "a", "C": "c'"})
        assert not outcome.consistent

    def test_example10_accepts_matching_insert(self):
        state = example10_state()
        outcome = ctm_insert(state, "S3", {"A": "a", "C": "c"})
        assert outcome.consistent
        assert outcome.state is not None

    def test_rejects_on_split_scheme(self):
        state = example5_state()
        with pytest.raises(NotApplicableError):
            ctm_insert(state, "R3", {"A": "a", "E": "e"})

    @given(seeded_rng(), st.integers(min_value=1, max_value=8))
    def test_matches_chase_on_split_free_schemes(self, rng, n):
        scheme = random_key_equivalent_scheme(rng, n_relations=3)
        if not is_split_free(scheme):
            return
        state = random_consistent_state(scheme, rng, n_entities=n)
        for candidate in (
            consistent_insert_candidate(scheme, rng, n),
            conflicting_insert_candidate(scheme, rng, n),
        ):
            name, values = candidate
            expected = maintain_by_chase(state, name, values).consistent
            actual = ctm_insert(state, name, values).consistent
            assert actual == expected


class TestAlgorithm2:
    def test_example6_trace_reproduces_walkthrough(self):
        """The trace of Algorithm 2 on Example 6 shows the keys A and B
        extending q and the CD step emptying the join."""
        from repro.core.maintenance import InsertTraceStep

        trace: list[InsertTraceStep] = []
        state = example6_state()
        outcome = algebraic_insert(
            state,
            "R1",
            {"A": "a", "B": "b", "E": "e'"},
            lookup=ChaseRILookup(state),
            trace=trace,
        )
        assert not outcome.consistent
        assert [sorted(step.key) for step in trace] == [
            ["A"],
            ["B"],
            ["C", "D"],
        ]
        assert trace[0].found == {"A": "a", "C": "c"}
        assert trace[1].found == {"B": "b", "D": "d"}
        assert trace[-1].joined is None  # the empty join
        assert "output no" in trace[-1].render()

    def test_example6_rejects_insert(self):
        """Example 6: inserting <a, b, e'> into r1 joins down to the
        empty tuple at the CD step — output no."""
        state = example6_state()
        outcome = algebraic_insert(
            state,
            "R1",
            {"A": "a", "B": "b", "E": "e'"},
            lookup=ChaseRILookup(state),
        )
        assert not outcome.consistent

    def test_example6_accepts_fresh_insert(self):
        state = example6_state()
        outcome = algebraic_insert(
            state,
            "R1",
            {"A": "a9", "B": "b9", "E": "e9"},
            lookup=ChaseRILookup(state),
        )
        assert outcome.consistent
        # The witness tuple q is the insert itself — no stored tuple
        # shares any of its keys.
        assert outcome.witness == {"A": "a9", "B": "b9", "E": "e9"}

    def test_witness_tuple_carries_extensions(self):
        """Algorithm 2 outputs q: the insert joined with the known
        representative-instance rows (Example 6's keys walk: inserting
        <a, b, e> where r2/r5 know a and b extends q with c and d)."""
        state = example6_state()
        outcome = algebraic_insert(
            state,
            "R1",
            {"A": "a", "B": "b", "E": "e"},
            lookup=ChaseRILookup(state),
        )
        assert outcome.consistent
        assert outcome.witness == {
            "A": "a",
            "B": "b",
            "C": "c",
            "D": "d",
            "E": "e",
        }

    def test_example7_rejects_insert_via_expressions(self):
        """Example 7: inserting <a, e> into r3 is rejected because the
        representative-instance tuple for A='a' is <a,b,c,e1>, computed
        by σ over R1 ⋈ R2 ⋈ (R4 ⋈ R5)."""
        state = example5_state(chain_length=4)
        lookup = ExpressionRILookup(state)
        outcome = algebraic_insert(
            state, "R3", {"A": "a", "E": "e"}, lookup=lookup
        )
        assert not outcome.consistent
        # The lookup must have assembled E=e1 for the 'a'-tuple.
        row = ExpressionRILookup(state).find(frozenset("A"), {"A": "a"})
        assert row == {"A": "a", "B": "b", "C": "c", "E": "e1"}

    def test_example7_accepts_matching_insert(self):
        state = example5_state(chain_length=4)
        outcome = algebraic_insert(
            state,
            "R3",
            {"A": "a", "E": "e1"},
            lookup=ExpressionRILookup(state),
        )
        assert outcome.consistent

    def test_chase_lookup_and_expression_lookup_agree(self):
        state = example5_state(chain_length=4)
        chase_row = ChaseRILookup(state).find(frozenset("A"), {"A": "a"})
        expr_row = ExpressionRILookup(state).find(frozenset("A"), {"A": "a"})
        assert chase_row == expr_row

    def test_greatest_expression_lookup_agrees(self):
        """The paper-literal Example 7 mechanism: the greatest non-empty
        lossless expression yields the representative-instance row."""
        state = example5_state(chain_length=4)
        greatest = GreatestExpressionRILookup(state)
        assert greatest.find(frozenset("A"), {"A": "a"}) == (
            ChaseRILookup(state).find(frozenset("A"), {"A": "a"})
        )
        assert greatest.find(frozenset("A"), {"A": "zzz"}) is None

    def test_greatest_expression_lookup_ceiling(self):
        """The exhaustive enumeration is exponential in the relation
        count, so construction refuses schemes beyond its explicit
        ceiling with a diagnosis naming both bounds — before any
        subset is enumerated."""
        import random

        from repro.workloads.random_schemes import random_independent_scheme

        scheme = random_independent_scheme(
            random.Random(7), n_relations=13
        )
        state = DatabaseState(scheme)
        with pytest.raises(NotApplicableError) as excinfo:
            GreatestExpressionRILookup(state)
        message = str(excinfo.value)
        assert "capped at 12 relation schemes" in message
        assert "this scheme has 13" in message
        assert "ExpressionRILookup" in message
        # The ceiling is a parameter, not a constant: raising it
        # explicitly admits the same scheme.
        assert GreatestExpressionRILookup(state, max_relations=13)
        # At the ceiling itself construction succeeds.
        at_limit = random_independent_scheme(random.Random(7), n_relations=12)
        assert GreatestExpressionRILookup(DatabaseState(at_limit))

    @given(seeded_rng(), st.integers(min_value=1, max_value=5))
    def test_greatest_lookup_matches_chase_lookup(self, rng, n):
        scheme = random_key_equivalent_scheme(rng, n_relations=3)
        state = random_consistent_state(scheme, rng, n_entities=n)
        chase_lookup = ChaseRILookup(state)
        greatest = GreatestExpressionRILookup(state)
        for key in scheme.all_keys():
            for row in chase_lookup.instance.classes:
                if not all(a in row for a in key):
                    continue
                values = {a: row[a] for a in key}
                assert greatest.find(frozenset(key), values) == (
                    chase_lookup.find(frozenset(key), values)
                )

    @given(seeded_rng(), st.integers(min_value=1, max_value=8))
    def test_matches_chase_on_key_equivalent_schemes(self, rng, n):
        """Theorem 3.1: Algorithm 2 outputs yes exactly when the updated
        state is consistent — with both lookup backends."""
        scheme = random_key_equivalent_scheme(rng, n_relations=3)
        state = random_consistent_state(scheme, rng, n_entities=n)
        for candidate in (
            consistent_insert_candidate(scheme, rng, n),
            conflicting_insert_candidate(scheme, rng, n),
        ):
            name, values = candidate
            expected = maintain_by_chase(state, name, values).consistent
            via_chase_lookup = algebraic_insert(
                state, name, values, lookup=ChaseRILookup(state)
            ).consistent
            via_expressions = algebraic_insert(
                state, name, values, lookup=ExpressionRILookup(state)
            ).consistent
            assert via_chase_lookup == expected
            assert via_expressions == expected

    @given(seeded_rng(), st.integers(min_value=2, max_value=8))
    def test_expression_lookup_matches_rep_instance(self, rng, n):
        """The Theorem 3.2 lookup assembles exactly the representative-
        instance row for any key value present in the state."""
        scheme = random_key_equivalent_scheme(rng, n_relations=3)
        state = random_consistent_state(scheme, rng, n_entities=n)
        chase_lookup = ChaseRILookup(state)
        expr_lookup = ExpressionRILookup(state)
        for key in scheme.all_keys():
            for row in chase_lookup.instance.classes:
                if not all(a in row for a in key):
                    continue
                values = {a: row[a] for a in key}
                assert expr_lookup.find(frozenset(key), values) == (
                    chase_lookup.find(frozenset(key), values)
                )


class TestIndexBuilds:
    """Algorithm 5 pays for its probes, not for its state: the key
    indexes it probes are built once per (relation, key) and then
    follow every write, on the single-insert route and on the block
    kernel behind a batch slice alike."""

    @staticmethod
    def _stream(scheme, n):
        """``n`` inserts of entity projections, half of them entities the
        start state already holds elsewhere (so probes find rows)."""
        updates = []
        for step in range(n):
            entity = universe_tuple(scheme, step % 24)
            member = scheme.relations[step % len(scheme.relations)]
            updates.append(
                (member.name, {a: entity[a] for a in member.attributes})
            )
        return updates

    @pytest.mark.parametrize("route", ["insert", "slice"])
    @pytest.mark.parametrize("n", [1, 16, 96])
    def test_each_index_is_built_at_most_once(self, route, n):
        scheme = tiled_university(2)
        engine = WeakInstanceEngine(scheme)
        state = random_consistent_state(scheme, random.Random(5), 12)
        builds = mock.Mock(wraps=relation_module._build_key_index)
        with mock.patch.object(relation_module, "_build_key_index", builds):
            updates = self._stream(scheme, n)
            if route == "insert":
                for name, values in updates:
                    outcome = engine.insert(state, name, values)
                    assert outcome.consistent
                    state = outcome.state
            else:
                # Prepare-sized slices, each on the previous one's state.
                for start in range(0, n, 8):
                    operations = [
                        (index, "insert", name, values)
                        for index, (name, values) in enumerate(
                            updates[start:start + 8], start
                        )
                    ]
                    outcome = engine.apply_slice(state, operations)
                    assert outcome.substate is not None
                    state = outcome.substate
        signatures = [
            (order, key_attrs) for (_, order, key_attrs), _ in builds.call_args_list
        ]
        assert signatures, "the stream probed no index"
        assert len(signatures) == len(set(signatures))
        scanned = sum(len(rows) for (rows, _, _), _ in builds.call_args_list)
        assert scanned <= len(signatures) * state.total_tuples()
