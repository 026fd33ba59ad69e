"""Tests for the WeakInstanceEngine façade."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import InconsistentStateError, StateError
from repro.state.consistency import is_consistent, total_projection
from tests.conftest import reducible_schemes, seeded_rng
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example12_reducible,
)
from repro.workloads.states import (
    random_consistent_state,
    universe_tuple,
)


def university_engine():
    return WeakInstanceEngine(example1_university())


class TestLoading:
    def test_load_validates(self):
        engine = university_engine()
        with pytest.raises(InconsistentStateError):
            engine.load(
                {
                    "R1": [
                        {"H": "h", "R": "r", "C": "c1"},
                        {"H": "h", "R": "r", "C": "c2"},
                    ]
                }
            )

    def test_load_accepts_consistent(self):
        engine = university_engine()
        state = engine.load({"R1": [{"H": "h", "R": "r", "C": "c"}]})
        assert state.total_tuples() == 1

    def test_empty_state(self):
        assert university_engine().empty_state().is_empty()


class TestUpdates:
    def test_insert_and_delete_roundtrip(self):
        engine = university_engine()
        state = engine.empty_state()
        outcome = engine.insert(state, "R1", {"H": "h", "R": "r", "C": "c"})
        assert outcome.consistent
        back = engine.delete(outcome.state, "R1", {"H": "h", "R": "r", "C": "c"})
        assert back.is_empty()

    def test_deletion_always_safe(self):
        engine = university_engine()
        state = engine.load(
            {
                "R1": [{"H": "h", "R": "r", "C": "c"}],
                "R4": [{"C": "c", "S": "s", "G": "g"}],
            }
        )
        smaller = engine.delete(state, "R4", {"C": "c", "S": "s", "G": "g"})
        assert is_consistent(smaller)

    def test_batch_all_or_nothing(self):
        engine = university_engine()
        state = engine.empty_state()
        outcome = engine.batch(
            state,
            [
                ("insert", "R1", {"H": "h", "R": "r", "C": "c1"}),
                # violates key HR against the first insert:
                ("insert", "R1", {"H": "h", "R": "r", "C": "c2"}),
            ],
        )
        assert not outcome
        assert outcome.failed_index == 1
        assert outcome.state is None

    def test_batch_success(self):
        engine = university_engine()
        outcome = engine.batch(
            engine.empty_state(),
            [
                ("insert", "R1", {"H": "h", "R": "r", "C": "c"}),
                ("insert", "R4", {"C": "c", "S": "s", "G": "g"}),
                ("delete", "R4", {"C": "c", "S": "s", "G": "g"}),
            ],
        )
        assert outcome
        assert outcome.state.total_tuples() == 1

    def test_batch_rejects_unknown_operation(self):
        engine = university_engine()
        with pytest.raises(StateError):
            engine.batch(
                engine.empty_state(), [("upsert", "R1", {})]
            )

    def test_batch_outcome_to_dict_round_trips_failure(self):
        import json

        engine = university_engine()
        outcome = engine.batch(
            engine.empty_state(),
            [
                ("insert", "R1", {"H": "h", "R": "r", "C": "c1"}),
                ("insert", "R1", {"H": "h", "R": "r", "C": "c2"}),
            ],
        )
        rendered = outcome.to_dict()
        assert rendered["committed"] is False
        assert rendered["failed_index"] == 1
        assert rendered["failure"]["consistent"] is False
        assert rendered["failure"]["tuples_examined"] >= 1
        # The rendering is JSON-clean (the WAL and CLI both dump it).
        assert json.loads(json.dumps(rendered)) == rendered

    def test_batch_outcome_to_dict_on_success(self):
        engine = university_engine()
        outcome = engine.batch(
            engine.empty_state(),
            [("insert", "R1", {"H": "h", "R": "r", "C": "c"})],
        )
        assert outcome.to_dict() == {
            "committed": True,
            "applied": 1,
            "failed_index": None,
            "failure": None,
        }

    def test_maintenance_outcome_to_dict_renders_witness(self):
        import json

        engine = university_engine()
        state = engine.empty_state()
        outcome = engine.insert(state, "R1", {"H": "h", "R": "r", "C": "c"})
        rendered = outcome.to_dict()
        assert rendered["consistent"] is True
        assert json.loads(json.dumps(rendered)) == rendered


class TestQueries:
    def test_plan_cached(self):
        engine = WeakInstanceEngine(example12_reducible())
        assert engine.plan("ACG") is engine.plan("ACG")

    def test_explain_reducible(self):
        engine = WeakInstanceEngine(example12_reducible())
        assert "π_ACG" in engine.explain("ACG")

    def test_explain_non_reducible(self):
        engine = WeakInstanceEngine(example2_not_algebraic())
        assert "CHASE" in engine.explain("AC")

    def test_query_non_reducible_falls_back_to_chase(self):
        engine = WeakInstanceEngine(example2_not_algebraic())
        state = engine.load(
            {
                "R1": [{"A": "a", "B": "b"}],
                "R2": [{"B": "b", "C": "c"}],
            }
        )
        assert engine.query(state, "AC") == {("a", "c")}

    @given(
        reducible_schemes(),
        seeded_rng(),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15)
    def test_query_matches_chase(self, scheme_and_expected, rng, n):
        scheme, _ = scheme_and_expected
        engine = WeakInstanceEngine(scheme)
        state = random_consistent_state(scheme, rng, n_entities=n)
        for member in scheme.relations[:2]:
            target = member.attributes
            assert engine.query(state, target) == total_projection(
                state, target
            )
