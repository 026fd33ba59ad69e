"""Tests for DatabaseState."""

import pytest

from repro.foundations.errors import StateError
from repro.schema.database_scheme import DatabaseScheme
from repro.state.database_state import (
    DatabaseState,
    state_of,
    tuples_from_rows,
)


def scheme():
    return DatabaseScheme.from_spec(
        {"R1": ("AB", ["A"]), "R2": ("BC", ["B"])}
    )


class TestConstruction:
    def test_missing_relations_default_empty(self):
        state = DatabaseState(scheme())
        assert len(state["R1"]) == 0
        assert state.is_empty()

    def test_unknown_relation_rejected(self):
        with pytest.raises(StateError):
            DatabaseState(scheme(), {"R9": []})

    def test_state_of_kwargs(self):
        state = state_of(scheme(), R1=[{"A": "a", "B": "b"}])
        assert len(state["R1"]) == 1

    def test_tuples_from_rows(self):
        rows = tuples_from_rows("AB", [("a", "b"), ("x", "y")])
        assert rows[0] == {"A": "a", "B": "b"}

    def test_tuples_from_rows_arity_check(self):
        with pytest.raises(StateError):
            tuples_from_rows("AB", [("a",)])


class TestUpdates:
    def test_insert_returns_new_state(self):
        state = DatabaseState(scheme())
        updated = state.insert("R1", {"A": "a", "B": "b"})
        assert state.is_empty()
        assert updated.total_tuples() == 1

    def test_delete(self):
        state = state_of(scheme(), R1=[{"A": "a", "B": "b"}])
        assert state.delete("R1", {"A": "a", "B": "b"}).is_empty()

    def test_with_relation_adopts_the_object(self):
        state = DatabaseState(scheme())
        relation = state["R1"].with_tuple({"A": "a", "B": "b"})
        updated = state.with_relation("R1", relation)
        assert updated["R1"] is relation
        assert updated["R2"] is state["R2"]
        assert state.is_empty()
        with pytest.raises(StateError):
            state.with_relation("R2", relation)

    def test_union_and_difference(self):
        left = state_of(scheme(), R1=[{"A": "a", "B": "b"}])
        right = state_of(scheme(), R2=[{"B": "b", "C": "c"}])
        merged = left.union(right)
        assert merged.total_tuples() == 2
        assert merged.difference(right) == left

    def test_union_requires_same_scheme(self):
        other = DatabaseScheme.from_spec({"X": "AB"})
        with pytest.raises(StateError):
            DatabaseState(scheme()).union(DatabaseState(other))


class TestTableau:
    def test_tableau_has_one_row_per_tuple(self):
        state = state_of(
            scheme(),
            R1=[{"A": "a", "B": "b"}],
            R2=[{"B": "b", "C": "c"}],
        )
        tableau = state.tableau()
        assert len(tableau) == 2
        assert tableau.universe == frozenset("ABC")

    def test_iteration_order_matches_scheme(self):
        state = DatabaseState(scheme())
        assert [name for name, _ in state] == ["R1", "R2"]
