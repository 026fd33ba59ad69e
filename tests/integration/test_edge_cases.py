"""Edge-case hardening: degenerate schemes, non-string domains, empty
relations, all-key relations, and boundary inputs across the stack."""

import pytest

from repro.analysis.report import analyze_scheme
from repro.core.engine import WeakInstanceEngine
from repro.core.key_equivalent import (
    is_key_equivalent,
    key_equivalent_representative_instance,
)
from repro.core.maintenance import ctm_insert
from repro.core.reducible import recognize_independence_reducible
from repro.foundations.errors import StateError
from repro.schema.database_scheme import DatabaseScheme
from repro.state.consistency import is_consistent, total_projection
from repro.state.database_state import DatabaseState


class TestDegenerateSchemes:
    def test_single_relation_single_attribute(self):
        scheme = DatabaseScheme.from_spec({"R1": "A"})
        report = analyze_scheme(scheme)
        assert report.bcnf
        assert report.independent
        assert report.key_equivalent
        assert report.ctm is True

    def test_single_relation_with_key(self):
        scheme = DatabaseScheme.from_spec({"R1": ("ABC", ["A"])})
        assert is_key_equivalent(scheme)
        assert recognize_independence_reducible(scheme).accepted

    def test_all_relations_all_key(self):
        """No non-trivial constraints at all: everything is trivially
        consistent and every class test still answers."""
        scheme = DatabaseScheme.from_spec({"R1": "AB", "R2": "BC"})
        report = analyze_scheme(scheme)
        assert report.independent
        assert report.independence_reducible
        state = DatabaseState(
            scheme,
            {
                "R1": [{"A": "a", "B": "b1"}],
                "R2": [{"B": "b2", "C": "c"}],
            },
        )
        assert is_consistent(state)
        assert total_projection(state, "ABC") == set()

    def test_identical_attribute_sets_different_names(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("AB", ["A"])}
        )
        # Duplicated key dependency in two schemes: not independent,
        # but key-equivalent and hence reducible as one block.
        report = analyze_scheme(scheme)
        assert not report.independent
        assert report.key_equivalent
        assert report.independence_reducible


class TestNonStringDomains:
    def test_integer_and_mixed_values(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("BC", ["B"])}
        )
        state = DatabaseState(
            scheme,
            {
                "R1": [{"A": 1, "B": (2, 3)}],
                "R2": [{"B": (2, 3), "C": None}],
            },
        )
        assert is_consistent(state)
        assert total_projection(state, "AC") == {(1, None)}

    def test_maintenance_with_integers(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A", "B"]), "R2": ("BC", ["B", "C"])}
        )
        state = DatabaseState(scheme, {"R1": [{"A": 1, "B": 2}]})
        outcome = ctm_insert(state, "R2", {"B": 2, "C": 3})
        assert outcome.consistent

    def test_value_none_is_a_constant_not_a_null(self):
        """The library has no null semantics in stored relations; None
        is just another constant and must compare as such."""
        scheme = DatabaseScheme.from_spec({"R1": ("AB", ["A"])})
        state = DatabaseState(
            scheme, {"R1": [{"A": "a", "B": None}]}
        )
        bad = state.insert("R1", {"A": "a", "B": "b"})
        assert not is_consistent(bad)

    def test_none_constants_through_ctm_maintenance(self):
        """The maintenance joins must detect conflicts on a stored None
        value (a regression test for presence-vs-None checks)."""
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A", "B"]), "R2": ("BC", ["B", "C"])}
        )
        state = DatabaseState(
            scheme,
            {
                "R1": [{"A": "a", "B": None}],
                "R2": [{"B": None, "C": "c"}],
            },
        )
        # Consistent: agrees on the existing chain through B=None.
        assert ctm_insert(state, "R2", {"B": None, "C": "c"}).consistent
        # Inconsistent: same key B=None, different C.
        assert not ctm_insert(state, "R2", {"B": None, "C": "x"}).consistent

    def test_none_constants_through_engine(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A", "B"]), "R2": ("BC", ["B", "C"])}
        )
        engine = WeakInstanceEngine(scheme)
        state = engine.load(
            {
                "R1": [{"A": None, "B": "b"}],
                "R2": [{"B": "b", "C": None}],
            }
        )
        assert engine.query(state, "AC") == {(None, None)}
        assert not engine.insert(state, "R1", {"A": "a2", "B": "b"}).consistent


class TestEmptyAndDuplicate:
    def test_empty_state_everything(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A", "B"]), "R2": ("BC", ["B", "C"])}
        )
        state = DatabaseState(scheme)
        assert is_consistent(state)
        instance = key_equivalent_representative_instance(state)
        assert instance.classes == []
        assert total_projection(state, "AB") == set()

    def test_duplicate_insert_is_consistent_noop(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A", "B"]), "R2": ("BC", ["B", "C"])}
        )
        state = DatabaseState(scheme, {"R1": [{"A": "a", "B": "b"}]})
        outcome = ctm_insert(state, "R1", {"A": "a", "B": "b"})
        assert outcome.consistent
        assert outcome.state.total_tuples() == 1

    def test_engine_modify(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A", "B"]), "R2": ("BC", ["B", "C"])}
        )
        engine = WeakInstanceEngine(scheme)
        state = engine.load({"R1": [{"A": "a", "B": "b"}]})
        outcome = engine.modify(
            state, "R1", {"A": "a", "B": "b"}, {"A": "a", "B": "b2"}
        )
        assert outcome.consistent
        assert {"A": "a", "B": "b2"} in outcome.state["R1"]
        assert {"A": "a", "B": "b"} not in outcome.state["R1"]

    def test_engine_modify_missing_old_tuple(self):
        scheme = DatabaseScheme.from_spec({"R1": ("AB", ["A"])})
        engine = WeakInstanceEngine(scheme)
        with pytest.raises(StateError):
            engine.modify(
                engine.empty_state(),
                "R1",
                {"A": "a", "B": "b"},
                {"A": "a", "B": "b2"},
            )

    def test_engine_modify_rejects_inconsistent_replacement(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("BC", ["B"])}
        )
        engine = WeakInstanceEngine(scheme)
        state = engine.load(
            {
                "R1": [{"A": "a", "B": "b"}, {"A": "x", "B": "y"}],
                "R2": [{"B": "y", "C": "c"}],
            }
        )
        # Re-pointing x's B to 'b' is fine; re-pointing a's to 'y' is
        # also fine... make a genuinely bad one: duplicate key A.
        outcome = engine.modify(
            state, "R1", {"A": "x", "B": "y"}, {"A": "a", "B": "y"}
        )
        assert not outcome.consistent


class TestWideKeys:
    def test_composite_key_spanning_most_attributes(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("ABCDE", ["ABCD"]), "R2": ("EF", ["E"])}
        )
        report = analyze_scheme(scheme)
        assert report.bcnf
        state = DatabaseState(
            scheme,
            {
                "R1": [
                    {"A": "a", "B": "b", "C": "c", "D": "d", "E": "e"}
                ],
                "R2": [{"E": "e", "F": "f"}],
            },
        )
        assert total_projection(state, "AF") == {("a", "f")}
