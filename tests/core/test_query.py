"""Tests for Theorem 4.1 bounded query answering, including the paper's
Example 12 walk-through, against the full-chase baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import total_projection_plan
from repro.core.reducible import recognize_independence_reducible
from repro.foundations.errors import NotApplicableError
from repro.oracle import total_projection_reducible
from repro.state.consistency import representative_instance
from tests.conftest import reducible_schemes, seeded_rng
from repro.workloads.paper import (
    example2_not_algebraic,
    example12_reducible,
    example12_state,
)
from repro.workloads.states import random_consistent_state


class TestExample12:
    """The paper computes [ACG] on Example 12 as
    π_ACG((π_ACD(R1⋈R2⋈R4) ∪ π_ACD(R3⋈R4)) ⋈ π_DG(R6))."""

    def test_plan_matches_paper_expression(self):
        plan = total_projection_plan(example12_reducible(), "ACG")
        assert str(plan.expression) == (
            "π_ACG((π_ACD(R1 ⋈ R2 ⋈ R4) ∪ π_ACD(R3 ⋈ R4)) ⋈ π_DG(R6))"
        )

    def test_plan_y_sets(self):
        plan = total_projection_plan(example12_reducible(), "ACG")
        assert len(plan.branches) == 1
        branch = dict(plan.branches[0])
        assert branch["D1"] == frozenset("ACD")
        assert branch["D2"] == frozenset("DG")

    def test_evaluation_both_methods(self):
        state = example12_state()
        assert total_projection_reducible(state, "ACG") == {("a", "c", "g")}
        assert total_projection_reducible(
            state, "ACG", method="expression"
        ) == {("a", "c", "g")}

    def test_matches_chase(self):
        state = example12_state()
        baseline = representative_instance(state).total_projection("ACG")
        assert total_projection_reducible(state, "ACG") == baseline


class TestApplicability:
    def test_rejects_non_reducible_scheme(self):
        from repro.state.database_state import DatabaseState

        scheme = example2_not_algebraic()
        with pytest.raises(NotApplicableError):
            total_projection_plan(scheme, "AC")
        with pytest.raises(NotApplicableError):
            total_projection_reducible(DatabaseState(scheme), "AC")

    def test_unknown_method(self):
        state = example12_state()
        with pytest.raises(ValueError):
            total_projection_reducible(state, "ACG", method="nope")

    def test_target_outside_universe(self):
        from repro.foundations.errors import SchemaError

        with pytest.raises(SchemaError):
            total_projection_plan(example12_reducible(), "XYZ")


class TestProperties:
    @given(reducible_schemes(), seeded_rng(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=25)
    def test_block_method_matches_chase(self, scheme_and_expected, rng, n):
        """Theorem 4.1: the block evaluation computes exactly [X] for
        every member scheme and for random cross-block targets."""
        scheme, _ = scheme_and_expected
        state = random_consistent_state(scheme, rng, n_entities=n)
        baseline = representative_instance(state)
        recognition = recognize_independence_reducible(scheme)
        targets = [m.attributes for m in scheme.relations]
        universe = sorted(scheme.universe)
        targets.append(frozenset(rng.sample(universe, min(3, len(universe)))))
        for target in targets:
            expected = baseline.total_projection(target)
            actual = total_projection_reducible(state, target, recognition)
            assert actual == expected, f"mismatch on {sorted(target)}"

    @given(reducible_schemes(), seeded_rng(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=10)
    def test_expression_method_matches_chase(
        self, scheme_and_expected, rng, n
    ):
        scheme, _ = scheme_and_expected
        if len(scheme.relations) > 9:
            return
        state = random_consistent_state(scheme, rng, n_entities=n)
        baseline = representative_instance(state)
        recognition = recognize_independence_reducible(scheme)
        for member in scheme.relations[:2]:
            target = member.attributes
            expected = baseline.total_projection(target)
            actual = total_projection_reducible(
                state, target, recognition, method="expression"
            )
            assert actual == expected

    @given(reducible_schemes())
    @settings(max_examples=15)
    def test_plan_is_predetermined(self, scheme_and_expected):
        """The plan must mention relations, not data: building it twice
        yields identical expressions, independent of any state."""
        scheme, _ = scheme_and_expected
        target = scheme.relations[0].attributes
        assert str(total_projection_plan(scheme, target)) == str(
            total_projection_plan(scheme, target)
        )
