"""Tests for Theorem 4.1 bounded query answering, including the paper's
Example 12 walk-through, against the full-chase baseline; the planner
against its reference route in ``repro.oracle``, plus a count gate on
the planner's work."""

import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import WeakInstanceEngine
from repro.core.query import QueryPlan, total_projection_plan
from repro.core.reducible import recognize_independence_reducible
from repro.foundations.errors import NotApplicableError, ReproError
from repro.oracle import (
    chase_state_naive,
    extension_join_subsets_covering_naive,
    minimal_lossless_subsets_covering_naive,
    total_projection_plan_naive,
    total_projection_reducible,
)
from repro.schema import lossless
from repro.schema.lossless import (
    extension_join_subsets_covering,
    minimal_lossless_subsets_covering,
)
from repro.schema.database_scheme import DatabaseScheme
from repro.state.consistency import representative_instance
from tests.conftest import every_generator, reducible_schemes, seeded_rng
from repro.workloads.paper import (
    ALL_SCHEMES,
    example2_not_algebraic,
    example12_reducible,
    example12_state,
)
from repro.workloads.scaling import tiled_university
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


def _outcome(function, *args):
    """``function(*args)`` rendered comparably — a plan as its string
    and branches, subsets as member names — or the exception type."""
    try:
        result = function(*args)
    except ReproError as error:
        return type(error)
    if isinstance(result, QueryPlan):
        return str(result), result.branches
    return [[member.name for member in subset] for subset in result]


def _targets(scheme, rng):
    """Every one- and two-attribute target, a few wider ones, the empty
    target and one outside the universe."""
    universe = sorted(scheme.universe)
    targets = [frozenset(), frozenset({"ZZ"})]
    targets += [frozenset(c) for size in (1, 2) for c in combinations(universe, size)]
    targets += [
        frozenset(rng.sample(universe, rng.randint(1, len(universe))))
        for _ in range(6)
    ]
    return targets


def _assert_plans_match_reference(scheme, rng, searches=True):
    """Plans, and with ``searches`` both subset searches run on the
    scheme itself, match the reference route on every target."""
    recognition = recognize_independence_reducible(scheme)
    # The exact enumeration is exponential below its 14-relation cap.
    exact = len(scheme.relations) <= 8 or len(scheme.relations) > 14
    for target in _targets(scheme, rng):
        assert _outcome(
            total_projection_plan, scheme, target, recognition
        ) == _outcome(
            total_projection_plan_naive, scheme, target, recognition
        ), sorted(target)
        if searches:
            assert _outcome(
                extension_join_subsets_covering, scheme, target
            ) == _outcome(extension_join_subsets_covering_naive, scheme, target)
        if searches and exact:
            assert _outcome(
                minimal_lossless_subsets_covering, scheme, target
            ) == _outcome(
                minimal_lossless_subsets_covering_naive, scheme, target
            )


def _wide_block(relations=16):
    """One key-equivalent block of ``Ri(K, Ai)``, each keyed on ``K``."""
    return {f"R{i}": (["K", f"A{i}"], [["K"]]) for i in range(1, relations + 1)}


class TestAgainstReference:
    """The production planner returns the reference route's plans, byte
    for byte, and raises the same exception types."""

    @given(every_generator, seeded_rng())
    @settings(max_examples=80)
    def test_every_generator_matches_the_reference(self, scheme, rng):
        _assert_plans_match_reference(scheme, rng)

    @pytest.mark.parametrize("label", sorted(ALL_SCHEMES))
    def test_paper_examples_match_the_reference(self, label):
        _assert_plans_match_reference(ALL_SCHEMES[label](), random.Random(label))

    def test_over_cap_block_matches_the_reference(self):
        scheme = DatabaseScheme.from_spec(
            {**_wide_block(), "Q": (["A1", "B"], [["A1"]])}
        )
        # Growth over sixteen mutually keyed members is exponential, so
        # only the plans (which raise) are compared here.
        _assert_plans_match_reference(scheme, random.Random(16), searches=False)


#: The query shapes of the ``write_churn`` serving workload: every 2-, 3-
#: and 4-attribute subset of one tile's attributes.
CHURN_SHAPES = [
    combo for size in (2, 3, 4) for combo in combinations("HRCTSG", size)
]


class TestPlanningCost:
    """A count-based complexity gate on planning every ``write_churn``
    target of ``tiled_university(k)``: no chase for a one-member subset,
    and chases and explored growth states per plan flat in ``k``."""

    @staticmethod
    def _plan_all(tiles):
        scheme = tiled_university(tiles)
        recognition = recognize_independence_reducible(scheme)
        chased_rows, explored = [], [0]
        chase, absorbable = lossless.chase, lossless._absorbable

        def counting_chase(tableau, fds):
            chased_rows.append(len(tableau.rows))
            return chase(tableau, fds)

        def counting_absorbable(*args):
            explored[0] += 1
            return absorbable(*args)

        plans = 0
        with mock.patch.object(lossless, "chase", counting_chase), (
            mock.patch.object(lossless, "_absorbable", counting_absorbable)
        ):
            for tile in range(tiles):
                for shape in CHURN_SHAPES:
                    target = [f"{letter}{tile}" for letter in shape]
                    total_projection_plan(scheme, target, recognition)
                    plans += 1
        return plans, chased_rows, explored[0]

    def test_counts_per_plan_do_not_grow_with_tiles(self):
        per_plan = {}
        for tiles in (4, 16, 64):
            plans, chased_rows, explored = self._plan_all(tiles)
            assert plans == 50 * tiles
            assert chased_rows and min(chased_rows) > 1
            per_plan[tiles] = (len(chased_rows) / plans, explored / plans)
        assert per_plan[16] <= per_plan[4]
        assert per_plan[64] <= per_plan[4]


class TestOverCapBlock:
    """A block past the exact lossless-subset enumeration's 14-relation
    cap has no plan: the planner raises a typed error and the engine
    answers the target by the chase."""

    @staticmethod
    def _engine_and_state():
        scheme = DatabaseScheme.from_spec(_wide_block())
        engine = WeakInstanceEngine(scheme)
        state = engine.empty_state()
        for name, values in (
            ("R1", {"K": "k", "A1": "a1"}),
            ("R2", {"K": "k", "A2": "a2"}),
            ("R2", {"K": "j", "A2": "b2"}),
        ):
            state = engine.insert(state, name, values).state
        return engine, state

    def test_recognized_as_one_block(self):
        engine, _ = self._engine_and_state()
        assert engine.reducible
        assert len(engine.partition.blocks) == 1

    def test_planner_raises_a_typed_error(self):
        engine, _ = self._engine_and_state()
        with pytest.raises(NotApplicableError, match="capped at 14"):
            total_projection_plan(engine.scheme, ["A1", "A2"])

    def test_query_takes_the_chase(self):
        engine, state = self._engine_and_state()
        for target in (["A1", "A2"], ["K", "A2"], ["A2"], ["A3"]):
            expected = chase_state_naive(state).tableau.total_projection(
                frozenset(target)
            )
            assert engine.query(state, target) == expected
        assert engine.query(state, ["A1", "A2"]) == {("a1", "a2")}

    def test_cross_block_target_takes_the_whole_chase(self):
        # [A2B] needs A1 → B to fire between R1's row and Q's, which a
        # per-block chase never sees.
        scheme = DatabaseScheme.from_spec(
            {**_wide_block(), "Q": (["A1", "B"], [["A1"]])}
        )
        engine = WeakInstanceEngine(scheme)
        state = engine.load(
            {
                "R1": [{"K": "k", "A1": "a1"}],
                "R2": [{"K": "k", "A2": "a2"}],
                "Q": [{"A1": "a1", "B": "b"}],
            }
        )
        assert len(engine.partition.blocks) == 2
        assert engine.query(state, ["A2", "B"]) == {("a2", "b")}

    def test_read_cache_keys_on_every_block(self):
        engine, _ = self._engine_and_state()
        assert engine.read_cache.touched_blocks(
            frozenset({"A1", "A2"}), engine.plan
        ) == tuple(range(len(engine.partition.blocks)))

    def test_explain_names_the_chase(self):
        engine, _ = self._engine_and_state()
        text = engine.explain(["A1", "A2"])
        assert text.startswith("[A1,A2] = π!_A1,A2(CHASE_F(T_r)) (")
        assert "capped at 14 relations" in text
