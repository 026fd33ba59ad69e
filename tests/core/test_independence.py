"""Tests for the uniqueness-condition independence test, cross-validated
against exhaustive small-state LSAT/WSAT search and against the
per-pair definition, plus a count gate on how many ``F − F_j`` sets
recognition builds."""

import random
from unittest import mock

from hypothesis import given, settings

from repro.core import independence, reducible
from repro.core.independence import (
    describe_violations,
    find_independence_counterexample,
    is_independent,
    satisfies_uniqueness_condition,
    uniqueness_violations,
)
from repro.core.reducible import recognize_independence_reducible
from repro.oracle import uniqueness_violations_naive
from repro.schema.database_scheme import DatabaseScheme
from repro.state.consistency import is_consistent, is_locally_consistent
from repro.workloads.random_schemes import random_scheme
from repro.workloads.scaling import tiled_university
from tests.conftest import (
    arbitrary_schemes,
    every_generator,
    independent_schemes,
)
from repro.workloads.paper import (
    example1_university,
    example3_triangle,
    intro_scheme_s,
)


class TestPaperClaims:
    def test_intro_s_scheme_is_independent(self):
        assert is_independent(intro_scheme_s())

    def test_university_scheme_is_not_independent(self):
        assert not is_independent(example1_university())

    def test_triangle_is_not_independent(self):
        assert not is_independent(example3_triangle())

    def test_violations_are_reported(self):
        violations = uniqueness_violations(example3_triangle())
        assert violations
        descriptions = describe_violations(example3_triangle())
        assert len(descriptions) == len(violations)


class TestKnownCases:
    def test_disjoint_relations_independent(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("CD", ["C"])}
        )
        assert is_independent(scheme)

    def test_shared_key_attribute_only(self):
        # R2's key D appears in R1; R1+ without F2 cannot complete any
        # key dependency of R2.
        scheme = DatabaseScheme.from_spec(
            {"R1": ("ABD", ["A"]), "R2": ("DEF", ["D"])}
        )
        assert is_independent(scheme)

    def test_duplicated_key_dependency_not_independent(self):
        # Both relations embed A->B.
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("ABC", ["A"])}
        )
        assert not is_independent(scheme)


class TestCounterexampleSearch:
    def test_finds_lsat_minus_wsat_state_for_triangle(self):
        state = find_independence_counterexample(example3_triangle())
        assert state is not None
        assert is_locally_consistent(state)
        assert not is_consistent(state)

    def test_no_counterexample_for_independent_scheme(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("CD", ["C"])}
        )
        assert find_independence_counterexample(scheme) is None


class TestCrossValidation:
    @given(independent_schemes())
    @settings(max_examples=15)
    def test_constructive_family_passes_uniqueness(self, scheme):
        assert satisfies_uniqueness_condition(scheme)

    @given(independent_schemes())
    @settings(max_examples=5)
    def test_constructive_family_has_no_small_counterexample(self, scheme):
        if len(scheme.universe) > 7 or len(scheme.relations) > 3:
            return  # keep the exhaustive search tractable
        assert find_independence_counterexample(scheme) is None

    @given(arbitrary_schemes())
    @settings(max_examples=15)
    def test_uniqueness_condition_vs_state_search(self, scheme):
        """Cross-validate Sagiv's characterization against exhaustive
        small-state search: a locally-consistent globally-inconsistent
        state exists iff the uniqueness condition fails (on schemes
        small enough for the exhaustive search to be meaningful)."""
        if len(scheme.universe) > 5 or len(scheme.relations) > 3:
            return
        state = find_independence_counterexample(scheme)
        if state is not None:
            # Counterexamples always certify non-independence.
            assert is_locally_consistent(state)
            assert not is_consistent(state)
            assert not is_independent(scheme)
        elif is_independent(scheme):
            assert state is None


def _naive_outputs(scheme):
    """``describe_violations`` and Algorithm 6's rejection reason with
    the per-pair definition plugged in as the violation finder."""
    with mock.patch.object(
        independence, "uniqueness_violations", uniqueness_violations_naive
    ), mock.patch.object(
        reducible, "uniqueness_violations", uniqueness_violations_naive
    ):
        return (
            describe_violations(scheme),
            recognize_independence_reducible(scheme).rejection_reason,
        )


def _assert_matches_definition(scheme):
    assert uniqueness_violations(scheme) == uniqueness_violations_naive(scheme)
    result = recognize_independence_reducible(scheme)
    assert uniqueness_violations(result.induced) == (
        uniqueness_violations_naive(result.induced)
    )
    assert (describe_violations(scheme), result.rejection_reason) == (
        _naive_outputs(scheme)
    )
    return result


class TestAgainstDefinition:
    """The pruned violation search lists exactly what the per-pair
    definition lists, in the same order, so every message built from
    the list is unchanged."""

    @given(every_generator)
    @settings(max_examples=120)
    def test_every_generator_matches_the_definition(self, scheme):
        _assert_matches_definition(scheme)

    def test_rejected_random_schemes_match_the_definition(self):
        # The E11 sweep's generator rejects about a quarter of its
        # schemes; both branches must be compared, not just acceptance.
        rng = random.Random(1988)
        outcomes = [
            _assert_matches_definition(
                random_scheme(rng, n_attributes=6, n_relations=rng.randint(3, 7))
            ).accepted
            for _ in range(60)
        ]
        assert 0 < outcomes.count(False) < len(outcomes)

    def test_paper_examples_match_the_definition(self):
        for scheme in (example1_university(), example3_triangle()):
            assert uniqueness_violations(scheme)
            _assert_matches_definition(scheme)


class TestRecognitionCost:
    """A count-based complexity gate: ``F − F_j`` is built at most once
    per induced relation, and the number built grows at most linearly
    in the number of tiles."""

    @staticmethod
    def _excluded_names(tiles):
        excluded = []
        original = DatabaseScheme.fds_excluding

        def counting(scheme, name_or_scheme):
            excluded.append(getattr(name_or_scheme, "name", name_or_scheme))
            return original(scheme, name_or_scheme)

        with mock.patch.object(DatabaseScheme, "fds_excluding", counting):
            result = recognize_independence_reducible(tiled_university(tiles))
        assert result.accepted
        return excluded, len(result.induced)

    def test_fd_sets_built_per_relation_not_per_pair(self):
        counts = {}
        for tiles in (4, 16, 64):
            excluded, induced = self._excluded_names(tiles)
            assert len(excluded) == len(set(excluded))
            assert len(excluded) <= induced
            counts[tiles] = len(excluded)
        # Linear in k: each tile may add at most what the first four
        # tiles averaged (the per-pair definition makes 3k·(3k−1)).
        per_tile = max(counts[4] / 4, 1)
        assert counts[16] <= 16 * per_tile
        assert counts[64] <= 64 * per_tile
