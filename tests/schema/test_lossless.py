"""Tests for lossless subsets covering an attribute set — the engine of
Corollary 3.1(b) — and for the rooted extension-join enumeration."""

import pytest
from hypothesis import given, settings

from repro.foundations.errors import NotApplicableError
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.lossless import (
    extension_join_subsets_covering,
    is_lossless_subset,
    minimal_lossless_subsets_covering,
    subset_embedded_fds,
)
from tests.conftest import attribute_sets, key_equivalent_schemes, seeded_rng
from repro.workloads.paper import example4_split_scheme, example12_reducible


def names(subsets):
    return sorted(tuple(m.name for m in subset) for subset in subsets)


class TestExample4:
    """Example 4: [AE] is computed by R3 ∪ π_AE(AB ⋈ AC ⋈ (BE ⋈ CE)).

    The second branch is a *converging* lossless subset: it is lossless
    only because BC → AE ∈ F⁺ (derived through D), so the exact
    enumeration must find it while the rooted one cannot.
    """

    def test_minimal_subsets_covering_AE(self):
        scheme = example4_split_scheme()
        found = names(minimal_lossless_subsets_covering(scheme, "AE"))
        assert ("R3",) in found
        assert ("R1", "R2", "R4", "R5") in found

    def test_converging_subset_is_lossless(self):
        scheme = example4_split_scheme()
        subset = [scheme[n] for n in ("R1", "R2", "R4", "R5")]
        assert is_lossless_subset(subset, scheme.fds, scheme.universe)
        # ... but NOT under the members' own key dependencies alone:
        # the BC→AE derivation needs D's relations.
        assert not is_lossless_subset(subset)

    def test_rooted_enumeration_misses_converging_subset(self):
        scheme = example4_split_scheme()
        found = names(extension_join_subsets_covering(scheme, "AE"))
        assert ("R3",) in found
        assert ("R1", "R2", "R4", "R5") not in found

    def test_subsets_covering_single_key(self):
        scheme = example4_split_scheme()
        found = names(minimal_lossless_subsets_covering(scheme, "A"))
        assert ("R1",) in found
        assert ("R2",) in found
        assert ("R3",) in found
        assert ("R7",) in found


class TestExample12Block:
    """The block {R1,R2,R3,R4} of Example 12: [ACD] uses exactly the two
    joins the paper writes: R1⋈R2⋈R4 and R3⋈R4."""

    def test_acd_covering_subsets(self):
        block = example12_reducible().subscheme(["R1", "R2", "R3", "R4"])
        found = names(minimal_lossless_subsets_covering(block, "ACD"))
        assert found == [("R1", "R2", "R4"), ("R3", "R4")]

    def test_rooted_agrees_on_split_free_block(self):
        block = example12_reducible().subscheme(["R1", "R2", "R3", "R4"])
        assert names(extension_join_subsets_covering(block, "ACD")) == [
            ("R1", "R2", "R4"),
            ("R3", "R4"),
        ]


class TestLosslessSubsetCheck:
    def test_rooted_pair(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("BC", ["B"])}
        )
        assert is_lossless_subset(list(scheme.relations))

    def test_disconnected_pair_is_lossy(self):
        scheme = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("CD", ["C"])}
        )
        assert not is_lossless_subset(list(scheme.relations))

    def test_empty_subset(self):
        assert not is_lossless_subset([])

    def test_explicit_fds(self):
        scheme = DatabaseScheme.from_spec({"R1": "AB", "R2": "BC"})
        assert is_lossless_subset(list(scheme.relations), fds="B->C")
        assert not is_lossless_subset(list(scheme.relations), fds=[])

    def test_cap_on_exact_enumeration(self):
        scheme = DatabaseScheme.from_spec(
            {f"R{i}": ("AB", ["A"]) for i in range(1, 17)}
        )
        with pytest.raises(NotApplicableError):
            minimal_lossless_subsets_covering(scheme, "AB")


class TestProperties:
    @given(key_equivalent_schemes(), attribute_sets(alphabet="AB"))
    def test_enumerated_subsets_are_lossless_and_covering(
        self, scheme, target_seed
    ):
        universe = sorted(scheme.universe)
        target = frozenset(
            universe[ord(c) % len(universe)] for c in target_seed
        )
        for subset in minimal_lossless_subsets_covering(scheme, target):
            union = frozenset().union(*(m.attributes for m in subset))
            assert target <= union
            assert is_lossless_subset(
                list(subset), scheme.fds, scheme.universe
            )

    @given(key_equivalent_schemes())
    def test_rooted_subsets_are_lossless_even_standalone(self, scheme):
        """Rooted subsets are lossless already under their own embedded
        key dependencies (the root's closure covers the union)."""
        for subset in extension_join_subsets_covering(
            scheme, scheme.universe
        ):
            assert is_lossless_subset(list(subset))

    @given(key_equivalent_schemes())
    def test_subsets_are_inclusion_minimal(self, scheme):
        target = scheme.universe
        subsets = [
            frozenset(m.name for m in subset)
            for subset in minimal_lossless_subsets_covering(scheme, target)
        ]
        for left in subsets:
            for right in subsets:
                if left != right:
                    assert not left < right

    @given(key_equivalent_schemes())
    def test_every_target_coverable_on_key_equivalent_scheme(self, scheme):
        assert minimal_lossless_subsets_covering(scheme, scheme.universe)

    @given(key_equivalent_schemes(), seeded_rng())
    @settings(max_examples=15)
    def test_minimal_subsets_suffice_for_the_union(self, scheme, rng):
        """Corollary 3.1(b) quantifies over ALL lossless subsets; the
        implementation evaluates only the minimal ones.  Justification:
        a larger lossless join projects into each of its lossless
        sub-joins, so the union is unchanged — verified here by
        evaluating both unions on a random state."""
        from itertools import combinations

        from repro.algebra.expressions import (
            Project,
            RelationRef,
            join_all,
        )
        from repro.schema.lossless import is_lossless_subset
        from repro.workloads.states import random_consistent_state

        if len(scheme.relations) > 5:
            return
        target = scheme.relations[0].attributes
        state = random_consistent_state(scheme, rng, n_entities=4)

        def union_over(subsets):
            out = set()
            ordered = sorted(target)
            for subset in subsets:
                expression = Project(
                    join_all(
                        [RelationRef(m.name, m.attributes) for m in subset]
                    ),
                    target,
                )
                for row in expression.evaluate(state):
                    out.add(tuple(row[a] for a in ordered))
            return out

        minimal = minimal_lossless_subsets_covering(scheme, target)
        everything = []
        members = scheme.relations
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                union = frozenset().union(*(m.attributes for m in combo))
                if target <= union and is_lossless_subset(
                    list(combo), scheme.fds, scheme.universe
                ):
                    everything.append(combo)
        assert union_over(minimal) == union_over(everything)

    @given(key_equivalent_schemes())
    def test_rooted_results_are_among_lossless_covers(self, scheme):
        """Every rooted subset is lossless-covering (soundness of the
        extension-join enumeration against the exact test)."""
        exact = {
            frozenset(m.name for m in subset)
            for subset in minimal_lossless_subsets_covering(
                scheme, scheme.universe
            )
        }
        for subset in extension_join_subsets_covering(scheme, scheme.universe):
            chosen = frozenset(m.name for m in subset)
            # The rooted subset either is a minimal lossless cover or
            # contains one.
            assert any(minimal <= chosen for minimal in exact)
