"""Tests for KEP, Algorithm 6 and the closure properties of the
independence-reducible class (Theorems 4.3, 5.1-5.4)."""

import pytest
from hypothesis import given, settings

from repro.core.independence import is_independent
from repro.core.key_equivalent import is_key_equivalent
from repro.core.reducible import (
    induced_scheme,
    is_independence_reducible,
    key_equivalent_partition,
    recognize_independence_reducible,
)
from repro.fd.normal_forms import database_scheme_is_bcnf
from repro.hypergraph.acyclicity import is_gamma_acyclic
from repro.oracle import find_reducible_partition_bruteforce
from repro.schema.operations import augment, reduce_scheme, subset_family
from tests.conftest import (
    arbitrary_schemes,
    berge_acyclic_schemes,
    independent_schemes,
    reducible_schemes,
    seeded_rng,
)
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example11_reducible,
    example12_reducible,
    example13_kep,
)


def partition_names(blocks):
    return sorted(
        tuple(sorted(member.name for member in block.relations))
        for block in blocks
    )


class TestKEP:
    def test_example13_partition(self):
        """Example 13's worked KEP run."""
        blocks = key_equivalent_partition(example13_kep())
        assert partition_names(blocks) == [
            ("R1", "R3", "R4"),
            ("R2", "R5", "R6", "R7"),
            ("R8",),
        ]

    def test_example11_partition(self):
        blocks = key_equivalent_partition(example11_reducible())
        assert partition_names(blocks) == [
            ("R1", "R2", "R3", "R4"),
            ("R5", "R6"),
        ]

    def test_single_block_when_key_equivalent(self):
        from repro.workloads.paper import example3_triangle

        blocks = key_equivalent_partition(example3_triangle())
        assert len(blocks) == 1

    @given(reducible_schemes())
    def test_kep_blocks_are_key_equivalent(self, scheme_and_expected):
        """Lemma 5.1: every KEP block is key-equivalent with respect to
        its own embedded key dependencies."""
        scheme, _ = scheme_and_expected
        for block in key_equivalent_partition(scheme):
            assert is_key_equivalent(block)

    @given(reducible_schemes())
    def test_kep_recovers_constructed_partition(self, scheme_and_expected):
        """The constructive generator knows its partition; KEP must find
        exactly it (uniqueness of the key-equivalent partition)."""
        scheme, expected = scheme_and_expected
        blocks = key_equivalent_partition(scheme)
        assert partition_names(blocks) == sorted(
            tuple(sorted(group)) for group in expected
        )

    @given(arbitrary_schemes())
    def test_kep_is_a_partition(self, scheme):
        blocks = key_equivalent_partition(scheme)
        names = [m.name for block in blocks for m in block.relations]
        assert sorted(names) == sorted(scheme.names)

    @given(arbitrary_schemes())
    def test_kep_coarser_than_any_key_equivalent_subset(self, scheme):
        """Lemma 5.2: any key-equivalent subset of the scheme lies inside
        one KEP block."""
        from itertools import combinations

        blocks = [
            frozenset(m.name for m in block.relations)
            for block in key_equivalent_partition(scheme)
        ]
        members = list(scheme.relations)
        for size in range(1, min(3, len(members)) + 1):
            for combo in combinations(members, size):
                subset = scheme.subscheme([m.name for m in combo])
                if is_key_equivalent(subset):
                    chosen = frozenset(m.name for m in combo)
                    assert any(chosen <= block for block in blocks)


class TestAlgorithm6:
    def test_accepts_university(self):
        result = recognize_independence_reducible(example1_university())
        assert result.accepted
        assert partition_names(result.partition) == [
            ("R1", "R2", "R3"),
            ("R4",),
            ("R5",),
        ]

    def test_rejects_example2(self):
        result = recognize_independence_reducible(example2_not_algebraic())
        assert not result.accepted
        assert result.rejection_reason

    def test_rejects_example13(self):
        # Example 13 is a KEP illustration; its induced scheme is not
        # independent (F→B of block {R8} completes inside another block).
        assert not is_independence_reducible(example13_kep())

    def test_example11_induced_scheme(self):
        result = recognize_independence_reducible(example11_reducible())
        assert result.accepted
        induced_attrs = sorted(
            "".join(sorted(m.attributes)) for m in result.induced
        )
        assert induced_attrs == ["ABCD", "DEFG"]
        assert is_independent(result.induced)

    def test_embedded_cover_matches_blocks(self):
        result = recognize_independence_reducible(example11_reducible())
        for block, cover in zip(result.partition, result.embedded_cover):
            assert cover == block.fds

    def test_block_of(self):
        result = recognize_independence_reducible(example1_university())
        assert "R2" in result.block_of("R1").names

    @given(arbitrary_schemes())
    @settings(max_examples=25)
    def test_recognition_equals_definitional_search(self, scheme):
        """Corollary 5.1 + Theorem 5.1: Algorithm 6 accepts exactly the
        schemes admitting an independence-reducible partition."""
        if len(scheme.relations) > 5:
            return
        accepted = is_independence_reducible(scheme)
        witness = find_reducible_partition_bruteforce(scheme)
        assert accepted == (witness is not None)

    @given(reducible_schemes())
    def test_accepts_constructive_family(self, scheme_and_expected):
        scheme, _ = scheme_and_expected
        assert is_independence_reducible(scheme)


class TestTheorem52And53:
    @given(independent_schemes())
    def test_independent_schemes_accepted(self, scheme):
        """Theorem 5.3: cover-embedding independent schemes are
        accepted."""
        assert is_independence_reducible(scheme)

    @given(berge_acyclic_schemes())
    @settings(max_examples=30)
    def test_gamma_acyclic_bcnf_schemes_accepted(self, scheme):
        """Theorem 5.2: γ-acyclic cover-embedding BCNF schemes are
        accepted."""
        edges = [m.attributes for m in scheme.relations]
        if not database_scheme_is_bcnf(edges, scheme.fds):
            return
        assert is_gamma_acyclic(edges)  # by construction
        assert is_independence_reducible(scheme)


class TestTheorem43Augmentation:
    @given(reducible_schemes(), seeded_rng())
    @settings(max_examples=25)
    def test_augmentation_preserves_reducibility(
        self, scheme_and_expected, rng
    ):
        """Theorem 4.3: AUG(C) = C."""
        scheme, _ = scheme_and_expected
        subsets = subset_family(scheme)
        addition = rng.choice(subsets)
        augmented = augment(scheme, [("AUGX", addition)])
        assert is_independence_reducible(augmented), (
            f"augmenting {scheme} with {sorted(addition)} left the class"
        )

    @given(reducible_schemes())
    def test_reduction_preserves_reducibility(self, scheme_and_expected):
        """Corollary 4.2: R is reducible iff RED(R) is."""
        scheme, _ = scheme_and_expected
        assert is_independence_reducible(reduce_scheme(scheme))

    def test_augmented_university_still_reducible(self):
        scheme = example1_university()
        augmented = augment(scheme, [("S1", "HR"), ("S2", "CS")])
        assert is_independence_reducible(augmented)


class TestInducedScheme:
    def test_minimal_keys_only(self):
        # A block whose members declare comparable keys: the induced
        # relation keeps only the minimal ones.
        from repro.schema.database_scheme import DatabaseScheme

        block = DatabaseScheme.from_spec(
            {"R1": ("AB", ["A"]), "R2": ("ABC", ["A", "BC"])}
        )
        induced = induced_scheme([block])
        assert set(induced.relations[0].keys) == {
            frozenset("A"),
            frozenset("BC"),
        }
