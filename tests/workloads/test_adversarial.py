"""Validate the adversarial lower-bound families (Examples 2 and 5)."""

import pytest

from repro.state.consistency import is_consistent, maintain_by_chase
from repro.workloads.adversarial import (
    example2_chain_state,
    example2_killer_insert,
    example5_chain_state,
    example5_ctm_prober_tuples,
    example5_killer_insert,
)


class TestExample2Family:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_chain_state_is_consistent(self, n):
        assert is_consistent(example2_chain_state(n))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_killer_insert_is_inconsistent(self, n):
        state = example2_chain_state(n)
        name, values = example2_killer_insert(n)
        assert not maintain_by_chase(state, name, values).consistent

    @pytest.mark.parametrize("n", [2, 4])
    def test_every_proper_substate_with_insert_is_consistent(self, n):
        """The crux of Example 2: dropping ANY chain tuple makes the
        updated state consistent, so a refutation must read them all."""
        state = example2_chain_state(n)
        name, values = example2_killer_insert(n)
        inserted = state.insert(name, values)
        assert not is_consistent(inserted)
        for relation_name, relation in state:
            for tuple_values in relation:
                weakened = inserted.delete(relation_name, tuple_values)
                assert is_consistent(weakened), (
                    f"dropping {tuple_values} from {relation_name} should "
                    "make the updated state consistent"
                )

    def test_state_size_grows_linearly(self):
        assert example2_chain_state(8).total_tuples() > (
            example2_chain_state(4).total_tuples()
        )


class TestSplitLowerBoundFamily:
    """The generic Theorem 3.4 construction: for any split key, a
    consistent state whose inconsistency under one insert depends on the
    fragment substate."""

    def _check(self, scheme, key):
        from repro.workloads.adversarial import split_lower_bound_family

        family = split_lower_bound_family(scheme, key)
        assert is_consistent(family.state)
        inserted = family.state.insert(
            family.insert_relation, family.insert_values
        )
        assert not is_consistent(inserted)
        # Lemma 3.7(b): dropping the fragment substate restores
        # consistency — the refutation genuinely needs s_l.
        reduced = inserted
        for name in family.fragment_relations:
            for values in list(family.state[name]):
                if any(str(v).startswith("l_") for v in values.values()):
                    reduced = reduced.delete(name, values)
        assert is_consistent(reduced)

    def test_on_paper_schemes(self):
        from repro.core.split import split_keys
        from repro.workloads.paper import (
            example4_split_scheme,
            example6_scheme,
            example8_split,
        )

        for scheme in (
            example4_split_scheme(),
            example6_scheme(),
            example8_split(),
        ):
            for key in split_keys(scheme):
                self._check(scheme, key)

    def test_not_applicable_for_unsplit_key(self):
        from repro.foundations.errors import NotApplicableError
        from repro.workloads.adversarial import split_lower_bound_family
        from repro.workloads.paper import example9_chain

        with pytest.raises(NotApplicableError):
            split_lower_bound_family(example9_chain(), frozenset("B"))

    def test_on_random_split_schemes(self):
        import random

        from repro.core.split import split_keys
        from repro.workloads.random_schemes import (
            random_key_equivalent_scheme,
        )

        rng = random.Random(1988)
        checked = 0
        attempts = 0
        while checked < 5 and attempts < 50:
            attempts += 1
            scheme = random_key_equivalent_scheme(
                rng, n_relations=4, composite_members=1
            )
            for key in split_keys(scheme):
                self._check(scheme, key)
                checked += 1
        assert checked >= 3, "too few split keys sampled"


class TestExample5Family:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_chain_state_is_consistent(self, n):
        assert is_consistent(example5_chain_state(n))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_killer_insert_is_inconsistent(self, n):
        state = example5_chain_state(n)
        name, values = example5_killer_insert()
        assert not maintain_by_chase(state, name, values).consistent

    def test_prober_tuples_grow_with_chain(self):
        """The σ_{B='b'}(R4) probe the paper analyzes matches every chain
        tuple — the essence of Theorem 3.4's lower bound."""
        counts = [
            example5_ctm_prober_tuples(example5_chain_state(n))
            for n in (1, 4, 16)
        ]
        assert counts == [1, 4, 16]

    def test_algorithm2_selection_count_is_flat(self):
        """Against the same family, Algorithm 2's expression lookup uses
        a number of single-tuple selections independent of the chain."""
        from repro.core.maintenance import algebraic_insert
        from repro.oracle import ExpressionRILookup

        counts = []
        for n in (2, 8, 32):
            state = example5_chain_state(n)
            lookup = ExpressionRILookup(state)
            name, values = example5_killer_insert()
            algebraic_insert(state, name, values, lookup=lookup)
            counts.append(lookup.selections_issued)
        assert counts[0] == counts[1] == counts[2]
