"""Theorem-level cross-validation: each of the paper's main results,
exercised as an executable property over the constructive random
families and arbitrary fuzzed schemes."""

from hypothesis import given, settings, strategies as st

from repro.core.ctm import InsertMaintainer, is_ctm
from repro.core.key_equivalent import (
    is_key_equivalent,
    key_equivalent_chase,
    total_projection_key_equivalent,
)
from repro.core.maintenance import StateIndex, algebraic_insert, ctm_insert
from repro.core.reducible import (
    is_independence_reducible,
    recognize_independence_reducible,
)
from repro.core.split import is_split_free
from repro.fd.normal_forms import database_scheme_is_bcnf
from repro.oracle import (
    ChaseRILookup,
    ExpressionRILookup,
    find_reducible_partition_bruteforce,
)
from repro.state.consistency import (
    chase_state,
    is_consistent,
    maintain_by_chase,
)
from tests.conftest import (
    arbitrary_schemes,
    key_equivalent_schemes,
    reducible_schemes,
    seeded_rng,
)
from repro.workloads.states import (
    conflicting_insert_candidate,
    consistent_insert_candidate,
    random_consistent_state,
)


class TestLemma31:
    @given(key_equivalent_schemes())
    def test_key_equivalent_implies_bcnf(self, scheme):
        assert database_scheme_is_bcnf(
            [m.attributes for m in scheme.relations], scheme.fds
        )


class TestCorollary31:
    """Key-equivalent schemes are bounded: Algorithm 1 computes the
    representative instance and the Corollary 3.1(b) expressions compute
    every total projection."""

    @given(seeded_rng(), st.integers(min_value=1, max_value=6))
    def test_boundedness(self, rng, n):
        from repro.workloads.random_schemes import (
            random_key_equivalent_scheme,
        )

        scheme = random_key_equivalent_scheme(rng, n_relations=3)
        state = random_consistent_state(scheme, rng, n_entities=n)
        baseline = chase_state(state).tableau
        instance = key_equivalent_chase(state)
        assert instance is not None
        for member in scheme.relations:
            target = member.attributes
            expected = baseline.total_projection(target)
            assert instance.total_projection(target) == expected
            assert total_projection_key_equivalent(state, target) == expected


class TestTheorem31And32:
    """Algorithm 2 solves the maintenance problem for key-equivalent
    schemes, with both representative-instance lookups."""

    @given(seeded_rng(), st.integers(min_value=1, max_value=6))
    def test_algorithm2_correct(self, rng, n):
        from repro.workloads.random_schemes import (
            random_key_equivalent_scheme,
        )

        scheme = random_key_equivalent_scheme(rng, n_relations=4)
        state = random_consistent_state(scheme, rng, n_entities=n)
        for maker in (
            consistent_insert_candidate,
            conflicting_insert_candidate,
        ):
            name, values = maker(scheme, rng, n)
            expected = maintain_by_chase(state, name, values).consistent
            for lookup in (ChaseRILookup(state), ExpressionRILookup(state)):
                assert (
                    algebraic_insert(
                        state, name, values, lookup=lookup
                    ).consistent
                    == expected
                )


class TestTheorem33:
    """Split-free key-equivalent schemes are ctm: Algorithm 5 is correct
    and its probe count does not depend on the state size."""

    @given(seeded_rng())
    @settings(max_examples=20)
    def test_probe_count_flat_in_state_size(self, rng):
        from repro.workloads.random_schemes import (
            random_key_equivalent_scheme,
        )
        from repro.workloads.states import dense_consistent_state

        scheme = random_key_equivalent_scheme(rng, n_relations=3)
        if not is_split_free(scheme):
            return
        name, values = consistent_insert_candidate(scheme, rng, 1)
        probes = []
        for n in (2, 16, 64):
            state = dense_consistent_state(scheme, n)
            index = StateIndex(state)
            ctm_insert(state, name, values, index=index, check_scheme=False)
            probes.append(index.tuples_retrieved)
        assert probes[0] == probes[1] == probes[2]


class TestTheorem34:
    """Split schemes are not ctm: on Example 5's family the constant-
    seeing prober must match ever more tuples while Algorithm 2 stays
    flat (the executable shadow of the lower-bound proof)."""

    def test_growth_vs_flat(self):
        from repro.workloads.adversarial import (
            example5_chain_state,
            example5_ctm_prober_tuples,
            example5_killer_insert,
        )

        prober, selections = [], []
        for n in (2, 8, 32):
            state = example5_chain_state(n)
            prober.append(example5_ctm_prober_tuples(state))
            lookup = ExpressionRILookup(state)
            name, values = example5_killer_insert()
            algebraic_insert(state, name, values, lookup=lookup)
            selections.append(lookup.selections_issued)
        assert prober == [2, 8, 32]
        assert selections[0] == selections[1] == selections[2]


class TestTheorem41And42:
    """Independence-reducible schemes are bounded and maintainable by
    block-local work (validated in test_query / test_ctm; here the
    block-locality itself)."""

    @given(
        reducible_schemes(),
        seeded_rng(),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20)
    def test_block_local_consistency_lifts(self, scheme_and_expected, rng, n):
        scheme, _ = scheme_and_expected
        recognition = recognize_independence_reducible(scheme)
        state = random_consistent_state(scheme, rng, n_entities=n)
        name, values = conflicting_insert_candidate(scheme, rng, n)
        block = recognition.block_of(name)
        from repro.state.database_state import DatabaseState

        substate = DatabaseState(
            block, {member: list(state[member]) for member in block.names}
        )
        block_consistent = is_consistent(substate.insert(name, values))
        global_consistent = is_consistent(state.insert(name, values))
        assert block_consistent == global_consistent


class TestTheorem51:
    @given(arbitrary_schemes())
    @settings(max_examples=20)
    def test_recognition_exact(self, scheme):
        if len(scheme.relations) > 5:
            return
        assert is_independence_reducible(scheme) == (
            find_reducible_partition_bruteforce(scheme) is not None
        )


class TestTheorem55:
    @given(reducible_schemes())
    @settings(max_examples=20)
    def test_ctm_iff_all_blocks_split_free(self, scheme_and_expected):
        scheme, _ = scheme_and_expected
        recognition = recognize_independence_reducible(scheme)
        assert is_ctm(scheme, recognition) == all(
            is_split_free(block) for block in recognition.partition
        )


class TestHierarchyOfClasses:
    """Independence ⟹ ctm ⟹ algebraic-maintainable, reflected as:
    independent ⟹ reducible-and-split-free; key-equivalent ⟹
    reducible (the trivial one-block partition)."""

    @given(key_equivalent_schemes())
    def test_key_equivalent_implies_reducible(self, scheme):
        assert is_independence_reducible(scheme)

    @given(arbitrary_schemes())
    @settings(max_examples=20)
    def test_independent_implies_ctm_when_bcnf(self, scheme):
        from repro.core.independence import is_independent

        edges = [m.attributes for m in scheme.relations]
        if not is_independent(scheme):
            return
        if not database_scheme_is_bcnf(edges, scheme.fds):
            return
        recognition = recognize_independence_reducible(scheme)
        assert recognition.accepted
        assert is_ctm(scheme, recognition)
