"""Differential tests: the worklist chase against the naive full-sweep
oracle.

Over 100 randomized scheme/state pairs — consistent, inconsistent, with
empty relations, and on γ-cyclic schemes — the optimized engines
(:func:`chase`, :func:`chase_state`) must agree with the seed pipeline
(:func:`chase_naive`, :func:`chase_state_naive`) on consistency, on the
merge count (the chase is Church-Rosser for fds, so ``steps`` is
order-invariant), and on every total projection.
"""

import random

from repro.oracle import chase_naive, chase_state_naive
from repro.state.consistency import chase_state
from repro.state.database_state import DatabaseState
from repro.tableau.chase import chase
from repro.workloads.adversarial import (
    example2_chain_state,
    example2_killer_insert,
)
from repro.workloads.paper import example2_not_algebraic, example3_triangle
from repro.workloads.random_schemes import (
    random_berge_acyclic_scheme,
    random_independent_scheme,
    random_key_equivalent_scheme,
    random_reducible_scheme,
    random_scheme,
)
from repro.workloads.states import (
    conflicting_insert_candidate,
    dense_consistent_state,
    random_consistent_state,
)

#: Differential agreement below is asserted on this many randomized
#: scheme/state pairs; the suite requires at least 100 overall.
N_CONSISTENT_PAIRS = 70
N_INCONSISTENT_PAIRS = 30
N_SPARSE_PAIRS = 20


def _random_scheme_for(rng: random.Random):
    """A scheme drawn across all constructive families plus fuzzing."""
    family = rng.randrange(5)
    if family == 0:
        return random_key_equivalent_scheme(rng, n_relations=rng.randint(2, 4))
    if family == 1:
        return random_independent_scheme(rng, n_relations=rng.randint(2, 4))
    if family == 2:
        scheme, _ = random_reducible_scheme(
            rng, n_blocks=rng.randint(1, 2), relations_per_block=2
        )
        return scheme
    if family == 3:
        return random_berge_acyclic_scheme(rng, n_relations=rng.randint(2, 5))
    return random_scheme(
        rng, n_attributes=rng.randint(3, 6), n_relations=rng.randint(2, 4)
    )


def _assert_states_agree(state: DatabaseState) -> bool:
    """Chase the state with both engines and compare everything
    observable.  Returns the (agreed) consistency verdict."""
    fast = chase_state(state)
    naive = chase_state_naive(state)
    assert fast.consistent == naive.consistent
    if fast.consistent:
        # Merge counts are order-invariant only for completed chases
        # (Church-Rosser); an aborted chase stops mid-cascade at an
        # order-dependent point.
        assert fast.steps == naive.steps
        universe = state.scheme.universe
        assert fast.tableau.total_projection(
            universe
        ) == naive.tableau.total_projection(universe)
        for member in state.scheme.relations:
            assert fast.tableau.total_projection(
                member.attributes
            ) == naive.tableau.total_projection(member.attributes)
    else:
        assert not fast.tableau.rows
    return fast.consistent


class TestRandomizedAgreement:
    def test_consistent_pairs(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(N_CONSISTENT_PAIRS):
            scheme = _random_scheme_for(rng)
            state = random_consistent_state(
                scheme, rng, n_entities=rng.randint(1, 8)
            )
            assert _assert_states_agree(state)

    def test_inconsistent_pairs(self):
        """Dense states corrupted by a key-violating cross-breed: both
        engines must reject, with the same merge count."""
        rng = random.Random(0xBADC0DE)
        rejected = 0
        for _ in range(N_INCONSISTENT_PAIRS):
            scheme = _random_scheme_for(rng)
            n = rng.randint(2, 6)
            state = dense_consistent_state(scheme, n)
            name, values = conflicting_insert_candidate(scheme, rng, n)
            corrupted = state.insert(name, values)
            if not _assert_states_agree(corrupted):
                rejected += 1
        # The cross-breed only violates when the chosen relation has
        # attributes beyond the chosen key; most draws do.
        assert rejected >= N_INCONSISTENT_PAIRS // 3

    def test_sparse_pairs_with_empty_relations(self):
        """States where whole relations are empty still chase
        identically (empty relations contribute no tableau rows)."""
        rng = random.Random(0x5EED)
        saw_empty_relation = False
        for _ in range(N_SPARSE_PAIRS):
            scheme = _random_scheme_for(rng)
            state = random_consistent_state(
                scheme,
                rng,
                n_entities=rng.randint(1, 4),
                presence_probability=0.3,
                ensure_nonempty=False,
            )
            saw_empty_relation = saw_empty_relation or any(
                not relation for _, relation in state
            )
            assert _assert_states_agree(state)
        assert saw_empty_relation

    def test_totally_empty_state(self):
        scheme = example2_not_algebraic()
        assert _assert_states_agree(DatabaseState(scheme))


class TestGammaCyclicSchemes:
    """The γ-cyclic schemes (Examples 2 and 3) exercise the worklist
    engine's propagation rounds hardest: merges cascade across
    relations."""

    def test_example2_chain_consistent(self):
        assert _assert_states_agree(example2_chain_state(24))

    def test_example2_killer_chain_inconsistent(self):
        state = example2_chain_state(24)
        name, values = example2_killer_insert(24)
        assert not _assert_states_agree(state.insert(name, values))

    def test_example3_triangle(self):
        rng = random.Random(3)
        scheme = example3_triangle()
        for _ in range(10):
            state = random_consistent_state(scheme, rng, n_entities=5)
            assert _assert_states_agree(state)


class TestTableauLevelAgreement:
    """``chase`` (interned worklist) and ``chase_naive`` share exact
    renaming semantics, so on the *same* tableau even the resolved
    symbols must match row by row."""

    def test_resolved_tableaux_identical(self):
        rng = random.Random(0xABCDEF)
        for _ in range(25):
            scheme = _random_scheme_for(rng)
            state = random_consistent_state(scheme, rng, n_entities=4)
            tableau = state.tableau()
            fast = chase(tableau, scheme.fds)
            naive = chase_naive(tableau, scheme.fds)
            assert fast.consistent == naive.consistent
            assert fast.steps == naive.steps
            assert [(row.tag, row.cells) for row in fast.tableau.rows] == [
                (row.tag, row.cells) for row in naive.tableau.rows
            ]
