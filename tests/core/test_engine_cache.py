"""Tests for the engine's memo layers and outcome propagation: the
bounded LRU caches behind plans and representative instances, the
representative instance itself, and ``modify``/block-lift diagnostics
surviving rejection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import WeakInstanceEngine
from repro.foundations.attrs import sorted_attrs
from repro.foundations.cache import LRUCache
from repro.foundations.errors import InconsistentStateError
from repro.state.consistency import chase_state
from repro.workloads.adversarial import (
    example2_chain_state,
    example2_killer_insert,
)
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example12_reducible,
    example12_state,
)
from repro.workloads.states import random_consistent_state
from tests.conftest import every_generator, seeded_rng


class TestLRUCache:
    def test_get_put_and_accounting(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert (info.hits, info.misses, info.evictions) == (1, 1, 0)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.info().evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: nothing evicted
        cache.put("c", 3)
        assert cache.get("a") == 10 and "b" not in cache

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestChaseMemoization:
    def test_representative_is_cached_per_state(self):
        engine = WeakInstanceEngine(example2_not_algebraic())
        state = example2_chain_state(4)
        first = engine.representative(state)
        second = engine.representative(state)
        assert first is second
        info = engine.cache_info()["chase"]
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_query_reuses_the_memoized_chase(self):
        # Example 2's scheme is not reducible, so query() goes through
        # the representative instance.  A repeated query would be a
        # read-cache hit that never reaches the chase, so the second
        # read asks for the representative instance directly.
        engine = WeakInstanceEngine(example2_not_algebraic())
        state = example2_chain_state(4)
        baseline = engine.query(state, "AB")
        assert engine.representative(state).total_projection("AB") == baseline
        assert engine.cache_info()["chase"].hits >= 1

    def test_query_repeat_hits_the_read_cache(self):
        engine = WeakInstanceEngine(example2_not_algebraic())
        state = example2_chain_state(4)
        baseline = engine.query(state, "AB")
        assert engine.query(state, "AB") == baseline
        info = engine.cache_info()["read"]
        assert info.hits == 1 and info.misses == 1

    def test_inconsistent_rejection_is_memoized_too(self):
        engine = WeakInstanceEngine(example2_not_algebraic())
        state = example2_chain_state(4)
        name, values = example2_killer_insert(4)
        bad = state.insert(name, values)
        for _ in range(2):
            with pytest.raises(InconsistentStateError):
                engine.representative(bad)
        info = engine.cache_info()["chase"]
        assert info.hits == 1 and info.misses == 1

    def test_chase_cache_is_bounded(self):
        engine = WeakInstanceEngine(
            example2_not_algebraic(), chase_cache_size=2
        )
        states = [example2_chain_state(n) for n in (2, 3, 4)]
        for state in states:
            engine.representative(state)
        info = engine.cache_info()["chase"]
        assert info.size == 2 and info.evictions == 1
        # The evicted (oldest) state recomputes, the fresh ones hit.
        engine.representative(states[-1])
        assert engine.cache_info()["chase"].hits == 1

    def test_load_seeds_the_cache(self):
        # One block (outside the class here), so load chases the whole
        # state and memoizes it.
        engine = WeakInstanceEngine(example2_not_algebraic())
        relations = {
            name: list(relation)
            for name, relation in example2_chain_state(4)
        }
        state = engine.load(relations)
        engine.representative(state)
        assert engine.cache_info()["chase"].hits == 1

    def test_load_checks_several_blocks_one_by_one(self):
        """On a scheme of several blocks, load chases block substates
        (consistency is block-local) and never the whole state."""
        engine = WeakInstanceEngine(example1_university())
        engine.load({"R1": [{"H": "h", "R": "r", "C": "c"}]})
        assert engine.cache_info()["chase"].size == 0
        with pytest.raises(InconsistentStateError):
            engine.load(
                {
                    "R1": [{"H": "h", "R": "r", "C": "c"}],
                    "R3": [{"H": "h", "T": "t", "C": "c2"}],
                    "R2": [{"H": "h", "T": "t", "R": "r"}],
                }
            )


class TestRepresentative:
    def test_example12_rule_across_blocks(self):
        """R4's key A is embedded in block {R1..R4} and R6 is in block
        {R5, R6}: A→D joins a's ABC row to d's DEG row across blocks,
        so [ACG] holds <a, c, g>."""
        state = example12_state()
        engine = WeakInstanceEngine(state.scheme)
        assert engine.partition.parallelizable
        expected = chase_state(state).tableau.total_projection("ACG")
        assert expected == {("a", "c", "g")}
        assert engine.representative(state).total_projection("ACG") == expected

    @given(every_generator, seeded_rng(), st.data())
    @settings(max_examples=40)
    def test_total_projections_match_the_whole_state_chase(
        self, scheme, rng, data
    ):
        state = random_consistent_state(scheme, rng, 4)
        target = data.draw(
            st.sets(
                st.sampled_from(sorted_attrs(scheme.universe)), min_size=1
            )
        )
        engine = WeakInstanceEngine(scheme)
        expected = chase_state(state).tableau.total_projection(target)
        assert engine.representative(state).total_projection(target) == expected


class TestPlanCache:
    def test_plans_are_cached_and_bounded(self):
        engine = WeakInstanceEngine(example12_reducible(), plan_cache_size=1)
        scheme = engine.scheme
        first_target = scheme.relations[0].attributes
        second_target = scheme.relations[1].attributes
        assert engine.plan(first_target) is engine.plan(first_target)
        engine.plan(second_target)  # evicts the first plan
        info = engine.cache_info()["plans"]
        assert info.size == 1 and info.evictions == 1


class TestRejectionDiagnostics:
    def test_modify_propagates_the_rejecting_outcome(self):
        """A rejected modify must surface the inner insertion outcome —
        chase steps and tuples examined included — not a bare rebuilt
        one."""
        engine = WeakInstanceEngine(example2_not_algebraic())
        state = engine.load(
            {
                "R1": [{"A": "a1", "B": "b1"}],
                "R2": [{"B": "b1", "C": "c1"}],
                "R3": [{"A": "a1", "C": "c1"}],
            }
        )
        # Rewriting R3's tuple to C=c2 clashes with c1 propagated from
        # R1 ⋈ R2 through B→C, after at least one genuine merge.
        old = {"A": "a1", "C": "c1"}
        new = {"A": "a1", "C": "c2"}
        outcome = engine.modify(state, "R3", old, new)
        assert not outcome.consistent and outcome.state is None
        direct = engine.insert(state.delete("R3", old), "R3", new)
        assert outcome.tuples_examined == direct.tuples_examined
        assert outcome.chase_steps == direct.chase_steps
        assert outcome.chase_steps > 0  # the full chase really ran

    def test_block_lift_preserves_witness_on_accept(self):
        engine = WeakInstanceEngine(example1_university())
        state = engine.load({"R1": [{"H": "h", "R": "r", "C": "c"}]})
        outcome = engine.insert(
            state, "R2", {"H": "h", "R": "r", "T": "t"}
        )
        assert outcome.consistent
        assert outcome.witness is not None
