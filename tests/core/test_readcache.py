"""Tests for the block-versioned read cache.

The load-bearing property is *exactness*: a cached answer may be
served if and only if no block its plan touches has changed.  The
differential suite drives identical interleaved write/query sequences
through the engine and through the interpreted query oracle across
every paper scheme and requires byte-identical answers; the unit tests pin the invalidation
rule itself — a cross-block write must preserve other blocks' entries,
a same-block write must not.
"""

import random

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.core.partition import partition_scheme
from repro.core.readcache import BlockVersions
from repro.workloads.paper import ALL_SCHEMES, example1_university
from tests.conftest import query_oracle


def _seed_values(member, index):
    return {
        attribute: f"{attribute.lower()}{index}"
        for attribute in sorted(member.attributes)
    }


def _operations(scheme, seed, rounds=6):
    """A deterministic interleaved workload: inserts and deletes with a
    small value domain (so joins and rejections both happen), each
    followed by a sweep of queries over per-relation targets, a
    cross-relation union and a single attribute."""
    rng = random.Random(seed)
    members = list(scheme.relations)
    targets = [member.attributes for member in members]
    if len(members) > 1:
        targets.append(members[0].attributes | members[1].attributes)
    targets.append(frozenset(sorted(scheme.universe)[:1]))
    operations = []
    inserted = []
    for _ in range(rounds):
        if inserted and rng.random() < 0.35:
            operations.append(("delete",) + rng.choice(inserted))
        else:
            member = rng.choice(members)
            values = _seed_values(member, rng.randrange(3))
            operations.append(("insert", member.name, values))
            inserted.append((member.name, values))
        for target in targets:
            operations.append(("query", target, None))
    return operations


def _drive(engine, operations, repeat_queries=1, query=None):
    """Apply the operation list, returning every observable outcome
    (insert verdicts and sorted query answers).  Queries go through
    ``query(state, target)``, the engine's own by default."""
    if query is None:
        query = engine.query
    state = engine.empty_state()
    observed = []
    for kind, name_or_target, values in operations:
        if kind == "insert":
            outcome = engine.insert(state, name_or_target, values)
            if outcome.consistent:
                state = outcome.state
            observed.append(("insert", outcome.consistent))
        elif kind == "delete":
            if values in state[name_or_target]:
                state = engine.delete(state, name_or_target, values)
            observed.append(("delete", True))
        else:
            for _ in range(repeat_queries):
                rows = query(state, name_or_target)
                observed.append(("query", tuple(sorted(rows))))
    return observed


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_cached_matches_uncached_under_interleaved_writes(self, name):
        scheme = ALL_SCHEMES[name]()
        operations = _operations(scheme, seed=20260808)
        cached = WeakInstanceEngine(scheme)
        # The engine answers every query twice (the second from the
        # cache when nothing moved); the interpreted oracle's single
        # answers are repeated for comparison.
        got = _drive(cached, operations, repeat_queries=2)
        want = []
        oracle = WeakInstanceEngine(scheme)
        for record in _drive(oracle, operations, query=query_oracle):
            want.append(record)
            if record[0] == "query":
                want.append(record)
        assert got == want
        info = cached.cache_info()["read"]
        assert info.hits > 0  # the repeats really were served cached

    def test_delete_then_query_never_serves_the_deleted_row(self):
        scheme = example1_university()
        engine = WeakInstanceEngine(scheme)
        state = engine.empty_state()
        member = scheme.relations[0]
        values = _seed_values(member, 1)
        outcome = engine.insert(state, member.name, values)
        assert outcome.consistent
        state = outcome.state
        before = engine.query(state, member.attributes)
        assert engine.query(state, member.attributes) == before  # cached
        state = engine.delete(state, member.name, values)
        after = engine.query(state, member.attributes)
        assert after == set()
        assert after != before


class TestInvalidation:
    def test_cross_block_write_preserves_other_blocks_entries(self):
        scheme = example1_university()
        partition = partition_scheme(scheme)
        assert len(partition.blocks) >= 2
        engine = WeakInstanceEngine(scheme)
        state = engine.empty_state()
        # Two relations from different blocks.
        first = scheme.relations[0]
        other = next(
            member
            for member in scheme.relations
            if partition.block_index_of(member.name)
            != partition.block_index_of(first.name)
        )
        outcome = engine.insert(state, first.name, _seed_values(first, 1))
        assert outcome.consistent
        state = outcome.state
        engine.query(state, first.attributes)  # fill
        hits_before = engine.cache_info()["read"].hits
        outcome = engine.insert(state, other.name, _seed_values(other, 1))
        assert outcome.consistent
        state = outcome.state
        engine.query(state, first.attributes)
        assert engine.cache_info()["read"].hits == hits_before + 1

    def test_same_block_write_invalidates(self):
        scheme = example1_university()
        engine = WeakInstanceEngine(scheme)
        state = engine.empty_state()
        member = scheme.relations[0]
        outcome = engine.insert(state, member.name, _seed_values(member, 1))
        assert outcome.consistent
        state = outcome.state
        first = engine.query(state, member.attributes)
        outcome = engine.insert(state, member.name, _seed_values(member, 2))
        assert outcome.consistent
        state = outcome.state
        hits_before = engine.cache_info()["read"].hits
        second = engine.query(state, member.attributes)
        assert engine.cache_info()["read"].hits == hits_before  # a miss
        assert len(second) == len(first) + 1

    @pytest.mark.parametrize(
        "route", ["insert", "delete", "batch_serial", "batch_blocks"]
    )
    def test_writes_miss_their_blocks_and_spare_the_rest(self, route):
        """After a long run of writes to two blocks — through insert,
        delete, the per-update loop a batch falls back to when it cannot
        be routed, or the per-block batch route — a query whose plan
        touches a written block misses and a query over the untouched
        block still hits, however many writes went by (more than the
        block-version memo holds)."""
        scheme = example1_university()
        engine = WeakInstanceEngine(scheme)
        partition = engine.partition
        members = {member.name: member for member in scheme.relations}
        written = [members["R4"], members["R5"]]
        untouched = members["R1"]
        written_blocks = {
            partition.block_index_of(member.name) for member in written
        }
        assert len(written_blocks) == 2
        assert not written_blocks & set(
            engine.read_cache.touched_blocks(untouched.attributes, engine.plan)
        )
        rounds = 20 * len(partition.blocks)
        rows = [
            (written[index % 2], _seed_values(written[index % 2], 100 + index))
            for index in range(rounds)
        ]
        operation = "delete" if route == "delete" else "insert"
        seed = [("insert", untouched.name, _seed_values(untouched, 1))]
        if operation == "delete":
            seed += [("insert", member.name, values) for member, values in rows]
        state = engine.batch(engine.empty_state(), seed).state
        targets = [member.attributes for member in written + [untouched]]
        before = {target: engine.query(state, target) for target in targets}

        if route in ("insert", "delete"):
            for member, values in rows:
                if operation == "insert":
                    outcome = engine.insert(state, member.name, values)
                    assert outcome.consistent
                    state = outcome.state
                else:
                    state = engine.delete(state, member.name, values)
        else:
            for start in range(0, rounds, 2):
                updates = [
                    (operation, member.name, values)
                    for member, values in rows[start : start + 2]
                ]
                if route == "batch_serial":
                    outcome = engine._apply_serial(
                        state,
                        [(index, *update) for index, update in enumerate(updates)],
                    )
                    assert outcome.failure is None and outcome.error is None
                    state = outcome.substate
                else:
                    result = engine.batch(state, updates)
                    assert result
                    state = result.state

        def probe(target):
            read = engine.cache_info()["read"]
            answer = engine.query(state, target)
            after = engine.cache_info()["read"]
            return answer, after.hits - read.hits, after.misses - read.misses

        for member in written:
            answer, hits, misses = probe(member.attributes)
            assert (hits, misses) == (0, 1)
            assert answer != before[member.attributes]
        answer, hits, misses = probe(untouched.attributes)
        assert (hits, misses) == (1, 0)
        assert answer == before[untouched.attributes]


class TestBlockVersions:
    def test_version_is_stable_until_the_block_changes(self):
        scheme = example1_university()
        partition = partition_scheme(scheme)
        engine = WeakInstanceEngine(scheme)
        versions = BlockVersions(partition)
        state = engine.empty_state()
        v0 = versions.version(state, 0)
        assert versions.version(state, 0) == v0
        member = scheme.relations[0]
        block = partition.block_index_of(member.name)
        outcome = engine.insert(state, member.name, _seed_values(member, 1))
        assert outcome.consistent
        written = outcome.state
        assert versions.version(written, block) != versions.version(
            state, block
        )
        # Blocks the write never touched keep their relation objects,
        # hence their versions.
        for index in range(len(partition.blocks)):
            if index != block:
                assert versions.version(written, index) == versions.version(
                    state, index
                )


class TestBounds:
    def test_touched_memo_is_bounded_by_the_result_cache_size(self):
        """Targets outside the universe are answered (empty), so a
        client can name unboundedly many; the per-target touched-block
        memo must stay within the result cache's bound."""
        engine = WeakInstanceEngine(example1_university(), read_cache_size=8)
        state = engine.empty_state()
        for index in range(50):
            assert engine.query(state, {"C", f"Z{index}"}) == set()
        assert len(engine.read_cache._touched) <= 8
