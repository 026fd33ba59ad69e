"""Routing edge cases: one-shard collapse, round-robin packing, batches
that leave some shards untouched or fail mid-commit, targets without a
plan, and shards that all live in the router's process."""

import multiprocessing

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import ServiceError, StateError
from repro.oracle import chase_state_naive
from repro.schema.database_scheme import DatabaseScheme
from repro.shard.router import ShardMap, ShardRouter, shard_map_for
from repro.state.database_state import DatabaseState
from repro.workloads.paper import (
    example1_university,
    example3_triangle,
)
from repro.workloads.scaling import tiled_university


class TestShardMap:
    def test_round_robin_assignment(self):
        # example1 partitions into 3 blocks; two shards pack 0,1,0.
        shard_map = shard_map_for(example1_university(), 2)
        assert shard_map.shards == 2
        assert shard_map.assignment == (0, 1, 0)
        covered = sorted(
            name
            for names in shard_map.shard_relations
            for name in names
        )
        assert covered == ["R1", "R2", "R3", "R4", "R5"]

    def test_more_shards_than_blocks_clamps(self):
        shard_map = shard_map_for(example1_university(), 8)
        assert shard_map.requested == 8
        assert shard_map.shards == 3  # one block per shard, no idlers
        assert shard_map.assignment == (0, 1, 2)

    def test_single_block_scheme_collapses_to_one(self):
        shard_map = shard_map_for(example3_triangle(), 4)
        assert shard_map.shards == 1
        assert set(shard_map.assignment) == {0}

    def test_derive_matches_memoized(self):
        from repro.core.partition import partition_scheme

        partition = partition_scheme(example1_university())
        derived = ShardMap.derive(partition, 2)
        assert derived.assignment == shard_map_for(
            example1_university(), 2
        ).assignment


class TestInlineFastPath:
    def test_single_block_scheme_spawns_no_workers(self):
        before = len(multiprocessing.active_children())
        router = ShardRouter.in_memory(example3_triangle(), 4)
        try:
            assert router.shards == 1
            assert len(multiprocessing.active_children()) == before
            outcome = router.insert("R1", {"A": "a1", "B": "b1"})
            assert outcome.consistent
            # The one shard answered in this process: still no child
            # process, and the insert was its one counted call.
            assert len(multiprocessing.active_children()) == before
            snapshot = router.metrics_snapshot()
            assert snapshot['shard.rpcs{shard="0"}'] == 1
            assert snapshot['ops.insert{shard="0"}'] == 1
        finally:
            router.close()

    def test_one_shard_requested_is_inline_even_when_decomposable(self):
        before = len(multiprocessing.active_children())
        router = ShardRouter.in_memory(example1_university(), 1)
        try:
            assert router.shards == 1
            assert len(multiprocessing.active_children()) == before
        finally:
            router.close()


class TestPartialFanout:
    def test_batch_touching_one_shard_leaves_others_idle(self):
        # With two shards over example1, R4 lives alone on shard 1.
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            outcome = router.apply_batch(
                [
                    ("insert", "R4", {"C": "c1", "S": "s1", "G": "A"}),
                    ("insert", "R4", {"C": "c2", "S": "s2", "G": "B"}),
                ]
            )
            assert outcome.committed
            snapshot = router.metrics_snapshot()
            assert snapshot['ops.batch{shard="1"}'] == 1
            assert snapshot.get('ops.batch{shard="0"}', 0) == 0
        finally:
            router.close()

    def test_empty_batch_commits_without_rpcs(self):
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            rpcs_before = router.metrics.snapshot().get("shard.rpcs", 0)
            outcome = router.apply_batch([])
            assert outcome.committed and outcome.applied == 0
            assert (
                router.metrics.snapshot().get("shard.rpcs", 0)
                == rpcs_before
            )
        finally:
            router.close()

    def test_unroutable_update_fails_before_any_shard_prepares(self):
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            with pytest.raises(StateError, match="unknown batch operation"):
                router.apply_batch(
                    [
                        ("upsert", "R4", {"C": "c", "S": "s", "G": "A"}),
                        ("insert", "R4", {"C": "c", "S": "s", "G": "A"}),
                    ]
                )
            snapshot = router.metrics_snapshot()
            assert snapshot.get('ops.batch_updates{shard="1"}', 0) == 0
        finally:
            router.close()


class TestOverCapBlock:
    """A target whose plan would read a block past the exact
    lossless-subset enumeration's cap is answered by the chase: at one
    shard by the worker, at two by a gather of the whole state."""

    @staticmethod
    def _scheme(second_block):
        spec = {
            f"R{i}": (["K", f"A{i}"], [["K"]]) for i in range(1, 17)
        }
        if second_block:
            spec["Q"] = (["A1", "B"], [["A1"]])
        return DatabaseScheme.from_spec(spec)

    def _check(self, second_block, shards, targets):
        router = ShardRouter.in_memory(self._scheme(second_block), shards)
        try:
            assert router.shards == shards
            router.insert("R1", {"K": "k", "A1": "a1"})
            router.insert("R2", {"K": "k", "A2": "a2"})
            router.insert("R2", {"K": "j", "A2": "b2"})
            if second_block:
                router.insert("Q", {"A1": "a1", "B": "b"})
            state = router.state
            for target in targets:
                expected = chase_state_naive(state).tableau.total_projection(
                    frozenset(target)
                )
                assert expected
                assert router.query(target) == expected, target
        finally:
            router.close()

    def test_in_process(self):
        self._check(False, 1, [["A1", "A2"], ["K", "A2"]])

    def test_two_shards_gather_the_whole_state(self):
        # [A2B] joins the over-cap block (through K and A1) with Q on
        # the other shard; gathering only R2 and Q would answer ∅.
        self._check(True, 2, [["A1", "A2"], ["A2", "B"], ["A1", "B"]])


class TestInProcessShards:
    def test_four_shards_start_no_child_process(self):
        scheme = tiled_university(4)
        router = ShardRouter.in_memory(scheme, 4)
        try:
            assert router.shards == 4
            assert multiprocessing.active_children() == []
            for tile in range(4):
                assert router.insert(
                    f"T{tile}R4",
                    {f"C{tile}": "c", f"S{tile}": "s", f"G{tile}": "A"},
                ).consistent
            assert router.query(("C3", "S3")) == {("c", "s")}
            assert multiprocessing.active_children() == []
        finally:
            router.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_empty_batch_records_no_shard_span(self, shards):
        router = ShardRouter.in_memory(example1_university(), shards)
        try:
            assert router.apply_batch([]).committed
            spans = router.tracer.span_summaries()
            assert "shard.rpc" not in spans
            assert spans["shard.route"]["count"] == 1
            assert router.apply_batch(
                [("insert", "R4", {"C": "c", "S": "s", "G": "A"})]
            ).committed
            # Prepare and commit: one span per call into the shard.
            assert router.tracer.span_summaries()["shard.rpc"]["count"] == 2
            assert router.metrics.snapshot()["shard.rpcs"] == 2
        finally:
            router.close()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failed_commit_republishes_the_stores_state(self, failing):
        """Shard ``failing``'s commit raises ``OSError``: the batch
        raises ``ServiceError``, the other shard still commits its
        slice, the published state is the stores' own, and later
        queries answer from it."""
        scheme = example1_university()
        router = ShardRouter.in_memory(scheme, 2)
        updates = [
            ("insert", "R5", {"H": "h", "S": "s", "R": "r"}),  # shard 0
            ("insert", "R4", {"C": "c", "S": "s", "G": "A"}),  # shard 1
        ]
        worker = router._workers[failing]

        def failing_commit():
            raise OSError("disk full")

        worker.commit = failing_commit
        try:
            with pytest.raises(ServiceError, match="partial batch"):
                router.apply_batch(updates)
            stores = {}
            for shard in router._workers:
                stores.update(shard.store.state)
            assert router.state == DatabaseState(scheme, stores)
            committed = updates[1 - failing]
            assert len(router.state[committed[1]]) == 1
            assert len(router.state[updates[failing][1]]) == 0
            engine = WeakInstanceEngine(scheme)
            for target in ("HSR", "CSG", "CS", "HS"):
                assert router.query(target) == engine.query(
                    router.state, target
                )
            del worker.commit
            assert router.apply_batch([updates[failing]]).committed
            assert router.query("HSR" if failing == 0 else "CSG")
        finally:
            router.close()
