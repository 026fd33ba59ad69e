"""The one-shard serving stack: a :class:`ShardRouter` whose one shard
runs in-process — session multiplexing, concurrency guarantees,
durability and observability."""

import threading

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import ServiceError
from repro.service import store as store_module
from repro.service.store import WAL_DIR, DurableStore
from repro.service.wal import replayable, scan_wal
from repro.shard.router import ShardRouter
from repro.workloads.paper import example1_university


@pytest.fixture
def scheme():
    return example1_university()


def r4_tuple(writer, index, grade="A"):
    return {"C": f"C{writer}x{index}", "S": f"S{writer}x{index}", "G": grade}


def durable(tmp_path, scheme):
    """A plain store served in place as the router's one shard."""
    return ShardRouter.create(tmp_path / "store", scheme, None)


class TestConstruction:
    def test_in_memory_server(self, scheme):
        server = ShardRouter.in_memory(scheme)
        assert server.shards == 1
        assert not server.durable
        outcome = server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        assert outcome.consistent
        assert server.query("CS") == {("c", "s")}

    def test_sessions_are_named_and_reused(self, scheme):
        server = ShardRouter.in_memory(scheme)
        alice = server.session("alice")
        assert server.session("alice") is alice
        server.session("bob")
        assert server.session_names() == ["alice", "bob"]

    def test_sessions_share_committed_state(self, scheme):
        server = ShardRouter.in_memory(scheme)
        alice = server.session("alice")
        bob = server.session("bob")
        alice.insert("R4", {"C": "c", "S": "s", "G": "A"})
        assert bob.query("CS") == {("c", "s")}
        assert bob.state() == alice.state()
        assert len(bob.state()["R4"]) == 1


class TestConcurrency:
    N_WRITERS = 4
    OPS_PER_WRITER = 20
    N_READERS = 3

    def _run_mixed_load(self, server):
        """N writer threads (with deliberate conflicts) + M reader
        threads; returns per-thread observations and failures."""
        failures = []
        start = threading.Barrier(self.N_WRITERS + self.N_READERS)
        done = threading.Event()

        def writer(identity):
            try:
                session = server.session(f"writer-{identity}")
                start.wait()
                for index in range(self.OPS_PER_WRITER):
                    outcome = session.insert(
                        "R4", r4_tuple(identity, index)
                    )
                    assert outcome.consistent
                    # Key conflict with this writer's first insert: must
                    # reject without corrupting anything.
                    if index % 5 == 4:
                        conflict = session.insert(
                            "R4", r4_tuple(identity, 0, grade="F")
                        )
                        assert not conflict.consistent
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        def reader(identity):
            try:
                session = server.session(f"reader-{identity}")
                start.wait()
                seen = 0
                while not done.is_set():
                    rows = session.query("CS")
                    # Inserts only: every snapshot a reader observes must
                    # be at least as big as the previous one it saw.
                    assert len(rows) >= seen
                    seen = len(rows)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [
            threading.Thread(target=writer, args=(identity,))
            for identity in range(self.N_WRITERS)
        ] + [
            threading.Thread(target=reader, args=(identity,))
            for identity in range(self.N_READERS)
        ]
        for thread in threads[: self.N_WRITERS]:
            thread.start()
        for thread in threads[self.N_WRITERS :]:
            thread.start()
        for thread in threads[: self.N_WRITERS]:
            thread.join()
        done.set()
        for thread in threads[self.N_WRITERS :]:
            thread.join()
        return failures

    def test_concurrent_writers_and_readers_in_memory(self, scheme):
        server = ShardRouter.in_memory(scheme)
        failures = self._run_mixed_load(server)
        assert failures == []
        rows = server.query("CS")
        assert len(rows) == self.N_WRITERS * self.OPS_PER_WRITER
        snapshot = server.metrics_snapshot()
        expected_rejects = self.N_WRITERS * (self.OPS_PER_WRITER // 5)
        assert snapshot["store.rejects"] == expected_rejects
        assert snapshot['store.rejects{shard="0"}'] == expected_rejects
        server.close()

    def test_concurrent_sessions_match_serial_application(
        self, tmp_path, scheme, monkeypatch
    ):
        """The committed history is a total order: replaying the WAL
        serially must land on exactly the server's final state."""
        # Keep the whole history in the log: no size-triggered snapshot
        # compacts it away mid-load.
        monkeypatch.setattr(store_module, "MIN_COMPACT_BYTES", 1 << 40)
        server = ShardRouter.create(
            tmp_path / "store", scheme, None, fsync_every=64
        )
        failures = self._run_mixed_load(server)
        assert failures == []
        final_state = server.state
        server.close()

        scan = scan_wal(tmp_path / "store" / WAL_DIR)
        engine = WeakInstanceEngine(scheme)
        serial = engine.empty_state()
        for record in replayable(scan.records):
            if record.op == "insert":
                outcome = engine.insert(
                    serial, record.relation, record.values
                )
                assert outcome.consistent
                serial = outcome.state
            else:
                serial = engine.delete(
                    serial, record.relation, record.values
                )
        assert serial == final_state
        # Every writer's accepted inserts are in the log exactly once.
        inserted = [r.values["C"] for r in scan.records if r.op == "insert"]
        assert len(inserted) == len(set(inserted))
        assert len(inserted) == self.N_WRITERS * self.OPS_PER_WRITER
        # Rejections were logged durably, not applied.
        rejects = [r for r in scan.records if r.op == "reject"]
        assert len(rejects) == self.N_WRITERS * (self.OPS_PER_WRITER // 5)

    def test_recovery_after_concurrent_load(self, tmp_path, scheme):
        server = ShardRouter.create(
            tmp_path / "store", scheme, None, fsync_every=64
        )
        failures = self._run_mixed_load(server)
        assert failures == []
        final_state = server.state
        server.close()
        with DurableStore.open(tmp_path / "store") as recovered:
            assert recovered.state == final_state


class TestDurableServer:
    def test_snapshot_through_server(self, tmp_path, scheme):
        server = durable(tmp_path, scheme)
        server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        server.snapshot()
        server.close()
        with DurableStore.open(tmp_path / "store") as reopened:
            assert reopened.recovery.snapshot_seq == 1
            assert reopened.recovery.replayed == 0  # the WAL was reset
            assert len(reopened.state["R4"]) == 1

    def test_in_memory_snapshot_raises(self, scheme):
        server = ShardRouter.in_memory(scheme)
        with pytest.raises(ServiceError):
            server.snapshot()

    def test_metrics_include_cache_accounting(self, scheme):
        server = ShardRouter.in_memory(scheme)
        server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        server.query("CS")
        snapshot = server.metrics_snapshot()
        # The shard's engine caches, labeled like any shard's.
        assert 'cache.plans.hits{shard="0"}' in snapshot
        assert 'cache.chase.misses{shard="0"}' in snapshot
        assert snapshot["ops.query"] == 1
        # The router answered the query from its published state: its
        # own read cache missed once, and the shard evaluated no query.
        assert snapshot["router.gather_queries"] == 1
        assert snapshot["cache.read.misses"] == 1
        assert 'ops.query{shard="0"}' not in snapshot
        assert snapshot['cache.read.misses{shard="0"}'] == 0


class TestObservability:
    def test_stats_reports_span_histograms(self, scheme):
        server = ShardRouter.in_memory(scheme)
        server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        server.query("CS")
        stats = server.stats()
        assert stats["spans"]["engine.insert"]["count"] == 1
        assert stats["spans"]["engine.query"]["count"] == 1
        summary = stats["spans"]["engine.query"]
        assert 0 <= summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]
        assert stats["span_counters"]["engine.query.rows_out"] == 1
        assert stats["metrics"]["ops.insert"] == 1
        # The shard recorded into the router's tracer: no second copy.
        assert stats["shards"] == {}

    def test_stats_is_json_ready(self, scheme):
        import json

        server = ShardRouter.in_memory(scheme)
        server.query("CS")
        json.dumps(server.stats())  # must not raise

    def test_prometheus_exposition_parses(self, scheme):
        from repro.obs.exposition import parse_exposition

        server = ShardRouter.in_memory(scheme)
        server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        server.query("CS")
        text = server.prometheus()
        series = parse_exposition(text)
        assert series["repro_ops_query_total"] == 1.0
        assert series["repro_span_engine_query_seconds_count"] == 1.0
        assert 'repro_span_engine_query_seconds_bucket{le="+Inf"}' in series
        # The router answers queries; the shard serves no query op.
        assert series["repro_router_gather_queries_total"] == 1.0
        assert series["repro_cache_read_misses_total"] == 1.0
        assert 'repro_ops_query_total{shard="0"}' not in series

    def test_durable_server_traces_store_spans(self, tmp_path, scheme):
        server = durable(tmp_path, scheme)
        try:
            server.insert("R4", {"C": "c", "S": "s", "G": "A"})
            spans = server.stats()["spans"]
            assert "store.insert" in spans
            assert "wal.append" in spans
        finally:
            server.close()

    def test_external_tracer_receives_spans(self, scheme):
        from repro.obs.spans import Tracer

        tracer = Tracer()
        server = ShardRouter.in_memory(scheme, tracer=tracer)
        server.query("CS")
        assert server.tracer is tracer
        assert tracer.span_summaries()["engine.query"]["count"] == 1


class TestLifecycle:
    def test_close_is_idempotent_in_memory(self, scheme):
        server = ShardRouter.in_memory(scheme)
        server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        server.close()
        server.close()  # second close must be a no-op, not an error

    def test_close_is_idempotent_durable(self, tmp_path, scheme):
        server = durable(tmp_path, scheme)
        server.insert("R4", {"C": "c", "S": "s", "G": "A"})
        server.close()
        server.close()
        with DurableStore.open(tmp_path / "store") as reopened:
            assert len(reopened.state["R4"]) == 1
