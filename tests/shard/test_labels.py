"""Shard-labeled metrics: flat-registry labels, per-shard snapshots,
and collision-free Prometheus aggregation across shard registries."""

import pytest

from repro.foundations.errors import ServiceError
from repro.obs.exposition import (
    parse_exposition,
    prometheus_text,
    split_labels,
)
from repro.service.metrics import MetricsRegistry, labeled
from repro.shard.router import ShardRouter
from repro.workloads.paper import example1_university


class TestLabeled:
    def test_renders_sorted_labels(self):
        assert labeled("ops.insert", shard=2) == 'ops.insert{shard="2"}'
        assert (
            labeled("x", b=1, a=2) == 'x{a="2",b="1"}'
        )  # deterministic order

    def test_split_labels_round_trips(self):
        assert split_labels('ops.insert{shard="2"}') == (
            "ops.insert",
            'shard="2"',
        )
        assert split_labels("ops.insert") == ("ops.insert", None)


class TestSnapshotByKind:
    def test_shard_parameter_labels_every_series(self):
        registry = MetricsRegistry()
        registry.increment("ops.insert", 3)
        registry.set_gauge("store.seq", 7)
        kinds = registry.snapshot_by_kind(shard=2)
        assert kinds["counters"]['ops.insert{shard="2"}'] == 3
        assert kinds["gauges"]['store.seq{shard="2"}'] == 7

    def test_without_shard_names_stay_flat(self):
        registry = MetricsRegistry()
        registry.increment("ops.insert")
        kinds = registry.snapshot_by_kind()
        assert kinds["counters"] == {"ops.insert": 1}


class TestAggregation:
    def test_two_shard_registries_do_not_collide(self):
        counters = {}
        for shard in (0, 1):
            registry = MetricsRegistry()
            registry.increment("ops.insert", shard + 1)
            kinds = registry.snapshot_by_kind(shard=shard)
            counters.update(kinds["counters"])
        text = prometheus_text(counters=counters)
        parsed = parse_exposition(text)
        assert parsed['repro_ops_insert_total{shard="0"}'] == 1
        assert parsed['repro_ops_insert_total{shard="1"}'] == 2
        # One TYPE line per family, not per series.
        assert text.count("# TYPE repro_ops_insert_total") == 1

    def test_same_series_twice_still_collides(self):
        # Labels don't relax the sanitization guard: two names that
        # sanitize to the same family with identical labels collide.
        counters = {
            'ops.insert{shard="0"}': 1,
            'ops_insert{shard="0"}': 2,
        }
        with pytest.raises(ValueError, match="collides"):
            prometheus_text(counters=counters)

    def test_router_prometheus_is_strict_parse_clean(self):
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            assert router.insert("R4", {"C": "c", "S": "s", "G": "A"})
            assert router.apply_batch(
                [("insert", "R5", {"H": "h", "S": "s", "R": "r"})]
            ).committed
            router.query(("C", "S"))
            text = router.prometheus()
        finally:
            router.close()
        parsed = parse_exposition(text)  # raises on any malformed line
        shard_series = [name for name in parsed if "shard=" in name]
        assert any('shard="0"' in name for name in shard_series)
        assert any('shard="1"' in name for name in shard_series)
        # Router-side counters stay unlabeled, the query engine's read
        # cache and the query count included.
        assert "repro_shard_rpcs_total" in parsed
        assert parsed["repro_router_gather_queries_total"] == 1
        assert parsed["repro_cache_read_misses_total"] == 1
        assert parsed["repro_cache_read_hit_rate"] == 0.0
        assert 'repro_cache_read_hit_rate{shard="0"}' in parsed

    def test_shard_batches_record_engine_spans(self):
        """A worker prepares its slice through the engine's batch
        kernel, so every shard's report shows its batch and block
        spans."""
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            outcome = router.apply_batch(
                [
                    ("insert", "R4", {"C": "c", "S": "s", "G": "A"}),
                    ("insert", "R1", {"C": "c", "H": "h", "R": "r"}),
                ]
            )
            stats = router.stats()
        finally:
            router.close()
        assert outcome.committed
        for shard in ("0", "1"):
            spans = stats["shards"][shard]["spans"]
            assert "engine.batch" in spans
            assert "engine.block" in spans

    def test_query_records_no_shard_spans(self):
        """A two-shard ``[C,S]`` reads R1, R2, R3, R5 (shard 0) and R4
        (shard 1) from the published state: it calls no shard, so it
        adds no ``shard.rpc`` span and no span to either shard's
        report."""
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            assert router.insert("R4", {"C": "c", "S": "s", "G": "A"})
            assert router.insert("R1", {"C": "c", "H": "h", "R": "r"})
            before = router.stats()
            assert router.query(("C", "S")) == {("c", "s")}
            after = router.stats()
        finally:
            router.close()
        assert after["shards"] == before["shards"]
        assert after["spans"]["shard.rpc"] == before["spans"]["shard.rpc"]
        assert after["spans"]["engine.query"]["count"] == 1
        assert after["metrics"]["shard.rpcs"] == before["metrics"]["shard.rpcs"]

    def test_stats_reports_per_shard_sections(self):
        router = ShardRouter.in_memory(example1_university(), 2)
        try:
            assert router.insert("R4", {"C": "c", "S": "s", "G": "A"})
            router.query(("C", "S"))
            router.query(("C", "S"))
            stats = router.stats()
        finally:
            router.close()
        assert sorted(stats["shards"]) == ["0", "1"]
        assert 'ops.insert{shard="1"}' in stats["metrics"]
        metrics = stats["metrics"]
        assert metrics["cache.read.hits"] == 1
        assert metrics["cache.read.hit_rate"] == 0.5
        assert metrics["router.gather_queries"] == 2
