"""The traced run: attribute client-observed time to the layers.

Two sources, both outside ``src/``:

1. The server's own ``stats`` and ``metrics`` front-door reports,
   taken before and after the measured phase and diffed: router spans
   (``front.request``, ``shard.route``, ``shard.rpc``, the router's
   ``engine.query``), per-shard worker spans (``store.*``,
   ``engine.*``, ``wal.*``, ``compile.kernel``) and the shard-labelled
   cache counters.  A report from the first restart gives each
   shard's ``store.recovery`` span.
2. An in-process replay of a prefix of the same op stream at four
   depths — :class:`WeakInstanceEngine`, :class:`DurableStore`,
   :class:`ShardRouter` and :class:`ShardFrontend` — timing each public
   call.  The router depth runs twice: plain, and with
   ``repro.shard.protocol.encode_frame`` / ``decode_body`` and
   ``WeakInstanceEngine.query`` wrapped in timers.  The wrappers go in
   after the router has forked its workers, so only router-side calls
   are timed; the difference between the two router runs is the
   tracing overhead.

The metric names and units are the ``per_layer`` list of
``BENCHMARK.json``.  ``SHOULD_MOVE`` names, for each, the end-to-end
metric it should move and the workload where it should move it;
``print_table`` prints them as one table.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from workloads import FSYNC_EVERY, SHARDS, benchmark_spec

#: Requests replayed in-process at each depth.
REPLAY_REQUESTS = 250

#: Per-layer metric → the end-to-end metric @ workload it should move.
SHOULD_MOVE: dict[str, str] = {
    "frontend.overhead_ms": "query_p50_ms @ read_hot",
    "router.route_ms": "query p95 (record notes) @ write_churn",
    "router.rpcs_per_op": "throughput_ops_s @ read_hot; batch_p50_ms @ write_churn",
    "router.gather_share": "query_p50_ms @ read_hot",
    "router.eval_ms": "query_p50_ms @ read_hot",
    "router.rpc_ms": "insert_p50_ms @ write_churn",
    "protocol.frames_per_op": "query_p50_ms @ read_hot; batch_p50_ms @ write_churn",
    "protocol.bytes_per_op": "query_p50_ms @ read_hot; batch_p50_ms @ write_churn",
    "protocol.codec_us_per_frame": "query_p50_ms @ read_hot; batch_p50_ms @ write_churn",
    "protocol.codec_ms_per_op": "query_p50_ms @ read_hot; batch_p50_ms @ write_churn",
    "transit.ms_per_op": "throughput_ops_s @ read_hot",
    "worker.busy_ms_per_op": "throughput_ops_s @ write_churn",
    "store.write_ms": "insert_p50_ms, delete_p50_ms @ write_churn",
    "store.query_ms": "query_p50_ms @ read_hot",
    "engine.read_hit_rate": "query_p50_ms @ read_hot",
    "engine.plan_hit_rate": "query p95 (record notes) @ write_churn",
    "engine.kernel_compiles": "query p95 (record notes) @ write_churn",
    "engine.insert_ms": "insert_p50_ms @ write_churn",
    "engine.tuples_examined_per_insert": "insert_p50_ms @ write_churn",
    "engine.batch_ms": "batch_p50_ms @ write_churn",
    "wal.append_us": "insert_p50_ms @ write_churn",
    "wal.fsync_ms": "throughput_ops_s @ write_churn",
    "wal.fsyncs_per_write": "throughput_ops_s @ write_churn",
    "wal.bytes_per_record": "store_bytes_per_row @ write_churn",
    "recovery.records_per_s": "recovery_s @ write_churn",
    "stack.engine_ms": "throughput_ops_s @ read_hot",
    "stack.store_ms": "throughput_ops_s @ read_hot",
    "stack.router_ms": "throughput_ops_s @ read_hot",
    "stack.frontend_ms": "throughput_ops_s @ read_hot",
    "stack.router_vs_store": "throughput_ops_s @ read_hot",
    "unattributed_share": "(bookkeeping)",
    "trace.overhead_share": "(bookkeeping)",
    "error_rate": "(bookkeeping: failed / attempted)",
}

STORE_SPANS = ("store.insert", "store.delete", "store.batch", "store.query")


# -- report diffs ---------------------------------------------------------------
class Diff:
    """``after − before`` over the server's ``stats``/``metrics`` reports."""

    def __init__(self, before: dict[str, Any], after: dict[str, Any]) -> None:
        self.before = before
        self.after = after
        self.shards = sorted(after["stats"].get("shards", {}))

    @staticmethod
    def _span(report: dict[str, Any], name: str, shard: Any) -> tuple[float, float]:
        stats = report["stats"]
        spans = stats["spans"] if shard is None else stats["shards"][shard]["spans"]
        summary = spans.get(name, {})
        return summary.get("count", 0), summary.get("sum", 0.0)

    def span(self, name: str, shard: Any = None) -> tuple[float, float]:
        """(count, seconds) of span ``name`` — router's, or a shard's."""
        count_after, sum_after = self._span(self.after, name, shard)
        count_before, sum_before = self._span(self.before, name, shard)
        return count_after - count_before, sum_after - sum_before

    def shard_span(self, name: str) -> tuple[float, float]:
        """(count, seconds) of span ``name`` summed over the shards."""
        count = total = 0.0
        for shard in self.shards:
            shard_count, shard_sum = self.span(name, shard)
            count += shard_count
            total += shard_sum
        return count, total

    def counter(self, name: str) -> float:
        """A router metric, or the sum of its shard-labelled series."""
        def value(report: dict[str, Any]) -> float:
            metrics = report["metrics"]
            if name in metrics:
                return metrics[name]
            prefix = name + "{shard="
            return sum(v for k, v in metrics.items() if k.startswith(prefix))

        return value(self.after) - value(self.before)

    def shard_span_counter(self, name: str) -> float:
        def value(report: dict[str, Any]) -> float:
            shards = report["stats"].get("shards", {})
            return sum(
                shards[shard]["span_counters"].get(name, 0) for shard in shards
            )

        return value(self.after) - value(self.before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- in-process replays ---------------------------------------------------------
@contextmanager
def _timed_attribute(owner: Any, name: str, sink: dict[str, float]) -> Iterator[None]:
    """Replace ``owner.name`` with a wrapper that adds each call's
    seconds to ``sink["seconds"]``, its count to ``sink["calls"]`` and,
    for bytes in or out, their length to ``sink["bytes"]``."""
    original = getattr(owner, name)
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = clock()
        result = original(*args, **kwargs)
        sink["seconds"] += clock() - started
        sink["calls"] += 1
        for value in (result, *args):
            if isinstance(value, (bytes, bytearray)):
                sink["bytes"] += len(value)
                break
        return result

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _replay(call: Callable[[Any], Any], ops: Sequence[Any]) -> dict[str, Any]:
    """Run ``ops`` through ``call`` one by one, timing each call."""
    clock = time.perf_counter
    per_kind: dict[str, list[float]] = {}
    for op in ops:
        started = clock()
        call(op)
        per_kind.setdefault(op.kind, []).append(clock() - started)
    total = sum(sum(values) for values in per_kind.values())
    return {"mean_ms": 1000.0 * total / len(ops), "per_kind": per_kind}


def _updates(request: dict[str, Any]) -> list[tuple[str, str, dict]]:
    return [(op, name, values) for op, name, values in request["updates"]]


def _service_call(service: Any) -> Callable[[Any], None]:
    """Send ops to a :class:`DurableStore` or :class:`ShardRouter`
    (the two share the call surface the stream uses)."""

    def call(op: Any) -> None:
        request = op.request
        if op.kind == "query":
            service.query(request["target"])
        elif op.kind == "insert":
            service.insert(request["relation"], request["values"])
        elif op.kind == "delete":
            service.delete(request["relation"], request["values"])
        else:
            service.apply_batch(_updates(request))

    return call


class Replays:
    """The in-process depths, each from a fresh seeded deployment."""

    def __init__(self, run: Any) -> None:
        self.scheme = run.oracle.scheme
        self.ops = run.ops[:REPLAY_REQUESTS]
        self.seed_batches = [
            [("insert", name, values) for name, values in run.seed_rows[tile]]
            for tile in sorted(run.seed_rows)
        ]
        self.base = run.work / "replay"

    def _dir(self, name: str) -> Any:
        path = self.base / name
        shutil.rmtree(path, ignore_errors=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def engine(self) -> dict[str, Any]:
        from repro.core.engine import WeakInstanceEngine

        engine = WeakInstanceEngine(self.scheme)
        state = engine.empty_state()
        for batch in self.seed_batches:
            state = engine.batch(state, batch).state
        holder = {"state": state}

        def call(op: Any) -> None:
            request, current = op.request, holder["state"]
            if op.kind == "query":
                engine.query(current, request["target"])
            elif op.kind == "insert":
                outcome = engine.insert(current, request["relation"], request["values"])
                if outcome.consistent:
                    holder["state"] = outcome.state
            elif op.kind == "delete":
                holder["state"] = engine.delete(
                    current, request["relation"], request["values"]
                )
            else:
                outcome = engine.batch(current, _updates(request))
                if outcome:
                    holder["state"] = outcome.state

        try:
            return _replay(call, self.ops)
        finally:
            engine.close()

    def store(self) -> dict[str, Any]:
        from repro.service.store import DurableStore

        store = DurableStore.create(
            self._dir("store"), self.scheme, fsync_every=FSYNC_EVERY
        )
        try:
            for batch in self.seed_batches:
                store.apply_batch(batch)
            return _replay(_service_call(store), self.ops)
        finally:
            store.close()

    def _router(self, name: str) -> Any:
        from repro.shard.router import ShardRouter

        router = ShardRouter.create(
            self._dir(name), self.scheme, SHARDS, fsync_every=FSYNC_EVERY
        )
        for batch in self.seed_batches:
            router.apply_batch(batch)
        return router

    def router(self) -> dict[str, Any]:
        router = self._router("router")
        try:
            return _replay(_service_call(router), self.ops)
        finally:
            router.close()

    def router_wrapped(self) -> dict[str, Any]:
        """The router depth with the codec and the router-side engine
        query timed; wrappers go in after the workers are forked."""
        from repro.core.engine import WeakInstanceEngine
        from repro.shard import protocol

        router = self._router("router-wrapped")
        encode = {"seconds": 0.0, "calls": 0, "bytes": 0}
        decode = {"seconds": 0.0, "calls": 0, "bytes": 0}
        evaluate = {"seconds": 0.0, "calls": 0, "bytes": 0}
        try:
            with _timed_attribute(protocol, "encode_frame", encode), \
                    _timed_attribute(protocol, "decode_body", decode), \
                    _timed_attribute(WeakInstanceEngine, "query", evaluate):
                result = _replay(_service_call(router), self.ops)
        finally:
            router.close()
        result.update(encode=encode, decode=decode, evaluate=evaluate)
        return result

    def frontend(self) -> dict[str, Any]:
        from repro.shard.frontend import ShardFrontend
        from repro.shard.protocol import read_frame, write_frame

        router = self._router("frontend")
        per_kind: dict[str, list[float]] = {}

        async def drive() -> None:
            frontend = ShardFrontend(router)
            await frontend.start()
            reader, writer = await asyncio.open_connection(*frontend.address)
            clock = time.perf_counter
            try:
                for op in self.ops:
                    started = clock()
                    write_frame(writer, op.request)
                    await writer.drain()
                    await read_frame(reader)
                    per_kind.setdefault(op.kind, []).append(clock() - started)
            finally:
                writer.close()
                await writer.wait_closed()
                await frontend.close()

        try:
            asyncio.run(drive())
        finally:
            router.close()
        total = sum(sum(values) for values in per_kind.values())
        return {"mean_ms": 1000.0 * total / len(self.ops), "per_kind": per_kind}

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


# -- the per-layer metrics ------------------------------------------------------
def attribute_layers(run: Any) -> dict[str, tuple[float, str]]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` for a finished
    traced run, as ``name → (value, unit)``."""
    units = {
        metric["name"]: metric["unit"] for metric in benchmark_spec()["per_layer"]
    }
    if set(units) != set(SHOULD_MOVE):
        raise RuntimeError(
            "BENCHMARK.json per_layer and layers.SHOULD_MOVE name different "
            f"metrics: {sorted(set(units) ^ set(SHOULD_MOVE))}"
        )
    diff = Diff(run.snapshots["before"], run.snapshots["after"])
    ops = run.result.executed
    client_seconds = sum(run.result.latencies)
    ms = 1000.0
    values: dict[str, float] = {}

    # Router (router-process spans and counters).
    _, route = diff.span("shard.route")
    _, rpc = diff.span("shard.rpc")
    _, front = diff.span("front.request")
    _, evaluated = diff.span("engine.query")
    gathers = diff.counter("router.gather_queries")
    values["router.route_ms"] = ms * route / ops
    values["router.rpc_ms"] = ms * rpc / ops
    values["router.rpcs_per_op"] = diff.counter("shard.rpcs") / ops
    values["router.gather_share"] = _ratio(gathers, diff.counter("ops.query"))
    values["router.eval_ms"] = ms * _ratio(evaluated, gathers)

    # Workers, stores and engines (summed over shards).
    busy = sum(diff.shard_span(name)[1] for name in STORE_SPANS)
    values["worker.busy_ms_per_op"] = ms * busy / ops
    writes = [diff.shard_span(name) for name in ("store.insert", "store.delete")]
    values["store.write_ms"] = ms * _ratio(
        sum(seconds for _, seconds in writes), sum(count for count, _ in writes)
    )
    queries, query_seconds = diff.shard_span("store.query")
    values["store.query_ms"] = ms * _ratio(query_seconds, queries)
    inserts, insert_seconds = diff.shard_span("engine.insert")
    values["engine.insert_ms"] = ms * _ratio(insert_seconds, inserts)
    values["engine.tuples_examined_per_insert"] = _ratio(
        diff.shard_span_counter("engine.insert.tuples_examined"), inserts
    )
    for cache, metric in (("read", "engine.read_hit_rate"), ("plans", "engine.plan_hit_rate")):
        hits = diff.counter(f"cache.{cache}.hits")
        values[metric] = _ratio(hits, hits + diff.counter(f"cache.{cache}.misses"))
    values["engine.kernel_compiles"] = (
        diff.span("compile.kernel")[0] + diff.shard_span("compile.kernel")[0]
    )

    # WAL.
    appends, append_seconds = diff.shard_span("wal.append")
    fsyncs, fsync_seconds = diff.shard_span("wal.fsync")
    store_writes = sum(
        diff.shard_span(name)[0]
        for name in ("store.insert", "store.delete", "store.batch")
    )
    values["wal.append_us"] = 1e6 * _ratio(append_seconds - fsync_seconds, appends)
    values["wal.fsync_ms"] = ms * _ratio(fsync_seconds, fsyncs)
    values["wal.fsyncs_per_write"] = _ratio(fsyncs, store_writes)
    values["wal.bytes_per_record"] = _ratio(
        diff.shard_span_counter("wal.append.bytes"), appends
    )

    # Recovery, from the restarted server's own report.
    recovered = run.snapshots["recovered"]["stats"]["shards"]
    replayed = sum(
        report["span_counters"].get("store.recovery.replayed", 0)
        for report in recovered.values()
    )
    recovery_seconds = sum(
        report["spans"].get("store.recovery", {}).get("sum", 0.0)
        for report in recovered.values()
    )
    values["recovery.records_per_s"] = _ratio(replayed, recovery_seconds)

    # In-process depths.
    replays = Replays(run)
    try:
        engine = replays.engine()
        store = replays.store()
        router = replays.router()
        wrapped = replays.router_wrapped()
        frontend = replays.frontend()
    finally:
        replays.close()
    values["stack.engine_ms"] = engine["mean_ms"]
    values["stack.store_ms"] = store["mean_ms"]
    values["stack.router_ms"] = router["mean_ms"]
    values["stack.frontend_ms"] = frontend["mean_ms"]
    values["stack.router_vs_store"] = router["mean_ms"] / store["mean_ms"]
    values["engine.batch_ms"] = ms * statistics.fmean(engine["per_kind"]["batch"])
    values["trace.overhead_share"] = wrapped["mean_ms"] / router["mean_ms"] - 1.0
    encode, decode = wrapped["encode"], wrapped["decode"]
    replayed_ops = len(replays.ops)
    frames = encode["calls"] + decode["calls"]
    codec = encode["seconds"] + decode["seconds"]
    values["protocol.frames_per_op"] = frames / replayed_ops
    values["protocol.bytes_per_op"] = (encode["bytes"] + decode["bytes"]) / replayed_ops
    values["protocol.codec_us_per_frame"] = 1e6 * _ratio(codec, frames)
    values["protocol.codec_ms_per_op"] = ms * codec / replayed_ops

    # Derived rows.
    client_ms = ms * client_seconds / ops
    values["frontend.overhead_ms"] = client_ms - values["stack.router_ms"]
    values["transit.ms_per_op"] = (
        values["router.rpc_ms"]
        - values["protocol.codec_ms_per_op"]
        - values["worker.busy_ms_per_op"]
    )
    values["unattributed_share"] = _ratio(
        front - route - rpc - evaluated, client_seconds
    )
    values["error_rate"] = _ratio(run.failed, run.attempted)
    return {name: (values[name], unit) for name, unit in units.items()}


def print_table(metrics: dict[str, tuple[float, str]]) -> None:
    """The per-layer table: value, unit, and what it should move."""
    print(f"{'layer metric':36s} {'value':>14s}  {'unit':6s}  should move")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.4f}  {unit:6s}  {SHOULD_MOVE[name]}")
