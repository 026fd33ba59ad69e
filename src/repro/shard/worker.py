"""The per-shard worker: one shard's state behind one RPC dispatcher.

Each worker owns the relations of one shard — a union of partition
blocks — behind either a full :class:`~repro.service.store.DurableStore`
(own WAL, snapshots, delta basis, KernelSpace) or an in-memory engine.
A multi-shard router forks one worker process per shard, which speaks
the length-prefixed JSON protocol over the socketpair the router handed
it (:func:`worker_main`); a one-shard router builds its one worker in
its own process and calls :meth:`ShardWorker.handle` directly.

Multi-shard batches are two-phase, and workers apply their slice
through :meth:`~repro.core.engine.WeakInstanceEngine.apply_slice` — the
single-process batch's own per-block kernel — so the events they report
carry the *global* batch indices the router's min-event merge needs:
``prepare`` validates the slice against the current state and stashes
the would-be next state; ``commit`` logs and publishes it; ``abort``
discards it (optionally logging the batch's reject diagnostic on the
shard that owns the refused tuple).  A worker holds at most one pending
batch — the router serializes writes.  A one-shard router sends the
whole batch as one ``batch`` op instead, applied by
:meth:`~repro.service.store.DurableStore.apply_batch` (or the engine's
:meth:`~repro.core.engine.WeakInstanceEngine.batch` in memory).
"""

from __future__ import annotations

import signal
import socket
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.core.engine import WeakInstanceEngine
from repro.io import sorted_rows, state_to_dict
from repro.obs.spans import Tracer, tracing
from repro.schema.database_scheme import DatabaseScheme
from repro.service.metrics import MetricsRegistry, cache_series
from repro.service.store import SCHEME_FILE, DurableStore
from repro.shard.protocol import recv_frame, send_frame
from repro.state.database_state import DatabaseState

#: RPC ops a worker understands (documented for the protocol tests).
WORKER_OPS = (
    "ping",
    "insert",
    "delete",
    "query",
    "batch",
    "prepare",
    "commit",
    "abort",
    "fetch",
    "state",
    "metrics",
    "stats",
    "snapshot",
    "sync",
    "shutdown",
)


class ShardWorker:
    """The request-dispatch state machine of one shard.

    Kept separate from the process loop: a forked worker runs it under
    :func:`worker_main`, a one-shard router calls :meth:`handle` in its
    own process."""

    def __init__(
        self,
        shard: int,
        engine: WeakInstanceEngine,
        state: DatabaseState,
        store: Optional[DurableStore],
        tracer: Tracer,
        reports_tracer: bool,
    ) -> None:
        self.shard = shard
        self.engine = engine
        self.store = store
        self.tracer = tracer
        # A worker handed its host's tracer (the one-shard router's)
        # leaves reporting it to the host, so ``metrics``/``stats``
        # never report one tracer twice.
        self.reports_tracer = reports_tracer
        # Durable workers count ops in the store's registry; in-memory
        # workers keep their own so per-shard series exist either way.
        self.metrics = (
            store.metrics if store is not None else MetricsRegistry()
        )
        self._state = state
        self._pending: Optional[
            tuple[list[tuple[str, str, Mapping[str, Any]]], DatabaseState]
        ] = None

    @classmethod
    def open(
        cls,
        shard: int,
        scheme: DatabaseScheme,
        store_dir: Optional[str] = None,
        fsync_every: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> "ShardWorker":
        """Serve ``scheme`` in memory, or from the store at
        ``store_dir`` (recovered when it holds one, created otherwise).

        Without ``tracer`` the worker records into a tracer of its own
        and reports it; with one (its host's) it records there and
        leaves the reporting to the host."""
        reports_tracer = tracer is None
        if tracer is None:
            tracer = Tracer()
        if store_dir is None:
            engine = WeakInstanceEngine(scheme)
            return cls(
                shard=shard,
                engine=engine,
                state=engine.empty_state(),
                store=None,
                tracer=tracer,
                reports_tracer=reports_tracer,
            )
        with tracing(tracer):
            if (Path(store_dir) / SCHEME_FILE).exists():
                store = DurableStore.open(store_dir, fsync_every=fsync_every)
            else:
                store = DurableStore.create(
                    store_dir, scheme, fsync_every=fsync_every
                )
        return cls(
            shard=shard,
            engine=store.engine,
            state=store.state,
            store=store,
            tracer=tracer,
            reports_tracer=reports_tracer,
        )

    @property
    def state(self) -> DatabaseState:
        return self._state

    def close(self) -> None:
        self._pending = None
        if self.store is not None:
            self.store.close()
        else:
            self.engine.close()

    # -- dispatch -------------------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """One RPC in, one JSON-ready response out.  Errors become
        ``{"ok": false, "error": {...}}`` so the router can rebuild and
        re-raise them with serial semantics."""
        op = request.get("op")
        try:
            with tracing(self.tracer):
                return self._dispatch(op, request)
        except Exception as error:  # noqa: BLE001 — shipped to router
            return {
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            }

    def _dispatch(
        self, op: Optional[str], request: Mapping[str, Any]
    ) -> dict[str, Any]:
        if op == "ping":
            payload: dict[str, Any] = {
                "ok": True,
                "shard": self.shard,
                "relations": list(self.engine.scheme.names),
            }
            if self.store is not None:
                payload["recovery"] = self.store.recovery.to_dict()
            return payload
        if op == "insert":
            if self.store is not None:
                outcome = self.store.insert(
                    request["relation"], request["values"]
                )
                self._state = self.store.state
            else:
                outcome = self.engine.insert(
                    self._state, request["relation"], request["values"]
                )
                self.metrics.increment("ops.insert")
                if outcome.consistent:
                    assert outcome.state is not None
                    self._state = outcome.state
                else:
                    self.metrics.increment("store.rejects")
            return {"ok": True, "outcome": outcome.to_dict()}
        if op == "delete":
            if self.store is not None:
                self._state = self.store.delete(
                    request["relation"], request["values"]
                )
            else:
                self._state = self.engine.delete(
                    self._state, request["relation"], request["values"]
                )
                self.metrics.increment("ops.delete")
            return {"ok": True}
        if op == "query":
            if self.store is not None:
                rows = self.store.query(request["target"])
            else:
                rows = self.engine.query(self._state, request["target"])
                self.metrics.increment("ops.query")
            return {"ok": True, "rows": sorted_rows(rows)}
        if op == "batch":
            updates = request["updates"]
            if self.store is not None:
                outcome = self.store.apply_batch(updates)
                self._state = self.store.state
            else:
                outcome = self.engine.batch(self._state, updates)
                self.metrics.increment("ops.batch")
                if outcome:
                    assert outcome.state is not None
                    self._state = outcome.state
                    self.metrics.increment("ops.batch_updates", len(updates))
                else:
                    self.metrics.increment("store.rejects")
            return {"ok": True, "outcome": outcome.to_dict()}
        if op == "prepare":
            return self._prepare(request)
        if op == "commit":
            return self._commit()
        if op == "abort":
            return self._abort(request)
        if op == "fetch":
            names = request.get("relations")
            if names is None:
                names = list(self.engine.scheme.names)
            relations = {
                name: [dict(values) for values in self._state[name]]
                for name in names
            }
            return {"ok": True, "relations": relations}
        if op == "state":
            return {"ok": True, "state": state_to_dict(self._state)}
        if op == "metrics":
            kinds = self.metrics.snapshot_by_kind()
            counters = dict(kinds["counters"])
            gauges = dict(kinds["gauges"])
            cache_counters, cache_gauges = cache_series(
                self.engine.cache_info()
            )
            counters.update(cache_counters)
            gauges.update(cache_gauges)
            if self.reports_tracer:
                counters.update(self.tracer.counter_snapshot())
            return {
                "ok": True,
                "counters": counters,
                "gauges": gauges,
                "timers": dict(kinds["timers"]),
            }
        if op == "stats":
            if not self.reports_tracer:
                return {"ok": True}
            return {
                "ok": True,
                "spans": self.tracer.span_summaries(),
                "span_counters": self.tracer.counter_snapshot(),
            }
        if op == "snapshot":
            if self.store is None:
                return {"ok": True, "snapshot": False}
            self.store.snapshot()
            return {"ok": True, "snapshot": True}
        if op == "sync":
            if self.store is not None:
                self.store.sync()
            return {"ok": True}
        raise ValueError(f"unknown worker op {op!r}")

    # -- two-phase batches ----------------------------------------------------
    def _prepare(self, request: Mapping[str, Any]) -> dict[str, Any]:
        operations = [
            (int(index), operation, relation_name, values)
            for index, operation, relation_name, values in request[
                "operations"
            ]
        ]
        self._pending = None
        outcome = self.engine.apply_slice(self._state, operations)
        event: Optional[dict[str, Any]] = None
        if outcome.error is not None:
            event = {
                "kind": "error",
                "index": outcome.error_index,
                "type": type(outcome.error).__name__,
                "message": str(outcome.error),
            }
        elif outcome.failure is not None:
            event = {
                "kind": "reject",
                "index": outcome.failed_index,
                "outcome": outcome.failure.to_dict(),
            }
        else:
            assert outcome.substate is not None
            self._pending = (
                [
                    (operation, relation_name, values)
                    for _, operation, relation_name, values in operations
                ],
                outcome.substate,
            )
        return {"ok": True, "applied": outcome.applied, "event": event}

    def _commit(self) -> dict[str, Any]:
        if self._pending is None:
            raise ValueError("commit without a prepared batch")
        updates, next_state = self._pending
        self._pending = None
        if self.store is not None:
            self.store.commit_batch(updates, next_state)
            self._state = self.store.state
        else:
            self._state = next_state
            self.metrics.increment("ops.batch")
            self.metrics.increment("ops.batch_updates", len(updates))
        return {"ok": True, "applied": len(updates)}

    def _abort(self, request: Mapping[str, Any]) -> dict[str, Any]:
        self._pending = None
        reject = request.get("reject")
        if reject is not None:
            if self.store is not None:
                self.store.log_reject(
                    reject["relation"], reject["values"], reject["outcome"]
                )
            else:
                self.metrics.increment("store.rejects")
        return {"ok": True}


def worker_main(conn: socket.socket, config: Mapping[str, Any]) -> None:
    """The forked child's entire life: build the shard from the
    router's fork-time ``config`` (:meth:`ShardWorker.open` keywords),
    serve RPCs until EOF/shutdown, tear down cleanly.

    SIGTERM exits the loop cleanly (the supervision contract from the
    satellite task); SIGINT is ignored so a Ctrl-C aimed at the router
    process group cannot kill workers before the router coordinates
    shutdown."""

    def _terminate(signum: int, frame: object) -> None:  # pragma: no cover
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker = ShardWorker.open(**config)
    try:
        while True:
            request = recv_frame(conn)
            if request is None or request.get("op") == "shutdown":
                if request is not None:
                    send_frame(conn, {"ok": True})
                break
            send_frame(conn, worker.handle(request))
    except (SystemExit, BrokenPipeError, ConnectionResetError):
        pass
    finally:
        worker.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
