"""The per-shard worker: one shard's store behind one RPC dispatcher.

Each worker owns the relations of one shard — a union of partition
blocks — behind one store: a :class:`~repro.service.store.DurableStore`
(own WAL, snapshots, delta basis, KernelSpace) when the shard has a
directory, its in-memory base :class:`~repro.service.store.MemoryStore`
otherwise.  Both run the same write path, so every op reads the same
at either kind.  A multi-shard router forks one worker process per
shard, which speaks the length-prefixed JSON protocol over the
socketpair the router handed it (:func:`worker_main`); a one-shard
router builds its one worker in its own process and calls
:meth:`ShardWorker.handle` directly.

A worker validates and applies writes and hands out copies of its
relations (``fetch``); it evaluates no queries.  The router answers
every ``[X]`` itself from the relations it fetched, so a worker's
engine builds no query caches.

Batches are two-phase at every shard count, and workers apply their
slice through :meth:`~repro.core.engine.WeakInstanceEngine.apply_slice`
— the single-process batch's own per-block kernel — so the events they
report carry the *global* batch indices the router's min-event merge
needs: ``prepare`` validates the slice against the current state and
stashes the would-be next state; ``commit`` logs and publishes it
(:meth:`~repro.service.store.MemoryStore.commit_batch`); ``abort``
discards it (optionally logging the batch's reject diagnostic on the
shard that owns the refused tuple).  A worker holds at most one pending
batch — the router serializes writes.
"""

from __future__ import annotations

import signal
import socket
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import StoreError
from repro.obs.spans import Tracer, span, tracing
from repro.schema.database_scheme import DatabaseScheme
from repro.service.metrics import cache_series
from repro.service.store import SCHEME_FILE, DurableStore, MemoryStore
from repro.shard.protocol import recv_frame, send_frame
from repro.state.database_state import DatabaseState


class ShardWorker:
    """The request-dispatch state machine of one shard.

    Kept separate from the process loop: a forked worker runs it under
    :func:`worker_main`, a one-shard router calls :meth:`handle` in its
    own process."""

    def __init__(
        self,
        shard: int,
        store: MemoryStore,
        tracer: Tracer,
        reports_tracer: bool,
    ) -> None:
        self.shard = shard
        self.store = store
        self.tracer = tracer
        # A worker handed its host's tracer (the one-shard router's)
        # leaves reporting it to the host, so ``metrics``/``stats``
        # never report one tracer twice.
        self.reports_tracer = reports_tracer
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
        store: MemoryStore
        if store_dir is None:
            store = MemoryStore(WeakInstanceEngine(scheme))
        else:
            with tracing(tracer):
                if (Path(store_dir) / SCHEME_FILE).exists():
                    store = DurableStore.open(
                        store_dir, fsync_every=fsync_every
                    )
                else:
                    store = DurableStore.create(
                        store_dir, scheme, fsync_every=fsync_every
                    )
        return cls(shard, store, tracer, reports_tracer)

    def close(self) -> None:
        self._pending = None
        self.store.close()

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
        store = self.store
        if op == "ping":
            return {"ok": True}
        if op == "insert":
            outcome = store.insert(request["relation"], request["values"])
            return {"ok": True, "outcome": outcome.to_dict()}
        if op == "delete":
            store.delete(request["relation"], request["values"])
            return {"ok": True}
        if op == "prepare":
            return self._prepare(request)
        if op == "commit":
            return self._commit()
        if op == "abort":
            return self._abort(request)
        if op == "fetch":
            return self._fetch(request)
        if op == "metrics":
            kinds = store.metrics.snapshot_by_kind()
            counters = dict(kinds["counters"])
            gauges = dict(kinds["gauges"])
            cache_counters, cache_gauges = cache_series(
                store.engine.cache_info()
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
            if not isinstance(store, DurableStore):
                raise StoreError("an in-memory shard has nothing to snapshot")
            store.snapshot()
            return {"ok": True}
        raise ValueError(f"unknown worker op {op!r}")

    def _fetch(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """The named relations' rows (every relation when none are
        named): the reply behind a router gather."""
        with span("worker.fetch") as sp:
            names = request.get("relations")
            if names is None:
                names = list(self.store.scheme.names)
            state = self.store.state
            relations = {
                name: [dict(values) for values in state[name]]
                for name in names
            }
            if sp:
                sp.add("relations", len(relations))
                sp.add("rows", sum(map(len, relations.values())))
        return {"ok": True, "relations": relations}

    # -- two-phase batches ----------------------------------------------------
    def _prepare(self, request: Mapping[str, Any]) -> dict[str, Any]:
        operations = [
            (int(index), operation, relation_name, values)
            for index, operation, relation_name, values in request[
                "operations"
            ]
        ]
        self._pending = None
        outcome = self.store.engine.apply_slice(self.store.state, operations)
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
        self.store.commit_batch(updates, next_state)
        return {"ok": True, "applied": len(updates)}

    def _abort(self, request: Mapping[str, Any]) -> dict[str, Any]:
        self._pending = None
        reject = request.get("reject")
        if reject is not None:
            self.store.log_reject(
                reject["relation"], reject["values"], reject["outcome"]
            )
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
