"""A thread-safe session server over one engine-validated state.

:class:`SchemeServer` is the concurrency layer the paper's guarantees
make cheap: because states are immutable and queries on bounded schemes
evaluate by predetermined expressions, readers never need a lock — they
grab the current state pointer and compute against that snapshot while
writers move the pointer forward underneath them.  Writes are
serialized through a single-writer lock, so the committed history is a
total order: the final state always equals the serial application of
the accepted updates in commit order (which, with a durable store, is
exactly WAL order).

Sessions are named handles multiplexed over the shared state — they
carry per-session accounting and a convenient bound API, not isolation;
every session sees every committed write.

The server fronts either a :class:`~repro.service.store.DurableStore`
(durable mode — every accepted write hits the WAL) or a bare scheme
(in-memory mode, same concurrency semantics, nothing on disk).
"""

from __future__ import annotations

import threading
from typing import Hashable, Mapping, Optional, Sequence, Union

from repro.core.engine import BatchOutcome, Update, WeakInstanceEngine
from repro.foundations.attrs import AttrsLike
from repro.foundations.errors import ServiceError
from repro.obs.exposition import prometheus_text
from repro.obs.spans import Tracer, tracing
from repro.schema.database_scheme import DatabaseScheme
from repro.service.metrics import MetricsRegistry, cache_series
from repro.service.store import DurableStore
from repro.state.consistency import MaintenanceOutcome
from repro.state.database_state import DatabaseState


class Session:
    """A named handle on a :class:`SchemeServer` or on a
    :class:`~repro.shard.router.ShardRouter`, which has the same API.

    Thread-safe to share, cheap to create; all methods delegate to the
    server and bump both the server's and the session's counters.
    """

    def __init__(self, server: "SchemeServer", name: str) -> None:
        self.server = server
        self.name = name
        self.metrics = MetricsRegistry()

    def insert(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> MaintenanceOutcome:
        self.metrics.increment("ops.insert")
        return self.server.insert(relation_name, values)

    def delete(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> DatabaseState:
        self.metrics.increment("ops.delete")
        return self.server.delete(relation_name, values)

    def apply_batch(self, updates: Sequence[Update]) -> BatchOutcome:
        self.metrics.increment("ops.batch")
        return self.server.apply_batch(updates)

    def query(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        self.metrics.increment("ops.query")
        return self.server.query(attributes)

    def state(self) -> DatabaseState:
        """The committed state at this instant (an immutable snapshot)."""
        return self.server.state

    def __repr__(self) -> str:
        return f"Session({self.name!r})"


class SchemeServer:
    """Single-writer / many-reader server over one weak-instance engine."""

    def __init__(
        self,
        store: Optional[DurableStore] = None,
        scheme: Optional[DatabaseScheme] = None,
        state: Optional[DatabaseState] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if (store is None) == (scheme is None):
            raise ServiceError(
                "pass exactly one of store= (durable) or scheme= (in-memory)"
            )
        # Every public operation runs under this tracer, so the engine-
        # and store-level spans (chase.*, join.*, wal.*, ...) land in
        # per-stage latency histograms the stats/prometheus surfaces
        # report.  Pass a Tracer configured with a slow-op log to get
        # threshold-triggered JSONL records of slow operations.
        self.tracer = tracer if tracer is not None else Tracer()
        self._write_lock = threading.Lock()
        self._sessions_lock = threading.Lock()
        self._sessions: dict[str, Session] = {}  # guarded-by: _sessions_lock
        self._closed = False  # guarded-by: _write_lock
        self._store = store
        if store is not None:
            if state is not None:
                raise ServiceError("a durable store carries its own state")
            self.scheme = store.scheme
            self.engine = store.engine
            self.metrics = store.metrics
            self._state = store.state  # guarded-by: _write_lock (writes)
        else:
            assert scheme is not None
            self.scheme = scheme
            self.engine = WeakInstanceEngine(scheme)
            self.metrics = MetricsRegistry()
            self._state = (
                state if state is not None else self.engine.empty_state()
            )

    # -- construction conveniences -------------------------------------------
    @classmethod
    def in_memory(
        cls,
        scheme: DatabaseScheme,
        state: Optional[DatabaseState] = None,
    ) -> "SchemeServer":
        return cls(scheme=scheme, state=state)

    @classmethod
    def serving(cls, store: DurableStore) -> "SchemeServer":
        return cls(store=store)

    # -- sessions -------------------------------------------------------------
    def session(self, name: str) -> Session:
        """The session named ``name`` (created on first use)."""
        with self._sessions_lock:
            existing = self._sessions.get(name)
            if existing is None:
                existing = Session(self, name)
                self._sessions[name] = existing
                self.metrics.increment("server.sessions_opened")
            return existing

    def session_names(self) -> list[str]:
        with self._sessions_lock:
            return sorted(self._sessions)

    # -- reads ----------------------------------------------------------------
    @property
    def state(self) -> DatabaseState:
        """The latest committed state.  Reading the pointer is atomic;
        the object it names is immutable, so readers are race-free."""
        return self._state

    @property
    def durable(self) -> bool:
        return self._store is not None

    def query(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        """``[X]`` against the state committed at call time — runs
        without the write lock; concurrent writers do not block it."""
        snapshot = self._state
        self.metrics.increment("ops.query")
        with tracing(self.tracer):
            return self.engine.query(snapshot, attributes)

    # -- writes (serialized) ---------------------------------------------------
    def insert(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> MaintenanceOutcome:
        with self._write_lock, tracing(self.tracer):
            if self._store is not None:
                outcome = self._store.insert(relation_name, values)
                self._state = self._store.state
            else:
                outcome = self.engine.insert(
                    self._state, relation_name, values
                )
                self.metrics.increment("ops.insert")
                if outcome.consistent:
                    assert outcome.state is not None
                    self._state = outcome.state
                else:
                    self.metrics.increment("store.rejects")
            return outcome

    def delete(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> DatabaseState:
        with self._write_lock, tracing(self.tracer):
            if self._store is not None:
                self._state = self._store.delete(relation_name, values)
            else:
                self.metrics.increment("ops.delete")
                self._state = self.engine.delete(
                    self._state, relation_name, values
                )
            return self._state

    def apply_batch(self, updates: Sequence[Update]) -> BatchOutcome:
        with self._write_lock, tracing(self.tracer):
            if self._store is not None:
                outcome = self._store.apply_batch(updates)
                self._state = self._store.state
            else:
                outcome = self.engine.batch(self._state, updates)
                self.metrics.increment("ops.batch")
                if outcome:
                    assert outcome.state is not None
                    self._state = outcome.state
                else:
                    self.metrics.increment("store.rejects")
            return outcome

    # -- maintenance ----------------------------------------------------------
    def snapshot(self) -> None:
        """Durable mode: force a snapshot + WAL reset now."""
        if self._store is None:
            raise ServiceError("an in-memory server has nothing to snapshot")
        with self._write_lock, tracing(self.tracer):
            self._store.snapshot()

    def metrics_snapshot(self) -> dict[str, Union[int, float]]:
        """Server counters merged with the engine's cache accounting
        (the read cache additionally reports its derived hit rate)."""
        merged = self.metrics.snapshot()
        counters, gauges = cache_series(self.engine.cache_info())
        merged.update(counters)
        merged.update(gauges)
        return merged

    def stats(self) -> dict[str, object]:
        """The full observability report: operation metrics, per-stage
        span histograms (count/sum/min/max/p50/p95/p99) and the spans'
        aggregated counters, JSON-ready."""
        return {
            "metrics": self.metrics_snapshot(),
            "spans": self.tracer.span_summaries(),
            "span_counters": self.tracer.counter_snapshot(),
        }

    def prometheus(self) -> str:
        """The same report as Prometheus text exposition v0.0.4.

        Operation/span counters become ``_total`` counter series, gauges
        stay gauges, and each span's latency histogram becomes a
        ``repro_span_<name>_seconds`` histogram family."""
        kinds = self.metrics.snapshot_by_kind()
        counters = dict(kinds["counters"])
        counters.update(kinds["timers"])
        gauges = dict(kinds["gauges"])
        cache_counters, cache_gauges = cache_series(self.engine.cache_info())
        counters.update(cache_counters)
        gauges.update(cache_gauges)
        counters.update(self.tracer.counter_snapshot())
        return prometheus_text(
            counters=counters,
            gauges=gauges,
            histograms=self.tracer.histograms(),
        )

    def close(self) -> None:
        # Take the write lock in *both* branches: an in-flight write on
        # another thread must finish (and publish its state) before the
        # engine's worker pool — which that write may be using — is
        # torn down.  Idempotent: a supervised shutdown (signal handler
        # plus ``finally`` block plus supervisor) may close the same
        # server from several paths.
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            if self._store is not None:
                self._store.close()
            else:
                self.engine.close()
