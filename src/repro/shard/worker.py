"""One shard: one store over a block subset, in the router's process.

Each worker owns the relations of one shard — a union of partition
blocks — behind one store: a :class:`~repro.service.store.DurableStore`
(own WAL, snapshots, delta basis, KernelSpace) when the shard has a
directory, its in-memory base :class:`~repro.service.store.MemoryStore`
otherwise.  Both run the same write path, so every op reads the same
at either kind.  The router calls the store's ``insert``/``delete``
directly, and this class's batch, snapshot and reporting methods; it
reads the store's immutable ``state`` to answer every ``[X]`` itself,
so a worker's engine builds no query caches.

Batches are two-phase at every shard count, and workers apply their
slice through :meth:`~repro.core.engine.WeakInstanceEngine.apply_slice`
— the single-process batch's own per-block kernel — so the events they
report carry the *global* batch indices the router's min-event merge
needs: :meth:`ShardWorker.prepare` validates the slice against the
current state and stashes the would-be next state; :meth:`commit` logs
and publishes it (:meth:`~repro.service.store.MemoryStore
.commit_batch`); :meth:`abort` discards it (optionally logging the
batch's reject diagnostic on the shard that owns the refused tuple).
A worker holds at most one pending batch — the router serializes
writes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.core.engine import WeakInstanceEngine
from repro.core.partition import RoutedUpdate
from repro.foundations.errors import StoreError
from repro.obs.spans import Tracer, tracing
from repro.schema.database_scheme import DatabaseScheme
from repro.service.metrics import cache_series
from repro.service.store import SCHEME_FILE, DurableStore, MemoryStore
from repro.state.database_state import DatabaseState

#: A prepared slice's earliest event: ``(global index, "error", the
#: exception)`` or ``(global index, "reject", the failure's dict)``.
Event = tuple[int, str, Any]


class ShardWorker:
    """One shard's store, its pending batch slice and its tracer."""

    def __init__(
        self,
        store: MemoryStore,
        tracer: Tracer,
        reports_tracer: bool,
    ) -> None:
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
        return cls(store, tracer, reports_tracer)

    def close(self) -> None:
        self._pending = None
        self.store.close()

    # -- two-phase batches ----------------------------------------------------
    def prepare(self, operations: Sequence[RoutedUpdate]) -> Optional[Event]:
        """Validate this shard's slice of a batch and stash its next
        state; the slice's earliest event instead, stashing nothing."""
        self._pending = None
        outcome = self.store.engine.apply_slice(self.store.state, operations)
        if outcome.error is not None:
            return (outcome.error_index, "error", outcome.error)
        if outcome.failure is not None:
            return (outcome.failed_index, "reject", outcome.failure.to_dict())
        assert outcome.substate is not None
        self._pending = (
            [
                (operation, relation_name, values)
                for _, operation, relation_name, values in operations
            ],
            outcome.substate,
        )
        return None

    def commit(self) -> None:
        if self._pending is None:
            raise ValueError("commit without a prepared batch")
        updates, next_state = self._pending
        self._pending = None
        self.store.commit_batch(updates, next_state)

    def abort(self, reject: Optional[Mapping[str, Any]] = None) -> None:
        self._pending = None
        if reject is not None:
            self.store.log_reject(
                reject["relation"], reject["values"], reject["outcome"]
            )

    # -- maintenance and reporting --------------------------------------------
    def snapshot(self) -> None:
        store = self.store
        if not isinstance(store, DurableStore):
            raise StoreError("an in-memory shard has nothing to snapshot")
        store.snapshot()

    def metrics(self) -> dict[str, dict[str, Any]]:
        """The store's counters, gauges and timers, its engine's cache
        series, and the tracer's counters when this worker reports it."""
        kinds = self.store.metrics.snapshot_by_kind()
        counters = dict(kinds["counters"])
        gauges = dict(kinds["gauges"])
        cache_counters, cache_gauges = cache_series(
            self.store.engine.cache_info()
        )
        counters.update(cache_counters)
        gauges.update(cache_gauges)
        if self.reports_tracer:
            counters.update(self.tracer.counter_snapshot())
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": dict(kinds["timers"]),
        }

    def stats(self) -> Optional[dict[str, Any]]:
        """The tracer's span report, or ``None`` when the host reports
        the tracer."""
        if not self.reports_tracer:
            return None
        return {
            "spans": self.tracer.span_summaries(),
            "span_counters": self.tracer.counter_snapshot(),
        }
