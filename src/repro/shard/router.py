"""The block→shard map and the serial-equivalent router over it.

:class:`ShardRouter` derives a :class:`ShardMap` from the scheme's
independence decomposition (:class:`~repro.core.partition
.SchemePartition`, memoized by scheme fingerprint): block ``i`` lives on
shard ``i % shards`` (round-robin packing, so schemes with more blocks
than shards spread evenly).  Each shard is a
:class:`~repro.shard.worker.ShardWorker` holding one store over its
block subset — a full :class:`~repro.service.store.DurableStore`, or in
memory its write path alone (:class:`~repro.service.store.MemoryStore`)
— and every shard lives in the router's process, which calls it
directly.  One shard — a single-block scheme, a scheme outside the
class (never decomposed), or ``shards=1`` — is just the degenerate
assignment: its store serves the full scheme and records into the
router's tracer; with several, each shard records into a tracer of its
own, reported under ``stats()["shards"]``.  Every operation takes the
same route at every shard count; a plain
:class:`~repro.service.store.DurableStore` directory (no
``shard.json``) is served in place as the one shard.  ``repro serve``
always builds a router, so this module is the CLI's only serving stack.

Serial equivalence is the contract:

* **Inserts/deletes** route to the single shard owning the target
  relation — the paper's Section 4.2 guarantee that block-local
  validation lifts to global consistency.
* **Batches** reuse the min-global-event-index rule of
  :meth:`~repro.core.engine.WeakInstanceEngine.batch` at every shard
  count: the router assigns global indices before it calls the shards,
  each shard applies its slice through
  :meth:`~repro.core.engine.WeakInstanceEngine.apply_slice` (the
  batch's own block kernel), and the earliest failure across shards is
  reported byte-identically to the single-process path.  Atomicity is
  two-phase (prepare everywhere, then commit everywhere); a crash
  between the phases can leave a partial batch across shard WALs — the
  documented gap a future recovery rule closes.
* **Queries** are answered by one full-scheme engine over one
  *published state*: a full-scheme
  :class:`~repro.state.database_state.DatabaseState` assembled from
  the stores' own relations, republished under the write lock after
  every write, whatever its outcome.  Every write runs under that
  lock, so each published state is one serial state, and a query reads
  it once, without a lock; cross-shard extension joins (Theorem 4.1),
  the chase fallback and uncoverable targets all get the
  single-process answer.  Unchanged relations keep their identity
  across publications, so the engine's block-versioned read cache keeps
  hitting until a write changes a touched block.

Sessions (:class:`Session`) are named handles multiplexed over the
router — per-session accounting, not isolation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Hashable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.core.engine import Update, WeakInstanceEngine
from repro.core.partition import (
    SchemePartition,
    partition_scheme,
    scheme_fingerprint,
)
from repro.foundations.attrs import AttrsLike, attrs
from repro.foundations.errors import (
    NotApplicableError,
    ServiceError,
    StateError,
    StoreError,
)
from repro.io import dump_json_atomic, dump_scheme, load_json, load_scheme
from repro.obs.exposition import prometheus_text
from repro.obs.spans import Tracer, span, tracing
from repro.schema.database_scheme import DatabaseScheme
from repro.service.metrics import MetricsRegistry, cache_series, labeled
from repro.service.store import SCHEME_FILE, SHARD_FILE
from repro.shard.worker import ShardWorker
from repro.state.consistency import MaintenanceOutcome
from repro.state.database_state import DatabaseState, _from_relations
from repro.state.relation import Relation

PathLike = Union[str, Path]

SHARD_DIR_PREFIX = "shard-"


class ShardMap:
    """The block→shard assignment for one (scheme, shard count) pair."""

    def __init__(
        self,
        fingerprint: str,
        requested: int,
        shards: int,
        assignment: tuple[int, ...],
        partition: SchemePartition,
    ) -> None:
        self.fingerprint = fingerprint
        self.requested = requested
        self.shards = shards
        self.assignment = assignment
        self.shard_blocks: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                block
                for block, shard in enumerate(assignment)
                if shard == index
            )
            for index in range(shards)
        )
        self.shard_relations: tuple[tuple[str, ...], ...] = tuple(
            tuple(
                name
                for block in blocks
                for name in partition.block_names[block]
            )
            for blocks in self.shard_blocks
        )
        self.relation_shard: dict[str, int] = {}
        for index, names in enumerate(self.shard_relations):
            for name in names:
                self.relation_shard[name] = index

    @classmethod
    def derive(cls, partition: SchemePartition, shards: int) -> "ShardMap":
        """Round-robin block packing: block ``i`` → shard ``i % N``,
        with the effective count clamped to the block count (and to one
        when the scheme is not decomposable)."""
        requested = max(1, int(shards))
        if partition.parallelizable:
            effective = min(requested, len(partition.blocks))
        else:
            effective = 1
        if effective <= 1:
            assignment = tuple(0 for _ in partition.blocks) or (0,)
            return cls(
                partition.fingerprint, requested, 1, assignment, partition
            )
        assignment = tuple(
            index % effective for index in range(len(partition.blocks))
        )
        return cls(
            partition.fingerprint, requested, effective, assignment, partition
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "fingerprint": self.fingerprint,
            "requested": self.requested,
            "shards": self.shards,
            "assignment": list(self.assignment),
        }


def shard_map_for(scheme: DatabaseScheme, shards: int) -> ShardMap:
    """The :class:`ShardMap` for a scheme and shard count, derived from
    its memoized partition."""
    return ShardMap.derive(partition_scheme(scheme), shards)


class RouterBatchOutcome:
    """The router's batch verdict, shaped exactly like
    :class:`~repro.core.engine.BatchOutcome` minus the merged state
    (read it from :attr:`ShardRouter.state`)."""

    __slots__ = ("committed", "applied", "failed_index", "failure")

    def __init__(
        self,
        committed: bool,
        applied: int,
        failed_index: Optional[int] = None,
        failure: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.committed = committed
        self.applied = applied
        self.failed_index = failed_index
        self.failure = dict(failure) if failure is not None else None

    def __bool__(self) -> bool:
        return self.committed

    def to_dict(self) -> dict[str, Any]:
        return {
            "committed": self.committed,
            "applied": self.applied,
            "failed_index": self.failed_index,
            "failure": self.failure,
        }


class Session:
    """A named handle on a :class:`ShardRouter`.

    Thread-safe to share, cheap to create; all methods delegate to the
    router, whose counters count them.
    """

    def __init__(self, router: "ShardRouter", name: str) -> None:
        self.router = router
        self.name = name

    def insert(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> MaintenanceOutcome:
        return self.router.insert(relation_name, values)

    def delete(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> None:
        self.router.delete(relation_name, values)

    def apply_batch(self, updates: Sequence[Update]) -> RouterBatchOutcome:
        return self.router.apply_batch(updates)

    def query(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        return self.router.query(attributes)

    def state(self) -> DatabaseState:
        """The committed state at this instant."""
        return self.router.state

    def __repr__(self) -> str:
        return f"Session({self.name!r})"


class ShardRouter:
    """Route writes to per-block shards and answer queries over them."""

    def __init__(
        self,
        scheme: DatabaseScheme,
        shards: int = 1,
        *,
        directory: Optional[PathLike] = None,
        tracer: Optional[Tracer] = None,
        fsync_every: int = 1,
    ) -> None:
        self.scheme = scheme
        self.partition = partition_scheme(scheme)
        self.map = shard_map_for(scheme, shards)
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = MetricsRegistry()
        self.directory = Path(directory) if directory is not None else None
        self._fsync_every = fsync_every
        self._write_lock = threading.Lock()
        self._sessions_lock = threading.Lock()
        self._sessions: dict[str, Session] = {}  # guarded-by: _sessions_lock
        # A full-scheme engine that plans and answers every query; it
        # never validates writes (shards do).
        self._engine = WeakInstanceEngine(scheme)
        self._workers: list[ShardWorker] = []  # guarded-by: _write_lock (writes)
        try:
            for index in range(self.map.shards):
                self._workers.append(self._open_shard(index))
        except BaseException:
            for worker in self._workers:
                worker.close()
            raise
        # The published state: the stores' relations as one full-scheme
        # state, never mutated; every write republishes it under
        # _write_lock (see _publish).
        self._state = self._assemble()  # guarded-by: _write_lock (writes)

    # -- construction ---------------------------------------------------------
    @classmethod
    def in_memory(
        cls,
        scheme: DatabaseScheme,
        shards: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> "ShardRouter":
        """A sharded deployment with nothing on disk."""
        return cls(scheme, shards, tracer=tracer)

    @classmethod
    def create(
        cls,
        directory: PathLike,
        scheme: DatabaseScheme,
        shards: Optional[int] = 1,
        *,
        fsync_every: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> "ShardRouter":
        """Initialise a fresh store directory and serve it.

        A shard count lays out a sharded store (``shard.json`` plus one
        store per shard); ``shards=None`` creates a plain
        :class:`~repro.service.store.DurableStore`, which the
        single-store commands (``replay``, ``recover``, ``insert
        --store``) open too."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / SCHEME_FILE).exists():
            raise StoreError(f"{directory} already contains a store")
        if shards is not None:
            shard_map = shard_map_for(scheme, shards)
            dump_scheme(scheme, directory / SCHEME_FILE)
            dump_json_atomic(shard_map.to_dict(), directory / SHARD_FILE)
        return cls(
            scheme,
            shards or 1,
            directory=directory,
            tracer=tracer,
            fsync_every=fsync_every,
        )

    @classmethod
    def open(
        cls,
        directory: PathLike,
        shards: Optional[int] = None,
        *,
        fsync_every: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> "ShardRouter":
        """Recover a store: every shard replays its own WAL.

        A plain :class:`~repro.service.store.DurableStore` directory
        (no ``shard.json``) opens as the one shard.  The block→shard
        assignment is fixed at create time; a ``shards`` whose
        effective count differs is an error (re-sharding would need a
        data migration that does not exist)."""
        directory = Path(directory)
        meta_path = directory / SHARD_FILE
        if not (directory / SCHEME_FILE).exists():
            raise StoreError(f"{directory} does not contain a store")
        scheme = load_scheme(directory / SCHEME_FILE)
        if meta_path.exists():
            meta = load_json(meta_path)
            if meta.get("fingerprint") != scheme_fingerprint(scheme):
                raise StoreError(
                    f"{meta_path} does not match the scheme in {directory}"
                )
        else:
            meta = {"requested": 1, "shards": 1}
        if shards is not None and shard_map_for(
            scheme, shards
        ).shards != int(meta["shards"]):
            raise StoreError(
                f"{directory} holds {meta['shards']} shard(s); opening "
                f"with --shards {shards} would re-shard it, which is "
                "not supported"
            )
        return cls(
            scheme,
            int(meta["requested"]),
            directory=directory,
            tracer=tracer,
            fsync_every=fsync_every,
        )

    # -- startup --------------------------------------------------------------
    def _shard_dir(self, index: int) -> Optional[str]:
        if self.directory is None:
            return None
        if not (self.directory / SHARD_FILE).exists():
            return str(self.directory)  # a plain store is its one shard
        return str(self.directory / f"{SHARD_DIR_PREFIX}{index}")

    def _shard_scheme(self, index: int) -> DatabaseScheme:
        members = []
        for block in self.map.shard_blocks[index]:
            members.extend(self.partition.blocks[block].relations)
        return DatabaseScheme(members)

    def _open_shard(self, index: int) -> ShardWorker:
        """Shard ``index``'s worker: the one shard of a one-shard router
        serves the full scheme into the router's tracer; with more
        shards each serves its blocks into a tracer of its own."""
        if self.map.shards == 1:
            return ShardWorker.open(
                self.scheme,
                self._shard_dir(0),
                self._fsync_every,
                tracer=self.tracer,
            )
        return ShardWorker.open(
            self._shard_scheme(index),
            self._shard_dir(index),
            self._fsync_every,
        )

    @contextmanager
    def _shard(self, index: int) -> Iterator[ShardWorker]:
        """One call into shard ``index``: its worker, under the worker's
        tracer, inside a ``shard.rpc`` span and counted in
        ``shard.rpcs``."""
        worker = self._live_workers()[index]
        self.metrics.increment("shard.rpcs")
        self.metrics.increment(labeled("shard.rpcs", shard=index))
        with span("shard.rpc") as sp:
            if sp:
                sp.add("rpcs", 1)
            with tracing(worker.tracer):
                yield worker

    def _live_workers(self) -> list[ShardWorker]:
        """Every shard's worker; ``ServiceError`` once the router is
        closed."""
        workers = self._workers  # close() swaps in an empty list
        if not workers:
            raise ServiceError("router is closed")
        return workers

    def _assemble(self) -> DatabaseState:
        """The full-scheme state of the stores' current relations."""
        relations: dict[str, Relation] = {}
        for worker in self._workers:
            relations.update(worker.store.state)
        return _from_relations(self.scheme, relations)

    def _publish(self) -> None:
        """Republish the state after a write, whatever its outcome: the
        stores hold the truth, so a raised or partial write needs no
        other path.  The caller holds the write lock."""
        self._state = self._assemble()

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
    def shards(self) -> int:
        """The effective shard count."""
        return self.map.shards

    @property
    def durable(self) -> bool:
        return self.directory is not None

    @property
    def state(self) -> DatabaseState:
        """The full committed state: the published snapshot, one serial
        state of every relation."""
        self._live_workers()
        return self._state

    def query(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        """``[X]`` over the published state, answered by the
        full-scheme engine at every shard count: the single-process
        answer, cross-shard extension joins (Theorem 4.1) included.  It
        calls no shard."""
        target = attrs(attributes)
        state = self.state
        with tracing(self.tracer):
            with span("shard.route") as sp:
                self.metrics.increment("ops.query")
                if sp:
                    sp.add("queries", 1)
            self.metrics.increment("router.gather_queries")
            return self._engine.query(state, target)

    # -- writes (serialized) --------------------------------------------------
    def insert(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> MaintenanceOutcome:
        """Route one insert to the shard owning its block; the shard
        store's own outcome."""
        with self._write_lock, tracing(self.tracer):
            with span("shard.route"):
                self.metrics.increment("ops.insert")
                shard = self.map.relation_shard.get(relation_name)
                if shard is None:
                    # The single-process maintainer's exact complaint.
                    raise NotApplicableError(
                        f"unknown relation {relation_name!r}"
                    )
            try:
                with self._shard(shard) as worker:
                    outcome = worker.store.insert(relation_name, values)
            finally:
                self._publish()
            if not outcome.consistent:
                self.metrics.increment("store.rejects")
            return outcome

    def delete(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> None:
        """Route one deletion (always consistency-preserving).

        Unlike the single-process engine this returns nothing; use
        :attr:`state` when the merged snapshot is needed."""
        with self._write_lock, tracing(self.tracer):
            with span("shard.route"):
                self.metrics.increment("ops.delete")
                shard = self.map.relation_shard.get(relation_name)
                if shard is None:
                    # The single-process state's exact complaint.
                    raise StateError(
                        f"no relation named {relation_name!r}"
                    )
            try:
                with self._shard(shard) as worker:
                    worker.store.delete(relation_name, values)
            finally:
                self._publish()

    def apply_batch(self, updates: Sequence[Update]) -> RouterBatchOutcome:
        """Atomic batch with serial-equivalent semantics, two-phase at
        every shard count.

        Global event indices are assigned before any shard is called;
        every shard prepares its slice; the earliest event across shards
        (plus any unroutable update, which the serial loop would have
        raised or rejected at its own index) decides the batch exactly
        as :meth:`WeakInstanceEngine.batch` would.  Rejections are
        logged durably on the shard owning the refused tuple."""
        updates = list(updates)
        with self._write_lock, tracing(self.tracer):
            try:
                return self._two_phase(updates)
            finally:
                self._publish()

    def _two_phase(self, updates: list[Update]) -> RouterBatchOutcome:
        pre_events: list[tuple[int, Exception]] = []
        grouped: dict[int, list] = {}
        with span("shard.route") as sp:
            self.metrics.increment("ops.batch")
            for index, (operation, relation_name, values) in enumerate(
                updates
            ):
                if operation not in ("insert", "delete"):
                    pre_events.append(
                        (
                            index,
                            StateError(
                                f"unknown batch operation {operation!r}"
                            ),
                        )
                    )
                    continue
                shard = self.map.relation_shard.get(relation_name)
                if shard is None:
                    if operation == "insert":
                        error: Exception = NotApplicableError(
                            f"unknown relation {relation_name!r}"
                        )
                    else:
                        error = StateError(
                            f"no relation named {relation_name!r}"
                        )
                    pre_events.append((index, error))
                    continue
                grouped.setdefault(shard, []).append(
                    (index, operation, relation_name, values)
                )
            if sp:
                sp.add("updates", len(updates))
                sp.add("shards", len(grouped))
        prepared: list[int] = []
        events: list[tuple[int, str, Any]] = [
            (index, "error", error) for index, error in pre_events
        ]
        try:
            for shard in sorted(grouped):
                with self._shard(shard) as worker:
                    event = worker.prepare(grouped[shard])
                if event is None:
                    prepared.append(shard)
                else:
                    events.append(event)
        except BaseException:
            self._abort(prepared)
            raise
        if events:
            index, kind, data = min(events, key=lambda event: event[0])
            if kind == "error":
                self._abort(prepared)
                raise data
            _, relation_name, values = updates[index]
            outcome = RouterBatchOutcome(
                committed=False,
                applied=index,
                failed_index=index,
                failure=data,
            )
            owner = self.map.relation_shard[relation_name]
            self._abort(
                prepared + [owner],
                reject_shard=owner,
                reject={
                    "relation": relation_name,
                    "values": dict(values),
                    "outcome": outcome.to_dict(),
                },
            )
            self.metrics.increment("store.rejects")
            return outcome
        failed: list[tuple[int, Exception]] = []
        for shard in prepared:
            try:
                with self._shard(shard) as worker:
                    worker.commit()
            except Exception as error:  # noqa: BLE001 - re-raised below
                failed.append((shard, error))
        if failed:
            shard, error = failed[0]
            raise ServiceError(
                f"shard {shard} failed to commit a prepared batch; "
                "the sharded store may hold a partial batch"
            ) from error
        self.metrics.increment("ops.batch_updates", len(updates))
        return RouterBatchOutcome(committed=True, applied=len(updates))

    def _abort(
        self,
        shards: Sequence[int],
        reject_shard: Optional[int] = None,
        reject: Optional[Mapping[str, Any]] = None,
    ) -> None:
        for shard in sorted(set(shards)):
            with self._shard(shard) as worker:
                worker.abort(reject if shard == reject_shard else None)

    # -- maintenance ----------------------------------------------------------
    def snapshot(self) -> None:
        """Force a snapshot + WAL reset on every shard (durable only)."""
        if self.directory is None:
            raise ServiceError(
                "an in-memory server has nothing to snapshot"
            )
        with self._write_lock, tracing(self.tracer):
            for index in range(self.map.shards):
                with self._shard(index) as worker:
                    worker.snapshot()

    # -- reporting ------------------------------------------------------------
    def _shard_metric_kinds(self) -> list[tuple[int, dict[str, Any]]]:
        """Each shard's metric namespaces, by shard index."""
        return [
            (index, worker.metrics())
            for index, worker in enumerate(self._live_workers())
        ]

    def _engine_cache_series(self) -> tuple[dict, dict]:
        """The query engine's read-cache series, unlabeled: why a
        query was a dict probe or a re-evaluation."""
        return cache_series({"read": self._engine.cache_info()["read"]})

    def metrics_snapshot(self) -> dict[str, Union[int, float]]:
        """Router counters (its query engine's read cache included)
        plus every shard's, the latter labeled ``name{shard="K"}`` so
        shards never collide in one namespace."""
        merged = self.metrics.snapshot()
        counters, gauges = self._engine_cache_series()
        merged.update(counters)
        merged.update(gauges)
        for index, report in self._shard_metric_kinds():
            for kind in ("counters", "gauges", "timers"):
                for name, value in report[kind].items():
                    merged[labeled(name, shard=index)] = value
        return merged

    def stats(self) -> dict[str, object]:
        """The full observability report across the deployment: the
        router's tracer, plus each shard's own under ``shards`` (a
        one-shard router's shard records into the router's tracer, so
        it has no report of its own)."""
        shard_reports = {}
        for index, worker in enumerate(self._live_workers()):
            report = worker.stats()
            if report is not None:
                shard_reports[str(index)] = report
        return {
            "metrics": self.metrics_snapshot(),
            "spans": self.tracer.span_summaries(),
            "span_counters": self.tracer.counter_snapshot(),
            "shards": shard_reports,
        }

    def prometheus(self) -> str:
        """One exposition document for the whole deployment: router
        series unlabeled, per-shard series labeled ``{shard="K"}``."""
        kinds = self.metrics.snapshot_by_kind()
        counters = dict(kinds["counters"])
        counters.update(kinds["timers"])
        counters.update(self.tracer.counter_snapshot())
        gauges = dict(kinds["gauges"])
        engine_counters, engine_gauges = self._engine_cache_series()
        counters.update(engine_counters)
        gauges.update(engine_gauges)
        for index, report in self._shard_metric_kinds():
            for name, value in report["counters"].items():
                counters[labeled(name, shard=index)] = value
            for name, value in report["timers"].items():
                counters[labeled(name, shard=index)] = value
            for name, value in report["gauges"].items():
                gauges[labeled(name, shard=index)] = value
        return prometheus_text(
            counters=counters,
            gauges=gauges,
            histograms=self.tracer.histograms(),
        )

    # -- teardown -------------------------------------------------------------
    def close(self) -> None:
        """Shut the deployment down; safe to call more than once.
        Afterwards every op raises ``ServiceError("router is closed")``."""
        with self._write_lock:
            workers, self._workers = self._workers, []
            for worker in workers:
                worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()
