"""The block→shard map and the serial-equivalent fan-out tier.

:class:`ShardRouter` derives a :class:`ShardMap` from the scheme's
independence decomposition (:class:`~repro.core.partition
.SchemePartition`, memoized by scheme fingerprint): block ``i`` lives on
shard ``i % shards`` (round-robin packing, so schemes with more blocks
than shards spread evenly).  Each shard is a
:class:`~repro.shard.worker.ShardWorker` running one store over its
block subset — a full :class:`~repro.service.store.DurableStore`, or in
memory its write path alone (:class:`~repro.service.store.MemoryStore`)
— reached through a *channel* with ``send``/``recv``.
With several shards each worker is a forked process and its channel
carries length-prefixed JSON frames over a socketpair
(:mod:`repro.shard.protocol`).  One shard — a single-block scheme, a
scheme outside the class (never decomposed), or ``shards=1`` — is just
the degenerate assignment: its worker serves the full scheme in the
router's process, records into the router's tracer, and its channel
calls :meth:`~repro.shard.worker.ShardWorker.handle` directly.  Every
operation takes the same route at every shard count; a plain
:class:`~repro.service.store.DurableStore` directory (no
``shard.json``) is served in place as the one shard.  ``repro serve``
always builds a router, so this module is the CLI's only serving stack.

Serial equivalence is the contract:

* **Inserts/deletes** route to the single shard owning the target
  relation — the paper's Section 4.2 guarantee that block-local
  validation lifts to global consistency.
* **Batches** reuse the min-global-event-index rule of
  :meth:`~repro.core.engine.WeakInstanceEngine.batch` at every shard
  count: the router assigns global indices before fan-out, workers
  apply their slice through
  :meth:`~repro.core.engine.WeakInstanceEngine.apply_slice` (the
  batch's own block kernel), and the earliest failure across shards is
  reported byte-identically to the single-process path.  Atomicity is
  two-phase (prepare everywhere, then commit everywhere); a crash
  between the phases can leave a partial batch across shard WALs — the
  documented gap a future replication tier closes.
* **Queries** are answered router-side at every shard count: the
  relations the full-scheme plan names are gathered and a full-scheme
  engine evaluates the plan, so cross-shard extension joins
  (Theorem 4.1) return exactly the single-process answer; a target
  the engine answers by the chase (outside the class, or a plan past
  the exact lossless-subset enumeration's cap) gathers every relation,
  and an uncoverable target only the relations overlapping it.
  Gathers read through a *relation mirror*: one published
  ``name → Relation`` snapshot of the relations gathered so far, never
  mutated, replaced under the write lock.  Every worker write runs
  under that lock, and a write changes only the relations it names
  (Section 4.2), so a write whose outcome the router knows (an
  accepted, rejected or aborted one) publishes its row changes applied
  to those copies, and one of unknown outcome publishes the mirror
  without them.  A gather whose relations are all in the snapshot
  takes no lock and sends no RPC; the rest are fetched under the write
  lock, when no write can run.  Workers serve writes and fetches,
  never queries.

Sessions (:class:`Session`) are named handles multiplexed over the
router — per-session accounting, not isolation.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Hashable,
    Iterable,
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
    ReproError,
    SchemaError,
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
from repro.shard.protocol import recv_frame, send_frame
from repro.shard.worker import ShardWorker, worker_main
from repro.state.database_state import DatabaseState, _from_relations
from repro.state.relation import Relation, _from_rows

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


def _rebuild_error(info: Mapping[str, Any]) -> Exception:
    """An exception equivalent to the one a worker serialized."""
    import builtins

    from repro.foundations import errors as errors_mod

    name = str(info.get("type") or "ServiceError")
    message = str(info.get("message") or "")
    candidate = getattr(errors_mod, name, None)
    if not (
        isinstance(candidate, type) and issubclass(candidate, Exception)
    ):
        candidate = getattr(builtins, name, None)
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        return candidate(message)
    return ServiceError(f"{name}: {message}")


class RouterInsertOutcome:
    """A worker's insert verdict, rehydrated router-side.

    Quacks like :class:`~repro.state.consistency.MaintenanceOutcome`
    for every consumer that matters (CLI rendering, rejection
    diagnostics): ``to_dict()`` is byte-identical JSON to the
    single-process outcome.  The updated state stays on the shard."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, Any]) -> None:
        self._data = dict(data)

    @property
    def consistent(self) -> bool:
        return bool(self._data.get("consistent"))

    @property
    def tuples_examined(self) -> int:
        return int(self._data.get("tuples_examined", 0))

    @property
    def chase_steps(self) -> int:
        return int(self._data.get("chase_steps", 0))

    @property
    def witness(self) -> Optional[Mapping[str, Any]]:
        return self._data.get("witness")

    def __bool__(self) -> bool:
        return self.consistent

    def to_dict(self) -> dict[str, Any]:
        return dict(self._data)


class RouterBatchOutcome:
    """The router's batch verdict, shaped exactly like
    :class:`~repro.core.engine.BatchOutcome` minus the merged state
    (which lives sharded)."""

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
    ) -> RouterInsertOutcome:
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


class _PipeChannel:
    """A forked worker, reached by frames over its socketpair."""

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, payload: Mapping[str, Any]) -> None:
        send_frame(self._sock, payload)

    def recv(self) -> Optional[dict[str, Any]]:
        return recv_frame(self._sock)

    def close(self) -> None:
        try:
            send_frame(self._sock, {"op": "shutdown"})
            recv_frame(self._sock)
        except (ServiceError, OSError):
            pass
        finally:
            self._sock.close()


class _InlineChannel:
    """A worker in the router's own process: ``send`` runs the request
    through :meth:`ShardWorker.handle`, ``recv`` returns its reply."""

    __slots__ = ("_worker", "_reply")

    def __init__(self, worker: ShardWorker) -> None:
        self._worker = worker
        self._reply: Optional[dict[str, Any]] = None

    def send(self, payload: Mapping[str, Any]) -> None:
        self._reply = self._worker.handle(payload)

    def recv(self) -> Optional[dict[str, Any]]:
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        self._worker.close()


class _Write:
    """One write's report to the relation mirror (see
    :meth:`ShardRouter._follow`): ``changes`` stays ``None`` until
    the write reports its outcome as the row changes it made, in update
    order (none for a rejected insert or an aborted batch)."""

    __slots__ = ("changes",)

    def __init__(self) -> None:
        self.changes: Optional[Sequence[Update]] = None

    def report(self, changes: Sequence[Update]) -> None:
        self.changes = changes


#: The value types a worker stores exactly as the router sent them: a
#: JSON frame gives a bool, a float or a ``str`` subclass back as
#: another object, which a fetch would show.
_STORED_AS_GIVEN = frozenset({str, int})


def _followed(
    relation: Relation, changes: Sequence[tuple[str, Mapping[str, Any]]]
) -> Optional[Relation]:
    """``relation`` after ``changes`` (``(operation, values)`` pairs in
    update order), as the worker applies them: an insert adds its row
    unless an equal one is stored, a delete drops the equal row.  The
    same object when no change moves a row; ``None`` when a change's
    values are not exactly what the worker stores, so only a fetch
    shows its copy.  The stored rows are copied for the changes as a
    whole, not once per change."""
    attributes, order = relation.attributes, relation.columns
    stored = relation.row_vectors
    #: row -> whether it is stored after the changes so far, for the
    #: rows a change moved.
    moved: dict[tuple[Hashable, ...], bool] = {}
    for operation, values in changes:
        if operation not in ("insert", "delete") or len(values) != len(order):
            return None
        try:
            row = tuple(map(values.__getitem__, order))
        except KeyError:
            return None
        if not _STORED_AS_GIVEN.issuperset(map(type, row)):
            return None
        inserting = operation == "insert"
        if moved.get(row, row in stored) != inserting:
            moved[row] = inserting
    if not moved:
        return relation
    # A kept row that is stored was deleted and inserted again: the
    # worker then holds the inserted row, not an equal stored one of
    # another type (1 for True), so it is dropped before it is added.
    dropped = [row for row, kept in moved.items() if not kept or row in stored]
    added = [row for row, kept in moved.items() if kept]
    rows = stored.difference(dropped) if dropped else stored
    return _from_rows(attributes, order, rows.union(added) if added else rows)


class ShardRouter:
    """Fan inserts, batches and queries out over per-block workers."""

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
        self._closed = False
        self._channels: list[Union[_PipeChannel, _InlineChannel]] = []
        self._locks: list[threading.Lock] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        # The relation mirror: name -> an exact copy of that relation.
        # The dict is never mutated once published; every change
        # publishes a new one under _write_lock.  Every worker write
        # goes through this router under that lock and changes only the
        # relations it names, so each published snapshot is one serial
        # state of the relations it holds (see _follow and _gather), and
        # a restarted router starts with an empty mirror.
        self._mirror: dict[str, Relation] = {}  # guarded-by: _write_lock (writes)
        # Stable empty stand-ins for the relations a gather skips.
        self._placeholders = {
            member.name: Relation(member.attributes)
            for member in scheme.relations
        }
        # A full-scheme engine that plans and answers every query; it
        # never validates writes (shards do).
        # Gathered states are built from the mirror's stable Relation
        # objects, so its block-versioned read cache and the compiled
        # column caches hit until a write changes a touched relation.
        self._engine = WeakInstanceEngine(scheme)
        self._connect()

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
        (no ``shard.json``) opens as one inline shard.  The block→shard
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

    def _connect(self) -> None:
        """One channel per shard: the one shard of a one-shard router
        runs in this process, over the full scheme and into the
        router's tracer; with more shards each is a forked worker."""
        if self.map.shards == 1:
            worker = ShardWorker.open(
                0,
                self.scheme,
                self._shard_dir(0),
                self._fsync_every,
                tracer=self.tracer,
            )
            self._channels.append(_InlineChannel(worker))
        else:
            self._fork_workers()
        self._locks = [threading.Lock() for _ in self._channels]
        # One ping per shard: surfaces a worker that died during store
        # recovery as an error here, not on the first write.
        for index in range(self.map.shards):
            self._rpc(index, {"op": "ping"})

    def _fork_workers(self) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServiceError(
                "sharded serving needs the fork start method (POSIX); "
                "use shards=1 on this platform"
            )
        context = multiprocessing.get_context("fork")
        for index in range(self.map.shards):
            parent_sock, child_sock = socket.socketpair()
            config = {
                "shard": index,
                "scheme": self._shard_scheme(index),
                "store_dir": self._shard_dir(index),
                "fsync_every": self._fsync_every,
            }
            process = context.Process(
                target=worker_main,
                args=(child_sock, config),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_sock.close()
            self._channels.append(_PipeChannel(parent_sock))
            self._procs.append(process)

    # -- worker RPC -----------------------------------------------------------
    def _channel(self, shard: int) -> Union[_PipeChannel, _InlineChannel]:
        """Shard ``shard``'s channel; the caller holds its lock."""
        channels = self._channels  # close() swaps in an empty list
        if not channels:
            raise ServiceError("router is closed")
        return channels[shard]

    def _rpc(self, shard: int, payload: Mapping[str, Any]) -> dict[str, Any]:
        """One request/response round trip with one worker."""
        with span("shard.rpc") as sp:
            if sp:
                sp.add("rpcs", 1)
            with self._locks[shard]:
                channel = self._channel(shard)
                channel.send(payload)
                response = channel.recv()
        self.metrics.increment("shard.rpcs")
        self.metrics.increment(labeled("shard.rpcs", shard=shard))
        if response is None:
            raise ServiceError(
                f"shard {shard} closed its pipe mid-request"
            )
        if not response.get("ok", False):
            raise _rebuild_error(response.get("error") or {})
        return response

    def _fanout(
        self, payloads: Mapping[int, Mapping[str, Any]]
    ) -> dict[int, Optional[dict[str, Any]]]:
        """Send to every target shard first, then collect responses —
        workers overlap their work while the router drains in order.
        Transport failures surface as ``None`` entries; application
        errors stay in the response for the caller to merge by rank."""
        shards = sorted(payloads)
        responses: dict[int, Optional[dict[str, Any]]] = {}
        acquired: list[int] = []
        try:
            with span("shard.rpc") as sp:
                if sp:
                    sp.add("rpcs", len(shards))
                channels = {}
                for index in shards:
                    self._locks[index].acquire()
                    acquired.append(index)
                    channels[index] = self._channel(index)
                    try:
                        channels[index].send(payloads[index])
                    except OSError:
                        responses[index] = None
                for index in shards:
                    if index in responses:  # send already failed
                        continue
                    try:
                        responses[index] = channels[index].recv()
                    except (ServiceError, OSError):
                        responses[index] = None
        finally:
            for index in acquired:
                self._locks[index].release()
        for index in shards:
            self.metrics.increment("shard.rpcs")
            self.metrics.increment(labeled("shard.rpcs", shard=index))
        return responses

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
        """The full committed state, fetched fresh from every shard
        under the write lock (so no write is half-applied in it) —
        meant for inspection and the line protocol's ``state`` command,
        not for hot paths.  It neither reads nor fills the mirror."""
        with self._write_lock:
            return _from_relations(self.scheme, self._fetch(self.scheme.names))

    def query(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        """``[X]``, answered router-side at every shard count.

        The full-scheme plan names the relations ``[X]`` reads; they
        are gathered through the relation mirror (no RPC while every
        one is mirrored) and the same engine code evaluates them, so the
        answer is the single-process one, cross-shard extension joins
        (Theorem 4.1) included.  A target the engine answers by the
        chase (outside the class, or a plan past the exact
        lossless-subset enumeration's cap) gathers every relation.  A
        target no plan covers (``SchemaError``) has an empty answer on
        every consistent state: only the relations overlapping it are
        gathered, and the same evaluation confirms it."""
        target = attrs(attributes)
        with tracing(self.tracer):
            with span("shard.route") as sp:
                self.metrics.increment("ops.query")
                try:
                    plan = self._engine.plan(target)
                    names = sorted(plan.expression.relation_names())
                except SchemaError:
                    names = sorted(
                        member.name
                        for member in self.scheme.relations
                        if member.attributes & target
                    )
                except ReproError:
                    names = self.scheme.names
                if sp:
                    sp.add("queries", 1)
            self.metrics.increment("router.gather_queries")
            return self._engine.query(self._gather(names), target)

    def _gather(self, names: Sequence[str]) -> DatabaseState:
        """A full-scheme state holding the current contents of
        ``names`` (every other relation an empty placeholder).

        When one published mirror snapshot holds every name, the state
        is built from it with no lock and no RPC: the snapshot is one
        serial state of the relations it holds.  Otherwise the write
        lock is taken, the snapshot read again, the names it still
        lacks fetched in one fan-out and a snapshot with them
        published; no write runs meanwhile, so the fetched copies are
        exact at the same instant as every mirrored one.  A closed
        router raises ``ServiceError`` before it reads the mirror, so a
        gather it could answer without an RPC fails like every other
        op."""
        if self._closed:
            raise ServiceError("router is closed")
        mirror = self._mirror
        missing = [name for name in names if name not in mirror]
        if missing:
            with self._write_lock:
                mirror = self._mirror
                missing = [name for name in names if name not in mirror]
                if missing:
                    mirror = {**mirror, **self._fetch(missing)}
                    self._mirror = mirror
        self.metrics.increment(
            "router.gather_relations_reused", len(names) - len(missing)
        )
        self.metrics.increment(
            "router.gather_relations_fetched", len(missing)
        )
        # Every value is a Relation on its member's attributes (fetched
        # copies are built on them), so the state needs no re-check.
        return _from_relations(
            self.scheme,
            {**self._placeholders, **{name: mirror[name] for name in names}},
        )

    def _fetch(self, names: Sequence[str]) -> dict[str, Relation]:
        """Fresh copies of ``names``: one ``fetch`` RPC per owning
        shard, all in one fan-out."""
        grouped: dict[int, list[str]] = {}
        for name in names:
            grouped.setdefault(self.map.relation_shard[name], []).append(
                name
            )
        responses = self._fanout(
            {
                index: {"op": "fetch", "relations": sorted(rels)}
                for index, rels in grouped.items()
            }
        )
        relations: dict[str, Relation] = {}
        for index in sorted(responses):
            response = responses[index]
            if response is None:
                raise ServiceError(
                    f"shard {index} closed its pipe mid-request"
                )
            if not response.get("ok", False):
                raise _rebuild_error(response.get("error") or {})
            for name, rows in response["relations"].items():
                relations[name] = Relation(
                    self._placeholders[name].attributes, rows
                )
        return relations

    @contextmanager
    def _follow(self, names: Iterable[str]) -> Iterator["_Write"]:
        """Bracket one write that may change ``names``; the caller
        holds the write lock.  After the write, publish the mirror with
        its copies of ``names`` followed across it: the row changes the
        write reports on the yielded :class:`_Write` applied to them.
        A write that raises or reports nothing, or a change
        :func:`_followed` cannot apply, leaves those copies out of the
        published mirror, and the next gather fetches them."""
        write = _Write()
        try:
            yield write
        finally:
            mirror = self._mirror
            written = mirror.keys() & names
            if written:
                grouped: dict[str, list[tuple[str, Mapping[str, Any]]]] = {}
                for operation, relation_name, values in write.changes or ():
                    grouped.setdefault(relation_name, []).append(
                        (operation, values)
                    )
                published = dict(mirror)
                for name in written:
                    followed = None
                    if write.changes is not None:
                        followed = _followed(
                            mirror[name], grouped.get(name, ())
                        )
                    if followed is None:
                        del published[name]
                    else:
                        published[name] = followed
                self._mirror = published

    # -- writes (serialized) --------------------------------------------------
    def insert(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> Any:
        """Route one insert to the shard owning its block."""
        with self._write_lock, tracing(self.tracer):
            with span("shard.route"):
                self.metrics.increment("ops.insert")
                shard = self.map.relation_shard.get(relation_name)
                if shard is None:
                    # The single-process maintainer's exact complaint.
                    raise NotApplicableError(
                        f"unknown relation {relation_name!r}"
                    )
            values = dict(values)
            with self._follow((relation_name,)) as write:
                response = self._rpc(
                    shard,
                    {
                        "op": "insert",
                        "relation": relation_name,
                        "values": values,
                    },
                )
                outcome = RouterInsertOutcome(response["outcome"])
                write.report(
                    [("insert", relation_name, values)]
                    if outcome.consistent
                    else []
                )
            if not outcome.consistent:
                self.metrics.increment("store.rejects")
            return outcome

    def delete(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> None:
        """Route one deletion (always consistency-preserving).

        Unlike the single-process engine this returns nothing: the
        updated state lives on the shard, and assembling the full state
        per delete would defeat the fan-out.  Use :attr:`state` when
        the merged snapshot is actually needed."""
        with self._write_lock, tracing(self.tracer):
            with span("shard.route"):
                self.metrics.increment("ops.delete")
                shard = self.map.relation_shard.get(relation_name)
                if shard is None:
                    # The single-process state's exact complaint.
                    raise StateError(
                        f"no relation named {relation_name!r}"
                    )
            values = dict(values)
            with self._follow((relation_name,)) as write:
                self._rpc(
                    shard,
                    {
                        "op": "delete",
                        "relation": relation_name,
                        "values": values,
                    },
                )
                write.report([("delete", relation_name, values)])

    def apply_batch(self, updates: Sequence[Update]) -> Any:
        """Atomic batch with serial-equivalent semantics, two-phase at
        every shard count.

        Global event indices are assigned before fan-out; every shard
        prepares its slice; the earliest event across shards (plus any
        unroutable update, which the serial loop would have raised or
        rejected at its own index) decides the batch exactly as
        :meth:`WeakInstanceEngine.batch` would.  Rejections are logged
        durably on the shard owning the refused tuple."""
        updates = list(updates)
        written = [update[1] for update in updates]
        with self._write_lock, tracing(self.tracer):
            with self._follow(written) as write:
                outcome = self._two_phase(updates)
                write.report(updates if outcome else [])
                return outcome

    def _two_phase(self, updates: list[Update]) -> Any:
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
        payloads = {
            shard: {
                "op": "prepare",
                "operations": [
                    [index, operation, relation_name, dict(values)]
                    for index, operation, relation_name, values in ops
                ],
            }
            for shard, ops in grouped.items()
        }
        responses = self._fanout(payloads)
        prepared: list[int] = []
        events: list[tuple[int, str, Any]] = [
            (index, "error", error) for index, error in pre_events
        ]
        broken: Optional[Exception] = None
        for shard in sorted(responses):
            response = responses[shard]
            if response is None:
                broken = ServiceError(
                    f"shard {shard} closed its pipe mid-request"
                )
                continue
            if not response.get("ok", False):
                broken = _rebuild_error(response.get("error") or {})
                prepared.append(shard)  # safe: abort is a no-op there
                continue
            event = response.get("event")
            if event is None:
                prepared.append(shard)
            elif event["kind"] == "reject":
                events.append((event["index"], "reject", event["outcome"]))
            else:
                events.append((event["index"], "error", _rebuild_error(event)))
        if broken is not None:
            self._abort(prepared)
            raise broken
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
        commit_responses = self._fanout(
            {shard: {"op": "commit"} for shard in prepared}
        )
        for shard in sorted(commit_responses):
            response = commit_responses[shard]
            if response is None or not response.get("ok", False):
                raise ServiceError(
                    f"shard {shard} failed to commit a prepared batch; "
                    "the sharded store may hold a partial batch"
                )
        self.metrics.increment("ops.batch_updates", len(updates))
        return RouterBatchOutcome(committed=True, applied=len(updates))

    def _abort(
        self,
        shards: Sequence[int],
        reject_shard: Optional[int] = None,
        reject: Optional[Mapping[str, Any]] = None,
    ) -> None:
        payloads: dict[int, dict[str, Any]] = {}
        for shard in sorted(set(shards)):
            payload: dict[str, Any] = {"op": "abort"}
            if reject is not None and shard == reject_shard:
                payload["reject"] = dict(reject)
            payloads[shard] = payload
        self._fanout(payloads)

    # -- maintenance ----------------------------------------------------------
    def snapshot(self) -> None:
        """Force a snapshot + WAL reset on every shard (durable only)."""
        if self.directory is None:
            raise ServiceError(
                "an in-memory server has nothing to snapshot"
            )
        with self._write_lock, tracing(self.tracer):
            for index in range(self.map.shards):
                self._rpc(index, {"op": "snapshot"})

    # -- reporting ------------------------------------------------------------
    def _shard_metric_kinds(self) -> list[tuple[int, dict[str, Any]]]:
        """Each live worker's metric namespaces, by shard index."""
        reports = []
        for index in range(self.map.shards):
            response = self._rpc(index, {"op": "metrics"})
            reports.append((index, response))
        return reports

    def _engine_cache_series(self) -> tuple[dict, dict]:
        """The query engine's read-cache series, unlabeled: why a
        query was a dict probe or a re-evaluation."""
        return cache_series({"read": self._engine.cache_info()["read"]})

    def metrics_snapshot(self) -> dict[str, Union[int, float]]:
        """Router counters (its query engine's read cache included)
        plus every worker's, the latter labeled ``name{shard="K"}`` so
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
        router's tracer, plus each forked worker's under ``shards``
        (a one-shard router's worker records into the router's tracer,
        so it has no report of its own)."""
        shard_reports = {}
        for index in range(self.map.shards):
            response = self._rpc(index, {"op": "stats"})
            if "spans" not in response:
                continue
            shard_reports[str(index)] = {
                "spans": response["spans"],
                "span_counters": response["span_counters"],
            }
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
        Afterwards every op that needs a shard raises
        ``ServiceError("router is closed")``."""
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            channels, self._channels = self._channels, []
            procs, self._procs = self._procs, []
        # Under each shard's lock, so an in-flight read finishes before
        # its worker is torn down.
        for lock, channel in zip(self._locks, channels):
            with lock:
                channel.close()
        for process in procs:
            process.join(timeout=5.0)
        for process in procs:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()
