"""A crash-recoverable store binding a scheme, a WAL and snapshots.

A :class:`DurableStore` lives in one directory::

    store/
      scheme.json     the DatabaseScheme (written once at create time)
      snapshot.json   {"seq": N, "state": {...}} — the state after the
                      first N accepted updates (atomic replace)
      wal/            segmented log of accepted updates N+1, N+2, ...
        wal.000007.jsonl   sealed (immutable) segments, plus durable
        wal.000008.jsonl   ``reject`` diagnostics; the highest index
                           is the active segment (see repro.service.wal)

Every mutation is validated by the scheme's
:class:`~repro.core.engine.WeakInstanceEngine` *before* it is logged:
the WAL only ever contains updates the weak-instance model accepted, so
replay re-applies them without re-deriving the decision from scratch —
each replayed insert re-validates (the engine is the authority) and, by
determinism, re-accepts.  Rejected insertions are logged too, as
``reject`` records carrying the full
:meth:`~repro.state.consistency.MaintenanceOutcome.to_dict` diagnosis,
so repair tooling can later inspect *why* a tuple was refused; replay
skips them and they can never resurrect the refused tuple.

Recovery = load ``snapshot.json`` (consistency-checked through the
engine's memoized chase), stream-replay the WAL's intact prefix, repair
any torn tail.  Compaction = write a new snapshot at the current
sequence, then delete the sealed segments it covers; it triggers
automatically once the log outgrows the snapshot by ``compact_factor``.
Passing ``as_of_seq=N`` to :meth:`DurableStore.open` stops replay after
record ``N`` — point-in-time recovery — and the store opens read-only.

The write path itself lives in :class:`MemoryStore`, the in-memory
store a shard without a directory serves from; :class:`DurableStore`
adds the WAL append, compaction, recovery and snapshots to it.

A store is single-writer by construction — it performs no internal
locking.  :class:`repro.shard.router.ShardRouter` provides the
thread-safe front end; :mod:`repro.service.replica` ships sealed
segments to read-only followers.

Stores created before segmentation kept a single ``wal.jsonl`` file;
:meth:`DurableStore.open` migrates it into ``wal/`` as the first
segment, so old directories keep recovering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Mapping, Optional, Sequence, TypeVar, Union

from repro.core.engine import BatchOutcome, Update, WeakInstanceEngine
from repro.foundations.attrs import AttrsLike
from repro.foundations.errors import StoreError, WALError
from repro.io import (
    dump_json_atomic,
    dump_scheme,
    load_json,
    load_scheme,
    state_to_dict,
)
from repro.obs.spans import span
from repro.schema.database_scheme import DatabaseScheme
from repro.service.metrics import MetricsRegistry
from repro.service.wal import (
    DEFAULT_SEGMENT_BYTES,
    WalRecord,
    WriteAheadLog,
    segment_name,
)
from repro.state.consistency import MaintenanceOutcome
from repro.state.database_state import DatabaseState

PathLike = Union[str, Path]
_Store = TypeVar("_Store", bound="MemoryStore")

SCHEME_FILE = "scheme.json"
#: The block->shard map of a sharded store (see :mod:`repro.shard.router`).
SHARD_FILE = "shard.json"
SNAPSHOT_FILE = "snapshot.json"
#: Directory of WAL segments inside the store.
WAL_DIR = "wal"
#: Pre-segmentation single-file log name (migrated on open).
LEGACY_WAL_FILE = "wal.jsonl"

#: Never compact while the WAL is smaller than this many bytes — tiny
#: stores would otherwise snapshot on every write.
MIN_COMPACT_BYTES = 4096


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DurableStore.open` did to reach a servable state."""

    snapshot_seq: int
    replayed: int
    rejects_in_log: int
    discarded_bytes: int
    stale_log: bool
    seconds: float
    #: Whole pre-snapshot segments deleted during recovery.
    stale_segments: int = 0
    #: Point-in-time bound the replay stopped at (``None`` = full).
    as_of_seq: Optional[int] = None

    def to_dict(self) -> dict[str, object]:
        report: dict[str, object] = {
            "snapshot_seq": self.snapshot_seq,
            "replayed": self.replayed,
            "rejects_in_log": self.rejects_in_log,
            "discarded_bytes": self.discarded_bytes,
            "stale_log": self.stale_log,
            "stale_segments": self.stale_segments,
            "seconds": round(self.seconds, 6),
        }
        if self.as_of_seq is not None:
            report["as_of_seq"] = self.as_of_seq
        return report

    def describe(self) -> str:
        lines = [
            f"snapshot at seq {self.snapshot_seq}",
            f"replayed {self.replayed} update(s) from the WAL",
            f"{self.rejects_in_log} durable reject diagnostic(s) in the log",
        ]
        if self.as_of_seq is not None:
            lines.append(
                f"stopped at seq {self.as_of_seq} (point-in-time recovery; "
                "store is read-only)"
            )
        if self.discarded_bytes:
            lines.append(
                f"repaired a torn tail ({self.discarded_bytes} byte(s) "
                "discarded)"
            )
        if self.stale_log:
            lines.append(
                f"discarded {self.stale_segments} pre-snapshot (stale) "
                "WAL segment(s)"
            )
        lines.append(f"recovery took {self.seconds:.4f}s")
        return "\n".join(lines)


class MemoryStore:
    """One engine-validated state in memory, and the write path every
    store runs.

    Each write validates through the scheme's
    :class:`~repro.core.engine.WeakInstanceEngine`, hands the update
    (or a refused tuple's ``reject`` diagnostic) to :meth:`_log`,
    publishes the new state, counts the op and calls
    :meth:`_after_write`.  Both hooks do nothing here, which makes this
    the in-memory shard store; :class:`DurableStore` overrides them to
    append to its WAL and to compact.
    """

    def __init__(
        self,
        engine: WeakInstanceEngine,
        state: Optional[DatabaseState] = None,
    ) -> None:
        self.engine = engine
        self.scheme = engine.scheme
        self._state = engine.empty_state() if state is None else state
        self.metrics = MetricsRegistry()

    @property
    def state(self) -> DatabaseState:
        """The current (immutable) state — safe to hand to readers."""
        return self._state

    # -- hooks ----------------------------------------------------------------
    def _require_writable(self) -> None:
        """Refuse writes when the store is read-only (never, in memory)."""

    def _log(
        self,
        operation: str,
        relation_name: str,
        values: Mapping[str, Hashable],
        extra: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one validated update or ``reject`` diagnostic before
        the state it produces is published (nothing to record here)."""

    def _after_write(self) -> None:
        """Runs after every write's state swap and count."""

    # -- updates --------------------------------------------------------------
    def insert(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> MaintenanceOutcome:
        """Validate one insertion; log and apply it when accepted, log a
        ``reject`` diagnostic when refused."""
        self._require_writable()
        with span("store.insert") as sp:
            outcome = self.engine.insert(self._state, relation_name, values)
            if outcome.consistent:
                assert outcome.state is not None
                self._log("insert", relation_name, values)
                self._state = outcome.state
            else:
                self._log(
                    "reject",
                    relation_name,
                    values,
                    {"outcome": outcome.to_dict()},
                )
                self.metrics.increment("store.rejects")
            self.metrics.increment("ops.insert")
            self._after_write()
            if sp:
                sp.add("accepted", 1 if outcome.consistent else 0)
                sp.add("rejected", 0 if outcome.consistent else 1)
            return outcome

    def delete(
        self, relation_name: str, values: Mapping[str, Hashable]
    ) -> DatabaseState:
        """Log and apply one deletion (always consistency-preserving)."""
        self._require_writable()
        with span("store.delete"):
            updated = self.engine.delete(self._state, relation_name, values)
            self._log("delete", relation_name, values)
            self._state = updated
            self.metrics.increment("ops.delete")
            self._after_write()
            return updated

    def apply_batch(self, updates: Sequence[Update]) -> BatchOutcome:
        """Atomic batch: either every update is validated, logged and
        applied, or none is and the rejection is logged as a diagnostic."""
        self._require_writable()
        with span("store.batch") as sp:
            outcome = self.engine.batch(self._state, updates)
            if outcome:
                assert outcome.state is not None
                self._commit(updates, outcome.state)
            else:
                assert outcome.failed_index is not None
                _, relation_name, values = updates[outcome.failed_index]
                self._refuse(relation_name, values, outcome.to_dict())
            if sp:
                sp.add("updates", len(updates))
                sp.add("applied", outcome.applied)
            return outcome

    def commit_batch(
        self, updates: Sequence[Update], state: DatabaseState
    ) -> None:
        """Log an already-validated batch and publish its result state.

        The sharded two-phase commit path: the worker validated the
        slice during *prepare* (through the same block kernels the
        engine uses), so by commit time there is nothing left to check
        — only the log and the state swap remain, counted as
        :meth:`apply_batch` counts a committed batch."""
        self._require_writable()
        with span("store.batch") as sp:
            self._commit(updates, state)
            if sp:
                sp.add("updates", len(updates))
                sp.add("applied", len(updates))

    def log_reject(
        self,
        relation_name: str,
        values: Mapping[str, Hashable],
        outcome: Mapping[str, object],
    ) -> None:
        """Record a batch rejection without applying anything.

        The sharded abort path for the shard that owns the refused
        tuple: the record is byte-compatible with the ``reject`` entry
        :meth:`apply_batch` writes, so WAL auditing tools see the same
        diagnostic whether the batch ran sharded or single-process."""
        self._require_writable()
        with span("store.batch") as sp:
            self._refuse(relation_name, values, outcome)
            if sp:
                sp.add("updates", 0)
                sp.add("applied", 0)

    def _commit(
        self, updates: Sequence[Update], state: DatabaseState
    ) -> None:
        for operation, relation_name, values in updates:
            self._log(operation, relation_name, values)
        self._state = state
        self.metrics.increment("ops.batch")
        self.metrics.increment("ops.batch_updates", len(updates))
        self._after_write()

    def _refuse(
        self,
        relation_name: str,
        values: Mapping[str, Hashable],
        outcome: Mapping[str, object],
    ) -> None:
        self._log("reject", relation_name, values, {"outcome": dict(outcome)})
        self.metrics.increment("ops.batch")
        self.metrics.increment("store.rejects")
        self._after_write()

    # -- queries --------------------------------------------------------------
    def query(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        """``[X]`` over the current state via the engine's cheapest
        correct route."""
        with span("store.query"):
            self.metrics.increment("ops.query")
            return self.engine.query(self._state, attributes)

    def close(self) -> None:
        """Nothing to release in memory; :class:`DurableStore` closes
        its WAL."""

    def __enter__(self: _Store) -> _Store:
        return self

    def __exit__(self, *_: object) -> None:
        self.close()


class DurableStore(MemoryStore):
    """One engine-validated state made durable in a directory.

    Construct with :meth:`create` (new directory) or :meth:`open`
    (recover an existing one); both accept ``fsync_every`` to batch
    WAL fsyncs and ``compact_factor`` / ``auto_compact`` to tune the
    snapshot policy.  The write path is :class:`MemoryStore`'s: this
    class logs each write to the WAL before its state is published,
    and compacts once the log outgrows the snapshot.
    """

    def __init__(
        self,
        directory: Path,
        engine: WeakInstanceEngine,
        state: DatabaseState,
        wal: WriteAheadLog,
        recovery: RecoveryReport,
        compact_factor: float,
        auto_compact: bool,
        as_of_seq: Optional[int] = None,
    ) -> None:
        super().__init__(engine, state)
        self.directory = directory
        self._wal = wal
        self.recovery = recovery
        self.compact_factor = compact_factor
        self.auto_compact = auto_compact
        self._as_of_seq = as_of_seq
        self.metrics.increment("store.recoveries")
        self.metrics.increment("store.replayed_records", recovery.replayed)
        self._snapshot_bytes = (directory / SNAPSHOT_FILE).stat().st_size

    # -- construction ---------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        scheme: DatabaseScheme,
        *,
        fsync_every: int = 1,
        compact_factor: float = 4.0,
        auto_compact: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "DurableStore":
        """Initialise a fresh store directory (must not already hold
        one) and return it opened."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / SCHEME_FILE).exists():
            raise StoreError(f"{directory} already contains a store")
        dump_scheme(scheme, directory / SCHEME_FILE)
        dump_json_atomic(
            {"seq": 0, "state": state_to_dict(DatabaseState(scheme))},
            directory / SNAPSHOT_FILE,
        )
        return cls.open(
            directory,
            fsync_every=fsync_every,
            compact_factor=compact_factor,
            auto_compact=auto_compact,
            segment_bytes=segment_bytes,
        )

    @classmethod
    def open(
        cls,
        directory: PathLike,
        *,
        fsync_every: int = 1,
        compact_factor: float = 4.0,
        auto_compact: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        as_of_seq: Optional[int] = None,
    ) -> "DurableStore":
        """Recover the store at ``directory``: snapshot + WAL replay.

        Replay is sequential, but each replayed insert extends the
        engine's delta-chase basis instead of re-chasing the whole
        state, so recovery cost follows the log's cascades, not
        (log length) x (state size).

        ``as_of_seq=N`` is point-in-time recovery: replay stops after
        the record with sequence ``N`` and the store opens *read-only*
        — the log still holds records past ``N``, and accepting new
        writes would fork it.  ``N`` must be at or past the snapshot
        sequence (earlier states were compacted away) and at or before
        the log's last record."""
        started = time.perf_counter()
        directory = Path(directory)
        with span("store.recovery") as sp:
            scheme_path = directory / SCHEME_FILE
            if not scheme_path.exists():
                raise StoreError(f"{directory} does not contain a store")
            if (directory / SHARD_FILE).exists():
                raise StoreError(
                    f"{directory} is a sharded store; serve it with "
                    f"`repro serve --store {directory}`"
                )
            scheme = load_scheme(scheme_path)
            engine = WeakInstanceEngine(scheme)

            snapshot_path = directory / SNAPSHOT_FILE
            if snapshot_path.exists():
                snapshot = load_json(snapshot_path)
                if (
                    not isinstance(snapshot, dict)
                    or not isinstance(snapshot.get("seq"), int)
                    or not isinstance(snapshot.get("state"), dict)
                ):
                    raise StoreError(f"{snapshot_path} is malformed")
                snapshot_seq = snapshot["seq"]
                # engine.load chases (memoized) — a corrupt snapshot that
                # somehow passed JSON parsing still cannot serve queries.
                state = engine.load(snapshot["state"])
            else:
                snapshot_seq = 0
                state = engine.empty_state()
                dump_json_atomic(
                    {"seq": 0, "state": state_to_dict(state)}, snapshot_path
                )

            if as_of_seq is not None and as_of_seq < snapshot_seq:
                raise StoreError(
                    f"cannot recover as of seq {as_of_seq}: the snapshot "
                    f"already compacted everything up to {snapshot_seq}"
                )

            _migrate_legacy_wal(directory)
            try:
                wal = WriteAheadLog(
                    directory / WAL_DIR,
                    base_seq=snapshot_seq,
                    fsync_every=fsync_every,
                    flexible=True,
                    segment_bytes=segment_bytes,
                )
            except WALError as error:
                raise StoreError(
                    f"cannot recover {directory}: {error}"
                ) from error
            recovered = wal.recovered
            if (
                recovered.first_seq is not None
                and recovered.first_seq > snapshot_seq + 1
            ):
                raise StoreError(
                    f"WAL starts at seq {recovered.first_seq} but the "
                    f"snapshot ends at {snapshot_seq}: records are missing"
                )
            # Stream the replay: records come off disk one line at a
            # time, so recovery memory is bounded by one record no
            # matter how large the log grew.
            replayed = 0
            rejects = 0
            for record in wal.records(after_seq=snapshot_seq):
                if as_of_seq is not None and record.seq > as_of_seq:
                    break
                if record.op == "reject":
                    rejects += 1
                    continue
                state = _apply_record(engine, state, record)
                replayed += 1
            if as_of_seq is not None and wal.last_seq < as_of_seq:
                raise StoreError(
                    f"cannot recover as of seq {as_of_seq}: the log ends "
                    f"at seq {wal.last_seq}"
                )
            # Segments every record of which the snapshot covers were
            # deleted by the WAL's own recovery (a crash beat the
            # compaction); surface that as the stale-log flag.
            stale_log = recovered.stale_segments > 0
            report = RecoveryReport(
                snapshot_seq=snapshot_seq,
                replayed=replayed,
                rejects_in_log=rejects,
                discarded_bytes=recovered.discarded_bytes,
                stale_log=stale_log,
                seconds=time.perf_counter() - started,
                stale_segments=recovered.stale_segments,
                as_of_seq=as_of_seq,
            )
            if sp:
                sp.add("replayed", replayed)
                sp.add("discarded_bytes", recovered.discarded_bytes)
                sp.add("stale_logs", 1 if stale_log else 0)
        return cls(
            directory=directory,
            engine=engine,
            state=state,
            wal=wal,
            recovery=report,
            compact_factor=compact_factor,
            auto_compact=auto_compact,
            as_of_seq=as_of_seq,
        )

    # -- introspection --------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """The sequence the served state reflects — the WAL's last
        record, or the ``as_of_seq`` bound for a point-in-time open."""
        if self._as_of_seq is not None:
            return self._as_of_seq
        return self._wal.last_seq

    @property
    def read_only(self) -> bool:
        """True for a point-in-time (``as_of_seq``) open: the log holds
        records past the served state, so writes would fork it."""
        return self._as_of_seq is not None

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying segmented log.  Read-mostly: replication
        tails its segment files; only the store itself appends."""
        return self._wal

    @property
    def wal_bytes(self) -> int:
        return self._wal.size_bytes

    @property
    def closed(self) -> bool:
        return self._wal.closed

    def _require_writable(self) -> None:
        if self._as_of_seq is not None:
            raise StoreError(
                f"store was opened read-only as of seq {self._as_of_seq}; "
                "writing would fork the log it was recovered from"
            )

    # -- write-path hooks -----------------------------------------------------
    def _log(
        self,
        operation: str,
        relation_name: str,
        values: Mapping[str, Hashable],
        extra: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Append the record to the WAL before its state is published."""
        self._wal.append(operation, relation_name, values, extra=extra)

    # -- durability -----------------------------------------------------------
    def sync(self) -> None:
        """Force any batched WAL appends to disk now."""
        self._wal.sync()

    def snapshot(self) -> Path:
        """Write a snapshot at the current sequence and compact the WAL.

        Order matters for crash safety: the snapshot replaces
        atomically *first*; only then are the sealed segments it covers
        deleted.  A crash in between leaves stale segments that
        recovery recognises by their sequence numbers and discards.
        Nothing is ever truncated in place — the active segment rolls,
        so a follower mid-way through a sealed file never sees its
        bytes change."""
        self._require_writable()
        with span("store.snapshot") as sp:
            self._wal.sync()
            seq = self._wal.last_seq
            path = self.directory / SNAPSHOT_FILE
            dump_json_atomic(
                {"seq": seq, "state": state_to_dict(self._state)}, path
            )
            compacted = self._wal.compact(seq)
            self._snapshot_bytes = path.stat().st_size
            self.metrics.increment("store.snapshots")
            self.metrics.increment("store.compacted_segments", compacted)
            if sp:
                sp.add("snapshot_bytes", self._snapshot_bytes)
                sp.add("compacted_segments", compacted)
            return path

    def _after_write(self) -> None:
        """Refresh the WAL gauges and compact when the log outgrew the
        snapshot."""
        self.metrics.set_gauge("wal.bytes", self._wal.size_bytes)
        self.metrics.set_gauge("store.seq", self._wal.last_seq)
        if self.auto_compact:
            self.maybe_compact()

    def maybe_compact(self) -> bool:
        """Snapshot + segment compaction when the WAL has outgrown the
        snapshot by ``compact_factor`` (and is past the absolute
        minimum size)."""
        threshold = max(
            MIN_COMPACT_BYTES, self.compact_factor * self._snapshot_bytes
        )
        if self._wal.size_bytes <= threshold:
            return False
        self.snapshot()
        self.metrics.set_gauge("wal.bytes", self._wal.size_bytes)
        return True

    def close(self) -> None:
        """Flush and close the WAL."""
        self._wal.close()


def _migrate_legacy_wal(directory: Path) -> None:
    """Move a pre-segmentation single-file ``wal.jsonl`` into the
    segment directory as segment 1, so stores written before the
    format change keep recovering.  A no-op once migrated (or for a
    fresh store)."""
    legacy = directory / LEGACY_WAL_FILE
    if not legacy.exists():
        return
    wal_dir = directory / WAL_DIR
    wal_dir.mkdir(parents=True, exist_ok=True)
    target = wal_dir / segment_name(1)
    if target.exists():
        raise StoreError(
            f"{directory} holds both a legacy {LEGACY_WAL_FILE} and a "
            f"segmented log — refusing to guess which one is current"
        )
    legacy.rename(target)


def _apply_record(
    engine: WeakInstanceEngine, state: DatabaseState, record: WalRecord
) -> DatabaseState:
    """Re-apply one logged update during recovery.

    Inserts go back through engine validation; every logged insert was
    accepted before it was logged, so determinism makes re-acceptance a
    consistency check, not a decision."""
    values = record.values or {}
    if record.op == "insert":
        outcome = engine.insert(state, record.relation, values)
        if not outcome.consistent or outcome.state is None:
            raise StoreError(
                f"WAL record seq {record.seq} was accepted before the "
                "crash but fails validation on replay — the store "
                "directory is inconsistent"
            )
        return outcome.state
    if record.op == "delete":
        return engine.delete(state, record.relation, values)
    raise StoreError(f"cannot replay WAL op {record.op!r}")
