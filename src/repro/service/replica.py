"""Follower replication over the segmented WAL.

The segmented log makes replication a file-shipping problem: sealed
segments are immutable, so a :class:`WalShipper` on the primary reads
their bytes (plus the growing tail of the active segment) and hands
them to :class:`FollowerStore` replicas.  A follower writes the
records into identically-named segment files — its log is
byte-for-byte the primary's — and replays each state-changing record
through its own :class:`~repro.core.engine.WeakInstanceEngine`.
Replay extends the engine's delta-chase basis incrementally (a
property the paper's block-local chase semantics guarantee), so
follower apply cost follows each record's cascade, not the state size,
and the follower's immutable
:class:`~repro.state.database_state.DatabaseState` snapshots serve
lock-free reads the whole time.

Failure handling:

* **Primary compacted past the follower** — a sealed segment the
  cursor still needed was deleted after a snapshot.  The shipper
  re-bootstraps the follower from the current snapshot; the follower
  discards its log and starts over.  No offset arithmetic across the
  gap is attempted.
* **Follower divergence** — a shipped record that fails CRC, breaks
  the sequence, or is rejected by the follower's engine on replay
  raises out of :meth:`FollowerStore.replay`; the truncation fuzzers
  drive this path with torn segment boundaries.
* **Primary loss** — :meth:`FollowerStore.promote` turns the follower
  into a writable :class:`~repro.service.store.DurableStore` *in
  place*: its live engine/state carry over (no re-chase, no replay), a
  fresh :class:`~repro.service.wal.WriteAheadLog` re-opens its segment
  directory, and the scan doubles as a CRC audit of everything the
  follower wrote.

The shipper calls its followers' methods directly, in its own
process (the failover bench and the shipping suites run it so), so a
follower's errors reach the shipper's caller as their own typed
exceptions and its ``replica.replay`` spans nest under the shipper's
``replica.ship``.  No serving command deploys followers: ``repro
serve`` spreads blocks over shard processes instead, and per-shard
followers wait for a deployment that needs them.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import ServiceError, StoreError, WALError
from repro.io import dump_json_atomic, dump_scheme, load_json
from repro.obs.spans import Tracer, span, tracing
from repro.schema.database_scheme import DatabaseScheme
from repro.service.store import (
    SCHEME_FILE,
    SNAPSHOT_FILE,
    WAL_DIR,
    DurableStore,
    RecoveryReport,
)
from repro.service.wal import (
    WriteAheadLog,
    _decode_line,
    segment_index,
    segment_name,
)
from repro.state.database_state import DatabaseState

PathLike = Union[str, Path]

#: Upper bound on raw record bytes the shipper reads per ``replay``
#: call, so one pass never holds a whole large segment in memory.
SHIP_CHUNK_BYTES = 4 * 1024 * 1024


class FollowerStore:
    """A read-only replica fed raw WAL lines by a :class:`WalShipper`.

    Not thread-safe on the write path — one shipper feeds it; reads
    hand out immutable state snapshots and need no lock.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        fsync_every: int = 1,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self._engine: Optional[WeakInstanceEngine] = None
        self._state: Optional[DatabaseState] = None
        self._snapshot_seq = 0
        self._applied_seq = 0
        self._rejects = 0
        self._segment_index: Optional[int] = None
        self._segment_handle: Optional[Any] = None
        self._promoted: Optional[DurableStore] = None

    # -- introspection --------------------------------------------------------
    @property
    def applied_seq(self) -> int:
        """Sequence of the last record applied (or promoted through)."""
        if self._promoted is not None:
            return self._promoted.last_seq
        return self._applied_seq

    @property
    def state(self) -> Optional[DatabaseState]:
        """The follower's current immutable state — safe to hand to
        readers with no locking (replay swaps the pointer)."""
        if self._promoted is not None:
            return self._promoted.state
        return self._state

    @property
    def promoted(self) -> Optional[DurableStore]:
        return self._promoted

    # -- replication ----------------------------------------------------------
    def bootstrap(
        self, scheme: DatabaseScheme, snapshot: Mapping[str, Any]
    ) -> None:
        """(Re)initialise from the primary's ``scheme`` and snapshot.

        Also the shipper's recovery path when compaction on the primary
        deleted a segment this follower still needed: any previously
        shipped segments are discarded and the log restarts from the
        snapshot's sequence."""
        if self._promoted is not None:
            raise ServiceError("follower was promoted; cannot re-bootstrap")
        seq = snapshot["seq"]
        if not isinstance(seq, int) or not isinstance(
            snapshot.get("state"), dict
        ):
            raise ServiceError("malformed bootstrap snapshot")
        engine = WeakInstanceEngine(scheme)
        state = engine.load(snapshot["state"])
        # Persist the store files first: a promote after a crash of the
        # *primary* must find a complete store directory here.
        dump_scheme(scheme, self.directory / SCHEME_FILE)
        dump_json_atomic(
            {"seq": seq, "state": snapshot["state"]},
            self.directory / SNAPSHOT_FILE,
        )
        self._close_segment()
        wal_dir = self.directory / WAL_DIR
        wal_dir.mkdir(parents=True, exist_ok=True)
        for stale in sorted(wal_dir.iterdir()):
            if segment_index(stale) is not None:
                stale.unlink()
        self._engine = engine
        self._state = state
        self._snapshot_seq = seq
        self._applied_seq = seq
        self._rejects = 0
        self._segment_index = None

    def replay(self, segment: int, lines: Sequence[str]) -> int:
        """Append the shipped raw lines to segment ``segment`` and
        apply their records; returns how many changed the state.

        Each line must decode, pass its CRC, and continue the sequence
        — and each replayed insert goes back through the follower's own
        engine, so a primary/follower divergence surfaces here as an
        error instead of silently forked states.  Records at or before
        the bootstrap snapshot's sequence are written (byte fidelity)
        but not applied (the snapshot already contains them)."""
        engine = self._engine
        if engine is None or self._state is None:
            raise ServiceError("follower has not been bootstrapped")
        with span("replica.replay") as sp:
            handle = self._segment_for(segment)
            state = self._state
            applied = 0
            for text in lines:
                raw = text.encode("utf-8")
                record = _decode_line(raw, None)
                if record is None:
                    raise WALError(
                        f"follower received a damaged record for segment "
                        f"{segment} after seq {self._applied_seq}"
                    )
                if record.seq <= self._snapshot_seq:
                    handle.write(raw)
                    continue
                if record.seq != self._applied_seq + 1:
                    raise WALError(
                        f"follower expected seq {self._applied_seq + 1} "
                        f"but was shipped seq {record.seq} — replication "
                        "stream diverged"
                    )
                handle.write(raw)
                if record.op == "insert":
                    outcome = engine.insert(
                        state, record.relation, record.values or {}
                    )
                    if not outcome.consistent or outcome.state is None:
                        raise StoreError(
                            f"record seq {record.seq} was accepted by the "
                            "primary but fails validation on the follower "
                            "— states diverged"
                        )
                    state = outcome.state
                    applied += 1
                elif record.op == "delete":
                    state = engine.delete(
                        state, record.relation, record.values or {}
                    )
                    applied += 1
                else:
                    self._rejects += 1
                self._applied_seq = record.seq
            handle.flush()
            self._state = state
            if sp:
                sp.add("records", len(lines))
                sp.add("applied", applied)
        return applied

    def sync(self) -> None:
        """fsync the segment being written."""
        if self._segment_handle is not None:
            self._segment_handle.flush()
            os.fsync(self._segment_handle.fileno())

    def seal(self, segment: int) -> None:
        """The primary rolled past ``segment``: fsync and close it —
        from here on its bytes are immutable, exactly as on the
        primary."""
        if self._segment_index == segment:
            self._close_segment(fsync=True)

    def query(self, attributes: Any) -> set:
        """``[X]`` over the follower's snapshot state — lock-free."""
        if self._promoted is not None:
            return self._promoted.query(attributes)
        if self._engine is None or self._state is None:
            raise ServiceError("follower has not been bootstrapped")
        return self._engine.query(self._state, attributes)

    def promote(self) -> DurableStore:
        """Fail over: become a writable :class:`DurableStore` in place.

        The follower's live engine and state carry over — no snapshot
        reload, no replay, no re-chase; the dominant cost is one scan
        of its segment files to rebuild the appender's bookkeeping,
        which doubles as a CRC audit of everything it wrote.  The
        returned store continues the sequence where shipping stopped,
        appending to the same segment directory."""
        if self._promoted is not None:
            return self._promoted
        engine = self._engine
        if engine is None or self._state is None:
            raise ServiceError(
                "follower has not been bootstrapped; nothing to promote"
            )
        started = time.perf_counter()
        self._close_segment(fsync=True)
        wal = WriteAheadLog(
            self.directory / WAL_DIR,
            base_seq=self._snapshot_seq,
            fsync_every=self.fsync_every,
            flexible=True,
        )
        if wal.last_seq != self._applied_seq:
            wal.close()
            raise StoreError(
                f"follower applied up to seq {self._applied_seq} but its "
                f"log ends at {wal.last_seq} — refusing to promote a "
                "diverged replica"
            )
        report = RecoveryReport(
            snapshot_seq=self._snapshot_seq,
            replayed=0,
            rejects_in_log=self._rejects,
            discarded_bytes=wal.recovered.discarded_bytes,
            stale_log=False,
            seconds=time.perf_counter() - started,
        )
        self._promoted = DurableStore(
            directory=self.directory,
            engine=engine,
            state=self._state,
            wal=wal,
            recovery=report,
            compact_factor=4.0,
            auto_compact=True,
        )
        return self._promoted

    def close(self) -> None:
        if self._promoted is not None:
            self._promoted.close()
            self._promoted = None
            self._engine = None
            return
        self._close_segment()
        self._engine = None

    def __enter__(self) -> "FollowerStore":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()

    # -- segment files --------------------------------------------------------
    def _segment_for(self, segment: int) -> Any:
        if self._segment_index == segment and self._segment_handle:
            return self._segment_handle
        if (
            self._segment_index is not None
            and segment < self._segment_index
        ):
            raise WALError(
                f"follower is on segment {self._segment_index}; refusing "
                f"to reopen sealed segment {segment}"
            )
        self._close_segment(fsync=True)
        path = self.directory / WAL_DIR / segment_name(segment)
        self._segment_handle = open(path, "ab")
        self._segment_index = segment
        return self._segment_handle

    def _close_segment(self, fsync: bool = False) -> None:
        if self._segment_handle is not None:
            if fsync:
                self.sync()
            self._segment_handle.close()
            self._segment_handle = None


def _first_seq(path: Path) -> Optional[int]:
    """Sequence of the first intact record in a segment file."""
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
    except OSError:
        return None
    record = _decode_line(line, None)
    return record.seq if record is not None else None


def _read_complete_lines(
    path: Path, offset: int, max_bytes: int = SHIP_CHUNK_BYTES
) -> tuple[list[str], int]:
    """Read whole, CRC-valid lines from ``offset``; stop at the first
    incomplete or still-flushing line (it is retried next poll) or at
    ``max_bytes``.  Returns the lines and the new offset."""
    lines: list[str] = []
    with open(path, "rb") as handle:
        handle.seek(offset)
        total = 0
        while total < max_bytes:
            line = handle.readline()
            if not line or not line.endswith(b"\n"):
                break
            if _decode_line(line, None) is None:
                break
            lines.append(line.decode("utf-8"))
            offset += len(line)
            total += len(line)
    return lines, offset


class WalShipper:
    """Streams a primary store's segments to its followers.

    Per follower it keeps a cursor ``(segment index, byte offset)``
    into the primary's segment directory and ships complete records
    from there: sealed segments in order (each then sealed on the
    follower, so its copy becomes immutable at the same boundary),
    then the active segment's growing tail.  Reading is
    concurrent-safe against the appending writer because only intact,
    CRC-valid, newline-terminated lines ever ship — a half-flushed
    tail stays behind the cursor until the next poll.

    If compaction deleted a segment before it shipped (the follower
    lagged across a snapshot), the follower is re-bootstrapped from
    the current snapshot rather than chasing a gap.
    """

    def __init__(
        self,
        store: DurableStore,
        followers: Sequence[FollowerStore],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.store = store
        self.followers = list(followers)
        self.tracer = tracer if tracer is not None else Tracer()
        self._cursors: list[Optional[dict[str, int]]] = [
            None for _ in self.followers
        ]
        self.bootstraps = 0

    def ship(self) -> int:
        """One shipping pass over every follower; returns the number of
        records sent.  Call repeatedly (or from a polling thread) —
        each pass ships whatever accumulated since the last."""
        with tracing(self.tracer):
            with span("replica.ship") as sp:
                shipped = 0
                for position, follower in enumerate(self.followers):
                    shipped += self._ship_one(position, follower)
                if sp:
                    sp.add("records", shipped)
        return shipped

    def sync(self) -> None:
        """Drain: ship until no follower is behind the log's flushed
        tail, then fsync the followers."""
        while self.ship():
            pass
        for follower in self.followers:
            follower.sync()

    def lag(self) -> list[int]:
        """Records each follower is behind the primary, by sequence."""
        primary_seq = self.store.last_seq
        return [
            primary_seq - follower.applied_seq for follower in self.followers
        ]

    # -- one follower ---------------------------------------------------------
    def _ship_one(self, position: int, follower: FollowerStore) -> int:
        cursor = self._cursors[position]
        if cursor is None:
            cursor = self._bootstrap(follower)
            self._cursors[position] = cursor
        wal = self.store.wal
        shipped = 0
        while True:
            index = cursor["segment"]
            path = wal.directory / segment_name(index)
            try:
                lines, end = _read_complete_lines(path, cursor["offset"])
            except FileNotFoundError:
                # Compacted away before this follower saw it: start
                # over from the snapshot that superseded it.
                cursor = self._bootstrap(follower)
                self._cursors[position] = cursor
                continue
            if lines:
                follower.replay(index, lines)
                cursor["offset"] = end
                shipped += len(lines)
            if index < wal.active_index:
                try:
                    size = path.stat().st_size
                except OSError:
                    size = None
                if size is not None and cursor["offset"] >= size:
                    # Sealed and fully shipped: seal on the follower
                    # and move to the next segment.
                    follower.seal(index)
                    cursor["segment"] = index + 1
                    cursor["offset"] = 0
                    continue
            if not lines:
                return shipped

    def _bootstrap(self, follower: FollowerStore) -> dict[str, int]:
        snapshot = load_json(self.store.directory / SNAPSHOT_FILE)
        follower.bootstrap(self.store.scheme, snapshot)
        self.bootstraps += 1
        seq = int(snapshot["seq"])
        return {"segment": self._segment_holding(seq + 1), "offset": 0}

    def _segment_holding(self, seq: int) -> int:
        """The segment whose records include ``seq``, falling back to
        the active segment when ``seq`` has not been written yet."""
        wal = self.store.wal
        chosen = wal.active_index
        for path in wal.segments():
            index = segment_index(path)
            first = _first_seq(path)
            if index is None or first is None or first > seq:
                break
            chosen = index
        return chosen
