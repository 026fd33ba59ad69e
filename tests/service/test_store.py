"""DurableStore: persistence, recovery, compaction, truncation fuzz."""

import json
import shutil

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import StoreError
from repro.service.store import (
    SNAPSHOT_FILE,
    WAL_DIR,
    LEGACY_WAL_FILE,
    DurableStore,
)
from repro.service.wal import scan_wal, segment_paths
from repro.workloads.paper import example1_university


@pytest.fixture
def scheme():
    return example1_university()


@pytest.fixture
def store(tmp_path, scheme):
    with DurableStore.create(tmp_path / "store", scheme) as opened:
        yield opened


def r4_tuple(index, grade="A"):
    return {"C": f"C{index}", "S": f"S{index}", "G": grade}


def wal_dir(directory):
    return directory / WAL_DIR


def active_segment(directory):
    return segment_paths(wal_dir(directory))[-1]


def log_bytes(directory):
    return b"".join(
        path.read_bytes() for path in segment_paths(wal_dir(directory))
    )


class TestLifecycle:
    def test_create_then_open_roundtrips(self, tmp_path, scheme):
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            assert store.insert("R4", r4_tuple(0)).consistent
            assert store.insert("R4", r4_tuple(1)).consistent
            before = store.state
        with DurableStore.open(directory) as reopened:
            assert reopened.state == before
            assert reopened.last_seq == 2
            assert reopened.recovery.replayed == 2

    def test_create_refuses_existing_store(self, tmp_path, scheme):
        directory = tmp_path / "store"
        DurableStore.create(directory, scheme).close()
        with pytest.raises(StoreError):
            DurableStore.create(directory, scheme)

    def test_open_refuses_non_store(self, tmp_path):
        with pytest.raises(StoreError):
            DurableStore.open(tmp_path / "nothing")

    def test_deletes_replay(self, tmp_path, scheme):
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            store.insert("R4", r4_tuple(0))
            store.insert("R4", r4_tuple(1))
            store.delete("R4", r4_tuple(0))
        with DurableStore.open(directory) as reopened:
            rows = reopened.state["R4"]
            assert r4_tuple(1) in rows
            assert r4_tuple(0) not in rows

    def test_legacy_single_file_wal_migrates(self, tmp_path, scheme):
        """Stores written before WAL segmentation kept one wal.jsonl;
        opening one must adopt it as the first segment, not lose it."""
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            store.insert("R4", r4_tuple(0))
            store.insert("R4", r4_tuple(1))
            expected = store.state
        # Rebuild the pre-segmentation layout: one flat wal.jsonl.
        legacy = log_bytes(directory)
        shutil.rmtree(wal_dir(directory))
        (directory / LEGACY_WAL_FILE).write_bytes(legacy)
        with DurableStore.open(directory) as reopened:
            assert reopened.state == expected
            assert reopened.last_seq == 2
            reopened.insert("R4", r4_tuple(2))
        assert not (directory / LEGACY_WAL_FILE).exists()
        assert wal_dir(directory).is_dir()

    def test_legacy_and_segmented_wal_together_refused(
        self, tmp_path, scheme
    ):
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            store.insert("R4", r4_tuple(0))
        (directory / LEGACY_WAL_FILE).write_bytes(b"")
        with pytest.raises(StoreError, match="legacy"):
            DurableStore.open(directory)


class TestRejections:
    def test_reject_is_logged_not_applied(self, store):
        assert store.insert("R4", r4_tuple(0)).consistent
        conflict = store.insert("R4", r4_tuple(0, grade="F"))
        assert not conflict.consistent
        assert r4_tuple(0, grade="F") not in store.state["R4"]
        scan = scan_wal(wal_dir(store.directory))
        rejects = [r for r in scan.records if r.op == "reject"]
        assert len(rejects) == 1
        assert rejects[0].values == r4_tuple(0, grade="F")
        # The durable diagnostic is the MaintenanceOutcome rendering.
        assert rejects[0].extra["outcome"]["consistent"] is False
        assert rejects[0].extra["outcome"]["tuples_examined"] >= 1

    def test_rejected_insert_never_reappears(self, tmp_path, scheme):
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            store.insert("R4", r4_tuple(0))
            store.insert("R4", r4_tuple(0, grade="F"))
            store.insert("R4", r4_tuple(1))
        with DurableStore.open(directory) as reopened:
            assert r4_tuple(0, grade="F") not in reopened.state["R4"]
            assert reopened.recovery.rejects_in_log == 1
            assert reopened.recovery.replayed == 2

    def test_batch_rejection_keeps_state_and_logs(self, store):
        store.insert("R4", r4_tuple(0))
        before = store.state
        outcome = store.apply_batch(
            [
                ("insert", "R4", r4_tuple(1)),
                ("insert", "R4", r4_tuple(0, grade="F")),
                ("insert", "R4", r4_tuple(2)),
            ]
        )
        assert not outcome
        assert outcome.failed_index == 1
        assert store.state == before
        scan = scan_wal(wal_dir(store.directory))
        assert scan.records[-1].op == "reject"
        assert scan.records[-1].extra["outcome"]["failed_index"] == 1

    def test_batch_success_logs_every_update(self, store):
        outcome = store.apply_batch(
            [
                ("insert", "R4", r4_tuple(0)),
                ("insert", "R4", r4_tuple(1)),
                ("delete", "R4", r4_tuple(0)),
            ]
        )
        assert outcome
        scan = scan_wal(wal_dir(store.directory))
        assert [r.op for r in scan.records] == ["insert", "insert", "delete"]


class TestSnapshotCompaction:
    def test_snapshot_compacts_wal(self, store):
        for index in range(5):
            store.insert("R4", r4_tuple(index))
        assert store.wal_bytes > 0
        store.snapshot()
        assert store.wal_bytes == 0
        assert store.last_seq == 5
        snapshot = json.loads((store.directory / SNAPSHOT_FILE).read_text())
        assert snapshot["seq"] == 5
        assert len(snapshot["state"]["R4"]) == 5

    def test_snapshot_deletes_covered_segments(self, tmp_path, scheme):
        directory = tmp_path / "store"
        with DurableStore.create(
            directory, scheme, auto_compact=False, segment_bytes=1
        ) as store:
            for index in range(5):
                store.insert("R4", r4_tuple(index))
            assert len(segment_paths(wal_dir(directory))) >= 5
            store.snapshot()
            # Only the fresh active segment survives.
            assert len(segment_paths(wal_dir(directory))) == 1
            assert store.metrics.count("store.compacted_segments") >= 5
            store.insert("R4", r4_tuple(5))
            expected = store.state
        with DurableStore.open(directory) as reopened:
            assert reopened.state == expected
            assert reopened.recovery.replayed == 1
            assert reopened.last_seq == 6

    def test_recovery_from_snapshot_plus_wal(self, tmp_path, scheme):
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            for index in range(4):
                store.insert("R4", r4_tuple(index))
            store.snapshot()
            store.insert("R4", r4_tuple(4))
            expected = store.state
        with DurableStore.open(directory) as reopened:
            assert reopened.recovery.snapshot_seq == 4
            assert reopened.recovery.replayed == 1
            assert reopened.state == expected
            assert reopened.last_seq == 5

    def test_auto_compaction_triggers_on_wal_growth(self, tmp_path, scheme):
        directory = tmp_path / "store"
        with DurableStore.create(
            directory, scheme, compact_factor=0.5
        ) as store:
            # MIN_COMPACT_BYTES is 4096; ~60 records comfortably exceed it.
            for index in range(60):
                store.insert("R4", r4_tuple(index))
            assert store.metrics.count("store.snapshots") >= 1
            expected = store.state
        with DurableStore.open(directory) as reopened:
            assert reopened.state == expected

    def test_stale_wal_after_compaction_crash(self, tmp_path, scheme):
        """A crash between snapshot replace and WAL compaction leaves
        the pre-snapshot segments behind; recovery must recognise and
        discard them."""
        directory = tmp_path / "store"
        stash = tmp_path / "stash"
        with DurableStore.create(directory, scheme) as store:
            for index in range(3):
                store.insert("R4", r4_tuple(index))
            shutil.copytree(wal_dir(directory), stash)
            store.snapshot()
            expected = store.state
        # Put the pre-snapshot log back, as if the compaction never hit
        # disk.
        shutil.rmtree(wal_dir(directory))
        shutil.copytree(stash, wal_dir(directory))
        with DurableStore.open(directory) as reopened:
            assert reopened.recovery.stale_log
            assert reopened.recovery.stale_segments >= 1
            assert reopened.recovery.replayed == 0
            assert reopened.state == expected
            # New writes continue the sequence past the snapshot.
            reopened.insert("R4", r4_tuple(99))
            assert reopened.last_seq == 4

    def test_stale_wal_is_actually_dropped_on_disk(self, tmp_path, scheme):
        """Regression: recovery flagged a stale log whose last seq
        *equalled* the snapshot seq but skipped the cleanup (the guard
        required strictly-less-than), so the dead pre-snapshot records
        stayed in the live log forever — every subsequent open re-read
        and re-discarded them."""
        directory = tmp_path / "store"
        stash = tmp_path / "stash"
        with DurableStore.create(directory, scheme) as store:
            for index in range(3):
                store.insert("R4", r4_tuple(index))
            shutil.copytree(wal_dir(directory), stash)
            store.snapshot()  # snapshot seq == old log's last seq == 3
            expected = store.state
        shutil.rmtree(wal_dir(directory))
        shutil.copytree(stash, wal_dir(directory))
        with DurableStore.open(directory) as reopened:
            assert reopened.recovery.stale_log
            # The cleanup must hit the disk, not just the flag.
            assert reopened.wal_bytes == 0
            assert log_bytes(directory) == b""
        # A second open starts clean: nothing stale left to discard.
        with DurableStore.open(directory) as again:
            assert not again.recovery.stale_log
            assert again.recovery.replayed == 0
            assert again.state == expected
            again.insert("R4", r4_tuple(99))
            assert again.last_seq == 4


    def test_auto_compaction_with_a_mixed_kind_column(self, tmp_path, scheme):
        # An int and a string in one column: the compacting snapshot
        # must still serialize, and every acknowledged row survives.
        directory = tmp_path / "store"
        with DurableStore.create(directory, scheme) as store:
            store.insert("R4", {"C": 1, "S": "s", "G": "A"})
            for index in range(60):
                store.insert("R4", r4_tuple(index))
            assert store.metrics.count("store.compacted_segments") >= 1
            expected = store.state
        with DurableStore.open(directory) as reopened:
            assert reopened.state == expected
            assert len(reopened.state["R4"]) == 61


class TestPointInTimeRecovery:
    def _build(self, tmp_path, scheme, count=6):
        directory = tmp_path / "store"
        states = {}
        with DurableStore.create(
            directory, scheme, auto_compact=False
        ) as store:
            for index in range(count):
                store.insert("R4", r4_tuple(index))
                states[store.last_seq] = store.state
        return directory, states

    def test_as_of_reproduces_prefix_state(self, tmp_path, scheme):
        directory, states = self._build(tmp_path, scheme)
        for seq, expected in states.items():
            with DurableStore.open(directory, as_of_seq=seq) as store:
                assert store.state == expected, f"as_of {seq}"
                assert store.last_seq == seq
                assert store.recovery.as_of_seq == seq

    def test_as_of_store_is_read_only(self, tmp_path, scheme):
        directory, _ = self._build(tmp_path, scheme)
        with DurableStore.open(directory, as_of_seq=3) as store:
            assert store.read_only
            with pytest.raises(StoreError, match="read-only"):
                store.insert("R4", r4_tuple(9))
            with pytest.raises(StoreError, match="read-only"):
                store.delete("R4", r4_tuple(0))
            with pytest.raises(StoreError, match="read-only"):
                store.snapshot()
            # Reads still work.
            assert len(store.state["R4"]) == 3
            assert len(store.query("CS")) == 3
        # The read-only open wrote nothing: a normal open sees all 6.
        with DurableStore.open(directory) as full:
            assert full.last_seq == 6

    def test_as_of_beyond_log_refused(self, tmp_path, scheme):
        directory, _ = self._build(tmp_path, scheme)
        with pytest.raises(StoreError, match="ends at seq 6"):
            DurableStore.open(directory, as_of_seq=7)

    def test_as_of_before_snapshot_refused(self, tmp_path, scheme):
        directory, _ = self._build(tmp_path, scheme)
        with DurableStore.open(directory) as store:
            store.snapshot()
        with pytest.raises(StoreError, match="compacted"):
            DurableStore.open(directory, as_of_seq=2)

    def test_as_of_at_snapshot_boundary(self, tmp_path, scheme):
        directory, states = self._build(tmp_path, scheme)
        with DurableStore.open(directory) as store:
            store.snapshot()
            store.insert("R4", r4_tuple(6))
        with DurableStore.open(directory, as_of_seq=6) as store:
            assert store.state == states[6]
            assert store.last_seq == 6


class TestTruncationFuzz:
    """Kill the store at arbitrary WAL byte offsets; recovery must land
    on the state reached by a prefix of the accepted updates, and a
    rejected insert must never reappear."""

    def _build_history(self, tmp_path, scheme, **kwargs):
        directory = tmp_path / "primary"
        store = DurableStore.create(
            directory, scheme, auto_compact=False, **kwargs
        )
        store.insert("R4", r4_tuple(0))
        store.insert("R4", r4_tuple(1))
        store.insert("R4", r4_tuple(0, grade="F"))  # reject diagnostic
        store.insert("R4", r4_tuple(2))
        store.delete("R4", r4_tuple(1))
        store.insert("R4", r4_tuple(3))
        store.insert("R4", r4_tuple(2, grade="F"))  # reject diagnostic
        store.insert("R4", r4_tuple(4))
        store.close()
        return directory

    def _prefix_states(self, scheme, records):
        engine = WeakInstanceEngine(scheme)
        # Expected state after the first k intact records, for every k.
        prefix_states = [engine.empty_state()]
        for record in records:
            state = prefix_states[-1]
            if record["op"] == "insert":
                outcome = engine.insert(
                    state, record["relation"], record["values"]
                )
                assert outcome.consistent
                state = outcome.state
            elif record["op"] == "delete":
                state = engine.delete(
                    state, record["relation"], record["values"]
                )
            prefix_states.append(state)
        return prefix_states

    def test_every_byte_offset(self, tmp_path, scheme):
        directory = self._build_history(tmp_path, scheme)
        # Default segment size: the whole history sits in one active
        # segment.
        (wal_path,) = segment_paths(wal_dir(directory))
        wal_bytes = wal_path.read_bytes()
        lines = wal_bytes.splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        boundaries = [0]
        for line in lines:
            boundaries.append(boundaries[-1] + len(line))
        prefix_states = self._prefix_states(scheme, records)

        victim = tmp_path / "victim"
        # Every byte offset is a possible crash point.  Exhaustive over
        # the whole log: ~1 KB of WAL, one recovery per offset.
        for offset in range(len(wal_bytes) + 1):
            if victim.exists():
                shutil.rmtree(victim)
            shutil.copytree(directory, victim)
            with open(active_segment(victim), "r+b") as handle:
                handle.truncate(offset)
            with DurableStore.open(victim) as recovered:
                survivors = sum(
                    1 for b in boundaries[1:] if b <= offset
                )
                expected = prefix_states[survivors]
                assert recovered.state == expected, f"offset {offset}"
                rows = recovered.state["R4"]
                assert r4_tuple(0, grade="F") not in rows
                assert r4_tuple(2, grade="F") not in rows
                assert recovered.recovery.discarded_bytes == (
                    offset - boundaries[survivors]
                )

    def test_every_byte_offset_across_segment_boundaries(
        self, tmp_path, scheme
    ):
        """The same guarantee when the log spans several segments: a
        tear in the ACTIVE segment keeps the sealed prefix, and a tear
        that erases the active segment entirely recovers everything the
        sealed segments hold."""
        directory = self._build_history(tmp_path, scheme, segment_bytes=300)
        paths = segment_paths(wal_dir(directory))
        assert len(paths) >= 2, "history must span segments"
        sealed_lines = []
        for path in paths[:-1]:
            sealed_lines.extend(path.read_bytes().splitlines(keepends=True))
        active_bytes = paths[-1].read_bytes()
        active_lines = active_bytes.splitlines(keepends=True)
        records = [
            json.loads(line) for line in sealed_lines + active_lines
        ]
        prefix_states = self._prefix_states(scheme, records)
        boundaries = [0]
        for line in active_lines:
            boundaries.append(boundaries[-1] + len(line))

        victim = tmp_path / "victim"
        for offset in range(len(active_bytes) + 1):
            if victim.exists():
                shutil.rmtree(victim)
            shutil.copytree(directory, victim)
            with open(active_segment(victim), "r+b") as handle:
                handle.truncate(offset)
            with DurableStore.open(victim) as recovered:
                survivors = len(sealed_lines) + sum(
                    1 for b in boundaries[1:] if b <= offset
                )
                assert recovered.state == prefix_states[survivors], (
                    f"offset {offset}"
                )

    def test_lost_active_segment_keeps_sealed_prefix(self, tmp_path, scheme):
        """A crash can lose the active segment file outright (created
        but never linked durably); the sealed prefix must survive and
        the store must accept new writes."""
        directory = self._build_history(tmp_path, scheme, segment_bytes=300)
        paths = segment_paths(wal_dir(directory))
        assert len(paths) >= 2
        sealed_count = sum(
            len(p.read_bytes().splitlines()) for p in paths[:-1]
        )
        paths[-1].unlink()
        with DurableStore.open(directory) as recovered:
            assert recovered.last_seq == sealed_count
            recovered.insert("R4", r4_tuple(7))
            assert recovered.last_seq == sealed_count + 1

    def test_damaged_sealed_segment_refuses_to_open(self, tmp_path, scheme):
        """Interior damage — a sealed segment with intact data after it
        — is not a torn tail and must fail loudly, not silently drop
        committed records."""
        directory = self._build_history(tmp_path, scheme, segment_bytes=300)
        sealed = segment_paths(wal_dir(directory))[0]
        sealed.write_bytes(sealed.read_bytes()[:-4])
        with pytest.raises(StoreError):
            DurableStore.open(directory)

    def test_garbage_tail_at_every_growth(self, tmp_path, scheme):
        """A crash mid-append leaves a partial record; whatever junk the
        filesystem persisted, recovery keeps the intact prefix."""
        directory = self._build_history(tmp_path, scheme)
        intact = active_segment(directory).read_bytes()
        for junk in (b"\x00\x00\x00", b'{"seq":', b'{"seq": 9, "op": "i'):
            victim = tmp_path / f"victim-{len(junk)}"
            shutil.copytree(directory, victim)
            with open(active_segment(victim), "ab") as handle:
                handle.write(junk)
            with DurableStore.open(victim) as recovered:
                assert recovered.recovery.discarded_bytes == len(junk)
                assert len(recovered.state["R4"]) == 4
            # Repair truncated the junk away on disk.
            assert active_segment(victim).read_bytes() == intact


class TestCloseIsRobust:
    def test_double_close_is_idempotent(self, store):
        store.insert("R4", r4_tuple(0))
        store.close()
        store.close()


class TestMetricsAndQueries:
    def test_query_and_counters(self, store):
        store.insert("R4", r4_tuple(0))
        rows = store.query("CS")
        assert rows == {("C0", "S0")}
        snapshot = store.metrics.snapshot()
        assert snapshot["ops.insert"] == 1
        assert snapshot["ops.query"] == 1
        assert snapshot["store.recoveries"] == 1
        assert snapshot["wal.bytes"] > 0
