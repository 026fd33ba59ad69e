"""Follower replication: differential primary/follower suite.

Every test here compares a follower against the primary it was fed
from — state parity, query parity, and *byte* parity of the shipped
segment files — including under mid-segment crashes, compaction racing
the shipper, kill-and-promote failover, and torn segment boundaries.
"""

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import ServiceError, StoreError, WALError
from repro.io import state_to_dict
from repro.service.replica import FollowerStore, WalShipper
from repro.service.store import DurableStore
from repro.service.wal import scan_wal, segment_paths
from repro.workloads.paper import example1_university


@pytest.fixture
def scheme():
    return example1_university()


def r4_tuple(index, grade="A"):
    return {"C": f"C{index}", "S": f"S{index}", "G": grade}


def make_primary(tmp_path, scheme, **kwargs):
    kwargs.setdefault("auto_compact", False)
    kwargs.setdefault("segment_bytes", 256)  # several records per segment
    return DurableStore.create(tmp_path / "primary", scheme, **kwargs)


def mixed_history(store, count=12):
    """Inserts, deletes and rejected inserts spread over segments."""
    for index in range(count):
        store.insert("R4", r4_tuple(index))
        if index % 4 == 1:
            store.insert("R4", r4_tuple(index, grade="F"))  # reject
        if index % 5 == 2:
            store.delete("R4", r4_tuple(index - 1))


def segment_bytes_by_name(directory):
    return {
        path.name: path.read_bytes()
        for path in segment_paths(directory / "wal")
    }


def assert_byte_parity(follower_dir, primary_dir):
    """Every segment file the follower holds is byte-identical to the
    primary's segment of the same name."""
    follower_segments = segment_bytes_by_name(follower_dir)
    primary_segments = segment_bytes_by_name(primary_dir)
    assert follower_segments, "follower shipped nothing"
    for name, data in follower_segments.items():
        assert name in primary_segments, name
        assert data == primary_segments[name], name


def replayed_prefix_state(scheme, primary_dir, upto_seq):
    """The state the primary's own log builds through ``upto_seq`` —
    the ground truth a follower/promotee must match."""
    engine = WeakInstanceEngine(scheme)
    state = engine.empty_state()
    for record in scan_wal(primary_dir / "wal", flexible=True).records:
        if record.seq > upto_seq:
            break
        if record.op == "insert":
            outcome = engine.insert(state, record.relation, record.values)
            assert outcome.consistent
            state = outcome.state
        elif record.op == "delete":
            state = engine.delete(state, record.relation, record.values)
    return state


class TestShipping:
    def test_follower_reaches_state_and_byte_parity(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            mixed_history(primary)
            assert len(primary.wal.segments()) > 1, "need several segments"
            with FollowerStore(tmp_path / "follower") as follower:
                shipper = WalShipper(primary, [follower])
                shipper.sync()
                assert follower.applied_seq == primary.last_seq
                assert follower.state == primary.state
                assert_byte_parity(tmp_path / "follower", tmp_path / "primary")

    def test_query_rows_match_primary(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            mixed_history(primary)
            with FollowerStore(tmp_path / "follower") as follower:
                WalShipper(primary, [follower]).sync()
                for target in ("CS", "C", "SG"):
                    assert follower.query(target) == primary.query(target)

    def test_rejection_diagnostics_ship_byte_identical(
        self, tmp_path, scheme
    ):
        with make_primary(tmp_path, scheme) as primary:
            mixed_history(primary)
            with FollowerStore(tmp_path / "follower") as follower:
                WalShipper(primary, [follower]).sync()
                follower._close_segment()
                primary_rejects = [
                    r
                    for r in scan_wal(
                        tmp_path / "primary" / "wal", flexible=True
                    ).records
                    if r.op == "reject"
                ]
                follower_rejects = [
                    r
                    for r in scan_wal(
                        tmp_path / "follower" / "wal", flexible=True
                    ).records
                    if r.op == "reject"
                ]
                assert primary_rejects, "history must include rejects"
                assert follower_rejects == primary_rejects
                # Rejects are durable diagnostics, never state.
                for reject in follower_rejects:
                    assert reject.values not in follower.state["R4"]

    def test_incremental_shipping_follows_appends(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            with FollowerStore(tmp_path / "follower") as follower:
                shipper = WalShipper(primary, [follower])
                for index in range(8):
                    primary.insert("R4", r4_tuple(index))
                    shipper.ship()
                    assert follower.applied_seq == primary.last_seq
                    assert follower.state == primary.state
                assert shipper.bootstraps == 1  # never restarted

    def test_lag_counts_unshipped_records(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            with FollowerStore(tmp_path / "follower") as follower:
                shipper = WalShipper(primary, [follower])
                shipper.sync()
                assert shipper.lag() == [0]
                for index in range(5):
                    primary.insert("R4", r4_tuple(index))
                assert shipper.lag() == [5]
                shipper.sync()
                assert shipper.lag() == [0]

    def test_two_followers_ship_independently(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            mixed_history(primary, count=6)
            with FollowerStore(tmp_path / "f0") as first:
                with FollowerStore(tmp_path / "f1") as second:
                    shipper = WalShipper(
                        primary,
                        [first, second],
                    )
                    shipper.sync()
                    assert first.state == primary.state
                    assert second.state == primary.state


class TestCompactionRace:
    def test_rebootstrap_when_compaction_outran_follower(
        self, tmp_path, scheme
    ):
        with make_primary(tmp_path, scheme) as primary:
            with FollowerStore(tmp_path / "follower") as follower:
                shipper = WalShipper(primary, [follower])
                for index in range(4):
                    primary.insert("R4", r4_tuple(index))
                shipper.sync()
                # The follower now stops receiving; the primary keeps
                # writing and compacts its sealed history away.
                for index in range(4, 9):
                    primary.insert("R4", r4_tuple(index))
                primary.snapshot()
                primary.insert("R4", r4_tuple(9))
                shipper.sync()
                assert shipper.bootstraps == 2
                assert follower.applied_seq == primary.last_seq
                assert follower.state == primary.state
                assert_byte_parity(
                    tmp_path / "follower", tmp_path / "primary"
                )

    def test_bootstrap_lands_on_snapshot_state(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            for index in range(5):
                primary.insert("R4", r4_tuple(index))
            primary.snapshot()
            with FollowerStore(tmp_path / "follower") as follower:
                shipper = WalShipper(primary, [follower])
                shipper.sync()
                assert follower.applied_seq == 5
                assert follower.state == primary.state


class TestCrashes:
    def test_torn_primary_tail_never_ships(self, tmp_path, scheme):
        """A primary crash mid-append leaves a torn line in its active
        segment; the shipper must hold it back, not feed the follower
        damaged bytes."""
        with make_primary(tmp_path, scheme) as primary:
            for index in range(3):
                primary.insert("R4", r4_tuple(index))
            with FollowerStore(tmp_path / "follower") as follower:
                shipper = WalShipper(primary, [follower])
                shipper.sync()
                active = segment_paths(tmp_path / "primary" / "wal")[-1]
                with open(active, "ab") as handle:
                    handle.write(b'{"seq": 99, "op": "ins')
                assert shipper.ship() == 0
                assert follower.applied_seq == 3
                # The follower's copy holds only intact records.
                follower._close_segment()
                scan = scan_wal(tmp_path / "follower" / "wal", flexible=True)
                assert not scan.torn

    def test_follower_crash_mid_segment_rebootstraps(self, tmp_path, scheme):
        """Kill the follower process mid-segment; a fresh follower on
        the same directory is re-fed from scratch and converges."""
        with make_primary(tmp_path, scheme) as primary:
            mixed_history(primary, count=6)
            crashed = FollowerStore(tmp_path / "follower")
            WalShipper(primary, [crashed]).sync()
            crashed.close()  # simulated crash: no seal, no handoff
            mixed_history(primary, count=4)
            with FollowerStore(tmp_path / "follower") as revived:
                shipper = WalShipper(primary, [revived])
                shipper.sync()
                assert revived.state == primary.state
                assert_byte_parity(
                    tmp_path / "follower", tmp_path / "primary"
                )

    def test_damaged_shipped_record_raises(self, tmp_path, scheme):
        with FollowerStore(tmp_path / "follower") as follower:
            with make_primary(tmp_path, scheme) as primary:
                primary.insert("R4", r4_tuple(0))
                follower.bootstrap(
                    scheme,
                    {"seq": 0, "state": {}},
                )
                with pytest.raises(WALError, match="damaged"):
                    follower.replay(1, ['{"seq": 1, "op": "insert"}\n'])

    def test_sequence_gap_raises_divergence(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            for index in range(3):
                primary.insert("R4", r4_tuple(index))
            lines = [
                record.to_line().decode("utf-8")
                for record in scan_wal(
                    tmp_path / "primary" / "wal", flexible=True
                ).records
            ]
            with FollowerStore(tmp_path / "follower") as follower:
                follower.bootstrap(
                    scheme, {"seq": 0, "state": {}}
                )
                follower.replay(1, lines[:1])
                with pytest.raises(WALError, match="diverged"):
                    follower.replay(1, lines[2:])  # skipped seq 2

    def test_forked_state_fails_follower_validation(self, tmp_path, scheme):
        """A record the primary accepted must re-validate on the
        follower; if the follower's state forked, replay refuses."""
        with make_primary(tmp_path, scheme) as primary:
            primary.insert("R4", r4_tuple(0))
            line = (
                scan_wal(tmp_path / "primary" / "wal", flexible=True)
                .records[0]
                .to_line()
                .decode("utf-8")
            )
            engine = WeakInstanceEngine(scheme)
            forked = engine.insert(
                engine.empty_state(), "R4", r4_tuple(0, grade="F")
            ).state
            with FollowerStore(tmp_path / "follower") as follower:
                follower.bootstrap(
                    scheme,
                    {"seq": 0, "state": state_to_dict(forked)},
                )
                with pytest.raises(StoreError, match="diverged"):
                    follower.replay(1, [line])


class TestPromote:
    def test_promote_becomes_writable_and_continues_sequence(
        self, tmp_path, scheme
    ):
        with make_primary(tmp_path, scheme) as primary:
            mixed_history(primary, count=8)
            follower = FollowerStore(tmp_path / "follower")
            WalShipper(primary, [follower]).sync()
            promoted = follower.promote()
            try:
                assert promoted.state == primary.state
                assert promoted.last_seq == primary.last_seq
                outcome = promoted.insert("R4", r4_tuple(50))
                assert outcome.consistent
                assert promoted.last_seq == primary.last_seq + 1
            finally:
                follower.close()
        # The promoted store is a normal durable store on disk.
        with DurableStore.open(tmp_path / "follower") as reopened:
            assert r4_tuple(50) in reopened.state["R4"]

    def test_promote_is_idempotent(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            primary.insert("R4", r4_tuple(0))
            with FollowerStore(tmp_path / "follower") as follower:
                WalShipper(primary, [follower]).sync()
                assert follower.promote() is follower.promote()

    def test_promote_unbootstrapped_refuses(self, tmp_path):
        with FollowerStore(tmp_path / "follower") as follower:
            with pytest.raises(ServiceError, match="bootstrapped"):
                follower.promote()

    def test_promote_diverged_log_refuses(self, tmp_path, scheme):
        """If the follower's on-disk log lost records it already
        applied (disk trouble under it), promote must refuse rather
        than serve a log that cannot rebuild its own state."""
        with make_primary(tmp_path, scheme) as primary:
            for index in range(6):
                primary.insert("R4", r4_tuple(index))
            with FollowerStore(tmp_path / "follower") as follower:
                WalShipper(primary, [follower]).sync()
                follower._close_segment()
                active = segment_paths(tmp_path / "follower" / "wal")[-1]
                data = active.read_bytes()
                active.write_bytes(data[: len(data) // 2])
                with pytest.raises(StoreError, match="refusing to promote"):
                    follower.promote()

    def test_promoted_follower_rejects_rebootstrap(self, tmp_path, scheme):
        with make_primary(tmp_path, scheme) as primary:
            primary.insert("R4", r4_tuple(0))
            with FollowerStore(tmp_path / "follower") as follower:
                WalShipper(primary, [follower]).sync()
                follower.promote()
                with pytest.raises(ServiceError, match="promoted"):
                    follower.bootstrap(
                        scheme, {"seq": 0, "state": {}}
                    )


class TestKillAndPromoteFuzz:
    """The acceptance bar: kill the primary after every prefix of the
    history, promote the follower, and require (a) the follower's
    segment files are byte-identical to the primary's shipped prefix
    and (b) the promoted state equals replaying the primary's own log
    through the follower's applied sequence."""

    OPS = [
        ("insert", r4_tuple(0)),
        ("insert", r4_tuple(1)),
        ("insert", r4_tuple(0, grade="F")),  # reject
        ("insert", r4_tuple(2)),
        ("delete", r4_tuple(1)),
        ("insert", r4_tuple(3)),
        ("insert", r4_tuple(3, grade="F")),  # reject
        ("insert", r4_tuple(4)),
        ("delete", r4_tuple(0)),
        ("insert", r4_tuple(5)),
    ]

    def test_every_kill_point(self, tmp_path, scheme):
        for kill_at in range(1, len(self.OPS) + 1):
            base = tmp_path / f"kill-{kill_at}"
            primary = DurableStore.create(
                base / "primary",
                scheme,
                auto_compact=False,
                segment_bytes=220,
            )
            follower = FollowerStore(base / "follower")
            shipper = WalShipper(primary, [follower])
            for op, values in self.OPS[:kill_at]:
                if op == "insert":
                    primary.insert("R4", values)
                else:
                    primary.delete("R4", values)
            shipper.sync()
            applied = follower.applied_seq
            assert applied == primary.last_seq
            primary.close()  # the kill

            promoted = follower.promote()
            try:
                assert_byte_parity(base / "follower", base / "primary")
                expected = replayed_prefix_state(
                    scheme, base / "primary", applied
                )
                assert promoted.state == expected, f"kill at {kill_at}"
                # The promotee keeps serving writes.
                assert promoted.insert("R4", r4_tuple(77)).consistent
            finally:
                follower.close()

    def test_kill_mid_segment_with_torn_tail(self, tmp_path, scheme):
        """The primary dies mid-append: its active segment ends in a
        torn half-record the follower never saw.  The promoted follower
        must equal the primary's own recovery of the same directory."""
        base = tmp_path
        primary = DurableStore.create(
            base / "primary", scheme, auto_compact=False, segment_bytes=220
        )
        follower = FollowerStore(base / "follower")
        shipper = WalShipper(primary, [follower])
        for op, values in TestKillAndPromoteFuzz.OPS:
            if op == "insert":
                primary.insert("R4", values)
            else:
                primary.delete("R4", values)
        shipper.sync()
        primary.close()
        active = segment_paths(base / "primary" / "wal")[-1]
        with open(active, "ab") as handle:
            handle.write(b'{"seq": 999, "op": "insert", "rel')

        promoted = follower.promote()
        try:
            with DurableStore.open(base / "primary") as recovered_primary:
                assert promoted.state == recovered_primary.state
                assert promoted.last_seq == recovered_primary.last_seq
        finally:
            follower.close()
