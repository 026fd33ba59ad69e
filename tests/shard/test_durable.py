"""Durable sharded stores: layout, recovery, re-shard refusal, and
plain stores served in place as one shard."""

import json
import shutil
from pathlib import Path

import pytest

from repro.foundations.errors import ServiceError, StoreError
from repro.io import state_to_dict
from repro.service.store import DurableStore
from repro.shard.router import SHARD_FILE, ShardRouter
from repro.workloads.paper import example1_university, example3_triangle


@pytest.fixture
def scheme():
    return example1_university()


def test_create_lays_out_one_store_per_shard(tmp_path, scheme):
    directory = tmp_path / "store"
    with ShardRouter.create(directory, scheme, 2) as router:
        assert router.shards == 2
        assert router.durable
    meta = json.loads((directory / SHARD_FILE).read_text())
    assert meta["shards"] == 2
    assert meta["assignment"] == [0, 1, 0]
    assert (directory / "scheme.json").exists()
    assert (directory / "shard-0").is_dir()
    assert (directory / "shard-1").is_dir()


def test_create_refuses_existing_store(tmp_path, scheme):
    directory = tmp_path / "store"
    ShardRouter.create(directory, scheme, 2).close()
    with pytest.raises(ServiceError):
        ShardRouter.create(directory, scheme, 2)


def test_reopen_recovers_every_shard(tmp_path, scheme):
    directory = tmp_path / "store"
    with ShardRouter.create(directory, scheme, 2) as router:
        assert router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})
        assert router.apply_batch(
            [
                ("insert", "R5", {"H": "h1", "S": "s1", "R": "r1"}),
                ("insert", "R4", {"C": "c2", "S": "s2", "G": "B"}),
            ]
        ).committed
        expected = state_to_dict(router.state)
    with ShardRouter.open(directory) as reopened:
        assert reopened.shards == 2
        assert state_to_dict(reopened.state) == expected


def test_reopen_refuses_a_different_shard_count(tmp_path, scheme):
    directory = tmp_path / "store"
    ShardRouter.create(directory, scheme, 2).close()
    with pytest.raises(ServiceError, match="re-shard"):
        ShardRouter.open(directory, 3)
    # Asking for the stored count (or omitting it) is fine.
    ShardRouter.open(directory, 2).close()
    ShardRouter.open(directory).close()


def test_open_refuses_a_plain_directory(tmp_path):
    plain = tmp_path / "not-a-store"
    plain.mkdir()
    with pytest.raises(ServiceError):
        ShardRouter.open(plain)


def test_rejected_batch_leaves_no_partial_state(tmp_path, scheme):
    directory = tmp_path / "store"
    with ShardRouter.create(directory, scheme, 2) as router:
        assert router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})
        before = state_to_dict(router.state)
        outcome = router.apply_batch(
            [
                ("insert", "R5", {"H": "h1", "S": "s1", "R": "r1"}),
                # Key conflict with the accepted (c1, s1) row.
                ("insert", "R4", {"C": "c1", "S": "s1", "G": "F"}),
            ]
        )
        assert not outcome.committed
        assert outcome.failed_index == 1
        assert state_to_dict(router.state) == before
        expected = before
    # ... and the rollback survives a restart: nothing hit any WAL.
    with ShardRouter.open(directory) as reopened:
        assert state_to_dict(reopened.state) == expected


def test_snapshot_fans_out_and_recovery_replays_nothing(tmp_path, scheme):
    directory = tmp_path / "store"
    with ShardRouter.create(directory, scheme, 2) as router:
        assert router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})
        router.snapshot()
        expected = state_to_dict(router.state)
    with ShardRouter.open(directory) as reopened:
        assert state_to_dict(reopened.state) == expected


def test_inline_single_shard_store_roundtrips(tmp_path):
    scheme = example3_triangle()
    directory = tmp_path / "store"
    with ShardRouter.create(directory, scheme, 4) as router:
        assert router.shards == 1
        assert router.insert("R1", {"A": "a1", "B": "b1"})
        expected = state_to_dict(router.state)
    with ShardRouter.open(directory) as reopened:
        assert reopened.shards == 1
        assert state_to_dict(reopened.state) == expected


def test_open_serves_a_plain_store_in_place(tmp_path, scheme):
    directory = tmp_path / "plain"
    with DurableStore.create(directory, scheme) as store:
        store.insert("R4", {"C": "c1", "S": "s1", "G": "A"})
        expected = state_to_dict(store.state)
    with pytest.raises(StoreError, match="re-shard"):
        ShardRouter.open(directory, 2)
    with ShardRouter.open(directory, 1) as router:
        assert router.shards == 1
        assert state_to_dict(router.state) == expected
        assert router.insert("R4", {"C": "c2", "S": "s2", "G": "B"})
    assert sorted(path.name for path in directory.iterdir()) == [
        "scheme.json",
        "snapshot.json",
        "wal",
    ]
    with DurableStore.open(directory) as reopened:
        assert reopened.state.total_tuples() == 2


def test_create_without_a_count_lays_out_a_plain_store(tmp_path, scheme):
    directory = tmp_path / "plain"
    with ShardRouter.create(directory, scheme, None) as router:
        assert router.shards == 1
        assert router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})
    assert not (directory / SHARD_FILE).exists()
    with DurableStore.open(directory) as store:
        assert store.last_seq == 1


def test_durable_store_refuses_a_sharded_directory(tmp_path, scheme):
    directory = tmp_path / "store"
    ShardRouter.create(directory, scheme, 2).close()
    with pytest.raises(StoreError, match="sharded store"):
        DurableStore.open(directory)
    assert not (directory / "snapshot.json").exists()
    assert not (directory / "wal").exists()


def test_a_store_of_the_forked_worker_layout_reopens_unchanged(tmp_path):
    """``fixtures/two_shard_store`` was written by the router that ran
    each shard in a forked worker process: ``shard.json``, one
    ``shard-K/`` store per shard, a snapshot and WAL records after it
    (an accepted and a rejected insert, a delete, a rejected batch).
    Shards in the router's process open it as it is."""
    fixture = Path(__file__).parent / "fixtures" / "two_shard_store"
    directory = tmp_path / "store"
    shutil.copytree(fixture / "store", directory)
    expected = json.loads((fixture / "expected_state.json").read_text())
    with ShardRouter.open(directory) as router:
        assert router.shards == 2
        assert state_to_dict(router.state) == expected
        assert router.query(("C", "S")) == {("c1", "s1")}
        assert router.insert("R3", {"H": "h1", "T": "t1", "C": "c1"})
        grown = state_to_dict(router.state)
    with ShardRouter.open(directory) as reopened:
        assert state_to_dict(reopened.state) == grown
