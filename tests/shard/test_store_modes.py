"""In-memory and durable shards run one write path.

A router built with :meth:`ShardRouter.in_memory` serves each shard
from a :class:`~repro.service.store.MemoryStore`; one built with
:meth:`ShardRouter.create` serves it from a
:class:`~repro.service.store.DurableStore`, which adds only the WAL and
compaction.  The same op stream must therefore get the same replies
and the same per-shard op counters from both.  A one-shard router's
two-phase batch logs the records a plain store's own batch logs.  A
closed router of either kind refuses every op with a typed error.
"""

import json

import pytest

from repro.foundations.errors import ServiceError
from repro.service.store import WAL_DIR, DurableStore
from repro.service.wal import segment_paths
from repro.shard.frontend import dispatch
from repro.shard.router import ShardRouter
from repro.workloads.paper import example1_university


def insert(relation, **values):
    return {"op": "insert", "relation": relation, "values": values}


def delete(relation, **values):
    return {"op": "delete", "relation": relation, "values": values}


#: Accepted and rejected inserts, a cross-shard batch that commits, one
#: whose second update is refused, one that names no relation, deletes
#: and queries (single-shard and gathered) on the university scheme.
OPS = [
    insert("R4", C="c1", S="s1", G="A"),
    insert("R4", C="c1", S="s1", G="B"),
    insert("R5", H="h1", R="r1", S="s1"),
    insert("R1", C="c1", H="h1", R="r1"),
    {
        "op": "batch",
        "updates": [
            ["insert", "R5", {"H": "h2", "R": "r2", "S": "s2"}],
            ["insert", "R4", {"C": "c2", "S": "s2", "G": "A"}],
        ],
    },
    {
        "op": "batch",
        "updates": [
            ["insert", "R4", {"C": "c3", "S": "s3", "G": "A"}],
            ["insert", "R4", {"C": "c2", "S": "s2", "G": "F"}],
        ],
    },
    {"op": "batch", "updates": [["insert", "R9", {"C": "c4"}]]},
    {"op": "query", "target": "CSG"},
    {"op": "query", "target": "CS"},
    delete("R4", C="c1", S="s1", G="A"),
    insert("R4", C="c1", S="s1", G="B"),
    {"op": "query", "target": "CSG"},
    {"op": "query", "target": "HRS"},
    {"op": "state"},
]


def _counters(router):
    """The op and reject counters, the router's and each shard's."""
    return {
        name: value
        for name, value in router.metrics_snapshot().items()
        if name.startswith(("ops.", "store.rejects"))
    }


def _run(router):
    replies = [json.dumps(dispatch(router, op), sort_keys=True) for op in OPS]
    return replies, _counters(router)


@pytest.mark.parametrize("shards", [1, 2])
def test_memory_and_durable_shards_agree(tmp_path, shards):
    scheme = example1_university()
    with ShardRouter.in_memory(scheme, shards) as router:
        memory = _run(router)
    with ShardRouter.create(tmp_path / "store", scheme, shards) as router:
        durable = _run(router)
    assert memory[0] == durable[0]
    assert memory[1] == durable[1]
    # The stream exercised what it claims to.
    replies = [json.loads(reply) for reply in memory[0]]
    assert replies[0]["outcome"]["consistent"]
    assert not replies[1]["outcome"]["consistent"]
    assert replies[4]["outcome"]["committed"]
    assert replies[5]["outcome"]["failed_index"] == 1
    assert not replies[6]["ok"]
    assert replies[10]["outcome"]["consistent"]  # freed by the delete
    shard_rejects = sum(
        value
        for name, value in memory[1].items()
        if name.startswith("store.rejects{")
    )
    assert shard_rejects == 2  # one insert, one batch


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize(
    "request_",
    [
        {"op": "query", "target": "CSG"},
        {"op": "query", "target": "CS"},
        insert("R4", C="c", S="s", G="A"),
        {"op": "metrics"},
    ],
)
def test_closed_router_refuses_every_op(shards, request_):
    router = ShardRouter.in_memory(example1_university(), shards)
    router.close()
    reply = dispatch(router, request_)
    assert reply == {
        "ok": False,
        "error": {"type": "ServiceError", "message": "router is closed"},
    }


def test_closed_router_refuses_reads_its_mirror_could_answer():
    """Queries read the published state and call no shard, so they
    must check for a closed router themselves."""
    router = ShardRouter.in_memory(example1_university(), 2)
    router.insert("R4", {"C": "c", "S": "s", "G": "A"})
    assert router.query("CS") == {("c", "s")}
    router.close()
    with pytest.raises(ServiceError, match="router is closed"):
        router.query("CS")
    with pytest.raises(ServiceError, match="router is closed"):
        router.state


def _wal_bytes(directory):
    return b"".join(
        path.read_bytes() for path in segment_paths(directory / WAL_DIR)
    )


@pytest.mark.parametrize(
    "batch",
    [
        [
            ("insert", "R5", {"H": "h2", "R": "r2", "S": "s2"}),
            ("delete", "R4", {"C": "c1", "S": "s1", "G": "A"}),
            ("insert", "R4", {"C": "c2", "S": "s2", "G": "A"}),
        ],
        [
            ("insert", "R4", {"C": "c3", "S": "s3", "G": "A"}),
            ("insert", "R4", {"C": "c1", "S": "s1", "G": "F"}),
        ],
    ],
    ids=["committed", "rejected"],
)
def test_one_shard_batch_logs_the_store_batch_records(tmp_path, batch):
    """Prepare and commit (or abort with the reject diagnostic) on one
    durable shard write the WAL bytes ``DurableStore.apply_batch``
    writes for the same batch."""
    scheme = example1_university()
    seed = ("R4", {"C": "c1", "S": "s1", "G": "A"})
    with ShardRouter.create(tmp_path / "router", scheme, 1) as router:
        assert router.insert(*seed).consistent
        routed = router.apply_batch(batch)
    with DurableStore.create(tmp_path / "store", scheme) as store:
        assert store.insert(*seed).consistent
        direct = store.apply_batch(batch)
    assert routed.to_dict() == direct.to_dict()
    logged = _wal_bytes(tmp_path / "store")
    assert logged.count(b"\n") == (len(batch) + 1 if direct else 2)
    assert _wal_bytes(tmp_path / "router" / "shard-0") == logged
