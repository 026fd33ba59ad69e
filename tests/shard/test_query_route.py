"""One query route: the router answers every ``[X]`` from its
published state at every shard count, and shards serve no queries.

The count tests pin what a query costs, at one shard and at two: a
cold single-block query calls no shard; a warm repeat calls none and is
a router ``cache.read`` hit; after writes of every outcome (accepted,
rejected, deleted, aborted), of any value type, or a write that raised
after its store applied it, a query still calls none.  Every answer is
checked against the in-process
:class:`~repro.core.engine.WeakInstanceEngine`.

The differential test runs mixed insert, delete, batch and query
streams on schemes from every generator, rejected inserts and aborted
batches included, and compares every write outcome and every query
answer with the in-process engine's.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.foundations.errors import ServiceError
from repro.shard.router import ShardRouter, shard_map_for
from repro.workloads.scaling import tiled_university
from tests.conftest import every_generator
from tests.shard.test_read_routing import WORLD, _lost_replies
from tests.shard.test_router_differential import EngineReference, apply_op

SHARDS = [1, 2]

#: Tile 0's (C, S, G): exactly the attributes of ``T0R4``, a block of
#: its own, so the plan reads that one relation on one shard.
TARGET = frozenset({"C0", "S0", "G0"})


def _seeded(shards):
    """A router over two university tiles, both seeded with WORLD, and
    the in-process engine it must answer like."""
    router = ShardRouter.in_memory(tiled_university(2), shards)
    assert router.shards == shards
    reference = EngineReference(router.scheme)
    for tile in (0, 1):
        for name, values in WORLD:
            op = (
                "insert",
                f"T{tile}{name}",
                {f"{attr}{tile}": value for attr, value in values.items()},
            )
            assert apply_op(router, op) == apply_op(reference, op)
    assert router._engine.plan(TARGET).expression.relation_names() == {
        "T0R4"
    }
    return router, reference


def _query(router, reference, target=TARGET):
    """``[target]`` from the router, checked against the engine; the
    number of calls it made into a shard."""
    before = router.metrics.snapshot().get("shard.rpcs", 0)
    rows = router.query(target)
    assert rows == reference.query(target)
    return router.metrics.snapshot().get("shard.rpcs", 0) - before


@pytest.mark.parametrize("shards", SHARDS)
class TestQueryCosts:
    def test_cold_single_block_query_is_one_fetch(self, shards):
        """A cold query reads the published state: no call into a
        shard."""
        router, reference = _seeded(shards)
        try:
            assert _query(router, reference) == 0
            assert router.metrics.snapshot()["router.gather_queries"] == 1
        finally:
            router.close()

    def test_warm_repeat_costs_no_rpc_and_hits_the_router_cache(self, shards):
        router, reference = _seeded(shards)
        try:
            _query(router, reference)
            assert _query(router, reference) == 0
            snapshot = router.metrics_snapshot()
            assert snapshot["cache.read.hits"] == 1
            assert snapshot["cache.read.misses"] == 1
        finally:
            router.close()

    def test_followed_writes_cost_no_fetch(self, shards):
        router, reference = _seeded(shards)
        fresh = {"C0": "c2", "S0": "s2", "G0": "g2"}
        writes = [
            ("insert", "T0R4", fresh),
            # Key conflict with the seeded (c1, s1) grade: rejected.
            ("insert", "T0R4", {"C0": "c1", "S0": "s1", "G0": "g9"}),
            ("delete", "T0R4", {"C0": "c1", "S0": "s1", "G0": "g1"}),
            # Aborted on the conflict with ``fresh``, then committed.
            (
                "batch",
                [
                    ("insert", "T1R4", {"C1": "c3", "S1": "s3", "G1": "g3"}),
                    ("insert", "T0R4", {**fresh, "G0": "g9"}),
                ],
            ),
            (
                "batch",
                [
                    ("delete", "T0R4", fresh),
                    ("insert", "T0R4", {"C0": 7, "S0": "s7", "G0": "g7"}),
                ],
            ),
        ]
        try:
            _query(router, reference)
            for op in writes:
                assert apply_op(router, op) == apply_op(reference, op)
                assert _query(router, reference) == 0, op
        finally:
            router.close()

    @pytest.mark.parametrize(
        "values",
        [
            {"C0": "c2", "S0": "s2", "G0": True},
            {"C0": "c2", "S0": "s2", "G0": 2.5},
        ],
        ids=["bool", "float"],
    )
    def test_a_value_not_stored_as_given_makes_the_next_query_fetch(
        self, shards, values
    ):
        """A ``bool`` or a ``float`` reaches the store as given, like
        every value: the published relation is the store's, and the
        queries after the write call no shard."""
        router, reference = _seeded(shards)
        try:
            _query(router, reference)
            op = ("insert", "T0R4", values)
            assert apply_op(router, op) == apply_op(reference, op)
            assert router.state["T0R4"] == reference.state["T0R4"]
            assert [type(row["G0"]) for row in router.state["T0R4"]
                    if row["C0"] == "c2"] == [type(values["G0"])]
            assert _query(router, reference) == 0
            assert _query(router, reference) == 0
        finally:
            router.close()

    @pytest.mark.parametrize(
        "op",
        [
            ("insert", "T0R4", {"C0": "c2", "S0": "s2", "G0": "g2"}),
            ("delete", "T0R4", {"C0": "c1", "S0": "s1", "G0": "g1"}),
        ],
        ids=["insert", "delete"],
    )
    def test_a_raised_write_rpc_makes_the_next_query_fetch(self, shards, op):
        """The store applies the write, then the call raises: the state
        is republished all the same, so the next query answers the
        store's state and calls no shard."""
        router, reference = _seeded(shards)
        try:
            _query(router, reference)
            with pytest.raises(ServiceError), _lost_replies(router):
                getattr(router, op[0])(*op[1:])
            apply_op(reference, op)
            assert _query(router, reference) == 0
        finally:
            router.close()


#: Few values, so keys collide and inserts get rejected, of several
#: types (``True == 1``).
VALUES = st.sampled_from(["a", "b", "a", "b", 0, 1, 0, 1, True, 2.5])


@st.composite
def _stream_op(draw, scheme, stored):
    """One insert, delete, batch or query over ``scheme``; a delete
    often names a ``stored`` row."""

    def update():
        member = draw(st.sampled_from(scheme.relations))
        rows = list(stored[member.name])
        if draw(st.integers(min_value=0, max_value=2)) == 0 and rows:
            return ("delete", member.name, dict(draw(st.sampled_from(rows))))
        values = {
            attribute: draw(VALUES) for attribute in sorted(member.attributes)
        }
        operation = draw(st.sampled_from(["insert", "insert", "delete"]))
        return (operation, member.name, values)

    kind = draw(st.sampled_from(["query", "query", "write", "write", "batch"]))
    if kind == "write":
        return update()
    if kind == "batch":
        updates = [
            update() for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            # An error aborts the batch at its own index.
            updates.insert(
                draw(st.integers(min_value=0, max_value=len(updates))),
                ("insert", "NoSuchRelation", {"A": "a"}),
            )
        return ("batch", updates)
    universe = sorted(scheme.universe)
    target = draw(
        st.one_of(
            st.sets(st.sampled_from(universe), min_size=1, max_size=3),
            st.sampled_from([member.attributes for member in scheme.relations]),
            st.just({"Ω"}),
        )
    )
    return ("query", frozenset(target))


@pytest.mark.parametrize("shards", SHARDS)
@given(scheme=every_generator, data=st.data())
@settings(max_examples=100)
def test_every_answer_equals_the_engine(shards, scheme, data):
    assume(shard_map_for(scheme, shards).shards == shards)
    reference = EngineReference(scheme)
    router = ShardRouter.in_memory(scheme, shards)
    names = set(scheme.names)
    try:
        for _ in range(data.draw(st.integers(min_value=4, max_value=14))):
            op = data.draw(_stream_op(scheme, reference.state))
            if op[0] == "query":
                assert router.query(op[1]) == reference.query(op[1]), op
                continue
            assert apply_op(router, op) == apply_op(reference, op), op
            # Read what the write named, so the next write to it meets
            # a warm read cache.
            updates = op[1] if op[0] == "batch" else [op]
            for name in {update[1] for update in updates} & names:
                target = scheme[name].attributes
                assert router.query(target) == reference.query(target), op
        for member in scheme.relations:
            target = member.attributes
            assert router.query(target) == reference.query(target), target
    finally:
        router.close()
