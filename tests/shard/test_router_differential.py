"""Differential suite: the router must be **byte-identical** to the
single-process engine on every paper scheme, at every shard count.

One deterministic workload — accepted inserts, rejected inserts,
batches whose first failure sits mid-batch, malformed batches, deletes
and queries (single-shard, cross-block, out-of-universe) — runs
through a bare :class:`WeakInstanceEngine` and through a
:class:`ShardRouter`; every outcome is compared as sorted-key JSON, so
a divergence in a rejection diagnostic, a first-failure index or an
error message text fails loudly.

The router's published state must hold each store's own relations, and
equal the engine's state, after every write, whatever values the write
carries (:func:`test_mirror_copies_equal_fresh_fetches`).
"""

import enum
import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.engine import WeakInstanceEngine
from repro.io import state_to_dict
from repro.shard.router import ShardRouter, shard_map_for
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example3_triangle,
    example4_split_scheme,
    example6_scheme,
    example8_split,
    example9_chain,
    example10_scheme,
    example12_reducible,
    example13_kep,
)
from tests.conftest import every_generator

PAPER_SCHEMES = {
    "example1_university": example1_university,
    "example3_triangle": example3_triangle,
    "example4_split_scheme": example4_split_scheme,
    "example6_scheme": example6_scheme,
    "example8_split": example8_split,
    "example9_chain": example9_chain,
    "example10_scheme": example10_scheme,
    "example12_reducible": example12_reducible,
}


#: Schemes outside the independence-reducible class: never decomposed,
#: so the router runs them as one shard at any requested count.
OUTSIDE_THE_CLASS = {
    "example2_not_algebraic": example2_not_algebraic,
    "example13_kep": example13_kep,
}

#: Rows a query can only reach through a relation sharing none of its
#: attributes: example 13 derives ``[BC] ∋ (b*, c*)`` by CD→E (R5),
#: E→F (R7), F→B (R8), and R7 holds neither B nor C.
CHAINS = {
    "example13_kep": [
        ("insert", "R5", {"C": "c*", "D": "d*", "E": "e*"}),
        ("insert", "R7", {"E": "e*", "F": "f*"}),
        ("insert", "R8", {"F": "f*", "B": "b*"}),
    ],
}


def canonical(outcome) -> str:
    return json.dumps(outcome.to_dict(), sort_keys=True)


class EngineReference:
    """The contract's reference: one engine over one state, applying
    the router's operations serially."""

    def __init__(self, scheme):
        self.engine = WeakInstanceEngine(scheme)
        self.state = self.engine.empty_state()

    def insert(self, relation_name, values):
        outcome = self.engine.insert(self.state, relation_name, values)
        if outcome.consistent:
            self.state = outcome.state
        return outcome

    def delete(self, relation_name, values):
        self.state = self.engine.delete(self.state, relation_name, values)

    def apply_batch(self, updates):
        outcome = self.engine.batch(self.state, updates)
        if outcome:
            self.state = outcome.state
        return outcome

    def query(self, attributes):
        return self.engine.query(self.state, attributes)


def build_workload(scheme):
    """A deterministic op list derived only from the relation schemes.

    Values are keyed by attribute name and row index, so rows sharing
    an attribute join across relations; "mutant" rows reuse row 0's
    key values with one attribute changed, which (depending on the
    scheme's FDs) either extends or conflicts — both sides must agree
    either way.
    """

    def row(rel, i):
        return {a: f"v{a}{i}" for a in sorted(rel.attributes)}

    def mutant(rel):
        values = row(rel, 0)
        last = sorted(rel.attributes)[-1]
        values[last] = f"v{last}:mutant"
        return values

    relations = list(scheme.relations)
    ops = []
    for i in range(3):
        for rel in relations:
            ops.append(("insert", rel.name, row(rel, i)))
    for rel in relations:
        ops.append(("insert", rel.name, mutant(rel)))
    # A batch whose slices interleave across every relation.
    ops.append(
        (
            "batch",
            [("insert", rel.name, row(rel, 3)) for rel in relations]
            + [("insert", rel.name, row(rel, 4)) for rel in relations],
        )
    )
    # Failures mid-batch: the first failing global index must win.
    first = relations[0]
    ops.append(
        (
            "batch",
            [("insert", rel.name, row(rel, 5)) for rel in relations]
            + [("insert", first.name, mutant(first))]
            + [("insert", rel.name, row(rel, 6)) for rel in relations],
        )
    )
    ops.append(
        (
            "batch",
            [
                ("insert", first.name, row(first, 7)),
                ("insert", "NoSuchRelation", {"A": "x"}),
                ("insert", first.name, row(first, 8)),
            ],
        )
    )
    ops.append(
        (
            "batch",
            [
                ("insert", first.name, row(first, 7)),
                ("upsert", first.name, row(first, 7)),
            ],
        )
    )
    ops.append(("batch", []))
    ops.append(("delete", first.name, row(first, 1)))
    ops.append(("delete", first.name, {a: "ghost" for a in sorted(first.attributes)}))
    # Direct (non-batch) error surfaces.
    ops.append(("insert", "NoSuchRelation", {"A": "x"}))
    ops.append(("delete", "NoSuchRelation", {"A": "x"}))
    return ops


def query_targets(scheme):
    universe = sorted(scheme.universe)
    targets = [(a,) for a in universe]
    targets.append(tuple(universe))
    targets.append(tuple(sorted(scheme.relations[0].attributes)))
    targets.append(("Ω",))  # out of universe on every paper scheme
    return targets


def apply_op(target, op):
    """Run one op; returns ("outcome", json) / ("error", type, msg)."""
    kind = op[0]
    try:
        if kind == "insert":
            return ("outcome", canonical(target.insert(op[1], op[2])))
        if kind == "delete":
            target.delete(op[1], op[2])
            return ("ok",)
        assert kind == "batch"
        return ("outcome", canonical(target.apply_batch(op[1])))
    except Exception as error:  # noqa: BLE001 - compared, not hidden
        return ("error", type(error).__name__, str(error))


def run_query(target, attributes):
    try:
        return ("rows", sorted(target.query(attributes)))
    except Exception as error:  # noqa: BLE001 - compared, not hidden
        return ("error", type(error).__name__, str(error))


def assert_queries_match(router, reference, targets, label):
    for attributes in targets:
        assert run_query(router, attributes) == run_query(
            reference, attributes
        ), f"{label} diverged on query {attributes}"


def assert_router_matches_engine(scheme, shards, targets, label, extra=()):
    """Every op's outcome, and every query at the end, must match.  With
    more than one shard the queries also run after every op, so a
    gather (and the relation mirror it reads) follows every kind of
    write outcome: accepted, rejected, aborted, malformed, unknown
    relation, absent delete."""
    reference = EngineReference(scheme)
    router = ShardRouter.in_memory(scheme, shards)
    try:
        for op in build_workload(scheme) + list(extra):
            expected = apply_op(reference, op)
            actual = apply_op(router, op)
            assert actual == expected, f"{label} diverged on {op[:2]}"
            if router.shards > 1:
                assert_queries_match(
                    router, reference, targets, f"{label} after {op[:2]}"
                )
        assert_queries_match(router, reference, targets, label)
        assert state_to_dict(router.state) == state_to_dict(reference.state)
    finally:
        router.close()


@pytest.mark.parametrize("name", sorted(PAPER_SCHEMES))
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_sharded_equals_single_process(name, shards):
    scheme = PAPER_SCHEMES[name]()
    assert_router_matches_engine(
        scheme, shards, query_targets(scheme), f"{name}@{shards}"
    )


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_CLASS))
def test_outside_the_class_equals_single_process(name):
    """No query has a plan here, so the one shard must answer every
    target over its whole state: the chase can join a target's
    relations through relations that share none of its attributes
    (see :data:`CHAINS`)."""
    scheme = OUTSIDE_THE_CLASS[name]()
    router = ShardRouter.in_memory(scheme, 4)
    try:
        assert router.shards == 1
    finally:
        router.close()
    universe = sorted(scheme.universe)
    targets = query_targets(scheme) + list(
        itertools.combinations(universe, 2)
    )
    assert_router_matches_engine(
        scheme, 1, targets, name, CHAINS.get(name, ())
    )


def test_rejection_diagnostics_identical_at_every_count():
    """The full rejection diagnostic (witness and counters included)
    must not depend on the shard count."""
    scheme = example1_university()
    documents = {}
    for shards in (1, 2, 3, 8):
        router = ShardRouter.in_memory(scheme, shards)
        try:
            ok = router.insert(
                "R4", {"C": "CS445", "S": "s1", "G": "A"}
            )
            assert ok.consistent
            bad = router.insert(
                "R4", {"C": "CS445", "S": "s1", "G": "F"}
            )
            assert not bad.consistent
            documents[shards] = (canonical(ok), canonical(bad))
        finally:
            router.close()
    assert len(set(documents.values())) == 1


class Grade(enum.IntEnum):
    A = 1


#: Values of every JSON kind, with equal pairs across kinds (``1``,
#: ``True``, ``1.0`` and ``Grade.A``), an ``IntEnum`` member and a NaN,
#: which equals no other value, itself included.
MIXED_VALUES = st.sampled_from(
    ["x", "y", "1", 0, 1, 2, True, False, 0.0, 1.0, 2.5, None]
    + [Grade.A, float("nan")]
)


@st.composite
def mixed_writes(draw, scheme, stored):
    """One insert, delete or batch over ``scheme``; a delete often
    names a ``stored`` row."""

    def update():
        operation = draw(st.sampled_from(["insert", "insert", "delete"]))
        member = draw(st.sampled_from(scheme.relations))
        rows = stored.get(member.name)
        if operation == "delete" and rows and draw(st.booleans()):
            return ("delete", member.name, dict(draw(st.sampled_from(rows))))
        values = {
            attribute: draw(MIXED_VALUES)
            for attribute in sorted(member.attributes)
        }
        return (operation, member.name, values)

    if draw(st.integers(min_value=0, max_value=3)) == 0:
        count = draw(st.integers(min_value=1, max_value=3))
        return ("batch", [update() for _ in range(count)])
    return update()


def assert_published_exact(router, reference):
    """Each relation in the router's published state *is* its store's
    relation, and the state equals the engine's value for value, types
    included (``repr`` tells ``1`` from ``True``, ``1.0`` and
    ``Grade.A``)."""
    published = router.state
    for worker in router._workers:
        for name, relation in worker.store.state:
            assert published[name] is relation
    assert repr(state_to_dict(published)) == repr(
        state_to_dict(reference.state)
    )


@given(every_generator, st.data())
@settings(max_examples=20)
def test_mirror_copies_equal_fresh_fetches(scheme, data):
    assume(shard_map_for(scheme, 2).shards > 1)
    router = ShardRouter.in_memory(scheme, 2)
    reference = EngineReference(scheme)
    try:
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            stored = {
                name: [dict(values) for values in relation]
                for name, relation in router.state
            }
            op = data.draw(mixed_writes(scheme, stored))
            assert apply_op(router, op) == apply_op(reference, op)
            assert_published_exact(router, reference)
    finally:
        router.close()


def test_a_reinserted_row_replaces_an_equal_row_of_another_type():
    """``True == 1``: a batch that deletes ``1`` and inserts it again
    leaves the store holding ``1`` where it held ``True``, and the
    published state holds ``1`` too."""
    scheme = example1_university()
    router = ShardRouter.in_memory(scheme, 2)
    reference = EngineReference(scheme)
    row = {"C": 1, "S": "s", "G": "g"}
    ops = [
        ("insert", "R4", {**row, "C": True}),
        ("batch", [("delete", "R4", row), ("insert", "R4", row)]),
    ]
    try:
        for op in ops:
            assert apply_op(router, op) == apply_op(reference, op)
        assert_published_exact(router, reference)
        assert [type(values["C"]) for values in router.state["R4"]] == [int]
    finally:
        router.close()
