"""Differential tests for the key indexes a relation carries across
writes: after every insert, duplicate insert, delete and delete of an
absent row, each index equals one built from scratch, and the relation
the write started from still sees its own index unchanged."""

from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.state.relation as relation_module
from repro.state.relation import Relation

COLUMNS = ("A", "B", "C")
#: Key attribute tuples to index on; not every one is a key of the
#: rows drawn below, so a key value may map to several rows.
KEYS = (("A",), ("A", "B"), ("C", "A"), ("A", "B", "C"))

values = st.sampled_from(["x", "y", None, 0])
rows = st.tuples(values, values, values).map(
    lambda row: dict(zip(COLUMNS, row))
)
steps = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), rows), max_size=25
)


def scratch_index(relation: Relation, key_attrs):
    """The index by definition: key values → the set of stored rows."""
    positions = [relation.columns.index(a) for a in key_attrs]
    expected: dict = {}
    for row in relation.row_vectors:
        expected.setdefault(tuple(row[i] for i in positions), set()).add(row)
    return expected


def as_sets(index):
    assert all(len(set(matches)) == len(matches) for matches in index.values())
    return {key: set(matches) for key, matches in index.items()}


def snapshot(relation: Relation, built):
    return {key_attrs: as_sets(relation.key_index(key_attrs)) for key_attrs in built}


@given(
    st.lists(rows, max_size=8),
    st.sets(st.sampled_from(KEYS)),
    steps,
    st.data(),
)
@settings(max_examples=150)
def test_carried_indexes_match_scratch_builds(initial, built, stream, data):
    builds = mock.Mock(wraps=relation_module._build_key_index)
    with mock.patch.object(relation_module, "_build_key_index", builds):
        _run_stream(initial, built, stream, data, builds)


def _run_stream(initial, built, stream, data, builds):
    current = Relation(COLUMNS, initial)
    for key_attrs in built:
        assert as_sets(current.key_index(key_attrs)) == scratch_index(
            current, key_attrs
        )
    for operation, row in stream:
        stored = row in current
        before = snapshot(current, built)
        objects = {key_attrs: current.key_index(key_attrs) for key_attrs in built}
        if operation == "insert":
            child = current.with_tuple(row)
        else:
            child = current.without_tuple(row)
        assert (row in child) == (operation == "insert")
        if operation == "insert":
            assert len(child) == len(current) + (not stored)
        else:
            assert len(child) == len(current) - stored
        # The parent is never touched: same contents, same objects.
        assert snapshot(current, built) == before
        assert all(
            current.key_index(key_attrs) is index
            for key_attrs, index in objects.items()
        )
        # Every index the parent had built arrives patched, not rebuilt.
        builds.reset_mock()
        for key_attrs in built:
            assert as_sets(child.key_index(key_attrs)) == scratch_index(
                child, key_attrs
            )
        assert builds.call_count == 0
        # A key first asked of the child is built from its rows.
        fresh = data.draw(st.sampled_from(KEYS))
        assert as_sets(child.key_index(fresh)) == scratch_index(child, fresh)
        built = built | {fresh}
        current = child


def test_one_key_value_maps_to_every_row_carrying_it():
    relation = Relation(
        COLUMNS,
        [
            {"A": "a", "B": "b1", "C": "c"},
            {"A": "a", "B": "b2", "C": "c"},
            {"A": "a2", "B": "b1", "C": "c"},
        ],
    )
    index = relation.key_index(("A",))
    assert sorted(index[("a",)]) == [("a", "b1", "c"), ("a", "b2", "c")]
    smaller = relation.without_tuple({"A": "a", "B": "b1", "C": "c"})
    assert smaller.key_index(("A",))[("a",)] == (("a", "b2", "c"),)
    assert len(relation.key_index(("A",))[("a",)]) == 2
    emptied = smaller.without_tuple({"A": "a", "B": "b2", "C": "c"})
    assert ("a",) not in emptied.key_index(("A",))
    assert ("a",) in smaller.key_index(("A",))


def test_relations_without_a_write_history_build_lazily():
    relation = Relation(COLUMNS, [{"A": "a", "B": "b", "C": "c"}])
    other = Relation(COLUMNS, [{"A": "x", "B": "b", "C": "c"}])
    relation.key_index(("A",))
    union = relation.union(other)
    assert union.key_index(("A",)) == {
        ("a",): (("a", "b", "c"),),
        ("x",): (("x", "b", "c"),),
    }
    assert relation.key_index(("A",)) == {("a",): (("a", "b", "c"),)}
