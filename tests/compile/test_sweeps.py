"""Differential tests for the kernels' whole-column sweeps.

Each kernel sweeps rows with C builtins (``zip``/``map``/``compress``/
``dict.fromkeys``) and passes a union with one non-empty branch through
unchanged.  These tests pin the shapes that touches against the
interpreted :meth:`Expression.evaluate` walk: semi-joins and joins on
composite keys on both sides of ``_SEMIJOIN_PROBE_BOUND``, unions with
0, 1 and several non-empty branches, empty relations, cartesian
products, and projections with many duplicates.  Values mix strings
and ints, so the interner sees more than one type in one column.
"""

import random

import pytest
from hypothesis import example, given, strategies as st

from repro.algebra.expressions import (
    NaturalJoin,
    Project,
    RelationRef,
    Select,
    UnionExpr,
)
from repro.compile import ColumnStore, compile_expression
from repro.compile.program import _SEMIJOIN_PROBE_BOUND
from repro.state.relation import Relation

L = RelationRef("L", "ABC")
R = RelationRef("R", "ABD")
S = RelationRef("S", "ABE")

#: Small key domains, so composite (A, B) keys repeat and collide;
#: one int among the strings.
A_VALUES = ("a0", "a1", "a2", 3)
B_VALUES = ("b0", "b1", "b2", "b3")

SHAPES = {
    "composite-key join": NaturalJoin([L, R]),
    "three-way join": NaturalJoin([L, R, S]),
    "trimmed join": Project(NaturalJoin([L, R]), "CD"),
    "trimmed three-way join": Project(NaturalJoin([L, R, S]), "AD"),
    "selected join": Select(NaturalJoin([L, R]), {"A": "a1"}),
    "selection absent from the state": Select(L, {"A": "never stored"}),
    "cartesian": NaturalJoin([Project(L, "C"), Project(R, "D")]),
    "projection with duplicates": Project(L, "A"),
    "composite projection with duplicates": Project(R, "AB"),
    "union": UnionExpr([Project(L, "AB"), Project(R, "AB"), Project(S, "AB")]),
    "union of selections": UnionExpr(
        [
            Select(Project(L, "AB"), {"A": "a0"}),
            Select(Project(R, "AB"), {"B": "b1"}),
            Select(Project(S, "AB"), {"A": 3}),
        ]
    ),
    "join over a union": Project(
        NaturalJoin([UnionExpr([Project(L, "AB"), Project(S, "AB")]), R]),
        "AD",
    ),
}


def relations(seed: int, sizes: tuple[int, int, int]) -> dict[str, Relation]:
    """``L``, ``R`` and ``S`` with about ``sizes`` rows each (repeated
    draws collapse), their keys drawn from the small domains."""
    rng = random.Random(seed)

    def rows(count: int, letter: str) -> list[dict]:
        return [
            {
                "A": rng.choice(A_VALUES),
                "B": rng.choice(B_VALUES),
                letter: f"{letter.lower()}{rng.randrange(60)}",
            }
            for _ in range(count)
        ]

    return {
        "L": Relation("ABC", rows(sizes[0], "C")),
        "R": Relation("ABD", rows(sizes[1], "D")),
        "S": Relation("ABE", rows(sizes[2], "E")),
    }


def assert_matches_interpreted(source: dict[str, Relation]) -> None:
    store = ColumnStore()
    for name, expression in SHAPES.items():
        program = compile_expression(expression)
        expected = set(expression.evaluate(source).row_vectors)
        assert program.run_decoded(store, source) == expected, name
        # Again, now over the store's cached columns and indexes.
        assert program.run_decoded(store, source) == expected, name


@given(
    seed=st.integers(0, 2**16),
    sizes=st.tuples(
        st.integers(0, 90), st.integers(0, 40), st.integers(0, 20)
    ),
)
# Big L, few R: the semi-join probes L's cached index with R's keys
# (at the bound), and the reverse (below it).
@example(seed=1, sizes=(90, _SEMIJOIN_PROBE_BOUND, 3))
@example(seed=2, sizes=(_SEMIJOIN_PROBE_BOUND - 4, 90, 3))
# Above the bound on both sides: set sweeps.
@example(seed=3, sizes=(90, _SEMIJOIN_PROBE_BOUND + 8, 20))
@example(seed=4, sizes=(0, 0, 0))
def test_compiled_matches_interpreted(seed, sizes):
    assert_matches_interpreted(relations(seed, sizes))


@pytest.mark.parametrize(
    "sizes",
    [(0, 0, 0), (30, 0, 0), (0, 0, 12), (30, 25, 0), (30, 25, 12)],
    ids=["none", "first", "last", "two", "three"],
)
def test_union_branches(sizes):
    source = relations(7, sizes)
    expression = SHAPES["union"]
    program = compile_expression(expression)
    store = ColumnStore()
    result = program.run(store, source)
    expected = set(expression.evaluate(source).row_vectors)
    assert program.run_decoded(store, source) == expected
    assert result.nrows == len(expected)
    assert result.columns == ("A", "B")


def test_union_with_one_nonempty_branch_is_that_branch():
    """Every register is duplicate-free, so a union hands its one
    non-empty branch on unchanged: the stored columns, base tag kept."""
    source = {
        "P": Relation("AB", [{"A": "a", "B": 1}, {"A": "a", "B": 2}]),
        "Q": Relation("AB"),
    }
    expression = UnionExpr([RelationRef("P", "AB"), RelationRef("Q", "AB")])
    store = ColumnStore()
    result = compile_expression(expression).run(store, source)
    assert result.base is source["P"]
    assert result.cols is store.columnar(source["P"]).cols


def test_semijoin_probes_a_stored_right_side():
    """Few left rows against a big stored right side, which answers
    membership from its cached index.  The right side keeps its base
    tag through the semi-join in the other direction only when every
    one of its keys meets the left, so ``L`` carries each (A, B) key
    once."""
    rng = random.Random(11)
    keys = [(a, b) for a in A_VALUES for b in B_VALUES]
    assert len(keys) == _SEMIJOIN_PROBE_BOUND
    source = {
        "L": Relation("ABC", [{"A": a, "B": b, "C": "c"} for a, b in keys]),
        "R": Relation(
            "ABD",
            [
                {"A": a, "B": b, "D": f"d{rng.randrange(60)}"}
                for a, b in rng.choices(keys, k=90)
            ],
        ),
        "S": Relation("ABE"),
    }
    assert len(source["R"]) > 4 * _SEMIJOIN_PROBE_BOUND
    assert_matches_interpreted(source)
