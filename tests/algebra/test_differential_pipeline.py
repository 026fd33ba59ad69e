"""Differential tests: the tuple-vector join pipeline against the
dict-row oracle.

``join_relations``, ``evaluate_natural_join`` (semi-join reduction +
greedy ordering + projection pushdown) and the vectorized
``project_relation``/``select_relation`` must agree with the original
dict-based implementations on randomized relations — including empty
operands and accidental cartesian products — and the optimized
expression evaluation must agree with the full-chase baseline on
randomized states.
"""

import random

import pytest

from repro.algebra.expressions import (
    NaturalJoin,
    Project,
    evaluate_natural_join,
    join_relations,
    project_relation,
    ref,
    select_relation,
)
from repro.foundations.errors import StateError
from repro.oracle import join_relations_naive, total_projection_reducible
from repro.state.consistency import total_projection
from repro.state.relation import Relation
from repro.workloads.random_schemes import random_reducible_scheme
from repro.workloads.states import random_consistent_state

ALPHABET = "ABCDE"


def _random_relation(rng: random.Random, max_width: int = 4) -> Relation:
    columns = rng.sample(ALPHABET, rng.randint(1, max_width))
    n_rows = rng.randint(0, 12)
    return Relation(
        columns,
        [
            {a: rng.randint(0, 3) for a in columns}
            for _ in range(n_rows)
        ],
    )


def _naive_join_fold(relations) -> Relation:
    result = relations[0]
    for relation in relations[1:]:
        result = join_relations_naive(result, relation)
    return result


class TestJoinAgainstOracle:
    def test_pairwise_join_agrees(self):
        rng = random.Random(11)
        for _ in range(150):
            left = _random_relation(rng)
            right = _random_relation(rng)
            assert join_relations(left, right) == join_relations_naive(
                left, right
            )

    def test_multiway_join_agrees(self):
        """The optimized order (semi-join reduced, greedy, possibly a
        deferred cartesian product) returns the same set of tuples as
        the naive left-to-right fold."""
        rng = random.Random(12)
        saw_empty = saw_cartesian = 0
        for _ in range(150):
            relations = [
                _random_relation(rng) for _ in range(rng.randint(2, 4))
            ]
            saw_empty += any(not r for r in relations)
            saw_cartesian += any(
                not (a.attributes & b.attributes)
                for i, a in enumerate(relations)
                for b in relations[i + 1 :]
            )
            assert evaluate_natural_join(relations) == _naive_join_fold(
                relations
            )
        assert saw_empty and saw_cartesian

    def test_pushdown_agrees_with_late_projection(self):
        rng = random.Random(13)
        for _ in range(100):
            relations = [
                _random_relation(rng) for _ in range(rng.randint(2, 4))
            ]
            union = frozenset().union(
                *(r.attributes for r in relations)
            )
            needed = frozenset(
                rng.sample(sorted(union), rng.randint(1, len(union)))
            )
            optimized = project_relation(
                evaluate_natural_join(relations, needed=needed), needed
            )
            late = project_relation(_naive_join_fold(relations), needed)
            assert optimized == late


class TestExpressionEvaluation:
    def test_projected_join_expression(self):
        """Project-over-NaturalJoin takes the pushdown path; the result
        must match projecting the naive fold."""
        rng = random.Random(14)
        for _ in range(40):
            relations = {
                f"R{i}": _random_relation(rng) for i in range(3)
            }
            operands = [
                ref(name, relation.attributes)
                for name, relation in relations.items()
            ]
            union = frozenset().union(
                *(r.attributes for r in relations.values())
            )
            target = frozenset(
                rng.sample(sorted(union), rng.randint(1, len(union)))
            )
            expression = Project(NaturalJoin(operands), target)
            naive = project_relation(
                _naive_join_fold(list(relations.values())), target
            )
            assert expression.evaluate(relations) == naive

    def test_reducible_query_agrees_with_chase(self):
        """End to end: the vectorized blocks method and the expression
        method both match the full-chase total projection on randomized
        reducible schemes/states."""
        rng = random.Random(15)
        for _ in range(25):
            scheme, _ = random_reducible_scheme(
                rng, n_blocks=rng.randint(1, 2), relations_per_block=2
            )
            state = random_consistent_state(
                scheme, rng, n_entities=rng.randint(1, 6)
            )
            member = rng.choice(scheme.relations)
            target = member.attributes
            baseline = total_projection(state, target)
            assert (
                total_projection_reducible(state, target, method="blocks")
                == baseline
            )
            assert (
                total_projection_reducible(
                    state, target, method="expression"
                )
                == baseline
            )


class TestSelectValidation:
    def test_unknown_attribute_raises_up_front(self):
        relation = Relation("AB", [{"A": 1, "B": 2}])
        with pytest.raises(StateError, match="outside the relation"):
            select_relation(relation, {"Z": 1})

    def test_unknown_attribute_raises_even_on_empty_relation(self):
        relation = Relation("AB")
        with pytest.raises(StateError, match="outside the relation"):
            select_relation(relation, {"C": "c"})

    def test_matching_selection(self):
        relation = Relation(
            "AB", [{"A": 1, "B": 2}, {"A": 1, "B": 3}, {"A": 2, "B": 2}]
        )
        assert select_relation(relation, {"A": 1}) == Relation(
            "AB", [{"A": 1, "B": 2}, {"A": 1, "B": 3}]
        )
        assert len(select_relation(relation, {"A": 1, "B": 9})) == 0
