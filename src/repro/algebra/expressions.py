"""Relational-algebra expressions.

The paper's boundedness and maintainability results hinge on
*predetermined relational expressions*: expressions built from the
database scheme alone whose evaluation on any consistent state yields
total projections (Corollary 3.1(b), Theorem 4.1) or the single tuples
a maintenance step must examine (Theorem 3.2).  This module provides an
expression AST — relation references, natural joins, projections,
unions and conjunctive selections — with deterministic pretty-printing
in the paper's notation and evaluation over database states.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs, sorted_attrs
from repro.foundations.errors import StateError
from repro.obs.spans import span
from repro.state.relation import Relation

#: What expressions evaluate against: a state-like mapping of relation
#: name to Relation (a DatabaseState also satisfies this protocol via
#: __getitem__).
RelationSource = Mapping[str, Relation]


class Expression:
    """Base class for relational-algebra expressions."""

    #: The output attributes of the expression.
    attributes: frozenset[str]

    def evaluate(self, source: RelationSource) -> Relation:
        """Evaluate against stored relations."""
        raise NotImplementedError

    def relation_names(self) -> frozenset[str]:
        """All base relations mentioned by the expression."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - subclasses override
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class RelationRef(Expression):
    """A reference to a stored relation."""

    def __init__(self, name: str, attributes: AttrsLike) -> None:
        self.name = name
        self.attributes = attrs(attributes)

    def evaluate(self, source: RelationSource) -> Relation:
        relation = source[self.name]
        if relation.attributes != self.attributes:
            raise StateError(
                f"stored relation {self.name} has attributes "
                f"{fmt_attrs(relation.attributes)}, expression expects "
                f"{fmt_attrs(self.attributes)}"
            )
        return relation

    def relation_names(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


class LiteralRelation(Expression):
    """An inline constant relation (e.g. an inserted tuple)."""

    def __init__(self, relation: Relation, label: str = "τ") -> None:
        self.relation = relation
        self.attributes = relation.attributes
        self.label = label

    def evaluate(self, source: RelationSource) -> Relation:
        return self.relation

    def relation_names(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return self.label


class NaturalJoin(Expression):
    """The natural join of two or more expressions (``⋈``)."""

    def __init__(self, operands: Sequence[Expression]) -> None:
        if len(operands) < 2:
            raise StateError("a join needs at least two operands")
        self.operands = tuple(operands)
        out: frozenset[str] = frozenset()
        for operand in operands:
            out = out | operand.attributes
        self.attributes = out

    def evaluate(self, source: RelationSource) -> Relation:
        return evaluate_natural_join(
            [operand.evaluate(source) for operand in self.operands]
        )

    def relation_names(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for operand in self.operands:
            names = names | operand.relation_names()
        return names

    def __str__(self) -> str:
        parts = [
            f"({operand})" if isinstance(operand, (NaturalJoin, UnionExpr)) else str(operand)
            for operand in self.operands
        ]
        return " ⋈ ".join(parts)


class Project(Expression):
    """Projection ``π_X`` onto a subset of the operand's attributes."""

    def __init__(self, operand: Expression, attributes: AttrsLike) -> None:
        target = attrs(attributes)
        if not target <= operand.attributes:
            raise StateError(
                f"cannot project {fmt_attrs(operand.attributes)} onto "
                f"{fmt_attrs(target)}"
            )
        self.operand = operand
        self.attributes = target

    def evaluate(self, source: RelationSource) -> Relation:
        operand = self.operand
        if isinstance(operand, NaturalJoin):
            # Projection pushdown: evaluate the join's operands, trim
            # every column that neither the target nor the join
            # conditions need, then join the narrowed relations.
            joined = evaluate_natural_join(
                [inner.evaluate(source) for inner in operand.operands],
                needed=self.attributes,
            )
            return project_relation(joined, self.attributes)
        return project_relation(operand.evaluate(source), self.attributes)

    def relation_names(self) -> frozenset[str]:
        return self.operand.relation_names()

    def __str__(self) -> str:
        return f"π_{fmt_attrs(self.attributes)}({self.operand})"


class UnionExpr(Expression):
    """Union of expressions over the same output attributes."""

    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise StateError("a union needs at least one operand")
        first = operands[0].attributes
        for operand in operands[1:]:
            if operand.attributes != first:
                raise StateError("union operands must share attributes")
        self.operands = tuple(operands)
        self.attributes = first

    def evaluate(self, source: RelationSource) -> Relation:
        result = self.operands[0].evaluate(source)
        for operand in self.operands[1:]:
            result = result.union(operand.evaluate(source))
        return result

    def relation_names(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for operand in self.operands:
            names = names | operand.relation_names()
        return names

    def __str__(self) -> str:
        return " ∪ ".join(
            f"({operand})" if isinstance(operand, UnionExpr) else str(operand)
            for operand in self.operands
        )


class Select(Expression):
    """Conjunctive selection ``σ_{A='a' ∧ ...}`` (paper, Section 2.7)."""

    def __init__(
        self, operand: Expression, equalities: Mapping[str, Hashable]
    ) -> None:
        condition = dict(equalities)
        unknown = set(condition) - set(operand.attributes)
        if unknown:
            raise StateError(
                f"selection on attributes outside the operand: {sorted(unknown)}"
            )
        self.operand = operand
        self.equalities = condition
        self.attributes = operand.attributes

    def evaluate(self, source: RelationSource) -> Relation:
        return select_relation(self.operand.evaluate(source), self.equalities)

    def relation_names(self) -> frozenset[str]:
        return self.operand.relation_names()

    def constants(self) -> set[Hashable]:
        """``CST(Φ)``: the constants mentioned by the selection formula."""
        return set(self.equalities.values())

    def __str__(self) -> str:
        condition = " ∧ ".join(
            f"{attribute}='{value}'"
            for attribute, value in sorted(self.equalities.items())
        )
        return f"σ_{{{condition}}}({self.operand})"


# -- evaluation primitives ------------------------------------------------------
#
# All primitives work directly on the Relation-internal value vectors
# (``columns``/``row_vectors``) and rebuild results through
# ``Relation.from_vectors`` — no per-tuple dict is ever materialized.
# ``repro.oracle.join_relations_naive`` preserves the original dict-row
# hash join as the differential-test oracle.


def join_relations(left: Relation, right: Relation) -> Relation:
    """Natural join (hash join on the common attributes; a cartesian
    product when the attribute sets are disjoint).

    The smaller operand is indexed, the larger one probes; output
    vectors are emitted directly in canonical attribute order.
    """
    if len(right) > len(left):
        left, right = right, left
    left_columns = left.columns
    right_columns = right.columns
    left_position = {a: i for i, a in enumerate(left_columns)}
    right_position = {a: i for i, a in enumerate(right_columns)}
    common = sorted(left.attributes & right.attributes)
    left_key = [left_position[a] for a in common]
    right_key = [right_position[a] for a in common]
    output_attributes = left.attributes | right.attributes
    order = tuple(sorted_attrs(output_attributes))
    # For each output column: take from the probe row when the attribute
    # is the left's (shared attributes agree on both sides), else from
    # the indexed row.
    takers = [
        (0, left_position[a]) if a in left_position else (1, right_position[a])
        for a in order
    ]
    with span("join.hash") as sp:
        index: dict[tuple, list[tuple]] = {}
        index_setdefault = index.setdefault
        for row in right.row_vectors:
            index_setdefault(tuple(row[i] for i in right_key), []).append(row)
        joined: list[tuple] = []
        append = joined.append
        for row in left.row_vectors:
            bucket = index.get(tuple(row[i] for i in left_key))
            if bucket is not None:
                for match in bucket:
                    pair = (row, match)
                    append(tuple(pair[side][i] for side, i in takers))
        if sp:
            sp.add("build_tuples", len(right))
            sp.add("probe_tuples", len(left))
            sp.add("tuples_out", len(joined))
    return Relation.from_vectors(output_attributes, order, joined)


def project_relation(relation: Relation, attributes: AttrsLike) -> Relation:
    """Projection onto a subset of the relation's attributes."""
    target = attrs(attributes)
    if target == relation.attributes:
        return relation
    if not target <= relation.attributes:
        raise StateError("projection outside the relation's attributes")
    order = tuple(sorted_attrs(target))
    columns = relation.columns
    positions = [columns.index(a) for a in order]
    return Relation.from_vectors(
        target,
        order,
        {tuple(row[i] for i in positions) for row in relation.row_vectors},
    )


def select_relation(
    relation: Relation, equalities: Mapping[str, Hashable]
) -> Relation:
    """Conjunctive selection by attribute-equals-constant conditions.

    Condition attributes are validated up front: a condition naming an
    attribute outside the relation raises :class:`StateError` instead of
    silently selecting nothing (or crashing row by row).
    """
    condition = dict(equalities)
    unknown = set(condition) - set(relation.attributes)
    if unknown:
        raise StateError(
            "selection on attributes outside the relation: "
            f"{sorted(unknown)} not in {fmt_attrs(relation.attributes)}"
        )
    columns = relation.columns
    tests = [(columns.index(a), value) for a, value in condition.items()]
    return Relation.from_vectors(
        relation.attributes,
        columns,
        (
            row
            for row in relation.row_vectors
            if all(row[i] == value for i, value in tests)
        ),
    )


def _semijoin(left: Relation, right: Relation) -> Relation:
    """Semi-join reduction ``left ⋉ right``: the left rows whose common
    attribute values appear in ``right``.  Identity when the attribute
    sets are disjoint or nothing is filtered."""
    common = sorted(left.attributes & right.attributes)
    if not common:
        return left
    left_columns = left.columns
    right_columns = right.columns
    left_key = [left_columns.index(a) for a in common]
    right_key = [right_columns.index(a) for a in common]
    seen = {tuple(row[i] for i in right_key) for row in right.row_vectors}
    kept = [
        row
        for row in left.row_vectors
        if tuple(row[i] for i in left_key) in seen
    ]
    if len(kept) == len(left.row_vectors):
        return left
    return Relation.from_vectors(left.attributes, left_columns, kept)


def evaluate_natural_join(
    relations: Sequence[Relation],
    needed: AttrsLike | None = None,
) -> Relation:
    """Natural join of many relations with the optimizer pipeline.

    Three stages before any full join runs:

    1. *Projection pushdown* (when ``needed`` is given): every operand is
       trimmed to the attributes the caller needs plus those shared with
       another operand (the join conditions), keeping at least one column
       so an empty operand still annihilates the result.
    2. *Semi-join reduction*: each operand is reduced by every other
       operand it shares attributes with, so dangling tuples never reach
       a full join.
    3. *Greedy join ordering*: fold starting from the smallest operand,
       always preferring the smallest operand connected to the
       attributes already joined (avoiding accidental cartesian
       products; a genuine cartesian product is deferred to the end).
    """
    if not relations:
        raise StateError("a join needs at least one relation")
    if len(relations) == 1:
        relation = relations[0]
        if needed is not None:
            return project_relation(relation, attrs(needed) & relation.attributes)
        return relation
    with span("join.pipeline") as sp:
        if sp:
            sp.add("operands", len(relations))
            sp.add("tuples_in", sum(len(relation) for relation in relations))
        output_attributes: frozenset[str] = frozenset()
        for relation in relations:
            output_attributes = output_attributes | relation.attributes

        if needed is not None:
            tally: dict[str, int] = {}
            for relation in relations:
                for attribute in relation.attributes:
                    tally[attribute] = tally.get(attribute, 0) + 1
            keep_base = attrs(needed) | {
                attribute for attribute, uses in tally.items() if uses > 1
            }
            relations = [
                relation
                if relation.attributes <= keep_base
                else project_relation(
                    relation,
                    (relation.attributes & keep_base)
                    or {min(relation.attributes)},
                )
                for relation in relations
            ]

        reduced = list(relations)
        count = len(reduced)
        for i in range(count):
            left = reduced[i]
            for j in range(count):
                if i != j:
                    left = _semijoin(left, reduced[j])
            reduced[i] = left
        if sp:
            sp.add(
                "tuples_after_semijoin",
                sum(len(relation) for relation in reduced),
            )
        if any(not relation for relation in reduced):
            # An annihilated operand empties the whole join, cartesian or not.
            if sp:
                sp.add("annihilated", 1)
            return Relation(output_attributes)

        pending = sorted(range(count), key=lambda i: len(reduced[i]))
        first = pending.pop(0)
        result = reduced[first]
        joined_attributes = set(result.attributes)
        while pending:
            connected = [
                i for i in pending if reduced[i].attributes & joined_attributes
            ]
            choice = connected[0] if connected else pending[0]
            pending.remove(choice)
            result = join_relations(result, reduced[choice])
            joined_attributes |= reduced[choice].attributes
        if sp:
            sp.add("tuples_out", len(result))
        return result


# -- convenience constructors -----------------------------------------------------


def ref(name: str, attributes: AttrsLike) -> RelationRef:
    return RelationRef(name, attributes)


def join_all(operands: Sequence[Expression]) -> Expression:
    """Join a sequence of expressions (identity for a single operand)."""
    if len(operands) == 1:
        return operands[0]
    return NaturalJoin(list(operands))


def union_all_exprs(operands: Sequence[Expression]) -> Expression:
    """Union a sequence of expressions (identity for a single operand)."""
    if len(operands) == 1:
        return operands[0]
    return UnionExpr(list(operands))
