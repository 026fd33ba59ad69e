"""A small relational-algebra engine: expression ASTs, evaluation over
states, and extension-join construction (paper, Sections 2.6, 3.1, 4.1)."""

from repro.algebra.expressions import (
    Expression,
    LiteralRelation,
    NaturalJoin,
    Project,
    RelationRef,
    RelationSource,
    Select,
    UnionExpr,
    evaluate_natural_join,
    join_all,
    join_relations,
    project_relation,
    ref,
    select_relation,
    union_all_exprs,
)
from repro.algebra.extension_join import (
    extension_join_order,
    sequential_join_expression,
)

__all__ = [
    "Expression",
    "LiteralRelation",
    "NaturalJoin",
    "Project",
    "RelationRef",
    "RelationSource",
    "Select",
    "UnionExpr",
    "evaluate_natural_join",
    "extension_join_order",
    "join_all",
    "join_relations",
    "project_relation",
    "ref",
    "select_relation",
    "sequential_join_expression",
    "union_all_exprs",
]
