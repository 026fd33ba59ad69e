"""Bounded query answering on independence-reducible schemes
(paper, Section 4.1, Theorem 4.1; Example 12).

The X-total projection of the representative instance is computed by a
*predetermined* expression: over the induced scheme ``D``, it is a union
of projections of sequential extension joins covering ``X`` (Sagiv's
evaluation for independent BCNF schemes); each ``Dj``'s contribution is
the ``Yj``-total projection of its block, where
``Yj = Dj ∩ (other Dj's in the join ∪ X)`` — and block total
projections are themselves unions of lossless-subset joins over base
relations (Corollary 3.1(b)).  Fully expanded, the plan is a relational
expression over the stored relations whose shape depends only on the
scheme: that is boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.expressions import (
    Expression,
    Project,
    join_all,
    union_all_exprs,
)
from repro.core.key_equivalent import total_projection_expression
from repro.core.reducible import (
    RecognitionResult,
    recognize_independence_reducible,
)
from repro.foundations.attrs import (
    AttrsLike,
    attrs,
    fmt_attrs,
    union_all,
)
from repro.foundations.errors import NotApplicableError, SchemaError
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.lossless import extension_join_positions


@dataclass(frozen=True)
class QueryPlan:
    """A predetermined total-projection plan for ``X`` on an
    independence-reducible scheme.

    ``expression`` is the fully expanded relational expression over the
    base relations; ``branches`` lists, per extension-join subset of the
    induced scheme, the induced relations joined and their ``Yj`` sets.
    The plan depends only on the scheme — evaluating it on any
    consistent state yields exactly ``[X]``.
    """

    target: frozenset[str]
    expression: Expression
    branches: tuple[tuple[tuple[str, frozenset[str]], ...], ...]

    def __str__(self) -> str:
        return f"[{fmt_attrs(self.target)}] = {self.expression}"


def total_projection_plan(
    scheme: DatabaseScheme,
    attributes: AttrsLike,
    recognition: Optional[RecognitionResult] = None,
) -> QueryPlan:
    """Build the Theorem 4.1 expression for ``[X]``.

    Raises :class:`NotApplicableError` when the scheme is not
    independence-reducible or a block the plan reads has more members
    than the exact lossless-subset enumeration takes (see
    :func:`~repro.schema.lossless.minimal_lossless_subsets_covering`),
    :class:`SchemaError` when ``X`` is not coverable by an extension
    join over ``D``.
    """
    target = attrs(attributes)
    if not target <= scheme.universe:
        raise SchemaError(
            f"{fmt_attrs(target)} is not contained in the universe"
        )
    if recognition is None:
        recognition = recognize_independence_reducible(scheme)
    if not recognition.accepted:
        raise NotApplicableError(
            "Theorem 4.1 applies to independence-reducible schemes only: "
            f"{recognition.rejection_reason}"
        )
    induced = recognition.induced
    subsets = extension_join_positions(induced, target)
    if not subsets:
        raise SchemaError(
            f"no extension join over {induced} covers {fmt_attrs(target)}"
        )
    branch_expressions: list[Expression] = []
    branch_meta: list[tuple[tuple[str, frozenset[str]], ...]] = []
    for subset in subsets:
        meta: list[tuple[str, frozenset[str]]] = []
        operands: list[Expression] = []
        for position in subset:
            member = induced.relations[position]
            others = union_all(
                induced.relations[other].attributes
                for other in subset
                if other != position
            )
            y = member.attributes & (others | target)
            # [Yj] over the block: Corollary 3.1(b) expansion.
            operands.append(
                total_projection_expression(recognition.partition[position], y)
            )
            meta.append((member.name, y))
        branch_expressions.append(Project(join_all(operands), target))
        branch_meta.append(tuple(meta))
    return QueryPlan(
        target=target,
        expression=union_all_exprs(branch_expressions),
        branches=tuple(branch_meta),
    )


