"""Reference routes, kept only to check the production routes against.

On an independence-reducible scheme every operation has one production
route: the compiled Theorem 4.1 plan for ``[X]``, Algorithm 5 or the
compiled Algorithm 2 for an insert, the worklist chase everywhere else.
This module holds the other routes — textbook, definitional or
paper-literal implementations that are slower but obviously correct.
The differential suites race the production routes against them, and
:mod:`repro.bench` times some of them as naive baselines.  No
production module imports this one; :mod:`repro.bench` is its only
importer inside the package.

* :func:`closure_naive` — the fixpoint attribute closure; checks
  :func:`repro.fd.closure.closure_linear` (``tests/fd``).
* :func:`join_relations_naive` — the dict-row natural join; checks
  :func:`repro.algebra.expressions.join_relations` and
  ``evaluate_natural_join`` (``tests/algebra``).
* :func:`chase_naive` and :func:`chase_state_naive` — the full-sweep
  chase; check :func:`repro.tableau.chase.chase`,
  ``chase_relations`` and ``DeltaChase`` (``tests/tableau``).
* :func:`uniqueness_violations_naive` — the per-pair uniqueness
  condition; checks :func:`repro.core.independence.uniqueness_violations`
  (``tests/core/test_independence.py``).
* :func:`find_reducible_partition_bruteforce` — the definitional
  partition search; checks Algorithm 6 (``tests/core/test_reducible.py``,
  ``tests/integration/test_theorems.py``).
* :func:`total_projection_plan_naive`, with
  :func:`extension_join_subsets_covering_naive` (rooted key-growth from
  every member, scanning every member per step) and
  :func:`minimal_lossless_subsets_covering_naive` (every candidate
  chased) — the Theorem 4.1 planner's searches as first written; check
  :func:`repro.core.query.total_projection_plan` and
  :mod:`repro.schema.lossless` (``tests/core/test_query.py``).
* :func:`total_projection_reducible` — Theorem 4.1 evaluated from the
  blocks' representative instances or the uncompiled expression; checks
  the compiled query plan (``tests/compile``, ``tests/algebra``).
* :class:`ChaseRILookup`, :class:`ExpressionRILookup` and
  :class:`GreatestExpressionRILookup` — Algorithm 2's
  representative-instance lookups; check
  :class:`repro.compile.lookup.CompiledRILookup` and each other
  (``tests/compile``, ``tests/core/test_maintenance.py``).
* :func:`batch_per_update` — a batch as one engine call per update;
  checks :meth:`repro.core.engine.WeakInstanceEngine.batch` and
  ``apply_slice`` (``tests/core/test_parallel_batch.py``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.algebra.expressions import (
    Expression,
    Project,
    RelationRef,
    Select,
    UnionExpr,
    evaluate_natural_join,
    join_all,
    union_all_exprs,
)
from repro.core.engine import BatchOutcome, Update, WeakInstanceEngine
from repro.core.independence import is_independent
from repro.core.key_equivalent import (
    KERepInstance,
    is_key_equivalent,
    key_equivalent_chase,
)
from repro.core.maintenance import _join_partial
from repro.core.query import QueryPlan, total_projection_plan
from repro.core.reducible import (
    RecognitionResult,
    induced_scheme,
    recognize_independence_reducible,
)
from repro.fd.fd import FD
from repro.fd.fdset import FDSet, FDsLike
from repro.foundations.attrs import (
    AttrsLike,
    attrs,
    fmt_attrs,
    sorted_attrs,
    union_all,
)
from repro.foundations.errors import (
    InconsistentStateError,
    NotApplicableError,
    SchemaError,
    StateError,
)
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.relation_scheme import RelationScheme
from repro.schema.lossless import extension_join_subsets_covering
from repro.state.consistency import _constraints
from repro.state.database_state import DatabaseState
from repro.state.relation import Relation
from repro.tableau.chase import ChaseResult, _Contradiction
from repro.tableau.scheme_tableau import scheme_tableau
from repro.tableau.symbols import Symbol, is_constant, is_dv, preferred
from repro.tableau.tableau import Row, Tableau


# -- attribute closure --------------------------------------------------------


def closure_naive(start: AttrsLike, fds: Iterable[FD]) -> frozenset[str]:
    """Fixpoint attribute closure; quadratic but obviously correct."""
    result = set(attrs(start))
    fd_list = list(fds)
    changed = True
    while changed:
        changed = False
        for dependency in fd_list:
            if dependency.lhs <= result and not dependency.rhs <= result:
                result.update(dependency.rhs)
                changed = True
    return frozenset(result)


# -- natural join -------------------------------------------------------------


def join_relations_naive(left: Relation, right: Relation) -> Relation:
    """The original dict-row natural join, kept verbatim as the oracle
    the differential tests race
    :func:`repro.algebra.expressions.join_relations` and
    :func:`repro.algebra.expressions.evaluate_natural_join` against."""
    common = sorted(left.attributes & right.attributes)
    output_attributes = left.attributes | right.attributes
    index: dict[tuple, list[dict]] = {}
    for row in right:
        key = tuple(row[a] for a in common)
        index.setdefault(key, []).append(row)
    joined = []
    for row in left:
        key = tuple(row[a] for a in common)
        for match in index.get(key, ()):
            merged = dict(match)
            merged.update(row)
            joined.append(merged)
    return Relation(output_attributes, joined)


# -- the chase ----------------------------------------------------------------


class _SymbolUnionFind:
    """Union-find over symbols with precedence-respecting representatives.

    Used by the naive engine; the worklist engine keeps its union-find
    over interned integers inside :func:`repro.tableau.chase._chase_core`.
    """

    def __init__(self) -> None:
        self._parent: dict[Symbol, Symbol] = {}

    def find(self, symbol: Symbol) -> Symbol:
        parent = self._parent
        root = symbol
        while root in parent:
            root = parent[root]
        # Path compression.
        while symbol in parent:
            parent[symbol], symbol = root, parent[symbol]
        return root

    def union(self, left: Symbol, right: Symbol) -> Optional[Symbol]:
        """Equate two symbols.  Returns the losing root when a merge
        happened, ``None`` when the symbols were already equal.

        Raises :class:`_Contradiction` when both roots are distinct
        constants.
        """
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            return None
        if is_constant(left_root) and is_constant(right_root):
            raise _Contradiction(left_root, right_root)
        winner = preferred(left_root, right_root)
        loser = right_root if winner == left_root else left_root
        self._parent[loser] = winner
        return loser


def chase_naive(tableau: Tableau, fds: FDsLike) -> ChaseResult:
    """The original full-sweep ``CHASE_F(tableau)``.

    Rules are applied in passes over the whole tableau until no symbol
    merge occurs.  Kept as the differential-test oracle for
    :func:`repro.tableau.chase.chase` and as the benchmarks' naive
    baseline.
    """
    # The rules are derived here rather than read from the set's cached
    # ``singleton_rules``, so the differential suites check that too.
    fd_list = [
        (sorted_attrs(dependency.lhs), next(iter(dependency.rhs)))
        for dependency in FDSet(fds).split_rhs().nontrivial()
    ]
    uf = _SymbolUnionFind()
    rows = tableau.rows
    steps = 0
    passes = 0
    try:
        changed = True
        while changed:
            changed = False
            passes += 1
            for lhs, rhs_attr in fd_list:
                groups: dict[tuple[Symbol, ...], Symbol] = {}
                for row in rows:
                    signature = tuple(uf.find(row[a]) for a in lhs)
                    rhs_symbol = uf.find(row[rhs_attr])
                    anchor = groups.get(signature)
                    if anchor is None:
                        groups[signature] = rhs_symbol
                    elif uf.union(anchor, rhs_symbol) is not None:
                        steps += 1
                        changed = True
                        # Keep the group's anchor current so later rows in
                        # this pass merge against the surviving symbol.
                        groups[signature] = uf.find(anchor)
    except _Contradiction:
        return ChaseResult(
            Tableau(tableau.universe),
            consistent=False,
            steps=steps,
            passes=passes,
        )

    resolved = Tableau(
        tableau.universe,
        (
            Row({a: uf.find(row[a]) for a in tableau.universe}, tag=row.tag)
            for row in rows
        ),
    )
    return ChaseResult(resolved, consistent=True, steps=steps, passes=passes)


def chase_state_naive(
    state: DatabaseState, fds: Optional[FDsLike] = None
) -> ChaseResult:
    """``CHASE_F(T_r)`` via the original full-sweep pipeline: build the
    state tableau, then chase it with the naive engine.  The
    differential-test oracle and benchmark baseline for
    :func:`repro.state.consistency.chase_state`."""
    return chase_naive(state.tableau(), _constraints(state, fds))


# -- independence (uniqueness condition) --------------------------------------


def uniqueness_violations_naive(
    scheme: DatabaseScheme,
) -> list[tuple[str, str, frozenset[str], str]]:
    """The uniqueness condition by its definition: for every ordered
    pair ``Ri ≠ Rj``, the closure of ``Ri`` under a freshly built
    ``F − Fj``.  Same violations, in the same order, as
    :func:`repro.core.independence.uniqueness_violations`."""
    violations: list[tuple[str, str, frozenset[str], str]] = []
    for left in scheme.relations:
        for right in scheme.relations:
            if left.name == right.name:
                continue
            closure = scheme.fds_excluding(right).closure(left.attributes)
            for key in right.keys:
                if not key <= closure:
                    continue
                for attribute in sorted(right.attributes - key):
                    if attribute in closure:
                        violations.append(
                            (left.name, right.name, key, attribute)
                        )
    return violations


# -- recognition (Algorithm 6) ------------------------------------------------


def _set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All partitions of a sequence (Bell-number many; tiny inputs
    only)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for index in range(len(smaller)):
            yield (
                smaller[:index]
                + [[first] + smaller[index]]
                + smaller[index + 1 :]
            )
        yield [[first]] + smaller


def find_reducible_partition_bruteforce(
    scheme: DatabaseScheme, max_relations: int = 9
) -> Optional[list[DatabaseScheme]]:
    """Definitional search: try every partition of the relation schemes
    and return the first independence-reducible one, or None.

    Bell-number blowup — guarded by ``max_relations``.  Used by tests to
    cross-validate that Algorithm 6 accepts exactly the definitional
    class (Corollary 5.1 + Theorem 5.1).
    """
    if len(scheme.relations) > max_relations:
        raise ValueError(
            f"brute-force partition search capped at {max_relations} relations"
        )
    for grouping in _set_partitions(list(scheme.names)):
        blocks = [scheme.subscheme(group) for group in grouping]
        if not all(is_key_equivalent(block) for block in blocks):
            continue
        if is_independent(induced_scheme(blocks)):
            return blocks
    return None


# -- query planning (Theorem 4.1) ---------------------------------------------


def _lossless_by_chase(
    members: Sequence[RelationScheme], scheme: DatabaseScheme
) -> bool:
    """Whether ``members`` is a lossless subset of ``scheme``, whatever
    its size: chase ``T_S`` padded to the universe under the scheme's
    fds and look for a row distinguished on all of ``∪S``."""
    joint = union_all(member.attributes for member in members)
    tableau = scheme_tableau(
        [(member.name, member.attributes) for member in members],
        scheme.universe,
    )
    chased = chase_naive(tableau, scheme.fds).tableau
    return any(all(is_dv(row[a]) for a in joint) for row in chased)


def minimal_lossless_subsets_covering_naive(
    scheme: DatabaseScheme, target: AttrsLike, max_relations: int = 14
) -> list[tuple[RelationScheme, ...]]:
    """Every subset by increasing size, supersets of earlier finds
    skipped, each covering one chased.  Same subsets, order and cap as
    :func:`repro.schema.lossless.minimal_lossless_subsets_covering`."""
    if len(scheme.relations) > max_relations:
        raise NotApplicableError(
            f"exact lossless-subset enumeration capped at {max_relations} "
            "relations"
        )
    target_set = attrs(target)
    found: list[frozenset[str]] = []
    results: list[tuple[RelationScheme, ...]] = []
    for size in range(1, len(scheme.relations) + 1):
        for subset in combinations(scheme.relations, size):
            names = frozenset(member.name for member in subset)
            if any(previous <= names for previous in found):
                continue
            if target_set <= union_all(
                member.attributes for member in subset
            ) and _lossless_by_chase(subset, scheme):
                found.append(names)
                results.append(subset)
    return sorted(results, key=lambda subset: tuple(m.name for m in subset))


def extension_join_subsets_covering_naive(
    scheme: DatabaseScheme, target: AttrsLike
) -> list[tuple[RelationScheme, ...]]:
    """Rooted key-growth from every member, scanning every member at
    every step.  Same subsets, in the same order, as
    :func:`repro.schema.lossless.extension_join_subsets_covering`."""
    target_set = attrs(target)
    members = scheme.relations
    index_of = {member.name: i for i, member in enumerate(members)}
    found: set[frozenset[str]] = set()
    visited: set[frozenset[str]] = set()

    def position(member: RelationScheme) -> int:
        return index_of[member.name]

    def explore(
        current_names: frozenset[str], current_attrs: frozenset[str]
    ) -> None:
        if current_names in visited:
            return
        visited.add(current_names)
        if target_set <= current_attrs:
            found.add(current_names)
            return
        for member in members:
            if member.name in current_names:
                continue
            if any(key <= current_attrs for key in member.keys):
                explore(
                    current_names | {member.name},
                    current_attrs | member.attributes,
                )

    for root in members:
        explore(frozenset({root.name}), root.attributes)

    return sorted(
        (
            tuple(sorted((scheme[name] for name in chosen), key=position))
            for chosen in found
            if not any(other < chosen for other in found)
        ),
        key=lambda subset: tuple(m.name for m in subset),
    )


def total_projection_expression_naive(
    scheme: DatabaseScheme, target: frozenset[str]
) -> Expression:
    """Corollary 3.1(b) from the naive enumeration: the same expression
    as :func:`repro.core.key_equivalent.total_projection_expression`."""
    subsets = minimal_lossless_subsets_covering_naive(scheme, target)
    if not subsets:
        raise SchemaError(
            f"no lossless subset of {scheme} covers {fmt_attrs(target)}"
        )
    return union_all_exprs(
        [
            Project(
                join_all([RelationRef(m.name, m.attributes) for m in subset]),
                target,
            )
            for subset in subsets
        ]
    )


def total_projection_plan_naive(
    scheme: DatabaseScheme,
    attributes: AttrsLike,
    recognition: Optional[RecognitionResult] = None,
) -> QueryPlan:
    """The Theorem 4.1 plan assembled from the naive searches above.
    Same ``str(plan)``, branches and exception types as
    :func:`repro.core.query.total_projection_plan`."""
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
    blocks = {
        member.name: block
        for member, block in zip(induced, recognition.partition)
    }
    subsets = extension_join_subsets_covering_naive(induced, target)
    if not subsets:
        raise SchemaError(
            f"no extension join over {induced} covers {fmt_attrs(target)}"
        )
    branch_expressions: list[Expression] = []
    branch_meta: list[tuple[tuple[str, frozenset[str]], ...]] = []
    for subset in subsets:
        meta: list[tuple[str, frozenset[str]]] = []
        operands: list[Expression] = []
        for member in subset:
            others = union_all(
                other.attributes for other in subset if other is not member
            )
            y = member.attributes & (others | target)
            operands.append(total_projection_expression_naive(blocks[member.name], y))
            meta.append((member.name, y))
        branch_expressions.append(Project(join_all(operands), target))
        branch_meta.append(tuple(meta))
    return QueryPlan(
        target=target,
        expression=union_all_exprs(branch_expressions),
        branches=tuple(branch_meta),
    )


# -- total projections (Theorem 4.1) ------------------------------------------


def _block_substate(
    state: DatabaseState, block: DatabaseScheme
) -> DatabaseState:
    """The substate of ``state`` on one partition block."""
    return DatabaseState(
        block, {name: list(state[name]) for name in block.names}
    )


def total_projection_reducible(
    state: DatabaseState,
    attributes: AttrsLike,
    recognition: Optional[RecognitionResult] = None,
    *,
    method: str = "blocks",
) -> set[tuple[Hashable, ...]]:
    """``[X]`` on an independence-reducible scheme without chasing the
    whole state.

    ``method="expression"`` evaluates the fully expanded Theorem 4.1
    plan directly on the stored relations.  ``method="blocks"``
    (default) materializes each block's representative instance with
    Algorithm 1 and joins the blocks' ``Yj``-total projections —
    typically faster and the shape Section 4.1's proof actually
    manipulates.  Both agree with the full-chase baseline; tests verify
    all three.
    """
    target = attrs(attributes)
    scheme = state.scheme
    if recognition is None:
        recognition = recognize_independence_reducible(scheme)
    if not recognition.accepted:
        raise NotApplicableError(
            "Theorem 4.1 applies to independence-reducible schemes only: "
            f"{recognition.rejection_reason}"
        )
    if method == "expression":
        plan = total_projection_plan(scheme, target, recognition)
        relation = plan.expression.evaluate(state)
        columns = relation.columns
        positions = [columns.index(a) for a in sorted_attrs(target)]
        return {
            tuple(row[i] for i in positions) for row in relation.row_vectors
        }
    if method != "blocks":
        raise ValueError(f"unknown method: {method!r}")

    induced = recognition.induced
    blocks = {
        member.name: block
        for member, block in zip(induced, recognition.partition)
    }
    # Materialize each block's representative instance once.
    block_instances = {}
    for name, block in blocks.items():
        instance = key_equivalent_chase(
            _block_substate(state, block), check_scheme=False
        )
        if instance is None:
            raise InconsistentStateError(
                f"block {name} of the state is inconsistent"
            )
        block_instances[name] = instance

    subsets = extension_join_subsets_covering(induced, target)
    ordered_target = sorted_attrs(target)
    result: set[tuple[Hashable, ...]] = set()
    for subset in subsets:
        # One relation of Yj-total value vectors per member, projected
        # out of the block's representative instance (deduplication is
        # free: the rows land in a set).
        operands: list[Relation] = []
        annihilated = False
        identity = True
        for member in subset:
            others = union_all(
                other.attributes for other in subset if other is not member
            )
            y = member.attributes & (others | target)
            ordered_y = tuple(sorted_attrs(y))
            vectors = {
                tuple(row[a] for a in ordered_y)
                for row in block_instances[member.name].classes
                if all(a in row for a in ordered_y)
            }
            if not vectors:
                annihilated = True
                break
            if not ordered_y:
                # Nullary contribution: one empty tuple — the join
                # identity; an empty classes list annihilated above.
                continue
            identity = False
            operands.append(Relation.from_vectors(y, ordered_y, vectors))
        if annihilated:
            continue
        if identity:
            # Every member contributed the nullary identity: the branch
            # yields exactly the empty target tuple (target ⊆ ∪Yj = ∅).
            result.add(())
            continue
        # The optimizer pipeline does the rest: semi-join reduction,
        # greedy ordering, and pushdown of everything but the target and
        # join attributes.
        joined = evaluate_natural_join(operands, needed=target)
        columns = joined.columns
        positions = [columns.index(a) for a in ordered_target]
        result.update(
            tuple(row[i] for i in positions) for row in joined.row_vectors
        )
    return result


# -- Algorithm 2 representative-instance lookups ------------------------------


class ChaseRILookup:
    """Ground-truth lookup: materialize the representative instance with
    Algorithm 1 and index it by the scheme's keys.  Reads the whole
    state once (reported in ``tuples_retrieved``)."""

    def __init__(self, state: DatabaseState) -> None:
        instance = key_equivalent_chase(state, check_scheme=False)
        if instance is None:
            raise InconsistentStateError(
                "cannot maintain an inconsistent state"
            )
        self.instance: KERepInstance = instance
        self.tuples_retrieved = state.total_tuples()

    def find(
        self, key: frozenset[str], values: Mapping[str, Hashable]
    ) -> Optional[dict[str, Hashable]]:
        ordered = sorted_attrs(key)
        return self.instance.lookup(key, [values[a] for a in ordered])


class ExpressionRILookup:
    """Theorem 3.2's lookup: assemble the representative-instance row for
    a key value by single-tuple conjunctive selections over the
    predetermined lossless-join expressions.

    For each key that becomes total in the accumulating row, evaluate
    ``σ_{K='k'}`` over each branch of the Corollary 3.1(b) expression
    for that key (a join of a minimal lossless subset covering it); the
    non-empty results are single tuples of the unique representative-
    instance row and are merged until a fixpoint.  The number of
    selections depends only on the scheme — this is what makes
    key-equivalent schemes algebraic-maintainable — while the *cost* of
    evaluating a branch still scales with the state, which is why split
    schemes are nonetheless not ctm (Theorem 3.4).
    """

    def __init__(self, state: DatabaseState) -> None:
        self.state = state
        self.scheme = state.scheme
        self.tuples_retrieved = 0
        self.selections_issued = 0
        self._branches: dict[frozenset[str], list] = {}

    def _branches_for(self, key: frozenset[str]) -> list:
        branches = self._branches.get(key)
        if branches is None:
            expression = total_projection_expression_naive(self.scheme, key)
            # A union's branches are the per-subset joins; a single
            # subset yields the projection itself.
            if isinstance(expression, UnionExpr):
                branches = list(expression.operands)
            else:
                branches = [expression]
            # Selections need the full join (not the projection onto the
            # key), so peel the projection and keep its operand.
            branches = [
                branch.operand if isinstance(branch, Project) else branch
                for branch in branches
            ]
            self._branches[key] = branches
        return branches

    def find(
        self, key: frozenset[str], values: Mapping[str, Hashable]
    ) -> Optional[dict[str, Hashable]]:
        row: dict[str, Hashable] = {a: values[a] for a in key}
        matched = False
        grew = True
        while grew:
            grew = False
            for probe_key in self.scheme.all_keys():
                if not probe_key <= set(row):
                    continue
                condition = {a: row[a] for a in probe_key}
                for branch in self._branches_for(probe_key):
                    selection = Select(branch, condition)
                    result = selection.evaluate(self.state)
                    self.selections_issued += 1
                    if len(result) > 1:
                        raise InconsistentStateError(
                            "a lossless-join selection returned more than "
                            "one tuple; the state is inconsistent"
                        )
                    for match in result:
                        matched = True
                        self.tuples_retrieved += 1
                        merged = _join_partial(row, match)
                        if merged is None:
                            raise InconsistentStateError(
                                "lossless-join selections disagree; the "
                                "state is inconsistent"
                            )
                        if len(merged) > len(row):
                            grew = True
                        row = merged
        return row if matched else None


class GreatestExpressionRILookup:
    """The paper's literal Theorem 3.2 / Example 7 mechanism: evaluate
    ``σ_{K='k'}`` over the join of *every* lossless subset covering
    ``K`` and keep the greatest non-empty one (the expression over the
    largest subset; the paper shows the non-empty results are totally
    informative and the greatest carries the whole representative-
    instance row).

    Exponential in the number of relation schemes — this class exists
    for fidelity and cross-validation; :class:`ExpressionRILookup` is
    the practical backend with identical answers (property-tested).
    """

    def __init__(self, state: DatabaseState, max_relations: int = 12) -> None:
        scheme = state.scheme
        if len(scheme.relations) > max_relations:
            raise NotApplicableError(
                "GreatestExpressionRILookup enumerates every lossless "
                "subset of the scheme (exponential in the relation "
                f"count) and is capped at {max_relations} relation "
                f"schemes; this scheme has {len(scheme.relations)}. "
                "Use ExpressionRILookup, the practical backend with "
                "identical answers, or raise max_relations explicitly."
            )
        self.state = state
        self.scheme = scheme
        self.tuples_retrieved = 0
        self.selections_issued = 0
        self._subsets_by_key: dict[frozenset[str], list] = {}

    def _subsets_for(self, key: frozenset[str]) -> list:
        cached = self._subsets_by_key.get(key)
        if cached is None:
            members = self.scheme.relations
            cached = []
            for size in range(1, len(members) + 1):
                for combo in combinations(members, size):
                    union = frozenset().union(
                        *(m.attributes for m in combo)
                    )
                    if not key <= union:
                        continue
                    if _lossless_by_chase(combo, self.scheme):
                        cached.append(combo)
            self._subsets_by_key[key] = cached
        return cached

    def find(
        self, key: frozenset[str], values: Mapping[str, Hashable]
    ) -> Optional[dict[str, Hashable]]:
        condition = {a: values[a] for a in key}
        merged: Optional[dict[str, Hashable]] = None
        for subset in self._subsets_for(key):
            expression = Select(
                join_all(
                    [RelationRef(m.name, m.attributes) for m in subset]
                ),
                condition,
            )
            result = expression.evaluate(self.state)
            self.selections_issued += 1
            if len(result) > 1:
                raise InconsistentStateError(
                    "a lossless-join selection returned more than one "
                    "tuple; the state is inconsistent"
                )
            for match in result:
                self.tuples_retrieved += 1
                if merged is None:
                    merged = dict(match)
                    continue
                # All non-empty results are fragments of the unique
                # representative-instance row (Lemma 3.2(c)); the
                # greatest expression's output is their union, which we
                # assemble directly.
                joined = _join_partial(merged, match)
                if joined is None:
                    raise InconsistentStateError(
                        "lossless-join selections disagree; the state "
                        "is inconsistent"
                    )
                merged = joined
        return merged


# -- batches ------------------------------------------------------------------


def batch_per_update(
    engine: WeakInstanceEngine,
    state: DatabaseState,
    updates: Sequence[Update],
) -> BatchOutcome:
    """A batch folded one update at a time through ``engine.insert`` and
    ``engine.delete``: it stops at the first rejected insert and lets an
    error raise where it happens.  The engine's own ``batch`` must
    decide exactly this — first failure, diagnostics, final state and
    raised error — from one routed pass over the blocks."""
    current = state
    for index, (operation, relation_name, values) in enumerate(updates):
        if operation == "insert":
            outcome = engine.insert(current, relation_name, values)
            if not outcome.consistent:
                return BatchOutcome(
                    state=None,
                    applied=index,
                    failed_index=index,
                    failure=outcome,
                )
            assert outcome.state is not None
            current = outcome.state
        elif operation == "delete":
            current = engine.delete(current, relation_name, values)
        else:
            raise StateError(f"unknown batch operation {operation!r}")
    return BatchOutcome(state=current, applied=len(updates))
