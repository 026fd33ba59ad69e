"""Key-equivalent database schemes (paper, Section 3).

``S`` is *key-equivalent* with respect to its embedded key dependencies
``F`` when every member's attribute closure is the whole universe:
``Si⁺ = ∪S`` for all ``Si``.  Key-equivalent schemes are BCNF
(Lemma 3.1), bounded (Corollary 3.1) and algebraic-maintainable
(Theorem 3.2).

This module provides the recognition test, Algorithm 1 (the specialized
chase that computes the representative instance by promoting whole
tuples), and the Corollary 3.1(b) total-projection expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

from repro.algebra.expressions import (
    Expression,
    Project,
    RelationRef,
    join_all,
    union_all_exprs,
)
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs, sorted_attrs
from repro.foundations.errors import (
    InconsistentStateError,
    NotApplicableError,
    SchemaError,
)
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.lossless import minimal_lossless_subsets_covering
from repro.state.database_state import DatabaseState


def is_key_equivalent(scheme: DatabaseScheme) -> bool:
    """True iff every member's closure (under the scheme's embedded key
    dependencies) is the whole universe."""
    return all(
        scheme.fds.closure(member.attributes) == scheme.universe
        for member in scheme.relations
    )


def require_key_equivalent(scheme: DatabaseScheme) -> None:
    """Raise :class:`NotApplicableError` unless the scheme is
    key-equivalent."""
    if not is_key_equivalent(scheme):
        raise NotApplicableError(
            f"scheme {scheme} is not key-equivalent; this algorithm's "
            "preconditions (Section 3) do not hold"
        )


@dataclass
class KERepInstance:
    """The representative instance of a consistent state on a
    key-equivalent scheme, as produced by Algorithm 1.

    Each entry of ``classes`` is the constant components of one row of
    the chased tableau (every nondistinguished variable is distinct, so
    only the constants matter — Corollary 3.1(a)).  ``merge_steps``
    counts the tuple-promotion steps Algorithm 1 performed.
    """

    universe: frozenset[str]
    classes: list[dict[str, Hashable]]
    merge_steps: int
    _key_index: dict[tuple, dict[str, Hashable]] = field(
        default_factory=dict, repr=False
    )

    def lookup(
        self, key: AttrsLike, values: Sequence[Hashable]
    ) -> Optional[dict[str, Hashable]]:
        """The unique row total on ``key`` with the given key values (in
        sorted-attribute order), or None.  Uniqueness is Lemma 3.2(c).

        Uses the index built by :meth:`register_keys` when available and
        falls back to a linear scan otherwise.
        """
        ordered = tuple(sorted_attrs(attrs(key)))
        wanted = tuple(values)
        if self._key_index:
            return self._key_index.get((ordered, wanted))
        for row in self.classes:
            if all(a in row for a in ordered):
                if tuple(row[a] for a in ordered) == wanted:
                    return row
        return None

    def register_keys(self, keys: Iterable[AttrsLike]) -> None:
        """Pre-index the rows by the given keys (the scheme's key set);
        subsequent lookups are O(1)."""
        index: dict[tuple, dict[str, Hashable]] = {}
        for key in keys:
            ordered = tuple(sorted_attrs(attrs(key)))
            for row in self.classes:
                if all(a in row for a in ordered):
                    signature = (ordered, tuple(row[a] for a in ordered))
                    existing = index.get(signature)
                    if existing is not None and existing is not row:
                        if existing != row:
                            raise InconsistentStateError(
                                "two representative-instance rows share key "
                                f"{fmt_attrs(frozenset(ordered))}"
                            )
                    index[signature] = row
        self._key_index = index

    def total_projection(self, attributes: AttrsLike) -> set[tuple]:
        """``[X]`` read off the representative instance."""
        ordered = sorted_attrs(attrs(attributes))
        return {
            tuple(row[a] for a in ordered)
            for row in self.classes
            if all(a in row for a in ordered)
        }


class _ClassMerger:
    """Union-find over tuple classes whose payload is the merged
    constant-component dict; merging conflicting constants signals an
    inconsistent state."""

    def __init__(self, payloads: list[dict[str, Hashable]]) -> None:
        self.payloads = payloads
        self.parent = list(range(len(payloads)))
        self.steps = 0

    def find(self, index: int) -> int:
        root = index
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[index] != root:
            self.parent[index], index = root, self.parent[index]
        return root

    def union(self, left: int, right: int) -> bool:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return False
        big = self.payloads[left_root]
        small = self.payloads[right_root]
        if len(big) < len(small):
            left_root, right_root = right_root, left_root
            big, small = small, big
        for attribute, value in small.items():
            # Membership, not None checks: None is a legal constant.
            if attribute not in big:
                big[attribute] = value
            elif big[attribute] != value:
                raise InconsistentStateError(
                    f"conflicting constants for {attribute}: "
                    f"{big[attribute]!r} vs {value!r}"
                )
        self.parent[right_root] = left_root
        self.steps += 1
        return True


def key_equivalent_chase(
    state: DatabaseState, *, check_scheme: bool = True
) -> Optional[KERepInstance]:
    """Algorithm 1: chase a state on a key-equivalent scheme.

    Returns the representative instance, or None when the state is
    inconsistent (the paper's algorithm assumes consistency; detecting
    the contradiction instead of presuming it makes the routine usable
    as a consistency check as well).

    Step (1) merges any two tuples that agree on a key embedded in the
    scheme but whose constant components differ, promoting constants in
    both directions; step (2) drops duplicate classes.
    """
    scheme = state.scheme
    if check_scheme:
        require_key_equivalent(scheme)
    payloads: list[dict[str, Hashable]] = []
    for name, relation in state:
        for values in relation:
            payloads.append(dict(values))
    merger = _ClassMerger(payloads)
    keys = [tuple(sorted_attrs(key)) for key in scheme.all_keys()]

    try:
        changed = True
        while changed:
            changed = False
            for ordered_key in keys:
                anchors: dict[tuple, int] = {}
                for index in range(len(payloads)):
                    root = merger.find(index)
                    row = payloads[root]
                    if not all(a in row for a in ordered_key):
                        continue
                    signature = tuple(row[a] for a in ordered_key)
                    anchor = anchors.setdefault(signature, root)
                    if anchor != root and merger.union(anchor, root):
                        changed = True
    except InconsistentStateError:
        return None

    distinct: list[dict[str, Hashable]] = []
    seen_roots: set[int] = set()
    seen_rows: set[tuple] = set()
    for index in range(len(payloads)):
        root = merger.find(index)
        if root in seen_roots:
            continue
        seen_roots.add(root)
        row = payloads[root]
        identity = tuple(sorted(row.items()))
        if identity not in seen_rows:
            seen_rows.add(identity)
            distinct.append(row)
    instance = KERepInstance(
        universe=scheme.universe, classes=distinct, merge_steps=merger.steps
    )
    instance.register_keys(scheme.all_keys())
    return instance


def key_equivalent_representative_instance(
    state: DatabaseState,
) -> KERepInstance:
    """Algorithm 1, raising on inconsistent input."""
    instance = key_equivalent_chase(state)
    if instance is None:
        raise InconsistentStateError("state admits no weak instance")
    return instance


def total_projection_expression(
    scheme: DatabaseScheme, attributes: AttrsLike
) -> Expression:
    """The predetermined expression of Corollary 3.1(b): the X-total
    projection equals the union of projections onto ``X`` of the joins
    of (minimal) lossless subsets of the scheme covering ``X``.

    Minimal subsets suffice: a larger lossless join projects to a subset
    of what any of its lossless sub-joins projects to.
    """
    target = attrs(attributes)
    subsets = minimal_lossless_subsets_covering(scheme, target)
    if not subsets:
        raise SchemaError(
            f"no lossless subset of {scheme} covers {fmt_attrs(target)}"
        )
    branches = [
        Project(
            join_all(
                [RelationRef(member.name, member.attributes) for member in subset]
            ),
            target,
        )
        for subset in subsets
    ]
    return union_all_exprs(branches)


def total_projection_key_equivalent(
    state: DatabaseState, attributes: AttrsLike
) -> set[tuple]:
    """Evaluate the Corollary 3.1(b) expression on a state, returning
    value tuples in canonical attribute order."""
    target = attrs(attributes)
    expression = total_projection_expression(state.scheme, target)
    relation = expression.evaluate(state)
    ordered = sorted_attrs(target)
    return {tuple(row[a] for a in ordered) for row in relation}
