"""Independence-reducible database schemes: KEP and the recognition
algorithm (paper, Sections 4, 5.1, 5.2).

``R`` is *independence-reducible* when its relation schemes admit a
partition into key-equivalent blocks whose block-union scheme ``D`` is
independent.  ``KEP`` computes the (unique) key-equivalent partition;
Algorithm 6 accepts exactly the independence-reducible schemes by
testing independence of the scheme induced by that partition
(Theorem 5.1 and Corollary 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.independence import uniqueness_violations
from repro.fd.fdset import FDSet
from repro.foundations.attrs import fmt_attrs, sorted_attrs, union_all
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.relation_scheme import RelationScheme


def key_equivalent_partition(
    scheme: DatabaseScheme,
) -> list[DatabaseScheme]:
    """``KEP(R, F)``: the key-equivalent partition of the scheme.

    Members are grouped by their attribute closure under the current
    (sub)scheme's embedded key dependencies; groups are re-partitioned
    recursively under their own embedded dependencies until stable
    (function KEP, Section 5.1).  Each returned block is a sub-scheme
    that is key-equivalent with respect to its own key dependencies
    (Lemma 5.1), and the partition is the coarsest such (Lemma 5.2).
    """
    groups: dict[frozenset[str], list[RelationScheme]] = {}
    for member in scheme.relations:
        closure = scheme.fds.closure(member.attributes)
        groups.setdefault(closure, []).append(member)
    if len(groups) == 1:
        return [scheme]
    partition: list[DatabaseScheme] = []
    for closure in sorted(groups, key=lambda c: tuple(sorted(c))):
        block = scheme.subscheme(groups[closure])
        partition.extend(key_equivalent_partition(block))
    return partition


def induced_scheme(blocks: Sequence[DatabaseScheme]) -> DatabaseScheme:
    """The database scheme ``D = {∪T1, ..., ∪Tk}`` induced by a
    partition: one relation scheme per block over the block's attribute
    union, declaring the minimal keys among the block members' keys.

    Within a key-equivalent block every declared key determines the
    whole block union, so the candidate keys of ``∪Tp`` with respect to
    the block's key dependencies are exactly the inclusion-minimal
    declared keys; the induced key dependencies form a cover of the
    block's (Corollary 4.1).
    """
    members: list[RelationScheme] = []
    for index, block in enumerate(blocks, start=1):
        attributes = union_all(m.attributes for m in block.relations)
        declared = {key for m in block.relations for key in m.keys}
        # Iterate in canonical order: the key list below shapes the
        # induced RelationScheme and must not depend on the hash seed.
        minimal = [
            key
            for key in sorted(declared, key=sorted_attrs)
            if not any(other < key for other in declared)
        ]
        members.append(RelationScheme(f"D{index}", attributes, minimal))
    return DatabaseScheme(members)


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of Algorithm 6.

    ``accepted`` — whether the scheme is independence-reducible;
    ``partition`` — the key-equivalent partition (always computed);
    ``induced`` — the corresponding induced scheme ``D``;
    ``embedded_cover`` — per-block key-dependency sets ``F1,...,Fn``;
    ``rejection_reason`` — a human-readable account when rejected.
    """

    accepted: bool
    partition: tuple[DatabaseScheme, ...]
    induced: DatabaseScheme
    embedded_cover: tuple[FDSet, ...]
    rejection_reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted

    def block_of(self, relation_name: str) -> DatabaseScheme:
        """The partition block containing the named relation scheme."""
        for block in self.partition:
            if relation_name in block:
                return block
        raise KeyError(relation_name)

    def describe(self) -> str:
        lines = [
            "independence-reducible" if self.accepted else
            f"NOT independence-reducible: {self.rejection_reason}",
            "key-equivalent partition:",
        ]
        for block, induced_member in zip(self.partition, self.induced):
            names = ", ".join(member.name for member in block.relations)
            lines.append(
                f"  {induced_member.name}"
                f"({fmt_attrs(induced_member.attributes)}) = {{{names}}}"
            )
        return "\n".join(lines)


def recognize_independence_reducible(
    scheme: DatabaseScheme,
) -> RecognitionResult:
    """Algorithm 6: recognize independence-reducible database schemes.

    Step (1) computes the key-equivalent partition via KEP; step (2)
    collects each block's embedded key dependencies; step (3) accepts
    iff the induced scheme ``D`` is independent (uniqueness condition).
    Polynomial in the scheme size (Corollary 5.4).
    """
    partition = tuple(key_equivalent_partition(scheme))
    induced = induced_scheme(partition)
    covers = tuple(block.fds for block in partition)
    violations = uniqueness_violations(induced)
    if not violations:
        return RecognitionResult(
            accepted=True,
            partition=partition,
            induced=induced,
            embedded_cover=covers,
        )
    detail = "; ".join(
        f"({left})+ under F−F_{right} embeds key dependency "
        f"{fmt_attrs(key)}→{attribute} of {right}"
        for left, right, key, attribute in violations[:3]
    )
    return RecognitionResult(
        accepted=False,
        partition=partition,
        induced=induced,
        embedded_cover=covers,
        rejection_reason=f"induced scheme not independent: {detail}",
    )


def is_independence_reducible(scheme: DatabaseScheme) -> bool:
    """Convenience wrapper around Algorithm 6."""
    return recognize_independence_reducible(scheme).accepted


