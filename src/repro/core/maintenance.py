"""Incremental constraint enforcement (paper, Sections 3.2 and 3.3).

Three maintenance strategies for insertions into consistent states on
key-equivalent schemes, all validated against the full-chase baseline:

* **Algorithm 5** (:func:`ctm_insert`) — for *split-free* key-equivalent
  schemes: extend the inserted tuple along each of its keys with
  Algorithm 4 (:func:`extend_tuple`) and join the extensions; the number
  of tuples retrieved depends only on the scheme (Theorem 3.3).
* **Algorithm 2** (:func:`algebraic_insert`) — for any key-equivalent
  scheme: repeatedly join the inserted tuple with the representative-
  instance tuple sharing each newly available key (Theorem 3.1).  The
  representative-instance lookup is pluggable (:class:`RILookup`):
  production passes the compiled Theorem 3.2 expressions of
  :class:`repro.compile.lookup.CompiledRILookup`; the reference lookups
  live in :mod:`repro.oracle`.
* **Full chase** — :func:`repro.state.consistency.maintain_by_chase`.

Every routine reports how many stored tuples it retrieved, which is the
quantity the paper's ctm lower bound (Theorem 3.4) speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Protocol

from repro.core.key_equivalent import require_key_equivalent
from repro.core.split import is_split_free
from repro.foundations.attrs import fmt_attrs, sorted_attrs
from repro.foundations.errors import (
    InconsistentStateError,
    NotApplicableError,
    StateError,
)
from repro.state.consistency import MaintenanceOutcome
from repro.state.database_state import DatabaseState


class StateIndex:
    """Key-indexed probes into a state's relations, with their counts.

    Models the storage layer the ctm definition assumes: a single-tuple
    conjunctive selection ``σ_{K='k'}(π_X(Ri))`` is one indexed probe.
    The hash indexes are the relations' own
    (:meth:`~repro.state.relation.Relation.key_index`), built once per
    relation object and carried across writes, so a probe costs the
    same at every state size.  Probes and retrieved-tuple counts are
    accumulated for the experiments.
    """

    def __init__(self, state: DatabaseState) -> None:
        self.state = state
        self.scheme = state.scheme
        self.tuples_retrieved = 0
        self.probes = 0

    def lookup(
        self,
        relation_name: str,
        key: frozenset[str],
        key_values: Mapping[str, Hashable],
    ) -> list[dict[str, Hashable]]:
        """All tuples of the relation matching the key values; counts the
        probe and the retrieved tuples."""
        ordered = tuple(sorted_attrs(key))
        relation = self.state[relation_name]
        matches = relation.key_index(ordered).get(
            tuple(key_values[a] for a in ordered), ()
        )
        self.probes += 1
        self.tuples_retrieved += len(matches)
        return [dict(zip(relation.columns, row)) for row in matches]


@dataclass(frozen=True)
class Extension:
    """Result of Algorithm 4: the extended total tuple ``t'`` on the
    attribute set ``C`` it reached."""

    values: dict[str, Hashable]
    attributes: frozenset[str]


def extend_tuple(
    index: StateIndex,
    key: frozenset[str],
    key_values: Mapping[str, Hashable],
) -> Extension:
    """Algorithm 4: extend a tuple on a key as far as the stored tuples
    allow, following declared keys.

    While some member ``Si`` has a declared key inside the current
    attribute set ``C``, contributes new attributes, and stores a tuple
    matching the extension on that key, absorb that tuple.  On a
    consistent state the result is independent of the absorption order
    (Lemma 3.3(b)); conflicting absorptions mean the input state was
    inconsistent.
    """
    scheme = index.scheme
    extension: dict[str, Hashable] = {a: key_values[a] for a in key}
    covered = set(key)
    grew = True
    while grew:
        grew = False
        for member in scheme.relations:
            if member.attributes <= covered:
                continue
            for member_key in member.keys:
                if not member_key <= covered:
                    continue
                matches = index.lookup(
                    member.name, member_key, extension
                )
                if len(matches) > 1:
                    raise InconsistentStateError(
                        f"{member.name} stores {len(matches)} tuples for key "
                        f"{fmt_attrs(member_key)}; the state violates its "
                        "key dependencies"
                    )
                if not matches:
                    continue
                match = matches[0]
                for attribute, value in match.items():
                    # Membership, not truthiness/None checks: stored
                    # constants may legitimately be None or falsy.
                    if attribute in extension and extension[attribute] != value:
                        raise InconsistentStateError(
                            "conflicting extensions; the input state was "
                            "not consistent"
                        )
                    extension[attribute] = value
                covered |= member.attributes
                grew = True
                break
    return Extension(values=extension, attributes=frozenset(covered))


def _join_partial(
    left: dict[str, Hashable], right: Mapping[str, Hashable]
) -> Optional[dict[str, Hashable]]:
    """Join two partial tuples on their common attributes; None when the
    join is empty (a disagreement)."""
    merged = dict(left)
    for attribute, value in right.items():
        if attribute in merged and merged[attribute] != value:
            return None
        merged[attribute] = value
    return merged


def ctm_insert(
    state: DatabaseState,
    relation_name: str,
    values: Mapping[str, Hashable],
    *,
    index: Optional[StateIndex] = None,
    check_scheme: bool = True,
) -> MaintenanceOutcome:
    """Algorithm 5: constant-time maintenance for split-free
    key-equivalent schemes.

    For each key of the target relation, extend the inserted tuple with
    Algorithm 4 and join the extensions with the tuple; the insertion is
    consistent iff the join is non-empty (Lemma 3.4).
    """
    scheme = state.scheme
    if check_scheme:
        require_key_equivalent(scheme)
        if not is_split_free(scheme):
            raise NotApplicableError(
                "Algorithm 5 requires a split-free scheme (Theorem 3.3); "
                "use algebraic_insert for split key-equivalent schemes"
            )
    member = scheme[relation_name]
    if frozenset(values) != member.attributes:
        raise StateError(
            f"tuple attributes do not match {relation_name}'s scheme"
        )
    if index is None:
        index = StateIndex(state)
    before = index.tuples_retrieved
    joined: Optional[dict[str, Hashable]] = dict(values)
    for key in member.keys:
        extension = extend_tuple(index, key, {a: values[a] for a in key})
        joined = _join_partial(joined, extension.values) if joined else None
        if joined is None:
            break
    retrieved = index.tuples_retrieved - before
    if joined is None:
        return MaintenanceOutcome(
            consistent=False, state=None, tuples_examined=retrieved
        )
    return MaintenanceOutcome(
        consistent=True,
        state=state.insert(relation_name, values),
        tuples_examined=retrieved,
        witness=joined,
    )


class RILookup(Protocol):
    """Find the representative-instance row total on a key with the given
    values — the step-(4) lookup of Algorithm 2."""

    def find(
        self, key: frozenset[str], values: Mapping[str, Hashable]
    ) -> Optional[dict[str, Hashable]]: ...

    @property
    def tuples_retrieved(self) -> int: ...


@dataclass(frozen=True)
class InsertTraceStep:
    """One iteration of Algorithm 2's while loop: the key processed,
    the representative-instance row found for it (None when absent),
    and the accumulated tuple ``q`` after the join (None when the join
    emptied and the insert was rejected)."""

    key: frozenset[str]
    found: Optional[dict[str, Hashable]]
    joined: Optional[dict[str, Hashable]]

    def render(self) -> str:
        key_text = fmt_attrs(self.key)
        if self.joined is None:
            return (
                f"key {key_text}: found {self.found} — join EMPTY, output no"
            )
        found_text = self.found if self.found is not None else "(no row)"
        return f"key {key_text}: found {found_text} → q = {self.joined}"


def algebraic_insert(
    state: DatabaseState,
    relation_name: str,
    values: Mapping[str, Hashable],
    *,
    lookup: RILookup,
    check_scheme: bool = True,
    trace: Optional[list[InsertTraceStep]] = None,
) -> MaintenanceOutcome:
    """Algorithm 2: insert validation for key-equivalent schemes.

    Starting from the keys of the target relation, repeatedly join the
    inserted tuple with the representative-instance row sharing each
    processed key; newly covered attributes may embed further keys,
    which are processed in turn.  The updated state is consistent iff no
    join ever empties (Theorem 3.1).  ``lookup`` answers the
    representative-instance probes (see :class:`RILookup`).

    Pass a list as ``trace`` to receive one :class:`InsertTraceStep`
    per loop iteration — the paper's Example 6 walk-through, machine
    readable.
    """
    scheme = state.scheme
    if check_scheme:
        require_key_equivalent(scheme)
    member = scheme[relation_name]
    if frozenset(values) != member.attributes:
        raise StateError(
            f"tuple attributes do not match {relation_name}'s scheme"
        )
    unprocessed = {frozenset(key) for key in member.keys}
    processed: set[frozenset[str]] = set()
    closure = set(member.attributes)
    joined: dict[str, Hashable] = dict(values)

    while unprocessed:
        key = min(unprocessed, key=lambda k: tuple(sorted(k)))
        row = lookup.find(key, joined)
        if row is not None:
            piece: Mapping[str, Hashable] = row
            covered = frozenset(row)
        else:
            piece = {a: joined[a] for a in key}
            covered = key
        merged = _join_partial(joined, piece)
        if trace is not None:
            trace.append(
                InsertTraceStep(
                    key=key,
                    found=dict(row) if row is not None else None,
                    joined=dict(merged) if merged is not None else None,
                )
            )
        if merged is None:
            return MaintenanceOutcome(
                consistent=False,
                state=None,
                tuples_examined=lookup.tuples_retrieved,
            )
        joined = merged
        closure |= covered
        processed.add(key)
        unprocessed = {
            frozenset(k) for k in scheme.keys_embedded_in(closure)
        } - processed

    return MaintenanceOutcome(
        consistent=True,
        state=state.insert(relation_name, values),
        tuples_examined=lookup.tuples_retrieved,
        witness=joined,
    )
