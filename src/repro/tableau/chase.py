"""The chase with fd-rules.

Applying the fd-rule for ``X → A`` to two rows that agree on all
``X``-columns equates their ``A``-symbols, renaming the lesser symbol to
the preferred one; equating two distinct constants is an inconsistency
and yields the empty tableau (paper, Section 2.3).  ``CHASE_F(T)``
applies the rules exhaustively.

This module holds the worklist engine (:func:`chase`,
:func:`chase_relations`, :class:`DeltaChase`): symbols are interned to
integers whose ordering encodes the renaming precedence (constants <
distinguished < nondistinguished, within-kind ordered like
:func:`repro.tableau.symbols.preferred`), rows become int vectors kept
*eagerly resolved* (every cell always holds its class representative),
each fd-rule keeps a persistent group map from LHS signatures to the
group's RHS anchor, and a symbol-occurrence index maps every
representative to the rows that mention it. After one full initial pass,
only rows whose symbols were actually merged re-enter the worklist — the
semi-naive / dirty-row discipline — so saturated regions of the tableau
are never re-swept, and every hot dict operation hashes a small int
instead of a symbol tuple. :func:`chase_relations` additionally builds
its vectors straight from stored value tuples, skipping per-row
dict/Row/Tableau construction on the ``CHASE_F(T_r)`` hot path. The
original full-sweep engine, :func:`repro.oracle.chase_naive`, is the
differential-test oracle and the benchmark baseline.

The number of effective symbol merges (``steps``) is the "number of
fd-rule applications" the paper's boundedness arguments count (Section
2.5); it is order-invariant for fds because the chase is Church-Rosser,
so the two engines agree on it for every consistent input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Hashable, Iterable, Sequence, Tuple

from repro.fd.fdset import FDsLike, as_fdset
from repro.foundations.attrs import AttrsLike, attrs, sorted_attrs
from repro.foundations.errors import StateError
from repro.obs.spans import span
from repro.tableau.symbols import (
    KIND_CONSTANT,
    KIND_DV,
    KIND_NDV,
    Symbol,
)
from repro.tableau.tableau import Row, Tableau


class _Contradiction(Exception):
    """Two distinct constants were equated — the chase found an
    inconsistency."""


@dataclass(frozen=True)
class ChaseResult:
    """Outcome of chasing a tableau.

    ``tableau`` is the chased tableau (empty when inconsistent);
    ``consistent`` reports whether a contradiction was found; ``steps``
    counts the effective symbol merges performed; ``passes`` counts the
    propagation rounds until fixpoint (full sweeps in the naive engine,
    worklist generations in the incremental one).

    ``passes`` operationalizes boundedness (Section 2.5): on a scheme
    bounded with constant ``k``, every total tuple appears within ``k``
    fd-rule applications, so the number of rounds needed to saturate the
    tableau is scheme-bounded — while on unbounded inputs such as
    Example 2's chains it grows with the state.
    """

    tableau: Tableau
    consistent: bool
    steps: int
    passes: int = 0

    def __bool__(self) -> bool:
        return self.consistent


#: One stored relation for :func:`chase_relations`:
#: ``(tag, value columns, value vectors)``.
StoredVectors = Tuple[str, Sequence[str], Iterable[Tuple[Hashable, ...]]]

#: Interned ids for nondistinguished variables start here, above every
#: constant id, so the min-id rule automatically prefers constants.
_NDV_ID_BASE = 1 << 60


def _chase_core(
    width: int,
    cells: list[list[int]],
    rule_columns: list[tuple[list[int], int]],
    constant_bound: int,
) -> tuple[bool, int, int]:
    """Run the worklist chase over mutable interned-id row vectors.

    Ids below ``constant_bound`` denote constants; the id ordering
    encodes the renaming precedence, so the surviving representative of
    a merge is simply the smaller id, and a merge of two ids both below
    ``constant_bound`` is a contradiction.  ``cells`` is mutated in
    place: on return every vector is fully resolved (each cell holds its
    class representative).  Returns ``(consistent, steps, passes)``.
    """
    steps = 0
    # Occurrence index: representative → rows mentioning its class.
    # A superset with duplicates is fine (the rewrite rescans the whole
    # vector and dirty is a set), so rows are indexed once per cell
    # without per-row deduplication.
    occurrences: dict[int, list[int]] = {}
    occ_setdefault = occurrences.setdefault
    occ_pop = occurrences.pop
    for index, vector in enumerate(cells):
        for symbol in vector:
            occ_setdefault(symbol, []).append(index)

    # Union-find over merged-away ids, used only to resolve group
    # anchors that were merged after being recorded.
    parent: dict[int, int] = {}
    # Persistent per-rule group maps: resolved LHS signature → the RHS
    # anchor of the group.  Fresh probes only ever produce signatures of
    # current representatives, so entries whose key mentions a
    # merged-away id can never be matched again and need no purging.
    groups: list[dict] = [{} for _ in rule_columns]
    dirty: set[int] = set()
    dirty_update = dirty.update

    def combine(group: dict, signature, anchor: int, rhs_symbol: int) -> None:
        """Slow path of one fd-rule application: the group already has an
        anchor differing from this row's RHS id.  Resolves stale anchors,
        detects contradictions, performs the merge and rewrites the
        losing class everywhere it occurs, marking touched rows dirty."""
        nonlocal steps
        if anchor in parent:
            # The stored anchor was merged away since it was recorded.
            root = parent[anchor]
            while root in parent:
                root = parent[root]
            group[signature] = root
            anchor = root
            if anchor == rhs_symbol:
                return
        if anchor < rhs_symbol:
            winner, loser = anchor, rhs_symbol
        else:
            winner, loser = rhs_symbol, anchor
        if loser < constant_bound:
            # The larger id is a constant, hence so is the smaller:
            # two distinct constants were equated.
            raise _Contradiction(anchor, rhs_symbol)
        steps += 1
        group[signature] = winner
        parent[loser] = winner
        touched = occ_pop(loser, ())
        if touched:
            for row_index in touched:
                vector = cells[row_index]
                for j in range(width):
                    if vector[j] == loser:
                        vector[j] = winner
            # A winner is always a live representative, hence indexed.
            occurrences[winner].extend(touched)
            dirty_update(touched)

    def sweep(pairs) -> None:
        """Apply every rule to the given ``(row index, vector)`` pairs,
        grouping into the persistent per-rule maps.  The hot path is pure
        list indexing and int-keyed dict probing; merges divert to
        :func:`combine`."""
        for rule_index, (lhs_columns, rhs_column) in enumerate(rule_columns):
            group = groups[rule_index]
            group_get = group.get
            if len(lhs_columns) == 1:
                # Single-attribute LHS (the overwhelmingly common case
                # for key dependencies): scalar signatures, no tuple
                # allocation per row.
                lone = lhs_columns[0]
                for row_index, vector in pairs:
                    signature = vector[lone]
                    rhs_symbol = vector[rhs_column]
                    anchor = group_get(signature)
                    if anchor is None:
                        group[signature] = rhs_symbol
                    elif anchor != rhs_symbol:
                        combine(group, signature, anchor, rhs_symbol)
            else:
                for row_index, vector in pairs:
                    signature = tuple(vector[j] for j in lhs_columns)
                    rhs_symbol = vector[rhs_column]
                    anchor = group_get(signature)
                    if anchor is None:
                        group[signature] = rhs_symbol
                    elif anchor != rhs_symbol:
                        combine(group, signature, anchor, rhs_symbol)

    passes = 1
    try:
        # Initial pass: group all rows under all rules.  The pair list is
        # materialized because sweep iterates it once per rule.
        sweep(list(enumerate(cells)))
        # Worklist rounds: only the dirty frontier is re-examined.
        while dirty:
            passes += 1
            batch = [(i, cells[i]) for i in sorted(dirty)]
            dirty.clear()
            sweep(batch)
    except _Contradiction:
        return False, steps, passes
    return True, steps, passes


def _intern_symbols(
    symbols: Iterable[Symbol],
) -> tuple[dict[Symbol, int], list[Symbol], int]:
    """Assign precedence-encoding integer ids to the given symbols.

    Returns ``(symbol → id, id → symbol, constant bound)``.  Constants
    take the lowest ids (their relative order is irrelevant: merging two
    constants is a contradiction), then distinguished variables, then
    nondistinguished ones; within a kind, ids follow the same ordering
    :func:`repro.tableau.symbols.preferred` uses, so the min-id rule
    reproduces its choices exactly.
    """
    constants: list[Symbol] = []
    dvs: list[Symbol] = []
    ndvs: list[Symbol] = []
    for symbol in symbols:
        kind = symbol[0]
        if kind == KIND_CONSTANT:
            constants.append(symbol)
        elif kind == KIND_DV:
            dvs.append(symbol)
        else:
            ndvs.append(symbol)
    dvs.sort(key=lambda s: repr(s[1]))
    ndvs.sort(key=lambda s: repr(s[1]))
    table = constants + dvs + ndvs
    return {s: i for i, s in enumerate(table)}, table, len(constants)


def chase(tableau: Tableau, fds: FDsLike) -> ChaseResult:
    """Compute ``CHASE_F(tableau)`` with the worklist engine.

    The fd set is split to singleton right-hand sides.  One initial pass
    groups every row under every rule; afterwards a row re-enters the
    worklist only when one of its symbols was merged away, so each
    propagation round touches the dirty frontier instead of the whole
    tableau.  Termination is guaranteed for fds because each merge
    strictly reduces the number of symbol classes.
    """
    rules = as_fdset(fds).singleton_rules()
    rows = tableau.rows
    if not rules or not rows:
        # Mirror the naive engine: one (empty) sweep confirms fixpoint.
        return ChaseResult(tableau.copy(), consistent=True, steps=0, passes=1)

    with span("chase.tableau") as sp:
        order = sorted_attrs(tableau.universe)
        column = {a: i for i, a in enumerate(order)}
        distinct: set[Symbol] = set()
        for row in rows:
            distinct.update(row.cells.values())
        to_id, table, constant_bound = _intern_symbols(distinct)
        cells = [
            [to_id[mapping[a]] for a in order]
            for mapping in (row.cells for row in rows)
        ]
        rule_columns = [
            ([column[a] for a in lhs], column[rhs_attr])
            for lhs, rhs_attr in rules
        ]
        consistent, steps, passes = _chase_core(
            len(order), cells, rule_columns, constant_bound
        )
        if sp:
            sp.add("rows", len(cells))
            sp.add("rules", len(rule_columns))
            sp.add("steps", steps)
            sp.add("passes", passes)
            sp.add("contradictions", 0 if consistent else 1)
    if not consistent:
        return ChaseResult(
            Tableau(tableau.universe),
            consistent=False,
            steps=steps,
            passes=passes,
        )
    resolved = Tableau(
        tableau.universe,
        (
            Row(dict(zip(order, (table[i] for i in vector))), tag=row.tag)
            for vector, row in zip(cells, rows)
        ),
    )
    return ChaseResult(resolved, consistent=True, steps=steps, passes=passes)


def chase_relations(
    universe: AttrsLike,
    stored: Iterable[StoredVectors],
    fds: FDsLike,
) -> ChaseResult:
    """``CHASE_F(T_r)`` built directly from stored value vectors.

    ``stored`` yields ``(tag, columns, vectors)`` per relation, where
    each vector lists the tuple's values in ``columns`` order.  The
    state tableau is never materialized as dict-backed :class:`Row`
    objects: interned-id vectors are laid out straight from the value
    tuples (constants on the relation's columns, fresh nondistinguished
    variables elsewhere), which makes consistency checking and
    representative-instance construction markedly cheaper than
    ``chase(state.tableau(), fds)`` while producing the same result.
    """
    universe_attrs = attrs(universe)
    order = sorted_attrs(universe_attrs)
    column = {a: i for i, a in enumerate(order)}
    width = len(order)
    rules = as_fdset(fds).singleton_rules()

    # Constants are interned on the fly (ids 0, 1, ...); fresh ndvs
    # count up from _NDV_ID_BASE, so every constant id is below every
    # ndv id and the core's min-id rule prefers constants.  Which ndv of
    # a merged ndv pair survives is unobservable — every ndv is a fresh
    # variable private to this chase.
    with span("chase.relations") as sp:
        constant_ids: dict[Hashable, int] = {}
        next_ndv = count(_NDV_ID_BASE)
        cells: list[list[int]] = []
        tags: list[str] = []
        for tag, columns, vectors in stored:
            try:
                positions = [column[a] for a in columns]
            except KeyError:
                raise StateError(
                    f"relation {tag} is not contained in the universe"
                ) from None
            # Row order is free: the chase is Church-Rosser for fds, so no
            # observable output depends on it (tests assert this).
            padding = [j for j in range(width) if j not in set(positions)]
            for vector in vectors:
                row: list = [None] * width
                for position, value in zip(positions, vector):
                    row[position] = constant_ids.setdefault(
                        value, len(constant_ids)
                    )
                for j in padding:
                    row[j] = next(next_ndv)
                cells.append(row)
                tags.append(tag)

        if not rules or not cells:
            consistent, steps, passes = True, 0, 1
        else:
            rule_columns = [
                ([column[a] for a in lhs], column[rhs_attr])
                for lhs, rhs_attr in rules
            ]
            consistent, steps, passes = _chase_core(
                width, cells, rule_columns, len(constant_ids)
            )
        if sp:
            sp.add("rows", len(cells))
            sp.add("rules", len(rules))
            sp.add("steps", steps)
            sp.add("passes", passes)
            sp.add("contradictions", 0 if consistent else 1)
    if not consistent:
        return ChaseResult(
            Tableau(universe_attrs),
            consistent=False,
            steps=steps,
            passes=passes,
        )

    constant_table = [
        (KIND_CONSTANT, value)
        for value, _ in sorted(constant_ids.items(), key=lambda kv: kv[1])
    ]

    def to_symbol(interned: int) -> Symbol:
        if interned < _NDV_ID_BASE:
            return constant_table[interned]
        return (KIND_NDV, interned - _NDV_ID_BASE)

    resolved = Tableau(
        universe_attrs,
        (
            Row(dict(zip(order, map(to_symbol, vector))), tag=tag)
            for vector, tag in zip(cells, tags)
        ),
    )
    return ChaseResult(resolved, consistent=True, steps=steps, passes=passes)


@dataclass(frozen=True)
class DeltaOutcome:
    """Result of one :meth:`DeltaChase.extend`.

    ``steps`` counts the merges this extension performed (the attempted
    merges before the contradiction when rejected); ``rows_added`` is 0
    when the extension was rolled back."""

    consistent: bool
    steps: int
    passes: int
    rows_added: int

    def __bool__(self) -> bool:
        return self.consistent


class DeltaChase:
    """A persistent, incrementally extendable ``CHASE_F(T_r)``.

    Holds a chased fixpoint — interned-id row vectors, the per-rule
    group maps and the symbol-occurrence index of :func:`_chase_core` —
    across calls.  :meth:`extend` adds newly stored rows and re-chases
    *only from them*: new rows probe the persistent group maps (old rows
    never re-enter the worklist unless one of their symbols is merged),
    so the cost of absorbing a delta is proportional to the delta's
    cascade, not to the fixpoint's size.  This is what lets single-tuple
    inserts and WAL replay skip re-chasing the whole representative
    instance.

    Every mutation an extension performs is journaled; when the delta
    equates two constants the extension rolls back completely, leaving
    the previous fixpoint intact — a rejected insert costs its own
    cascade, never the basis.

    Cumulative ``steps`` equals the from-scratch chase's count on every
    consistent history (both equal the number of symbol classes merged
    away, which Church-Rosser makes order-invariant), so maintenance
    diagnostics built on a delta basis match the full re-chase exactly;
    the differential suite asserts this against
    :func:`repro.oracle.chase_naive`.

    Not thread-safe: callers serialize extensions.
    """

    def __init__(self, universe: AttrsLike, fds: FDsLike) -> None:
        universe_attrs = attrs(universe)
        self.universe = universe_attrs
        self._order = sorted_attrs(universe_attrs)
        self._column = {a: i for i, a in enumerate(self._order)}
        self._width = len(self._order)
        self._rule_columns = [
            ([self._column[a] for a in lhs], self._column[rhs_attr])
            for lhs, rhs_attr in as_fdset(fds).singleton_rules()
        ]
        self._cells: list[list[int]] = []
        self._tags: list[str] = []
        self._constant_ids: dict[Hashable, int] = {}
        self._constant_table: list[Symbol] = []
        self._next_ndv = _NDV_ID_BASE
        self._occurrences: dict[int, list[int]] = {}
        self._parent: dict[int, int] = {}
        self._groups: list[dict] = [{} for _ in self._rule_columns]
        self._steps = 0
        self._passes = 0

    @property
    def rows(self) -> int:
        return len(self._cells)

    @property
    def steps(self) -> int:
        """Cumulative merges over every accepted extension — equal to a
        from-scratch chase of the same rows."""
        return self._steps

    @property
    def passes(self) -> int:
        return self._passes

    # -- the journaled worklist ------------------------------------------------
    def _combine(
        self,
        journal: list,
        dirty: set[int],
        group: dict,
        rule_index: int,
        signature,
        anchor: int,
        rhs_symbol: int,
    ) -> None:
        """The slow path of one rule application, mirroring
        :func:`_chase_core`'s ``combine`` with every mutation journaled
        (journal entries precede their mutations; rollback replays them
        in reverse)."""
        parent = self._parent
        if anchor in parent:
            root = parent[anchor]
            while root in parent:
                root = parent[root]
            journal.append(("gset", rule_index, signature, anchor))
            group[signature] = root
            anchor = root
            if anchor == rhs_symbol:
                return
        if anchor < rhs_symbol:
            winner, loser = anchor, rhs_symbol
        else:
            winner, loser = rhs_symbol, anchor
        if loser < _NDV_ID_BASE:
            # Constants intern below every ndv id, so a constant loser
            # means both sides are constants: a contradiction.
            raise _Contradiction(anchor, rhs_symbol)
        self._steps += 1
        journal.append(("gset", rule_index, signature, anchor))
        group[signature] = winner
        journal.append(("parent", loser))
        parent[loser] = winner
        touched = self._occurrences.pop(loser, None)
        if touched is not None:
            journal.append(("occpop", loser, touched))
        if touched:
            cells = self._cells
            width = self._width
            for row_index in touched:
                vector = cells[row_index]
                journal.append(("row", row_index, vector.copy()))
                for j in range(width):
                    if vector[j] == loser:
                        vector[j] = winner
            winner_list = self._occurrences.setdefault(winner, [])
            journal.append(("occ", winner, len(winner_list)))
            winner_list.extend(touched)
            dirty.update(touched)

    def _sweep(self, journal: list, dirty: set[int], pairs: list) -> None:
        for rule_index, (lhs_columns, rhs_column) in enumerate(
            self._rule_columns
        ):
            group = self._groups[rule_index]
            group_get = group.get
            if len(lhs_columns) == 1:
                lone = lhs_columns[0]
                for row_index, vector in pairs:
                    signature = vector[lone]
                    rhs_symbol = vector[rhs_column]
                    anchor = group_get(signature)
                    if anchor is None:
                        journal.append(("gnew", rule_index, signature))
                        group[signature] = rhs_symbol
                    elif anchor != rhs_symbol:
                        self._combine(
                            journal,
                            dirty,
                            group,
                            rule_index,
                            signature,
                            anchor,
                            rhs_symbol,
                        )
            else:
                for row_index, vector in pairs:
                    signature = tuple(vector[j] for j in lhs_columns)
                    rhs_symbol = vector[rhs_column]
                    anchor = group_get(signature)
                    if anchor is None:
                        journal.append(("gnew", rule_index, signature))
                        group[signature] = rhs_symbol
                    elif anchor != rhs_symbol:
                        self._combine(
                            journal,
                            dirty,
                            group,
                            rule_index,
                            signature,
                            anchor,
                            rhs_symbol,
                        )

    def _rollback(
        self,
        journal: list,
        base_rows: int,
        base_constants: int,
        base_ndv: int,
        base_steps: int,
    ) -> None:
        cells = self._cells
        occurrences = self._occurrences
        groups = self._groups
        for entry in reversed(journal):
            kind = entry[0]
            if kind == "row":
                cells[entry[1]][:] = entry[2]
            elif kind == "gnew":
                del groups[entry[1]][entry[2]]
            elif kind == "gset":
                groups[entry[1]][entry[2]] = entry[3]
            elif kind == "parent":
                del self._parent[entry[1]]
            elif kind == "occpop":
                occurrences[entry[1]] = entry[2]
            elif kind == "occ":
                del occurrences[entry[1]][entry[2]:]
            else:  # "const"
                del self._constant_ids[entry[1]]
        del cells[base_rows:]
        del self._tags[base_rows:]
        del self._constant_table[base_constants:]
        self._next_ndv = base_ndv
        self._steps = base_steps

    # -- public API ------------------------------------------------------------
    def extend(self, stored: Iterable[StoredVectors]) -> DeltaOutcome:
        """Absorb newly stored rows into the fixpoint.

        ``stored`` follows the :func:`chase_relations` layout.  Rows
        already part of the basis must not be re-presented (relations
        are sets; callers dedup).  On a contradiction every effect of
        this call is rolled back and ``consistent=False`` returned."""
        journal: list = []
        base_rows = len(self._cells)
        base_constants = len(self._constant_table)
        base_ndv = self._next_ndv
        base_steps = self._steps
        width = self._width
        column = self._column
        cells = self._cells
        tags = self._tags
        constant_ids = self._constant_ids
        constant_table = self._constant_table
        occurrences = self._occurrences
        with span("chase.delta") as sp:
            new_pairs: list[tuple[int, list[int]]] = []
            for tag, columns, vectors in stored:
                try:
                    positions = [column[a] for a in columns]
                except KeyError:
                    raise StateError(
                        f"relation {tag} is not contained in the universe"
                    ) from None
                padding = [
                    j for j in range(width) if j not in set(positions)
                ]
                for vector in vectors:
                    row: list = [None] * width
                    for position, value in zip(positions, vector):
                        interned = constant_ids.get(value)
                        if interned is None:
                            interned = len(constant_table)
                            journal.append(("const", value))
                            constant_ids[value] = interned
                            constant_table.append((KIND_CONSTANT, value))
                        row[position] = interned
                    for j in padding:
                        row[j] = self._next_ndv
                        self._next_ndv += 1
                    index = len(cells)
                    cells.append(row)
                    tags.append(tag)
                    new_pairs.append((index, row))
            # New rows are born resolved: constants never lose a merge
            # and fresh ndvs are new classes, so indexing them is enough.
            for index, row in new_pairs:
                for symbol in row:
                    bucket = occurrences.get(symbol)
                    if bucket is None:
                        bucket = occurrences[symbol] = []
                    journal.append(("occ", symbol, len(bucket)))
                    bucket.append(index)

            passes = 0
            rejected = False
            dirty: set[int] = set()
            if self._rule_columns and new_pairs:
                try:
                    passes = 1
                    self._sweep(journal, dirty, new_pairs)
                    while dirty:
                        passes += 1
                        batch = [(i, cells[i]) for i in sorted(dirty)]
                        dirty.clear()
                        self._sweep(journal, dirty, batch)
                except _Contradiction:
                    rejected = True
            else:
                passes = 1
            attempted = self._steps - base_steps
            if rejected:
                self._rollback(
                    journal, base_rows, base_constants, base_ndv, base_steps
                )
            else:
                self._passes += passes
            if sp:
                sp.add("rows", len(new_pairs))
                sp.add("steps", attempted)
                sp.add("passes", passes)
                sp.add("contradictions", 1 if rejected else 0)
        return DeltaOutcome(
            consistent=not rejected,
            steps=attempted,
            passes=passes,
            rows_added=0 if rejected else len(new_pairs),
        )

    def result(self) -> ChaseResult:
        """The current fixpoint materialized as a
        :class:`ChaseResult` — same layout :func:`chase_relations`
        produces for the same rows."""
        table = self._constant_table
        order = self._order

        def to_symbol(interned: int) -> Symbol:
            if interned < _NDV_ID_BASE:
                return table[interned]
            return (KIND_NDV, interned - _NDV_ID_BASE)

        resolved = Tableau(
            self.universe,
            (
                Row(dict(zip(order, map(to_symbol, vector))), tag=tag)
                for vector, tag in zip(self._cells, self._tags)
            ),
        )
        return ChaseResult(
            resolved,
            consistent=True,
            steps=self._steps,
            passes=self._passes,
        )


def satisfies(tableau: Tableau, fds: FDsLike) -> bool:
    """True iff the tableau, read as a relation of symbols, satisfies the
    fds — i.e. the chase performs no merge at all."""
    result = chase(tableau, fds)
    return result.consistent and result.steps == 0
