"""Columnar storage for compiled kernels: value interning and caches.

The interpreted pipeline hashes full Python value tuples at every join
and rebuilds :class:`~repro.state.relation.Relation` objects between
operators.  The compiled kernels instead run over *interned* columns:
every stored constant is mapped once to a small integer code and each
relation is transposed into one ``array('q')`` per attribute, so joins,
semi-joins and selections compare and hash machine integers.

:class:`ColumnStore` owns the interner plus two derived caches —
columnar transpositions and hash indexes — keyed by relation object
*identity*.  Relations are immutable, and entries keep a strong
reference to their relation, so an ``id`` can never be recycled while
its entry lives (the same contract as the engine's chase memo).  An
insert produces a new ``Relation`` only for the written relation; every
untouched relation keeps its identity, hence its columns and indexes.
"""

from __future__ import annotations

import threading
from array import array
from itertools import groupby
from typing import Hashable, Optional, Sequence

from repro.state.relation import Relation


class ColumnarRelation:
    """One relation transposed into interned integer columns.

    ``columns`` is the relation's canonical (sorted) attribute order and
    ``cols[i]`` the ``array('q')`` of codes for ``columns[i]``; row ``j``
    of the relation is ``tuple(col[j] for col in cols)``.
    """

    __slots__ = ("relation", "columns", "cols", "nrows")

    def __init__(
        self,
        relation: Relation,
        columns: tuple[str, ...],
        cols: tuple[array, ...],
        nrows: int,
    ) -> None:
        self.relation = relation
        self.columns = columns
        self.cols = cols
        self.nrows = nrows


class ColumnStore:
    """Interner + per-relation columnar/index caches, shared by every
    compiled program of one engine (or standalone maintainer).

    Thread-safe: the serving layer runs reader queries concurrently, so
    every cache probe holds the lock.  Compaction (dropping the interner
    when it outgrows ``max_values``) only happens between runs — a
    running program brackets itself with :meth:`begin`/:meth:`end`, and
    compaction is deferred while any run is active, so one execution
    never mixes codes from two interner generations.
    """

    def __init__(
        self, max_values: int = 1 << 20, max_relations: int = 1024
    ) -> None:
        self.max_values = max_values
        self.max_relations = max_relations
        self._lock = threading.Lock()
        self._codes: dict[Hashable, int] = {}  # guarded-by: _lock
        self._decode: list[Hashable] = []  # guarded-by: _lock (writes)
        self._columnar: dict[int, ColumnarRelation] = {}  # guarded-by: _lock
        #: (id(relation), positions) → (relation, code-key → row indexes)
        self._indexes: dict = {}  # guarded-by: _lock
        #: (id(relation), positions) → (relation, cols, nrows) — cached
        #: projection-pushdown gathers (column trim + dedup).
        self._trims: dict = {}  # guarded-by: _lock
        self._active = 0  # guarded-by: _lock
        self._generation = 0  # guarded-by: _lock (writes)

    # -- run bracketing ---------------------------------------------------------
    def begin(self) -> None:
        """Enter one program run; compacts first when safe and needed."""
        with self._lock:
            if self._active == 0 and (
                len(self._decode) > self.max_values
                or len(self._columnar) > self.max_relations
            ):
                self._columnar.clear()
                self._indexes.clear()
                self._trims.clear()
                if len(self._decode) > self.max_values:
                    self._codes.clear()
                    self._decode.clear()
                self._generation += 1
            self._active += 1

    def end(self) -> None:
        """Leave one program run."""
        with self._lock:
            self._active -= 1

    @property
    def generation(self) -> int:
        """How many times the store compacted (observability/tests)."""
        return self._generation

    @property
    def distinct_values(self) -> int:
        """Interned-value count (observability/tests)."""
        with self._lock:
            return len(self._decode)

    # -- interning --------------------------------------------------------------
    def encode_existing(self, value: Hashable) -> Optional[int]:
        """The code of an already-interned value, or ``None``.

        Selection constants and lookup parameters never *create* codes:
        a value absent from the interner cannot occur in any stored
        column, so the selection is empty.
        """
        with self._lock:
            return self._codes.get(value)

    def decoder(self) -> Sequence[Hashable]:
        """The append-only ``code → value`` table.

        Safe to read lock-free: codes are only handed out after their
        value is appended, and the list is replaced — never shrunk —
        under the run-bracketing rules above.
        """
        return self._decode

    # -- derived caches ---------------------------------------------------------
    def columnar(self, relation: Relation) -> ColumnarRelation:
        """The interned transposition of ``relation``, cached by identity.

        Interns column by column.  The values a column brings that the
        interner has not seen get their codes in ``repr`` order, not in
        row order: rows live in a ``frozenset``, so row order follows
        the hash seed, and codes must not."""
        with self._lock:
            entry = self._columnar.get(id(relation))
            if entry is not None and entry.relation is relation:
                return entry
            codes = self._codes
            decode = self._decode
            columns = relation.columns
            rows = relation.row_vectors
            value_columns = zip(*rows) if rows else [()] * len(columns)
            cols = []
            for values in value_columns:
                fresh = sorted(set(values).difference(codes), key=repr)
                if fresh:
                    first = len(decode)
                    decode.extend(fresh)
                    codes.update(zip(fresh, range(first, len(decode))))
                cols.append(array("q", map(codes.__getitem__, values)))
            entry = ColumnarRelation(relation, columns, tuple(cols), len(rows))
            self._columnar[id(relation)] = entry
            return entry

    def index(
        self, relation: Relation, positions: tuple[int, ...]
    ) -> dict:
        """A hash index over the relation's interned columns.

        Maps a key — the single code for one position, a code tuple for
        several — to the tuple of row indexes holding it.  Built once
        per (relation identity, positions) and reused by every
        subsequent scan probe, semi-join and join against the same
        stored relation.
        """
        signature = (id(relation), positions)
        with self._lock:
            entry = self._indexes.get(signature)
            if entry is not None and entry[0] is relation:
                return entry[1]
        columnar = self.columnar(relation)
        index = group_rows(key_column(columnar.cols, positions))
        with self._lock:
            self._indexes[signature] = (relation, index)
        return index

    def trim(
        self, relation: Relation, positions: tuple[int, ...]
    ) -> tuple[tuple[array, ...], int]:
        """The gathered + deduplicated columns at ``positions`` — the
        projection-pushdown trim of a stored relation.

        Trims depend only on (relation identity, positions), so joins
        that push the same projection into the same stored relation on
        every run reuse one materialization.  Returns ``(cols, nrows)``.
        """
        signature = (id(relation), positions)
        with self._lock:
            entry = self._trims.get(signature)
            if entry is not None and entry[0] is relation:
                return entry[1], entry[2]
        columnar = self.columnar(relation)
        trimmed, nrows = dedup(tuple(columnar.cols[p] for p in positions))
        with self._lock:
            self._trims[signature] = (relation, trimmed, nrows)
        return trimmed, nrows


# -- row sweeps -------------------------------------------------------------------
# Each helper is a few passes of C builtins over whole columns; none
# calls back into Python once per row.


def key_column(cols: Sequence, positions: Sequence[int]) -> Sequence:
    """Every row's key on ``positions``: the bare code column for one
    position (ints hash faster than 1-tuples), a list of code tuples
    otherwise."""
    if len(positions) == 1:
        return cols[positions[0]]
    return list(zip(*[cols[p] for p in positions]))


def group_rows(keys: Sequence) -> dict:
    """``key → tuple of the row indexes holding it``, each ascending."""
    groups = dict(zip(keys, zip(range(len(keys)))))
    if len(groups) == len(keys):
        return groups
    # Some key holds several rows: a stable sort by key puts each key's
    # rows side by side, in ascending order.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return {
        key: tuple(rows) for key, rows in groupby(order, keys.__getitem__)
    }


def dedup(cols: tuple) -> tuple[tuple, int]:
    """Drop repeated rows of equal-length code columns, keeping each
    row's first occurrence in order.  Returns ``(cols, nrows)``; the
    columns themselves when no row repeats."""
    rows = dict.fromkeys(zip(*cols))
    if len(rows) == len(cols[0]):
        return cols, len(rows)
    return tuple(array("q", col) for col in zip(*rows)), len(rows)
