"""Relations: finite sets of total tuples on a relation scheme.

Tuples are plain ``{attribute: value}`` mappings; internally each is
normalized to a value vector in the scheme's canonical attribute order,
so relations behave as proper sets with cheap hashing (paper, Section
2.1: a relation is a set of total tuples).

A relation also carries the hash indexes on key attributes that have
been asked of it (:meth:`Relation.key_index`).  They are a derived view:
built once per relation object, and handed to the relation that
:meth:`Relation.with_tuple` or :meth:`Relation.without_tuple` returns as
copies patched by the one row, so a stream of writes pays for a probe,
not for a rebuild.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping

from repro.fd.fd import FD
from repro.fd.fdset import FDSet, FDsLike
from repro.foundations.attrs import AttrsLike, attrs, sorted_attrs
from repro.foundations.errors import StateError

#: A tuple given by the user: attribute → constant.
TupleLike = Mapping[str, Hashable]

#: A row vector in a relation's ``columns`` order.
Row = tuple[Hashable, ...]

#: Key values (in the order of the key attributes asked for) → the
#: stored rows carrying them.
KeyIndex = dict[tuple[Hashable, ...], tuple[Row, ...]]

#: The index map of a relation no key index was asked of yet.  Index
#: maps are replaced, never mutated, so every relation can share it.
_NO_INDEXES: Mapping[tuple[str, ...], KeyIndex] = MappingProxyType({})


class Relation:
    """An immutable set of total tuples over a fixed attribute set."""

    __slots__ = ("attributes", "_order", "_rows", "_key_indexes")

    def __init__(
        self, attributes: AttrsLike, tuples: Iterable[TupleLike] = ()
    ) -> None:
        attribute_set = attrs(attributes)
        if not attribute_set:
            raise StateError("a relation needs at least one attribute")
        order = tuple(sorted_attrs(attribute_set))
        rows: set[tuple[Hashable, ...]] = set()
        for values in tuples:
            rows.add(_normalize(values, attribute_set, order))
        object.__setattr__(self, "attributes", attribute_set)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_rows", frozenset(rows))
        object.__setattr__(self, "_key_indexes", _NO_INDEXES)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Relation is immutable")

    # -- vector access (the algebra/chase fast paths) --------------------------
    @property
    def columns(self) -> tuple[str, ...]:
        """The canonical (sorted) attribute order of the value vectors."""
        return self._order

    @property
    def row_vectors(self) -> frozenset[tuple[Hashable, ...]]:
        """The stored tuples as value vectors in ``columns`` order."""
        return self._rows

    @classmethod
    def from_vectors(
        cls,
        attributes: AttrsLike,
        order: tuple[str, ...],
        rows: Iterable[tuple[Hashable, ...]],
    ) -> "Relation":
        """Build a relation from value vectors laid out in ``order``.

        The fast constructor behind the tuple-vector evaluation
        pipeline: vectors already in canonical order are adopted
        directly; otherwise they are permuted once.  Callers are trusted
        to pass vectors of the right width.
        """
        attribute_set = attrs(attributes)
        if not attribute_set:
            raise StateError("a relation needs at least one attribute")
        canonical = tuple(sorted_attrs(attribute_set))
        if tuple(order) == canonical:
            vectors = frozenset(rows)
        else:
            if frozenset(order) != attribute_set:
                raise StateError(
                    f"vector order {list(order)} does not match relation "
                    f"attributes {sorted(attribute_set)}"
                )
            permutation = [order.index(a) for a in canonical]
            vectors = frozenset(
                tuple(row[i] for i in permutation) for row in rows
            )
        return _from_rows(attribute_set, canonical, vectors)

    def key_index(self, key_attrs: tuple[str, ...]) -> KeyIndex:
        """The stored rows by their values on ``key_attrs``.

        Keys are value tuples in ``key_attrs`` order; each maps to the
        row vectors (``columns`` order) that carry it, one row when the
        relation satisfies the key.  Built on first request from the
        row vectors and kept for the life of this relation object;
        relations derived by :meth:`with_tuple` and :meth:`without_tuple`
        inherit it patched by their one row.  The returned mapping is
        shared and must not be modified.
        """
        indexes = self._key_indexes
        index = indexes.get(key_attrs)
        if index is None:
            index = _build_key_index(self._rows, self._order, key_attrs)
            # Replace, never mutate: a map another thread or a derived
            # relation is reading stays exact.  A concurrent build of
            # another key may win the race; that index is rebuilt later.
            _set_key_indexes(self, {**indexes, key_attrs: index})
        return index

    # -- container protocol ---------------------------------------------------
    def __iter__(self) -> Iterator[dict[str, Hashable]]:
        for row in sorted(self._rows, key=repr):
            yield dict(zip(self._order, row))

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, values: TupleLike) -> bool:
        try:
            return _normalize(values, self.attributes, self._order) in self._rows
        except StateError:
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.attributes == other.attributes and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.attributes, self._rows))

    # -- algebra-lite (full algebra lives in repro.algebra) --------------------
    def with_tuple(self, values: TupleLike) -> "Relation":
        """A copy with one more tuple; it carries this relation's key
        indexes with the row added."""
        row = _normalize(values, self.attributes, self._order)
        indexes = self._key_indexes
        if indexes and row not in self._rows:
            indexes = self._patched_indexes(row, adding=True)
        return _from_rows(
            self.attributes, self._order, self._rows | {row}, indexes
        )

    def without_tuple(self, values: TupleLike) -> "Relation":
        """A copy with one tuple removed (no error if absent); it
        carries this relation's key indexes with the row dropped."""
        row = _normalize(values, self.attributes, self._order)
        indexes = self._key_indexes
        if indexes and row in self._rows:
            indexes = self._patched_indexes(row, adding=False)
        return _from_rows(
            self.attributes, self._order, self._rows - {row}, indexes
        )

    def _patched_indexes(
        self, row: Row, *, adding: bool
    ) -> dict[tuple[str, ...], KeyIndex]:
        """Copies of this relation's built key indexes with ``row``
        (absent when adding, stored when dropping) added or dropped;
        this relation's own maps are untouched."""
        order = self._order
        patched: dict[tuple[str, ...], KeyIndex] = {}
        # One read of the map: it is replaced, never mutated.
        for key_attrs, index in self._key_indexes.items():
            key = tuple([row[order.index(a)] for a in key_attrs])
            copy = index.copy()
            matches = copy.get(key, ())
            if adding:
                copy[key] = matches + (row,)
            elif len(matches) == 1:
                del copy[key]
            else:
                copy[key] = tuple([other for other in matches if other != row])
            patched[key_attrs] = copy
        return patched

    def union(self, other: "Relation") -> "Relation":
        """Set union; both relations must share the attribute set."""
        if self.attributes != other.attributes:
            raise StateError("union of relations over different attributes")
        return _from_rows(self.attributes, self._order, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; both relations must share the attribute set."""
        if self.attributes != other.attributes:
            raise StateError("difference of relations over different attributes")
        return _from_rows(self.attributes, self._order, self._rows - other._rows)

    # -- dependency satisfaction ------------------------------------------------
    def satisfies_fd(self, dependency: FD) -> bool:
        """True iff no two tuples agree on ``lhs`` but differ on ``rhs``.

        Dependencies not embedded in this relation's attributes are
        vacuously satisfied (a relation only constrains its own columns).
        """
        if not dependency.is_embedded_in(self.attributes):
            return True
        lhs = sorted_attrs(dependency.lhs)
        rhs = sorted_attrs(dependency.rhs)
        lhs_index = [self._order.index(a) for a in lhs]
        rhs_index = [self._order.index(a) for a in rhs]
        seen: dict[tuple, tuple] = {}
        for row in self._rows:
            left = tuple(row[i] for i in lhs_index)
            right = tuple(row[i] for i in rhs_index)
            previous = seen.setdefault(left, right)
            if previous != right:
                return False
        return True

    def satisfies(self, fds: FDsLike) -> bool:
        """True iff every embedded fd of ``fds`` holds in this relation."""
        return all(self.satisfies_fd(dependency) for dependency in FDSet(fds))

    # -- rendering -------------------------------------------------------------
    def __str__(self) -> str:
        header = " ".join(self._order)
        lines = [header]
        for values in self:
            lines.append(" ".join(str(values[a]) for a in self._order))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Relation({''.join(self._order)}, |tuples|={len(self._rows)})"


def _normalize(
    values: TupleLike,
    attribute_set: frozenset[str],
    order: tuple[str, ...],
) -> tuple[Hashable, ...]:
    if frozenset(values) != attribute_set:
        raise StateError(
            f"tuple attributes {sorted(values)} do not match relation "
            f"attributes {sorted(attribute_set)}"
        )
    return tuple(values[a] for a in order)


def _build_key_index(
    rows: Iterable[Row], order: tuple[str, ...], key_attrs: tuple[str, ...]
) -> KeyIndex:
    """Group ``rows`` (laid out in ``order``) by their values on
    ``key_attrs``, in one scan."""
    positions = [order.index(a) for a in key_attrs]
    index: KeyIndex = {}
    for row in rows:
        key = tuple([row[i] for i in positions])
        index[key] = index.get(key, ()) + (row,)
    return index


def _from_rows(
    attribute_set: frozenset[str],
    order: tuple[str, ...],
    rows: frozenset[tuple[Hashable, ...]],
    key_indexes: Mapping[tuple[str, ...], KeyIndex] = _NO_INDEXES,
) -> Relation:
    relation = Relation.__new__(Relation)
    _set_attributes(relation, attribute_set)
    _set_order(relation, order)
    _set_rows(relation, rows)
    _set_key_indexes(relation, key_indexes)
    return relation


# The slots' own setters: the fast way past ``Relation.__setattr__``
# for the constructors above.
_set_attributes = Relation.attributes.__set__  # type: ignore[attr-defined]
_set_order = Relation._order.__set__  # type: ignore[attr-defined]
_set_rows = Relation._rows.__set__  # type: ignore[attr-defined]
_set_key_indexes = Relation._key_indexes.__set__  # type: ignore[attr-defined]
