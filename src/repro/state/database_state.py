"""Database states.

A database state maps each relation scheme of a database scheme to a
relation on it (paper, Section 2.1).  States are immutable; updates
return new states, which keeps the maintenance algorithms honest about
what they read and write.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from repro.foundations.errors import StateError
from repro.schema.database_scheme import DatabaseScheme
from repro.state.relation import Relation, TupleLike
from repro.tableau.state_tableau import state_tableau
from repro.tableau.tableau import Tableau


class DatabaseState:
    """An immutable assignment of a relation to every relation scheme."""

    __slots__ = ("scheme", "_relations")

    def __init__(
        self,
        scheme: DatabaseScheme,
        relations: Optional[Mapping[str, Iterable[TupleLike]]] = None,
    ) -> None:
        object.__setattr__(self, "scheme", scheme)
        provided = dict(relations or {})
        unknown = set(provided) - set(scheme.names)
        if unknown:
            raise StateError(f"state mentions unknown relations: {sorted(unknown)}")
        table: dict[str, Relation] = {}
        for member in scheme.relations:
            tuples = provided.get(member.name, ())
            if isinstance(tuples, Relation):
                if tuples.attributes != member.attributes:
                    raise StateError(
                        f"relation for {member.name} has wrong attributes"
                    )
                table[member.name] = tuples
            else:
                table[member.name] = Relation(member.attributes, tuples)
        object.__setattr__(self, "_relations", table)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("DatabaseState is immutable")

    # -- access ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise StateError(f"no relation named {name!r}") from None

    def __iter__(self) -> Iterator[Tuple[str, Relation]]:
        for member in self.scheme.relations:
            yield member.name, self._relations[member.name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self.scheme == other.scheme and self._relations == other._relations

    def __hash__(self) -> int:
        return hash((self.scheme, tuple(sorted(self._relations.items()))))

    def total_tuples(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(relation) for _, relation in self)

    def is_empty(self) -> bool:
        return self.total_tuples() == 0

    # -- updates -------------------------------------------------------------------
    def insert(self, name: str, values: TupleLike) -> "DatabaseState":
        """A new state with ``values`` inserted into relation ``name``."""
        updated = dict(self._relations)
        updated[name] = self[name].with_tuple(values)
        return _from_relations(self.scheme, updated)

    def delete(self, name: str, values: TupleLike) -> "DatabaseState":
        """A new state with ``values`` removed from relation ``name``."""
        updated = dict(self._relations)
        updated[name] = self[name].without_tuple(values)
        return _from_relations(self.scheme, updated)

    def with_relation(self, name: str, relation: Relation) -> "DatabaseState":
        """A new state storing ``relation`` (the very object, on
        ``name``'s attributes) as relation ``name``."""
        if relation.attributes != self[name].attributes:
            raise StateError(f"relation for {name} has wrong attributes")
        updated = dict(self._relations)
        updated[name] = relation
        return _from_relations(self.scheme, updated)

    def union(self, other: "DatabaseState") -> "DatabaseState":
        """Relation-wise union of two states on the same scheme."""
        if self.scheme != other.scheme:
            raise StateError("union of states over different schemes")
        merged = {
            name: relation.union(other[name]) for name, relation in self
        }
        return _from_relations(self.scheme, merged)

    def difference(self, other: "DatabaseState") -> "DatabaseState":
        """Relation-wise difference of two states on the same scheme."""
        if self.scheme != other.scheme:
            raise StateError("difference of states over different schemes")
        reduced = {
            name: relation.difference(other[name]) for name, relation in self
        }
        return _from_relations(self.scheme, reduced)

    # -- tableaux ---------------------------------------------------------------------
    def tableau(self) -> Tableau:
        """The state tableau ``T_r`` (paper, Section 2.2)."""
        return state_tableau(
            (
                (name, self.scheme[name].attributes, list(relation))
                for name, relation in self
            ),
            universe=self.scheme.universe,
        )

    # -- rendering -------------------------------------------------------------------
    def __str__(self) -> str:
        blocks = []
        for name, relation in self:
            blocks.append(f"{name}:\n{relation}")
        return "\n\n".join(blocks)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}={len(relation)}" for name, relation in self)
        return f"DatabaseState({sizes})"


def _from_relations(
    scheme: DatabaseScheme, relations: dict[str, Relation]
) -> DatabaseState:
    state = DatabaseState.__new__(DatabaseState)
    object.__setattr__(state, "scheme", scheme)
    object.__setattr__(state, "_relations", relations)
    return state


def state_of(
    scheme: DatabaseScheme, **relations: Iterable[TupleLike]
) -> DatabaseState:
    """Keyword-argument convenience constructor:
    ``state_of(R, R1=[{"A": 1, "B": 2}])``."""
    return DatabaseState(scheme, relations)


def tuples_from_rows(
    attributes: str, rows: Iterable[Iterable[Hashable]]
) -> list[dict[str, Hashable]]:
    """Build tuple mappings from positional rows, mirroring how the paper
    writes relations: ``tuples_from_rows("ABE", [("a", "b", "e")])``."""
    order = list(attributes)
    result = []
    for row in rows:
        values = list(row)
        if len(values) != len(order):
            raise StateError(
                f"row {values!r} does not match attributes {attributes!r}"
            )
        result.append(dict(zip(order, values)))
    return result
