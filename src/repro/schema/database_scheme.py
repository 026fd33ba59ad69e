"""Database schemes.

A database scheme is a collection of relation schemes whose union is the
universe (paper, Section 2.1).  :class:`DatabaseScheme` additionally
carries each member's declared keys, exposing the induced set of
embedded key dependencies ``F = F1 ∪ ... ∪ Fn`` that the whole paper
quantifies over.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Union

from repro.fd.fdset import FDSet
from repro.foundations.attrs import (
    AttrsLike,
    attrs,
    fmt_attrs,
    sorted_attrs,
    union_all,
)
from repro.foundations.errors import SchemaError
from repro.hypergraph.paths import component_positions
from repro.schema.relation_scheme import RelationScheme

#: Spec entry: attributes, or (attributes, keys).
SpecEntry = Union[AttrsLike, tuple]


class DatabaseScheme:
    """An immutable, ordered collection of relation schemes.

    Names must be unique.  The universe is the union of the member
    attribute sets.  ``fds`` is the union of the members' embedded key
    dependencies — the constraint set the paper assumes throughout.
    """

    __slots__ = (
        "relations", "_by_name", "universe", "_fds", "_keyed_on", "_components"
    )

    def __init__(self, relations: Iterable[RelationScheme]) -> None:
        members = tuple(relations)
        if not members:
            raise SchemaError("a database scheme needs at least one relation")
        by_name: dict[str, RelationScheme] = {}
        for member in members:
            if not isinstance(member, RelationScheme):
                raise SchemaError(f"not a RelationScheme: {member!r}")
            if member.name in by_name:
                raise SchemaError(f"duplicate relation name: {member.name}")
            by_name[member.name] = member
        object.__setattr__(self, "relations", members)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "universe", union_all(member.attributes for member in members)
        )
        object.__setattr__(
            self,
            "_fds",
            FDSet(chain.from_iterable(m.key_dependencies for m in members)),
        )
        object.__setattr__(self, "_keyed_on", None)
        object.__setattr__(self, "_components", None)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("DatabaseScheme is immutable")

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping[str, SpecEntry]) -> "DatabaseScheme":
        """Build from a compact mapping, mirroring the paper's notation::

            DatabaseScheme.from_spec({
                "R1": ("HRC", ["HR"]),
                "R2": ("HTR", ["HT", "HR"]),
                "R4": "CSG",          # all-key
            })
        """
        members = []
        for name, entry in spec.items():
            if isinstance(entry, tuple):
                attributes, keys = entry
                members.append(RelationScheme(name, attributes, keys))
            else:
                members.append(RelationScheme(name, entry))
        return cls(members)

    # -- container protocol ---------------------------------------------------
    def __iter__(self) -> Iterator[RelationScheme]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __getitem__(self, name: str) -> RelationScheme:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __contains__(self, item: object) -> bool:
        if isinstance(item, str):
            return item in self._by_name
        return item in self.relations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseScheme):
            return NotImplemented
        return self.relations == other.relations

    def __hash__(self) -> int:
        return hash(self.relations)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(member.name for member in self.relations)

    # -- dependencies ----------------------------------------------------------
    @property
    def fds(self) -> FDSet:
        """The embedded key dependencies ``F = F1 ∪ ... ∪ Fn``."""
        return self._fds

    def fds_of(self, name_or_scheme: Union[str, RelationScheme]) -> FDSet:
        """``F_i``: the key dependencies embedded in one member."""
        member = self._resolve(name_or_scheme)
        return member.key_dependencies

    def fds_excluding(self, name_or_scheme: Union[str, RelationScheme]) -> FDSet:
        """``F − F_j``: the key dependencies of all *other* members, as
        used by the uniqueness-condition independence test (Section 2.7)."""
        excluded = self._resolve(name_or_scheme)
        return FDSet(
            chain.from_iterable(
                member.key_dependencies
                for member in self.relations
                if member.name != excluded.name
            )
        )

    def _resolve(self, name_or_scheme: Union[str, RelationScheme]) -> RelationScheme:
        if isinstance(name_or_scheme, RelationScheme):
            return self[name_or_scheme.name]
        return self[name_or_scheme]

    # -- keys --------------------------------------------------------------------
    def all_keys(self) -> list[frozenset[str]]:
        """All distinct declared keys across the scheme, sorted."""
        keys = {key for member in self.relations for key in member.keys}
        return sorted(keys, key=lambda key: tuple(sorted(key)))

    @property
    def keyed_on(self) -> Mapping[str, tuple[int, ...]]:
        """Attribute → positions of the members one of whose declared
        keys contains it, in member order.  Built on first use (the
        scheme is immutable)."""
        if self._keyed_on is None:
            index: dict[str, list[int]] = {}
            for position, member in enumerate(self.relations):
                for attribute in sorted_attrs(union_all(member.keys)):
                    index.setdefault(attribute, []).append(position)
            object.__setattr__(
                self,
                "_keyed_on",
                {attribute: tuple(found) for attribute, found in index.items()},
            )
        return self._keyed_on

    @property
    def components(self) -> tuple[tuple[tuple[int, ...], frozenset[str]], ...]:
        """The attribute-connected components: each is the positions of
        its members (two members are connected when they share an
        attribute) with the union of their attributes, ordered by first
        member.  Built on first use."""
        if self._components is None:
            components = tuple(
                (
                    tuple(positions),
                    union_all(self.relations[p].attributes for p in positions),
                )
                for positions in component_positions(
                    member.attributes for member in self.relations
                )
            )
            object.__setattr__(self, "_components", components)
        return self._components

    def keys_embedded_in(self, attribute_set: AttrsLike) -> list[frozenset[str]]:
        """Declared keys contained in ``attribute_set`` — the "keys
        embedded in closure" step of Algorithm 2."""
        bound = attrs(attribute_set)
        return [key for key in self.all_keys() if key <= bound]

    # -- sub-schemes -----------------------------------------------------------
    def subscheme(
        self, members: Iterable[Union[str, RelationScheme]]
    ) -> "DatabaseScheme":
        """The database scheme consisting of the named members, keeping
        this scheme's member order."""
        wanted = {
            member if isinstance(member, str) else member.name for member in members
        }
        missing = wanted - set(self.names)
        if missing:
            raise SchemaError(f"unknown relations: {sorted(missing)}")
        return DatabaseScheme(
            member for member in self.relations if member.name in wanted
        )

    def named_attribute_sets(self) -> list[tuple[str, frozenset[str]]]:
        """``(name, attributes)`` pairs, e.g. for tableau construction."""
        return [(member.name, member.attributes) for member in self.relations]

    def schemes_containing(self, attribute_set: AttrsLike) -> list[RelationScheme]:
        """Members whose attributes contain ``attribute_set``."""
        bound = attrs(attribute_set)
        return [
            member for member in self.relations if bound <= member.attributes
        ]

    # -- rendering -----------------------------------------------------------------
    def __str__(self) -> str:
        parts = ", ".join(
            f"{member.name}({fmt_attrs(member.attributes)})"
            for member in self.relations
        )
        return "{" + parts + "}"

    def __repr__(self) -> str:
        return f"DatabaseScheme({list(self.relations)!r})"


def scheme(spec: Mapping[str, SpecEntry]) -> DatabaseScheme:
    """Shorthand for :meth:`DatabaseScheme.from_spec`."""
    return DatabaseScheme.from_spec(spec)
