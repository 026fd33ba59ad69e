"""Relation schemes with declared keys.

The paper's standing assumption is that a cover of the fds is embedded
in the database scheme *as keys*: each relation scheme carries a set of
declared candidate keys, and the constraint set is the induced set of
key dependencies (Section 2.3).  :class:`RelationScheme` bundles a name,
an attribute set and the declared keys.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.fd.keydeps import key_dependencies_of
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs
from repro.foundations.errors import SchemaError


class RelationScheme:
    """An immutable relation scheme: name, attributes, declared keys.

    When no keys are declared the scheme is *all-key* (its only key is
    the full attribute set, contributing no non-trivial dependency).
    ``key_dependencies`` — the key dependencies ``K → attributes − K``
    the scheme embeds — is computed once, at construction.
    """

    __slots__ = ("name", "attributes", "keys", "key_dependencies")

    def __init__(
        self,
        name: str,
        attributes: AttrsLike,
        keys: Optional[Iterable[AttrsLike]] = None,
    ) -> None:
        if not name:
            raise SchemaError("relation scheme name must be non-empty")
        attribute_set = attrs(attributes)
        if not attribute_set:
            raise SchemaError(f"relation scheme {name} has no attributes")
        if keys is None:
            key_sets: tuple[frozenset[str], ...] = (attribute_set,)
        else:
            key_sets = tuple(
                sorted({attrs(key) for key in keys}, key=lambda k: tuple(sorted(k)))
            )
            if not key_sets:
                key_sets = (attribute_set,)
        for key in key_sets:
            if not key:
                raise SchemaError(f"relation scheme {name} declares an empty key")
            if not key <= attribute_set:
                raise SchemaError(
                    f"key {fmt_attrs(key)} of {name} is not contained in "
                    f"{fmt_attrs(attribute_set)}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attribute_set)
        object.__setattr__(self, "keys", key_sets)
        object.__setattr__(
            self, "key_dependencies", key_dependencies_of(attribute_set, key_sets)
        )

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("RelationScheme is immutable")

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationScheme):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.keys))

    # -- semantics ------------------------------------------------------------
    def is_all_key(self) -> bool:
        """True iff the only declared key is the full attribute set."""
        return self.keys == (self.attributes,)

    def embeds_key(self, key: AttrsLike) -> bool:
        """True iff ``key ⊆ attributes`` (the key *fits inside* the scheme,
        whether or not it is one of this scheme's declared keys)."""
        return attrs(key) <= self.attributes

    def declares_key(self, key: AttrsLike) -> bool:
        """True iff ``key`` is one of this scheme's declared keys."""
        return attrs(key) in self.keys

    def rename(self, name: str) -> "RelationScheme":
        """A copy under a different name."""
        return RelationScheme(name, self.attributes, self.keys)

    # -- rendering ------------------------------------------------------------
    def __str__(self) -> str:
        keys = ", ".join(fmt_attrs(key) for key in self.keys)
        return f"{self.name}({fmt_attrs(self.attributes)}; keys: {keys})"

    def __repr__(self) -> str:
        return (
            f"RelationScheme({self.name!r}, {fmt_attrs(self.attributes)!r}, "
            f"keys={[fmt_attrs(key) for key in self.keys]})"
        )


def relation(
    name: str, attributes: AttrsLike, keys: Optional[Sequence[AttrsLike]] = None
) -> RelationScheme:
    """Shorthand constructor mirroring the paper's ``R1(HRC)`` notation:
    ``relation("R1", "HRC", ["HR"])``."""
    return RelationScheme(name, attributes, keys)
