"""Sets of functional dependencies.

:class:`FDSet` is the library's workhorse container: an immutable,
deduplicated collection of :class:`~repro.fd.fd.FD` with cached closure
machinery, implication and equivalence tests, and the set-algebra the
paper's algorithms need (``F − F_j`` in the independence test,
``F₁ ∪ ... ∪ F_k`` when merging block covers, and so on).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.fd.closure import ClosureIndex
from repro.fd.fd import FD, parse_fds
from repro.foundations.attrs import AttrsLike, attrs, sorted_attrs, union_all

FDsLike = Union["FDSet", str, Iterable[FD]]


def as_fdset(fds: FDsLike) -> "FDSet":
    """``fds`` itself when it already is an :class:`FDSet` (sets are
    immutable, so there is nothing to copy), else a new one."""
    return fds if isinstance(fds, FDSet) else FDSet(fds)


class FDSet:
    """An immutable set of functional dependencies.

    Construction accepts another ``FDSet``, an iterable of :class:`FD`,
    or a string in arrow notation (``"A->B, B->C"``).
    """

    __slots__ = ("_fds", "_index", "_hash", "_rules")

    def __init__(self, fds: FDsLike = ()) -> None:
        if isinstance(fds, FDSet):
            members: Iterable[FD] = fds._fds
        elif isinstance(fds, str):
            members = parse_fds(fds)
        else:
            members = fds
        unique = set(members)
        for member in unique:
            if not isinstance(member, FD):
                raise TypeError(f"FDSet members must be FD, got {member!r}")
        self._fds: tuple[FD, ...] = tuple(sorted(unique, key=FD._sort_key))
        self._index = ClosureIndex(self._fds)
        self._hash: int | None = None
        self._rules: tuple[tuple[tuple[str, ...], str], ...] | None = None

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[FD]:
        return iter(self._fds)

    def __len__(self) -> int:
        return len(self._fds)

    def __contains__(self, dependency: object) -> bool:
        return dependency in self._fds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FDSet):
            return NotImplemented
        return self._fds == other._fds

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._fds)
        return self._hash

    def __or__(self, other: FDsLike) -> "FDSet":
        return FDSet(self._fds + FDSet(other)._fds)

    def __sub__(self, other: FDsLike) -> "FDSet":
        removed = set(FDSet(other)._fds)
        return FDSet(member for member in self._fds if member not in removed)

    def __str__(self) -> str:
        return "{" + ", ".join(str(member) for member in self._fds) + "}"

    def __repr__(self) -> str:
        return f"FDSet({str(self)})"

    # -- semantics -----------------------------------------------------------
    @property
    def attributes(self) -> frozenset[str]:
        """All attributes mentioned by any member fd."""
        return union_all(member.attributes for member in self._fds)

    def closure(self, start: AttrsLike) -> frozenset[str]:
        """Attribute closure ``start⁺`` with respect to this set."""
        return self._index.closure(start)

    def implies(self, dependency: FD) -> bool:
        """True iff this set logically implies ``dependency``."""
        return self._index.implies(dependency)

    def determines(self, start: AttrsLike, target: AttrsLike) -> bool:
        """True iff ``start → target`` is in the closure of this set."""
        return self._index.determines(start, target)

    def covers(self, other: FDsLike) -> bool:
        """True iff every fd of ``other`` follows from this set."""
        return all(self.implies(member) for member in FDSet(other))

    def equivalent_to(self, other: FDsLike) -> bool:
        """True iff the two sets have the same closure (are covers of each
        other, paper Section 2.3)."""
        other_set = FDSet(other)
        return self.covers(other_set) and other_set.covers(self)

    def nontrivial(self) -> "FDSet":
        """The subset of non-trivial member fds."""
        return FDSet(member for member in self._fds if not member.is_trivial())

    def split_rhs(self) -> "FDSet":
        """Equivalent set in which every fd has a singleton right-hand side."""
        return FDSet(
            singleton for member in self._fds for singleton in member.split_rhs()
        )

    def singleton_rules(self) -> tuple[tuple[tuple[str, ...], str], ...]:
        """The fd-rules the chase applies: :meth:`split_rhs` without the
        trivial members, as ``(sorted lhs, rhs attribute)`` pairs in
        that set's order.  Computed once, since the set is immutable."""
        if self._rules is None:
            self._rules = tuple(
                (tuple(sorted_attrs(dependency.lhs)), next(iter(dependency.rhs)))
                for dependency in self.split_rhs().nontrivial()
            )
        return self._rules

    def embedded_in(self, scheme: AttrsLike) -> "FDSet":
        """The member fds whose attributes all lie inside ``scheme``.

        Note this selects *member* fds only; use
        :func:`repro.fd.projection.project_fds` for the projection of the
        closure ``F⁺|R``.
        """
        scheme_set = attrs(scheme)
        return FDSet(
            member for member in self._fds if member.is_embedded_in(scheme_set)
        )

    def restricted_to(self, schemes: Iterable[AttrsLike]) -> "FDSet":
        """Member fds embedded in at least one of the given schemes."""
        scheme_sets = [attrs(scheme) for scheme in schemes]
        return FDSet(
            member
            for member in self._fds
            if any(member.attributes <= scheme for scheme in scheme_sets)
        )
