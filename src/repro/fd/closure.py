"""Attribute closure.

``X⁺`` with respect to a set of fds ``F`` is the set of attributes ``A``
with ``X → A ∈ F⁺`` (paper, Section 2.3).  :func:`closure_linear` is the
Beeri–Bernstein counting algorithm, linear in the total size of ``F``;
the textbook fixpoint loop it is property-tested against is
:func:`repro.oracle.closure_naive`.

:class:`ClosureIndex` preassembles the counting structures so that many
closures over the same fd set (the common pattern in key enumeration,
independence tests and the recognition algorithm) amortize the setup.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.fd.fd import FD
from repro.foundations.attrs import AttrsLike, attrs


class ClosureIndex:
    """Reusable linear-time closure evaluator for a fixed fd set.

    Implements the Beeri–Bernstein algorithm: each fd keeps a count of
    left-hand-side attributes not yet derived; when the count reaches zero
    the right-hand side is released.  Building the index is linear in the
    size of ``F``; each :meth:`closure` call is linear as well.
    """

    def __init__(self, fds: Iterable[FD]) -> None:
        self._fds: list[FD] = list(fds)
        # For each attribute, the indices of fds whose lhs mentions it.
        self._uses: dict[str, list[int]] = defaultdict(list)
        for index, dependency in enumerate(self._fds):
            for attribute in dependency.lhs:
                self._uses[attribute].append(index)

    @property
    def fds(self) -> Sequence[FD]:
        """The fds this index was built over."""
        return tuple(self._fds)

    def closure(self, start: AttrsLike) -> frozenset[str]:
        """Compute ``start⁺`` with respect to the indexed fd set."""
        start_set = attrs(start)
        missing = [len(dependency.lhs) for dependency in self._fds]
        result: set[str] = set()
        frontier: list[str] = []

        def discover(attribute: str) -> None:
            if attribute not in result:
                result.add(attribute)
                frontier.append(attribute)

        for attribute in start_set:
            discover(attribute)
        while frontier:
            attribute = frontier.pop()
            for fd_index in self._uses.get(attribute, ()):
                missing[fd_index] -= 1
                if missing[fd_index] == 0:
                    for derived in self._fds[fd_index].rhs:
                        discover(derived)
        return frozenset(result)

    def implies(self, dependency: FD) -> bool:
        """True iff the indexed fd set logically implies ``dependency``."""
        return dependency.rhs <= self.closure(dependency.lhs)

    def determines(self, start: AttrsLike, target: AttrsLike) -> bool:
        """True iff ``start → target`` follows from the indexed fd set."""
        return attrs(target) <= self.closure(start)


def closure_linear(start: AttrsLike, fds: Iterable[FD]) -> frozenset[str]:
    """One-shot linear-time closure (builds a throwaway index)."""
    return ClosureIndex(fds).closure(start)


#: Default closure algorithm used across the library.
closure = closure_linear
