"""Split keys and split-freeness (paper, Section 3.3).

Algorithm 3 computes ``Si⁺`` as a growing union of relation schemes: a
scheme is absorbed once one of its declared keys lies inside the current
closure.  A key ``K`` is *split* in ``Si⁺`` when some computation covers
``K`` by absorbing a scheme that completes ``K`` without containing it —
intuitively, ``K``'s value can only be assembled from fragments, which
is exactly what defeats constant-time maintenance (Theorem 3.4).

Two tests are provided:

* :func:`split_keys` / :func:`is_split_free` — the efficient test of
  Lemma 3.8: ``K`` is split in some member's closure iff some member not
  containing ``K`` reaches ``K`` in its attribute closure under the key
  dependencies of the schemes that do not contain ``K`` (the BMSU
  closed form of the chase of ``T_W``).
* :func:`find_split_witness` — the definitional exhaustive search over
  Algorithm 3 computations, used by the test suite to cross-validate
  Lemma 3.8 on small schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from repro.fd.fdset import FDSet
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.relation_scheme import RelationScheme


def scheme_closure(
    members: Sequence[RelationScheme], start: AttrsLike
) -> frozenset[str]:
    """Algorithm 3: the closure of ``start`` as a union of absorbed
    relation schemes (greedy; the final closure is order-independent)."""
    closure = set(attrs(start))
    remaining = list(members)
    absorbed = True
    while absorbed:
        absorbed = False
        for member in list(remaining):
            if member.attributes <= closure:
                remaining.remove(member)
                continue
            if any(key <= closure for key in member.keys):
                closure |= member.attributes
                remaining.remove(member)
                absorbed = True
    return frozenset(closure)


def _schemes_avoiding(
    scheme: DatabaseScheme, key: frozenset[str]
) -> list[RelationScheme]:
    """``W``: the members that do not contain ``key`` (Lemma 3.8)."""
    return [
        member for member in scheme.relations if not key <= member.attributes
    ]


def is_key_split(scheme: DatabaseScheme, key: AttrsLike) -> bool:
    """Lemma 3.8: is ``key`` split in some member's closure?

    ``key`` is split iff some member of ``W`` (the members avoiding the
    key) has the key inside its attribute closure under ``G``, the key
    dependencies embedded in ``W``.
    """
    key_set = attrs(key)
    avoiding = _schemes_avoiding(scheme, key_set)
    if not avoiding:
        return False
    fds = FDSet(chain.from_iterable(m.key_dependencies for m in avoiding))
    return any(
        key_set <= fds.closure(member.attributes) for member in avoiding
    )


def split_keys(scheme: DatabaseScheme) -> list[frozenset[str]]:
    """All declared keys of the scheme that are split (Lemma 3.8)."""
    return [key for key in scheme.all_keys() if is_key_split(scheme, key)]


def is_split_free(scheme: DatabaseScheme) -> bool:
    """True iff no declared key of the scheme is split.

    For key-equivalent schemes this characterizes constant-time
    maintainability (Corollary 3.3).
    """
    return not split_keys(scheme)


@dataclass(frozen=True)
class SplitWitness:
    """A definitional witness that a key is split: the member whose
    closure computation splits the key, the sequence of schemes absorbed
    (in order), and the scheme that completed the key."""

    key: frozenset[str]
    start: RelationScheme
    computation: tuple[RelationScheme, ...]
    completer: RelationScheme

    def __str__(self) -> str:
        chain = " , ".join(member.name for member in self.computation)
        return (
            f"key {fmt_attrs(self.key)} split in {self.start.name}+ via "
            f"[{chain}]; completed by {self.completer.name} "
            f"({fmt_attrs(self.completer.attributes)}) which does not "
            "contain it"
        )


def find_split_witness(
    scheme: DatabaseScheme, key: AttrsLike
) -> Optional[SplitWitness]:
    """Exhaustive search over Algorithm 3 computations for a witness that
    ``key`` is split (definition in Section 3.3).

    Exponential in the number of members; used to cross-validate the
    Lemma 3.8 test on small schemes.
    """
    key_set = attrs(key)

    def explore(
        start: RelationScheme,
        closure: frozenset[str],
        used: tuple[RelationScheme, ...],
    ) -> Optional[SplitWitness]:
        if key_set <= closure:
            return None  # key already covered; later completion impossible
        for member in scheme.relations:
            if member in used or member is start:
                continue
            if member.attributes <= closure:
                continue
            if not any(k <= closure for k in member.keys):
                continue
            new_part = member.attributes - closure
            completes = (key_set - closure) and new_part >= (key_set - closure)
            if completes and not key_set <= member.attributes:
                return SplitWitness(
                    key=key_set,
                    start=start,
                    computation=used + (member,),
                    completer=member,
                )
            witness = explore(start, closure | member.attributes, used + (member,))
            if witness is not None:
                return witness
        return None

    for start in scheme.relations:
        witness = explore(start, start.attributes, ())
        if witness is not None:
            return witness
    return None
