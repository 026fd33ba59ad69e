"""Lossless subsets covering an attribute set.

``S ⊆ R`` is a *lossless subset of R covering X* when ``∪S ⊇ X`` and
``S`` is lossless with respect to the fds embedded in ``S`` (paper,
Section 2.3).  Corollary 3.1(b) computes total projections over
key-equivalent schemes as unions of projections of joins of such
subsets, so enumerating the *minimal* ones is a core operation.

Two subtleties fix the semantics:

* "the fds embedded in S" means the projection ``F⁺|∪S`` of the *whole*
  scheme's dependency closure onto the subset's attribute union — not
  merely the members' own key dependencies.  Example 4 forces this
  reading: ``{AB, AC, EB, EC}`` is a lossless subset covering ``AE``
  only because ``BC → AE ∈ F⁺`` (routed through the attribute ``D`` of
  relations outside the subset).  The test below therefore chases
  ``T_S`` padded to the full universe under the full ``F`` and accepts
  when some row's distinguished-variable set covers ``∪S`` — chasing
  with the padding attributes as existentials computes exactly
  ``F⁺|∪S`` implication.
* Subsets built by *rooted key-growth* (start anywhere, absorb a
  relation once one of its declared keys is inside the accumulated
  attributes) are always lossless and correspond to the sequential
  extension joins of Section 2.6; they are complete for split-free
  schemes (Corollary 3.2(a)) but miss "converging" subsets such as the
  Example 4 one, whose join assembles a split key from fragments.  Both
  enumerations are exposed: the exact exponential one and the rooted
  polynomial one.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Optional, Sequence

from repro.fd.fdset import FDSet, FDsLike, as_fdset
from repro.foundations.attrs import AttrsLike, attrs, union_all
from repro.foundations.errors import NotApplicableError
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.relation_scheme import RelationScheme
from repro.tableau.chase import chase
from repro.tableau.scheme_tableau import scheme_tableau
from repro.tableau.symbols import is_dv


def subset_embedded_fds(members: Sequence[RelationScheme]) -> FDSet:
    """The members' own key dependencies (NOT the full ``F⁺|∪S``; see the
    module docstring — this weaker set drives the rooted construction)."""
    return FDSet(chain.from_iterable(m.key_dependencies for m in members))


def is_lossless_subset(
    members: Sequence[RelationScheme],
    fds: Optional[FDsLike] = None,
    universe: Optional[AttrsLike] = None,
) -> bool:
    """Is this set of relation schemes a lossless subset?

    ``fds`` should be the *whole* scheme's embedded key dependencies
    (defaults to the members' own when omitted); ``universe`` the whole
    scheme's universe (defaults to the union of the full fd set's
    attributes and the members').  The test chases ``T_S`` padded to the
    universe under ``fds`` and accepts when some row carries
    distinguished variables on all of ``∪S`` — i.e. ``S`` is lossless
    with respect to ``F⁺|∪S``.  One member needs no chase: ``T_S`` is
    then one row, distinguished on all of ``∪S``.
    """
    if not members:
        return False
    if len(members) == 1:
        return True
    fd_set = subset_embedded_fds(members) if fds is None else as_fdset(fds)
    joint = union_all(member.attributes for member in members)
    full = (
        attrs(universe)
        if universe is not None
        else joint | fd_set.attributes
    )
    tableau = scheme_tableau(
        [(member.name, member.attributes) for member in members], full
    )
    chased = chase(tableau, fd_set).tableau
    for row in chased:
        if all(is_dv(row[a]) for a in joint):
            return True
    return False


def minimal_lossless_subsets_covering(
    scheme: DatabaseScheme,
    target: AttrsLike,
    max_relations: int = 14,
) -> list[tuple[RelationScheme, ...]]:
    """All minimal lossless subsets of ``scheme`` covering ``target``
    (exact; exponential in the number of relation schemes).

    Subsets are enumerated by increasing size so supersets of found
    subsets are pruned; each candidate is tested with the chase-based
    losslessness check under the scheme's full dependency set.  Raises
    :class:`NotApplicableError` beyond ``max_relations`` members — use
    :func:`extension_join_subsets_covering` for large split-free inputs.
    """
    if len(scheme.relations) > max_relations:
        raise NotApplicableError(
            "exact lossless-subset enumeration capped at "
            f"{max_relations} relations; use extension_join_subsets_covering"
        )
    target_set = attrs(target)
    members = scheme.relations
    found: list[frozenset[int]] = []
    results: list[tuple[RelationScheme, ...]] = []
    for size in range(1, len(members) + 1):
        for combo in combinations(range(len(members)), size):
            chosen = frozenset(combo)
            if any(previous <= chosen for previous in found):
                continue
            subset = tuple(members[i] for i in combo)
            union = union_all(member.attributes for member in subset)
            if not target_set <= union:
                continue
            if is_lossless_subset(subset, scheme.fds, scheme.universe):
                found.append(chosen)
                results.append(subset)
    return sorted(results, key=lambda subset: tuple(m.name for m in subset))


def _absorbable(
    scheme: DatabaseScheme, chosen: frozenset[int], covered: frozenset[str]
) -> set[int]:
    """Positions of the members outside ``chosen`` with a declared key
    inside ``covered``: the next steps of rooted key-growth.  Only
    members keyed on a covered attribute are looked at."""
    keyed_on = scheme.keyed_on
    members = scheme.relations
    return {
        position
        for attribute in covered
        for position in keyed_on.get(attribute, ())
        if position not in chosen
        and any(key <= covered for key in members[position].keys)
    }


def extension_join_positions(
    scheme: DatabaseScheme, target: frozenset[str]
) -> list[tuple[int, ...]]:
    """:func:`extension_join_subsets_covering` as tuples of member
    positions (each in member order, the list in that function's
    order)."""
    members = scheme.relations
    found: set[frozenset[int]] = set()
    visited: set[frozenset[int]] = set()
    # Every declared key is non-empty (RelationScheme rejects an empty
    # one), so each absorbed member shares an attribute with the growing
    # subset: growth never leaves its root's attribute-connected
    # component, and a component whose attributes miss part of the
    # target roots nothing that could cover it.
    stack = [
        (frozenset((root,)), members[root].attributes)
        for positions, union in scheme.components
        if target <= union
        for root in positions
    ]
    while stack:
        chosen, covered = stack.pop()
        if chosen in visited:
            continue
        visited.add(chosen)
        if target <= covered:
            found.add(chosen)
            continue
        for position in _absorbable(scheme, chosen, covered):
            stack.append(
                (chosen | {position}, covered | members[position].attributes)
            )
    return sorted(
        (
            tuple(sorted(chosen))
            for chosen in found
            if not any(other < chosen for other in found)
        ),
        key=lambda subset: tuple(members[p].name for p in subset),
    )


def extension_join_subsets_covering(
    scheme: DatabaseScheme, target: AttrsLike
) -> list[tuple[RelationScheme, ...]]:
    """Minimal subsets constructible by rooted key-growth covering the
    target — the subsets realizable as sequential extension joins
    (Section 2.6).

    Polynomial-ish and always sound (every result is lossless); complete
    for split-free schemes (Corollary 3.2(a)) and for the induced scheme
    of Theorem 4.1, where Sagiv's evaluation uses exactly these access
    paths.  Growth is rooted only in the attribute-connected components
    that cover the target, and each step looks only at the members keyed
    on a covered attribute (both indexes are built once per scheme).
    """
    members = scheme.relations
    return [
        tuple(members[position] for position in subset)
        for subset in extension_join_positions(scheme, attrs(target))
    ]


def lossless_subset_attributes(
    subset: Sequence[RelationScheme],
) -> frozenset[str]:
    """``∪S`` for a subset of relation schemes."""
    return union_all(member.attributes for member in subset)
