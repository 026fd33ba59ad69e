"""3NF synthesis (Bernstein / Biskup–Dayal–Bernstein).

The paper's standing assumption — a cover of the fds embedded as key
dependencies — is exactly what normalization-by-synthesis produces.
This module implements the classic algorithm so that users can go from
a raw fd set to a cover-embedding database scheme and then ask the
paper's questions about it (is it independent? independence-reducible?
ctm?).

Algorithm: take a minimal cover; group fds by equivalent left-hand
sides (X ≡ Y when X → Y and Y → X); emit one relation scheme per group
over the group's attributes, declaring the equivalent left-hand sides
as keys, or one scheme per left-hand side when the merged scheme is
not in 3NF; add a candidate key of the universe when no scheme contains
one (losslessness); drop schemes contained in others.  The result is
dependency-preserving, lossless and in 3NF.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from repro.fd.cover import minimal_cover
from repro.fd.fdset import FDSet, FDsLike
from repro.fd.keys import minimize_superkey
from repro.fd.normal_forms import scheme_is_3nf
from repro.foundations.attrs import AttrsLike, attrs, union_all
from repro.schema.database_scheme import DatabaseScheme
from repro.schema.operations import normalize_keys
from repro.schema.relation_scheme import RelationScheme


def synthesize_3nf(
    fds: FDsLike,
    universe: Optional[AttrsLike] = None,
    *,
    ensure_lossless: bool = True,
    name_prefix: str = "R",
) -> DatabaseScheme:
    """Synthesize a cover-embedding 3NF database scheme from fds.

    ``universe`` defaults to the attributes the fds mention.  With
    ``ensure_lossless`` a relation scheme over a candidate key of the
    universe is added when no synthesized scheme contains one, making
    the scheme lossless.  Declared keys are normalized to full
    candidate-key sets afterwards, matching the paper's convention.
    """
    fd_set = FDSet(fds)
    full = attrs(universe) if universe is not None else fd_set.attributes
    if not full:
        raise ValueError("cannot synthesize a scheme over an empty universe")
    missing = fd_set.attributes - full
    if missing:
        raise ValueError(
            f"fds mention attributes outside the universe: {sorted(missing)}"
        )

    cover = minimal_cover(fd_set)

    # Group by equivalent left-hand sides.
    groups: list[dict] = []
    for dependency in cover:
        placed = False
        for group in groups:
            representative = group["lhs_list"][0]
            if fd_set.determines(
                representative, dependency.lhs
            ) and fd_set.determines(dependency.lhs, representative):
                if dependency.lhs not in group["lhs_list"]:
                    group["lhs_list"].append(dependency.lhs)
                group["fds"].append(dependency)
                placed = True
                break
        if not placed:
            groups.append(
                {"lhs_list": [dependency.lhs], "fds": [dependency]}
            )

    members: list[RelationScheme] = []
    for group in groups:
        parts = [(group["lhs_list"], group["fds"])]
        attributes = union_all(
            [lhs for lhs in group["lhs_list"]]
            + [dependency.rhs for dependency in group["fds"]]
        )
        if len(group["lhs_list"]) > 1 and not scheme_is_3nf(
            attributes, fd_set
        ):
            # Merging equivalent left-hand sides can pull a transitive
            # dependency into one scheme (F = {ABC→F, ACF→E, B→E,
            # EF→B}: B→E in ABCEF).  One scheme per left-hand side of
            # a minimal cover is always 3NF.
            parts = [
                ([lhs], [d for d in group["fds"] if d.lhs == lhs])
                for lhs in group["lhs_list"]
            ]
        for keys, dependencies in parts:
            members.append(
                RelationScheme(
                    f"{name_prefix}{len(members) + 1}",
                    union_all(keys + [d.rhs for d in dependencies]),
                    keys,
                )
            )

    # Attributes mentioned by no fd still belong to the universe; give
    # them a home (they are all-key there).
    leftover = full - union_all(member.attributes for member in members)
    if leftover:
        members.append(
            RelationScheme(f"{name_prefix}{len(members) + 1}", leftover)
        )

    if ensure_lossless:
        universe_key = minimize_superkey(full, full, fd_set)
        if not any(universe_key <= member.attributes for member in members):
            members.append(
                RelationScheme(
                    f"{name_prefix}{len(members) + 1}", universe_key
                )
            )

    # Prune members properly contained in another — but only when the
    # member's key dependencies are implied by the survivors', since a
    # subset relation can carry a key dependency its superset does not
    # (e.g. A→B lives in AB but not in ABC when F = {A→B, BC→A}: A is
    # not a key of ABC).  Blind reduction would lose dependencies.
    kept = list(members)
    for member in list(kept):
        contained = any(
            member.attributes < other.attributes
            for other in kept
            if other is not member
        )
        if not contained:
            continue
        remaining = FDSet(
            chain.from_iterable(
                other.key_dependencies for other in kept if other is not member
            )
        )
        if remaining.covers(member.key_dependencies):
            kept.remove(member)
    return normalize_keys(DatabaseScheme(kept))
