"""Key dependencies.

The paper assumes throughout that a cover of the fds is embedded in the
database scheme *as keys*: each relation scheme ``Ri`` carries a set of
declared candidate keys ``Ki``, and the constraint set is
``F = ∪ {K → Ri − K : K a declared key of Ri}`` (Section 2.3).  This
module converts declared keys into that fd set and validates the
declaration (keys must be minimal and mutually incomparable).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.fd.fd import FD
from repro.fd.fdset import FDSet, FDsLike
from repro.fd.keys import is_key
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs, incomparable
from repro.foundations.errors import SchemaError


def key_dependencies_of(
    scheme: AttrsLike, keys: Iterable[AttrsLike]
) -> FDSet:
    """The key dependencies ``K → scheme − K`` for each declared key.

    Keys equal to the whole scheme contribute only trivial fds and yield
    an empty contribution (a relation scheme may legitimately be all-key).
    """
    scheme_set = attrs(scheme)
    deps: list[FD] = []
    for key in keys:
        key_set = attrs(key)
        if not key_set <= scheme_set:
            raise SchemaError(
                f"key {fmt_attrs(key_set)} not contained in scheme "
                f"{fmt_attrs(scheme_set)}"
            )
        rest = scheme_set - key_set
        if rest:
            deps.append(FD(key_set, rest))
    return FDSet(deps)


def key_dependencies(
    keys_by_scheme: Mapping[frozenset[str], Sequence[frozenset[str]]]
) -> FDSet:
    """Union of key dependencies over a whole database scheme."""
    return FDSet(
        chain.from_iterable(
            key_dependencies_of(scheme, keys)
            for scheme, keys in keys_by_scheme.items()
        )
    )


def validate_declared_keys(
    scheme: AttrsLike, keys: Sequence[AttrsLike], fds: FDsLike
) -> None:
    """Check a key declaration is sound with respect to ``fds``.

    Each declared key must be a candidate key of ``scheme`` (minimal
    superkey) and declared keys must be pairwise incomparable.  Raises
    :class:`SchemaError` on violation.
    """
    fd_set = FDSet(fds)
    scheme_set = attrs(scheme)
    key_sets = [attrs(key) for key in keys]
    for key in key_sets:
        if not is_key(key, scheme_set, fd_set):
            raise SchemaError(
                f"declared key {fmt_attrs(key)} is not a candidate key of "
                f"{fmt_attrs(scheme_set)}"
            )
    for i, left in enumerate(key_sets):
        for right in key_sets[i + 1 :]:
            if left != right and not incomparable(left, right):
                raise SchemaError(
                    f"declared keys {fmt_attrs(left)} and {fmt_attrs(right)} "
                    "are comparable; keys must be minimal"
                )
