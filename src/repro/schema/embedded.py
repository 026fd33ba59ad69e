"""Cover-embedding.

A database scheme ``R`` is *cover embedding* with respect to fds ``F``
when some cover ``G`` of ``F`` has each fd embedded in some member of
``R`` (paper, Section 2.3).  The canonical test: the union over members
of covers of the projections ``F⁺|Ri`` is itself a cover of ``F``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from repro.fd.fdset import FDSet, FDsLike
from repro.fd.projection import project_fds
from repro.foundations.attrs import AttrsLike, attrs
from repro.schema.database_scheme import DatabaseScheme


def embedded_cover(schemes: Iterable[AttrsLike], fds: FDsLike) -> FDSet:
    """The union of projection covers ``∪i cover(F⁺|Ri)`` — the largest
    embedded fd set derivable from ``F``."""
    fd_set = FDSet(fds)
    return FDSet(
        chain.from_iterable(
            project_fds(fd_set, attrs(scheme)) for scheme in schemes
        )
    )


def is_cover_embedding(schemes: Iterable[AttrsLike], fds: FDsLike) -> bool:
    """True iff a cover of ``fds`` is embedded in the schemes."""
    fd_set = FDSet(fds)
    return embedded_cover(schemes, fd_set).covers(fd_set)


def declared_keys_cover_fds(scheme: DatabaseScheme, fds: FDsLike) -> bool:
    """True iff the scheme's declared key dependencies form a cover of
    ``fds`` — i.e. the declared keys genuinely embed the constraint set,
    which is the paper's standing assumption."""
    return scheme.fds.equivalent_to(FDSet(fds))
