"""Functional-dependency theory: fds, closures, covers, keys, projections
and normal forms (paper, Section 2.3)."""

from repro.fd.armstrong import (
    Derivation,
    Step,
    derive,
    explain_key,
    verify_derivation,
)
from repro.fd.closure import ClosureIndex, closure, closure_linear
from repro.fd.cover import is_cover, minimal_cover, remove_extraneous_lhs
from repro.fd.fd import FD, fd, parse_fd, parse_fds
from repro.fd.fdset import FDSet, FDsLike
from repro.fd.keydeps import (
    key_dependencies,
    key_dependencies_of,
    validate_declared_keys,
)
from repro.fd.keys import candidate_keys, is_key, is_superkey, minimize_superkey
from repro.fd.normal_forms import (
    database_scheme_is_bcnf,
    scheme_is_3nf,
    scheme_is_bcnf,
)
from repro.fd.projection import project_fds, satisfies_projection

__all__ = [
    "Derivation",
    "FD",
    "Step",
    "derive",
    "explain_key",
    "verify_derivation",
    "FDSet",
    "FDsLike",
    "ClosureIndex",
    "closure",
    "closure_linear",
    "candidate_keys",
    "database_scheme_is_bcnf",
    "fd",
    "is_cover",
    "is_key",
    "is_superkey",
    "key_dependencies",
    "key_dependencies_of",
    "minimal_cover",
    "minimize_superkey",
    "parse_fd",
    "parse_fds",
    "project_fds",
    "remove_extraneous_lhs",
    "satisfies_projection",
    "scheme_is_3nf",
    "scheme_is_bcnf",
    "validate_declared_keys",
]
