"""Tableaux and the chase (paper, Sections 2.2, 2.3, 2.5)."""

from repro.tableau.chase import ChaseResult, chase, satisfies
from repro.tableau.provenance import Application, ProvenanceChase
from repro.tableau.minimize import (
    equivalent,
    find_containment_mapping,
    minimize,
    remove_subsumed_rows,
    row_maps_into,
)
from repro.tableau.scheme_tableau import (
    bmsu_chased_rows,
    chased_scheme_tableau,
    is_lossless,
    scheme_tableau,
)
from repro.tableau.state_tableau import state_tableau
from repro.tableau.symbols import (
    NDVFactory,
    Symbol,
    constant,
    constant_value,
    dv,
    fmt_symbol,
    is_constant,
    is_dv,
    is_ndv,
    ndv,
    preferred,
)
from repro.tableau.tableau import Row, Tableau

__all__ = [
    "Application",
    "ChaseResult",
    "ProvenanceChase",
    "NDVFactory",
    "Row",
    "Symbol",
    "Tableau",
    "bmsu_chased_rows",
    "chase",
    "chased_scheme_tableau",
    "constant",
    "constant_value",
    "dv",
    "equivalent",
    "find_containment_mapping",
    "fmt_symbol",
    "is_constant",
    "is_dv",
    "is_lossless",
    "is_ndv",
    "minimize",
    "ndv",
    "preferred",
    "remove_subsumed_rows",
    "row_maps_into",
    "satisfies",
    "scheme_tableau",
    "state_tableau",
]
