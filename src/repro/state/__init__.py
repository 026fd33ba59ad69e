"""Database states and weak-instance consistency (paper, Sections 2.1,
2.5, 2.7)."""

from repro.state.consistency import (
    MaintenanceOutcome,
    chase_state,
    is_consistent,
    is_locally_consistent,
    maintain_by_chase,
    representative_instance,
    satisfies_embedded_keys,
    total_projection,
)
from repro.state.database_state import DatabaseState, state_of, tuples_from_rows
from repro.state.relation import Relation, TupleLike

__all__ = [
    "DatabaseState",
    "MaintenanceOutcome",
    "Relation",
    "TupleLike",
    "chase_state",
    "is_consistent",
    "is_locally_consistent",
    "maintain_by_chase",
    "representative_instance",
    "satisfies_embedded_keys",
    "state_of",
    "total_projection",
    "tuples_from_rows",
]
