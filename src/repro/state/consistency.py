"""Weak-instance consistency (paper, Sections 2.5 and 2.7).

A state is *consistent* when a weak instance exists — equivalently when
the chase of its state tableau does not find a contradiction (Honeyman).
``CHASE_F(T_r)`` is then the *representative instance*, and the X-total
projection ``[X]`` is the restricted projection of its total-on-X rows.

These chase-based routines are the library's ground-truth baseline: the
paper's Algorithms 1, 2 and 5 are validated against them throughout the
test suite and raced against them in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.fd.fdset import FDSet, FDsLike
from repro.fd.projection import project_fds
from repro.foundations.attrs import AttrsLike, attrs
from repro.foundations.errors import InconsistentStateError
from repro.state.database_state import DatabaseState
from repro.tableau.chase import ChaseResult, chase_relations
from repro.tableau.tableau import Tableau


def _constraints(state: DatabaseState, fds: Optional[FDsLike]) -> FDSet:
    """Default to the scheme's embedded key dependencies."""
    return state.scheme.fds if fds is None else FDSet(fds)


def is_locally_consistent(
    state: DatabaseState, fds: Optional[FDsLike] = None
) -> bool:
    """LSAT membership: every relation satisfies its projected fds
    ``F⁺|Ri`` (paper, Section 2.7)."""
    constraint_set = _constraints(state, fds)
    for name, relation in state:
        projected = project_fds(constraint_set, relation.attributes)
        if not relation.satisfies(projected):
            return False
    return True


def satisfies_embedded_keys(state: DatabaseState) -> bool:
    """The cheaper local check the paper's schemes actually enforce:
    every relation satisfies its *declared* key dependencies."""
    for name, relation in state:
        if not relation.satisfies(state.scheme[name].key_dependencies):
            return False
    return True


def chase_state(state: DatabaseState, fds: Optional[FDsLike] = None) -> ChaseResult:
    """``CHASE_F(T_r)`` with full result (tableau, consistency, steps).

    Runs the worklist engine directly over the stored value vectors —
    the state tableau is never materialized row-dict by row-dict (see
    :func:`repro.tableau.chase.chase_relations`)."""
    return chase_relations(
        state.scheme.universe,
        (
            (name, relation.columns, relation.row_vectors)
            for name, relation in state
        ),
        _constraints(state, fds),
    )


def is_consistent(state: DatabaseState, fds: Optional[FDsLike] = None) -> bool:
    """WSAT membership: does a weak instance exist for the state?"""
    return chase_state(state, fds).consistent


def representative_instance(
    state: DatabaseState, fds: Optional[FDsLike] = None
) -> Tableau:
    """The representative instance ``CHASE_F(T_r)``.

    Raises :class:`InconsistentStateError` when the state has no weak
    instance.
    """
    result = chase_state(state, fds)
    if not result.consistent:
        raise InconsistentStateError("state admits no weak instance")
    return result.tableau


def total_projection(
    state: DatabaseState,
    attributes: AttrsLike,
    fds: Optional[FDsLike] = None,
) -> set[tuple[Hashable, ...]]:
    """``[X]``: the X-total projection of the representative instance,
    as value tuples in canonical attribute order."""
    return representative_instance(state, fds).total_projection(attrs(attributes))


@dataclass(frozen=True)
class MaintenanceOutcome:
    """Result of checking one insertion ``<r, t>``: the decision, the new
    state when accepted, and instrumentation counters used by the
    constant-time-maintainability experiments.

    ``witness`` is the extended tuple ``q`` the paper's Algorithms 2 and
    5 output alongside *yes* — the inserted tuple joined with everything
    the state already knows about its keys."""

    consistent: bool
    state: Optional[DatabaseState]
    tuples_examined: int
    chase_steps: int = 0
    witness: Optional[dict[str, Hashable]] = None

    def __bool__(self) -> bool:
        return self.consistent

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready rendering of the decision and its diagnostics
        (the state itself is omitted — callers serialize it separately).

        Shared by the CLI's rejection output and the WAL's durable
        ``reject`` records, so a refused insertion keeps its diagnosis
        wherever it surfaces.  Witness values outside the JSON scalar
        types are rendered with ``str``."""
        witness = None
        if self.witness is not None:
            witness = {
                attribute: value
                if isinstance(value, (str, int, float, bool, type(None)))
                else str(value)
                for attribute, value in self.witness.items()
            }
        return {
            "consistent": self.consistent,
            "tuples_examined": self.tuples_examined,
            "chase_steps": self.chase_steps,
            "witness": witness,
        }


def maintain_by_chase(
    state: DatabaseState,
    relation_name: str,
    values: dict[str, Hashable],
    fds: Optional[FDsLike] = None,
) -> MaintenanceOutcome:
    """Baseline solution to the maintenance problem: insert and re-chase
    the whole state.  Correct for every scheme, but examines every stored
    tuple — the benchmark foil for Algorithms 2 and 5."""
    updated = state.insert(relation_name, values)
    result = chase_state(updated, fds)
    return MaintenanceOutcome(
        consistent=result.consistent,
        state=updated if result.consistent else None,
        tuples_examined=updated.total_tuples(),
        chase_steps=result.steps,
    )
