"""The corresponding state on the induced scheme (paper, Section 4.1).

Given a consistent state ``r`` on an independence-reducible scheme and
its partition ``T``, the paper constructs the *corresponding state*
``d`` on ``D = {∪Tp}``: each block's substate is padded to the block
union and chased with the block's key dependencies — the resulting
"relation" ``dj`` may contain nulls (here: partial tuples).  Lemma 4.2
shows ``T_r`` chases to a tableau equivalent to ``T_d``, which is what
lets the independent scheme ``D`` answer queries for ``R``.

This module materializes ``d`` explicitly (the query evaluator uses the
same construction inline) and exposes the Lemma 4.2 equivalence check
used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.key_equivalent import KERepInstance, key_equivalent_chase
from repro.core.reducible import (
    RecognitionResult,
    recognize_independence_reducible,
)
from repro.foundations.errors import InconsistentStateError, NotApplicableError
from repro.state.database_state import DatabaseState
from repro.tableau.state_tableau import state_tableau
from repro.tableau.tableau import Tableau


@dataclass(frozen=True)
class CorrespondingState:
    """The state ``d`` on the induced scheme: one chased block instance
    per induced relation (partial tuples stand in for the paper's
    nulls)."""

    recognition: RecognitionResult
    blocks: dict[str, KERepInstance]

    def tableau(self) -> Tableau:
        """``T_d``: one row per block-instance tuple, padded with fresh
        nondistinguished variables to the universe."""
        universe = frozenset().union(
            *(member.attributes for member in self.recognition.induced)
        )
        # Each block-instance class is a partial tuple on its induced
        # relation; emit it over exactly its constant attributes (its
        # missing attributes become fresh nondistinguished variables —
        # the paper's nulls).
        rows = []
        for member in self.recognition.induced:
            for row in self.blocks[member.name].classes:
                present = frozenset(row)
                rows.append((member.name, present, [dict(row)]))
        return state_tableau(rows, universe=universe)

    def total_projection(self, attributes) -> set[tuple[Hashable, ...]]:
        """Union of the block instances' total projections — only
        meaningful per block; cross-block queries go through
        :func:`repro.core.query.total_projection_plan`."""
        out: set[tuple[Hashable, ...]] = set()
        for instance in self.blocks.values():
            out |= instance.total_projection(attributes)
        return out


def corresponding_state(
    state: DatabaseState,
    recognition: Optional[RecognitionResult] = None,
) -> CorrespondingState:
    """Construct the paper's corresponding state ``d`` from ``r``.

    Raises :class:`NotApplicableError` outside the reducible class and
    :class:`InconsistentStateError` when a block substate has no weak
    instance.
    """
    if recognition is None:
        recognition = recognize_independence_reducible(state.scheme)
    if not recognition.accepted:
        raise NotApplicableError(
            "corresponding states exist for independence-reducible "
            "schemes only"
        )
    blocks: dict[str, KERepInstance] = {}
    for member, block in zip(recognition.induced, recognition.partition):
        substate = DatabaseState(
            block, {name: list(state[name]) for name in block.names}
        )
        instance = key_equivalent_chase(substate, check_scheme=False)
        if instance is None:
            raise InconsistentStateError(
                f"block {member.name} of the state is inconsistent"
            )
        blocks[member.name] = instance
    return CorrespondingState(recognition=recognition, blocks=blocks)
