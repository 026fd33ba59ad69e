"""Stateful (rule-based) testing: a random interleaving of inserts and
deletes driven through the WeakInstanceEngine, continuously checked
against the full-chase oracle.

This is the library's strongest end-to-end test: whatever sequence of
operations hypothesis invents, the incremental machinery must agree
with recomputing everything from scratch.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.core.engine import WeakInstanceEngine
from repro.state.consistency import is_consistent
from repro.state.database_state import DatabaseState
from repro.workloads.paper import example10_scheme
from repro.workloads.states import universe_tuple


class MaintenanceMachine(RuleBasedStateMachine):
    """Drive Example 10's split-free key-equivalent triangle.

    The machine tracks two views of the same data: the engine's
    immutable state (ground truth storage) and — per invariant — the
    full-chase recomputation.
    """

    def __init__(self) -> None:
        super().__init__()
        self.scheme = example10_scheme()
        self.engine = WeakInstanceEngine(self.scheme)
        self.state = self.engine.empty_state()

    def _tuple_for(self, relation_name: str, entity: int, twist: bool):
        full = universe_tuple(self.scheme, entity)
        member = self.scheme[relation_name]
        values = {a: full[a] for a in member.attributes}
        if twist:
            # Cross-breed with the next entity on one attribute to
            # create potential key conflicts.
            other = universe_tuple(self.scheme, entity + 1)
            attribute = sorted(member.attributes)[-1]
            values[attribute] = other[attribute]
        return values

    @rule(
        relation=st.sampled_from(["S1", "S2", "S3"]),
        entity=st.integers(min_value=0, max_value=3),
        twist=st.booleans(),
    )
    def insert(self, relation, entity, twist):
        values = self._tuple_for(relation, entity, twist)
        expected = is_consistent(self.state.insert(relation, values))
        outcome = self.engine.insert(self.state, relation, values)
        assert outcome.consistent == expected, (
            f"engine disagrees with chase on inserting {values} into "
            f"{relation}"
        )
        if expected:
            self.state = outcome.state

    @rule(
        relation=st.sampled_from(["S1", "S2", "S3"]),
        entity=st.integers(min_value=0, max_value=3),
    )
    def delete(self, relation, entity):
        values = self._tuple_for(relation, entity, twist=False)
        if values not in self.state[relation]:
            return
        self.state = self.engine.delete(self.state, relation, values)

    @invariant()
    def state_is_consistent(self):
        assert is_consistent(self.state)

    @invariant()
    def engine_queries_match_chase(self):
        from repro.state.consistency import total_projection

        target = self.scheme.universe
        assert self.engine.query(self.state, target) == total_projection(
            self.state, target
        )


MaintenanceMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
TestMaintenanceMachine = MaintenanceMachine.TestCase
