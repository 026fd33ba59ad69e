"""Seeded cache-invalidation violations, with clean counterexamples.

Loaded by path in the linter tests — never imported or executed.  The
tests pair this file with an :class:`InvalidationConfig` naming these
functions as the mutation map.
"""


class MiniEngine:
    def insert(self, state, relation, values):
        outcome = self.maintainer.insert(state, relation, values)
        self._note_write(outcome.state, relation)  # clean: stamps
        return outcome

    def delete(self, state, relation, values):
        return state.delete(relation, values)  # VIOLATION: never stamps

    def batch(self, state, updates):
        for update in updates:
            state = self.insert(state, *update)  # clean: delegates
        return state


def replay_records(engine, state, records):
    for record in records:
        state = engine.insert(  # clean: applies through the engine
            state, record.relation, record.values
        )
    return state
