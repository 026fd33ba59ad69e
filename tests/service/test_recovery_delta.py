"""Crash-recovery equivalence for the delta-chase replay path.

WAL replay re-validates each record through the engine; on a scheme
outside the independence-reducible class that used to mean one full
re-chase per record, and now means extending the engine's persistent
delta basis (every replayed insert's output state is the next record's
input, so the basis hits on each step after the first).  These tests
prove the optimization is invisible: recovery reaches byte-identical
state and sequence numbers, whether replaying a long accepted history,
a history with logged rejections, or a snapshot plus a WAL tail."""

from repro.service.store import DurableStore
from repro.state.consistency import maintain_by_chase
from repro.state.database_state import DatabaseState
from repro.workloads.adversarial import (
    example2_chain_state,
    example2_killer_insert,
)
from repro.workloads.paper import example2_not_algebraic


def _chain_inserts(count):
    """Accepted single-tuple inserts on Example 2's chain scheme."""
    return [("R1", {"A": f"x{i}", "B": f"y{i}"}) for i in range(count)]


def _full_replay_oracle(scheme, records):
    """The pre-delta recovery semantics: every record re-validated by a
    from-scratch chase."""
    state = DatabaseState(scheme)
    for name, values in records:
        outcome = maintain_by_chase(state, name, values)
        if outcome.consistent:
            state = outcome.state
    return state


class TestDeltaReplayEquivalence:
    def test_replay_matches_the_full_chase_oracle(self, tmp_path):
        scheme = example2_not_algebraic()
        records = _chain_inserts(12)
        store = DurableStore.create(tmp_path / "store", scheme)
        for name, values in records:
            assert store.insert(name, values).consistent
        last_seq = store.last_seq
        store.close()

        reopened = DurableStore.open(tmp_path / "store")
        try:
            assert reopened.last_seq == last_seq
            assert reopened.recovery.replayed == len(records)
            oracle = _full_replay_oracle(scheme, records)
            for name in scheme.names:
                assert (
                    reopened.state[name].row_vectors
                    == oracle[name].row_vectors
                )
        finally:
            reopened.close()

    def test_replay_with_logged_rejections(self, tmp_path):
        """A WAL holding a rejected insert replays to the same state:
        the delta basis rolls the rejection back and keeps serving."""
        n = 8
        chain = example2_chain_state(n)
        scheme = chain.scheme
        killer_name, killer_values = example2_killer_insert(n)
        store = DurableStore.create(tmp_path / "store", scheme)
        accepted = []
        for name, relation in chain:
            for values in relation:
                assert store.insert(name, values).consistent
                accepted.append((name, values))
        assert not store.insert(killer_name, killer_values).consistent
        extra = ("R1", {"A": "post", "B": "post"})
        assert store.insert(*extra).consistent
        accepted.append(extra)
        store.close()

        reopened = DurableStore.open(tmp_path / "store")
        try:
            assert reopened.recovery.rejects_in_log == 1
            oracle = _full_replay_oracle(scheme, accepted)
            for name in scheme.names:
                assert (
                    reopened.state[name].row_vectors
                    == oracle[name].row_vectors
                )
            # The killer insert still rejects against the recovered
            # state — the basis after replay is a live, correct basis.
            assert not reopened.insert(killer_name, killer_values).consistent
        finally:
            reopened.close()

    def test_snapshot_then_wal_tail_replays_through_the_basis(self, tmp_path):
        """Snapshot + tail: the basis seeds from the snapshot state on
        the first tail record and extends through the rest."""
        scheme = example2_not_algebraic()
        store = DurableStore.create(tmp_path / "store", scheme)
        head, tail = _chain_inserts(10)[:5], _chain_inserts(10)[5:]
        for name, values in head:
            assert store.insert(name, values).consistent
        store.snapshot()
        for name, values in tail:
            assert store.insert(name, values).consistent
        store.close()

        reopened = DurableStore.open(tmp_path / "store")
        try:
            assert reopened.recovery.replayed == len(tail)
            oracle = _full_replay_oracle(scheme, head + tail)
            for name in scheme.names:
                assert (
                    reopened.state[name].row_vectors
                    == oracle[name].row_vectors
                )
        finally:
            reopened.close()
