"""Seeded relation-mirror invalidation violation, with clean
counterexamples.

Loaded by path in the linter tests — never imported or executed.  A
router that mirrors gathered relations must bump their write
generation on every write path (a bracketing context manager or a
call in a ``finally`` both count); the tests pair this file with an
:class:`InvalidationConfig` naming these methods.
"""


class MiniRouter:
    def insert(self, relation, values):
        with self._invalidate((relation,)):  # clean: brackets the RPC
            return self._rpc({"op": "insert", "relation": relation})

    def delete(self, relation, values):
        self._rpc({"op": "delete", "relation": relation})  # VIOLATION

    def apply_batch(self, updates):
        try:
            return self._apply_batch_sharded(updates)
        finally:
            self._invalidate(name for _, name, _ in updates)  # clean
