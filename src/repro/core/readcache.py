"""Block-scoped query-result caching for the read path.

The paper's boundedness result makes caching a theorem, not a
heuristic: on an independence-reducible scheme every total projection
``[X]`` is a *predetermined* expression over the relations of the
blocks it touches, so the answer is a pure function of ``(X, contents
of the touched blocks)``.  A write confined to one block provably
cannot change the answer of a query whose plan never reads that block
— which means per-block versions give *exact* invalidation:

* :class:`BlockVersions` assigns a monotonically increasing version to
  each distinct ``(block, relation identities)`` it sees, lazily, on
  the first lookup.  States are immutable and an update rebuilds only
  the written block's :class:`~repro.state.relation.Relation` objects,
  so an unchanged block keeps its version across writes while the
  mutated block earns a fresh one, with no write path stamping
  anything.
* :class:`ReadCache` keys cached answers by ``(scheme fingerprint,
  target attributes, tuple of touched-block versions)``.  A hit is a
  dict probe; a write "invalidates" nothing explicitly — the version
  tuple of overlapping queries simply stops matching.

Schemes outside the reducible class (and targets without a
predetermined plan) still cache soundly: their touched set degrades to
*every* block, so any write anywhere changes the key.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import Callable, Hashable, Optional

from repro.core.partition import SchemePartition
from repro.core.query import QueryPlan
from repro.foundations.cache import MISSING, CacheInfo, LRUCache
from repro.foundations.errors import ReproError
from repro.state.database_state import DatabaseState

#: A plan provider: ``target -> QueryPlan`` (the engine's memoized
#: :meth:`~repro.core.engine.WeakInstanceEngine.plan`).  May raise
#: :class:`SchemaError` for targets no predetermined expression covers
#: and :class:`NotApplicableError` for targets the chase answers.
PlanProvider = Callable[[frozenset], QueryPlan]


class BlockVersions:
    """Monotonic per-block version counters over immutable states.

    Versions are assigned lazily per ``(block index, identities of the
    block's relations)``.  Entries keep strong references to
    the relation objects (so an ``id`` cannot be recycled while its
    entry lives) and every lookup re-verifies identity before trusting
    the key.  Eviction is harmless: a re-seen block merely earns a new,
    larger version, which can only turn would-be hits into misses,
    never a stale hit.
    """

    __slots__ = ("_partition", "_versions", "_counter", "_lock")

    def __init__(
        self, partition: SchemePartition, maxsize: Optional[int] = None
    ) -> None:
        self._partition = partition
        if maxsize is None:
            maxsize = 16 * max(1, len(partition.blocks))
        self._versions: LRUCache = LRUCache(maxsize)
        self._counter = count(1)
        self._lock = threading.Lock()

    def _relations(self, state: DatabaseState, block_index: int) -> tuple:
        names = self._partition.block_names[block_index]
        return tuple(state[name] for name in names)

    def version(self, state: DatabaseState, block_index: int) -> int:
        """The version of one block of ``state``, assigning a fresh one
        the first time this exact block content (by relation identity)
        is seen."""
        relations = self._relations(state, block_index)
        key = (block_index,) + tuple(id(relation) for relation in relations)
        entry = self._versions.get(key, MISSING)
        if entry is not MISSING and all(
            cached is live for cached, live in zip(entry[0], relations)
        ):
            return entry[1]
        with self._lock:
            version = next(self._counter)
        self._versions.put(key, (relations, version))
        return version


class ReadCache:
    """The query-result cache: ``(fingerprint, target, versions) ->
    frozenset of rows``.

    ``touched_blocks`` is memoized per target in an LRU as large as the
    result cache (targets outside the universe are answered too, so the
    set of targets a client can name is unbounded): reducible schemes
    read the plan's relation names and map them to blocks; targets
    without a plan (any ``ReproError`` from the planner) and
    non-reducible schemes degrade to all blocks, which is sound — their
    answers may depend on the whole state, so any write must change the
    key.
    """

    __slots__ = ("_partition", "versions", "_results", "_touched")

    def __init__(
        self, partition: SchemePartition, maxsize: int = 1024
    ) -> None:
        self._partition = partition
        self.versions = BlockVersions(partition)
        self._results: LRUCache = LRUCache(maxsize)
        self._touched: LRUCache = LRUCache(maxsize)

    def touched_blocks(
        self, target: frozenset, plan_for: PlanProvider
    ) -> tuple[int, ...]:
        """The block indices whose contents the answer of ``[target]``
        can depend on (memoized per target)."""
        cached = self._touched.get(target)
        if cached is not None:
            return cached
        partition = self._partition
        every = tuple(range(len(partition.blocks)))
        if not partition.accepted:
            blocks = every
        else:
            try:
                plan = plan_for(target)
            except ReproError:
                # No plan: either no extension join covers the target
                # (the answer is empty whatever the data) or the chase
                # answers it; keying on every block is sound for both.
                blocks = every
            else:
                blocks = tuple(
                    sorted(
                        {
                            partition.block_index_of(name)
                            for name in plan.expression.relation_names()
                        }
                    )
                    or every
                )
        self._touched.put(target, blocks)
        return blocks

    def key(
        self,
        state: DatabaseState,
        target: frozenset,
        plan_for: PlanProvider,
    ) -> tuple:
        """The cache key of ``[target]`` over ``state``: fingerprint,
        target, and the current versions of the touched blocks."""
        versions = tuple(
            self.versions.version(state, block_index)
            for block_index in self.touched_blocks(target, plan_for)
        )
        return (self._partition.fingerprint, target, versions)

    def get(self, key: tuple) -> Optional[set[tuple[Hashable, ...]]]:
        """The cached answer as a fresh mutable set, or ``None``."""
        rows = self._results.get(key, MISSING)
        if rows is MISSING:
            return None
        return set(rows)

    def put(self, key: tuple, rows: set[tuple[Hashable, ...]]) -> None:
        self._results.put(key, frozenset(rows))

    def info(self) -> CacheInfo:
        """Hit/miss/eviction accounting of the result cache."""
        return self._results.info()
