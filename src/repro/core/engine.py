"""A weak-instance engine: the library's batteries-included façade.

:class:`WeakInstanceEngine` wraps a database scheme with everything a
downstream application needs:

* cached recognition (Algorithm 6) and per-relation maintenance
  strategies;
* cached total-projection plans per target attribute set (the paper's
  predetermined expressions), with ``explain`` output;
* insert / delete / batch-update against immutable states —
  deletions are always consistency-preserving in the weak-instance
  model (the old weak instance still witnesses the smaller state), so
  only insertions need validation;
* query evaluation behind a block-versioned result cache: the
  compiled predetermined plan on a reducible scheme, the chase
  outside the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from repro.compile import KernelSpace
from repro.core.ctm import BlockOutcome, InsertMaintainer
from repro.core.partition import (
    RoutedUpdate,
    SchemePartition,
    partition_scheme,
)
from repro.core.query import QueryPlan, total_projection_plan
from repro.core.readcache import ReadCache
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs
from repro.foundations.cache import MISSING, CacheInfo, LRUCache
from repro.foundations.errors import (
    InconsistentStateError,
    NotApplicableError,
    SchemaError,
    StateError,
)
from repro.obs.spans import span
from repro.schema.database_scheme import DatabaseScheme
from repro.state.consistency import MaintenanceOutcome, chase_state
from repro.state.database_state import DatabaseState
from repro.tableau.tableau import Tableau

#: One batch operation: ("insert" | "delete", relation name, tuple).
Update = tuple[str, str, Mapping[str, Hashable]]


@dataclass(frozen=True)
class BatchOutcome:
    """Result of a batch of updates: the final state when every insert
    validated, or the index and outcome of the first rejection."""

    state: Optional[DatabaseState]
    applied: int
    failed_index: Optional[int] = None
    failure: Optional[MaintenanceOutcome] = None

    def __bool__(self) -> bool:
        return self.state is not None

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready rendering: whether the batch committed, how many
        updates were applied before the verdict, and — on rejection —
        the failing index with the full
        :meth:`~repro.state.consistency.MaintenanceOutcome.to_dict`
        diagnostics.  Used by the CLI and the WAL's ``reject`` records."""
        return {
            "committed": self.state is not None,
            "applied": self.applied,
            "failed_index": self.failed_index,
            "failure": None if self.failure is None else self.failure.to_dict(),
        }


class WeakInstanceEngine:
    """Scheme-bound query/update engine with plan and chase caching.

    The memo layers are bounded LRU caches (see
    :class:`repro.foundations.cache.LRUCache`): ``plan_cache_size``
    bounds the predetermined-plan cache per target attribute set *and*
    the compiled-kernel program cache (keyed by
    ``(scheme fingerprint, plan fingerprint)``), and
    ``chase_cache_size`` bounds the representative-instance cache per
    state.  Chase results are keyed by state *identity* — a
    :class:`DatabaseState` is immutable, so the chase of one particular
    object never changes; the cache entry keeps a strong reference to
    the state so the ``id`` cannot be recycled while the entry lives.

    Reducible queries and the Algorithm-2 insert validations run
    through the columnar kernels of :mod:`repro.compile`.  A
    block-versioned query-result cache sits in front of every query
    (see :mod:`repro.core.readcache`): a repeated ``[X]`` against a
    state whose touched blocks are unchanged is a dict probe.  A write
    gives only the written block new relation objects, and block
    versions are keyed by relation identity, so only queries
    overlapping the written block stop hitting.  ``read_cache_size``
    bounds the number of cached answers and of memoized per-target
    touched-block sets.
    """

    def __init__(
        self,
        scheme: DatabaseScheme,
        plan_cache_size: int = 256,
        chase_cache_size: int = 64,
        read_cache_size: int = 1024,
    ) -> None:
        self.scheme = scheme
        self.partition: SchemePartition = partition_scheme(scheme)
        self._compiled: LRUCache = LRUCache(plan_cache_size)
        self.kernels = KernelSpace(programs=self._compiled)
        self.maintainer = InsertMaintainer(
            scheme, partition=self.partition, kernels=self.kernels
        )
        self.recognition = self.maintainer.recognition
        self._plans: LRUCache = LRUCache(plan_cache_size)
        self._chase: LRUCache = LRUCache(chase_cache_size)
        self.read_cache = ReadCache(self.partition, maxsize=read_cache_size)

    def close(self) -> None:
        """Nothing to release: the engine holds no threads or handles.
        Kept because the front-door benchmark (``perfbench/``) closes
        the engines it builds."""

    # -- classification -------------------------------------------------------
    @property
    def reducible(self) -> bool:
        return self.recognition.accepted

    def strategy_report(self) -> str:
        return str(self.maintainer.report())

    # -- states ----------------------------------------------------------------
    def empty_state(self) -> DatabaseState:
        return DatabaseState(self.scheme)

    def load(
        self, relations: Mapping[str, Iterable[Mapping[str, Hashable]]]
    ) -> DatabaseState:
        """Bulk-load a state and verify it is consistent.

        On a scheme of several blocks the check chases each block's
        substate: the induced scheme is independent, so the state is
        consistent iff every block substate is (Section 4.2).  Otherwise
        it chases the whole state, memoized, so a ``query`` on the
        loaded state reuses the representative instance computed
        here."""
        state = DatabaseState(self.scheme, relations)
        if not self.partition.parallelizable:
            self.representative(state)  # raises when inconsistent
            return state
        for index in range(len(self.partition.blocks)):
            if not chase_state(self.partition.substate(state, index)).consistent:
                raise InconsistentStateError("state admits no weak instance")
        return state

    def representative(self, state: DatabaseState) -> Tableau:
        """The representative instance ``CHASE_F(T_r)``, memoized per
        state object.

        Raises :class:`InconsistentStateError` when the state has no
        weak instance (the rejection is memoized too)."""
        key = id(state)
        # Sentinel lookup: the stored entry is a tuple, never None, but
        # the sentinel keeps presence and value strictly separate (see
        # repro.foundations.cache.MISSING).
        entry = self._chase.get(key, MISSING)
        if entry is MISSING or entry[0] is not state:
            entry = (state, chase_state(state))
            self._chase.put(key, entry)
        result = entry[1]
        if not result.consistent:
            raise InconsistentStateError("state admits no weak instance")
        return result.tableau

    def cache_info(self) -> dict[str, CacheInfo]:
        """Hit/miss/eviction accounting for the engine's memo layers."""
        return {
            "plans": self._plans.info(),
            "compiled": self._compiled.info(),
            "chase": self._chase.info(),
            "read": self.read_cache.info(),
        }

    # -- updates -----------------------------------------------------------------
    def insert(
        self,
        state: DatabaseState,
        relation_name: str,
        values: Mapping[str, Hashable],
    ) -> MaintenanceOutcome:
        """Validate and apply one insertion (Algorithm 5 / 2 / chase)."""
        with span("engine.insert") as sp:
            outcome = self.maintainer.insert(state, relation_name, values)
            if sp:
                sp.add("tuples_examined", outcome.tuples_examined)
                sp.add("chase_steps", outcome.chase_steps)
                sp.add("accepted", 1 if outcome.consistent else 0)
                sp.add("rejected", 0 if outcome.consistent else 1)
            return outcome

    def delete(
        self,
        state: DatabaseState,
        relation_name: str,
        values: Mapping[str, Hashable],
    ) -> DatabaseState:
        """Apply a deletion — always consistency-preserving."""
        with span("engine.delete") as sp:
            result = state.delete(relation_name, values)
            if sp:
                sp.add("deleted", 1)
            return result

    def modify(
        self,
        state: DatabaseState,
        relation_name: str,
        old_values: Mapping[str, Hashable],
        new_values: Mapping[str, Hashable],
    ) -> MaintenanceOutcome:
        """Replace one tuple: delete ``old_values`` then validate the
        insertion of ``new_values``.  When the new tuple would be
        inconsistent, the rejecting outcome of the insertion is returned
        as-is — ``witness``, ``chase_steps`` and ``tuples_examined`` all
        survive for diagnostics — and the original state is untouched
        (a rejecting outcome always carries ``state=None``)."""
        if old_values not in state[relation_name]:
            raise StateError(
                f"{dict(old_values)} is not stored in {relation_name}"
            )
        without = state.delete(relation_name, old_values)
        return self.insert(without, relation_name, new_values)

    def batch(
        self, state: DatabaseState, updates: Sequence[Update]
    ) -> BatchOutcome:
        """Apply updates atomically: on the first rejected insert the
        original state is kept and the failure reported.

        The whole batch is one :meth:`apply_slice` whose indexes are the
        updates' positions, so it takes the same route as a shard's
        slice.  The outcome — the first failure's index and diagnostics
        included — is what the per-update loop
        (:func:`repro.oracle.batch_per_update`) decides, and an error is
        raised only when that loop would reach it."""
        outcome = self.apply_slice(
            state,
            [
                (index, operation, relation_name, values)
                for index, (operation, relation_name, values) in enumerate(
                    updates
                )
            ],
        )
        if outcome.error is not None:
            raise outcome.error
        if outcome.failure is not None:
            return BatchOutcome(
                state=None,
                applied=outcome.failed_index,
                failed_index=outcome.failed_index,
                failure=outcome.failure,
            )
        return BatchOutcome(state=outcome.substate, applied=len(updates))

    def apply_slice(
        self, state: DatabaseState, operations: Sequence[RoutedUpdate]
    ) -> BlockOutcome:
        """Apply one slice of a batch — a shard's share of a router
        batch, or a whole batch from :meth:`batch` — whose operations
        carry their global batch indices.

        Returns the slice's next state as ``substate``, or its earliest
        event at its global index: a rejection, or an error captured
        rather than raised.  That event is what the per-update loop
        decides at that position (Section 4.2: an insertion is globally
        safe iff its block's updated substate is consistent), so the
        caller can take the minimum across slices.  Any accepted scheme runs per
        block; the rest, and slices that cannot be routed, run the
        per-update loop."""
        with span("engine.batch") as sp:
            if sp:
                sp.add("updates", len(operations))
            routed = None
            if self.partition.accepted:
                routed = self.partition.route_updates(operations)
            if routed is None:
                return self._apply_serial(state, operations)
            return self._apply_blocks(state, routed)

    def _apply_serial(
        self, state: DatabaseState, operations: Sequence[RoutedUpdate]
    ) -> BlockOutcome:
        """The per-update loop: stops at the first rejection or raised
        error and reports it at its global index."""
        current = state
        for applied, (index, operation, relation_name, values) in enumerate(
            operations
        ):
            try:
                if operation == "insert":
                    outcome = self.insert(current, relation_name, values)
                    if not outcome.consistent:
                        return BlockOutcome(
                            block_index=-1,
                            substate=None,
                            applied=applied,
                            failed_index=index,
                            failure=outcome,
                            ops=len(operations),
                        )
                    assert outcome.state is not None
                    current = outcome.state
                elif operation == "delete":
                    current = self.delete(current, relation_name, values)
                else:
                    raise StateError(f"unknown batch operation {operation!r}")
            except Exception as error:  # noqa: BLE001 — replayed by rank
                return BlockOutcome(
                    block_index=-1,
                    substate=None,
                    applied=applied,
                    error_index=index,
                    error=error,
                    ops=len(operations),
                )
        return BlockOutcome(
            block_index=-1,
            substate=current,
            applied=len(operations),
            ops=len(operations),
        )

    def _apply_block(
        self,
        state: DatabaseState,
        block_index: int,
        operations: Sequence[RoutedUpdate],
    ) -> BlockOutcome:
        """One block's operations through ``block_batch``, on the
        block's substate."""
        with span("engine.block") as sp:
            outcome = self.maintainer.block_batch(
                self.partition.substate(state, block_index),
                block_index,
                operations,
            )
            if sp:
                sp.add("ops", outcome.ops)
                sp.add("applied", outcome.applied)
                sp.add("rejected", 0 if outcome.failed_index is None else 1)
        return outcome

    def _apply_blocks(
        self, state: DatabaseState, routed: Mapping[int, list[RoutedUpdate]]
    ) -> BlockOutcome:
        """Run each block's operations through ``block_batch`` and
        return the earliest event across blocks, or the merged next
        state."""
        outcomes = [
            self._apply_block(state, block_index, operations)
            for block_index, operations in sorted(routed.items())
        ]
        events = [
            outcome for outcome in outcomes if outcome.event_index is not None
        ]
        if events:
            return min(events, key=lambda outcome: outcome.event_index)
        merged = state
        for outcome in outcomes:
            assert outcome.substate is not None
            for name, relation in outcome.substate:
                if relation is not state[name]:
                    merged = merged.with_relation(name, relation)
        ops = sum(len(operations) for operations in routed.values())
        return BlockOutcome(
            block_index=-1, substate=merged, applied=ops, ops=ops
        )

    # -- queries ------------------------------------------------------------------
    def plan(self, attributes: AttrsLike) -> QueryPlan:
        """The cached predetermined plan for ``[X]`` (reducible schemes
        only)."""
        target = attrs(attributes)
        cached = self._plans.get(target, MISSING)
        if cached is MISSING:
            with span("engine.plan") as sp:
                cached = total_projection_plan(
                    self.scheme, target, self.recognition
                )
                if sp:
                    sp.add("branches", len(cached.branches))
            self._plans.put(target, cached)
        return cached

    def explain(self, attributes: AttrsLike) -> str:
        """Human-readable account of how ``[X]`` will be evaluated."""
        target = attrs(attributes)
        reason = "scheme outside the independence-reducible class"
        if self.reducible:
            try:
                return str(self.plan(target))
            except NotApplicableError as error:
                reason = str(error)
        return (
            f"[{fmt_attrs(target)}] = π!_{fmt_attrs(target)}(CHASE_F(T_r)) "
            f"({reason}; no predetermined expression is available)"
        )

    def evaluate(
        self, state: DatabaseState, attributes: AttrsLike
    ) -> set[tuple[Hashable, ...]]:
        """``[X]`` computed from ``state``, bypassing the read cache: the
        compiled kernel program of the predetermined plan on a reducible
        scheme, the chase outside the class.  A target no plan covers
        (``SchemaError``, attributes outside the universe included) has
        no total tuples, so its answer is empty.  A target whose plan
        would read a block past the exact lossless-subset enumeration's
        cap (``NotApplicableError``) is answered by the chase of the
        whole state, as outside the class."""
        target = attrs(attributes)
        if not self.reducible:
            return self.representative(state).total_projection(target)
        try:
            plan = self.plan(target)
        except SchemaError:
            return set()
        except NotApplicableError:
            return self.representative(state).total_projection(target)
        program = self.kernels.expression_program(
            self.partition.fingerprint, plan.expression
        )
        with span("engine.query.compiled") as sp:
            rows = program.run_decoded(self.kernels.store, state)
            if sp:
                sp.add("rows_out", len(rows))
        return rows

    def _query_cached(
        self, key: tuple
    ) -> Optional[set[tuple[Hashable, ...]]]:
        """Probe the block-versioned result cache for a prior answer
        under ``key``, or ``None`` on a miss (the caller evaluates and
        fills the entry)."""
        with span("engine.query.cached") as sp:
            rows = self.read_cache.get(key)
            if sp:
                sp.add("hit", 0 if rows is None else 1)
                if rows is not None:
                    sp.add("rows_out", len(rows))
        return rows

    def query(
        self, state: DatabaseState, attributes: AttrsLike
    ) -> set[tuple[Hashable, ...]]:
        """``[X]``: the block-versioned result cache first, then
        :meth:`evaluate` on a miss."""
        target = attrs(attributes)
        with span("engine.query") as sp:
            key = self.read_cache.key(state, target, self.plan)
            rows = self._query_cached(key)
            if rows is None:
                rows = self.evaluate(state, target)
                self.read_cache.put(key, rows)
            if sp:
                sp.add("rows_out", len(rows))
            return rows
