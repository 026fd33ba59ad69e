"""Constant-time maintainability and the unified maintenance front-end
(paper, Sections 3.3, 4.2, 5.4).

Theorem 5.5: an independence-reducible scheme is ctm iff every block of
its independence-reducible partition is split-free.  Section 4.2: to
validate an insertion it suffices to validate it inside the block
containing the target relation — independence of the induced scheme
lifts block consistency to global consistency.

:class:`InsertMaintainer` packages this: at construction it recognizes
the scheme, partitions it, and chooses per-block strategies (Algorithm 5
for split-free blocks, Algorithm 2 otherwise); inserts are validated
against the block substate only, with the full-chase baseline available
for schemes outside the class.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.core.maintenance import algebraic_insert, ctm_insert
from repro.core.partition import RoutedUpdate, SchemePartition, partition_scheme
from repro.core.reducible import (
    RecognitionResult,
    recognize_independence_reducible,
)
from repro.core.split import is_split_free
from repro.foundations.errors import NotApplicableError
from repro.schema.database_scheme import DatabaseScheme
from repro.state.consistency import MaintenanceOutcome, maintain_by_chase
from repro.state.database_state import DatabaseState
from repro.tableau.chase import DeltaChase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compile import KernelSpace


def is_ctm(
    scheme: DatabaseScheme,
    recognition: Optional[RecognitionResult] = None,
) -> bool:
    """Theorem 5.5: an independence-reducible scheme is ctm iff it is
    split-free (every partition block is split-free).

    Raises :class:`NotApplicableError` for schemes outside the
    independence-reducible class, where the paper gives no
    characterization.
    """
    if recognition is None:
        recognition = recognize_independence_reducible(scheme)
    if not recognition.accepted:
        raise NotApplicableError(
            "the ctm characterization (Theorem 5.5) applies to "
            "independence-reducible schemes only"
        )
    return all(is_split_free(block) for block in recognition.partition)


def split_blocks(
    recognition: RecognitionResult,
) -> list[DatabaseScheme]:
    """The partition blocks that are split (hence maintained by
    Algorithm 2 rather than Algorithm 5)."""
    return [
        block for block in recognition.partition if not is_split_free(block)
    ]


@dataclass(frozen=True)
class MaintainerReport:
    """How the maintainer will treat each relation scheme."""

    reducible: bool
    ctm: bool
    strategy_by_relation: dict[str, str]

    def __str__(self) -> str:
        lines = [
            f"independence-reducible: {self.reducible}; ctm: {self.ctm}",
        ]
        for name, strategy in sorted(self.strategy_by_relation.items()):
            lines.append(f"  {name}: {strategy}")
        return "\n".join(lines)


class InsertMaintainer:
    """Unified incremental constraint enforcement for a database scheme.

    Per Section 4.2, an insertion into a relation of block ``Tp`` is
    globally safe iff the updated substate on ``Tp`` is consistent; the
    maintainer therefore restricts work to the block and picks:

    * **Algorithm 5** when the block is split-free (ctm; probes
      independent of state size),
    * **Algorithm 2** otherwise (algebraic-maintainable; a bounded
      number of predetermined expressions),
    * the **full chase** when the scheme is not independence-reducible
      at all (no guarantee from the paper; correctness only).
    """

    def __init__(
        self,
        scheme: DatabaseScheme,
        partition: Optional[SchemePartition] = None,
        kernels: Optional["KernelSpace"] = None,
    ) -> None:
        self.scheme = scheme
        self.partition = (
            partition if partition is not None else partition_scheme(scheme)
        )
        # Algorithm-2 validations run their bounded selections through
        # compiled columnar kernels; a maintainer built by an engine
        # shares that engine's KernelSpace (program memo + column
        # store), a standalone maintainer owns one.
        if kernels is None:
            from repro.compile import KernelSpace

            kernels = KernelSpace()
        self.kernels = kernels
        self.recognition = self.partition.recognition
        self._strategy: dict[str, str] = {}
        self._block_of: dict[str, DatabaseScheme] = {}
        if self.recognition.accepted:
            for block, block_ctm in zip(
                self.partition.blocks, self.partition.block_ctm
            ):
                for member in block.relations:
                    self._block_of[member.name] = block
                    self._strategy[member.name] = (
                        "algorithm-5 (ctm)" if block_ctm else "algorithm-2"
                    )
        else:
            for member in scheme.relations:
                self._strategy[member.name] = "full-chase"
        # Delta-chase basis for the full-chase strategy: the last
        # accepted state and its persistent chased fixpoint, so the next
        # insert on that exact state extends instead of re-chasing.
        self._delta_lock = threading.Lock()
        self._delta: Optional[tuple[DatabaseState, DeltaChase]] = None

    def report(self) -> MaintainerReport:
        """Describe the chosen strategies."""
        ctm = self.recognition.accepted and all(
            strategy.startswith("algorithm-5")
            for strategy in self._strategy.values()
        )
        return MaintainerReport(
            reducible=self.recognition.accepted,
            ctm=ctm,
            strategy_by_relation=dict(self._strategy),
        )

    def _lookup(self, substate: DatabaseState):
        """The RI lookup for one Algorithm-2 validation, on the compiled
        kernels.  The Corollary 3.1(b) branches are always scans, joins
        and projections, all inside the kernel set."""
        from repro.compile import CompiledRILookup

        return CompiledRILookup(substate, self.kernels)

    def _substate(
        self, state: DatabaseState, block: DatabaseScheme
    ) -> DatabaseState:
        # Immutable Relation objects are shared, not re-normalized.
        return DatabaseState(
            block, {name: state[name] for name in block.names}
        )

    def _insert_full_chase(
        self,
        state: DatabaseState,
        relation_name: str,
        values: Mapping[str, Hashable],
    ) -> MaintenanceOutcome:
        """The full-chase strategy, incrementalized.

        A persistent :class:`DeltaChase` basis keyed by state identity
        absorbs each accepted insert as a one-row delta; only a basis
        miss (first insert, or an insert against a state the maintainer
        has not seen) re-chases from scratch.  Diagnostics — and on
        rejection the entire outcome, via the chase oracle — match
        :func:`maintain_by_chase` exactly: cumulative delta steps equal
        the from-scratch step count on consistent histories."""
        with self._delta_lock:
            basis = self._delta
            if basis is None or basis[0] is not state:
                chase = DeltaChase(self.scheme.universe, self.scheme.fds)
                seeded = chase.extend(
                    (name, relation.columns, relation.row_vectors)
                    for name, relation in state
                )
                if not seeded.consistent:
                    # The base state itself admits no weak instance;
                    # defer to the oracle for the historical outcome.
                    self._delta = None
                    return maintain_by_chase(state, relation_name, values)
                basis = (state, chase)
                self._delta = basis
            chase = basis[1]
            updated = state.insert(relation_name, values)
            relation = updated[relation_name]
            if values in state[relation_name]:
                # Set semantics: a duplicate changes no stored row, so
                # the fixpoint is already exact — rebind the basis to
                # the fresh state object and report as the oracle would.
                self._delta = (updated, chase)
                return MaintenanceOutcome(
                    consistent=True,
                    state=updated,
                    tuples_examined=updated.total_tuples(),
                    chase_steps=chase.steps,
                )
            vector = tuple(values[a] for a in relation.columns)
            outcome = chase.extend(
                [(relation_name, relation.columns, (vector,))]
            )
            if outcome.consistent:
                self._delta = (updated, chase)
                return MaintenanceOutcome(
                    consistent=True,
                    state=updated,
                    tuples_examined=updated.total_tuples(),
                    chase_steps=chase.steps,
                )
            # Rejected: the extension rolled back, so the basis still
            # serves `state`.  Re-run the oracle for the diagnostics (a
            # from-scratch rejection counts every merge before its
            # contradiction, which a delta cannot know).
            return maintain_by_chase(state, relation_name, values)

    def block_batch(
        self,
        substate: DatabaseState,
        block_index: int,
        operations: Sequence[RoutedUpdate],
    ) -> "BlockOutcome":
        """Apply one block's slice of a batch to its substate.

        Blocks are share-nothing, so the slice's outcome is exactly what
        the serial batch would decide at each of these global indexes —
        the earliest rejection (or raised error) across all blocks is
        the serial batch's first failure.  Ctm blocks probe the key
        indexes each relation carries from write to write (see
        :meth:`~repro.state.relation.Relation.key_index`)."""
        is_ctm = self.partition.block_ctm[block_index]
        current = substate
        applied = 0
        for global_index, operation, relation_name, values in operations:
            try:
                if operation == "insert":
                    if is_ctm:
                        outcome = ctm_insert(
                            current,
                            relation_name,
                            values,
                            check_scheme=False,
                        )
                    else:
                        outcome = algebraic_insert(
                            current,
                            relation_name,
                            values,
                            lookup=self._lookup(current),
                            check_scheme=False,
                        )
                    if not outcome.consistent:
                        return BlockOutcome(
                            block_index=block_index,
                            substate=None,
                            applied=applied,
                            failed_index=global_index,
                            failure=outcome,
                            ops=len(operations),
                        )
                    assert outcome.state is not None
                    current = outcome.state
                else:  # "delete" — route_updates admits nothing else
                    current = current.delete(relation_name, values)
            except Exception as error:  # noqa: BLE001 — replayed by rank
                # Captured, not raised: the serial batch only reaches
                # this op when every earlier op succeeded, so the error
                # counts as an event at this global index and the
                # engine re-raises it iff it is the earliest event.
                return BlockOutcome(
                    block_index=block_index,
                    substate=None,
                    applied=applied,
                    error_index=global_index,
                    error=error,
                    ops=len(operations),
                )
            applied += 1
        return BlockOutcome(
            block_index=block_index,
            substate=current,
            applied=applied,
            ops=len(operations),
        )

    def insert(
        self,
        state: DatabaseState,
        relation_name: str,
        values: Mapping[str, Hashable],
    ) -> MaintenanceOutcome:
        """Validate and apply one insertion on a consistent state.

        Returns the block-level decision lifted to the full state: the
        outcome's ``state`` is the full state with the block's updated
        relation adopted when consistent.
        """
        strategy = self._strategy.get(relation_name)
        if strategy is None:
            raise NotApplicableError(f"unknown relation {relation_name!r}")
        if strategy == "full-chase":
            return self._insert_full_chase(state, relation_name, values)
        block = self._block_of[relation_name]
        substate = self._substate(state, block)
        if strategy.startswith("algorithm-5"):
            outcome = ctm_insert(
                substate, relation_name, values, check_scheme=False
            )
        else:
            outcome = algebraic_insert(
                substate,
                relation_name,
                values,
                lookup=self._lookup(substate),
                check_scheme=False,
            )
        # Lift the block-level decision to the full state, preserving the
        # diagnostics (witness, chase steps) the block algorithm produced.
        if not outcome.consistent:
            return MaintenanceOutcome(
                consistent=False,
                state=None,
                tuples_examined=outcome.tuples_examined,
                chase_steps=outcome.chase_steps,
                witness=outcome.witness,
            )
        assert outcome.state is not None
        return MaintenanceOutcome(
            consistent=True,
            state=state.with_relation(
                relation_name, outcome.state[relation_name]
            ),
            tuples_examined=outcome.tuples_examined,
            chase_steps=outcome.chase_steps,
            witness=outcome.witness,
        )


@dataclass(frozen=True)
class BlockOutcome:
    """One block's verdict on its slice of a batch.

    Exactly one of three shapes: success (``substate`` set), rejection
    (``failed_index``/``failure`` set, block-level diagnostics intact),
    or a captured error (``error_index``/``error`` set).  Indexes are
    global batch positions, so the engine can take the minimum across
    blocks to reproduce the serial batch's first failure.  An outcome
    spanning a whole slice rather than one block has ``block_index``
    -1."""

    block_index: int
    substate: Optional[DatabaseState]
    applied: int
    ops: int = 0
    failed_index: Optional[int] = None
    failure: Optional[MaintenanceOutcome] = None
    error_index: Optional[int] = None
    error: Optional[BaseException] = None

    def __bool__(self) -> bool:
        return self.substate is not None

    @property
    def event_index(self) -> Optional[int]:
        """The global index of this block's failure event, if any."""
        if self.failed_index is not None:
            return self.failed_index
        return self.error_index
