"""The compiled representative-instance lookup (Theorem 3.2's bounded
selections over kernel programs).

:class:`CompiledRILookup` is a drop-in for
:class:`repro.oracle.ExpressionRILookup` — same branch
construction, same fixpoint loop, same counters, same
:class:`~repro.foundations.errors.InconsistentStateError` messages, so
an insert's accept/reject outcome and its rejection diagnostics are
byte-identical between the two backends (the differential tests assert
exactly that).  What changes is the cost per selection: each branch is
compiled once per scheme into a parameterized program whose scans probe
cached hash indexes, so ``σ_{K='k'}(join)`` is a handful of dict
lookups instead of a full join materialization.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, TYPE_CHECKING

from repro.core.maintenance import _join_partial
from repro.foundations.errors import InconsistentStateError
from repro.state.database_state import DatabaseState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compile import KernelSpace


class CompiledRILookup:
    """Assemble the representative-instance row for a key value with
    compiled single-tuple selections (the Algorithm 2 step-(4) lookup).

    Mirrors :class:`~repro.oracle.ExpressionRILookup`
    line for line — probe keys in ``scheme.all_keys()`` order, one
    selection per lossless-join branch, merge until a fixpoint — with
    the interpreted ``Select(...).evaluate`` replaced by a memoized
    :class:`~repro.compile.program.CompiledProgram` bound to the key
    values.
    """

    def __init__(self, state: DatabaseState, kernels: "KernelSpace") -> None:
        self.state = state
        self.scheme = state.scheme
        self.kernels = kernels
        self.tuples_retrieved = 0
        self.selections_issued = 0
        self._fingerprint = kernels.scheme_fp(state.scheme)

    def find(
        self, key: frozenset[str], values: Mapping[str, Hashable]
    ) -> Optional[dict[str, Hashable]]:
        kernels = self.kernels
        store = kernels.store
        state = self.state
        row: dict[str, Hashable] = {a: values[a] for a in key}
        matched = False
        grew = True
        while grew:
            grew = False
            for probe_key in self.scheme.all_keys():
                if not probe_key <= set(row):
                    continue
                params = {a: row[a] for a in probe_key}
                programs = kernels.selection_programs(
                    self._fingerprint, self.scheme, probe_key
                )
                for program in programs:
                    result = program.run_decoded(store, state, params)
                    self.selections_issued += 1
                    if len(result) > 1:
                        raise InconsistentStateError(
                            "a lossless-join selection returned more than "
                            "one tuple; the state is inconsistent"
                        )
                    for vector in result:
                        match = dict(zip(program.out_columns, vector))
                        matched = True
                        self.tuples_retrieved += 1
                        merged = _join_partial(row, match)
                        if merged is None:
                            raise InconsistentStateError(
                                "lossless-join selections disagree; the "
                                "state is inconsistent"
                            )
                        if len(merged) > len(row):
                            grew = True
                        row = merged
        return row if matched else None
