"""Compiled columnar kernels for the maintenance hot path.

The paper's bounded/algebraic-maintainable results say the maintenance
expressions are *predetermined* — fixed by the scheme, independent of
the state.  That makes them worth compiling: this package flattens each
cached plan / RI-lookup expression into a straight-line program of
columnar kernel ops over interned integer columns
(:mod:`repro.compile.program`), with per-engine storage caches
(:mod:`repro.compile.columns`) and a drop-in compiled
representative-instance lookup (:mod:`repro.compile.lookup`).

:class:`KernelSpace` bundles what one engine (or standalone
maintainer) shares across all compiled evaluations: the program memo —
an :class:`~repro.foundations.cache.LRUCache` keyed by
``(scheme_fingerprint, plan_fingerprint)`` — and the
:class:`~repro.compile.columns.ColumnStore`.  The interpreted
``Expression.evaluate`` walk stays the differential oracle.  Every
plan and RI selection the paper's schemes produce is a tree of scans,
joins, projections and unions, all inside the kernel set, so there is
no fallback: anything the compiler cannot flatten raises
:class:`~repro.foundations.errors.CompileError` as a bug.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.expressions import Expression, Project, UnionExpr
from repro.foundations.cache import MISSING, LRUCache
from repro.foundations.errors import CompileError
from repro.schema.database_scheme import DatabaseScheme

from repro.compile.columns import ColumnarRelation, ColumnStore
from repro.compile.lookup import CompiledRILookup
from repro.compile.program import (
    CompiledProgram,
    compile_expression,
    plan_fingerprint,
)

__all__ = [
    "ColumnStore",
    "ColumnarRelation",
    "CompileError",
    "CompiledProgram",
    "CompiledRILookup",
    "KernelSpace",
    "compile_expression",
    "plan_fingerprint",
]


def _ri_branches(
    scheme: DatabaseScheme, key: frozenset[str]
) -> list[Expression]:
    """The lossless-join branches behind ``σ_{K='k'}`` — the same
    construction as ``repro.oracle.ExpressionRILookup._branches_for``
    (union peeled to its operands, projections peeled to their join
    operands)."""
    from repro.core.key_equivalent import total_projection_expression

    expression = total_projection_expression(scheme, key)
    if isinstance(expression, UnionExpr):
        branches = list(expression.operands)
    else:
        branches = [expression]
    return [
        branch.operand if isinstance(branch, Project) else branch
        for branch in branches
    ]


class KernelSpace:
    """One engine's compiled-kernel state: program memo + column store.

    ``programs`` is the engine-level LRU keyed by
    ``(scheme_fingerprint, plan_fingerprint)`` (surfacing in
    ``WeakInstanceEngine.cache_info()["compiled"]``); ``store`` holds
    the interner and per-relation columnar/index caches.  A second,
    smaller memo keeps the *branch lists* of the RI lookup per
    ``(scheme_fingerprint, key)`` so repeated inserts skip rebuilding
    the Corollary 3.1(b) expressions.
    """

    def __init__(
        self,
        programs: Optional[LRUCache] = None,
        store: Optional[ColumnStore] = None,
        program_cache_size: int = 256,
    ) -> None:
        self.programs = (
            programs if programs is not None else LRUCache(program_cache_size)
        )
        self.store = store if store is not None else ColumnStore()
        self._selections: LRUCache = LRUCache(program_cache_size)
        self._scheme_fps: dict[int, tuple[DatabaseScheme, str]] = {}
        # Identity fast path over `programs`: plan expressions are
        # cached (hence identity-stable) in the engine's plan LRU, so a
        # repeated query should not re-render and re-hash the tree just
        # to probe the fingerprint-keyed cache.  Entries pin their
        # expression, keeping the id unrecyclable while cached.
        self._by_identity: dict = {}

    def scheme_fp(self, scheme: DatabaseScheme) -> str:
        """:func:`repro.core.partition.scheme_fingerprint`, memoized by
        scheme identity (schemes are immutable and long-lived; the
        entry's strong reference pins the ``id``)."""
        entry = self._scheme_fps.get(id(scheme))
        if entry is not None and entry[0] is scheme:
            return entry[1]
        from repro.core.partition import scheme_fingerprint

        fingerprint = scheme_fingerprint(scheme)
        if len(self._scheme_fps) > 64:
            self._scheme_fps.clear()
        self._scheme_fps[id(scheme)] = (scheme, fingerprint)
        return fingerprint

    def expression_program(
        self,
        scheme_fingerprint: str,
        expression: Expression,
        params=(),
    ) -> CompiledProgram:
        """The compiled form of one (possibly parameterized) expression,
        memoized under ``(scheme_fingerprint, plan_fingerprint)``."""
        identity = (scheme_fingerprint, id(expression), tuple(sorted(params)))
        entry = self._by_identity.get(identity)
        if entry is not None and entry[0] is expression:
            return entry[1]
        key = (scheme_fingerprint, plan_fingerprint(expression, params))
        program = self.programs.get(key, MISSING)
        if program is MISSING:
            program = compile_expression(expression, params=params)
            self.programs.put(key, program)
        if len(self._by_identity) > 512:
            self._by_identity.clear()
        self._by_identity[identity] = (expression, program)
        return program

    def selection_programs(
        self,
        scheme_fingerprint: str,
        scheme: DatabaseScheme,
        key: frozenset[str],
    ) -> tuple[CompiledProgram, ...]:
        """The compiled ``σ_{K=?}`` programs for one probe key — one per
        lossless-join branch, in branch order."""
        memo_key = (scheme_fingerprint, key)
        entry = self._selections.get(memo_key, MISSING)
        if entry is MISSING:
            entry = tuple(
                self.expression_program(scheme_fingerprint, branch, params=key)
                for branch in _ri_branches(scheme, key)
            )
            self._selections.put(memo_key, entry)
        return entry
