"""Compiling plan expressions into straight-line columnar programs.

:func:`compile_expression` flattens an :mod:`repro.algebra.expressions`
tree — ``RelationRef`` / ``NaturalJoin`` / ``Project`` / ``Select`` /
``UnionExpr`` — into a sequence of kernel ops over interned integer
columns (:mod:`repro.compile.columns`):

* **scan** — fetch a stored relation's columnar form; constant and
  parameter equality tests are fused into the scan as probes of a
  cached hash index (``σ_{A='a'}(R)`` is one dict lookup, not a sweep);
* **join** — the multi-way natural join: per-operand column trimming
  (projection pushdown), pairwise semi-join reduction, then greedy
  smallest-first hash joins (build over the smaller side, probe the
  larger; an unfiltered base-relation side is probed through its cached
  index instead of building a throwaway table);
* **project** — column gather plus dedup;
* **union** — concatenate branches and dedup; a union with one
  non-empty branch is that branch, unchanged.

Every row sweep — keys, filters, dedup, gathers, decoding — is a pass
of a C builtin (``zip``, ``map``, ``compress``, ``dict.fromkeys``) over
whole columns, never a Python call per row.

Selections are *pushed down* at compile time: every equality lands on
the scans of the base relations that carry its attribute, so the
runtime never materializes a join only to filter it — the win behind
the compiled insert-validation path.  ``params`` compiles the
parameterized form ``σ_{K=?}(E)`` once per expression; each
:meth:`CompiledProgram.run` binds fresh key values, the prepared-
statement shape of Theorem 3.2's bounded lookups.

Programs depend only on the expression (relation names and attribute
sets), never on a state, so they are memoized across states — see
:class:`repro.compile.KernelSpace` for the
``(scheme_fingerprint, plan_fingerprint)`` cache.  Expressions that
embed data (``LiteralRelation``) raise :class:`CompileError`; no plan
or RI selection the engine builds contains one.  The interpreted walk
stays the differential oracle.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import chain, compress, repeat
from typing import Hashable, Mapping, Optional, Sequence

from repro.algebra.expressions import (
    Expression,
    NaturalJoin,
    Project,
    RelationRef,
    Select,
    UnionExpr,
)
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs, sorted_attrs
from repro.foundations.errors import CompileError, StateError
from repro.obs.spans import span
from repro.state.relation import Relation

from repro.compile.columns import ColumnStore, dedup, group_rows, key_column

#: What programs evaluate against (same protocol as Expression.evaluate).
RelationSource = Mapping[str, Relation]


def plan_fingerprint(
    expression: Expression, params: AttrsLike = ()
) -> str:
    """A stable content hash of one (possibly parameterized) plan.

    Expressions pretty-print deterministically (operands and condition
    attributes are emitted in sorted order), so the rendered text is a
    canonical form; parameter attributes are folded in so ``E`` and
    ``σ_{K=?}(E)`` fingerprint differently.
    """
    parameters = attrs(params)
    text = str(expression)
    if parameters:
        text = f"σ_{fmt_attrs(parameters)}=?({text})"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class KernelRelation:
    """A runtime intermediate: interned columns in sorted-attribute order.

    ``base`` is set only when this is exactly an unfiltered stored
    relation, which lets downstream joins and semi-joins probe the
    store's cached hash indexes instead of rebuilding tables.
    """

    __slots__ = ("columns", "cols", "nrows", "base")

    def __init__(
        self,
        columns: tuple[str, ...],
        cols: Sequence,
        nrows: int,
        base: Optional[Relation] = None,
    ) -> None:
        self.columns = columns
        self.cols = cols
        self.nrows = nrows
        self.base = base


def _empty(columns: tuple[str, ...]) -> KernelRelation:
    return KernelRelation(columns, tuple(() for _ in columns), 0)


def _gather(cols: Sequence, keep: Sequence[int]) -> tuple:
    return tuple(
        array("q", map(col.__getitem__, keep)) for col in cols
    )


class _RunContext:
    """Per-execution scratch: the store, the state, bound parameters."""

    __slots__ = ("store", "source", "params")

    def __init__(
        self,
        store: ColumnStore,
        source: RelationSource,
        params: Mapping[str, Hashable],
    ) -> None:
        self.store = store
        self.source = source
        self.params = params


class ScanOp:
    """Fetch one stored relation; apply fused equality tests via the
    store's cached hash index (the constant-select kernel)."""

    __slots__ = (
        "dst",
        "name",
        "columns",
        "attributes",
        "const_tests",
        "param_tests",
    )

    def __init__(
        self,
        dst: int,
        name: str,
        columns: tuple[str, ...],
        const_tests: tuple[tuple[int, Hashable], ...],
        param_tests: tuple[tuple[int, str], ...],
    ) -> None:
        self.dst = dst
        self.name = name
        self.columns = columns
        self.attributes = frozenset(columns)
        self.const_tests = const_tests
        self.param_tests = param_tests

    def run(self, regs: list, ctx: _RunContext) -> None:
        relation = ctx.source[self.name]
        if relation.attributes != self.attributes:
            raise StateError(
                f"stored relation {self.name} has attributes "
                f"{fmt_attrs(relation.attributes)}, expression expects "
                f"{fmt_attrs(self.attributes)}"
            )
        store = ctx.store
        columnar = store.columnar(relation)
        if not self.const_tests and not self.param_tests:
            regs[self.dst] = KernelRelation(
                columnar.columns, columnar.cols, columnar.nrows, relation
            )
            return
        wanted: dict[int, int] = {}
        for position, value in self.const_tests:
            code = store.encode_existing(value)
            if code is None or wanted.setdefault(position, code) != code:
                regs[self.dst] = _empty(self.columns)
                return
        for position, attribute in self.param_tests:
            code = store.encode_existing(ctx.params[attribute])
            if code is None or wanted.setdefault(position, code) != code:
                regs[self.dst] = _empty(self.columns)
                return
        positions = tuple(sorted(wanted))
        index = store.index(relation, positions)
        if len(positions) == 1:
            key = wanted[positions[0]]
        else:
            key = tuple(wanted[p] for p in positions)
        keep = index.get(key)
        if not keep:
            regs[self.dst] = _empty(self.columns)
            return
        regs[self.dst] = KernelRelation(
            columnar.columns, _gather(columnar.cols, keep), len(keep)
        )


class EmptyOp:
    """A selection refuted at compile time (two different constants on
    one attribute): always the empty relation."""

    __slots__ = ("dst", "columns")

    def __init__(self, dst: int, columns: tuple[str, ...]) -> None:
        self.dst = dst
        self.columns = columns

    def run(self, regs: list, ctx: _RunContext) -> None:
        regs[self.dst] = _empty(self.columns)


class JoinOp:
    """Multi-way natural join: trim, semi-join reduce, then greedy
    pairwise hash joins — the columnar mirror of
    :func:`repro.algebra.expressions.evaluate_natural_join`."""

    __slots__ = (
        "dst",
        "srcs",
        "out_columns",
        "trims",
        "src_columns",
        "semijoin_pairs",
    )

    def __init__(
        self,
        dst: int,
        srcs: tuple[int, ...],
        out_columns: tuple[str, ...],
        trims: tuple[Optional[tuple[tuple[int, ...], tuple[str, ...]]], ...],
        src_columns: tuple[tuple[str, ...], ...],
    ) -> None:
        self.dst = dst
        self.srcs = srcs
        self.out_columns = out_columns
        #: per source: None (keep all columns) or (positions, names).
        self.trims = trims
        #: per source: its column names after trimming.
        self.src_columns = src_columns
        # Column layouts are fixed at compile time, so the semi-join
        # sweep order and every pair's key positions are too: one entry
        # (i, j, left positions, right positions) per ordered pair of
        # operands sharing attributes, in the interpreted reducer's
        # iteration order.
        pairs: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
        column_sets = [frozenset(columns) for columns in src_columns]
        for i, left_columns in enumerate(src_columns):
            for j, right_columns in enumerate(src_columns):
                if i == j:
                    continue
                common = [a for a in left_columns if a in column_sets[j]]
                if not common:
                    continue
                pairs.append(
                    (
                        i,
                        j,
                        tuple(left_columns.index(a) for a in common),
                        tuple(right_columns.index(a) for a in common),
                    )
                )
        self.semijoin_pairs = tuple(pairs)

    def run(self, regs: list, ctx: _RunContext) -> None:
        if not all(regs[source].nrows for source in self.srcs):
            regs[self.dst] = _empty(self.out_columns)
            return
        store = ctx.store
        operands: list[KernelRelation] = []
        for source, trim in zip(self.srcs, self.trims):
            operand = regs[source]
            if trim is not None:
                positions, names = trim
                if operand.base is not None:
                    cols, nrows = store.trim(operand.base, positions)
                    operand = KernelRelation(names, cols, nrows)
                else:
                    operand = _trim_dedup(operand, positions, names)
            operands.append(operand)

        pairs = self.semijoin_pairs
        if len(pairs) > 1:
            # Small right sides first: their index probes prune the big
            # operands before any big-against-big sweep runs (ties keep
            # the compile-time order, so the pass stays deterministic).
            pairs = sorted(
                pairs, key=lambda pair: operands[pair[1]].nrows
            )
        for i, j, left_positions, right_positions in pairs:
            left = operands[i]
            if left.nrows:
                operands[i] = _semijoin(
                    store, left, operands[j], left_positions, right_positions
                )
        if any(operand.nrows == 0 for operand in operands):
            regs[self.dst] = _empty(self.out_columns)
            return

        pending = sorted(
            range(len(operands)), key=lambda i: operands[i].nrows
        )
        first = pending.pop(0)
        result = operands[first]
        joined_attributes = set(result.columns)
        while pending:
            connected = [
                i
                for i in pending
                if not joined_attributes.isdisjoint(operands[i].columns)
            ]
            choice = connected[0] if connected else pending[0]
            pending.remove(choice)
            result = _join_pair(store, result, operands[choice])
            joined_attributes.update(operands[choice].columns)
        regs[self.dst] = result


class ProjectOp:
    """Column gather + dedup (the project-dedup kernel)."""

    __slots__ = ("dst", "src", "positions", "out_columns")

    def __init__(
        self,
        dst: int,
        src: int,
        positions: tuple[int, ...],
        out_columns: tuple[str, ...],
    ) -> None:
        self.dst = dst
        self.src = src
        self.positions = positions
        self.out_columns = out_columns

    def run(self, regs: list, ctx: _RunContext) -> None:
        operand: KernelRelation = regs[self.src]
        if operand.columns == self.out_columns:
            regs[self.dst] = operand
            return
        cols, nrows = dedup(tuple(operand.cols[p] for p in self.positions))
        regs[self.dst] = KernelRelation(self.out_columns, cols, nrows)


class UnionOp:
    """Concatenate same-schema branches and dedup.

    Every register is duplicate-free, so a union with one non-empty
    branch is that branch, unchanged — its ``base`` tag included, which
    lets a join above it probe the stored relation's cached index."""

    __slots__ = ("dst", "srcs", "out_columns")

    def __init__(
        self, dst: int, srcs: tuple[int, ...], out_columns: tuple[str, ...]
    ) -> None:
        self.dst = dst
        self.srcs = srcs
        self.out_columns = out_columns

    def run(self, regs: list, ctx: _RunContext) -> None:
        nonempty = [regs[source] for source in self.srcs if regs[source].nrows]
        if len(nonempty) <= 1:
            regs[self.dst] = (
                nonempty[0] if nonempty else _empty(self.out_columns)
            )
            return
        rows = dict.fromkeys(
            chain.from_iterable(zip(*branch.cols) for branch in nonempty)
        )
        cols = tuple(array("q", col) for col in zip(*rows))
        regs[self.dst] = KernelRelation(self.out_columns, cols, len(rows))


def _trim_dedup(
    operand: KernelRelation,
    positions: tuple[int, ...],
    names: tuple[str, ...],
) -> KernelRelation:
    """Projection pushdown on an operand: gather the kept columns and
    dedup (the interpreted pipeline's ``project_relation`` does both)."""
    cols, nrows = dedup(tuple(operand.cols[p] for p in positions))
    return KernelRelation(names, cols, nrows)


#: Right side smaller than this uses the left's cached base index for a
#: semi-join instead of sweeping the left side.
_SEMIJOIN_PROBE_BOUND = 16


def _semijoin(
    store: ColumnStore,
    left: KernelRelation,
    right: KernelRelation,
    left_positions: tuple[int, ...],
    right_positions: tuple[int, ...],
) -> KernelRelation:
    """``left ⋉ right`` on the given key positions (identity when
    nothing is filtered, preserving the base tag)."""
    if (
        left.base is not None
        and right.nrows <= _SEMIJOIN_PROBE_BOUND
        and right.nrows * 4 < left.nrows
    ):
        # Probe the stored relation's cached index with the (few)
        # right keys instead of sweeping every left row.
        index = store.index(left.base, left_positions)
        right_keys = key_column(right.cols, right_positions)
        hit = set(chain.from_iterable(filter(None, map(index.get, right_keys))))
        keep: Sequence[int] = sorted(hit)
    else:
        if right.base is not None:
            # A stored right side: membership is a probe of its cached
            # index, built once per relation object.
            members = store.index(right.base, right_positions)
        else:
            members = set(key_column(right.cols, right_positions))
        left_keys = key_column(left.cols, left_positions)
        keep = list(
            compress(range(left.nrows), map(members.__contains__, left_keys))
        )
    if len(keep) == left.nrows:
        return left
    return KernelRelation(
        left.columns, _gather(left.cols, keep), len(keep)
    )


def _cartesian(
    left: KernelRelation, right: KernelRelation
) -> KernelRelation:
    left_rows = list(
        chain.from_iterable(
            map(repeat, range(left.nrows), repeat(right.nrows, left.nrows))
        )
    )
    right_rows = list(range(right.nrows)) * left.nrows
    return _assemble(left, left_rows, right, right_rows)


def _assemble(
    left: KernelRelation,
    left_rows: Sequence[int],
    right: KernelRelation,
    right_rows: Sequence[int],
) -> KernelRelation:
    """Gather the output of a pairwise join: sorted union of columns,
    shared attributes taken from the left (both sides agree on them)."""
    left_position = {a: i for i, a in enumerate(left.columns)}
    right_position = {a: i for i, a in enumerate(right.columns)}
    out_names = tuple(sorted(set(left.columns) | set(right.columns)))
    out_cols = []
    for name in out_names:
        position = left_position.get(name)
        if position is not None:
            source, rows = left.cols[position], left_rows
        else:
            source, rows = right.cols[right_position[name]], right_rows
        out_cols.append(array("q", map(source.__getitem__, rows)))
    return KernelRelation(out_names, tuple(out_cols), len(left_rows))


def _match(table: dict, keys: Sequence) -> tuple[list[int], list[int]]:
    """Probe ``table`` (key → row indexes) with every key.  Returns the
    matching pairs as two aligned lists: the index into ``keys``, once
    per match, and the table row it matched."""
    buckets = list(map(table.get, keys))
    hits = list(filter(None, buckets))
    outer = list(compress(range(len(buckets)), buckets))
    inner = list(chain.from_iterable(hits))
    # A key index gives each key one row; only a repeated key makes an
    # outer row match more than once.
    if len(inner) != len(outer):
        outer = list(chain.from_iterable(map(repeat, outer, map(len, hits))))
    return outer, inner


def _join_pair(
    store: ColumnStore, left: KernelRelation, right: KernelRelation
) -> KernelRelation:
    """Hash join build/probe over interned key codes.  The smaller side
    builds; when the larger side is an unfiltered stored relation its
    cached index replaces the probe sweep entirely."""
    right_names = set(right.columns)
    common = [a for a in left.columns if a in right_names]
    if not common:
        return _cartesian(left, right)
    left_positions = [left.columns.index(a) for a in common]
    right_positions = [right.columns.index(a) for a in common]
    if left.nrows <= right.nrows:
        build, build_positions = left, left_positions
        probe, probe_positions = right, right_positions
        build_is_left = True
    else:
        build, build_positions = right, right_positions
        probe, probe_positions = left, left_positions
        build_is_left = False
    build_keys = key_column(build.cols, build_positions)
    if probe.base is not None:
        # Look the build rows up in the stored relation's cached index:
        # O(build) probes, no per-run table.
        index = store.index(probe.base, tuple(probe_positions))
        build_rows, probe_rows = _match(index, build_keys)
    else:
        probe_keys = key_column(probe.cols, probe_positions)
        probe_rows, build_rows = _match(group_rows(build_keys), probe_keys)
    if build_is_left:
        return _assemble(build, build_rows, probe, probe_rows)
    return _assemble(probe, probe_rows, build, build_rows)


class CompiledProgram:
    """A straight-line kernel program with one output register."""

    __slots__ = (
        "ops",
        "out_reg",
        "out_columns",
        "n_regs",
        "param_attrs",
        "fingerprint",
        "source_text",
    )

    def __init__(
        self,
        ops: tuple,
        out_reg: int,
        out_columns: tuple[str, ...],
        n_regs: int,
        param_attrs: frozenset[str],
        fingerprint: str,
        source_text: str,
    ) -> None:
        self.ops = ops
        self.out_reg = out_reg
        self.out_columns = out_columns
        self.n_regs = n_regs
        self.param_attrs = param_attrs
        self.fingerprint = fingerprint
        self.source_text = source_text

    def run(
        self,
        store: ColumnStore,
        source: RelationSource,
        params: Optional[Mapping[str, Hashable]] = None,
    ) -> KernelRelation:
        """Execute against stored relations; parameters bind the
        compiled ``σ_{K=?}`` tests."""
        bound = params if params is not None else {}
        missing = self.param_attrs - set(bound)
        if missing:
            raise StateError(
                f"program parameters not bound: {sorted(missing)}"
            )
        ctx = _RunContext(store, source, bound)
        regs: list = [None] * self.n_regs
        store.begin()
        try:
            for op in self.ops:
                op.run(regs, ctx)
        finally:
            store.end()
        return regs[self.out_reg]

    def run_decoded(
        self,
        store: ColumnStore,
        source: RelationSource,
        params: Optional[Mapping[str, Hashable]] = None,
    ) -> set[tuple[Hashable, ...]]:
        """Execute and decode: the result as a set of value tuples in
        ``out_columns`` (sorted-attribute) order — the same vectors a
        ``Relation`` over the output would store."""
        result = self.run(store, source, params)
        lookup = store.decoder().__getitem__
        return set(zip(*[map(lookup, col) for col in result.cols]))

    def __repr__(self) -> str:
        return (
            f"CompiledProgram(ops={len(self.ops)}, "
            f"out={''.join(self.out_columns)}, {self.source_text})"
        )


# -- compilation -----------------------------------------------------------------

#: A pushed-down equality test: ("c", value) or ("p", attribute).
_Test = tuple[str, Hashable]


class _Compiler:
    """Flattens one expression tree into ops with known per-register
    column layouts (every register holds sorted-attribute columns, so
    projections and unions resolve positions at compile time)."""

    def __init__(self) -> None:
        self.ops: list = []
        self.columns: list[tuple[str, ...]] = []

    def _register(self) -> int:
        self.columns.append(())
        return len(self.columns) - 1

    def _emit(self, op, columns: tuple[str, ...]) -> int:
        self.ops.append(op)
        self.columns[op.dst] = columns
        return op.dst

    def compile(
        self, expression: Expression, tests: tuple[tuple[str, _Test], ...]
    ) -> int:
        """Compile ``σ_tests(expression)``; returns the output register.
        Invariant: the register's columns are ``sorted(expression
        .attributes)`` — tests never change an output schema."""
        if isinstance(expression, RelationRef):
            return self._compile_scan(expression, tests)
        if isinstance(expression, Select):
            merged = tests + tuple(
                (attribute, ("c", value))
                for attribute, value in sorted(
                    expression.equalities.items(),
                    key=lambda item: item[0],
                )
            )
            return self.compile(expression.operand, merged)
        if isinstance(expression, Project):
            return self._compile_project(expression, tests)
        if isinstance(expression, NaturalJoin):
            return self._compile_join(expression, tests, needed=None)
        if isinstance(expression, UnionExpr):
            out_columns = tuple(sorted_attrs(expression.attributes))
            sources = tuple(
                self.compile(operand, tests)
                for operand in expression.operands
            )
            dst = self._register()
            return self._emit(UnionOp(dst, sources, out_columns), out_columns)
        raise CompileError(
            f"no columnar kernel for {type(expression).__name__}"
        )

    def _compile_scan(
        self, expression: RelationRef, tests: tuple[tuple[str, _Test], ...]
    ) -> int:
        columns = tuple(sorted_attrs(expression.attributes))
        position = {a: i for i, a in enumerate(columns)}
        const_tests: list[tuple[int, Hashable]] = []
        param_tests: list[tuple[int, str]] = []
        pinned: dict[str, Hashable] = {}
        for attribute, (kind, payload) in tests:
            if kind == "c":
                if attribute in pinned:
                    if pinned[attribute] != payload:
                        dst = self._register()
                        return self._emit(EmptyOp(dst, columns), columns)
                    continue
                pinned[attribute] = payload
                const_tests.append((position[attribute], payload))
            else:
                param_tests.append((position[attribute], attribute))
        dst = self._register()
        return self._emit(
            ScanOp(
                dst,
                expression.name,
                columns,
                tuple(const_tests),
                tuple(param_tests),
            ),
            columns,
        )

    def _compile_project(
        self, expression: Project, tests: tuple[tuple[str, _Test], ...]
    ) -> int:
        out_columns = tuple(sorted_attrs(expression.attributes))
        operand = expression.operand
        if isinstance(operand, NaturalJoin):
            source = self._compile_join(
                operand, tests, needed=expression.attributes
            )
        else:
            source = self.compile(operand, tests)
        source_columns = self.columns[source]
        positions = tuple(
            source_columns.index(a) for a in out_columns
        )
        dst = self._register()
        return self._emit(
            ProjectOp(dst, source, positions, out_columns), out_columns
        )

    def _compile_join(
        self,
        expression: NaturalJoin,
        tests: tuple[tuple[str, _Test], ...],
        needed: Optional[frozenset[str]],
    ) -> int:
        # Selection pushdown: every test lands on each operand carrying
        # its attribute (σ commutes into the join on shared attributes).
        sources: list[int] = []
        for operand in expression.operands:
            operand_tests = tuple(
                (attribute, spec)
                for attribute, spec in tests
                if attribute in operand.attributes
            )
            sources.append(self.compile(operand, operand_tests))

        # Projection pushdown mirror of evaluate_natural_join: keep the
        # needed attributes plus everything shared between operands.
        trims: list[
            Optional[tuple[tuple[int, ...], tuple[str, ...]]]
        ] = []
        trimmed_columns: list[tuple[str, ...]] = []
        if needed is None:
            for source in sources:
                trims.append(None)
                trimmed_columns.append(self.columns[source])
        else:
            tally: dict[str, int] = {}
            for source in sources:
                for attribute in self.columns[source]:
                    tally[attribute] = tally.get(attribute, 0) + 1
            keep_base = set(needed) | {
                attribute for attribute, uses in tally.items() if uses > 1
            }
            for source in sources:
                columns = self.columns[source]
                kept = tuple(a for a in columns if a in keep_base)
                if not kept:
                    kept = (min(columns),)
                if kept == columns:
                    trims.append(None)
                else:
                    trims.append(
                        (tuple(columns.index(a) for a in kept), kept)
                    )
                trimmed_columns.append(kept)
        out_names: set[str] = set()
        for columns in trimmed_columns:
            out_names.update(columns)
        out_columns = tuple(sorted(out_names))
        dst = self._register()
        return self._emit(
            JoinOp(
                dst,
                tuple(sources),
                out_columns,
                tuple(trims),
                tuple(trimmed_columns),
            ),
            out_columns,
        )


def compile_expression(
    expression: Expression, params: AttrsLike = ()
) -> CompiledProgram:
    """Flatten one plan expression into a :class:`CompiledProgram`.

    ``params`` compiles the parameterized selection ``σ_{params=?}``
    over the expression — the prepared-statement form the compiled
    RI lookup binds per insert.  Raises :class:`CompileError` for
    expressions outside the kernel set.
    """
    parameters = attrs(params)
    unknown = parameters - expression.attributes
    if unknown:
        raise StateError(
            f"selection on attributes outside the operand: {sorted(unknown)}"
        )
    with span("compile.kernel") as sp:
        compiler = _Compiler()
        tests = tuple(
            (attribute, ("p", attribute))
            for attribute in sorted_attrs(parameters)
        )
        out_reg = compiler.compile(expression, tests)
        program = CompiledProgram(
            ops=tuple(compiler.ops),
            out_reg=out_reg,
            out_columns=compiler.columns[out_reg],
            n_regs=len(compiler.columns),
            param_attrs=parameters,
            fingerprint=plan_fingerprint(expression, parameters),
            source_text=str(expression),
        )
        if sp:
            sp.add("ops", len(program.ops))
    return program
