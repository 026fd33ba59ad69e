"""Lock-discipline lint: ``# guarded-by`` annotated fields stay locked.

The serving layer's thread-safety rests on a handful of fields only
ever being touched under a specific lock (``ShardRouter._sessions``
under ``_sessions_lock``, the engine's lazily-built executor under its
guard, every ``LRUCache``/``MetricsRegistry``/``Tracer`` internal dict
under ``self._lock``).  Nothing enforced that — one new method reading
such a field lock-free compiles, passes the single-threaded tests, and
races in production.

The convention: annotate the field's defining assignment (normally in
``__init__``) with a trailing comment::

    self._sessions: dict[str, Session] = {}  # guarded-by: _sessions_lock
    self._decode: list[Hashable] = []  # guarded-by: _lock (writes)

Then, inside the class, every load or store of ``self.<field>`` must
happen either

* lexically inside a ``with self.<lock>:`` block (multi-item ``with``
  statements count, so ``with self._write_lock, tracing(...):`` is
  recognised), or
* lexically inside the body of a ``try`` whose ``finally`` releases
  the lock, paired with a ``self.<lock>.acquire()`` directly before or
  inside the ``try`` — the manual idiom the fan-out path uses to
  release exactly the locks it managed to take, or
* inside ``__init__`` (construction happens-before publication), or
* inside a ``_``-prefixed helper method — assumed to be reached from a
  locked public method; the helper boundary is where this lexical
  analysis stops, exactly as the annotation convention documents.

The ``(writes)`` mode checks stores only: the serving layer's
snapshot-pointer fields are deliberately read lock-free (readers grab
the immutable state object the pointer names), while every writer must
still serialize through the lock.

This module also hosts the project-wide **lock-order** analysis
(:data:`ORDER_RULE_ID`): it collects every lexical nested acquisition
(``with self.A:`` around ``with self.B:``, the acquire/``finally``
idiom included) as an edge ``A → B`` of a lock-acquisition graph, adds
the edges implied by ``# guarded-by`` annotations (a private helper
that touches a field guarded by ``L`` without holding ``L`` is reached
with ``L`` already taken, so any lock it acquires inside is ordered
after ``L``), accumulates the graph *across files*, and errors on
every cycle — two call paths that interleave a cycle's locks in
opposite orders deadlock.  The finding carries the full cycle path.
``# allow-lock-order: <reason>`` on an acquisition suppresses the
edges that acquisition contributes.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Union

from repro.analysis.astcheck import (
    GuardAnnotation,
    SourceFile,
    dotted_name,
    enclosing_class,
    held_lock_attrs,
    is_lockish,
    parents,
    self_attribute,
    try_finally_locks,
)
from repro.analysis.findings import Finding

RULE_ID = "lock-discipline"

#: The project-wide deadlock analysis registered alongside the
#: per-file discipline rule.
ORDER_RULE_ID = "lock-order"

#: The exemption comment marker: ``# allow-lock-order: <reason>``.
ORDER_ALLOW_MARKER = "lock-order"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _guarded_fields(
    source: SourceFile, class_node: ast.ClassDef
) -> dict[str, GuardAnnotation]:
    """``field → annotation`` for every ``self.X = ...`` assignment in
    the class carrying a ``guarded-by`` comment."""
    guarded: dict[str, GuardAnnotation] = {}
    for node in ast.walk(class_node):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            field = self_attribute(target)
            if field is None:
                continue
            annotation = source.guard_annotation(node.lineno)
            if annotation is not None:
                guarded.setdefault(field, annotation)
    return guarded


def _enclosing_method(node: ast.AST, class_node: ast.ClassDef) -> Optional[
    FunctionNode
]:
    """The method of ``class_node`` whose body contains ``node`` —
    the *outermost* function below the class, so code in nested
    closures is attributed to the method that defines them."""
    method: Optional[FunctionNode] = None
    for ancestor in parents(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = ancestor
        elif isinstance(ancestor, ast.ClassDef):
            return method if ancestor is class_node else None
    return None


def _locks_held(node: ast.AST, class_node: ast.ClassDef) -> set[str]:
    """Lock attributes held at ``node`` within the current class:
    enclosing ``with`` statements plus the acquire/``finally``-release
    idiom (see :func:`~repro.analysis.astcheck.held_lock_attrs`)."""
    return held_lock_attrs(node, stop_class=class_node)


def _is_store(node: ast.Attribute) -> bool:
    return isinstance(node.ctx, (ast.Store, ast.Del))


def check(source: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    for class_node in ast.walk(source.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        guarded = _guarded_fields(source, class_node)
        if not guarded:
            continue
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Attribute):
                continue
            field = self_attribute(node)
            if field is None or field not in guarded:
                continue
            annotation = guarded[field]
            is_store = _is_store(node)
            if annotation.mode == "writes" and not is_store:
                continue
            method = _enclosing_method(node, class_node)
            if method is None:
                continue  # class-body level: not runtime access
            if method.name == "__init__":
                continue  # construction happens-before publication
            if method.name.startswith("_") and not (
                method.name.startswith("__") and method.name.endswith("__")
            ):
                continue  # private helper: assumed reached under the lock
            if annotation.lock in _locks_held(node, class_node):
                continue
            access = "write to" if is_store else "read of"
            findings.append(
                Finding(
                    path=source.display,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=RULE_ID,
                    severity="error",
                    message=(
                        f"{access} {class_node.name}.{field} outside "
                        f"`with self.{annotation.lock}:` "
                        f"(field is guarded-by: {annotation.lock}"
                        + (
                            " (writes)"
                            if annotation.mode == "writes"
                            else ""
                        )
                        + f", declared at line {annotation.line})"
                    ),
                )
            )
    return findings


# -- lock-order analysis (project-wide) ------------------------------------


def _qualify(source: SourceFile, node: ast.AST, attr_or_name: str, bare: bool) -> str:
    """A cross-file node name for one lock: ``ClassName.attr`` for
    ``self.<attr>`` locks (class names are the repo-wide identity — the
    same class linted from two files is the same lock), and
    ``<file>::<name>`` for bare local/module locks (those never alias
    across files)."""
    if bare:
        return f"{source.display}::{attr_or_name}"
    owner = enclosing_class(node)
    prefix = owner.name if owner is not None else source.display
    return f"{prefix}.{attr_or_name}"


def _with_lock_nodes(
    source: SourceFile, node: ast.With
) -> list[str]:
    """The graph nodes a ``with`` statement acquires: lockish ``self``
    attributes and lockish bare names."""
    acquired: list[str] = []
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        attr = self_attribute(expr)
        if attr is not None:
            if is_lockish(attr):
                acquired.append(_qualify(source, node, attr, bare=False))
            continue
        name = dotted_name(expr)
        if name is not None and "." not in name and is_lockish(name):
            acquired.append(_qualify(source, node, name, bare=True))
    return acquired


def _held_nodes(source: SourceFile, node: ast.AST) -> set[str]:
    """Graph nodes for every lock lexically held at ``node``."""
    held: set[str] = set()
    child: ast.AST = node
    for ancestor in parents(node):
        if isinstance(ancestor, ast.With):
            held.update(_with_lock_nodes(source, ancestor))
        elif isinstance(ancestor, ast.Try) and child in ancestor.body:
            held.update(
                _qualify(source, ancestor, attr, bare=False)
                for attr in try_finally_locks(ancestor)
                if is_lockish(attr)
            )
        child = ancestor
    return held


def _add_edge(
    graph: dict[str, dict[str, tuple[str, int]]],
    src: str,
    dst: str,
    site: tuple[str, int],
) -> None:
    if src == dst:
        return
    graph.setdefault(src, {}).setdefault(dst, site)


def _collect_order_edges(
    source: SourceFile, graph: dict[str, dict[str, tuple[str, int]]]
) -> None:
    # Lexical nesting: every acquisition records an edge from each lock
    # already held to each lock it takes.
    for node in ast.walk(source.tree):
        acquired: list[str] = []
        if isinstance(node, ast.With):
            acquired = _with_lock_nodes(source, node)
        elif isinstance(node, ast.Try):
            acquired = [
                _qualify(source, node, attr, bare=False)
                for attr in sorted(try_finally_locks(node))
                if is_lockish(attr)
            ]
        if not acquired:
            continue
        if source.allowance(node.lineno, ORDER_ALLOW_MARKER) is not None:
            continue
        held = _held_nodes(source, node)
        site = (source.display, node.lineno)
        for earlier in held:
            for later in acquired:
                _add_edge(graph, earlier, later, site)
        # A multi-item ``with self.A, self.B:`` orders A before B.
        for index, later in enumerate(acquired):
            for earlier in acquired[:index]:
                _add_edge(graph, earlier, later, site)

    # guarded-by inference: a private helper touching a field guarded
    # by L without lexically holding L runs with L taken by its caller,
    # so locks it acquires inside are ordered after L.
    for class_node in ast.walk(source.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        guarded = _guarded_fields(source, class_node)
        if not guarded:
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not method.name.startswith("_") or (
                method.name.startswith("__") and method.name.endswith("__")
            ):
                continue
            assumed: set[str] = set()
            for node in ast.walk(method):
                field = (
                    self_attribute(node)
                    if isinstance(node, ast.Attribute)
                    else None
                )
                if field is None or field not in guarded:
                    continue
                lock = guarded[field].lock
                if lock not in held_lock_attrs(node, stop_class=class_node):
                    assumed.add(_qualify(source, node, lock, bare=False))
            if not assumed:
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.With):
                    continue
                if (
                    source.allowance(node.lineno, ORDER_ALLOW_MARKER)
                    is not None
                ):
                    continue
                site = (source.display, node.lineno)
                for later in _with_lock_nodes(source, node):
                    for earlier in assumed:
                        _add_edge(graph, earlier, later, site)


def _cycles(
    graph: dict[str, dict[str, tuple[str, int]]],
) -> list[list[str]]:
    """One representative simple cycle per cyclic region, found by DFS
    back-edges; deterministic (sorted adjacency, canonical rotation)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    path: list[str] = []
    found: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()

    def visit(node: str) -> None:
        color[node] = GRAY
        path.append(node)
        for succ in sorted(graph.get(node, {})):
            state = color.get(succ, WHITE)
            if state == GRAY:
                cycle = path[path.index(succ):]
                pivot = cycle.index(min(cycle))
                canonical = cycle[pivot:] + cycle[:pivot]
                if tuple(canonical) not in seen:
                    seen.add(tuple(canonical))
                    found.append(canonical)
            elif state == WHITE:
                visit(succ)
        path.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color.get(node, WHITE) == WHITE:
            visit(node)
    return found


def check_order(sources: Iterable[SourceFile]) -> list[Finding]:
    """The project-wide pass: accumulate the acquisition graph over
    every analyzed file, then report each cycle once."""
    graph: dict[str, dict[str, tuple[str, int]]] = {}
    for source in sources:
        _collect_order_edges(source, graph)

    findings: list[Finding] = []
    for cycle in _cycles(graph):
        ring = cycle + [cycle[0]]
        hops = []
        for earlier, later in zip(ring, ring[1:]):
            site_path, _ = graph[earlier][later]
            hops.append(f"{later} after {earlier} ({site_path})")
        closing_path, closing_line = graph[cycle[-1]][cycle[0]]
        findings.append(
            Finding(
                path=closing_path,
                line=closing_line,
                col=1,
                rule=ORDER_RULE_ID,
                severity="error",
                message=(
                    "lock-order cycle "
                    + " → ".join(ring)
                    + ": "
                    + "; ".join(hops)
                    + " — two threads taking these locks in opposite "
                    "orders deadlock; pick one global order or "
                    "annotate `# allow-lock-order: <reason>`"
                ),
            )
        )
    return sorted(findings)
