"""Fork-safety lint: fork targets inherit nothing they may touch.

The sharded tier and the replica tier both spawn their per-process
loops with ``multiprocessing.get_context("fork")`` — fork is what makes
worker start-up cheap (the scheme and code arrive by COW page, not by
pickle).  The price is a sharp rule: the child inherits the parent's
entire address space *mid-state* — locks whose owner thread does not
exist in the child, executor pools whose worker threads were not
cloned, an event loop whose selector fd is shared — and touching any
of them deadlocks or corrupts silently.

Two checks, both per-file and deliberately conservative (a one-level
call graph over the module's own ``def``s; cross-module targets are
out of lexical reach and are left to the importing module's review):

* **Inherited-state hazards** — functions reachable from a
  fork-context ``Process(target=...)`` call-site (the target plus the
  module-level functions it calls directly) must not read a
  module-level lock / executor binding and must not call
  ``asyncio.get_event_loop`` / ``get_running_loop``.  The loop and
  every pool a fork target needs must be built *after* the fork, in
  the child.
* **Fork-after-thread ordering** — creating a fork-context ``Process``
  after a ``Thread`` / ``ThreadPoolExecutor`` in the same scope is an
  error: the fork duplicates a process that already has running
  threads, so any lock one of them holds at fork time is locked
  forever in the child.  (The reverse order —
  fork first, threads after, the replica set's pattern — is safe.)

``# allow-fork: <reason>`` on the flagged line is the reviewed escape
hatch.
"""

from __future__ import annotations

import ast
from typing import Optional, Union

from repro.analysis.astcheck import (
    SourceFile,
    call_name,
    direct_callees,
    module_concurrency_globals,
    module_functions,
    parents,
)
from repro.analysis.findings import Finding

RULE_ID = "fork-safety"

#: The exemption comment marker: ``# allow-fork: <reason>``.
ALLOW_MARKER = "fork"

#: Calls that hand back the *inherited* event loop.
LOOP_GETTERS = frozenset({"get_event_loop", "get_running_loop"})

#: Constructors whose appearance starts (or may lazily start) threads
#: in the current process — forking after one is the hazard.
THREAD_STARTERS = frozenset({"Thread", "ThreadPoolExecutor"})

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _fork_context_names(tree: ast.Module) -> set[str]:
    """Names bound (anywhere in the file) to
    ``multiprocessing.get_context("fork")``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_fork_context_call(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_fork_context_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and call_name(node) == "get_context"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "fork"
    )


def _fork_spawns(
    tree: ast.Module, context_names: set[str]
) -> list[ast.Call]:
    """Every ``<fork context>.Process(...)`` call in the file."""
    spawns: list[ast.Call] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "Process"):
            continue
        base = func.value
        if (
            isinstance(base, ast.Name) and base.id in context_names
        ) or _is_fork_context_call(base):
            spawns.append(node)
    return spawns


def _spawn_target(spawn: ast.Call) -> Optional[str]:
    for keyword in spawn.keywords:
        if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
            return keyword.value.id
    return None


def _enclosing_scope(node: ast.AST) -> Optional[FunctionNode]:
    for ancestor in parents(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def check(source: SourceFile) -> list[Finding]:
    findings: list[Finding] = []

    def finding(node: ast.AST, message: str) -> None:
        if source.allowance(node.lineno, ALLOW_MARKER) is not None:
            return
        findings.append(
            Finding(
                path=source.display,
                line=node.lineno,
                col=node.col_offset + 1,
                rule=RULE_ID,
                severity="error",
                message=message,
            )
        )

    tree = source.tree
    context_names = _fork_context_names(tree)
    spawns = _fork_spawns(tree, context_names)
    functions = module_functions(tree)
    inherited = module_concurrency_globals(tree)

    # -- inherited-state hazards in reachable fork targets -----------------
    reachable: dict[str, str] = {}  # function name → spawning target
    for spawn in spawns:
        target = _spawn_target(spawn)
        if target is None or target not in functions:
            continue  # cross-module target: beyond lexical reach
        reachable.setdefault(target, target)
        for callee in sorted(direct_callees(functions[target])):
            if callee in functions:
                reachable.setdefault(callee, target)

    for name, origin in sorted(reachable.items()):
        function = functions[name]
        via = "" if name == origin else f" (reached from fork target {origin})"
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in inherited
            ):
                finding(
                    node,
                    f"fork target {name}{via} touches module-level "
                    f"{inherited[node.id]} `{node.id}`: the child "
                    "inherits it mid-state (its owner thread does not "
                    "exist after fork); build it inside the child "
                    "instead",
                )
            elif (
                isinstance(node, ast.Call)
                and call_name(node) in LOOP_GETTERS
            ):
                finding(
                    node,
                    f"fork target {name}{via} calls "
                    f"{call_name(node)}(): the event loop (and its "
                    "selector fd) is inherited from the parent; create "
                    "a fresh loop in the child with "
                    "asyncio.new_event_loop()",
                )

    # -- fork-after-thread ordering ----------------------------------------
    for spawn in spawns:
        scope = _enclosing_scope(spawn)
        walk_root: ast.AST = scope if scope is not None else tree
        scope_name = scope.name if scope is not None else "module scope"
        for node in ast.walk(walk_root):
            if (
                isinstance(node, ast.Call)
                and call_name(node) in THREAD_STARTERS
                and node.lineno < spawn.lineno
            ):
                finding(
                    spawn,
                    f"fork-context Process spawned after "
                    f"{call_name(node)}(...) in {scope_name}: forking "
                    "a process with live threads can duplicate a held "
                    "lock into the child forever; spawn the fork "
                    "processes first (or use a spawn context)",
                )
                break
    return findings
