"""Async-discipline lint: the event loop never blocks, locks never
span an ``await``.

An asyncio loop runs every coroutine it owns on one thread; one
synchronous ``fsync`` or lock acquisition on that loop stalls *all*
of them, which no single-coroutine test will ever notice.  (The front
door answers requests on its own threads; its lifecycle coroutines
``start``/``close``/``serve_frontend`` and its async client still run
on a loop.)  The architecture's rule is lexical and checkable: async
bodies contain only coordination — anything that can touch a disk,
a socket, a subprocess or a sync lock runs elsewhere: on a thread of
its own, or on an executor route (listed below).

What fires, lexically inside an ``async def`` body (code whose nearest
enclosing function is the async one — a nested sync ``def`` is a thunk
handed to the executor, not loop code):

* known blocking calls — ``time.sleep``, sync ``open`` and ``Path``
  file I/O, ``os.fsync``, the ``subprocess`` module, sync socket
  operations (``socket.socket``, ``create_connection``, ``recv`` /
  ``sendall`` / ``accept``), and ``<lock>.acquire()`` — unless the
  call is awaited (then it is the async flavour), routed through
  ``run_in_executor`` / ``to_thread``, or carries an
  ``# allow-blocking: <reason>`` comment;
* a sync ``with <lock>:`` statement (``async with`` is the loop-safe
  form; a sync lock acquisition can park the whole loop behind a
  thread that holds it);
* an ``await`` while a sync lock is lexically held — the lock stays
  taken across the suspension, so every other task (and any executor
  thread contending for it) stalls behind a coroutine that may not be
  rescheduled for a long time.

Lock detection is name-based (:data:`~repro.analysis.astcheck.LOCKISH`):
``with self._write_lock:`` counts, ``with tracing(...):`` does not.
"""

from __future__ import annotations

import ast
from typing import Optional, Union

from repro.analysis.astcheck import (
    SourceFile,
    call_name,
    dotted_name,
    is_lockish,
    parents,
    try_finally_locks,
)
from repro.analysis.findings import Finding

RULE_ID = "async-discipline"

#: The exemption comment marker: ``# allow-blocking: <reason>``.
ALLOW_MARKER = "blocking"

#: Dotted call names that block outright.
BLOCKING_DOTTED = {
    "time.sleep": "time.sleep",
    "os.fsync": "os.fsync",
    "os.fdatasync": "os.fdatasync",
    "socket.socket": "socket.socket",
    "socket.create_connection": "socket.create_connection",
    "socket.getaddrinfo": "socket.getaddrinfo",
}

#: Bare names that block (``from time import sleep`` included).
BLOCKING_NAMES = {
    "open": "open",
    "sleep": "time.sleep",
    "Popen": "subprocess.Popen",
}

#: Method names that block regardless of receiver: sync socket
#: operations and ``Path`` file I/O.
BLOCKING_ATTRS = {
    "fsync": "fsync",
    "fdatasync": "fdatasync",
    "recv": "socket recv",
    "recv_into": "socket recv_into",
    "recvfrom": "socket recvfrom",
    "sendall": "socket sendall",
    "accept": "socket accept",
    "read_text": "Path.read_text",
    "read_bytes": "Path.read_bytes",
    "write_text": "Path.write_text",
    "write_bytes": "Path.write_bytes",
}

#: ``subprocess.<member>`` calls that spawn-and-wait.
SUBPROCESS_MEMBERS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)

#: Executor front doors: anything lexically inside their argument list
#: runs off-loop by construction.
EXECUTOR_ROUTES = frozenset({"run_in_executor", "to_thread"})

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _owning_async(node: ast.AST) -> Optional[ast.AsyncFunctionDef]:
    """The async function whose *body* contains ``node`` — ``None``
    when a nested sync ``def`` intervenes (executor thunks)."""
    for ancestor in parents(node):
        if isinstance(ancestor, ast.AsyncFunctionDef):
            return ancestor
        if isinstance(ancestor, ast.FunctionDef):
            return None
    return None


def _routed_to_executor(node: ast.AST, boundary: ast.AST) -> bool:
    """Is ``node`` inside the argument list of a ``run_in_executor`` /
    ``to_thread`` call (up to the async function ``boundary``)?"""
    for ancestor in parents(node):
        if ancestor is boundary:
            return False
        if (
            isinstance(ancestor, ast.Call)
            and call_name(ancestor) in EXECUTOR_ROUTES
        ):
            return True
    return False


def _lock_display(expr: ast.expr) -> Optional[str]:
    """Render a lockish acquisition target (``self._lock``,
    ``self._locks[i]``, bare ``lock``), else ``None``."""
    node = expr
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    if name is None:
        return None
    return name if is_lockish(name.rsplit(".", 1)[-1]) else None


def _sync_locks_held(node: ast.AST, boundary: ast.AST) -> list[str]:
    """Lockish targets taken by sync ``with`` statements (or the
    acquire/``finally`` idiom) between ``node`` and the async function
    ``boundary``."""
    held: list[str] = []
    child: ast.AST = node
    for ancestor in parents(node):
        if ancestor is boundary:
            break
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                display = _lock_display(item.context_expr)
                if display is not None:
                    held.append(display)
        elif isinstance(ancestor, ast.Try) and child in ancestor.body:
            held.extend(
                f"self.{attr}"
                for attr in sorted(try_finally_locks(ancestor))
                if is_lockish(attr)
            )
        child = ancestor
    return held


def _blocking_description(call: ast.Call) -> Optional[str]:
    """What ``call`` blocks on, or ``None`` when it is loop-safe."""
    dotted = (
        dotted_name(call.func)
        if isinstance(call.func, ast.Attribute)
        else None
    )
    if dotted is not None:
        if dotted in BLOCKING_DOTTED:
            return BLOCKING_DOTTED[dotted]
        head, _, member = dotted.rpartition(".")
        if head == "subprocess" and member in SUBPROCESS_MEMBERS:
            return f"subprocess.{member}"
    if isinstance(call.func, ast.Name):
        return BLOCKING_NAMES.get(call.func.id)
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr == "acquire":
            display = _lock_display(call.func.value)
            if display is not None:
                return f"{display}.acquire"
            return None
        return BLOCKING_ATTRS.get(attr)
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

    for node in ast.walk(source.tree):
        owner = _owning_async(node)
        if owner is None:
            continue

        if isinstance(node, ast.Call):
            parent = getattr(node, "parent", None)
            if isinstance(parent, ast.Await):
                continue  # awaited: the async flavour of the call
            if _routed_to_executor(node, owner):
                continue
            described = _blocking_description(node)
            if described is not None:
                finding(
                    node,
                    f"blocking call {described}(...) inside async "
                    f"function {owner.name} stalls the event loop; "
                    "route it through loop.run_in_executor(...) / "
                    "asyncio.to_thread(...) or annotate "
                    "`# allow-blocking: <reason>`",
                )

        elif isinstance(node, ast.With):
            for item in node.items:
                display = _lock_display(item.context_expr)
                if display is not None:
                    finding(
                        node,
                        f"sync `with {display}:` inside async function "
                        f"{owner.name} can block the event loop behind "
                        "a thread holding the lock; use asyncio.Lock "
                        "(`async with`) or move the critical section "
                        "to the executor",
                    )
                    break

        elif isinstance(node, ast.Await):
            held = _sync_locks_held(node, owner)
            if held:
                finding(
                    node,
                    f"await while holding sync lock {held[0]} in async "
                    f"function {owner.name}: the lock stays taken "
                    "across the suspension and starves every other "
                    "task contending for it",
                )
    return findings
