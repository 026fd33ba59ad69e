"""Shared AST machinery for the invariant linter.

One :class:`SourceFile` per analyzed module: the parsed tree (with
parent back-links), the raw lines, and the per-line comments extracted
with :mod:`tokenize` — the ``# guarded-by: <lock>`` annotations the
lock-discipline rule consumes live in comments, which ``ast`` alone
does not surface.

The helpers at the bottom answer the questions every rule asks: "is
this expression statically a set?", "what lock attributes does this
``with`` statement take?", "render this attribute chain as a dotted
name".
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

#: ``# guarded-by: <lock attr>`` with an optional mode suffix; the only
#: recognised mode is ``writes`` (reads are lock-free by design — the
#: immutable-snapshot-pointer pattern the serving layer uses).
GUARDED_BY = re.compile(
    r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s*\(\s*(?P<mode>writes)\s*\))?"
)

#: ``# allow-<marker>: <reason>`` — the reviewed-and-accepted escape
#: hatch of the concurrency rule packs.  Each pack documents its own
#: marker (``allow-blocking``, ``allow-lock-order``); a
#: reason is expected, and exemptions live next to the code they excuse
#: rather than in the baseline file.
ALLOW = re.compile(r"#\s*allow-(?P<marker>[a-z][a-z-]*)(?:\s*:\s*(?P<reason>.*))?")


@dataclass(frozen=True)
class GuardAnnotation:
    """One ``# guarded-by`` comment: which lock, and whether only
    writes are checked (``mode == "writes"``)."""

    lock: str
    mode: str  # "all" | "writes"
    line: int


@dataclass
class SourceFile:
    """A parsed module plus the comment layer the rules need."""

    path: Path
    display: str  # repo-relative path used in findings
    text: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, display: Optional[str] = None) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        attach_parents(tree)
        return cls(
            path=path,
            display=display if display is not None else str(path),
            text=text,
            tree=tree,
            comments=extract_comments(text),
        )

    def guard_annotation(self, line: int) -> Optional[GuardAnnotation]:
        """The ``guarded-by`` annotation on ``line`` or the line above.

        The line above only counts when it is a comment-*only* line (a
        comment of its own directly over the assignment) — a trailing
        comment on the previous statement must not leak onto this one.
        """
        for candidate in (line, line - 1):
            comment = self.comments.get(candidate)
            if comment is None:
                continue
            if candidate == line - 1:
                lines = self.text.splitlines()
                if (
                    candidate < 1
                    or candidate > len(lines)
                    or not lines[candidate - 1].lstrip().startswith("#")
                ):
                    continue
            match = GUARDED_BY.search(comment)
            if match:
                return GuardAnnotation(
                    lock=match.group("lock"),
                    mode="writes" if match.group("mode") else "all",
                    line=candidate,
                )
        return None

    def allowance(self, line: int, marker: str) -> Optional[str]:
        """The reason of an ``# allow-<marker>`` comment on ``line`` or
        on a comment-only line directly above, else ``None``.

        Same placement rules as :meth:`guard_annotation`: a trailing
        comment on the previous *statement* does not leak downward.
        """
        lines = self.text.splitlines()
        for candidate in (line, line - 1):
            comment = self.comments.get(candidate)
            if comment is None:
                continue
            if candidate == line - 1 and (
                candidate < 1
                or candidate > len(lines)
                or not lines[candidate - 1].lstrip().startswith("#")
            ):
                continue
            match = ALLOW.search(comment)
            if match and match.group("marker") == marker:
                return match.group("reason") or ""
        return None


def extract_comments(text: str) -> dict[int, str]:
    """``line → comment text`` for every comment token in ``text``."""
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        pass
    return comments


def attach_parents(tree: ast.AST) -> None:
    """Set a ``parent`` attribute on every node (rules walk upward to
    find enclosing functions, classes and ``with`` blocks)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def parents(node: ast.AST) -> Iterator[ast.AST]:
    """The chain of ancestors from ``node`` up to the module."""
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


def enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for ancestor in parents(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` chains (``None`` for anything fancier)."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``sorted`` for ``sorted(x)``, ``glob`` for
    ``glob.glob(x)`` (the last attribute of a dotted callee)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def self_attribute(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def with_lock_attrs(node: ast.With) -> list[str]:
    """The ``X`` of every ``self.X`` context item of a ``with``.

    Recognises both ``with self._lock:`` and
    ``with self._lock, tracing(...):``; non-attribute items (function
    calls such as ``tracing``) contribute nothing.
    """
    locks: list[str] = []
    for item in node.items:
        attr = self_attribute(item.context_expr)
        if attr is not None:
            locks.append(attr)
    return locks


#: Substrings that mark an attribute or variable as a mutual-exclusion
#: primitive.  The repo's own locks are all ``*lock*``-named
#: (``_lock``, ``_write_lock``, ``_locks``); ``mutex``/``sem`` cover
#: the conventional synonyms.  Name-based, so a rule can tell
#: ``with self._write_lock:`` apart from ``with tracing(...):`` without
#: type inference.
LOCKISH = ("lock", "mutex", "sem")

def is_lockish(name: Optional[str]) -> bool:
    """Does ``name`` look like a mutual-exclusion primitive?"""
    if not name:
        return False
    lowered = name.lower()
    return any(token in lowered for token in LOCKISH)


def lock_attr_of(expr: ast.expr) -> Optional[str]:
    """The lock attribute named by an acquisition expression.

    ``self.X`` and ``self.X[i]`` (one lock of a per-shard list) both
    resolve to ``X``; anything else — calls, plain names, chained
    attributes — yields ``None``, keeping the lexical lock analyses
    conservative.
    """
    node = expr
    if isinstance(node, ast.Subscript):
        node = node.value
    return self_attribute(node)


def _lock_method_attrs(nodes: Iterator[ast.AST], method: str) -> set[str]:
    """Lock attributes ``X`` with a ``self.X...<method>()`` call in
    ``nodes`` (subscripted per-shard locks ``self.X[i]`` included)."""
    attrs: set[str] = set()
    for node in nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            attr = lock_attr_of(node.func.value)
            if attr is not None:
                attrs.add(attr)
    return attrs


def try_finally_locks(try_node: ast.Try) -> set[str]:
    """Lock attributes the manual idiom holds across ``try_node.body``.

    Recognised shape: ``self.X...release()`` in the ``finally`` block,
    paired with ``self.X...acquire()`` either in the statements
    directly preceding the ``try`` or inside its body (the fan-out
    pattern acquires inside the ``try`` so a failure mid-loop releases
    only what was taken).  The held region is approximated as the whole
    ``try`` body — an over-approximation that can only suppress
    discipline findings, never invent them.
    """
    released = _lock_method_attrs(
        (n for stmt in try_node.finalbody for n in ast.walk(stmt)), "release"
    )
    if not released:
        return set()
    acquired = _lock_method_attrs(
        (n for stmt in try_node.body for n in ast.walk(stmt)), "acquire"
    )
    parent = getattr(try_node, "parent", None)
    if parent is not None:
        for _, value in ast.iter_fields(parent):
            if isinstance(value, list) and try_node in value:
                preceding = value[: value.index(try_node)]
                acquired |= _lock_method_attrs(
                    (n for stmt in preceding for n in ast.walk(stmt)),
                    "acquire",
                )
                break
    return released & acquired


def held_lock_attrs(
    node: ast.AST, stop_class: Optional[ast.ClassDef] = None
) -> set[str]:
    """Every lock attribute lexically held at ``node``: enclosing
    ``with self.X:`` statements plus the acquire/``finally``-release
    idiom (:func:`try_finally_locks`).  Stops at ``stop_class`` when
    given (the discipline rule's per-class scope)."""
    held: set[str] = set()
    child: ast.AST = node
    for ancestor in parents(node):
        if isinstance(ancestor, ast.With):
            held.update(with_lock_attrs(ancestor))
        elif isinstance(ancestor, ast.Try) and child in ancestor.body:
            held.update(try_finally_locks(ancestor))
        elif isinstance(ancestor, ast.ClassDef) and ancestor is stop_class:
            break
        child = ancestor
    return held


#: Calls that statically return a set.
SET_RETURNING_CALLS = frozenset({"set", "frozenset", "attrs", "union_all"})
#: Set methods that return a set when called on a set-typed receiver.
SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: Filesystem enumerators whose order is OS-dependent.
FS_ENUMERATORS = {
    "listdir": "os.listdir",
    "scandir": "os.scandir",
    "iterdir": "Path.iterdir",
    "glob": "glob",
    "iglob": "glob.iglob",
    "rglob": "Path.rglob",
}
#: Annotation names that mark a value as set-typed.
SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "Attrs"})


def annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    """True when a type annotation names a set type (``set[str]``,
    ``frozenset``, ``Set[...]`` and the library's ``Attrs`` alias)."""
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: good enough to check the head.
        head = node.value.split("[", 1)[0].strip()
        return head in SET_ANNOTATIONS
    return False


def is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Conservatively decide whether ``node`` evaluates to a set.

    ``set_names`` are local names the caller has inferred to be
    set-typed (from assignments and annotations).  The test is
    syntactic and errs toward ``False`` — a lint rule must not guess.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in SET_RETURNING_CALLS:
            return True
        if name in SET_METHODS and isinstance(node.func, ast.Attribute):
            return is_set_expr(node.func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra: both operands set-typed (an int ``a - b`` must
        # not match, so require evidence on each side).
        return is_set_expr(node.left, set_names) and is_set_expr(
            node.right, set_names
        )
    if isinstance(node, ast.Attribute):
        # ``self.universe`` / ``scheme.attributes`` style accessors are
        # set-typed throughout this library.
        return node.attr in ("universe", "attributes") or (
            node.attr in set_names
        )
    return False


def infer_set_locals(
    function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> frozenset[str]:
    """Local names that are set-typed somewhere in ``function``.

    One flow-insensitive pass: a name assigned a set expression or
    annotated as a set anywhere counts.  Flow-insensitivity can only
    widen the set of names — acceptable for a linter whose downstream
    check still requires an order-sensitive *consumer* to fire.
    """
    names: set[str] = set()
    for arg in list(function.args.args) + list(function.args.kwonlyargs):
        if annotation_is_set(arg.annotation):
            names.add(arg.arg)
    changed = True
    while changed:
        changed = False
        frozen = frozenset(names)
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and is_set_expr(
                node.value, frozen
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        changed = True
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if annotation_is_set(node.annotation) or (
                    node.value is not None
                    and is_set_expr(node.value, frozen)
                ):
                    if node.target.id not in names:
                        names.add(node.target.id)
                        changed = True
    return frozenset(names)
