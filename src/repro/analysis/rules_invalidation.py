"""Cache-invalidation lint: every router write path republishes the
router's published state.

The shard router answers every query from one published state: the
shard stores' relations assembled into one full-scheme state.  It stays
exact only while every write that may change a store publishes it again
afterwards, whatever the write's outcome, so every router write path
must call ``ShardRouter._publish`` (in a ``finally``), or a query could
read a state the write made stale.  That is a discipline, not a
theorem, so it is linted.

(The engine's read cache needs no such map: states are immutable, a
write gives only the written block new relation objects, and block
versions are keyed by relation identity, so no write path stamps
anything.)

Mirroring :mod:`repro.analysis.rules_spans`, the rule is config-driven:
:class:`InvalidationConfig` maps ``module-suffix::qualname`` entry
points (the router's write paths) to the call names that count as
coverage for that entry.  A mutation site passes when its body
contains a call to any acceptable name — a direct invalidation or a
delegation to a covered path.  A configured site that no longer
exists is reported so the map cannot go stale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from repro.analysis.astcheck import SourceFile, call_name
from repro.analysis.findings import Finding

RULE_ID = "cache-invalidation"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class InvalidationConfig:
    """The write-path map.  Keys are ``module-suffix::qualname``
    strings (``shard/router.py::ShardRouter.insert``); values of
    ``required`` are the call names accepted as coverage for that
    mutation site."""

    #: mutation site → call names that count as invalidating (or as
    #: delegating to an invalidating path).
    required: Mapping[str, tuple[str, ...]] = field(default_factory=dict)


def default_invalidation_config() -> InvalidationConfig:
    """The repo's real write-path map (see docs/ARCHITECTURE.md,
    "Invariant enforcement")."""
    return InvalidationConfig(
        required={
            # Every write republishes the state from the stores after
            # it, whatever its outcome.
            "shard/router.py::ShardRouter.insert": ("_publish",),
            "shard/router.py::ShardRouter.delete": ("_publish",),
            "shard/router.py::ShardRouter.apply_batch": ("_publish",),
        },
    )


def _functions_by_qualname(tree: ast.Module) -> dict[str, FunctionNode]:
    table: dict[str, FunctionNode] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table[f"{node.name}.{member.name}"] = member
    return table


def _matches(display: str, module_suffix: str) -> bool:
    return display.replace("\\", "/").endswith(module_suffix)


def _calls_any(function: FunctionNode, acceptable: tuple[str, ...]) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and call_name(node) in acceptable:
            return True
    return False


def check_project(
    sources: Iterable[SourceFile], config: InvalidationConfig
) -> list[Finding]:
    """Cross-check every configured mutation site (cross-file by
    nature: the map may span any module under the lint root)."""
    findings: list[Finding] = []
    for source in sources:
        table = _functions_by_qualname(source.tree)
        for key, acceptable in config.required.items():
            module_suffix, _, qualname = key.partition("::")
            if not _matches(source.display, module_suffix):
                continue
            function = table.get(qualname)
            if function is None:
                findings.append(
                    Finding(
                        path=source.display,
                        line=1,
                        col=1,
                        rule=RULE_ID,
                        severity="warning",
                        message=(
                            f"configured mutation site {qualname} no "
                            "longer exists; update the "
                            "cache-invalidation map"
                        ),
                    )
                )
                continue
            if _calls_any(function, acceptable):
                continue
            wanted = " or ".join(f"{name}(...)" for name in acceptable)
            findings.append(
                Finding(
                    path=source.display,
                    line=function.lineno,
                    col=function.col_offset + 1,
                    rule=RULE_ID,
                    severity="error",
                    message=(
                        f"mutation site {qualname} never invalidates "
                        f"the relation mirror: call {wanted} around "
                        "the write (a mirrored relation copy stays "
                        "exact only while every write path republishes "
                        "the copies of the relations it names)"
                    ),
                )
            )
    return findings
