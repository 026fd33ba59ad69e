"""Cache-invalidation lint: every write path stamps the read cache.

The read cache (PR 9) is *exact* because of the paper's boundedness
theorem: a total projection on an independence-reducible scheme is a
predetermined expression over the blocks it touches, so per-block
version counters invalidate precisely.  The runtime half of that
argument is a discipline, not a theorem: every path that produces a
new :class:`~repro.state.database_state.DatabaseState` must stamp the
written block — ``WeakInstanceEngine._note_write`` /
``ReadCache.note_write`` / ``BlockVersions.bump`` — or delegate to a
path that does.  (Identity-keyed lazy versioning keeps a missed stamp
*sound* — a fresh state's relations carry fresh identities — but it
silently degrades the first post-write probe and falsifies the
``writes_observed`` metric the benchmarks report, so the invariant is:
stamp, or be exempted with a reason.)

Mirroring :mod:`repro.analysis.rules_spans`, the rule is config-driven:
:class:`InvalidationConfig` maps ``module-suffix::qualname`` entry
points (the state-mutation map — engine insert/delete/batch sites,
store and WAL-replay apply sites, shard worker commit sites, and the
shard router's write paths, which must invalidate its relation
mirror through ``ShardRouter._invalidate``) to the
call names that count as coverage for that entry.  A mutation site
passes when its body contains a call to any acceptable name — a direct
stamp (``_note_write`` / ``note_write`` / ``bump``) or a delegation to
a covered mutator (``insert`` / ``delete`` / ``batch``).  Everything
else in the map must be exempted with a reason.
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
    """The state-mutation map.  Keys are ``module-suffix::qualname``
    strings (``core/engine.py::WeakInstanceEngine.insert``); values of
    ``required`` are the call names accepted as coverage for that
    mutation site."""

    #: mutation site → call names that count as stamping (or as
    #: delegating to a stamping mutator).
    required: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: mutation site → reason it legitimately stamps nothing.
    exempt: Mapping[str, str] = field(default_factory=dict)


def default_invalidation_config() -> InvalidationConfig:
    """The repo's real write-path map (see docs/ARCHITECTURE.md,
    "Invariant enforcement")."""
    return InvalidationConfig(
        required={
            # Engine: the mutation kernels stamp directly; the batch
            # tiers delegate into them or stamp per routed block.
            "core/engine.py::WeakInstanceEngine.insert": ("_note_write",),
            "core/engine.py::WeakInstanceEngine.delete": ("_note_write",),
            "core/engine.py::WeakInstanceEngine.modify": ("insert",),
            "core/engine.py::WeakInstanceEngine.batch": (
                "_apply_blocks",
                "_apply_serial",
            ),
            "core/engine.py::WeakInstanceEngine.apply_slice": (
                "_apply_blocks",
                "_apply_serial",
            ),
            "core/engine.py::WeakInstanceEngine._apply_serial": (
                "insert",
                "delete",
            ),
            "core/engine.py::WeakInstanceEngine._apply_blocks": (
                "note_write",
            ),
            # Store: applies through the engine's stamping mutators —
            # both the live write paths and the WAL-recovery replay.
            "service/store.py::DurableStore.insert": ("insert",),
            "service/store.py::DurableStore.delete": ("delete",),
            "service/store.py::DurableStore.apply_batch": ("batch",),
            "service/store.py::_apply_record": (
                "insert",
                "delete",
            ),
            # Follower replay applies shipped records through the
            # engine exactly like recovery does.
            "service/replica.py::FollowerStore.replay": (
                "insert",
                "delete",
            ),
            # Shard worker: prepare validates its slice through the
            # engine's stamping batch kernel.
            "shard/worker.py::ShardWorker._prepare": ("apply_slice",),
            # Shard router: every write RPC bumps the write generation
            # of the relations it names, so the router's relation
            # mirror re-fetches them on the next gather.
            "shard/router.py::ShardRouter.insert": ("_invalidate",),
            "shard/router.py::ShardRouter.delete": ("_invalidate",),
            "shard/router.py::ShardRouter.apply_batch": ("_invalidate",),
        },
        exempt={
            "shard/worker.py::ShardWorker._commit": (
                "installs the state prepared by "
                "WeakInstanceEngine.apply_slice, which stamped the "
                "written blocks"
            ),
            "service/store.py::DurableStore.commit_batch": (
                "logs a batch whose state was produced (and stamped) "
                "by the prepare phase"
            ),
            "service/store.py::DurableStore.log_reject": (
                "rejected update: no state transition, nothing to stamp"
            ),
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
    nature: the map spans engine, store, replica and worker)."""
    findings: list[Finding] = []
    for source in sources:
        table = _functions_by_qualname(source.tree)
        for key in config.exempt:
            module_suffix, _, qualname = key.partition("::")
            if not _matches(source.display, module_suffix):
                continue
            if qualname not in table:
                findings.append(
                    Finding(
                        path=source.display,
                        line=1,
                        col=1,
                        rule=RULE_ID,
                        severity="warning",
                        message=(
                            f"exempted mutation site {qualname} no "
                            "longer exists; drop it from the "
                            "cache-invalidation map"
                        ),
                    )
                )
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
                        f"mutation site {qualname} never stamps the "
                        f"read cache: call {wanted} on every produced "
                        "state, or exempt the site with a reason in "
                        "the cache-invalidation map (read-cache "
                        "exactness rests on every write path bumping "
                        "block versions)"
                    ),
                )
            )
    return findings
