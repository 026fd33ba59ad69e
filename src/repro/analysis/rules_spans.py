"""Span-hygiene lint: entry points open the spans the catalogue says.

The observability layer (PR 3) documents a span catalogue in
``docs/ARCHITECTURE.md`` and instruments every engine/store/server
entry point.  Nothing kept the three in sync: an uninstrumented new
public method silently falls out of the latency histograms, and a span
renamed in code but not in the catalogue lies to whoever reads the
docs.  This rule closes the loop three ways:

1. **Required spans** — each configured entry point (``SpanConfig
   .required``) must contain ``with span("<expected>")`` (or activate
   a tracer with ``tracing(...)``, the server's idiom) somewhere in
   its body.
2. **Surface sweep** — every *public* method of the configured surface
   classes must be required, explicitly exempted (with a reason), a
   property/classmethod/staticmethod accessor, or delegate to a
   required method of the same class.  Anything else is an
   unreviewed entry point.
3. **Catalogue cross-check** — when a catalogue path is configured,
   every ``span("...")`` literal in the analyzed tree must appear in
   the catalogue table, and every catalogued span must occur in code.

A ``required``, ``surface`` or ``exempt`` entry whose module, class or
method no longer exists in the analyzed tree is reported as a warning,
so the config cannot outlive the code it names.  (``repro lint
--changed`` drops the entries of unscanned modules first.)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.analysis.astcheck import SourceFile, call_name
from repro.analysis.findings import Finding

RULE_ID = "span-hygiene"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Backticked span-like tokens (``chase.relations``) in a markdown row.
_CATALOGUE_TOKEN = re.compile(r"`([a-z_]+(?:\.[a-z_]+)+)`")


@dataclass(frozen=True)
class SpanConfig:
    """What the rule enforces.  Keys of ``required`` and members of
    ``surface`` / ``exempt`` are ``module-suffix::qualname`` strings,
    e.g. ``core/engine.py::WeakInstanceEngine.insert``."""

    #: entry point → acceptable span names ("tracing" accepts a
    #: ``tracing(...)`` activation instead of a direct span).
    required: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: classes (``module-suffix::ClassName``) whose public methods are
    #: swept.
    surface: tuple[str, ...] = ()
    #: entry point → reason it legitimately opens no span.
    exempt: Mapping[str, str] = field(default_factory=dict)
    #: path to the markdown span catalogue (``None`` disables the
    #: cross-check — fixture runs use this).
    catalogue: Optional[Path] = None


def default_config(repo_root: Path) -> SpanConfig:
    """The repo's real invariants, mirroring docs/ARCHITECTURE.md."""
    catalogue = repo_root / "docs" / "ARCHITECTURE.md"
    return SpanConfig(
        required={
            "core/engine.py::WeakInstanceEngine.insert": ("engine.insert",),
            "core/engine.py::WeakInstanceEngine.delete": ("engine.delete",),
            "core/engine.py::WeakInstanceEngine.query": ("engine.query",),
            "core/engine.py::WeakInstanceEngine.plan": ("engine.plan",),
            # batch delegates to apply_slice, which opens the span
            # for both entry points.
            "core/engine.py::WeakInstanceEngine.apply_slice": (
                "engine.batch",
            ),
            "core/engine.py::WeakInstanceEngine.evaluate": (
                "engine.query.compiled",
            ),
            "core/engine.py::WeakInstanceEngine._query_cached": (
                "engine.query.cached",
            ),
            "compile/program.py::compile_expression": ("compile.kernel",),
            "service/store.py::MemoryStore.insert": ("store.insert",),
            "service/store.py::MemoryStore.delete": ("store.delete",),
            "service/store.py::MemoryStore.apply_batch": ("store.batch",),
            "service/store.py::MemoryStore.query": ("store.query",),
            "service/store.py::MemoryStore.commit_batch": ("store.batch",),
            "service/store.py::MemoryStore.log_reject": ("store.batch",),
            "service/store.py::DurableStore.open": ("store.recovery",),
            "service/store.py::DurableStore.snapshot": ("store.snapshot",),
            "service/wal.py::WriteAheadLog.append": ("wal.append",),
            "service/wal.py::WriteAheadLog.sync": ("wal.fsync",),
            "service/wal.py::WriteAheadLog.roll": ("wal.roll",),
            "service/replica.py::FollowerStore.replay": ("replica.replay",),
            "service/replica.py::WalShipper.ship": ("replica.ship",),
            "shard/router.py::ShardRouter.insert": ("shard.route",),
            "shard/router.py::ShardRouter.delete": ("shard.route",),
            "shard/router.py::ShardRouter.query": ("shard.route",),
            # apply_batch activates the tracer; the shard.route span
            # opens in _two_phase.
            "shard/router.py::ShardRouter.apply_batch": ("tracing",),
            "shard/router.py::ShardRouter._shard": ("shard.rpc",),
            "shard/router.py::ShardRouter.snapshot": ("tracing",),
            "shard/frontend.py::dispatch": ("front.request",),
            "tableau/chase.py::chase": ("chase.tableau",),
            "tableau/chase.py::chase_relations": ("chase.relations",),
            "tableau/chase.py::DeltaChase.extend": ("chase.delta",),
            "algebra/expressions.py::join_relations": ("join.hash",),
            "algebra/expressions.py::evaluate_natural_join": (
                "join.pipeline",
            ),
        },
        surface=(
            "core/engine.py::WeakInstanceEngine",
            "service/store.py::MemoryStore",
            "service/store.py::DurableStore",
            "service/replica.py::FollowerStore",
            "service/replica.py::WalShipper",
            "shard/router.py::ShardRouter",
            "shard/frontend.py::ShardFrontend",
        ),
        exempt={
            # Engine: accessors and memo plumbing; the chase spans fire
            # inside chase_state/chase_relations on every cache miss.
            "core/engine.py::WeakInstanceEngine.close": "no-op teardown",
            "core/engine.py::WeakInstanceEngine.strategy_report": "accessor",
            "core/engine.py::WeakInstanceEngine.empty_state": "accessor",
            "core/engine.py::WeakInstanceEngine.load": (
                "delegates to representative; chase.* spans fire on miss"
            ),
            "core/engine.py::WeakInstanceEngine.representative": (
                "memo probe; chase.tableau/chase.relations spans fire on "
                "miss"
            ),
            "core/engine.py::WeakInstanceEngine.cache_info": "accessor",
            "core/engine.py::WeakInstanceEngine.explain": "accessor",
            # Store: sync's wal.fsync span lives in WriteAheadLog.sync.
            "service/store.py::DurableStore.sync": (
                "delegates to WriteAheadLog.sync (wal.fsync span)"
            ),
            "service/store.py::DurableStore.close": "resource teardown",
            "service/store.py::MemoryStore.close": "resource teardown",
            # Router: constructors, sessions and reporting never touch
            # the engine's hot paths; the routed hot paths all open
            # shard.* spans.
            "shard/router.py::ShardRouter.in_memory": "constructor",
            "shard/router.py::ShardRouter.create": "constructor",
            "shard/router.py::ShardRouter.open": "constructor",
            "shard/router.py::ShardRouter.session": "session bookkeeping",
            "shard/router.py::ShardRouter.session_names": "accessor",
            "shard/router.py::ShardRouter.metrics_snapshot": "reporting",
            "shard/router.py::ShardRouter.stats": "reporting",
            "shard/router.py::ShardRouter.prometheus": "reporting",
            "shard/router.py::ShardRouter.close": "resource teardown",
            # Replica: the hot paths are replay (replica.replay span)
            # and the shipper's ship (replica.ship span); the rest is
            # bootstrap/teardown bookkeeping or lock-free reads.
            "service/replica.py::FollowerStore.bootstrap": (
                "one-time (re)initialisation from a snapshot; the "
                "steady-state path is replay (replica.replay span)"
            ),
            "service/replica.py::FollowerStore.sync": (
                "fsync of the open segment file"
            ),
            "service/replica.py::FollowerStore.seal": (
                "fsync+close bookkeeping at a segment boundary"
            ),
            "service/replica.py::FollowerStore.query": (
                "lock-free read of an immutable snapshot"
            ),
            "service/replica.py::FollowerStore.promote": (
                "one-shot failover; the promoted DurableStore's own "
                "spans take over"
            ),
            "service/replica.py::FollowerStore.close": "resource teardown",
            "service/replica.py::WalShipper.lag": "reporting",
            # Frontend: lifecycle only; every request runs through
            # dispatch, which opens front.request.
            "shard/frontend.py::ShardFrontend.start": "socket bind",
            "shard/frontend.py::ShardFrontend.serve_forever": (
                "waits for close(); front.request spans fire per request "
                "on the connection threads"
            ),
            "shard/frontend.py::ShardFrontend.close": "resource teardown",
        },
        catalogue=catalogue if catalogue.exists() else None,
    )


def _span_literals(tree: ast.AST) -> list[tuple[str, int]]:
    """Every ``span("<name>")`` literal with its line."""
    names: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and call_name(node) == "span"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.append((node.args[0].value, node.lineno))
    return names


def _opens(function: FunctionNode, expected: Sequence[str]) -> bool:
    """Does the body open one of the expected spans (or a tracer)?"""
    accepts_tracing = "tracing" in expected
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if accepts_tracing and name == "tracing":
                return True
            if (
                name == "span"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in expected
            ):
                return True
    return False


def _decorator_names(function: FunctionNode) -> set[str]:
    names: set[str] = set()
    for decorator in function.decorator_list:
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def _delegates_to(
    function: FunctionNode, required_methods: set[str]
) -> bool:
    """Body calls ``self.<m>`` / ``cls.<m>`` for a required method of
    the same class — the wrapper inherits its span."""
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("self", "cls")
            and node.func.attr in required_methods
        ):
            return True
    return False


def load_catalogue(path: Path) -> set[str]:
    """Span names documented in the markdown catalogue table."""
    names: set[str] = set()
    in_section = False
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            in_section = "span catalogue" in stripped.lower()
            continue
        if in_section and stripped.startswith("|"):
            first_cell = stripped.split("|")[1]
            names.update(_CATALOGUE_TOKEN.findall(first_cell))
    return names


def _functions_by_qualname(
    tree: ast.Module,
) -> dict[str, FunctionNode]:
    """``qualname → node`` for module-level functions and methods."""
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


def _vanished(path: str, what: str) -> Finding:
    """The warning for a config entry naming code that is gone."""
    return Finding(
        path=path,
        line=1,
        col=1,
        rule=RULE_ID,
        severity="warning",
        message=(
            f"configured {what} no longer exists; update the "
            "span-hygiene config"
        ),
    )


def check_project(
    sources: Iterable[SourceFile], config: SpanConfig
) -> list[Finding]:
    """The whole-project pass (this rule is cross-file by nature)."""
    findings: list[Finding] = []
    used_spans: dict[str, tuple[str, int]] = {}
    #: config entries whose module is among the analyzed sources
    matched: set[str] = set()

    for source in sources:
        for name, line in _span_literals(source.tree):
            used_spans.setdefault(name, (source.display, line))
        table = _functions_by_qualname(source.tree)

        for key in config.exempt:
            module_suffix, _, qualname = key.partition("::")
            if _matches(source.display, module_suffix):
                matched.add(key)
                if qualname not in table:
                    findings.append(
                        _vanished(source.display, f"exemption {qualname}")
                    )

        for key, expected in config.required.items():
            module_suffix, _, qualname = key.partition("::")
            if not _matches(source.display, module_suffix):
                continue
            matched.add(key)
            function = table.get(qualname)
            if function is None:
                findings.append(
                    _vanished(source.display, f"entry point {qualname}")
                )
                continue
            if not _opens(function, expected):
                wanted = " or ".join(
                    f'span("{name}")' if name != "tracing" else "tracing(...)"
                    for name in expected
                )
                findings.append(
                    Finding(
                        path=source.display,
                        line=function.lineno,
                        col=function.col_offset + 1,
                        rule=RULE_ID,
                        severity="error",
                        message=(
                            f"{qualname} must open {wanted} (see the span "
                            "catalogue in docs/ARCHITECTURE.md)"
                        ),
                    )
                )

        for surface_key in config.surface:
            module_suffix, _, class_name = surface_key.partition("::")
            if not _matches(source.display, module_suffix):
                continue
            matched.add(surface_key)
            class_node = next(
                (
                    node
                    for node in source.tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == class_name
                ),
                None,
            )
            if class_node is None:
                findings.append(
                    _vanished(source.display, f"surface class {class_name}")
                )
                continue
            required_methods = {
                key.partition("::")[2].split(".")[-1]
                for key in config.required
                if key.startswith(f"{module_suffix}::{class_name}.")
            }
            for member in class_node.body:
                if not isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if member.name.startswith("_"):
                    continue
                key = f"{module_suffix}::{class_name}.{member.name}"
                if key in config.required or key in config.exempt:
                    continue
                decorators = _decorator_names(member)
                if decorators & {"property", "classmethod", "staticmethod"}:
                    if _opens(member, ("tracing",)) or _delegates_to(
                        member, required_methods
                    ):
                        continue
                    if "property" in decorators:
                        continue  # plain accessor
                if _opens(member, ("tracing",)) or _delegates_to(
                    member, required_methods
                ):
                    continue
                if any(
                    isinstance(node, ast.Call) and call_name(node) == "span"
                    for node in ast.walk(member)
                ):
                    continue  # opens some span; catalogue check covers it
                findings.append(
                    Finding(
                        path=source.display,
                        line=member.lineno,
                        col=member.col_offset + 1,
                        rule=RULE_ID,
                        severity="error",
                        message=(
                            f"unreviewed public entry point "
                            f"{class_name}.{member.name}: open a tracer "
                            "span (and catalogue it) or add an exemption "
                            "with a reason to the span-hygiene config"
                        ),
                    )
                )

    for key in (*config.required, *config.surface, *config.exempt):
        if key not in matched:
            module_suffix = key.partition("::")[0]
            findings.append(
                _vanished(module_suffix, f"module of {key}")
            )

    if config.catalogue is not None:
        documented = load_catalogue(config.catalogue)
        catalogue_display = str(config.catalogue)
        for name, (display, line) in sorted(used_spans.items()):
            if name not in documented:
                findings.append(
                    Finding(
                        path=display,
                        line=line,
                        col=1,
                        rule=RULE_ID,
                        severity="error",
                        message=(
                            f'span "{name}" is not documented in the span '
                            f"catalogue ({config.catalogue.name})"
                        ),
                    )
                )
        for name in sorted(documented - set(used_spans)):
            findings.append(
                Finding(
                    path=catalogue_display,
                    line=1,
                    col=1,
                    rule=RULE_ID,
                    severity="warning",
                    message=(
                        f'catalogued span "{name}" is never opened in the '
                        "analyzed tree"
                    ),
                )
            )
    return findings
