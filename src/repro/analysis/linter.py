"""The invariant linter: file collection, rule dispatch, reporting.

:class:`Analyzer` walks the requested paths, parses each ``.py`` file
once into a :class:`~repro.analysis.astcheck.SourceFile`, runs every
registered per-file rule over it, then runs the project-wide rules
(span hygiene and the cache-invalidation map cross-check configured
entry points against the whole tree; lock-order accumulates one
acquisition graph across every file).  Rules are plain functions —
per-file rules take a ``SourceFile``, project rules take the full
list — so adding a rule is one import and one registry entry (plus a
line in :data:`~repro.analysis.findings.RULE_CODES`, which the
registry is asserted against).

Per-path rule selection: ``rule_paths`` restricts a rule to files
whose (root-relative) display path starts with one of the given
prefixes.  The CLI uses it to keep the ``src``-specific configured
rules (span hygiene, the invalidation map) from firing on ``scripts/``
and ``benchmarks/`` while the behavioral packs sweep everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.analysis import (
    rules_asyncio,
    rules_determinism,
    rules_invalidation,
    rules_locks,
    rules_resources,
    rules_spans,
)
from repro.analysis.astcheck import SourceFile
from repro.analysis.findings import RULE_CODES, Finding
from repro.analysis.rules_invalidation import InvalidationConfig
from repro.analysis.rules_spans import SpanConfig

FileRule = Callable[[SourceFile], list[Finding]]

#: The per-file rule packs, in report order.
FILE_RULES: dict[str, FileRule] = {
    rules_locks.RULE_ID: rules_locks.check,
    rules_determinism.RULE_ID: rules_determinism.check,
    rules_resources.RULE_ID: rules_resources.check,
    rules_asyncio.RULE_ID: rules_asyncio.check,
}

#: The project-wide rules (cross-file by nature).
PROJECT_RULES: tuple[str, ...] = (
    rules_spans.RULE_ID,
    rules_locks.ORDER_RULE_ID,
    rules_invalidation.RULE_ID,
)

ALL_RULES: tuple[str, ...] = tuple(FILE_RULES) + PROJECT_RULES

assert set(ALL_RULES) == set(RULE_CODES), (
    "rule registry and findings.RULE_CODES disagree: "
    f"{sorted(set(ALL_RULES) ^ set(RULE_CODES))}"
)


@dataclass
class Analyzer:
    """One lint run: which paths, which rules, which configs."""

    paths: Sequence[Path]
    root: Optional[Path] = None
    rules: Sequence[str] = field(default_factory=lambda: ALL_RULES)
    span_config: Optional[SpanConfig] = None
    invalidation_config: Optional[InvalidationConfig] = None
    #: rule id → display-path prefixes the rule is confined to; a rule
    #: absent from the mapping runs everywhere.
    rule_paths: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.rules) - set(ALL_RULES)
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(sorted(unknown))} "
                f"(available: {', '.join(ALL_RULES)})"
            )

    def collect(self) -> list[Path]:
        """Every ``.py`` file under the requested paths, sorted (the
        linter must itself be deterministic)."""
        files: set[Path] = set()
        for path in self.paths:
            if path.is_dir():
                files.update(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.add(path)
        return sorted(files)

    def _display(self, path: Path) -> str:
        if self.root is not None:
            try:
                return path.resolve().relative_to(self.root.resolve()).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    def sources(self) -> Iterator[SourceFile]:
        for path in self.collect():
            yield SourceFile.load(path, display=self._display(path))

    def _in_scope(self, rule_id: str, source: SourceFile) -> bool:
        prefixes = self.rule_paths.get(rule_id)
        if prefixes is None:
            return True
        return source.display.startswith(tuple(prefixes))

    def run(self) -> list[Finding]:
        findings: list[Finding] = []
        loaded: list[SourceFile] = []
        for source in self.sources():
            loaded.append(source)
            for rule_id, rule in FILE_RULES.items():
                if rule_id in self.rules and self._in_scope(rule_id, source):
                    findings.extend(rule(source))

        def scoped(rule_id: str) -> list[SourceFile]:
            return [s for s in loaded if self._in_scope(rule_id, s)]

        if rules_spans.RULE_ID in self.rules and self.span_config is not None:
            findings.extend(
                rules_spans.check_project(
                    scoped(rules_spans.RULE_ID), self.span_config
                )
            )
        if rules_locks.ORDER_RULE_ID in self.rules:
            findings.extend(
                rules_locks.check_order(scoped(rules_locks.ORDER_RULE_ID))
            )
        if (
            rules_invalidation.RULE_ID in self.rules
            and self.invalidation_config is not None
        ):
            findings.extend(
                rules_invalidation.check_project(
                    scoped(rules_invalidation.RULE_ID),
                    self.invalidation_config,
                )
            )
        return sorted(findings)


def lint_paths(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
    span_config: Optional[SpanConfig] = None,
    invalidation_config: Optional[InvalidationConfig] = None,
    rule_paths: Optional[Mapping[str, tuple[str, ...]]] = None,
) -> list[Finding]:
    """Convenience front door used by the CLI and the tests."""
    analyzer = Analyzer(
        paths=list(paths),
        root=root,
        rules=tuple(rules) if rules is not None else ALL_RULES,
        span_config=span_config,
        invalidation_config=invalidation_config,
        rule_paths=dict(rule_paths) if rule_paths is not None else {},
    )
    return analyzer.run()
