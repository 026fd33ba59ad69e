"""Scheme classification front-end and the invariant linter.

Two residents share this package:

* :func:`analyze_scheme` / :class:`SchemeReport` — the paper-facing
  scheme classification report (independence reducibility, key cover,
  chase strategy).
* The invariant linter behind ``repro lint`` — an AST-based static
  analyzer enforcing the codebase's own runtime invariants: lock
  discipline over ``# guarded-by`` fields, determinism of chase/join
  outputs, span hygiene against the catalogue in
  ``docs/ARCHITECTURE.md``, resource/exception safety, and the
  concurrency packs (async discipline, cross-file lock-order
  acyclicity, published-state republication coverage).  See
  ``docs/ANALYSIS.md``.
"""

from repro.analysis.findings import (
    RULE_CODES,
    Finding,
    render_json,
    render_text,
    worst_severity,
)
from repro.analysis.linter import (
    ALL_RULES,
    FILE_RULES,
    PROJECT_RULES,
    Analyzer,
    lint_paths,
)
from repro.analysis.report import SchemeReport, analyze_scheme
from repro.analysis.rules_invalidation import (
    InvalidationConfig,
    default_invalidation_config,
)
from repro.analysis.rules_spans import SpanConfig, default_config

__all__ = [
    "ALL_RULES",
    "Analyzer",
    "FILE_RULES",
    "Finding",
    "InvalidationConfig",
    "PROJECT_RULES",
    "RULE_CODES",
    "SchemeReport",
    "SpanConfig",
    "analyze_scheme",
    "default_config",
    "default_invalidation_config",
    "lint_paths",
    "render_json",
    "render_text",
    "worst_severity",
]
