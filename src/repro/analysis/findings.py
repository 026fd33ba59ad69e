"""Findings: what a lint rule reports and how it is rendered.

A :class:`Finding` anchors one invariant violation to a ``file:line``
location.  Findings carry a stable *fingerprint* — a content hash of the
rule id, the (repo-relative) path and the message — used by the baseline
machinery (:mod:`repro.analysis.baseline`) to suppress known findings
without pinning them to line numbers, which drift on every edit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Severities in increasing order of badness; exit-code policy and the
#: text reporter both rely on this ordering.
SEVERITIES = ("note", "warning", "error")

#: Every rule pack the linter ships: ``rule id → one-line summary``.
#: The CLI builds its ``--rules`` help from this table and the linter
#: asserts its registry stays in sync with it, so a new pack announces
#: itself here or fails loudly.
RULE_CODES: dict[str, str] = {
    "lock-discipline": (
        "guarded-by annotated fields are only touched under their lock"
    ),
    "determinism": (
        "unordered (set / directory) iteration never shapes an ordered "
        "output"
    ),
    "resource-safety": (
        "file handles and pools are closed on every path"
    ),
    "span-hygiene": (
        "entry points open the spans the catalogue documents"
    ),
    "async-discipline": (
        "async bodies never block the event loop or await under a sync "
        "lock"
    ),
    "lock-order": (
        "the cross-file lock-acquisition graph is acyclic (no "
        "potential deadlock)"
    ),
    "cache-invalidation": (
        "every router write path republishes the router's published "
        "state"
    ),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str = field(compare=False)
    severity: str = field(compare=False)
    message: str = field(compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """A line-number-independent identity for baseline matching."""
        body = f"{self.rule}\x1f{self.path}\x1f{self.message}"
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )


def render_text(findings: Sequence[Finding]) -> str:
    """The human report: one line per finding, sorted by location, plus
    a per-severity tally."""
    if not findings:
        return "no findings"
    lines = [finding.render() for finding in sorted(findings)]
    tally: dict[str, int] = {}
    for finding in findings:
        tally[finding.severity] = tally.get(finding.severity, 0) + 1
    summary = ", ".join(
        f"{tally[severity]} {severity}(s)"
        for severity in reversed(SEVERITIES)
        if severity in tally
    )
    lines.append(f"{len(findings)} finding(s): {summary}")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], suppressed: int = 0
) -> str:
    """The machine report (``repro lint --json``)."""
    return json.dumps(
        {
            "findings": [f.to_dict() for f in sorted(findings)],
            "count": len(findings),
            "suppressed": suppressed,
        },
        indent=2,
        sort_keys=True,
    )


def worst_severity(findings: Iterable[Finding]) -> str:
    """The highest severity present (``note`` when empty)."""
    worst = 0
    for finding in findings:
        worst = max(worst, SEVERITIES.index(finding.severity))
    return SEVERITIES[worst]
