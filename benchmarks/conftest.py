"""Shared benchmark helpers.

Each benchmark module regenerates one experiment from DESIGN.md's
per-experiment index.  Benchmarks both *measure* (via pytest-benchmark)
and *assert the paper's claim shape* (flat-vs-growing probe counts,
acceptance rates, agreement with baselines), so a green
``pytest benchmarks/ --benchmark-only`` run is itself a reproduction
check.  Measured series are also appended to ``benchmarks/results.txt``
for EXPERIMENTS.md.

A lightweight timing harness also records each benchmark test's
wall-clock seconds and merges them into ``BENCH_perf.json`` at the
repository root (under ``"tests"``), alongside the headline
optimized-vs-naive scenarios written by ``repro.bench`` (under
``"scenarios"`` — see ``make bench``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

RESULTS_PATH = Path(__file__).parent / "results.txt"
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

_durations: dict[str, float] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Record every benchmark test's call-phase wall clock."""
    start = time.perf_counter()
    yield
    _durations[item.nodeid] = time.perf_counter() - start


def merge_test_timings(
    report: dict, durations: dict[str, float], root: Path
) -> dict:
    """Merge per-test seconds into ``report["tests"]``, dropping the
    timings of node ids whose file no longer exists under ``root`` (a
    deleted benchmark's numbers would otherwise stay forever).  Every
    other key of ``report`` is left as it is."""
    tests = report.setdefault("tests", {})
    for nodeid in [n for n in tests if not (root / n.split("::")[0]).exists()]:
        del tests[nodeid]
    for nodeid, seconds in durations.items():
        tests[nodeid] = round(seconds, 6)
    return report


def pytest_sessionfinish(session, exitstatus):
    """Merge the per-test timings into BENCH_perf.json, preserving the
    scenario records other writers put there."""
    if not _durations:
        return
    report: dict = {}
    if BENCH_JSON_PATH.exists():
        try:
            report = json.loads(BENCH_JSON_PATH.read_text())
        except (OSError, ValueError):
            report = {}
    merge_test_timings(report, _durations, BENCH_JSON_PATH.parent)
    BENCH_JSON_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def record_series(experiment: str, label: str, series) -> None:
    """Append a measured series to the results file (idempotent per
    process: the file is truncated once per run)."""
    flag = f"_repro_results_truncated_{os.getpid()}"
    if not getattr(record_series, flag, False):
        RESULTS_PATH.write_text("")
        setattr(record_series, flag, True)
    with RESULTS_PATH.open("a") as handle:
        handle.write(f"{experiment:6s} {label}: {series}\n")


@pytest.fixture
def record():
    return record_series
