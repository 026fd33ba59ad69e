#!/usr/bin/env python
"""Guard against performance regressions in the tracked scenarios.

Re-runs the headline benchmark scenarios and compares each *speedup*
ratio against the committed ``BENCH_perf.json`` baseline.  Ratios —
optimized-vs-naive within one process on one machine — are what the
repository actually promises (the 2x bars in ROADMAP.md), and unlike
wall-clock seconds they transfer across host speeds, so a slower CI
runner does not trip the gate.

A scenario regresses when its fresh speedup falls below
``baseline_speedup * (1 - TOLERANCE)`` with ``TOLERANCE = 0.25``: a
scenario that shipped at 4.0x may wobble down to 3.0x with scheduler
noise, but not further.  Scenarios present in the baseline and missing
from the fresh run (or vice versa) are reported but only the tracked
intersection gates.  Beside each ratio the report prints both timed
sides at baseline and fresh (``naive_seconds``/``optimized_seconds``,
``cold_open_seconds``/``promote_seconds``) wherever the records carry
them, so a ratio that fell because its slow side got faster reads
differently from one whose fast side got slower; the verdict reads the
ratio alone.

Each record carries its host's facts (``cpu_count``, ``python``,
``seed``, ``git_rev``; see ``repro.bench.write_report``).  Two speedup
records of one scenario that both carry ``cpu_count`` and disagree on
it are refused rather than compared; records without the field compare
as before.  Exact-match invariants (``single_block_query_rpcs``: a warm
single-block query calls no shard, since the router answers it from
its published state) are checked whatever the CPU count.

Usage::

    PYTHONPATH=src python scripts/bench_compare.py [--repeats N]
        [--baseline PATH]

Exit status 1 on any regression, 2 when a comparison was refused —
wired to ``make bench-compare`` and the ``bench-compare`` CI job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for the benchmarks package

TOLERANCE = 0.25

#: The two timed sides a speedup record may carry, slow side first.
SIDES = (
    ("naive_seconds", "optimized_seconds"),
    ("cold_open_seconds", "promote_seconds"),
)


def load_records(path: Path) -> dict[str, dict]:
    """Scenario name → committed record."""
    return dict(json.loads(path.read_text()).get("scenarios", {}))


def fresh_records(repeats: int) -> dict[str, dict]:
    """Re-run the tracked scenarios, each record stamped with this
    host's facts exactly as ``repro.bench.write_report`` stamps them."""
    from repro.bench import (
        host_metadata,
        run_parallel_scenarios,
        run_read_scenarios,
        run_replica_scenarios,
        run_scenarios,
        run_shard_scenarios,
    )

    scenarios = dict(run_scenarios(repeats=repeats))
    scenarios.update(run_parallel_scenarios(repeats=repeats))
    # The sharded tier's 4-shard-vs-1-shard ratio (its own best-of is
    # baked into run_shard_scenarios; the s8 point is informational).
    scenarios.update(run_shard_scenarios(shard_counts=(1, 4)))
    # Failover: promote-a-follower vs cold recovery (the lag scenario
    # it also returns carries no speedup and is informational).
    scenarios.update(run_replica_scenarios())
    # The read path: cached-vs-uncached ratio plus the routing
    # invariant (a warm single-block query costs no RPC).
    scenarios.update(run_read_scenarios())
    host = host_metadata()
    return {name: {**host, **record} for name, record in scenarios.items()}


def refusal(baseline: dict, fresh: dict) -> str | None:
    """Why two records of one scenario must not be compared, or
    ``None``.  Records that both name their host's CPU count and
    disagree on it timed different machines: a parallel or multi-
    process ratio taken on one CPU says nothing about four.  Records
    without the field (older baselines) compare as before."""
    if "cpu_count" in baseline and "cpu_count" in fresh:
        if baseline["cpu_count"] != fresh["cpu_count"]:
            return (
                f"cpu_count differs (baseline {baseline['cpu_count']}, "
                f"fresh {fresh['cpu_count']})"
            )
    return None


def sides(baseline: dict, fresh: dict) -> str:
    """Both sides' seconds at baseline and fresh, e.g. ``naive_seconds
    0.015818 -> 0.003800  optimized_seconds 0.003617 -> 0.002600``, for
    every side either record carries (``n/a`` where one lacks it);
    empty when neither carries any."""

    def seconds(record: dict, key: str) -> str:
        return f"{record[key]:.6f}" if key in record else "n/a"

    return "  ".join(
        f"{key} {seconds(baseline, key)} -> {seconds(fresh, key)}"
        for pair in SIDES
        if any(key in baseline or key in fresh for key in pair)
        for key in pair
    )


def compare(
    baseline: dict[str, dict], fresh: dict[str, dict]
) -> tuple[list[str], list[str], list[str]]:
    """Gate fresh records against the baseline: ``(report lines,
    regressed scenarios, refused scenarios)``."""
    lines: list[str] = []
    regressions: list[str] = []
    refused: list[str] = []
    tracked = sorted(name for name in baseline if "speedup" in baseline[name])
    names = set(tracked) | {n for n in fresh if "speedup" in fresh[n]}
    width = max((len(name) for name in names), default=0)
    for name in tracked:
        base = baseline[name]["speedup"]
        if name not in fresh or "speedup" not in fresh[name]:
            lines.append(
                f"{name:{width}}  baseline {base:6.2f}x  "
                "(not in fresh run — skipped)"
            )
            continue
        reason = refusal(baseline[name], fresh[name])
        if reason is not None:
            lines.append(f"{name:{width}}  REFUSED: {reason}")
            refused.append(name)
            continue
        got = fresh[name]["speedup"]
        floor = base * (1 - TOLERANCE)
        verdict = "ok" if got >= floor else "REGRESSED"
        lines.append(
            f"{name:{width}}  baseline {base:6.2f}x  "
            f"fresh {got:6.2f}x  floor {floor:6.2f}x  {verdict}"
        )
        timed = sides(baseline[name], fresh[name])
        if timed:
            lines.append(f"{'':{width}}    {timed}")
        if got < floor:
            regressions.append(name)
    for name in sorted(names - set(tracked)):
        lines.append(
            f"{name:{width}}  fresh {fresh[name]['speedup']:6.2f}x  "
            "(new — no baseline)"
        )

    # Exact-match invariants: RPC counts are promises, not timings, so
    # there is no tolerance — fresh must equal the committed value —
    # and no CPU count can excuse a difference.
    for name in sorted(baseline):
        if "single_block_query_rpcs" not in baseline[name]:
            continue
        if "single_block_query_rpcs" not in fresh.get(name, {}):
            continue
        expected = baseline[name]["single_block_query_rpcs"]
        got = fresh[name]["single_block_query_rpcs"]
        verdict = "ok" if got == expected else "REGRESSED"
        lines.append(
            f"{name}  single_block_query_rpcs baseline {expected}  "
            f"fresh {got}  {verdict}"
        )
        if got != expected:
            regressions.append(f"{name}:single_block_query_rpcs")
    return lines, regressions, refused


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh benchmark speedups against the "
        "committed BENCH_perf.json baseline"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=10,
        help="best-of repeats per scenario (default 10)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="baseline report (default: the committed BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    baseline = load_records(args.baseline)
    tracked = [name for name in baseline if "speedup" in baseline[name]]
    if not tracked:
        print(f"no speedup-tracked scenarios in {args.baseline}")
        return 1
    lines, regressions, refused = compare(baseline, fresh_records(args.repeats))
    print("\n".join(lines))
    if regressions:
        print(
            f"FAIL: {len(regressions)} scenario(s) regressed more than "
            f"{int(TOLERANCE * 100)}% vs baseline: {', '.join(regressions)}"
        )
        return 1
    if refused:
        print(
            f"REFUSED: {len(refused)} scenario(s) were recorded at a "
            f"different cpu_count: {', '.join(refused)}; re-record the "
            "baseline on a host of this shape"
        )
        return 2
    print(f"all {len(tracked)} tracked scenario(s) within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
