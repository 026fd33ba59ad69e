"""Compare two sets of benchmark run records of one workload.

Usage, from the root of a checkout::

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Records are the JSON files ``run.py`` writes under
``.perfbench_run/records/``.  Every record carries its host metadata;
the comparison refuses (exit 2) when the records disagree on
``cpu_count``, workload, shards, flush policy or trace mode, because such numbers do not measure the same thing.  Otherwise
it prints each metric's median on both sides, the change, and the
metric's bound from ``BENCHMARK.json``; it exits 1 when a bounded
metric got worse by more than its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

#: Record fields that must agree across every compared record.
SAME = ("workload", "shards", "flush_policy", "trace")


def load(paths: list[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(path).read_text()) for path in paths]


def refusal(records: list[dict[str, Any]]) -> str:
    """Why these records cannot be compared, or ``""``."""
    cpus = {record["host"]["cpu_count"] for record in records}
    if len(cpus) > 1:
        return f"records were taken at different cpu_count: {sorted(cpus)}"
    for field in SAME:
        seen = {json.dumps(record.get(field)) for record in records}
        if len(seen) > 1:
            return f"records disagree on {field}: {sorted(seen)}"
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reason = refusal(base + new)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {
        metric["name"]: (metric["bound"], metric["better"])
        for metric in spec["end_to_end"]
    }
    worse = 0
    print(f"{'metric':24s} {'base':>12s} {'new':>12s} {'change':>8s}  bound")
    for name in sorted(base[0]["metrics"]):
        before = statistics.median(r["metrics"][name]["value"] for r in base)
        after = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (after - before) / before if before else 0.0
        bound, better = bounds.get(name, (None, "lower"))
        verdict = ""
        if bound is not None:
            regression = change if better == "lower" else -change
            if regression > bound:
                verdict = "WORSE"
                worse += 1
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(
            f"{name:24s} {before:12.4f} {after:12.4f} {change:+8.1%}  "
            f"{bound_text} {verdict}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
