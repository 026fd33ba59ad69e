#!/usr/bin/env python
"""Alternating parent/change pairs of the front-door serving benchmark.

Exports two sides into temporary checkouts under ``.perfbench_run/``:
the base revision, and this checkout as it stands (``git stash
create``, or ``HEAD`` when the tree is clean; files git does not track
are left out, so ``git add`` new ones first).  Then it runs the change
export's ``perfbench/run.py`` ``--pairs`` times on each side,
alternating which side goes first.  Each run has the side's export as
its working directory, so it serves that side's ``src/`` while both
sides run the same benchmark code from the same kind of place: nothing
runs from the checkout itself.  Every run writes its own record into
a new directory for the set under ``.perfbench_run/pairs/records/``,
named for the workload, seed, trace, both revisions and the first free
set number, so an earlier set stays for ``perfbench/compare.py`` to
re-read.

Then it prints, per metric, the median and quartiles of each side and
the pairs the change won (ties count for neither side), runs
``perfbench/compare.py`` on the two record sets for the bound verdict,
and removes the temporary checkouts.

Usage, from the root of a checkout::

    python scripts/perf_pairs.py --base REV --workload read_hot --seed 1
        [--pairs 10] [--trace 0]

or ``make perf-pairs BASE=REV WORKLOAD=read_hot SEED=1 PAIRS=10``.
Each run lasts the benchmark's ``run_seconds`` (``BENCHMARK.json``).
Exit status: ``compare.py``'s (1 when a bounded metric got worse by
more than its bound, 2 when it refused), or 1 when a run was not
correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_run" / "pairs"


def directions(benchmark: dict[str, Any]) -> dict[str, str]:
    """Metric name → ``"lower"`` or ``"higher"`` (which is better)."""
    return {
        metric["name"]: metric["better"]
        for section in ("end_to_end", "per_layer")
        for metric in benchmark.get(section, [])
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q1, median, q3)


def summarize(
    base: list[dict[str, Any]],
    new: list[dict[str, Any]],
    better: dict[str, str],
) -> list[dict[str, Any]]:
    """One row per metric the records share: each side's quartiles, the
    pairs the change won and lost, and whether the medians lie further
    apart than the base's quartile spread (``clear``).  ``base[i]`` and
    ``new[i]`` are pair ``i``."""
    names = sorted(
        set.intersection(*(set(record["metrics"]) for record in base + new))
    )
    rows = []
    for name in names:
        before = [record["metrics"][name]["value"] for record in base]
        after = [record["metrics"][name]["value"] for record in new]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        losses = sum(sign * (b - a) < 0 for a, b in zip(before, after))
        base_q, new_q = quartiles(before), quartiles(after)
        rows.append(
            {
                "metric": name,
                "better": better.get(name, "lower"),
                "base": base_q,
                "new": new_q,
                "wins": wins,
                "losses": losses,
                "pairs": len(before),
                "clear": abs(new_q[1] - base_q[1]) > base_q[2] - base_q[0],
            }
        )
    return rows


def format_rows(rows: list[dict[str, Any]]) -> list[str]:
    lines = [
        f"{'metric':28s} {'base median [q1, q3]':>30s} "
        f"{'new median [q1, q3]':>30s} {'change':>8s}  won  gap>IQR"
    ]
    for row in rows:
        b1, b2, b3 = row["base"]
        n1, n2, n3 = row["new"]
        change = (n2 - b2) / b2 if b2 else 0.0
        lines.append(
            f"{row['metric']:28s} "
            f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>30s} "
            f"{f'{n2:.4g} [{n1:.4g}, {n3:.4g}]':>30s} "
            f"{change:+8.1%}  {row['wins']}/{row['pairs']}"
            f"  {'yes' if row['clear'] else 'no'}"
        )
    return lines


def git(root: Path, *args: str) -> str:
    """The stripped standard output of one git command in ``root``."""
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def change_revision(root: Path = ROOT) -> str:
    """A commit holding the tracked files of ``root`` as they stand:
    ``git stash create`` (index and working tree; it leaves both
    alone), or ``HEAD`` when there is nothing to stash."""
    return git(root, "stash", "create") or git(root, "rev-parse", "HEAD")


def export(rev: str, dest: Path, root: Path = ROOT) -> None:
    """Write the tree of ``rev`` into ``dest`` (``git archive``)."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev],
        cwd=root,
        stdout=subprocess.PIPE,
    )
    try:
        subprocess.run(
            ["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True
        )
    finally:
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"git archive {rev} failed")


def set_directory(
    records: Path, args: argparse.Namespace, base_rev: str, new_rev: str
) -> Path:
    """A new, empty directory for one set of pairs:
    ``{workload}-seed{seed}-trace{trace}-{base}-{new}-set{n}``, with
    both revisions' 12-character prefixes and the first free ``n``."""
    stem = (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"-{base_rev[:12]}-{new_rev[:12]}-set"
    )
    number = 1
    while True:
        directory = records / f"{stem}{number}"
        try:
            directory.mkdir(parents=True)
        except FileExistsError:
            number += 1
            continue
        return directory


def run_once(
    bench: Path,
    checkout: Path,
    args: argparse.Namespace,
    seconds: float,
    record: Path,
) -> dict[str, Any]:
    """One run of the benchmark in ``bench`` against ``checkout``; its
    record."""
    log = record.with_suffix(".log")
    with open(log, "w") as handle:
        code = subprocess.run(
            [
                sys.executable,
                str(bench / "perfbench" / "run.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(seconds),
                "--trace", str(args.trace),
                "--record", str(record),
            ],
            cwd=checkout,
            stdout=handle,
            stderr=subprocess.STDOUT,
        ).returncode
    if code:
        raise SystemExit(f"run failed (exit {code}); see {log}")
    return json.loads(record.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    rev = git(ROOT, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    new_rev = change_revision()
    sides = {
        "base": WORK / f"base-{rev[:12]}",
        "new": WORK / f"new-{new_rev[:12]}",
    }
    records = set_directory(WORK / "records", args, rev, new_rev)
    runs: dict[str, list[dict[str, Any]]] = {"base": [], "new": []}
    paths: dict[str, list[str]] = {"base": [], "new": []}
    try:
        for side, side_rev in (("base", rev), ("new", new_rev)):
            shutil.rmtree(sides[side], ignore_errors=True)
            export(side_rev, sides[side])
        for pair in range(args.pairs):
            order = ("base", "new") if pair % 2 == 0 else ("new", "base")
            for side in order:
                record = records / f"{side}-{pair + 1}.json"
                result = run_once(
                    sides["new"], sides[side], args, seconds, record
                )
                runs[side].append(result)
                paths[side].append(str(record))
                print(
                    f"pair {pair + 1}/{args.pairs} {side:4s} "
                    f"correct={result['correct']} failed={result['failed']} "
                    f"-> {record.relative_to(ROOT)}",
                    flush=True,
                )
    finally:
        for checkout in sides.values():
            shutil.rmtree(checkout, ignore_errors=True)
    print(
        f"\n{args.workload} seed {args.seed}: {rev[:12]} vs this checkout "
        f"({new_rev[:12]})"
    )
    rows = summarize(runs["base"], runs["new"], directions(benchmark))
    for line in format_rows(rows):
        print(line)
    print(flush=True)
    verdict = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "compare.py"),
            "--base", *paths["base"],
            "--new", *paths["new"],
        ],
        cwd=ROOT,
    ).returncode
    correct = all(
        result["correct"] and not result["failed"]
        for result in runs["base"] + runs["new"]
    )
    if not correct:
        print("some runs were not correct", file=sys.stderr)
        return 1
    return verdict


if __name__ == "__main__":
    sys.exit(main())
