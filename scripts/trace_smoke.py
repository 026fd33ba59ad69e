#!/usr/bin/env python
"""End-to-end smoke check of the tracing surfaces (``make trace-smoke``).

Drives a real traced workload through the CLI — a durable store fed by
``repro insert --trace``, interrogated by ``repro stats`` in JSON and
Prometheus form, and ``repro serve`` sessions (one inline shard and
``--shards 2``) issuing the ``prometheus`` protocol command — then
asserts every surface produces output that *parses*:

* the slow-op log is JSONL with the documented record shape;
* ``repro stats --json`` reports span histograms with percentiles;
* every Prometheus document survives the strict exposition parser;
* at one shard as at two, each ``serve`` op is counted once under its
  shard's label and no ``repro_span_*`` histogram family appears twice.

Exits non-zero (with a message) on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.io import dump_scheme  # noqa: E402
from repro.obs.exposition import parse_exposition  # noqa: E402
from repro.workloads.paper import example1_university  # noqa: E402


def run_cli(*args: str, stdin: str | None = None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} exited {result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return result.stdout


def serve_exposition(serve_out: str) -> dict:
    """The parsed ``prometheus`` document from a ``serve`` session that
    ran one insert and one query, checked for shard-labeled op counts
    and for span histogram families reported twice."""
    text = serve_out[serve_out.index("# TYPE"):]
    families = [
        line.split()[2]
        for line in text.splitlines()
        if line.startswith("# TYPE repro_span_")
    ]
    twice = sorted({name for name in families if families.count(name) > 1})
    assert not twice, f"span histogram families reported twice: {twice}"
    series = parse_exposition(text)
    for op in ("insert", "query"):
        labelled = [
            value
            for name, value in series.items()
            if name.startswith(f'repro_ops_{op}_total{{shard="')
        ]
        assert sum(labelled) == 1, (op, labelled)
    return series


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as tmp:
        tmp_path = Path(tmp)
        scheme_path = tmp_path / "scheme.json"
        dump_scheme(example1_university(), scheme_path)
        store_dir = tmp_path / "store"
        slow_log = tmp_path / "slow.jsonl"

        # 1. A traced insert must leave a well-formed slow-op log.
        run_cli(
            "insert",
            str(scheme_path),
            "--store",
            str(store_dir),
            "--relation",
            "R4",
            "--values",
            "C=CS445,S=sue,G=A",
            "--trace",
            str(slow_log),
        )
        records = [
            json.loads(line)
            for line in slow_log.read_text().splitlines()
        ]
        assert records, "traced insert wrote no slow-op records"
        for record in records:
            assert set(record) == {"ts", "span", "seconds", "counters"}, (
                f"bad slow-op record shape: {record}"
            )
        spans_logged = {record["span"] for record in records}
        assert "engine.insert" in spans_logged, spans_logged
        assert "wal.append" in spans_logged, spans_logged
        print(f"slow-op log OK ({len(records)} records)")

        # 2. `repro stats --json` must report percentile histograms for
        #    the store workload (recovery + queries).
        stats = json.loads(
            run_cli(
                "stats", "--store", str(store_dir), "--target", "CS", "--json"
            )
        )
        for span_name in ("store.recovery", "store.query", "engine.query"):
            summary = stats["spans"].get(span_name)
            assert summary, f"span {span_name!r} missing from stats"
            for key in ("count", "p50", "p95", "p99", "min", "max"):
                assert key in summary, f"{span_name}: no {key}"
        assert stats["counters"]["store.recovery.replayed"] == 1
        print(f"repro stats --json OK ({len(stats['spans'])} spans)")

        # 3. The Prometheus rendering of the same workload must parse.
        series = parse_exposition(
            run_cli(
                "stats",
                "--store",
                str(store_dir),
                "--target",
                "CS",
                "--prometheus",
            )
        )
        assert series["repro_span_store_query_seconds_count"] >= 1
        assert (
            'repro_span_store_query_seconds_bucket{le="+Inf"}' in series
        ), sorted(series)[:10]
        print(f"repro stats --prometheus OK ({len(series)} series)")

        # 4. The serve protocol's `prometheus` command must emit a
        #    parseable document too (stdin mode: no command echo), at
        #    one shard (in the router's process) and at two (worker
        #    processes); shard series carry a shard label either way.
        serve_stdin = (
            "insert R4 C=CS101,S=bob,G=B\n"
            "query CSG\n"
            "prometheus\n"
            "exit\n"
        )
        series = serve_exposition(
            run_cli("serve", str(scheme_path), stdin=serve_stdin)
        )
        assert series["repro_span_engine_insert_seconds_count"] == 1
        assert series["repro_ops_query_total"] == 1
        print(f"serve prometheus OK ({len(series)} series)")

        series = serve_exposition(
            run_cli(
                "serve", str(scheme_path), "--shards", "2", stdin=serve_stdin
            )
        )
        print(f"serve --shards 2 prometheus OK ({len(series)} series)")

    print("trace smoke: all surfaces parse")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
