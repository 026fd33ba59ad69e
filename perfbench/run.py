"""Front-door serving benchmark for the sharded ``repro serve`` tier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 30 --trace 0

One run builds the workload's seeded op stream, computes every
expected reply with an in-process oracle, then drives ``repro serve
SCHEME --store DIR --shards 2 --port 0`` (started from ``src/`` of the
checkout) with closed-loop traffic on one connection for ``--seconds``
seconds.  The run and the deployment are pinned to one CPU.  After each set-up and after the measured phase it
snapshots, replays a fixed tail of the stream, SIGKILLs the server's
process group, restarts it, and checks that every acknowledged write
survived.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same traffic and additionally attributes time to the layers (see
``layers.py``) and prints the per-layer table.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record with host
metadata is written under ``.perfbench_run/records/`` (or ``--record``);
``compare.py`` compares two such records.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path.cwd()

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 4
#: Kill-and-restart cycles after each set-up and after the measured
#: phase; ``recovery_s`` is the mean of all of them.  On a 2-core host
#: restart times are bimodal (samples cluster near 0.6 s and 0.85 s):
#: a run's median jumps between the modes, its mean does not.
RECOVERIES_PER_SETUP = 2
RECOVERIES_AFTER = 3
#: Slices of the measured phase; each end-to-end traffic metric is the
#: median of its per-slice values.
ROUNDS = 5
#: The op kinds whose median latency is an end-to-end metric
#: (``<kind>_p50_ms``).  Their p95 goes to the record's notes only: a
#: run slowed throughout by CPU the host takes away triples the tail
#: but moves the median by about a third, so a p95 bound would judge
#: the host, not the change.
LATENCY_KINDS = ("query", "insert", "delete", "batch")


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def git_rev(root: Path) -> str:
    """The checkout's commit from ``.git`` files, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata(root: Path) -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(root),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Any, seed: int, seconds: float, trace: bool) -> None:
        from oracle import Oracle
        from workloads import StreamGenerator
        from repro.io import dump_scheme

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench_run" / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        generator = StreamGenerator(workload, seed)
        self.seed_rows: dict[int, list] = generator.seed_rows()
        self.ops = generator.stream(
            math.ceil(seconds * workload.rate_cap) + 2 * workload.tail_requests
        )
        self.oracle = Oracle(workload)
        self.oracle.load(self.all_seed_rows())
        self.oracle.fill(self.ops)
        self.oracle.close()
        self.scheme_file = self.work / "scheme.json"
        dump_scheme(self.oracle.scheme, self.scheme_file)
        self.failed = self.oracle.intent_mismatches
        # The stream and expected replies are large and live for the
        # whole run: keep the collector from rescanning them mid-phase.
        gc.collect()
        gc.freeze()
        self.attempted = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.snapshots: dict[str, Any] = {}
        self.notes: dict[str, Any] = {}

    def all_seed_rows(self) -> list:
        return [row for tile in sorted(self.seed_rows) for row in self.seed_rows[tile]]

    # -- phases -------------------------------------------------------------------
    def server(self, store: Path, create: bool) -> Any:
        from server import Server

        return Server(
            ROOT, store, self.scheme_file if create else None, self.work / "serve.log"
        )

    def set_up(self, index: int) -> tuple[Any, float]:
        """Launch a fresh deployment and load the seed rows through the
        front door; returns it with the seconds that took."""
        server = self.server(self.work / f"store-{index}", create=True)
        started = time.perf_counter()
        server.start()
        try:
            self.load_seed(server)
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - started

    def load_seed(self, server: Any) -> None:
        from oracle import seed_request

        with server.connect() as connection:
            for tile in sorted(self.seed_rows):
                rows = self.seed_rows[tile]
                response = connection.request(seed_request(rows))
                self.attempted += 1
                expected = {
                    "ok": True,
                    "outcome": {
                        "committed": True,
                        "applied": len(rows),
                        "failed_index": None,
                        "failure": None,
                    },
                }
                if response != expected:
                    self.failed += 1

    def execute(self) -> None:
        from client import mismatches, run_stream
        from oracle import expected_state

        tail = self.workload.tail_requests
        setups: list[float] = []
        self.recoveries: list[float] = []
        server = None
        try:
            # Recovery is timed in a window after each set-up and one
            # after the measured phase, so a host slowdown during one
            # window does not set recovery_s.  Each window recovers the
            # same work: a snapshot plus one tail of the stream.  Every
            # set-up is a fresh store, so each replays the first tail.
            for index in range(SETUPS):
                if server is not None:
                    server.stop()
                    shutil.rmtree(server.store, ignore_errors=True)
                server, seconds = self.set_up(index)
                setups.append(seconds)
                self.snapshot(server)
                done = self.send_tail(server, 0)
                server = self.crash_cycles(server, RECOVERIES_PER_SETUP, done)
            self.metrics["setup_s"] = (statistics.median(setups), "s")
            self.notes["setup_samples"] = setups

            if self.trace:
                self.snapshots["before"] = self.inspect(server)
            measured = self.ops[done:len(self.ops) - tail]
            result, elapsed = run_stream(server.port, measured, self.seconds)
            if self.trace:
                self.snapshots["after"] = self.inspect(server)
            self.result = result
            self.attempted += result.executed
            self.failed += mismatches(measured, result)
            self.notes["exhausted"] = result.exhausted
            self.record_latencies(measured, result, elapsed)
            done += result.executed

            # Measure the store right after the snapshot (which compacts
            # every shard's WAL): a fixed point, whatever the run length.
            self.snapshot(server)
            live = expected_state(self.all_seed_rows(), self.ops[:done])
            self.metrics["store_bytes_per_row"] = (
                server.store_bytes() / sum(map(len, live.values())),
                "B/row",
            )
            done = self.send_tail(server, done)
            self.metrics["rss_mb"] = (server.peak_rss_mb(), "MB")
            server = self.crash_cycles(
                server, RECOVERIES_AFTER, done, trace=self.trace
            )
            self.metrics["recovery_s"] = (statistics.fmean(self.recoveries), "s")
            self.notes["recovery_samples"] = self.recoveries
        finally:
            if server is not None:
                server.stop()

    def snapshot(self, server: Any) -> None:
        """Snapshot every shard, which compacts its WAL."""
        with server.connect() as connection:
            self.attempted += 1
            if connection.request({"op": "snapshot"}) != {"ok": True}:
                self.failed += 1

    def send_tail(self, server: Any, done: int) -> int:
        """Send the next ``tail_requests`` of the stream (from offset
        ``done``); returns the new offset."""
        from client import mismatches, run_stream

        tail = self.ops[done:done + self.workload.tail_requests]
        result, _ = run_stream(server.port, tail, None)
        self.attempted += result.executed
        self.failed += mismatches(tail, result)
        return done + result.executed

    def crash_cycles(
        self, server: Any, cycles: int, done: int, trace: bool = False
    ) -> Any:
        """SIGKILL the deployment and restart it ``cycles`` times, timing
        each restart to its first answered ping.  After the first, the
        served state must hold every acknowledged write and no
        acknowledged delete."""
        from oracle import expected_state, state_difference

        expected = expected_state(self.all_seed_rows(), self.ops[:done])
        for cycle in range(cycles):
            server.kill()
            server = self.server(server.store, create=False)
            started = time.perf_counter()
            server.start()
            with server.connect() as connection:
                self.attempted += 1
                if connection.request({"op": "ping"}).get("ok") is not True:
                    self.failed += 1
                self.recoveries.append(time.perf_counter() - started)
                if cycle == 0:
                    self.attempted += 1
                    served = connection.request({"op": "state"})
                    if served.get("ok") is not True:
                        self.failed += 1
                    else:
                        lost = state_difference(expected, served["state"])
                        self.notes["durability_violations"] = (
                            self.notes.get("durability_violations", 0) + lost
                        )
                        self.failed += lost
                    if trace:
                        self.snapshots["recovered"] = self.inspect(server)
        return server

    def record_latencies(self, ops: list, result: Any, elapsed: float) -> None:
        """Throughput and per-kind latency percentiles, each the median
        over ``ROUNDS`` equal slices of the measured phase, so one slice
        slowed by the host does not set the run's figure."""
        rounds: list[dict[str, list[float]]] = [{} for _ in range(ROUNDS)]
        # Closed loop: each request starts when the previous one ends,
        # so summed latency is the clock.
        slice_seconds = sum(result.latencies) / ROUNDS
        clock = 0.0
        for op, latency in zip(ops, result.latencies):
            index = min(int(clock / slice_seconds), ROUNDS - 1)
            rounds[index].setdefault(op.kind, []).append(latency * 1000.0)
            clock += latency
        completed = [sum(map(len, kinds.values())) for kinds in rounds]
        self.metrics["throughput_ops_s"] = (
            statistics.median(count * ROUNDS / elapsed for count in completed),
            "ops/s",
        )
        self.notes["samples"] = [
            {kind: len(values) for kind, values in sorted(kinds.items())}
            for kinds in rounds
        ]
        self.notes["p95_ms"] = {}
        for kind in LATENCY_KINDS:
            if not all(kinds.get(kind) for kinds in rounds):
                raise RuntimeError(
                    f"{self.workload.name}: a round completed no {kind} "
                    "request; every round must sample every op kind"
                )
            p50, p95 = (
                statistics.median(
                    percentile(kinds[kind], fraction) for kinds in rounds
                )
                for fraction in (0.50, 0.95)
            )
            self.metrics[f"{kind}_p50_ms"] = (p50, "ms")
            self.notes["p95_ms"][kind] = p95

    def inspect(self, server: Any) -> dict[str, Any]:
        """The server's own ``stats`` and ``metrics`` reports."""
        with server.connect() as connection:
            stats = connection.request({"op": "stats"})
            metrics = connection.request({"op": "metrics"})
        return {"stats": stats["stats"], "metrics": metrics["metrics"]}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", help="where to write the run record (JSON)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a repro checkout "
            "(src/repro/__init__.py not found)",
            file=sys.stderr,
        )
        return 2
    # Run this process and every process it starts (children inherit
    # the affinity) on one CPU, so each hop of a request is a context
    # switch on that CPU.  On a shared 2-vCPU host, hops across vCPUs
    # wait for the hypervisor to wake the other vCPU: unpinned,
    # write_churn ran at 400-450 ops/s with 13% steal, pinned at
    # 870-890 ops/s with 4%, alternating runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CONNECTIONS, FSYNC_EVERY, SHARDS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
        metrics = dict(run.metrics)
        if args.trace:
            from layers import attribute_layers, print_table

            layer_metrics = attribute_layers(run)
            print_table(layer_metrics)
            metrics = layer_metrics
    finally:
        run.close()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(ROOT),
        "shards": SHARDS,
        "connections": CONNECTIONS,
        "flush_policy": f"fsync_every={FSYNC_EVERY}",
        "workload_spec": workload.describe(),
        "notes": run.notes,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    record_path = Path(args.record) if args.record else (
        ROOT / ".perfbench_run" / "records"
        / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
