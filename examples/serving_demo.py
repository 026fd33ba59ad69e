"""The durable serving layer, end to end.

Creates a WAL-backed store for Example 1's university scheme, serves
concurrent sessions through a one-shard ShardRouter, simulates a crash that
tears the WAL mid-append, and shows recovery landing on the intact
prefix of the accepted updates — with the rejection diagnostics
preserved durably along the way.

Run with ``python examples/serving_demo.py`` (no arguments).
"""

import shutil
import tempfile
import threading
from pathlib import Path

from repro.service import DurableStore, scan_wal, segment_paths
from repro.shard import ShardRouter
from repro.workloads.paper import example1_university


def banner(title):
    print()
    print(f"=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    scheme = example1_university()
    root = Path(tempfile.mkdtemp(prefix="repro-serving-demo-"))
    store_dir = root / "university"
    try:
        banner("create a durable store")
        # shards=None lays out a plain DurableStore, served in place as
        # the router's one shard.
        server = ShardRouter.create(store_dir, scheme, None, fsync_every=8)
        print(f"store directory: {store_dir}")
        print(f"scheme in class: {server.partition.accepted}")

        banner("concurrent sessions: 3 writers, 1 reader")

        def registrar(name, courses):
            session = server.session(name)
            for index in courses:
                session.insert(
                    "R4",
                    {"C": f"CS{index}", "S": f"student{index}", "G": "A"},
                )

        writers = [
            threading.Thread(
                target=registrar,
                args=(f"registrar-{w}", range(w * 10, w * 10 + 10)),
            )
            for w in range(3)
        ]
        for thread in writers:
            thread.start()
        reader = server.session("auditor")
        for thread in writers:
            thread.join()
        print(f"sessions: {', '.join(server.session_names())}")
        print(f"enrolled pairs visible to the auditor: "
              f"{len(reader.query('CS'))}")

        banner("a rejected insert leaves a durable diagnostic")
        conflict = reader.insert(
            "R4", {"C": "CS0", "S": "student0", "G": "F"}
        )
        print(f"accepted? {conflict.consistent} "
              f"(examined {conflict.tuples_examined} stored tuples)")
        rejects = [
            record
            for record in scan_wal(store_dir / "wal").records
            if record.op == "reject"
        ]
        print(f"reject records in the WAL: {len(rejects)}")
        print(f"diagnostic: {rejects[-1].extra['outcome']}")

        banner("metrics")
        for name, value in sorted(server.metrics_snapshot().items()):
            print(f"  {name} = {value}")

        banner("traced run: per-stage latency histograms")
        # Every router operation ran under the router's tracer, and the
        # one shard records into it, so the engine/store/WAL spans are
        # already binned into bounded latency
        # histograms; stats() summarises them with percentiles and the
        # same data renders as a Prometheus exposition document.
        stats = server.stats()
        for span_name, summary in sorted(stats["spans"].items()):
            print(
                f"  {span_name:<16} count={int(summary['count']):>3} "
                f"p50={summary['p50'] * 1e3:8.3f}ms "
                f"p95={summary['p95'] * 1e3:8.3f}ms "
                f"p99={summary['p99'] * 1e3:8.3f}ms"
            )
        print("  span counters:")
        for name, value in sorted(stats["span_counters"].items()):
            print(f"    {name} = {value:g}")
        exposition = server.prometheus()
        print(f"  prometheus exposition: {len(exposition.splitlines())} "
              "lines (first histogram series follows)")
        for line in exposition.splitlines():
            if line.startswith("# TYPE") and line.endswith("histogram"):
                print(f"    {line}")
                break
        server.close()

        banner("simulate a crash mid-append")
        active = segment_paths(store_dir / "wal")[-1]
        with open(active, "ab") as handle:
            handle.write(b'{"seq": 999, "op": "insert", "relation"')
        print("appended a torn half-record to the active WAL segment")

        banner("recover")
        with DurableStore.open(store_dir) as recovered:
            print(recovered.recovery.describe())
            print(f"tuples after recovery: {recovered.state.total_tuples()}")
            assert recovered.state.total_tuples() == 30
            assert {"C": "CS0", "S": "student0", "G": "F"} not in (
                recovered.state["R4"]
            )
            print("the rejected tuple did not reappear — diagnostics only")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
