"""Benchmark metadata honesty.

Every ``BENCH_perf.json`` record names the host it ran on, so no ratio
is read against a machine of another shape.
"""

import repro.bench as bench


class TestPerRecordHostFacts:
    def test_every_record_names_its_host(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "_git_rev", lambda: "abc123")
        path = tmp_path / "BENCH_perf.json"
        # Two run families on hosts of different shapes merge into one
        # report; each record keeps the facts of the host it ran on.
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
        bench.write_report({"first": {"seconds": 1.0}}, path)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
        report = bench.write_report(
            {"second": {"seconds": 2.0, "seed": 7}}, path
        )
        first, second = (report["scenarios"][n] for n in ("first", "second"))
        assert first["cpu_count"] == 1
        assert second["cpu_count"] == 4
        for record in (first, second):
            assert record["git_rev"] == "abc123"
            assert record["python"]
        assert first["seed"] == bench.BENCH_SEED
        assert second["seed"] == 7  # a record's own keys win
        assert "metadata" not in report

    def test_git_rev_outside_a_work_tree(self, monkeypatch):
        def missing(*_args, **_kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(bench.subprocess, "run", missing)
        assert bench.host_metadata()["git_rev"] == "unknown"

