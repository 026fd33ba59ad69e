"""Benchmark metadata honesty.

``BENCH_perf.json`` must never imply parallelism the host cannot
deliver: requesting more workers than CPUs records the cap explicitly
(``effective_workers``, ``workers_capped``) and warns on stderr.
"""

import repro.bench as bench


class TestWorkersCapped:
    def test_request_within_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
        metadata = bench.run_metadata(4)
        assert metadata["workers"] == 4
        assert metadata["cpu_count"] == 8
        assert metadata["effective_workers"] == 4
        assert metadata["workers_capped"] is False

    def test_request_beyond_cpu_budget_is_capped(self, monkeypatch):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        metadata = bench.run_metadata(16)
        assert metadata["effective_workers"] == 2
        assert metadata["workers_capped"] is True

    def test_unknown_cpu_count_treated_as_one(self, monkeypatch):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
        metadata = bench.run_metadata(4)
        assert metadata["cpu_count"] == 1
        assert metadata["effective_workers"] == 1
        assert metadata["workers_capped"] is True


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
            {"second": {"seconds": 2.0, "seed": 7}},
            path,
            metadata=bench.run_metadata(2),
        )
        first, second = (report["scenarios"][n] for n in ("first", "second"))
        assert first["cpu_count"] == 1
        assert second["cpu_count"] == 4
        assert second["workers"] == 2
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

