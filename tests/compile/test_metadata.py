"""Benchmark metadata honesty and the ``--no-compile`` escape hatch.

``BENCH_perf.json`` must never imply parallelism the host cannot
deliver: requesting more workers than CPUs records the cap explicitly
(``effective_workers``, ``workers_capped``) and warns on stderr.
"""

import pytest

import repro.bench as bench
from repro.cli import main
from repro.io import dump_scheme, dump_state
from repro.state.database_state import DatabaseState, tuples_from_rows
from repro.workloads.paper import example4_split_scheme


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


@pytest.fixture
def e04_files(tmp_path):
    scheme = example4_split_scheme()
    scheme_path = tmp_path / "scheme.json"
    dump_scheme(scheme, scheme_path)
    state = DatabaseState(
        scheme,
        {
            "R1": tuples_from_rows("AB", [("a", "b")]),
            "R2": tuples_from_rows("AC", [("a", "c")]),
            "R4": tuples_from_rows("EB", [("e", "b")]),
            "R5": tuples_from_rows("EC", [("e", "c")]),
        },
    )
    state_path = tmp_path / "state.json"
    dump_state(state, state_path)
    return scheme_path, state_path


class TestNoCompileFlag:
    def test_query_identical_with_and_without_kernels(
        self, e04_files, capsys
    ):
        scheme_path, state_path = e04_files
        arguments = [
            "query", str(scheme_path), str(state_path), "--target", "AE"
        ]
        assert main(arguments) == 0
        compiled_out = capsys.readouterr().out
        assert main(arguments + ["--no-compile"]) == 0
        interpreted_out = capsys.readouterr().out
        assert compiled_out == interpreted_out
        assert "('a', 'e')" in compiled_out or "a" in compiled_out

    def test_insert_identical_with_and_without_kernels(
        self, e04_files, capsys, tmp_path
    ):
        scheme_path, state_path = e04_files
        verdicts = []
        for extra in ([], ["--no-compile"]):
            code = main(
                [
                    "insert", str(scheme_path), str(state_path),
                    "--relation", "R4", "--values", "E=e,B=b7",
                ]
                + extra
            )
            verdicts.append((code, capsys.readouterr().out))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == 2  # the key clash must be refused
