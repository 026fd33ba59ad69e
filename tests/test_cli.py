"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import dump_scheme, dump_state, load_scheme
from repro.service.wal import segment_paths
from repro.state.database_state import DatabaseState, tuples_from_rows
from repro.workloads.paper import (
    example1_university,
    example2_not_algebraic,
    example12_reducible,
)


@pytest.fixture
def university_files(tmp_path):
    scheme = example1_university()
    scheme_path = tmp_path / "scheme.json"
    dump_scheme(scheme, scheme_path)
    state = DatabaseState(
        scheme,
        {
            "R1": tuples_from_rows("HRC", [("h", "r", "c")]),
            "R4": tuples_from_rows("CSG", [("c", "s", "g")]),
        },
    )
    state_path = tmp_path / "state.json"
    dump_state(state, state_path)
    return scheme_path, state_path


class TestAnalyze:
    def test_analyze_university(self, university_files, capsys):
        scheme_path, _ = university_files
        assert main(["analyze", str(scheme_path)]) == 0
        out = capsys.readouterr().out
        assert "independence-reducible:   True" in out
        assert "constant-time-maintainable: True" in out

    def test_analyze_json(self, university_files, capsys):
        scheme_path, _ = university_files
        assert main(["analyze", str(scheme_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["independence_reducible"] is True
        assert data["ctm"] is True
        assert len(data["partition"]) == 3
        assert data["relations"]["R1"]["keys"] == [["H", "R"]]


class TestExplain:
    def test_explain_reducible(self, tmp_path, capsys):
        scheme_path = tmp_path / "e12.json"
        dump_scheme(example12_reducible(), scheme_path)
        assert main(["explain", str(scheme_path), "--target", "ACG"]) == 0
        out = capsys.readouterr().out
        assert "π_ACG" in out


class TestCheck:
    def test_consistent_state(self, university_files, capsys):
        scheme_path, state_path = university_files
        assert main(["check", str(scheme_path), str(state_path)]) == 0
        assert "globally consistent: True" in capsys.readouterr().out

    def test_inconsistent_state(self, university_files, tmp_path, capsys):
        scheme_path, _ = university_files
        scheme = load_scheme(scheme_path)
        bad = DatabaseState(
            scheme,
            {
                "R1": tuples_from_rows(
                    "HRC", [("h", "r", "c1"), ("h", "r", "c2")]
                )
            },
        )
        bad_path = tmp_path / "bad.json"
        dump_state(bad, bad_path)
        assert main(["check", str(scheme_path), str(bad_path)]) == 2


class TestQuery:
    def test_query_outputs_rows(self, university_files, capsys):
        scheme_path, state_path = university_files
        assert (
            main(
                ["query", str(scheme_path), str(state_path), "--target", "CS"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "c\ts" in out


class TestInsert:
    def test_accepted_insert_writes_state(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, state_path = university_files
        out_path = tmp_path / "new.json"
        code = main(
            [
                "insert",
                str(scheme_path),
                str(state_path),
                "--relation",
                "R5",
                "--values",
                "H=h,S=s,R=r",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert {"H": "h", "S": "s", "R": "r"} in data["R5"]

    def test_rejected_insert(self, university_files, capsys):
        scheme_path, state_path = university_files
        code = main(
            [
                "insert",
                str(scheme_path),
                str(state_path),
                "--relation",
                "R1",
                "--values",
                "H=h,R=r,C=other",
            ]
        )
        assert code == 2
        assert "REJECTED" in capsys.readouterr().out

    def test_duplicate_attribute_is_an_argument_error(
        self, university_files, capsys
    ):
        scheme_path, state_path = university_files
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "insert",
                    str(scheme_path),
                    str(state_path),
                    "--relation",
                    "R4",
                    "--values",
                    "C=a,C=b,S=s,G=g",
                ]
            )
        assert exit_info.value.code == 2
        assert "attribute 'C' given twice" in capsys.readouterr().err


class TestKeys:
    def test_keys_listing(self, university_files, capsys):
        scheme_path, _ = university_files
        assert main(["keys", str(scheme_path)]) == 0
        out = capsys.readouterr().out
        assert "R2(HRT): keys HR, HT" in out

    def test_keys_with_derivations(self, university_files, capsys):
        scheme_path, _ = university_files
        assert main(["keys", str(scheme_path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "derivation of" in out
        assert "premise" in out


class TestPartition:
    def test_partition_accepted(self, university_files, capsys):
        scheme_path, _ = university_files
        assert main(["partition", str(scheme_path)]) == 0
        out = capsys.readouterr().out
        assert "independence-reducible" in out
        assert "R1, R2, R3" in out

    def test_partition_rejected(self, tmp_path, capsys):
        from repro.workloads.paper import example2_not_algebraic

        path = tmp_path / "e2.json"
        dump_scheme(example2_not_algebraic(), path)
        assert main(["partition", str(path)]) == 2
        assert "NOT independence-reducible" in capsys.readouterr().out


class TestSynthesize:
    def test_synthesize_to_stdout(self, capsys):
        assert main(["synthesize", "--fds", "A->B, B->C"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert "relations" in data

    def test_synthesize_bcnf(self, capsys):
        assert main(["synthesize", "--fds", "CS->Z, Z->C", "--bcnf"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        attribute_sets = sorted(
            "".join(sorted(spec["attributes"]))
            for spec in data["relations"].values()
        )
        assert attribute_sets == ["CZ", "SZ"]

    def test_synthesize_to_file(self, tmp_path):
        out_path = tmp_path / "synth.json"
        code = main(
            [
                "synthesize",
                "--fds",
                "A->B, B->C",
                "--universe",
                "ABCD",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        scheme = load_scheme(out_path)
        assert scheme.universe == frozenset("ABCD")


class TestInsertStore:
    def test_insert_creates_and_persists_store(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        store_dir = tmp_path / "store"
        code = main(
            [
                "insert",
                str(scheme_path),
                "--store",
                str(store_dir),
                "--relation",
                "R4",
                "--values",
                "C=CS445,S=sue,G=A",
            ]
        )
        assert code == 0
        assert "accepted at seq 1" in capsys.readouterr().out
        # A second invocation opens the same store and sees the state.
        code = main(
            [
                "insert",
                "--store",
                str(store_dir),
                "--relation",
                "R4",
                "--values",
                "C=CS446,S=bob,G=B",
            ]
        )
        assert code == 0
        assert "accepted at seq 2" in capsys.readouterr().out

    def test_rejected_insert_prints_diagnostic_json(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        store_dir = tmp_path / "store"
        main(
            [
                "insert",
                str(scheme_path),
                "--store",
                str(store_dir),
                "--relation",
                "R4",
                "--values",
                "C=CS445,S=sue,G=A",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "insert",
                "--store",
                str(store_dir),
                "--relation",
                "R4",
                "--values",
                "C=CS445,S=sue,G=F",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "REJECTED" in out
        payload = json.loads(out[out.index("{") : out.rindex("}") + 1])
        assert payload["consistent"] is False
        assert payload["tuples_examined"] >= 1
        assert "logged durably" in out

    def test_rejected_plain_insert_prints_diagnostic(
        self, university_files, capsys
    ):
        scheme_path, state_path = university_files
        code = main(
            [
                "insert",
                str(scheme_path),
                str(state_path),
                "--relation",
                "R1",
                "--values",
                "H=h,R=r,C=other",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert '"consistent": false' in out

    def test_insert_without_state_or_store_errors(
        self, university_files, capsys
    ):
        scheme_path, _ = university_files
        code = main(
            [
                "insert",
                str(scheme_path),
                "--relation",
                "R4",
                "--values",
                "C=c,S=s,G=g",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServe:
    def _script(self, tmp_path, text):
        path = tmp_path / "script.txt"
        path.write_text(text)
        return path

    def test_serve_script_durable_roundtrip(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        store_dir = tmp_path / "store"
        script = self._script(
            tmp_path,
            "insert R4 C=CS445,S=sue,G=A\n"
            "query CS\n"
            "session bob\n"
            "insert R4 C=CS445,S=sue,G=F\n"
            "sessions\n"
            "metrics\n"
            "snapshot\n"
            "exit\n",
        )
        code = main(
            [
                "serve",
                str(scheme_path),
                "--store",
                str(store_dir),
                "--script",
                str(script),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accepted" in out
        assert "CS445\tsue" in out
        assert "REJECTED" in out
        assert "bob, default" in out
        assert '"ops.insert": 2' in out
        assert "snapshot written" in out
        # The store survives: reopening serves the committed tuple.
        capsys.readouterr()
        code = main(["replay", "--store", str(store_dir)])
        assert code == 0
        assert "1 stored tuple" in capsys.readouterr().out

    def test_serve_in_memory(self, university_files, tmp_path, capsys):
        scheme_path, _ = university_files
        script = self._script(
            tmp_path, "insert R4 C=c,S=s,G=A\nstate\nexit\n"
        )
        code = main(
            ["serve", str(scheme_path), "--script", str(script)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "in-memory" in out
        assert '"G": "A"' in out

    def test_serve_reports_protocol_errors_and_continues(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        script = self._script(
            tmp_path,
            "bogus command\ninsert R9 A=a\nquery CS\nexit\n",
        )
        code = main(["serve", str(scheme_path), "--script", str(script)])
        assert code == 0
        out = capsys.readouterr().out
        assert "unknown command" in out
        assert "error:" in out  # R9 does not exist, loop keeps serving
        assert "C\tS" in out

    def test_serve_answers_outside_target_outside_the_class(
        self, tmp_path, capsys
    ):
        """On a non-reducible scheme a target naming an attribute
        outside the universe answers ∅ (header only), as it does on a
        reducible one, and the loop keeps serving."""
        scheme_path = tmp_path / "example2.json"
        dump_scheme(example2_not_algebraic(), scheme_path)
        script = self._script(
            tmp_path, "insert R1 A=1,B=2\nquery AZ\nquery AB\nexit\n"
        )
        code = main(["serve", str(scheme_path), "--script", str(script)])
        assert code == 0
        out = capsys.readouterr().out
        assert "> query AZ\nA\tZ\n> query AB\nA\tB\n1\t2\n" in out

    def test_serve_rejects_a_duplicate_attribute(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        script = self._script(
            tmp_path, "insert R4 C=a,C=b,S=s,G=g\nstate\nexit\n"
        )
        code = main(["serve", str(scheme_path), "--script", str(script)])
        assert code == 0
        out = capsys.readouterr().out
        assert "error: attribute 'C' given twice" in out
        assert '"R4": []' in out

    def test_serve_without_scheme_or_store_errors(self, capsys):
        assert main(["serve"]) == 1
        assert "error" in capsys.readouterr().err


class TestReplay:
    def test_replay_reports_recovery(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        store_dir = tmp_path / "store"
        for index in range(3):
            main(
                [
                    "insert",
                    str(scheme_path),
                    "--store",
                    str(store_dir),
                    "--relation",
                    "R4",
                    "--values",
                    f"C=C{index},S=S{index},G=A",
                ]
            )
        capsys.readouterr()
        out_path = tmp_path / "recovered.json"
        code = main(
            [
                "replay",
                "--store",
                str(store_dir),
                "--json",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") : out.rindex("}") + 1])
        assert payload["replayed"] == 3
        assert payload["tuples"] == 3
        recovered = json.loads(out_path.read_text())
        assert len(recovered["R4"]) == 3

    def test_replay_repairs_torn_tail(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        store_dir = tmp_path / "store"
        main(
            [
                "insert",
                str(scheme_path),
                "--store",
                str(store_dir),
                "--relation",
                "R4",
                "--values",
                "C=c,S=s,G=A",
            ]
        )
        active = segment_paths(store_dir / "wal")[-1]
        with open(active, "ab") as handle:
            handle.write(b'{"seq": 2, "op"')
        capsys.readouterr()
        assert main(["replay", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "torn tail" in out
        assert "1 stored tuple" in out

    def test_replay_missing_store_errors(self, tmp_path, capsys):
        code = main(["replay", "--store", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRecover:
    def _seed(self, university_files, store_dir, count=3):
        scheme_path, _ = university_files
        for index in range(count):
            main(
                [
                    "insert",
                    str(scheme_path),
                    "--store",
                    str(store_dir),
                    "--relation",
                    "R4",
                    "--values",
                    f"C=C{index},S=S{index},G=A",
                ]
            )

    def test_recover_as_of_reproduces_prefix(
        self, university_files, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        self._seed(university_files, store_dir)
        capsys.readouterr()
        out_path = tmp_path / "pitr.json"
        code = main(
            [
                "recover",
                "--store",
                str(store_dir),
                "--as-of",
                "2",
                "--json",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") : out.rindex("}") + 1])
        assert payload["as_of_seq"] == 2
        assert payload["last_seq"] == 2
        assert payload["tuples"] == 2
        assert payload["read_only"] is True
        state = json.loads(out_path.read_text())
        assert len(state["R4"]) == 2
        # The point-in-time open never disturbs the live store.
        capsys.readouterr()
        assert main(["replay", "--store", str(store_dir)]) == 0
        assert "3 stored tuple" in capsys.readouterr().out

    def test_recover_beyond_log_errors(
        self, university_files, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        self._seed(university_files, store_dir)
        capsys.readouterr()
        code = main(["recover", "--store", str(store_dir), "--as-of", "9"])
        assert code == 1
        assert "ends at seq 3" in capsys.readouterr().err


class TestErrors:
    def test_repro_errors_become_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"relations": {}}')
        assert main(["analyze", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_stats_table_reports_spans(self, university_files, capsys):
        scheme_path, state_path = university_files
        code = main(
            [
                "stats",
                str(scheme_path),
                str(state_path),
                "--target",
                "CS",
                "--repeat",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.query" in out
        assert "p95ms" in out

    def test_stats_json_has_percentiles(self, university_files, capsys):
        scheme_path, state_path = university_files
        code = main(
            [
                "stats",
                str(scheme_path),
                str(state_path),
                "--target",
                "CS",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        query = report["spans"]["engine.query"]
        assert query["count"] == 5  # default --repeat
        for key in ("p50", "p95", "p99", "min", "max", "sum"):
            assert key in query

    def test_stats_without_target_traces_the_chase(
        self, university_files, capsys
    ):
        scheme_path, state_path = university_files
        assert main(["stats", str(scheme_path), str(state_path)]) == 0
        out = capsys.readouterr().out
        assert "chase.relations" in out

    def test_stats_prometheus_parses(self, university_files, capsys):
        from repro.obs.exposition import parse_exposition

        scheme_path, state_path = university_files
        code = main(
            [
                "stats",
                str(scheme_path),
                str(state_path),
                "--target",
                "CS",
                "--prometheus",
            ]
        )
        assert code == 0
        series = parse_exposition(capsys.readouterr().out)
        assert series["repro_span_engine_query_seconds_count"] == 5.0

    def test_stats_store_mode_traces_recovery(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        store_dir = tmp_path / "store"
        main(
            [
                "insert",
                str(scheme_path),
                "--store",
                str(store_dir),
                "--relation",
                "R4",
                "--values",
                "C=c,S=s,G=A",
            ]
        )
        capsys.readouterr()
        code = main(
            ["stats", "--store", str(store_dir), "--target", "CS", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spans"]["store.recovery"]["count"] == 1
        assert report["counters"]["store.recovery.replayed"] == 1
        assert report["metrics"]["ops.query"] == 5

    def test_stats_without_inputs_errors(self, capsys):
        assert main(["stats"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSlowOpLog:
    def test_query_trace_writes_jsonl(self, university_files, tmp_path, capsys):
        scheme_path, state_path = university_files
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "query",
                str(scheme_path),
                str(state_path),
                "--target",
                "CS",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert records, "slow-op log is empty"
        names = {record["span"] for record in records}
        assert "engine.query" in names
        for record in records:
            assert set(record) == {"ts", "span", "seconds", "counters"}
            assert record["seconds"] >= 0.0

    def test_slow_ms_threshold_filters(self, university_files, tmp_path):
        scheme_path, state_path = university_files
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "query",
                str(scheme_path),
                str(state_path),
                "--target",
                "CS",
                "--trace",
                str(trace_path),
                "--slow-ms",
                "60000",
            ]
        )
        assert code == 0
        assert trace_path.read_text() == ""

    def test_serve_stats_and_prometheus_commands(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        script = tmp_path / "script.txt"
        script.write_text(
            "insert R4 C=c2,S=s2,G=A\nquery CS\nstats\nprometheus\nexit\n"
        )
        code = main(["serve", str(scheme_path), "--script", str(script)])
        assert code == 0
        out = capsys.readouterr().out
        assert '"spans"' in out
        assert '"engine.insert"' in out
        assert "repro_span_engine_query_seconds_count 1" in out

    def test_serve_trace_flag_logs_spans(
        self, university_files, tmp_path, capsys
    ):
        scheme_path, _ = university_files
        script = tmp_path / "script.txt"
        script.write_text("insert R4 C=c3,S=s3,G=A\nexit\n")
        trace_path = tmp_path / "serve-trace.jsonl"
        code = main(
            [
                "serve",
                str(scheme_path),
                "--script",
                str(script),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        names = {
            json.loads(line)["span"]
            for line in trace_path.read_text().splitlines()
        }
        assert "engine.insert" in names
