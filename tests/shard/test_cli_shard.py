"""CLI integration for the sharded tier: ``serve --shards``,
sharded ``stats``, ``shard-bench``, and supervised shutdown."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import dump_scheme
from repro.workloads.paper import example1_university

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def scheme_path(tmp_path):
    path = tmp_path / "scheme.json"
    dump_scheme(example1_university(), path)
    return path


def write_script(tmp_path, lines):
    script = tmp_path / "script.txt"
    script.write_text("\n".join(lines) + "\n")
    return script


class TestServeSharded:
    def test_line_protocol_through_the_router(
        self, tmp_path, scheme_path, capsys
    ):
        script = write_script(
            tmp_path,
            [
                "insert R4 C=c1,S=s1,G=A",
                "query CS",
                "state",
            ],
        )
        store = tmp_path / "store"
        code = main(
            [
                "serve",
                str(scheme_path),
                "--shards",
                "2",
                "--store",
                str(store),
                "--script",
                str(script),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "created sharded store" in out
        assert "2 shard(s)" in out
        assert "accepted" in out
        assert "c1" in out

    def test_reopen_autodetects_sharded_store(
        self, tmp_path, scheme_path, capsys
    ):
        store = tmp_path / "store"
        main(
            [
                "serve",
                str(scheme_path),
                "--shards",
                "2",
                "--store",
                str(store),
                "--script",
                str(write_script(tmp_path, ["insert R4 C=c1,S=s1,G=A"])),
            ]
        )
        capsys.readouterr()
        # No --shards, no scheme: shard.json picks the sharded path.
        code = main(
            [
                "serve",
                "--store",
                str(store),
                "--script",
                str(write_script(tmp_path, ["query CS"])),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving sharded store" in out
        assert "c1" in out

    def test_in_memory_sharded(self, tmp_path, scheme_path, capsys):
        code = main(
            [
                "serve",
                str(scheme_path),
                "--shards",
                "2",
                "--script",
                str(write_script(tmp_path, ["insert R4 C=c1,S=s1,G=A"])),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving in-memory, 2 shard(s)" in out


class TestStatsSharded:
    def test_prometheus_aggregates_shard_labels(
        self, tmp_path, scheme_path, capsys
    ):
        store = tmp_path / "store"
        main(
            [
                "serve",
                str(scheme_path),
                "--shards",
                "2",
                "--store",
                str(store),
                "--script",
                str(write_script(tmp_path, ["insert R4 C=c1,S=s1,G=A"])),
            ]
        )
        capsys.readouterr()
        code = main(
            ["stats", "--store", str(store), "--target", "CS", "--prometheus"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert 'shard="0"' in out
        assert 'shard="1"' in out
        from repro.obs.exposition import parse_exposition

        parsed = parse_exposition(out)  # strict: raises on malformed lines
        # The router's own gather read cache is exposed unlabeled.
        assert "repro_cache_read_hits_total" in parsed
        assert "repro_cache_read_hit_rate" in parsed
        assert "repro_router_gather_relations_fetched_total" in parsed

    def test_json_and_table_show_router_gather_cache(
        self, tmp_path, scheme_path, capsys
    ):
        store = tmp_path / "store"
        main(
            [
                "serve",
                str(scheme_path),
                "--shards",
                "2",
                "--store",
                str(store),
                "--script",
                str(write_script(tmp_path, ["insert R4 C=c1,S=s1,G=A"])),
            ]
        )
        capsys.readouterr()
        # [CS] gathers across both shards: the first gather fetches,
        # the two repeats reuse the mirror and hit the read cache.
        arguments = ["stats", "--store", str(store), "--target", "CS"]
        assert main(arguments + ["--repeat", "3", "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["cache.read.hits"] == 2
        assert metrics["cache.read.misses"] == 1
        assert metrics["cache.read.hit_rate"] == pytest.approx(2 / 3)
        assert metrics["router.gather_relations_reused"] == (
            2 * metrics["router.gather_relations_fetched"]
        )
        assert main(arguments) == 0
        table = capsys.readouterr().out
        assert "cache.read.hit_rate = " in table
        assert "router.gather_relations_fetched = " in table


class TestShardBench:
    def test_tiny_bench_writes_report(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        code = main(
            [
                "shard-bench",
                "--shards",
                "1,2",
                "--rounds",
                "1",
                "--seed-rows",
                "8",
                "--repeats",
                "1",
                "--out",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shard_sustained_mix_s1" in out
        document = json.loads(report.read_text())
        scenarios = document["scenarios"]
        assert scenarios["shard_sustained_mix_s1"]["ops"] > 0
        assert scenarios["shard_sustained_mix_s2"]["shards"] == 2
        # Outcome parity across counts is asserted inside the bench.
        assert (
            scenarios["shard_sustained_mix_s1"]["accepted"]
            == scenarios["shard_sustained_mix_s2"]["accepted"]
        )


class TestSupervisedShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_frontend_serve_exits_cleanly_on_signal(
        self, tmp_path, scheme_path, signum
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(scheme_path),
                "--shards",
                "2",
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert "in-memory" in proc.stdout.readline()
            announced = json.loads(proc.stdout.readline())
            assert announced["shards"] == 2
            proc.send_signal(signum)
            code = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        out, err = proc.stdout.read(), proc.stderr.read()
        assert code == 0, err
        assert "shutting down" in out
        assert err.strip() == ""
