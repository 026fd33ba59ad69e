"""CLI integration for the sharded tier: ``serve --shards``, the one
request dispatcher both serve doors share, store-kind handling, sharded
``stats``, ``shard-bench``, and supervised shutdown."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import dump_scheme
from repro.shard import frontend
from repro.shard.protocol import recv_frame, send_frame
from repro.shard.router import ShardRouter
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


#: Every kind of reply a request line can get: an accept, a rejection,
#: a delete, a cross-block query (R1 and R5 live on shard 0, R4 on
#: shard 1 at two shards), a query outside the universe, an unknown
#: relation and a session switch.
PARITY_SCRIPT = [
    "insert R4 C=c1,S=s1,G=A",
    "insert R4 C=c1,S=s1,G=B",
    "insert R1 H=h1,R=r1,C=c1",
    "insert R5 H=h1,S=s1,R=r1",
    "insert R4 C=c2,S=s2,G=B",
    "delete R4 C=c2,S=s2,G=B",
    "query HSG",
    "query CZ",
    "insert R9 A=a",
    "session bob",
    "insert R4 C=c3,S=s3,G=C",
    "query CSG",
    "sessions",
    "state",
]


def _record_line_run(tmp_path, scheme_path, shards, monkeypatch, capsys):
    """Serve PARITY_SCRIPT over the line loop; return the (request,
    reply) pairs the shared dispatcher saw and the printed lines."""
    calls = []
    real = frontend.dispatch

    def recording(router, request):
        reply = real(router, request)
        calls.append((request, json.loads(json.dumps(reply))))
        return reply

    monkeypatch.setattr(frontend, "dispatch", recording)
    script = write_script(tmp_path, PARITY_SCRIPT)
    code = main(
        [
            "serve",
            str(scheme_path),
            "--shards",
            str(shards),
            "--script",
            str(script),
        ]
    )
    assert code == 0
    monkeypatch.setattr(frontend, "dispatch", real)
    printed = capsys.readouterr().out.splitlines()
    assert f"{shards} shard(s)" in printed[0]
    return calls, printed[1:]


async def _frontend_replies(requests, capsys):
    """The replies ``serve_frontend`` gives ``requests`` over frames
    (errors rebuilt client-side, then described the way the
    dispatcher's error replies describe them)."""
    router = ShardRouter.in_memory(example1_university(), 2)
    ready, stop = asyncio.Event(), asyncio.Event()
    server = asyncio.create_task(
        frontend.serve_frontend(
            router, port=0, ready=ready, stop=stop, announce=True
        )
    )
    await ready.wait()
    host, port = json.loads(capsys.readouterr().out)["listening"]
    replies = []
    try:
        async with frontend.FrontendClient(host, port) as client:
            for request in requests:
                try:
                    reply = await client.request(request)
                except Exception as error:  # noqa: BLE001 - compared
                    reply = {
                        "ok": False,
                        "error": {
                            "type": type(error).__name__,
                            "message": str(error),
                        },
                    }
                replies.append(reply)
    finally:
        stop.set()
        await server
        router.close()
    return replies


class TestOneDispatcher:
    def test_line_loop_and_frontend_agree(
        self, tmp_path, scheme_path, monkeypatch, capsys
    ):
        inline, inline_out = _record_line_run(
            tmp_path, scheme_path, 1, monkeypatch, capsys
        )
        sharded, sharded_out = _record_line_run(
            tmp_path, scheme_path, 2, monkeypatch, capsys
        )
        # Every line but `session` became one request, identical at
        # either shard count, and every reply matched.
        assert len(inline) == len(PARITY_SCRIPT) - 1
        assert [request for request, _ in sharded] == [
            request for request, _ in inline
        ]
        assert [reply for _, reply in sharded] == [
            reply for _, reply in inline
        ]
        assert sharded_out == inline_out
        requests = [request for request, _ in inline]
        replies = asyncio.run(_frontend_replies(requests, capsys))
        assert replies == [reply for _, reply in inline]

        request_lines = [
            line for line in PARITY_SCRIPT if not line.startswith("session ")
        ]
        by_line = dict(zip(request_lines, replies))
        assert by_line["insert R4 C=c1,S=s1,G=A"]["outcome"]["consistent"]
        rejected = by_line["insert R4 C=c1,S=s1,G=B"]["outcome"]
        assert not rejected["consistent"]
        assert by_line["delete R4 C=c2,S=s2,G=B"] == {"ok": True}
        assert by_line["query HSG"]["rows"] == [["A", "h1", "s1"]]
        assert by_line["query CZ"]["rows"] == []
        assert by_line["insert R9 A=a"]["error"] == {
            "type": "NotApplicableError",
            "message": "unknown relation 'R9'",
        }
        assert requests[-4]["session"] == "bob"
        assert by_line["sessions"]["sessions"] == ["bob", "default"]
        assert "error: unknown relation 'R9'" in inline_out
        assert (
            "REJECTED: inserting into R4 would make the state inconsistent"
            in inline_out
        )


def _listing(directory):
    return sorted(
        str(path.relative_to(directory)) for path in directory.rglob("*")
    )


class TestStoreKinds:
    def test_single_store_commands_refuse_a_sharded_store(
        self, tmp_path, scheme_path, capsys
    ):
        store = tmp_path / "store"
        script = write_script(tmp_path, ["insert R4 C=c1,S=s1,G=A"])
        assert main(
            [
                "serve",
                str(scheme_path),
                "--store",
                str(store),
                "--shards",
                "1",
                "--script",
                str(script),
            ]
        ) == 0
        before = _listing(store)
        capsys.readouterr()
        for command in (
            ["replay", "--store", str(store)],
            ["recover", "--store", str(store), "--as-of", "1"],
            [
                "insert",
                "--store",
                str(store),
                "--relation",
                "R4",
                "--values",
                "C=c2,S=s2,G=B",
            ],
        ):
            assert main(command) == 1, command
            assert "is a sharded store" in capsys.readouterr().err
            assert _listing(store) == before, command
        # `stats --store` reads a sharded store through the router.
        assert main(["stats", "--store", str(store), "--json"]) == 0
        assert _listing(store) == before

    def test_plain_store_refuses_resharding_and_serves_in_place(
        self, tmp_path, scheme_path, capsys
    ):
        store = tmp_path / "plain"
        assert main(
            [
                "insert",
                str(scheme_path),
                "--store",
                str(store),
                "--relation",
                "R4",
                "--values",
                "C=c1,S=s1,G=A",
            ]
        ) == 0
        scheme_bytes = (store / "scheme.json").read_bytes()
        before = _listing(store)
        capsys.readouterr()
        query = write_script(tmp_path, ["query CS"])
        code = main(
            [
                "serve",
                "--store",
                str(store),
                "--shards",
                "2",
                "--script",
                str(query),
            ]
        )
        assert code == 1
        assert "re-shard" in capsys.readouterr().err
        assert (store / "scheme.json").read_bytes() == scheme_bytes
        assert _listing(store) == before
        code = main(["serve", "--store", str(store), "--script", str(query)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 shard(s)" in out
        assert "C\tS\nc1\ts1\n" in out


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
        # The router's own read cache and query count are exposed
        # unlabeled.
        assert "repro_cache_read_hits_total" in parsed
        assert "repro_cache_read_hit_rate" in parsed
        assert "repro_router_gather_queries_total" in parsed

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
        # [CS] reads both shards' relations from the published state:
        # no query calls a shard, and the two repeats hit the read
        # cache.
        arguments = ["stats", "--store", str(store), "--target", "CS"]
        assert main(arguments + ["--repeat", "3", "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["cache.read.hits"] == 2
        assert metrics["cache.read.misses"] == 1
        assert metrics["cache.read.hit_rate"] == pytest.approx(2 / 3)
        assert metrics["router.gather_queries"] == 3
        assert "shard.rpcs" not in metrics
        assert main(arguments) == 0
        table = capsys.readouterr().out
        assert "cache.read.hit_rate = " in table
        assert "router.gather_queries = " in table


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

    def test_frontend_serve_exits_on_sigterm_with_an_idle_client(
        self, tmp_path, scheme_path
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
            host, port = json.loads(proc.stdout.readline())["listening"]
            with socket.create_connection((host, port)) as conn:
                send_frame(conn, {"op": "ping"})
                assert recv_frame(conn)["ok"]
                # The connection stays open and idle across the signal.
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        out, err = proc.stdout.read(), proc.stderr.read()
        assert code == 0, err
        assert "shutting down" in out
        assert err.strip() == ""
