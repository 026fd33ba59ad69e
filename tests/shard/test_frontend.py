"""The front door: concurrency, sessions, errors, shutdown, threads."""

import asyncio
import contextlib
import socket
import sys
import threading

import pytest

from repro.bench import read_burst
from repro.foundations.errors import (
    NotApplicableError,
    ServiceError,
)
from repro.obs.exposition import parse_exposition
from repro.shard import frontend as frontend_module
from repro.shard.frontend import (
    THREAD_PREFIX,
    FrontendClient,
    ShardFrontend,
    dispatch,
    serve_frontend,
)
from repro.shard.protocol import recv_frame, send_frame
from repro.shard.router import ShardRouter
from repro.workloads.paper import example1_university


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def router():
    router = ShardRouter.in_memory(example1_university(), 2)
    yield router
    router.close()


async def _started(router):
    frontend = ShardFrontend(router)
    await frontend.start()
    return frontend


class TestRequests:
    def test_ping_and_crud_round_trip(self, router):
        async def scenario():
            frontend = await _started(router)
            try:
                host, port = frontend.address
                async with FrontendClient(host, port) as client:
                    pong = await client.request({"op": "ping"})
                    assert pong["shards"] == 2
                    outcome = await client.request(
                        {
                            "op": "insert",
                            "relation": "R4",
                            "values": {"C": "c1", "S": "s1", "G": "A"},
                        }
                    )
                    assert outcome["outcome"]["consistent"]
                    rows = await client.request(
                        {"op": "query", "target": "CSG"}
                    )
                    # Row values follow sorted target order (C, G, S).
                    assert rows["rows"] == [["c1", "A", "s1"]]
                    batch = await client.request(
                        {
                            "op": "batch",
                            "updates": [
                                [
                                    "insert",
                                    "R5",
                                    {"H": "h", "S": "s1", "R": "r"},
                                ]
                            ],
                        }
                    )
                    assert batch["outcome"]["committed"]
            finally:
                await frontend.close()

        run(scenario())

    def test_errors_rebuild_client_side(self, router):
        async def scenario():
            frontend = await _started(router)
            try:
                host, port = frontend.address
                async with FrontendClient(host, port) as client:
                    with pytest.raises(
                        NotApplicableError, match="unknown relation"
                    ):
                        await client.request(
                            {
                                "op": "insert",
                                "relation": "Nope",
                                "values": {"A": "x"},
                            }
                        )
                    with pytest.raises(
                        ServiceError, match="unknown frontend operation"
                    ):
                        await client.request({"op": "drop-tables"})
                    # The connection survives surfaced errors.
                    pong = await client.request({"op": "ping"})
                    assert pong["ok"]
            finally:
                await frontend.close()

        run(scenario())

    def test_sessions_are_tracked(self, router):
        async def scenario():
            frontend = await _started(router)
            try:
                host, port = frontend.address
                async with FrontendClient(host, port) as client:
                    await client.request(
                        {
                            "op": "insert",
                            "session": "alice",
                            "relation": "R4",
                            "values": {"C": "c9", "S": "s9", "G": "A"},
                        }
                    )
                    names = await client.request({"op": "sessions"})
                    assert "alice" in names["sessions"]
            finally:
                await frontend.close()

        run(scenario())

    def test_prometheus_over_the_wire_parses(self, router):
        async def scenario():
            frontend = await _started(router)
            try:
                host, port = frontend.address
                async with FrontendClient(host, port) as client:
                    await client.request(
                        {
                            "op": "insert",
                            "relation": "R4",
                            "values": {"C": "c1", "S": "s1", "G": "A"},
                        }
                    )
                    text = (await client.request({"op": "prometheus"}))[
                        "text"
                    ]
            finally:
                await frontend.close()
            parsed = parse_exposition(text)
            assert any("shard=" in name for name in parsed)

        run(scenario())


class TestConcurrency:
    def test_many_concurrent_clients(self, router):
        clients = 16

        async def one(host, port, index):
            async with FrontendClient(host, port) as client:
                outcome = await client.request(
                    {
                        "op": "insert",
                        "session": f"client-{index}",
                        "relation": "R4",
                        "values": {
                            "C": f"c{index}",
                            "S": f"s{index}",
                            "G": "A",
                        },
                    }
                )
                assert outcome["outcome"]["consistent"]
                rows = await client.request(
                    {"op": "query", "target": "CS"}
                )
                return len(rows["rows"])

        async def scenario():
            frontend = await _started(router)
            try:
                host, port = frontend.address
                results = await asyncio.gather(
                    *(one(host, port, i) for i in range(clients))
                )
            finally:
                await frontend.close()
            return results

        results = run(scenario())
        assert len(results) == clients
        # Every insert committed: the final reader sees all rows.
        assert max(results) == clients
        assert sorted(router.session_names()) == sorted(
            ["default"] + [f"client-{i}" for i in range(clients)]
        )


class TestLifecycle:
    def test_close_is_idempotent_and_leaves_router_open(self, router):
        async def scenario():
            frontend = await _started(router)
            await frontend.close()
            await frontend.close()

        run(scenario())
        assert router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})

    def test_serve_frontend_ready_and_stop(self, router, capsys):
        async def scenario():
            ready = asyncio.Event()
            stop = asyncio.Event()
            task = asyncio.create_task(
                serve_frontend(
                    router, ready=ready, stop=stop, announce=True
                )
            )
            await asyncio.wait_for(ready.wait(), timeout=5)
            stop.set()
            await asyncio.wait_for(task, timeout=5)

        run(scenario())
        announced = capsys.readouterr().out
        assert '"shards": 2' in announced
        assert '"listening"' in announced


class TestCoalescing:
    def test_identical_concurrent_reads_share_one_execution(self, router):
        router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})
        frontend = ShardFrontend(router)
        request = {"op": "query", "target": "CS"}
        responses, executed = read_burst(
            frontend, [dict(request) for _ in range(8)]
        )
        # One backend execution; seven joiners shared its answer.
        assert [call["op"] for call in executed] == ["query"]
        assert all(response["ok"] for response in responses)
        assert all(
            response["rows"] == responses[0]["rows"]
            for response in responses
        )
        snapshot = router.metrics.snapshot()
        assert snapshot.get("front.coalesced_reads", 0) == 7

    def test_distinct_targets_do_not_coalesce(self, router):
        frontend = ShardFrontend(router)
        _, executed = read_burst(
            frontend,
            [
                {"op": "query", "target": "CS"},
                {"op": "query", "target": "SG"},
            ],
        )
        assert sorted(
            tuple(sorted(call["target"])) for call in executed
        ) == [("C", "S"), ("G", "S")]

    def test_write_bumps_the_epoch_so_later_reads_never_join(self, router):
        frontend = ShardFrontend(router)
        before = frontend._coalesce_key({"op": "query", "target": "CS"})
        response = frontend._handle(
            {
                "op": "insert",
                "relation": "R4",
                "values": {"C": "c2", "S": "s2", "G": "B"},
            }
        )
        assert response["ok"]
        after = frontend._coalesce_key({"op": "query", "target": "CS"})
        # Same target, different epoch: a post-write read starts fresh
        # instead of adopting a snapshot that may predate the write.
        assert before != after

    def test_threads_read_their_own_writes_under_contention(self, router):
        # More threads than cores and a short switch interval: a lost
        # epoch bump would let a read join an execution that started
        # before the same thread's write and miss its row.
        frontend = ShardFrontend(router)
        threads, rounds = 12, 5
        failures = []

        def client(index):
            for step in range(rounds):
                row = [f"c{index}-{step}", f"s{index}-{step}"]
                frontend._handle(
                    {
                        "op": "insert",
                        "relation": "R4",
                        "values": {"C": row[0], "S": row[1], "G": "A"},
                    }
                )
                reply = frontend._handle({"op": "query", "target": "CS"})
                if row not in reply["rows"]:
                    failures.append((index, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=client, args=(index,))
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert frontend._inflight == {}
        reply = frontend._handle({"op": "query", "target": "CS"})
        assert len(reply["rows"]) == threads * rounds

    def test_coalesced_reads_over_the_wire_agree(self, router):
        router.insert("R4", {"C": "c1", "S": "s1", "G": "A"})

        async def one(host, port):
            async with FrontendClient(host, port) as client:
                reply = await client.request(
                    {"op": "query", "target": "CS"}
                )
                return reply["rows"]

        async def scenario():
            frontend = await _started(router)
            try:
                host, port = frontend.address
                return await asyncio.gather(
                    *(one(host, port) for _ in range(8))
                )
            finally:
                await frontend.close()

        results = run(scenario())
        assert all(rows == [["c1", "s1"]] for rows in results)


@contextlib.contextmanager
def serving(router):
    """A started frontend, closed on exit; clients use blocking
    sockets, since no event loop runs while requests are served."""
    frontend = ShardFrontend(router)
    asyncio.run(frontend.start())
    try:
        yield frontend
    finally:
        asyncio.run(frontend.close())


def frontend_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(THREAD_PREFIX)
    ]


def connect(frontend):
    """A blocking client socket; a reply that never comes fails the
    test instead of hanging it."""
    return socket.create_connection(frontend.address, timeout=10)


def round_trip(conn, request):
    send_frame(conn, request)
    return recv_frame(conn)


class TestThreadPerConnection:
    def test_reply_is_computed_on_the_thread_that_read_the_frame(
        self, router, monkeypatch
    ):
        readers, executors = [], []
        real_recv = frontend_module.recv_frame

        def recording_recv(conn):
            readers.append(threading.get_ident())
            return real_recv(conn)

        monkeypatch.setattr(frontend_module, "recv_frame", recording_recv)
        with serving(router) as frontend:
            real_execute = frontend._execute

            def recording_execute(request):
                executors.append(threading.current_thread())
                return real_execute(request)

            frontend._execute = recording_execute
            with connect(frontend) as conn:
                assert round_trip(conn, {"op": "ping"})["ok"]
                assert round_trip(conn, {"op": "query", "target": "CS"})[
                    "ok"
                ]
            names = [thread.name for thread in threading.enumerate()]
        assert len(executors) == 2
        assert {thread.ident for thread in executors} == {readers[0]}
        assert executors[0].name.startswith(THREAD_PREFIX)
        # No executor pool took part.
        assert not any(
            name.startswith(("ThreadPoolExecutor", "asyncio_"))
            for name in names
        )

    def test_close_mid_dispatch_still_delivers_the_reply(self, router):
        entered, release = threading.Event(), threading.Event()
        frontend = ShardFrontend(router)
        real_execute = frontend._execute

        def held_execute(request):
            entered.set()
            release.wait(timeout=10)
            return real_execute(request)

        frontend._execute = held_execute

        async def scenario(conn):
            send_frame(conn, {"op": "ping"})
            assert entered.wait(timeout=10)
            closing = asyncio.create_task(frontend.close())
            await asyncio.sleep(0)  # close() has shut the read side
            assert not closing.done()
            release.set()
            await closing

        asyncio.run(frontend.start())
        with connect(frontend) as conn:
            asyncio.run(scenario(conn))
            reply = recv_frame(conn)
            assert reply["ok"] and reply["shards"] == 2
            assert recv_frame(conn) is None  # then the server hung up
        assert frontend_threads() == []

    def test_close_ends_idle_connections(self, router):
        with serving(router) as frontend:
            conn = connect(frontend)
            assert round_trip(conn, {"op": "ping"})["ok"]
        try:
            assert recv_frame(conn) is None
        finally:
            conn.close()
        assert frontend_threads() == []

    def test_accepted_connections_set_tcp_nodelay(self, router):
        with serving(router) as frontend:
            with connect(frontend) as conn:
                assert round_trip(conn, {"op": "ping"})["ok"]
                with frontend._conns_lock:
                    accepted = list(frontend._connections)
                assert len(accepted) == 1
                assert accepted[0].getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )


class TestMixedKindColumns:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_query_and_state_answer_over_int_and_string_values(
        self, shards
    ):
        router = ShardRouter.in_memory(example1_university(), shards)
        try:
            for values in (
                {"C": 1, "S": "s1", "G": "A"},
                {"C": "c0", "S": "s2", "G": "A"},
            ):
                assert dispatch(
                    router,
                    {"op": "insert", "relation": "R4", "values": values},
                )["ok"]
            query = dispatch(router, {"op": "query", "target": "CS"})
            assert query == {"ok": True, "rows": [[1, "s1"], ["c0", "s2"]]}
            state = dispatch(router, {"op": "state"})
            assert state["ok"]
            assert [row["C"] for row in state["state"]["R4"]] == [1, "c0"]
        finally:
            router.close()
