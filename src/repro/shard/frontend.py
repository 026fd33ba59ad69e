"""The asyncio front door: many concurrent sessions, one router.

An :class:`asyncio` server speaks the same length-prefixed JSON frames
as the router↔worker pipes (:mod:`repro.shard.protocol`), so thousands
of concurrent connections multiplex onto one
:class:`~repro.shard.router.ShardRouter`.  Every request — a frame here,
a line of ``repro serve``'s line protocol in the CLI — is answered by
one function, :func:`dispatch`.

Each request runs under ``span("front.request")`` inside the router's
tracer, off the event loop in a worker thread (router calls block on
worker RPCs); the event loop itself only ever frames and unframes
bytes.  Writes stay serial through the router's write lock — the
fan-out tier, not the front door, owns ordering.

Identical concurrent reads are *coalesced*: while one ``query`` for a
target is executing, later arrivals for the same target join its
in-flight future (``span("front.coalesce")``, counted as
``front.coalesced_reads``) instead of issuing their own backend RPCs.
The coalescing key includes a write epoch the frontend bumps on every
completed write, so a read issued after a client's write can never
join an execution whose snapshot might predate that write —
read-your-writes survives coalescing.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Mapping, Optional

from repro.foundations.attrs import attrs
from repro.foundations.errors import ReproError, ServiceError
from repro.io import state_to_dict
from repro.obs.spans import span, tracing
from repro.shard.protocol import read_frame, write_frame

#: Operations a frontend client may request.
FRONT_OPS = (
    "ping",
    "insert",
    "delete",
    "batch",
    "query",
    "state",
    "metrics",
    "stats",
    "prometheus",
    "snapshot",
    "sessions",
)

#: The operations that act through a named session.
SESSION_OPS = ("insert", "delete", "batch", "query", "state")


class ShardFrontend:
    """Serve a :class:`~repro.shard.router.ShardRouter` over asyncio."""

    #: Operations whose completion bumps the coalescing write epoch.
    WRITE_OPS = ("insert", "delete", "batch")

    def __init__(
        self,
        router: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        # In-flight identical reads share one execution.  Both maps are
        # only touched from the event loop, so no lock is needed.
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._write_epoch = 0

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (``port=0`` picks a free port)."""
        if self._server is not None:
            raise ServiceError("frontend already started")
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("frontend not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting and wait for in-flight connections to drain.
        Safe to call more than once; the router is left open (its owner
        closes it)."""
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        await server.wait_closed()

    # -- per-connection loop --------------------------------------------------
    async def _serve_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ServiceError:
                    break  # torn frame: drop the connection
                if request is None:
                    break  # clean EOF
                response = await self._handle(request)
                write_frame(writer, response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                # Shutdown cancels connection tasks; the writer is
                # already closing, so ending quietly is the right move.
                asyncio.CancelledError,
            ):
                pass

    async def _handle(self, request: Any) -> dict[str, Any]:
        """One request → one response, off the event loop.

        Requests from *different* connections overlap freely; the
        router's own locks serialize what must be serial.  Identical
        concurrent reads collapse onto one backend execution."""
        loop = asyncio.get_running_loop()
        op = request.get("op") if isinstance(request, Mapping) else None
        if op == "query":
            key = self._coalesce_key(request)
            if key is not None:
                leader = self._inflight.get(key)
                if leader is not None:
                    response = await leader
                    self._note_coalesced()
                    return response
                future: asyncio.Future = loop.create_future()
                self._inflight[key] = future
                try:
                    response = await loop.run_in_executor(
                        None, self._execute, request
                    )
                except BaseException as error:
                    self._inflight.pop(key, None)
                    future.set_exception(error)
                    future.exception()  # retrieved: no stray warning
                    raise
                # Pop before resolving: a read arriving from here on
                # must start fresh, never adopt a finished snapshot.
                self._inflight.pop(key, None)
                future.set_result(response)
                return response
        response = await loop.run_in_executor(None, self._execute, request)
        if op in self.WRITE_OPS:
            # Bumping on *completion* is what makes coalescing safe: a
            # client's next read sees the new epoch and cannot join an
            # execution whose snapshot may predate this write.
            self._write_epoch += 1
        return response

    def _coalesce_key(self, request: Mapping[str, Any]) -> Optional[tuple]:
        """The identity under which concurrent reads may share one
        execution — ``None`` for malformed targets (the normal path
        reports those per-request)."""
        try:
            target = tuple(sorted(attrs(request["target"])))
        except (ReproError, KeyError, TypeError):
            return None
        return (target, self._write_epoch)

    def _note_coalesced(self) -> None:
        with tracing(self.router.tracer):
            with span("front.coalesce") as sp:
                if sp:
                    sp.add("joined", 1)
        self.router.metrics.increment("front.coalesced_reads")

    def _execute(self, request: Any) -> dict[str, Any]:
        """One request, answered in an executor thread."""
        return dispatch(self.router, request)


def dispatch(router: Any, request: Any) -> dict[str, Any]:
    """Answer one request against ``router``: the reply frame, with any
    error turned into an ``{"ok": false, "error": {type, message}}``
    reply.  Both of ``repro serve``'s doors — the asyncio frontend and
    the line protocol — call this, so they share every operation."""
    with tracing(router.tracer):
        with span("front.request") as sp:
            try:
                if not isinstance(request, Mapping):
                    raise ServiceError("request frame must be an object")
                op = request.get("op")
                if op not in FRONT_OPS:
                    raise ServiceError(f"unknown frontend operation {op!r}")
                if op in SESSION_OPS:
                    session = router.session(
                        str(request.get("session", "default"))
                    )
                response: dict[str, Any] = {"ok": True}
                if op == "ping":
                    response["shards"] = router.shards
                elif op == "sessions":
                    response["sessions"] = router.session_names()
                elif op == "metrics":
                    response["metrics"] = router.metrics_snapshot()
                elif op == "stats":
                    response["stats"] = router.stats()
                elif op == "prometheus":
                    response["text"] = router.prometheus()
                elif op == "snapshot":
                    router.snapshot()
                elif op == "insert":
                    outcome = session.insert(
                        str(request["relation"]), dict(request["values"])
                    )
                    response["outcome"] = outcome.to_dict()
                elif op == "delete":
                    session.delete(
                        str(request["relation"]), dict(request["values"])
                    )
                elif op == "batch":
                    updates = [
                        (str(operation), str(relation_name), dict(values))
                        for operation, relation_name, values in request[
                            "updates"
                        ]
                    ]
                    response["outcome"] = session.apply_batch(
                        updates
                    ).to_dict()
                elif op == "query":
                    rows = session.query(attrs(request["target"]))
                    response["rows"] = sorted(list(row) for row in rows)
                else:
                    response["state"] = state_to_dict(session.state())
            except Exception as error:  # noqa: BLE001 - boundary
                response = {
                    "ok": False,
                    "error": {
                        "type": type(error).__name__,
                        "message": str(error),
                    },
                }
            if sp:
                sp.add("errors", 0 if response.get("ok") else 1)
    return response


class FrontendClient:
    """A minimal async client for the frame protocol (tests, tools)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "FrontendClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(self, payload: Mapping[str, Any]) -> Any:
        """One round trip; raises the server-reported error type when
        the response is not ok (mirroring the router's local surface)."""
        if self._reader is None or self._writer is None:
            raise ServiceError("client not connected")
        write_frame(self._writer, dict(payload))
        await self._writer.drain()
        response = await read_frame(self._reader)
        if response is None:
            raise ServiceError("frontend closed the connection")
        if not response.get("ok", False):
            from repro.shard.router import _rebuild_error

            raise _rebuild_error(response.get("error") or {})
        return response

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "FrontendClient":
        return await self.connect()

    async def __aexit__(self, *_: object) -> None:
        await self.close()


async def serve_frontend(
    router: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: Optional[asyncio.Event] = None,
    stop: Optional[asyncio.Event] = None,
    announce: bool = False,
) -> None:
    """Run a frontend until ``stop`` is set (or forever).

    The CLI's ``serve --shards N --port P`` entry point: ``ready`` is
    set once the socket is bound (so callers can read the chosen
    port), and signal handlers set ``stop`` for a clean drain."""
    frontend = ShardFrontend(router, host=host, port=port)
    await frontend.start()
    if announce:
        print(
            json.dumps(
                {
                    "listening": list(frontend.address),
                    "shards": router.shards,
                },
                sort_keys=True,
            ),
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        if stop is None:
            await frontend.serve_forever()
        else:
            await stop.wait()
    except asyncio.CancelledError:
        pass
    finally:
        await frontend.close()
