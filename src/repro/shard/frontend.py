"""The front door: one thread per connection, one router.

A listening socket speaks length-prefixed JSON frames
(:mod:`repro.shard.protocol`) with a blocking codec.  An acceptor
thread takes connections; each connection gets its own thread that
loops ``recv_frame`` → answer → ``send_frame``,
so the thread that reads a request also computes and writes its reply —
no hand-off between threads on the request path.  Every request — a
frame here, a line of ``repro serve``'s line protocol in the CLI — is
answered by one function, :func:`dispatch`, under
``span("front.request")`` inside the router's tracer.  Writes stay
serial through the router's write lock — the router, not the front
door, owns ordering.

Each idle connection parks one thread, and connections dispatch
independently of one another: there is no pool capping how many
requests run at once.

The lifecycle coroutines (:meth:`ShardFrontend.start`,
:meth:`~ShardFrontend.close`, :func:`serve_frontend`) let an asyncio
caller own the frontend; the event loop only waits for the stop
signal and never handles a request.

Identical concurrent reads are *coalesced*: while one ``query`` for a
target is executing, later arrivals for the same target wait on its
in-flight future (``span("front.coalesce")``, counted as
``front.coalesced_reads``) instead of evaluating it again.
The coalescing key includes a write epoch the frontend bumps on every
completed write, so a read issued after a client's write can never
join an execution whose snapshot might predate that write —
read-your-writes survives coalescing.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import Future
from typing import Any, Mapping, Optional

from repro.foundations.attrs import attrs
from repro.foundations.errors import ReproError, ServiceError
from repro.io import sorted_rows, state_to_dict
from repro.obs.spans import span, tracing
from repro.shard.protocol import (
    read_frame,
    recv_frame,
    send_frame,
    write_frame,
)

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

#: Prefix of every thread a frontend starts (acceptor and connections).
THREAD_PREFIX = "repro-frontend"


class ShardFrontend:
    """Serve a :class:`~repro.shard.router.ShardRouter` over TCP, one
    thread per connection."""

    #: Operations whose completion bumps the coalescing write epoch.
    WRITE_OPS = ("insert", "delete", "batch")

    #: How long :meth:`close` waits for the frontend's threads to end.
    JOIN_SECONDS = 5.0

    def __init__(
        self,
        router: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._stopped: Optional[asyncio.Event] = None
        self._conns_lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}  # guarded-by: _conns_lock
        self._closing = False  # guarded-by: _conns_lock
        # In-flight identical reads share one execution.
        self._coalesce_lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}  # guarded-by: _coalesce_lock
        self._write_epoch = 0  # guarded-by: _coalesce_lock

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (``port=0`` picks a free port)."""
        if self._listener is not None:
            raise ServiceError("frontend already started")
        self._listen()

    def _listen(self) -> None:
        # Binding a local address and starting a thread return at once;
        # nothing here waits on a peer.
        family, _, _, _, address = socket.getaddrinfo(
            self.host,
            self.port,
            type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )[0]
        self._listener = socket.create_server(
            address, family=family, backlog=128
        )
        self.port = self._listener.getsockname()[1]
        self._stopped = asyncio.Event()
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            args=(self._listener,),
            name=f"{THREAD_PREFIX}-accept",
            daemon=True,
        )
        self._acceptor.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        """Wait until :meth:`close` (or cancellation)."""
        if self._stopped is None:
            raise ServiceError("frontend not started")
        await self._stopped.wait()

    async def close(self) -> None:
        """Stop accepting, end every connection once its in-flight reply
        is written, and wait (bounded) for the threads.  Safe to call
        more than once; the router is left open (its owner closes it)."""
        threads = self._stop_serving()
        deadline = time.monotonic() + self.JOIN_SECONDS
        for thread in threads:
            while thread.is_alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.005)

    def _stop_serving(self) -> list[threading.Thread]:
        """Shut the listener and the read side of every connection; the
        threads still to wait for."""
        listener, self._listener = self._listener, None
        if listener is None:
            return []
        with self._conns_lock:
            self._closing = True
            connections = list(self._connections.items())
        # Shutting the listener down wakes the acceptor's accept(),
        # which then closes it.  On a connection, SHUT_RD ends the next
        # recv with EOF while a reply in flight still goes out.
        _shutdown(listener, socket.SHUT_RDWR)
        for conn, _ in connections:
            _shutdown(conn, socket.SHUT_RD)
        if self._stopped is not None:
            self._stopped.set()
        return [self._acceptor] + [thread for _, thread in connections]

    # -- threads --------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        try:
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener shut down by close()
                # asyncio transports set this by default; without it a
                # small reply can wait on the peer's delayed ACK.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with self._conns_lock:
                    if self._closing:
                        conn.close()
                        return
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn,),
                        name=f"{THREAD_PREFIX}-conn",
                        daemon=True,
                    )
                    self._connections[conn] = thread
                    thread.start()
        finally:
            listener.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except ServiceError:
                    break  # torn frame: drop the connection
                if request is None:
                    break  # clean EOF (or close() shut the read side)
                send_frame(conn, self._handle(request))
        except OSError:
            pass  # peer reset or went away mid-reply
        finally:
            with self._conns_lock:
                self._connections.pop(conn, None)
            conn.close()

    # -- requests -------------------------------------------------------------
    def _handle(self, request: Any) -> dict[str, Any]:
        """One request → one response, on the calling thread.

        Requests from *different* connections overlap freely; the
        router's own locks serialize what must be serial.  Identical
        concurrent reads collapse onto one backend execution."""
        op = request.get("op") if isinstance(request, Mapping) else None
        if op == "query":
            with self._coalesce_lock:
                key = self._coalesce_key(request)
                leader = None if key is None else self._inflight.get(key)
                if key is not None and leader is None:
                    self._inflight[key] = Future()
            if leader is not None:
                response = leader.result()
                self._note_coalesced()
                return response
            if key is not None:
                return self._lead(key, request)
        response = self._execute(request)
        if op in self.WRITE_OPS:
            # Bumping on *completion* is what makes coalescing safe: a
            # client's next read sees the new epoch and cannot join an
            # execution whose snapshot may predate this write.
            with self._coalesce_lock:
                self._write_epoch += 1
        return response

    def _lead(self, key: tuple, request: Any) -> dict[str, Any]:
        """Execute a read that later arrivals may join, then hand them
        its answer."""
        try:
            response = self._execute(request)
        except BaseException as error:
            self._retire(key).set_exception(error)
            raise
        # Pop before resolving: a read arriving from here on must start
        # fresh, never adopt a finished snapshot.
        self._retire(key).set_result(response)
        return response

    def _retire(self, key: tuple) -> Future:
        with self._coalesce_lock:
            return self._inflight.pop(key)

    def _coalesce_key(self, request: Mapping[str, Any]) -> Optional[tuple]:
        """The identity under which concurrent reads may share one
        execution — ``None`` for malformed targets (the normal path
        reports those per-request).  Called with ``_coalesce_lock``
        held."""
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
        """One request, answered on the connection's thread."""
        return dispatch(self.router, request)


def _shutdown(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass  # already disconnected


def dispatch(router: Any, request: Any) -> dict[str, Any]:
    """Answer one request against ``router``: the reply frame, with any
    error turned into an ``{"ok": false, "error": {type, message}}``
    reply.  Both of ``repro serve``'s doors — the frame frontend and
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
                    response["rows"] = sorted_rows(list(row) for row in rows)
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


def _rebuild_error(info: Mapping[str, Any]) -> Exception:
    """An exception equivalent to the one the server reported."""
    import builtins

    from repro.foundations import errors as errors_mod

    name = str(info.get("type") or "ServiceError")
    message = str(info.get("message") or "")
    candidate = getattr(errors_mod, name, None)
    if not (
        isinstance(candidate, type) and issubclass(candidate, Exception)
    ):
        candidate = getattr(builtins, name, None)
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        return candidate(message)
    return ServiceError(f"{name}: {message}")


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
