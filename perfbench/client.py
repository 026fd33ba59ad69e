"""The closed-loop client: one connection, one request in flight.

The client sends the stream's next request only after the previous
reply arrived, until the deadline.  Replies are kept and compared with
the oracle after the run, so comparison costs nothing inside the timed
region.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.foundations.errors import ServiceError
from repro.shard.protocol import read_frame, write_frame

from workloads import Op


@dataclass
class StreamResult:
    """What the connection sent and got back, in order.  A transport
    failure (a dropped connection or a torn frame) ends the stream and
    leaves ``None`` as its last response."""

    latencies: list[float] = field(default_factory=list)
    responses: list[Any] = field(default_factory=list)
    exhausted: bool = False

    @property
    def executed(self) -> int:
        return len(self.responses)


async def _drive(
    port: int, ops: Sequence[Op], deadline: Optional[float]
) -> StreamResult:
    result = StreamResult()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    clock = time.perf_counter
    try:
        for op in ops:
            if deadline is not None and clock() >= deadline:
                break
            started = clock()
            try:
                write_frame(writer, op.request)
                await writer.drain()
                response = await read_frame(reader)
            except (OSError, ServiceError):
                response = None
            result.latencies.append(clock() - started)
            result.responses.append(response)
            if response is None:
                break
        else:
            result.exhausted = deadline is not None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return result


def run_stream(
    port: int, ops: Sequence[Op], seconds: Optional[float]
) -> tuple[StreamResult, float]:
    """Drive ``ops`` on one connection until ``seconds`` pass (or to
    the end when ``seconds`` is None).  Returns the result and the
    elapsed wall time."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    started = time.perf_counter()
    result = asyncio.run(_drive(port, ops, deadline))
    return result, time.perf_counter() - started


def mismatches(ops: Sequence[Op], result: StreamResult) -> int:
    """Replies that are not exactly what the oracle expects (a
    transport failure, an ``ok: false`` reply, or different content)."""
    return sum(
        response != op.expected
        for op, response in zip(ops, result.responses)
    )
