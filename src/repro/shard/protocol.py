"""Length-prefixed JSON framing for the front door.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  The same wire format serves two transports:

* the TCP front door's connection threads (blocking
  :func:`send_frame` / :func:`recv_frame` over ``socket.socket``);
* asyncio clients of the front door (:func:`write_frame` /
  :func:`read_frame` over stream reader/writer pairs).

Payloads are plain JSON objects — requests carry an ``"op"`` field,
responses an ``"ok"`` field — and are encoded with sorted keys so a
frame's bytes are a deterministic function of its content.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Optional

from repro.foundations.errors import ServiceError

#: Frame header: payload length as an unsigned 32-bit big-endian int.
HEADER = struct.Struct(">I")

#: Refuse frames past this size — a corrupt header must not convince a
#: peer to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(payload: Any) -> bytes:
    """The full wire bytes (header + body) for one JSON payload."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed frame body: {error}") from None


def send_frame(sock: socket.socket, payload: Any) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean EOF at a
    frame boundary, :class:`ServiceError` on a torn frame."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ServiceError(
                f"peer closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame header announces {length} bytes, past the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = _recv_exact(sock, length)
    if body is None and length > 0:
        raise ServiceError("peer closed between header and body")
    return decode_body(body if body is not None else b"")


def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Queue one frame on an asyncio stream (drain separately)."""
    writer.write(encode_frame(payload))


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ServiceError(
            f"peer closed mid-header ({len(error.partial)} of "
            f"{HEADER.size} bytes received)"
        ) from None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame header announces {length} bytes, past the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ServiceError("peer closed between header and body") from None
    return decode_body(body)
