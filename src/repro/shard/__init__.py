"""Sharded serving.

The independence decomposition is a *sharding* certificate: no chase
rule fires across partition blocks, so each block group can own its own
engine, WAL and snapshots.  This package provides the tiers that
exploit it:

* :mod:`repro.shard.protocol` — length-prefixed JSON framing for the
  front door;
* :mod:`repro.shard.worker` — one shard: a full
  :class:`~repro.service.store.DurableStore` (or in-memory store) over
  its block subset, in the router's process;
* :mod:`repro.shard.router` — :class:`ShardRouter`, the block→shard
  map plus serial-equivalent fan-out (min-global-event-index batches,
  plan-aware query routing);
* :mod:`repro.shard.frontend` — a TCP server answering each connection
  on its own thread, many concurrent sessions onto one router.
"""

from repro.shard.frontend import (
    FrontendClient,
    ShardFrontend,
    serve_frontend,
)
from repro.shard.protocol import (
    read_frame,
    recv_frame,
    send_frame,
    write_frame,
)
from repro.shard.router import (
    RouterBatchOutcome,
    Session,
    ShardMap,
    ShardRouter,
)

__all__ = [
    "FrontendClient",
    "RouterBatchOutcome",
    "Session",
    "ShardFrontend",
    "ShardMap",
    "ShardRouter",
    "read_frame",
    "serve_frontend",
    "recv_frame",
    "send_frame",
    "write_frame",
]
