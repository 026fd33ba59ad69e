"""The durable serving layer: WAL, snapshots, recovery, replication.

The paper guarantees that bounded / ctm schemes answer queries by
predetermined expressions and validate insertions in constant time —
properties a long-lived serving process exploits directly.  This
package turns :class:`~repro.core.engine.WeakInstanceEngine` into a
restartable server:

* :mod:`repro.service.wal` — segmented append-only JSONL write-ahead
  log with CRC-32 checksums, batched fsync, sealed-segment rolling and
  torn-tail repair;
* :mod:`repro.service.store` — :class:`DurableStore`: scheme + WAL +
  atomic snapshots, crash recovery by replaying validated updates,
  segment compaction, point-in-time recovery (``as_of_seq``);
* :mod:`repro.service.replica` — :class:`WalShipper` streaming sealed
  segments (plus the tailed active one) to :class:`FollowerStore`
  replicas that replay incrementally and can be promoted on failover
  (used by the failover bench and the shipping suites; no serving
  command deploys followers);
* :mod:`repro.service.metrics` — thread-safe operation counters.

Serving — named sessions, the single-writer lock, one store per shard —
is :class:`~repro.shard.router.ShardRouter`'s job; ``repro serve``
always serves through it, at one shard as at many.
"""

from repro.service.metrics import MetricsRegistry
from repro.service.replica import FollowerStore, WalShipper
from repro.service.store import DurableStore, RecoveryReport
from repro.service.wal import (
    WalRecord,
    WalScan,
    WriteAheadLog,
    iter_wal,
    record_crc,
    replayable,
    scan_wal,
    segment_paths,
)

__all__ = [
    "DurableStore",
    "FollowerStore",
    "MetricsRegistry",
    "RecoveryReport",
    "WalRecord",
    "WalScan",
    "WalShipper",
    "WriteAheadLog",
    "iter_wal",
    "record_crc",
    "replayable",
    "scan_wal",
    "segment_paths",
]
