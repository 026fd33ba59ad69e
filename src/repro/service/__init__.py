"""The durable serving layer: WAL, snapshots, recovery, sessions.

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
* :mod:`repro.service.server` — :class:`SchemeServer`: named sessions,
  single-writer lock, lock-free snapshot reads; the shard router
  (:mod:`repro.shard.router`) runs one inline as its single shard, and
  ``repro serve`` always serves through that router;
* :mod:`repro.service.replica` — :class:`WalShipper` streaming sealed
  segments (plus the tailed active one) to :class:`FollowerStore`
  replicas that replay incrementally and can be promoted on failover
  (used by the failover bench and the shipping suites; no serving
  command deploys followers);
* :mod:`repro.service.metrics` — thread-safe operation counters.
"""

from repro.service.metrics import MetricsRegistry
from repro.service.replica import FollowerStore, WalShipper
from repro.service.server import SchemeServer, Session
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
    "SchemeServer",
    "Session",
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
