"""Thread-safe operation counters for the serving layer.

The serving components (:class:`repro.service.store.DurableStore`,
:class:`repro.shard.router.ShardRouter`) record what they do into a
:class:`MetricsRegistry` — monotonic counters plus point-in-time gauges
— so an operator can ask a long-lived process what it has been doing
without stopping it.  A registry is cheap enough to update on every
operation: one lock acquisition and one dict write.

Counter names are dotted paths (``ops.insert``, ``wal.bytes``,
``store.rejects``); :meth:`MetricsRegistry.snapshot` returns them as a
flat ``name -> value`` dict ready for JSON rendering.  Counters, gauges
and timers are separate namespaces internally; ``snapshot`` refuses to
merge them when two kinds share a name, because silently letting one
shadow the other corrupts whatever dashboard reads the result.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional, Union

from repro.foundations.errors import ServiceError

Number = Union[int, float]


def labeled(name: str, **labels: object) -> str:
    """Render ``name`` with Prometheus-style labels appended.

    ``labeled("ops.insert", shard=2)`` → ``ops.insert{shard="2"}``.
    Keeping labels inside the metric *name* lets per-shard series share
    one flat registry namespace without colliding; the exposition layer
    (:func:`repro.obs.exposition.prometheus_text`) splits them back out
    when emitting the text format.
    """
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def cache_series(
    cache_info: Mapping[str, Any],
) -> tuple[dict[str, Number], dict[str, Number]]:
    """An engine's ``cache_info()`` as ``(counters, gauges)``: hits,
    misses and evictions per cache, and the read cache's hit rate as a
    gauge (a rate is a level, not a monotone count)."""
    counters: dict[str, Number] = {}
    gauges: dict[str, Number] = {}
    for cache_name, info in cache_info.items():
        counters[f"cache.{cache_name}.hits"] = info.hits
        counters[f"cache.{cache_name}.misses"] = info.misses
        counters[f"cache.{cache_name}.evictions"] = info.evictions
        if cache_name == "read":
            probes = info.hits + info.misses
            gauges["cache.read.hit_rate"] = (
                info.hits / probes if probes else 0.0
            )
    return counters, gauges


class MetricsRegistry:
    """A flat namespace of thread-safe counters, gauges and timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Number] = {}  # guarded-by: _lock
        self._gauges: dict[str, Number] = {}  # guarded-by: _lock
        # name -> [seconds, calls]; timers no longer write into the
        # counter namespace, so metrics.timer("ops.insert") cannot
        # clobber (or be clobbered by) the counter of the same name.
        self._timers: dict[str, list[Number]] = {}  # guarded-by: _lock

    # -- counters -------------------------------------------------------------
    def increment(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to the monotonic counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def count(self, name: str) -> Number:
        """The current value of counter ``name`` (0 when never touched)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges ---------------------------------------------------------------
    def set_gauge(self, name: str, value: Number) -> None:
        """Record the latest value of the gauge ``name``."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str, default: Number = 0) -> Number:
        with self._lock:
            return self._gauges.get(name, default)

    # -- timers ---------------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock seconds and a call count under the
        timer ``name`` (reported as ``<name>.seconds`` / ``<name>.calls``
        in :meth:`snapshot`)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                cell = self._timers.setdefault(name, [0.0, 0])
                cell[0] += elapsed
                cell[1] += 1

    def timer_totals(self, name: str) -> tuple[float, int]:
        """Accumulated ``(seconds, calls)`` of timer ``name``."""
        with self._lock:
            seconds, calls = self._timers.get(name, (0.0, 0))
            return float(seconds), int(calls)

    # -- reporting ------------------------------------------------------------
    def snapshot(self) -> dict[str, Number]:
        """All counters, gauges and timers as one flat dict.

        Timers contribute ``<name>.seconds`` and ``<name>.calls``.
        Raises :class:`ServiceError` when two kinds of metric collide on
        a name — one silently shadowing the other would misreport both.
        """
        with self._lock:
            merged: dict[str, Number] = dict(self._counters)
            for name, value in self._gauges.items():
                if name in merged:
                    raise ServiceError(
                        f"metric name collision: {name!r} is both a "
                        "counter and a gauge"
                    )
                merged[name] = value
            for name, (seconds, calls) in self._timers.items():
                for derived, value in (
                    (f"{name}.seconds", seconds),
                    (f"{name}.calls", calls),
                ):
                    if derived in merged:
                        raise ServiceError(
                            f"metric name collision: timer {name!r} "
                            f"derives {derived!r}, which is already a "
                            "counter or gauge"
                        )
                    merged[derived] = value
            return merged

    def snapshot_by_kind(
        self,
        shard: Optional[int] = None,
    ) -> dict[str, dict[str, Number]]:
        """The three namespaces separately (for exposition formats that
        distinguish metric kinds): ``{"counters": ..., "gauges": ...,
        "timers": ...}`` with timers flattened to ``<name>.seconds`` /
        ``<name>.calls``.

        With ``shard`` given, every name is rendered through
        :func:`labeled` as ``name{shard="K"}`` so registries from
        several shard workers can be merged into one namespace without
        collisions — the sharded ``repro stats --prometheus`` path.
        """
        with self._lock:
            timers: dict[str, Number] = {}
            for name, (seconds, calls) in self._timers.items():
                timers[f"{name}.seconds"] = seconds
                timers[f"{name}.calls"] = calls
            kinds = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": timers,
            }
        if shard is None:
            return kinds
        return {
            kind: {
                labeled(name, shard=shard): value
                for name, value in series.items()
            }
            for kind, series in kinds.items()
        }

    def describe(self) -> str:
        """One ``name = value`` line per metric, sorted by name."""
        lines = [
            f"{name} = {value}"
            for name, value in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) if lines else "(no metrics recorded)"
