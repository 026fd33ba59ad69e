"""Lightweight tracing spans reaching from the service into the engine.

A *span* measures one stage of work — a chase run, a join-pipeline
evaluation, a WAL append — and attaches counters describing how much
work the stage did (rule firings, tuples in/out, bytes).  Spans are
recorded into the active :class:`Tracer`, which aggregates them into
bounded per-stage latency histograms
(:class:`~repro.obs.histogram.LatencyHistogram`) and summed counters.

The active tracer is resolved through a :class:`contextvars.ContextVar`
with a process-global fallback:

* ``with tracing(tracer): ...`` activates a tracer for the current
  context (and thread) only — used by ``ShardRouter`` so concurrent
  sessions record into the router's tracer;
* :func:`install` sets the global fallback — used by the CLI's
  ``--trace`` flag and ``repro.bench`` so every stage in the process
  reports in.

When no tracer is active, :func:`span` returns a shared no-op handle:
the instrumented hot paths pay one context-var read and a ``with``
block, nothing else — no timestamps, no allocation per call.

Slow-op logging: a tracer constructed with ``slow_log`` writes one
JSONL line per span whose duration reaches ``slow_threshold`` seconds
(0.0 logs every span)::

    {"ts": 1754000000.123, "span": "chase.relations",
     "seconds": 0.0421, "counters": {"rows": 4096, "steps": 511}}
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import IO, Iterator, Optional, Union

from repro.obs.histogram import LatencyHistogram


class _NullSpan:
    """The shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    def add(self, counter: str, amount: float = 1) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One live measurement: times itself and carries counters."""

    __slots__ = ("_tracer", "name", "_counters", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self._counters: dict[str, float] = {}
        self._start = 0.0

    def add(self, counter: str, amount: float = 1) -> None:
        """Accumulate ``amount`` into the span's ``counter``."""
        counters = self._counters
        counters[counter] = counters.get(counter, 0) + amount

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_: object) -> bool:
        elapsed = time.perf_counter() - self._start
        self._tracer.record(self.name, elapsed, self._counters)
        return False


class Tracer:
    """Aggregates spans into per-stage histograms and counters.

    Thread-safe: the serving layer records spans from writer and reader
    threads concurrently.  ``slow_log`` (a path or open text handle)
    enables the JSONL slow-op log for spans at least ``slow_threshold``
    seconds long.
    """

    def __init__(
        self,
        slow_log: Union[str, Path, IO[str], None] = None,
        slow_threshold: float = 0.0,
    ) -> None:
        self._lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}  # guarded-by: _lock
        self._counters: dict[str, float] = {}  # guarded-by: _lock
        self.slow_threshold = slow_threshold
        self._slow_handle: Optional[IO[str]] = None  # guarded-by: _lock
        self._owns_handle = False
        if slow_log is not None:
            if hasattr(slow_log, "write"):
                self._slow_handle = slow_log  # type: ignore[assignment]
            else:
                self._slow_handle = open(slow_log, "a", encoding="utf-8")
                self._owns_handle = True

    # -- recording -------------------------------------------------------------
    def record(
        self,
        name: str,
        seconds: float,
        counters: Optional[dict[str, float]] = None,
    ) -> None:
        """Fold one finished span into the aggregates (and the slow-op
        log when it qualifies)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(seconds)
            if counters:
                aggregate = self._counters
                for counter, amount in counters.items():
                    key = f"{name}.{counter}"
                    aggregate[key] = aggregate.get(key, 0) + amount
            handle = self._slow_handle
            if handle is not None and seconds >= self.slow_threshold:
                handle.write(
                    json.dumps(
                        {
                            "ts": round(time.time(), 6),
                            "span": name,
                            "seconds": round(seconds, 9),
                            "counters": counters or {},
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    # -- reporting -------------------------------------------------------------
    def histograms(self) -> dict[str, LatencyHistogram]:
        """A shallow copy of the per-stage histograms (stable to
        iterate while spans keep arriving)."""
        with self._lock:
            return dict(self._histograms)

    def span_summaries(self) -> dict[str, dict[str, float]]:
        """Per-stage ``{count, sum, min, max, p50, p95, p99}`` dicts."""
        with self._lock:
            return {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            }

    def counter_snapshot(self) -> dict[str, float]:
        """The summed span counters (``<span>.<counter>`` → total)."""
        with self._lock:
            return dict(self._counters)

    def stats(self) -> dict[str, dict]:
        """Everything an operator asks for: histogram summaries plus
        the summed counters, JSON-ready."""
        return {
            "spans": self.span_summaries(),
            "counters": self.counter_snapshot(),
        }

    def flush(self) -> None:
        with self._lock:
            if self._slow_handle is not None:
                self._slow_handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._slow_handle is not None:
                self._slow_handle.flush()
                if self._owns_handle:
                    self._slow_handle.close()
                self._slow_handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()


#: Context-local active tracer; ``None`` falls back to the global one.
_tracer_var: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_tracer", default=None
)
_global_tracer: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The tracer spans record into right now (context-local first,
    then the installed global), or ``None`` when tracing is off."""
    tracer = _tracer_var.get()
    return tracer if tracer is not None else _global_tracer


def tracing_enabled() -> bool:
    return current_tracer() is not None


def span(name: str) -> Union[Span, _NullSpan]:
    """A measurement handle for the stage ``name``.

    Usage at every instrumentation point::

        with span("chase.relations") as sp:
            ...
            sp.add("steps", steps)

    Returns the shared no-op handle when no tracer is active, so
    disabled tracing costs one context-var read per call site.
    """
    tracer = _tracer_var.get()
    if tracer is None:
        tracer = _global_tracer
        if tracer is None:
            return NULL_SPAN
    return Span(tracer, name)


@contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Activate ``tracer`` for the current context (no-op for
    ``None``, so callers can pass an optional straight through)."""
    if tracer is None:
        yield None
        return
    token = _tracer_var.set(tracer)
    try:
        yield tracer
    finally:
        _tracer_var.reset(token)


def install(tracer: Optional[Tracer]) -> None:
    """Set (or with ``None`` clear) the process-global fallback tracer."""
    global _global_tracer
    _global_tracer = tracer
