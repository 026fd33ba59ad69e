"""A thread-pool executor for share-nothing block tasks.

The independence decomposition guarantees block tasks touch disjoint
relations, so they can run on a thread pool over shared immutable
inputs.  Putting blocks on other processes is the shard tier's job
(:mod:`repro.shard`).

``workers=1`` — the default everywhere — never builds a pool and runs
tasks inline, preserving single-threaded behavior byte-for-byte.

Tasks run under :func:`contextvars.copy_context`, so the caller's
ambient tracer (see :mod:`repro.obs.spans`) keeps collecting the spans
a worker emits.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


class ParallelExecutor:
    """Map a function over independent items on a thread pool.

    The pool is created lazily on the first parallel map and reused for
    the executor's lifetime; :meth:`close` (or use as a context manager)
    shuts it down.  With ``workers <= 1`` or fewer than two items the
    map degenerates to an inline loop — no pool, no threads.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-block",
                )
            return self._pool

    def map(
        self,
        function: Callable[[Item], Result],
        items: Iterable[Item],
    ) -> List[Result]:
        """Apply ``function`` to every item; results in item order.

        The first task exception propagates to the caller (remaining
        tasks are left to finish in the pool — block tasks are pure
        functions of their inputs, so abandoning them is safe)."""
        materialized: Sequence[Item] = list(items)
        if self.workers <= 1 or len(materialized) <= 1:
            return [function(item) for item in materialized]
        pool = self._ensure_pool()
        # Propagate contextvars (the ambient span tracer) into the pool:
        # ThreadPoolExecutor workers do not inherit them.
        futures = [
            pool.submit(contextvars.copy_context().run, function, item)
            for item in materialized
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"
