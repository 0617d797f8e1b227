"""ParallelSweeper: deterministic process-parallel fan-out.

Evaluating one design candidate is pure CPU work with no shared state,
so sweeps fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
Three properties the engine guarantees:

* **order-preserving merge** — results come back in input order
  (``executor.map``), so downstream consumers (Pareto sets, tables) see
  exactly the sequence the serial loop would produce;
* **bit-identical results** — every task runs the same pure Python
  arithmetic on the same inputs, so parallel output equals serial output
  bit for bit (asserted in ``tests/test_engine.py``);
* **cache merging** — each worker reports the evaluation records it
  computed; the parent absorbs them into the process-global
  :class:`~repro.engine.cache.EvalCache`, so a parallel cold sweep warms
  the parent exactly like a serial one.

A fourth property is *crash tolerance*: a worker process dying (OOM
kill, segfault, ``os._exit``) surfaces as
:class:`~concurrent.futures.process.BrokenProcessPool` and poisons the
whole pool. The sweeper keeps the already-yielded (ordered) prefix of
results, retries the remainder on a fresh pool, and — if pools keep
breaking — finishes the remainder serially in-process. Tasks are pure,
so recomputation changes nothing: results and cache contents match the
serial run exactly either way. Ordinary task exceptions (a ValueError
from bad input) are *not* retried; they propagate unchanged, as in the
serial loop.

On Linux the pool forks, so workers inherit the parent's warm module and
result caches at no cost; tasks already cached in the parent return
without recomputation.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, Sequence

from repro.engine.cache import get_cache
from repro.obs.metrics import metrics


def available_workers() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cached_call(payload: tuple[Callable[[Any], Any], Any]
                 ) -> tuple[Any, dict[str, Any]]:
    """Worker-side wrapper: run the task, return (result, new cache entries).

    With a forked worker the inherited cache already holds the parent's
    entries, so ``export_since`` ships only what this task added.
    """
    task, item = payload
    cache = get_cache()
    before = cache.keys()
    result = task(item)
    return result, cache.export_since(before)


class ParallelSweeper:
    """Fans a task over items with chunking and order-preserving merge.

    ``workers=None`` sizes the pool to the available CPUs; ``workers=1``
    (or a single item) degrades to a plain in-process loop, which is the
    reference the parallel path must match bit for bit.

    The sweeper also detects when fan-out is a *loss* and falls back to
    the serial loop itself: a requested pool wider than the CPUs this
    process may actually use (``os.sched_getaffinity``) only adds fork
    and IPC overhead on top of time-sliced execution — on a 1-CPU box a
    2-worker DSE sweep measured ~18% *slower* than serial. Effective width is ``min(workers, CPUs, items)``; at 1, the
    pool is skipped entirely. Results are bit-identical either way, so
    the fallback is observable only as speed. ``force_parallel=True``
    opts out (tests of the pool plumbing itself).

    ``pool_retries`` bounds how many *fresh* pools are tried after a
    :class:`BrokenProcessPool` before the remaining items run serially;
    only items whose results were not yet yielded are re-executed.
    """

    def __init__(self, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 start_method: Optional[str] = None,
                 force_parallel: bool = False,
                 pool_retries: int = 1) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if pool_retries < 0:
            raise ValueError("pool_retries must be non-negative")
        self.workers = workers if workers is not None else available_workers()
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.force_parallel = force_parallel
        self.pool_retries = pool_retries

    def effective_workers(self, item_count: int) -> int:
        """Pool width that actually pays: capped by CPU affinity and grid."""
        width = min(self.workers, item_count)
        if not self.force_parallel:
            width = min(width, available_workers())
        return max(1, width)

    # ----------------------------------------------------------------- plumbing

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        # Prefer fork: cheap start-up and free cache inheritance.
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _chunksize(self, count: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        # ~4 chunks per worker balances load without per-item IPC.
        return max(1, -(-count // (self.workers * 4)))

    def _resilient_map(self, task: Callable[[Any], Any], items: list[Any],
                       pool_size: int) -> list[Any]:
        """Pool map that survives worker crashes.

        ``executor.map`` yields results in input order, so on a
        :class:`BrokenProcessPool` the consumed prefix is exact — those
        items are done and correct. The remainder is retried on a fresh
        pool up to ``pool_retries`` times, then finished serially. Tasks
        are pure, so the merged result equals the all-serial run.
        """
        reg = metrics()
        results: list[Any] = []
        for _attempt in range(1 + self.pool_retries):
            pending = items[len(results):]
            if not pending:
                return results
            try:
                with ProcessPoolExecutor(
                        max_workers=min(pool_size, len(pending)),
                        mp_context=self._context()) as pool:
                    for result in pool.map(
                            task, pending,
                            chunksize=self._chunksize(len(pending))):
                        results.append(result)
                return results
            except BrokenProcessPool:
                reg.count("engine.pool.broken_pools")
                if _attempt < self.pool_retries:
                    reg.count("engine.pool.retries")
                continue  # crashed worker: fresh pool for the remainder
        # Pools keep dying (or none survive a single attempt): the serial
        # loop cannot crash the parent, so it is the terminal fallback.
        remainder = items[len(results):]
        reg.count("engine.pool.serial_fallbacks")
        reg.count("engine.pool.crash_recovered_items", len(remainder))
        results.extend(task(item) for item in remainder)
        return results

    # --------------------------------------------------------------------- map

    def map(self, task: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        """``[task(i) for i in items]``, possibly across processes.

        ``task`` must be a module-level callable (picklable). Results are
        returned in input order regardless of completion order, and
        worker crashes degrade to retry/serial instead of aborting.
        """
        items = list(items)
        pool_size = self.effective_workers(len(items))
        reg = metrics()
        if reg.enabled:
            reg.counter("engine.pool.maps").inc()
            reg.counter("engine.pool.items").inc(len(items))
            reg.gauge("engine.pool.workers").set(pool_size)
            if pool_size > 1 and len(items) > 1:
                reg.histogram("engine.pool.items_per_worker").observe(
                    len(items) / pool_size)
        if pool_size <= 1 or len(items) <= 1:
            reg.count("engine.pool.serial_maps")
            return [task(item) for item in items]
        return self._resilient_map(task, items, pool_size)

    def map_cached(self, task: Callable[[Any], Any],
                   items: Sequence[Any]) -> list[Any]:
        """:meth:`map`, plus merging worker cache entries into the parent.

        Serial execution updates the global cache directly; parallel
        execution ships each worker's new entries back and absorbs them,
        so a subsequent warm sweep hits in-process either way. A crashed
        worker loses nothing: its chunk is recomputed (fresh pool, then
        serial), and only complete (result, entries) pairs are merged,
        so the cache never holds a partial record.
        """
        items = list(items)
        if self.effective_workers(len(items)) <= 1 or len(items) <= 1:
            return [task(item) for item in items]
        pairs = self.map(_cached_call, [(task, item) for item in items])
        cache = get_cache()
        results: list[Any] = []
        for result, entries in pairs:
            cache.absorb(entries)
            results.append(result)
        return results
