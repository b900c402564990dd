"""Multiprocessing fan-out for multi-seed / multi-config experiments.

One config per worker: callers hand :func:`parallel_map` a picklable
module-level function and a list of work items, and get results back in
item order — so a parallel run is *bit-for-bit identical* to the
sequential one, just faster.  Everything degrades gracefully: ``jobs <=
1``, a single item, or an environment where worker processes cannot be
created (restricted sandboxes) all fall back to an in-process loop.  A
worker's exception re-raises at the caller; a worker that dies outright
raises :class:`concurrent.futures.process.BrokenProcessPool` rather than
leaving the caller waiting for its result.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _pool_context():
    """Prefer fork (cheap, inherits warm caches); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], jobs: int
) -> List[R]:
    """``[fn(item) for item in items]``, fanned out over ``jobs`` workers.

    ``fn`` must be defined at module level (picklable); results preserve
    item order.  With ``jobs <= 1``, one item, or no usable worker pool
    the map runs sequentially in-process.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported only when a pool is needed, so in-process maps skip it.
    from concurrent.futures import ProcessPoolExecutor

    try:
        pool = ProcessPoolExecutor(
            min(jobs, len(items)), mp_context=_pool_context()
        )
    except (OSError, ValueError):  # e.g. sandbox without semaphores
        return [fn(item) for item in items]
    with pool:
        return list(pool.map(fn, items))
