"""A small worker-pool context handed to each subcommand by the CLI.

Only ``select``'s Monte Carlo trials run on it: mesh reports ran slower on
two threads than on one, so they count on the calling thread.  Results keep
input order so floating-point reductions stay deterministic regardless of
thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

__all__ = ["Parallelism", "THREADS_MAX"]

# desk limit on worker threads: a pool may start one thread per queued task
THREADS_MAX = 64


class Parallelism:
    """Order-preserving map over a fixed-size thread pool of `threads` >= 1."""

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError(f"need threads >= 1, got {threads}")
        self.threads = threads

    def map(self, fn: Callable, items: Iterable) -> Iterator:
        items = list(items)
        if self.threads == 1 or len(items) <= 1:
            return iter([fn(x) for x in items])
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return iter(list(pool.map(fn, items)))
