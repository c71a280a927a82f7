"""A small worker-pool context handed to each subcommand by the CLI.

Only ``select``'s Monte Carlo trials run on it: mesh reports ran slower on
two threads than on one, so they count on the calling thread.  ``map``
hands each thread one contiguous chunk of the items, not one task per
item, and joins the chunks' results in input order, so floating-point
reductions stay deterministic regardless of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

__all__ = ["Parallelism", "THREADS_MAX"]

# desk limit on worker threads: map starts one thread per chunk, `threads` chunks at most
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
        size = -(-len(items) // self.threads)  # the chunks: threads of them at most
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(lambda chunk: [fn(x) for x in chunk], chunks))
        return iter([result for chunk in done for result in chunk])
