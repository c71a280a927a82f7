"""A small worker-pool context handed to each subcommand by the CLI.

Only ``select``'s Monte Carlo trials run on it: mesh reports ran slower on
two threads than on one, so they count on the calling thread.  Results keep
input order so floating-point reductions stay deterministic regardless of
thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

__all__ = ["Parallelism", "default_threads"]

ENV_VAR = "SIDONLAB_THREADS"


def default_threads() -> int:
    value = os.environ.get(ENV_VAR, "").strip()
    if value.isascii() and value.isdigit() and int(value) > 0:  # '²'.isdigit() is True
        return int(value)
    return 1


class Parallelism:
    """Order-preserving map over a fixed-size thread pool."""

    def __init__(self, threads: int | None = None):
        self.threads = threads if threads and threads > 0 else default_threads()

    def map(self, fn: Callable, items: Iterable) -> Iterator:
        items = list(items)
        if self.threads == 1 or len(items) <= 1:
            return iter([fn(x) for x in items])
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return iter(list(pool.map(fn, items)))
