"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by
(master seed, path...).  Streams for different paths are statistically
independent, order-independent, and safe to draw from in parallel workers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["stream", "bernoulli"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """A Philox generator for the given (seed, path) coordinates.

    Path elements may be arbitrarily large; each is split into 32-bit limbs
    (with a length marker) so distinct paths never collide.
    """
    key: list[int] = []
    for p in path:
        p = int(p)
        limbs = []
        while True:
            limbs.append(p & 0xFFFFFFFF)
            p >>= 32
            if p == 0:
                break
        key.append(len(limbs))
        key.extend(limbs)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def bernoulli(rng: np.random.Generator, p: float, count: int) -> np.ndarray:
    """The mask rng.random(count) < p, for 0 <= p < 1, from the same raw
    words, and the stream left where rng.random(count) leaves it.

    random() makes a raw 64-bit word r into (r >> 11) / 2^53, which is below
    p exactly when r >> 11 < ceil(p 2^53), that is when
    r < ceil(p 2^53) << 11, a bound below 2^64 for p < 1.
    """
    return rng.bit_generator.random_raw(count) < math.ceil(p * 2.0**53) << 11
