import math

import numpy as np

from sidonlab.rng import bernoulli, stream


def test_bernoulli_equals_the_uniform_comparison():
    # the raw-word comparison gives rng.random(k) < p's mask and leaves the
    # stream where random(k) does
    for p in (0.0, 2.0**-53, 3 * 2.0**-53, 0.002, 0.5, 1 - 2.0**-53):
        for k in (0, 1, 7, 1000):
            a, b = stream(5, k), stream(5, k)
            assert np.array_equal(bernoulli(a, p, k), b.random(k) < p)
            assert a.random(9).tobytes() == b.random(9).tobytes()
    # words at the edges of the threshold: r >> 11 = c - 1 is below p, c is not
    class Words:
        def __init__(self, words):
            self.bit_generator = self
            self.words = np.array(words, np.uint64)

        def random_raw(self, k):
            return self.words[:k]

    for p in (2.0**-53, 3 * 2.0**-53, 0.002, 0.1, 0.5, 1 - 2.0**-53):
        c = math.ceil(p * 2.0**53)
        words = [(c - 1) << 11, ((c - 1) << 11) + 2047, c << 11, 2**64 - 1]
        uniform = [(w >> 11) * 2.0**-53 for w in words]
        assert bernoulli(Words(words), p, 4).tolist() == [u < p for u in uniform] == [
            True, True, False, False]
