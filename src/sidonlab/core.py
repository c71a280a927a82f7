"""Exact arithmetic carriers: points of Z^n and vectors over Z/pZ.

Everything here is an immutable value object with exact integer arithmetic
(Python ints, so coordinates may grow without bound), plus rank computation
over prime fields by Gaussian elimination.  Every exact join keys rows by one
int64 key (``row_keys``, ``add_keys``), keeps key hits (``key_hits``) and confirms
them on exact digit rows (``exact_rows``) joined by one sort (``first_matches``).
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "is_prime",
    "next_prime",
    "FpVector",
    "LatticePoint",
    "SignVector",
    "signed_combination",
    "fp_rank",
    "is_free",
    "KEY_MOD",
    "row_keys",
    "add_keys",
    "key_hits",
    "exact_rows",
    "first_matches",
    "ConfigError",
    "ResourceCapError",
]

# Witnesses for deterministic Miller-Rabin below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ConfigError(ValueError):
    """A value no run can use; the CLI maps it to exit status 2."""


class ResourceCapError(MemoryError):
    """A search or enumeration would exceed its desk limit.

    Every limit is one module constant, checked where it applies and raised
    as this type instead of truncating, so a cap never reads as a result;
    the CLI maps it to exit status 2.
    """


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(2, n + 1)
    if k > 2 and k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 1 if k == 2 else 2
    return k


@dataclass(frozen=True)
class FpVector:
    """A vector in (Z/pZ)^nu, coordinates stored reduced to [0, p)."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if len(self.coords) < 1:
            raise ValueError("FpVector needs at least one coordinate")
        object.__setattr__(
            self, "coords", tuple(int(c) % self.p for c in self.coords)
        )

    @property
    def nu(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @classmethod
    def zero(cls, p: int, nu: int) -> "FpVector":
        return cls(p, (0,) * nu)

    def _check(self, other: "FpVector") -> None:
        if self.p != other.p or self.nu != other.nu:
            raise ValueError("mixed moduli or dimensions")

    def __add__(self, other: "FpVector") -> "FpVector":
        self._check(other)
        return FpVector(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FpVector") -> "FpVector":
        self._check(other)
        return FpVector(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FpVector":
        return FpVector(self.p, tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "FpVector":
        return FpVector(self.p, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def centered(self) -> tuple[int, ...]:
        """Coordinates as the representatives in [-(p-1)/2, (p-1)/2]."""
        half = self.p // 2
        return tuple(c - self.p if c > half else c for c in self.coords)


def _strip(coords: Iterable[int]) -> tuple[int, ...]:
    out = list(int(c) for c in coords)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class LatticePoint:
    """A point of Z^n with exact integer coordinates.

    Canonical form strips trailing zeros so that (2, 0) == (2,); the zero
    point is the empty tuple.  The lab keeps a point of Z as a plain int.
    """

    coords: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coords", _strip(self.coords))

    @classmethod
    def zero(cls) -> "LatticePoint":
        return cls(())

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        n = max(self.dim, other.dim)
        a = self.coords + (0,) * (n - self.dim)
        b = other.coords + (0,) * (n - other.dim)
        return LatticePoint(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return self + (-other)

    def __neg__(self) -> "LatticePoint":
        return LatticePoint(tuple(-x for x in self.coords))

    def __mul__(self, n: int) -> "LatticePoint":
        return LatticePoint(tuple(n * x for x in self.coords))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SignVector:
    """A coefficient vector over {-1, 0, +1}."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if any(s not in (-1, 0, 1) for s in signs):
            raise ValueError("signs must lie in {-1, 0, +1}")
        object.__setattr__(self, "signs", signs)

    def __len__(self) -> int:
        return len(self.signs)

    def is_zero(self) -> bool:
        return all(s == 0 for s in self.signs)

    def __neg__(self) -> "SignVector":
        return SignVector(tuple(-s for s in self.signs))


def signed_combination(elements: Sequence, eps: SignVector):
    """Sum eps_i * elements[i] with exact arithmetic.

    Works for LatticePoint and any element type supporting +, unary -, and
    a zero obtainable as e - e.
    """
    if len(elements) != len(eps):
        raise ValueError(
            f"length mismatch: {len(elements)} elements, {len(eps)} signs"
        )
    if not elements:
        return LatticePoint.zero()
    acc = elements[0] - elements[0]
    for el, s in zip(elements, eps.signs):
        if s == 1:
            acc = acc + el
        elif s == -1:
            acc = acc - el
    return acc


def fp_rank(vectors: Sequence[FpVector]) -> int:
    """Rank over F_p of a list of vectors, by Gaussian elimination.

    Returns 0 for the empty list.  All vectors must share p and nu.
    """
    if not vectors:
        return 0
    p = vectors[0].p
    nu = vectors[0].nu
    for v in vectors:
        if v.p != p or v.nu != nu:
            raise ValueError("mixed moduli or dimensions")
    rows = [list(v.coords) for v in vectors]
    rank = 0
    for col in range(nu):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [inv * x % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def is_free(vectors: Sequence[FpVector]) -> bool:
    """True iff the vectors are linearly independent over F_p."""
    return fp_rank(vectors) == len(vectors)


# Keys of every exact join are residues mod this Mersenne prime: a sum of two
# stays below 2^62, in int64.
KEY_MOD = 2**61 - 1


@functools.lru_cache(maxsize=None)
def _key_weights(dim: int) -> np.ndarray:
    """The fixed column weights W_0 = 1, W_1, ..., W_{dim-1}, all below 2^31."""
    draw = random.Random(KEY_MOD).getrandbits
    weights = np.array([1] + [draw(31) for _ in range(dim - 1)], dtype=np.int64)[:dim]
    weights.flags.writeable = False  # one cached array serves every caller
    return weights


def row_keys(rows) -> np.ndarray:
    """key(r) = sum_c r[c] * W_c mod KEY_MOD for every row, as int64.

    The key is linear, and an integer x (a row of one column) keys as x mod
    KEY_MOD.  Distinct rows may share a key, so every join confirms its hits
    exactly on the rows.  A 2-D integer array with dim * max|entry| < 2^32 is
    keyed by one int64 matrix product, which cannot overflow (W_c < 2^31);
    any other rows are keyed one by one in Python ints.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        dim = rows.shape[1]
        peak = max(-int(rows.min()), int(rows.max()))
        if dim * peak < 2**32:
            return rows.astype(np.int64, copy=False) @ _key_weights(dim) % KEY_MOD
        rows = rows.tolist()
    weights = _key_weights(max(map(len, rows), default=0)).tolist()
    return np.array([sum(map(operator.mul, r, weights)) % KEY_MOD for r in rows], np.int64)


def add_keys(a, b) -> np.ndarray:
    """(a + b) mod KEY_MOD for keys a and b, both in [0, KEY_MOD)."""
    total = a + b  # below 2^62
    np.subtract(total, KEY_MOD, out=total, where=total >= KEY_MOD)
    return total


def key_hits(sorted_keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Which needles equal some key, by one ``np.searchsorted`` per needle (faster
    sorted) and a ``take``.  ``key_hits(np.sort(needles), sorted_keys)`` marks the keys hit."""
    if not len(sorted_keys):
        return np.zeros(len(needles), dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, needles), mode="clip") == needles


def exact_rows(coeffs, terms) -> np.ndarray:
    """The sums sum_i C[r, i] * terms[i] for the rows r of int64 coefficients
    C, as canonical int64 digit rows; terms are integers or points
    (equal-length tuples of integers) of any size.  Terms past C's last
    column come back as rows of their own after the sums (C is read as
    [[C, 0], [0, I]]), so a join against plain values takes one call.

    Each coordinate is written in L digits of 32 bits, L the least with
    |x| < 2^(32 L - 1) for every coordinate x of every term: all digits but
    the top one in [0, 2^32), the top one signed.  So rows are equal exactly
    when the sums are, and all 0 exactly when the sum is 0.  L depends on
    the terms alone, so calls with the same terms write one format.  No
    int64 overflows while W = sum_i max|C[:, i]| <= 2^30 (else ValueError):
    term digits lie in [-2^31, 2^32), a sum's digit is at most W 2^32 <=
    2^62 in size, and a carry at most 2^30 + 1.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    points = [(t,) if isinstance(t, int) else tuple(t) for t in terms]
    if sum(np.abs(coeffs).max(axis=0, initial=0).tolist()) > 2**30:
        raise ValueError("coefficient rows with sum_i max|C[:, i]| > 2^30")
    count = max(abs(x) for point in points for x in point).bit_length() // 32 + 1
    raw = b"".join(x.to_bytes(4 * count, "little", signed=True) for point in points for x in point)
    digits = np.frombuffer(raw, dtype="<u4").astype(np.int64).reshape(len(points), -1, count)
    digits[:, :, -1] -= digits[:, :, -1] >> 31 << 32  # the top digit is signed
    n, width = coeffs.shape[1], digits[0].size
    sums = (coeffs @ digits[:n].reshape(n, width)).reshape(len(coeffs), *digits.shape[1:])
    while (carry := sums[:, :, :-1] >> 32).any():  # carries ripple up, each pass moving them on
        sums[:, :, :-1] &= 0xFFFFFFFF
        sums[:, :, 1:] += carry
    return np.concatenate([sums, digits[n:]]).reshape(len(coeffs) + len(points) - n, width)


def first_matches(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """For each right row, the least index of an equal left row, else -1: one
    stable ``np.lexsort`` on the columns not alike in every row puts equal rows
    together, left ones first in index order; each run's first row answers."""
    rows = np.concatenate([left, right])
    rows = rows[:, (rows != rows[:1]).any(axis=0) | (np.arange(rows.shape[1]) == 0)]
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))[:len(rows)]
    first = order[starts][np.cumsum(starts) - 1]  # the first row of each position's run
    out = np.empty(len(rows), dtype=np.int64)
    out[order] = np.where(first < len(left), first, -1)
    return out[len(left):]
