"""Exact arithmetic carriers: points of Z^n and vectors over Z/pZ.

Everything here is an immutable value object with exact integer arithmetic
(Python ints, so coordinates may grow without bound), plus rank computation
over prime fields by Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "is_prime",
    "next_prime",
    "FpVector",
    "LatticePoint",
    "SignVector",
    "signed_combination",
    "fp_rank",
    "is_free",
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
    point is the empty tuple.  Integers embed as one-coordinate points.
    """

    coords: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coords", _strip(self.coords))

    @classmethod
    def from_int(cls, x: int) -> "LatticePoint":
        return cls((int(x),))

    @classmethod
    def zero(cls) -> "LatticePoint":
        return cls(())

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def as_int(self) -> int:
        """The value of a point of Z (dimension <= 1)."""
        if self.dim > 1:
            raise ValueError("not a one-dimensional point")
        return self.coords[0] if self.coords else 0

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
