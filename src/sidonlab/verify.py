"""Deciding quasi-independence of finite sets of group elements.

A set is quasi-independent when no nontrivial coefficient vector over
{-1, 0, +1} annihilates it.  Two routes are provided:

* ``verify_qi_exhaustive`` -- meet-in-the-middle over the 3^N sign vectors
  (the Horowitz-Sahni split), exact, with an explicit witness on failure.
  Signed sums are joined on the int64 row keys of :mod:`sidonlab.core`, and
  every key match is confirmed by the exact signed sum of the points;
* ``verify_qi_structural`` -- the fast inductive check for matrices produced
  by the doubling recursion in :mod:`sidonlab.construction`.

``verify_qi_naive`` is the deliberately simple single-loop enumeration kept
as a second, independent oracle for small N.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import KEY_MOD, LatticePoint, ResourceCapError, SignVector, add_keys, row_keys
from .core import signed_combination

__all__ = [
    "DependencyWitness",
    "QiResourceError",
    "verify_qi_exhaustive",
    "verify_qi_naive",
    "verify_qi_structural",
]

N_MAX_DEFAULT = 24  # desk limit: a left half-table of at most 3^12 entries

_SIGNS = (0, 1, -1)  # base-3 digit d of a sign index stands for _SIGNS[d]
_SIGN_CHUNK = 2**10  # sign indices whose sign vectors are built at once


class QiResourceError(ResourceCapError):
    """Search space exceeds the configured cap (never silently truncated)."""


@dataclass(frozen=True)
class DependencyWitness:
    """A nonzero sign vector whose signed combination vanishes."""

    eps: SignVector

    def __post_init__(self):
        if self.eps.is_zero():
            raise ValueError("a dependency witness must be nonzero")

    def validates(self, elements: Sequence) -> bool:
        if len(elements) != len(self.eps):
            return False
        s = signed_combination(elements, self.eps)
        return s.is_zero()


def _extend(sums: np.ndarray, key) -> np.ndarray:
    """Each key sum followed by sum + key and sum - key (sign order 0, 1, -1)."""
    return np.stack([sums, add_keys(sums, key), add_keys(sums, -key % KEY_MOD)], axis=1).ravel()


def _sign_rows(indices: np.ndarray, length: int):
    """The sign vectors of base-3 indices, most significant digit first, as
    int64 rows: yields (indices, signs) for _SIGN_CHUNK indices at a time,
    their digits taken in one array operation."""
    powers = 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)
    for start in range(0, len(indices), _SIGN_CHUNK):
        chunk = indices[start:start + _SIGN_CHUNK]
        yield chunk, np.array(_SIGNS)[chunk[:, None] // powers % 3]


def _sign_vector(index: int, length: int) -> tuple[int, ...]:
    """The sign vector of one base-3 index, as _sign_rows orders it."""
    return tuple(_SIGNS[index // 3**k % 3] for k in range(length - 1, -1, -1))


def _witness(signs: tuple[int, ...], n: int) -> DependencyWitness:
    """The witness of n signs that starts with the given ones, zero-padded."""
    return DependencyWitness(SignVector(signs + (0,) * (n - len(signs))))


def _sums_of(rows: list[tuple[int, ...]]) -> Callable[[np.ndarray, int], np.ndarray]:
    """sums(signs, start): for each row of signs, the exact signed sum of
    rows start, start + 1, ... as one row of int64 digits, equal exactly
    when the sums are equal, and all 0 exactly when the sum is 0.

    No coordinate of such a sum exceeds sum_i max|row i|.  Below 2^63 the
    digits are the coordinates, one int64 product a chunk of sign rows.
    Otherwise each coordinate is written in L digits of B bits, the top one
    signed, with n 2^B < 2^62 so that the digits' signed sums stay in
    int64; the product's digits are then carried until all but the top one
    lie in [0, 2^B), which writes each sum one way.
    """
    n, dim = len(rows), len(rows[0])
    if sum(max(map(abs, row), default=0) for row in rows) < 2**63:
        width, count = 0, 1
    else:
        width = 62 - n.bit_length()
        count = max(abs(x) for row in rows for x in row).bit_length() // width + 1
    mask = (1 << width) - 1
    digits = np.array([[x >> (width * k) & mask if k < count - 1 else x >> (width * k)
                        for x in row for k in range(count)] for row in rows], dtype=np.int64)
    digits = digits.reshape(n, dim * count)

    def sums(signs: np.ndarray, start: int) -> np.ndarray:
        out = (signs @ digits[start:start + signs.shape[1]]).reshape(len(signs), dim, count)
        for k in range(count - 1):
            out[:, :, k + 1] += out[:, :, k] >> width
            out[:, :, k] &= mask
        return out.reshape(len(signs), dim * count)

    return sums


def verify_qi_exhaustive(
    elements: Sequence,
    n_max: Optional[int] = None,
) -> tuple[bool, Optional[DependencyWitness]]:
    """Exhaustive quasi-independence test by meet-in-the-middle.

    Signed sums are taken of the points' ``core.row_keys`` keys, which are
    linear, so a vanishing combination has key sum 0; each key sum of 0 is
    confirmed on the exact rows, whose signed sums are taken for a chunk of
    sign vectors at a time as one int64 product (see _sums_of).  The left
    half's 3^(N//2) sums are built element by element (sum, sum + key,
    sum - key), so position i holds the prefix of base-3 index i, and
    after each step the first exactly
    vanishing prefix in index order is returned.  The right half's sums, in
    ``itertools.product((0, 1, -1))`` order, are joined against the sorted
    left sums: the first nonzero right vector with an exact match gives the
    witness, with the smallest left index among its exact matches.

    Returns (True, None) when quasi-independent, else (False, witness).
    Raises QiResourceError when len(elements) > n_max (N_MAX_DEFAULT when
    None), and TypeError when an element is not a LatticePoint
    (``verify_qi_naive`` takes any type).
    """
    n = len(elements)
    n_max = N_MAX_DEFAULT if n_max is None else n_max
    if n > n_max:
        raise QiResourceError(
            f"{n} elements exceed the cap of {n_max} (3^{n} sign vectors)"
        )
    if n == 0:
        return True, None
    for el in elements:
        if not isinstance(el, LatticePoint):
            raise TypeError(f"verify_qi_exhaustive takes LatticePoints, got {type(el).__name__}")
    dim = max(el.dim for el in elements)
    rows = [el.coords + (0,) * (dim - el.dim) for el in elements]
    keys = row_keys(rows)
    n_left = n // 2
    sums = _sums_of(rows)

    left = np.zeros(1, dtype=np.int64)
    for step, key in enumerate(keys[:n_left]):
        left = _extend(left, key)
        zero = np.flatnonzero(left == 0)
        # a prefix ending in sign 0 is the prefix before it, confirmed a step
        # earlier (index 0, the all-zero prefix, among them)
        for chunk, signs in _sign_rows(zero[zero % 3 != 0], step + 1):
            vanish = np.flatnonzero(~sums(signs, 0).any(axis=1))
            if len(vanish):
                return False, _witness(_sign_vector(int(chunk[vanish[0]]), step + 1), n)

    right = np.zeros(1, dtype=np.int64)
    for key in keys[n_left:]:
        right = _extend(right, key)
    ranked = np.sort(left)
    need = (KEY_MOD - right) % KEY_MOD
    pos = np.minimum(np.searchsorted(ranked, need), len(ranked) - 1)
    hit = ranked[pos] == need
    hit[0] = False  # the all-zero right vector
    # Per hit key, the (digits of the exact sum, index) pairs of the left sums
    # with that key, sorted, so a right vector costs one bisection however
    # many left sums share its key.  Not a dict: Python hashes an int by its residue mod
    # 2^61 - 1 = KEY_MOD, so sums that share a key can share a hash too (all
    # do for points c * KEY_MOD), and a dict of them degrades to a scan.
    exact: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for chunk, signs in _sign_rows(np.flatnonzero(hit), n - n_left):
        for j, target in zip(chunk.tolist(), map(tuple, sums(-signs, n_left).tolist())):
            key = int(need[j])
            if key not in exact:
                exact[key] = sorted(
                    (total, i)
                    for found, left_signs in _sign_rows(np.flatnonzero(left == key), n_left)
                    for i, total in zip(found.tolist(), map(tuple, sums(left_signs, 0).tolist()))
                )
            table = exact[key]
            pos = bisect_left(table, (target,))  # the smallest index with this sum
            if pos < len(table) and table[pos][0] == target:
                left_signs = _sign_vector(table[pos][1], n_left)
                return False, _witness(left_signs + _sign_vector(j, n - n_left), n)
    return True, None


def verify_qi_naive(
    elements: Sequence,
    n_max: int = 12,
) -> tuple[bool, Optional[DependencyWitness]]:
    """Single-loop enumeration of all 3^N sign vectors (independent oracle).

    LatticePoints are converted once to zero-padded int tuples and summed
    coordinate by coordinate; any other element type is summed with its own
    + and -, starting from e - e.  Returns the first annihilating sign
    vector in ``itertools.product((0, 1, -1))`` order.
    """
    n = len(elements)
    if n > n_max:
        raise QiResourceError(f"{n} elements exceed the naive cap of {n_max}")
    if n == 0:
        return True, None
    if all(isinstance(el, LatticePoint) for el in elements):
        dim = max(el.dim for el in elements)
        items = [el.coords + (0,) * (dim - el.dim) for el in elements]
        zero = (0,) * dim

        def add(a, b):
            return tuple(map(operator.add, a, b))

        def sub(a, b):
            return tuple(map(operator.sub, a, b))

    else:
        items = list(elements)
        zero = elements[0] - elements[0]
        add, sub = operator.add, operator.sub
    for signs in itertools.product((0, 1, -1), repeat=n):
        if not any(signs):
            continue
        acc = zero
        for el, s in zip(items, signs):
            if s == 1:
                acc = add(acc, el)
            elif s == -1:
                acc = sub(acc, el)
        if acc == zero:
            return False, DependencyWitness(SignVector(signs))
    return True, None


def verify_qi_structural(m) -> bool:
    """Inductive quasi-independence check for doubling-recursion matrices.

    Verifies the block shape level by level: trailing identity atop zeros,
    and the two leading blocks repeating the previous level with a sign
    flip.  When the shape holds, any annihilating sign vector must kill the
    identity block mod 2 (hence exactly) and reduce to two lower-level
    relations, so the check recurses down to the 2x3 base case, which is
    verified exhaustively.

    Dimension or entry-range violations raise ValueError; a broken block
    shape (the induction fails to close) returns False.
    """
    from .construction import BASE_MATRIX, n_nu

    entries = np.asarray(m.entries if hasattr(m, "entries") else m)
    nu = getattr(m, "nu", None)
    if nu is None:
        raise ValueError("expected a QiMatrix")
    if entries.shape != (2**nu, n_nu(nu)):
        raise ValueError(
            f"level-{nu} matrix must be {2**nu} x {n_nu(nu)}, got {entries.shape}"
        )
    if not np.isin(entries, (-1, 0, 1)).all():
        raise ValueError("entries must lie in {-1, 0, +1}")

    block = entries
    level = nu
    while level > 1:
        half = 2 ** (level - 1)
        prev_cols = n_nu(level - 1)
        a_top = block[:half, :prev_cols]
        b_top = block[:half, prev_cols : 2 * prev_cols]
        a_bot = block[half:, :prev_cols]
        b_bot = block[half:, prev_cols : 2 * prev_cols]
        tail_top = block[:half, 2 * prev_cols :]
        tail_bot = block[half:, 2 * prev_cols :]
        shape_ok = (
            np.array_equal(a_top, b_top)
            and np.array_equal(a_top, a_bot)
            and np.array_equal(b_bot, -a_top)
            and np.array_equal(tail_top, np.eye(half, dtype=entries.dtype))
            and not tail_bot.any()
        )
        if not shape_ok:
            return False
        block = a_top
        level -= 1
    if not np.array_equal(block, np.asarray(BASE_MATRIX, dtype=entries.dtype)):
        return False
    cols = [LatticePoint(tuple(int(x) for x in block[:, j])) for j in range(3)]
    ok, _ = verify_qi_exhaustive(cols)
    return ok
