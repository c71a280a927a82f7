"""Deciding quasi-independence of finite sets of group elements.

A set is quasi-independent when no nontrivial coefficient vector over
{-1, 0, +1} annihilates it.  Two routes are provided:

* ``verify_qi_exhaustive`` -- meet-in-the-middle over the 3^N sign vectors
  (the Horowitz-Sahni split), exact, with an explicit witness on failure.
  Signed sums are filtered by their int64 row keys with ``core.key_hits``, and
  the hits are confirmed by ``core.first_matches`` on the exact signed sums;
* ``verify_qi_structural`` -- the fast inductive check for matrices produced
  by the doubling recursion in :mod:`sidonlab.construction`.

``verify_qi_naive`` is the deliberately simple single-loop enumeration kept
as a second, independent oracle for small N.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import KEY_MOD, LatticePoint, ResourceCapError, SignVector, add_keys, exact_rows
from .core import first_matches, key_hits, row_keys, signed_combination

__all__ = [
    "DependencyWitness",
    "QiResourceError",
    "verify_qi_exhaustive",
    "verify_qi_naive",
    "verify_qi_structural",
]

N_MAX_DEFAULT = 24  # desk limit: a left half-table of at most 3^12 entries

_SIGNS = (0, 1, -1)  # base-3 digit d of a sign index stands for _SIGNS[d]
_SIGN_CHUNK = 2**12  # sign indices whose sign vectors are built at once


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
        rows = _lattice_rows(elements)
        if rows is None:
            return signed_combination(elements, self.eps).is_zero()
        return not any(sum(map(operator.mul, self.eps.signs, col)) for col in zip(*rows))


def _lattice_rows(elements: Sequence) -> Optional[list[tuple[int, ...]]]:
    """The points as zero-padded int tuples of one common length (at least
    1): an integer of any type is a point of Z, a LatticePoint its
    coordinates.  None when some element is neither."""
    if not all(isinstance(el, (numbers.Integral, LatticePoint)) for el in elements):
        return None
    coords = [el.coords if isinstance(el, LatticePoint) else (int(el),) for el in elements]
    dim = max([1, *map(len, coords)])
    return [c + (0,) * (dim - len(c)) for c in coords]


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


def _exact_sums(indices: np.ndarray, length: int, start: int, sign: int, rows: list) -> np.ndarray:
    """``core.exact_rows`` of sign times the signed sums of rows[start:start +
    length] by base-3 indices, over all rows so every call writes one format."""
    pad = ((0, 0), (start, len(rows) - start - length))
    return np.concatenate([exact_rows(np.zeros((0, len(rows)), np.int64), rows)] + [
        exact_rows(np.pad(sign * signs, pad), rows) for _, signs in _sign_rows(indices, length)])


def verify_qi_exhaustive(
    elements: Sequence,
    n_max: Optional[int] = None,
) -> tuple[bool, Optional[DependencyWitness]]:
    """Exhaustive quasi-independence test by meet-in-the-middle.

    Signed sums are taken of the points' ``core.row_keys`` keys, which are
    linear, so a vanishing combination has key sum 0; each key match is
    confirmed on ``core.exact_rows`` of the signed sums.  The left half's
    3^(N//2) sums are built element by element (sum, sum + key, sum - key),
    so position i holds the prefix of base-3 index i, and after each step
    the first exactly vanishing prefix in index order is returned.  The
    right half's sums, in ``itertools.product((0, 1, -1))`` order, that
    ``core.key_hits`` finds among the left keys are joined by ``first_matches``
    to the left sums sharing their key (``key_hits`` with the roles swapped),
    the first _SIGN_CHUNK of them alone for an early exit: the first nonzero
    right vector with an exact match gives the witness, with the smallest
    left index among its matches.

    Returns (True, None) when quasi-independent, else (False, witness).
    Raises QiResourceError when len(elements) > n_max (N_MAX_DEFAULT when
    None), and TypeError when an element is neither an integer (a point of
    Z) nor a LatticePoint (``verify_qi_naive`` takes any type).
    """
    n = len(elements)
    n_max = N_MAX_DEFAULT if n_max is None else n_max
    if n > n_max:
        raise QiResourceError(f"{n} elements exceed the cap of {n_max} (3^{n} sign vectors)")
    if n == 0:
        return True, None
    rows = _lattice_rows(elements)
    if rows is None:
        raise TypeError("verify_qi_exhaustive takes integers and LatticePoints")
    keys = row_keys(rows)
    n_left = n // 2

    left = np.zeros(1, dtype=np.int64)
    for step, key in enumerate(keys[:n_left]):
        left = _extend(left, key)
        zero = np.flatnonzero(left == 0)
        zero = zero[zero % 3 != 0]  # a prefix ending in sign 0 was confirmed a step earlier
        vanish = np.flatnonzero(~_exact_sums(zero, step + 1, 0, 1, rows).any(axis=1))
        if len(vanish):
            signs = _sign_vector(int(zero[vanish[0]]), step + 1) + (0,) * (n - step - 1)
            return False, DependencyWitness(SignVector(signs))

    order = np.argsort(left)
    left = left[order]  # sorted; order maps back to sign indices
    need = functools.reduce(_extend, -keys[n_left:] % KEY_MOD, np.zeros(1, dtype=np.int64))
    by_need = np.argsort(need)  # need: the key sum of each right vector, negated
    hits = np.sort(by_need[key_hits(left, need[by_need])])[1:]  # not the zero vector
    del by_need  # 4 MiB at 3^11 left sums, not held while the chunks join
    for chunk in filter(len, np.split(hits, [_SIGN_CHUNK])):  # the first hits, for an early exit
        # the left sums whose key some hit of the chunk needs, in index order
        found = np.sort(order[key_hits(np.sort(need[chunk]), left)])
        match = first_matches(_exact_sums(found, n_left, 0, 1, rows),
                              _exact_sums(chunk, n - n_left, n_left, -1, rows))
        first = np.flatnonzero(match >= 0)[:1]
        if len(first):
            signs = _sign_vector(int(found[match[first[0]]]), n_left)
            signs += _sign_vector(int(chunk[first[0]]), n - n_left)
            return False, DependencyWitness(SignVector(signs))
    return True, None


def verify_qi_naive(
    elements: Sequence,
    n_max: int = 12,
) -> tuple[bool, Optional[DependencyWitness]]:
    """Single-loop enumeration of all 3^N sign vectors (independent oracle).

    Integers and LatticePoints are converted once to zero-padded int tuples
    and summed coordinate by coordinate; any other element type is summed
    with its own + and -, starting from e - e.  Returns the first
    annihilating sign vector in ``itertools.product((0, 1, -1))`` order.
    """
    n = len(elements)
    if n > n_max:
        raise QiResourceError(f"{n} elements exceed the naive cap of {n_max}")
    if n == 0:
        return True, None
    items = _lattice_rows(elements)
    if items is not None:
        zero = (0,) * len(items[0])

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
    if not ((entries == -1) | (entries == 0) | (entries == 1)).all():
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
