"""Deciding quasi-independence of finite sets of group elements.

A set is quasi-independent when no nontrivial coefficient vector over
{-1, 0, +1} annihilates it.  Two routes are provided:

* ``verify_qi_exhaustive`` -- meet-in-the-middle over the 3^N sign vectors
  (the Horowitz-Sahni split), exact, with an explicit witness on failure.
  Each point of Z^n is packed into one exact integer key by a balanced
  mixed radix wide enough that distinct signed sums get distinct keys; the
  keys are int64 when the radix span provably fits, Python ints in an
  ``object`` array otherwise, through the same numpy code;
* ``verify_qi_structural`` -- the fast inductive check for matrices produced
  by the doubling recursion in :mod:`sidonlab.construction`.

``verify_qi_naive`` is the deliberately simple single-loop enumeration kept
as a second, independent oracle for small N.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import LatticePoint, ResourceCapError, SignVector, signed_combination

__all__ = [
    "DependencyWitness",
    "QiResourceError",
    "verify_qi_exhaustive",
    "verify_qi_naive",
    "verify_qi_structural",
]

N_MAX_DEFAULT = 24  # desk limit: a left half-table of at most 3^12 entries

_SIGNS = (0, 1, -1)  # base-3 digit d of a sign index stands for _SIGNS[d]
_INT64_SPAN = 2**62  # int64 keys when the packed span stays below this


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


def _packed_keys(elements: Sequence) -> np.ndarray:
    """One exact integer key per point, by balanced mixed radix.

    Coordinate c gets the radix prod_{c' < c} (2 B_c' + 1), where B_c is
    the sum of |coordinate c| over all points.  Every signed sum then has
    coordinate c in [-B_c, B_c], so distinct sums get distinct keys and
    key(-v) = -key(v).  The keys are int64 when the whole span
    prod_c (2 B_c + 1) is below 2^62, Python ints otherwise.
    """
    for el in elements:
        if not isinstance(el, LatticePoint):
            raise TypeError(
                f"verify_qi_exhaustive takes LatticePoints, got {type(el).__name__}"
            )
    dim = max(el.dim for el in elements)
    rows = [el.coords + (0,) * (dim - el.dim) for el in elements]
    radices = []
    span = 1
    for c in range(dim):
        radices.append(span)
        span *= 2 * sum(abs(row[c]) for row in rows) + 1
    keys = [sum(map(operator.mul, row, radices)) for row in rows]
    return np.array(keys, dtype=np.int64 if span < _INT64_SPAN else object)


def _extend(sums: np.ndarray, key) -> np.ndarray:
    """Each sum followed by sum + key and sum - key (sign order 0, 1, -1)."""
    return np.stack([sums, sums + key, sums - key], axis=1).ravel()


def _signs(index: int, length: int) -> tuple[int, ...]:
    """The sign vector of a base-3 index, most significant digit first."""
    digits = []
    for _ in range(length):
        index, d = divmod(int(index), 3)
        digits.append(_SIGNS[d])
    return tuple(reversed(digits))


def _dependent(left: tuple[int, ...], right: tuple[int, ...], n: int):
    eps = left + right
    return False, DependencyWitness(SignVector(eps + (0,) * (n - len(eps))))


def verify_qi_exhaustive(
    elements: Sequence,
    n_max: Optional[int] = None,
) -> tuple[bool, Optional[DependencyWitness]]:
    """Exhaustive quasi-independence test by meet-in-the-middle.

    The points are packed into exact integer keys (int64 when the packed
    span is below 2^62, else Python ints in an ``object`` array), so a
    signed combination vanishes exactly when its key sum is 0.

    The left half's signed sums are built element by element, each sum
    followed by sum + key and sum - key, keeping only the first occurrence
    of every value together with its sign prefix (a base-3 index).  The
    all-zero prefix always holds value 0 first, so a later prefix reaching 0
    is returned at once as a dependency.  The right half's 3^(N - N//2)
    sums are then enumerated in ``itertools.product((0, 1, -1))`` order and
    joined against the sorted left values by ``searchsorted``; the first
    nonzero right sign vector whose negated sum is a left value gives the
    witness, joined with that value's first left prefix.

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
    keys = _packed_keys(elements)
    n_left = n // 2

    left = np.zeros(1, dtype=keys.dtype)
    left_index = np.zeros(1, dtype=np.int64)
    for step, key in enumerate(keys[:n_left]):
        left = _extend(left, key)
        left_index = (3 * left_index[:, None] + np.arange(3)).ravel()
        zeros = np.flatnonzero(left == 0)
        if len(zeros) > 1:  # zeros[0] is the all-zero prefix
            return _dependent(_signs(left_index[zeros[1]], step + 1), (), n)
        _, first = np.unique(left, return_index=True)
        first.sort()
        left, left_index = left[first], left_index[first]

    right = np.zeros(1, dtype=keys.dtype)
    for key in keys[n_left:]:
        right = _extend(right, key)
    order = np.argsort(left)
    sorted_left = left[order]
    need = -right
    pos = np.minimum(np.searchsorted(sorted_left, need), len(sorted_left) - 1)
    hit = sorted_left[pos] == need
    hit[0] = False  # the all-zero right vector
    hits = np.flatnonzero(hit)
    if len(hits) == 0:
        return True, None
    j = hits[0]
    return _dependent(
        _signs(left_index[order[pos[j]]], n_left), _signs(j, n - n_left), n
    )


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
