"""Walsh spectra on (Z/2Z)^nu, flat random selections, and the
exponential-norm witness.

Characters are identified with nu-bit masks; y acts on x as
(-1)^popcount(x & y).  ``fwht`` is the unnormalized fast transform (an
involution up to the factor 2^nu).  ``sample_flat_lambda`` draws Bernoulli
selections until the nontrivial spectrum is flat relative to the mass at
the trivial character; ``analyticity_witness`` then certifies, by duality,
a lower bound on the restriction-algebra norm of exp(i pi/4 f) on such a
sample's set, f the sum of the first rho coordinate characters
(-1)^(bit b of x), b < rho.

Each draw takes one exact pass (``_exact_pass``) over two int64 spectra:
sigma^ of the mask, for the flatness test, and U, the spectrum of a
unit-valued function on the low rho bits times the mask, with |U| = |mu^|
(see ``_packed_unit``), for the witness.  The pass reads both in
``_PIECES`` contiguous output pieces, each built from the mask's bool
blocks in one buffer of 2^nu / ``_PIECES`` entries and transformed there in
place, and keeps only sigma^(0), max |sigma^| off it, the square sum of
sigma^ and the ``_MAX_CANDIDATES`` + 1 largest |U|^2.  At small rho the
stages of the bits at and above rho run once for both spectra (see
``_shares_stages``).  The witness's sup |mu^| is
fwht's float maximum: only the characters near the exact maximum get fwht's
float values (see ``_sup_mu``), from mu read off the mask a chunk at a time
(``_mu_chunk``); mu's full complex transform is their oracle, and is taken
only when more than ``_MAX_CANDIDATES`` characters are near the maximum.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, ResourceCapError
from .rng import bernoulli, stream

__all__ = [
    "fwht",
    "naive_wht",
    "FlatSample",
    "FlatnessFailure",
    "sample_flat_lambda",
    "WitnessReport",
    "analyticity_witness",
]

# Desk limits; the caps are read at each call.
NU_CAP = 26  # largest nu whose full spectrum is transformed
FLAT_RETRY_BUDGET = 20  # draws sample_flat_lambda makes by default
FLAT_ELL_LIMIT = 400  # sample_flat_lambda needs ell above this

# fwht moves data through two scratch tiles of 2^_TILE_BITS elements each
# (see its docstring).  A pass runs _TILE_BITS // 2 index bits, so past the
# first pass a tile is read and written in contiguous runs of at least
# 2^(_TILE_BITS // 2) elements.
_TILE_BITS = 16

# The witness's sup |mu^| (see _sup_mu).  EPS_IN bounds |v_k - e^(i pi k/4)|
# for the float phases v_k of _phases, |k| <= NU_CAP (the worst is 2.45e-15,
# about 2^-48.5).  _UNITS holds (Re, Im) of (-i)^b for b = 0..3, the values
# of the unit-valued function whose spectrum is U (see _packed_unit).  Past
# _MAX_CANDIDATES near-maximal characters the full complex transform is
# cheaper than their cones.  Both read mu _CHUNK elements at a time.
EPS_IN = 2.0**-48
_UNITS = ((1, 0), (0, -1), (-1, 0), (0, 1))
_MAX_CANDIDATES = 8
_CHUNK = 1 << 16

# _exact_pass builds its spectra as this many output pieces (a power of
# two), each in one array of 2^nu / _PIECES entries, and runs the low stages
# and reads the spectra _LOW_CHUNK entries at a time (a power of two).
_PIECES = 4
_LOW_CHUNK = 1 << 14


class FlatnessFailure(RuntimeError):
    """No flat sample found within the retry budget."""


def _target_dtype(a: np.ndarray) -> np.dtype:
    if np.issubdtype(a.dtype, np.complexfloating):
        return np.dtype(np.complex128)
    if np.issubdtype(a.dtype, np.floating):
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def fwht(values, out=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform.

    out[y] = sum_x in[x] * (-1)^popcount(x & y); applying it twice returns
    2^nu times the input.  Integer inputs stay exact (int64).

    The result is written into ``out`` when one is given, and ``out`` is
    returned: a one-dimensional, C-contiguous, writeable array of length n
    and of the result's dtype (int64, float64 or complex128), else
    ValueError.  It may be ``values`` itself, which is then transformed in
    place with the same result bytes; it may share no other memory with
    ``values``.

    The transform is the radix-2 butterfly (a, b) -> (a + b, a - b) on the
    pairs (x, x + h) with x & h == 0, one stage per h = 1, 2, 4, ..., 2^(nu-1)
    in that order.  The stages are grouped into passes of s = max(1,
    ``_TILE_BITS`` // 2) index bits: a pass over bits [lo, hi) pairs only
    indices that differ in those bits, so on the (A, 2^(hi-lo), 2^lo) view of
    the array it mixes the middle axis and nothing else.  The pass cuts that
    view into tiles of 2^``_TILE_BITS`` elements, each holding the whole
    middle axis for a range of the other two, copies each tile into a small
    contiguous buffer with the pass's bits as the slowest axis, runs the
    pass's stages there, ping-ponging between two such buffers
    (``np.add``/``np.subtract`` with ``out=``), and copies the tile back.
    Every butterfly half is then one contiguous run, and each tile stays in
    cache for all the stages of its pass.  The first pass reads the
    argument and writes the output; every later pass works in place on the
    output through the tiles.  A tile is written back to the index range it
    was read from, so the first pass may run in place too.  Without ``out``
    the argument is never written, and beyond the output the transform
    allocates two tiles; with ``out`` it allocates only the tiles.

    Every output element is made by the same additions and subtractions of
    the same operands, stage by stage in the same order, as the plain
    in-place radix-2 loop; only the memory layout between stages differs.
    So float64 and complex128 results are bit-identical to that loop,
    whatever the tile size.

    The tiles are int32 when the input is bool or integer and n * max|x| <=
    2^31 - 1, and otherwise of the output dtype.  After s stages every value
    is a sum of 2^s input values with signs, so |value| <= 2^s * max|x| <= n
    * max|x|: no partial sum leaves int32, each sum is exact, and the int64
    output is bit-identical to the int64 loop.  The rule reads only the
    input.
    """
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    nu = n.bit_length() - 1
    dtype = _target_dtype(a)
    work = _tile_dtype(a, n, dtype)
    if out is None:
        out = np.empty(n, dtype)
    else:
        _check_out(out, n, dtype, a)
    tile = min(n, 1 << _TILE_BITS)
    bufs = (np.empty(tile, work), np.empty(tile, work))
    step = max(1, _TILE_BITS // 2)
    src = a
    for lo in range(0, max(nu, 1), step):  # at nu = 0, one pass of no stages copies
        _pass(src, out, lo, min(lo + step, nu), bufs)
        src = out
    return out


def _check_out(out, n: int, dtype: np.dtype, a: np.ndarray) -> None:
    """ValueError unless fwht may write its result into out (see fwht)."""
    if not (isinstance(out, np.ndarray) and out.shape == (n,) and out.dtype == dtype
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable contiguous {dtype} array of length {n}")
    if np.shares_memory(out, a) and (out.ctypes.data, out.strides) != (a.ctypes.data, a.strides):
        raise ValueError("out may share memory with values only by being values")


def _tile_dtype(values: np.ndarray, n: int, dtype: np.dtype) -> np.dtype:
    """int32 when a transform of length n of these integer values cannot
    leave int32 (see fwht), else dtype."""
    if dtype != np.int64:
        return dtype
    peak = max(-int(values.min()), int(values.max()))
    return np.dtype(np.int32) if n * peak <= np.iinfo(np.int32).max else dtype


def _butterfly(src: np.ndarray, dst: np.ndarray, width: int) -> None:
    """One stage on runs of ``width``: (a, b) -> (a + b, a - b) into dst."""
    s = src.reshape(-1, 2, width)
    d = dst.reshape(-1, 2, width)
    np.add(s[:, 0], s[:, 1], out=d[:, 0])
    np.subtract(s[:, 0], s[:, 1], out=d[:, 1])


def _pass(src: np.ndarray, dst: np.ndarray, lo: int, hi: int, bufs) -> None:
    """The stages of index bits [lo, hi), from src into dst (which may be
    src), one tile of len(bufs[0]) elements at a time through the two
    buffers in bufs."""
    m, cols = 1 << (hi - lo), 1 << lo
    w = min(cols, bufs[0].shape[0] // m)  # columns per tile
    b = bufs[0].shape[0] // (m * w)  # rows of the slowest axis per tile
    s = src.reshape(-1, m, cols)
    d = dst.reshape(-1, m, cols)
    tiles = [buf.reshape(m, b * w) for buf in bufs]
    for r in range(0, s.shape[0], b):
        for c in range(0, cols, w):
            np.copyto(tiles[0].reshape(m, b, w), s[r:r + b, :, c:c + w].transpose(1, 0, 2),
                      casting="unsafe")
            x = _low_stages(*tiles, hi - lo)[0]
            d[r:r + b, :, c:c + w] = x.reshape(m, b, w).transpose(1, 0, 2)


def naive_wht(values) -> np.ndarray:
    """Quadratic-time transform used as the independent oracle."""
    a = np.asarray(values)
    a = a.astype(_target_dtype(a))  # bool has no negation
    n = a.shape[0]
    out = np.zeros(n, dtype=a.dtype)
    for y in range(n):
        s = out.dtype.type(0)
        for x in range(n):
            s += a[x] if (x & y).bit_count() % 2 == 0 else -a[x]
        out[y] = s
    return out


def _check_nu_cap(nu: int) -> None:
    if nu > NU_CAP:
        raise ResourceCapError(f"nu = {nu} exceeds the cap {NU_CAP}")


def _square_sum(part: np.ndarray) -> int:
    """sum part^2 exactly, for int64 values of modulus at most 2^26 (the
    spectrum of a mask, nu <= NU_CAP); part is overwritten by its squares.
    Each half of a square sum stays below 2^47 for 2^16 values."""
    np.multiply(part, part, out=part)
    return (int((part >> 31).sum()) << 31) + int((part & (2**31 - 1)).sum())


def _check_parseval(lhs: int, mask: np.ndarray) -> None:
    """AssertionError unless lhs = sum_y sigma^(y)^2 is exactly 2^nu |Lambda|."""
    if lhs != mask.shape[0] * int(np.count_nonzero(mask)):
        raise AssertionError("Parseval identity violated")


class _Spectra:
    """What an exact pass keeps of sigma^ and U, read chunk by chunk:
    sigma1 = sigma^(0), sup = max |sigma^| off it, squares = sum_y
    sigma^(y)^2, and top, the _MAX_CANDIDATES + 1 largest pairs (Q(y), y),
    largest first, Q(y) = |U(y)|^2.

    Every value is an exact integer of modulus at most 2^nu, so sigma1 and
    sup are, as floats, the float64 transform's values, and the maximum and
    the square sum are exact in any order.  top holds the largest Q values;
    where Q ties at its last place the y kept depends on the order read,
    which no near-maximum test sees (see _near_maxima).
    """

    def __init__(self, chunk: int):
        self.sigma1: Optional[int] = None
        self.sup = self.squares = 0
        self.top: list[tuple[int, int]] = []
        self._low = np.empty(chunk, np.int64)

    def read_sigma(self, part: np.ndarray) -> None:
        """Fold in a chunk of sigma^ (an int64 array or view, overwritten);
        the first chunk read starts at the trivial character."""
        if self.sigma1 is None:
            self.sigma1, part.flat[0] = int(part.flat[0]), 0
            self.squares = self.sigma1 * self.sigma1
        np.abs(part, out=part)
        self.sup = max(self.sup, int(part.max()))
        self.squares += _square_sum(part)

    def read_units(self, part: np.ndarray, base: int, width: int, rows: int) -> None:
        """Fold in a chunk of U packed as A + 2^31 B (int64, overwritten by
        Q); entry k is U(y) at y = base + (k % width) rows + k // width.

        |A| and |B| are at most |Lambda| <= 2^NU_CAP < 2^30, so the chunk
        unpacks by bit operations, and Q = A^2 + B^2 <= 2^(2 NU_CAP).  A
        chunk is searched only when it may change top.
        """
        a = self._low[:part.shape[0]]
        np.add(part, 1 << 30, out=a)
        a &= (1 << 31) - 1
        a -= 1 << 30  # A, the low 31 bits read as signed
        part -= a
        part >>= 31  # B
        np.multiply(part, part, out=part)
        np.multiply(a, a, out=a)
        part += a
        keep = _MAX_CANDIDATES + 1
        if len(self.top) < keep or part.max() > self.top[-1][0]:  # a full top takes only a larger Q
            most = min(keep, part.shape[0])
            found = np.argpartition(part, -most)[-most:].tolist()
            pairs = [(int(part[k]), base + k % width * rows + k // width) for k in found]
            self.top = heapq.nlargest(keep, self.top + pairs)


def _exact_pass(mask: np.ndarray, rho: int) -> _Spectra:
    """sigma^ = fwht(mask) and U = fwht(u * mask), read exactly in one pass,
    for u(x) = (-i)^popcount(x mod 2^rho), whose U has the modulus of mu^
    (see _packed_unit).

    Both are read as P = min(_PIECES, n) contiguous pieces of m = n / P
    entries.  With x_i the i-th block of m entries of the input, out[j m + y]
    is sum_i (-1)^popcount(i & j) fwht(x_i)[y], so piece j is the length-m
    fwht of sum_i (-1)^popcount(i & j) x_i, built from the mask's bool
    blocks in one buffer and transformed there in place.  Every value is an
    exact integer, so the stages may run in any order and any grouping.
    Where _shares_stages holds, _shared_pieces runs the stages of the bits u
    does not read once for both spectra; else _separate_pieces transforms
    each piece twice.
    """
    n = mask.shape[0]
    _check_nu_cap(n.bit_length() - 1)
    count = min(_PIECES, n)
    blocks = mask.reshape(count, n // count)
    spectra = _Spectra(min(n // count, _LOW_CHUNK))
    (_shared_pieces if _shares_stages(n, rho) else _separate_pieces)(blocks, rho, spectra)
    return spectra


def _shares_stages(n: int, rho: int) -> bool:
    """Whether the pass over 2^nu = n entries runs the stages of the bits at
    and above rho once for sigma^ and U (see _shared_pieces).  Sharing saves
    a piece's second transform, whose stages outnumber those of the bits u
    does not read, and costs the 2 rho row stages run again per chunk; it
    pays when 2 rho is at most those bits, b - rho for a piece of 2^b
    entries (3 rho <= b), and a chunk must hold 2^rho rows."""
    bits = (n // min(_PIECES, n)).bit_length() - 1
    return 3 * rho <= bits and 1 << rho <= _LOW_CHUNK


def _combine(parts, j: int, out: np.ndarray) -> np.ndarray:
    """out = sum_i (-1)^popcount(i & j) parts[i], for bool parts, in an int8
    out (at most _PIECES parts, and _PIECES < 128)."""
    np.copyto(out, parts[0])
    for i in range(1, len(parts)):
        (np.subtract if (i & j).bit_count() % 2 else np.add)(out, parts[i].view(np.int8), out=out)
    return out


def _shared_pieces(blocks: np.ndarray, rho: int, spectra: _Spectra) -> None:
    """Each piece laid out with the low rho bits as the slow axis: row r of
    its (2^rho, m / 2^rho) int64 buffer holds the x with x mod 2^rho = r, in
    one contiguous run.  fwht then gives sigma^ there, every stage once, with
    int32 tiles (every partial sum of the mask is at most n <= 2^NU_CAP in
    modulus).  u is constant on a row, so U differs from sigma^ only in the
    stages of the row bits: for each chunk of 2^rho rows by w columns
    (2^rho w <= _LOW_CHUNK), those rho stages, run again on sigma^, give
    2^rho M, M the transform over the other bits alone (the stages of a bit
    square to 2), and run on M times the packed units Re u + 2^31 Im u of
    its rows they give U.
    """
    count, m = blocks.shape
    rows, cols = 1 << rho, m >> rho
    width = min(cols, _LOW_CHUNK >> rho)
    buf = np.empty(m, np.int64)
    grid = buf.reshape(rows, cols)
    units = np.array([_packed_unit(r.bit_count()) for r in range(rows)], np.int64)[:, None]
    low = np.empty((2, rows, width), np.int64)
    sums = np.empty(rows * width, np.int8)
    for j in range(count):
        for c in range(0, cols, width):  # the x in [c 2^rho, (c + w) 2^rho), transposed
            span = slice(c * rows, (c + width) * rows)
            part = _combine([block[span] for block in blocks], j, sums)
            grid[:, c:c + width] = part.reshape(width, rows).T
        fwht(buf, out=buf)
        for c in range(0, cols, width):
            chunk = grid[:, c:c + width]
            np.copyto(low[0], chunk)
            spectra.read_sigma(chunk)
            x, y = _low_stages(*low, rho)
            x >>= rho
            np.multiply(x, units, out=x)
            x = _low_stages(x, y, rho)[0]
            spectra.read_units(x.reshape(-1), j * m + c * rows, width, rows)


def _low_stages(x: np.ndarray, y: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The stages of the row bits [0, bits) of x, a (2^bits, w) array,
    ping-ponging with y of its shape: (the result, the other array)."""
    for b in range(bits):
        _butterfly(x, y, x.shape[1] << b)
        x, y = y, x
    return x, y


def _separate_pieces(blocks: np.ndarray, rho: int, spectra: _Spectra) -> None:
    """Each piece in index order, transformed twice by fwht in one int64
    buffer: built from the mask, then from u times the mask.

    For x = i m + k + t in block i, with k a multiple of the chunk length
    and t below it, popcount(x mod 2^rho) is popcount(t mod 2^rho) plus
    popcount((i m + k) mod 2^rho), so over a chunk u is one of two patterns
    (an even or an odd count of bits past t), times 1 or -1; the sign of x_i
    in piece j, (-i)^(2 popcount(i & j)), folds in the same way.
    """
    count, m = blocks.shape
    step = min(m, _LOW_CHUNK)
    low = (1 << rho) - 1
    units = np.array([_packed_unit(b) for b in range(4)], np.int64)
    ones = (rho - _character_sum(step.bit_length() - 1, rho)) // 2  # popcount(t mod 2^rho)
    patterns = [units[(ones + r) % 4] for r in (0, 1)]
    term = np.empty(step, np.int64)
    sums = np.empty(step, np.int8)
    buf = np.empty(m, np.int64)
    for j in range(count):
        for k in range(0, m, step):
            buf[k:k + step] = _combine([block[k:k + step] for block in blocks], j, sums)
        fwht(buf, out=buf)
        for k in range(0, m, step):
            spectra.read_sigma(buf[k:k + step])
        for k in range(0, m, step):
            part = buf[k:k + step]
            part[...] = 0
            for i, block in enumerate(blocks):
                r = ((i * m + k) & low).bit_count() + 2 * (i & j).bit_count()
                np.multiply(patterns[r % 2], block[k:k + step], out=term)
                (np.subtract if r % 4 >= 2 else np.add)(part, term, out=part)
        fwht(buf, out=buf)
        for k in range(0, m, step):
            spectra.read_units(buf[k:k + step], j * m + k, step, 1)


@dataclass(frozen=True, eq=False)
class FlatSample:
    """A Bernoulli selection whose nontrivial spectrum is flat.

    Of the spectrum fwht(mask) it keeps only the two numbers that the
    flatness test and the witness read: sigma1, the value at the trivial
    character, and sup_offpeak, the largest modulus off it.  Of U, the
    spectrum with |U| = |mu^| for f on the first rho characters, it keeps
    top, the _MAX_CANDIDATES + 1 largest pairs (|U(y)|^2, y) (see
    _Spectra).  All of them come from the draw's one exact pass (see
    _exact_pass), so no spectrum of 2^nu entries is ever held.  A FlatSample
    is the witness's whole input: it reads nu from the mask's length, and
    the rest from the fields.
    """

    nu: int
    ell: int
    alpha: float
    mask: np.ndarray
    sigma1: float
    sup_offpeak: float
    retries_used: int
    rho: int
    top: tuple[tuple[int, int], ...]

    @property
    def flatness_threshold(self) -> float:
        return (20.0 / math.sqrt(self.ell)) * self.sigma1

    def counters(self) -> dict:
        """How the sample and its witness were computed: the draws, the
        exact transforms of 2^nu entries they took (one a draw when the
        stages are shared, else two), whether the stages were shared, and
        how many kept characters lie near the maximum of |U| (more than
        _MAX_CANDIDATES send the witness to mu's complex transform)."""
        shared = _shares_stages(self.mask.shape[0], self.rho)
        near = self._near_max()[2]
        return {
            "flat_draws": self.retries_used,
            "exact_passes": self.retries_used * (1 if shared else 2),
            "shared_stages": shared,
            "near_max_characters": len(near),
            "complex_fallback": len(near) > _MAX_CANDIDATES,
        }

    def _near_max(self) -> tuple[float, int, list[int]]:
        """delta (_rounding_bound), max Q and the y of top within 2 delta of
        it (_near_maxima): what the witness and the counters read of top."""
        delta = _rounding_bound(self.nu, int(np.count_nonzero(self.mask)))
        return (delta, *_near_maxima(self.top, 2 * delta))


def sample_flat_lambda(
    nu: int,
    ell: int,
    seed: int = 0,
    max_retries: int = FLAT_RETRY_BUDGET,
    rho: Optional[int] = None,
) -> FlatSample:
    """Resample Bernoulli(alpha) subsets until the spectrum is flat.

    alpha = 2*ell*nu*2^(-nu) must be < 1 and ell > FLAT_ELL_LIMIT (400).
    Success means the trivial value is at least ell*nu and every nontrivial
    value is at most (20/sqrt(ell)) times the trivial one, after a check of
    the Parseval identity.  rho is the witness's number of characters, kept
    with the sample: None means default_rho(ell), a negative rho is a
    ValueError and rho > nu a ConfigError.
    """
    _check_nu_cap(nu)
    if ell <= FLAT_ELL_LIMIT:
        raise ConfigError(f"need ell > {FLAT_ELL_LIMIT}")
    n = 2**nu
    alpha = 2 * ell * nu / n
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha = {alpha} must lie in (0, 1)")
    rho = default_rho(ell)[0] if rho is None else rho
    if rho < 0:
        raise ValueError(f"rho = {rho} is negative")
    if rho > nu:
        raise ConfigError("rho cannot exceed nu")
    ratio = 20.0 / math.sqrt(ell)
    mask = np.empty(n, dtype=bool)
    for t in range(max_retries):
        rng = stream(seed, nu, ell, t)
        for i in range(0, n, _CHUNK):  # the draws of rng.random(n) < alpha, a chunk at a time
            mask[i:i + _CHUNK] = bernoulli(rng, alpha, min(_CHUNK, n - i))
        spectra = _exact_pass(mask, rho)
        _check_parseval(spectra.squares, mask)
        s1, sup = float(spectra.sigma1), float(spectra.sup)
        if s1 >= ell * nu and sup <= ratio * s1:
            return FlatSample(
                nu=nu,
                ell=ell,
                alpha=alpha,
                mask=mask,
                sigma1=s1,
                sup_offpeak=sup,
                retries_used=t + 1,
                rho=rho,
                top=tuple(spectra.top),
            )
    raise FlatnessFailure(f"no flat sample in {max_retries} retries")


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------


def _character_sum(nu: int, rho: int) -> np.ndarray:
    """f(x) = sum_{b < rho} (-1)^(bit b of x), for all x < 2^nu, in int8.

    f reads only the low rho bits, so it is built by doubling in one array:
    its values on [2^b, 2^(b+1)) are its values on [0, 2^b), less 2 for
    b < rho (bit b turns one +1 into -1) and repeated for b >= rho.
    """
    f = np.empty(1 << nu, dtype=np.int8)
    f[0] = rho
    for b in range(nu):
        h = 1 << b
        if b < rho:
            np.subtract(f[:h], 2, out=f[h:2 * h])
        else:
            f[h:2 * h] = f[:h]
    return f


@dataclass(frozen=True)
class WitnessReport:
    """Certified lower bound for the norm of exp(i pi/4 f) restricted to
    the sampled set, against the target (1/2) * 2^(rho/2)."""

    nu: int
    ell: int
    rho: int
    rho_exact: float
    sigma1: float
    sup_offpeak_sigma: float
    sup_mu: float
    lower_bound: float
    target: float
    chain_bound: float
    f_algebra_norm: float
    flatness_holds: bool
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def default_rho(ell: int) -> tuple[int, float]:
    """round(log2(sqrt(ell)/20)), clipped at 0, plus the unrounded value."""
    exact = math.log2(math.sqrt(ell) / 20.0)
    return max(0, round(exact)), exact


def analyticity_witness(sample: FlatSample) -> WitnessReport:
    """Duality lower bound for the restriction norm of v = exp(i pi/4 f) on
    the sample's set, f the sum of the first rho = sample.rho coordinate
    characters chi_b(x) = (-1)^(bit b of x).

    Since v = 2^(-rho/2) prod_b (1 + i chi_b), |v^| is 2^(-rho/2) on the
    masks below 2^rho and 0 elsewhere.  With sigma the counting measure of
    the set and mu = v * sigma, the bound is sigma^(1) / sup_y |mu^(y)|,
    which applies to the norm of v via the norm equality for this
    unimodular v.  Alongside it: the algebra norm of f itself, rho, and the
    chain value (2^(-rho/2) + (20/sqrt(ell)) 2^(rho/2))^(-1).

    nu comes from the mask's length, ell, rho, sigma's two numbers and the
    top of |mu^|^2 from the sample.  sup |mu^| is fwht's float maximum bit
    for bit, found by _sup_mu: beyond the sample the peak holds only the
    cones' chunks, whatever nu, and 16 * 2^nu more only when more than
    _MAX_CANDIDATES characters are near the maximum (mu's complex
    transform).  nu above NU_CAP is refused (ResourceCapError): the cap
    keeps f in int8.
    """
    ell, rho = sample.ell, sample.rho
    nu = sample.mask.shape[0].bit_length() - 1
    _check_nu_cap(nu)
    rho_exact = default_rho(ell)[1]
    s1, sup_off = sample.sigma1, sample.sup_offpeak
    sup_mu = _sup_mu(sample)

    ratio = 20.0 / math.sqrt(ell)
    lower = s1 / sup_mu if sup_mu > 0 else math.inf
    target = 0.5 * 2 ** (rho / 2)
    chain = 1.0 / (2 ** (-rho / 2) + ratio * 2 ** (rho / 2))
    return WitnessReport(
        nu=nu,
        ell=ell,
        rho=rho,
        rho_exact=rho_exact,
        sigma1=s1,
        sup_offpeak_sigma=sup_off,
        sup_mu=sup_mu,
        lower_bound=lower,
        target=target,
        chain_bound=chain,
        f_algebra_norm=float(rho),
        flatness_holds=sup_off <= ratio * s1,
        passed=lower >= target,
    )


def _phases(rho: int) -> np.ndarray:
    """v_k = exp(i pi k / 4) in complex128 for k = -rho..rho."""
    return np.exp(1j * (math.pi / 4) * np.arange(-rho, rho + 1))


def _packed_unit(b: int) -> int:
    """Re + 2^31 Im of u = (-i)^b, exactly: the unit-valued function at a
    point with b of the first rho characters at -1.

    There f = rho - 2b.  Each factor 1 + i chi_j(x) is 1 + i or
    1 - i = -i (1 + i), so prod_j (1 + i chi_j(x)) = (1 + i)^rho (-i)^b, and
    e^(i pi f/4) = e^(i pi rho/4) u: the spectra of u * mask and of
    e^(i pi f/4) * mask have the same modulus.
    """
    re, im = _UNITS[b % 4]
    return re + (im << 31)


def _rounding_bound(nu: int, count: int) -> float:
    """delta >= | |V(y)| - |E(y)| | for every y, where V is fwht's float
    transform of v * mask, E the exact transform of e^(i pi f/4) * mask and
    |V(y)| the float modulus; count = |Lambda|.

    The butterflies round each complex sum to within u = 2^-53 of its
    modulus, nu times per input, so they err by at most gamma_nu * sum |v_x|
    (gamma_nu = nu u / (1 - nu u)); the inputs err by at most EPS_IN each;
    the modulus, and the cross-check's sqrt(Q), by a few ulps of values
    below 2 * count.
    """
    u = 2.0**-53
    gamma = nu * u / (1 - nu * u)
    return count * (gamma * (1 + EPS_IN) + EPS_IN + 16 * u)


def _sup_mu(sample: FlatSample) -> float:
    """max |fwht(v * mask)|, bit for bit, for the sample's mask and v =
    exp(i pi/4 f), mostly without that complex transform.

    Only characters whose exact modulus lies within 2 delta of the exact
    maximum (FlatSample._near_max) can hold the float maximum; their float
    values come from _cone_values, and their maximum from _max_abs.  The
    float maximum must lie within delta of sqrt(max Q), else AssertionError.
    The full transform is taken only when more than _MAX_CANDIDATES
    characters are near the maximum: of v * mask, filled into one complex
    array by _mu_chunk a chunk at a time and transformed in place.
    """
    mask, rho = sample.mask, sample.rho
    delta, q_max, ys = sample._near_max()
    if len(ys) > _MAX_CANDIDATES:
        x = np.empty(mask.shape[0], np.complex128)
        for i in range(0, x.shape[0], _CHUNK):
            x[i:i + _CHUNK] = _mu_chunk(mask, rho, i, min(x.shape[0], _CHUNK))
        sup = _max_abs(fwht(x, out=x))
    else:
        sup = _max_abs(_cone_values(mask, rho, ys))
    if abs(sup - math.sqrt(q_max)) > delta:
        raise AssertionError("float and exact sup |mu^| disagree beyond rounding")
    return sup


def _near_maxima(top, slack: float) -> tuple[int, list[int]]:
    """max Q and, sorted, the y of the pairs (Q(y), y) in top with
    sqrt(Q(y)) >= sqrt(max Q) - slack.

    top holds the _MAX_CANDIDATES + 1 largest Q (see _Spectra), so when at
    most _MAX_CANDIDATES characters lie that near they are all in it, and
    when more do, every pair in it does: the answer does not depend on which
    of the y tied at top's last place were kept.
    """
    q_max = top[0][0]
    # keep Q >= floor(t^2 / 2^64) with t <= 2^32 (sqrt(max Q) - slack), so
    # no y within slack of the maximum is dropped
    t = math.isqrt(q_max << 64) - math.ceil(math.ldexp(slack, 32))
    threshold = (t * t) >> 64 if t > 0 else 0
    return q_max, sorted(y for q, y in top if q >= threshold)


def _cone_values(mask: np.ndarray, rho: int, ys: Sequence[int]) -> np.ndarray:
    """fwht(v * mask)[y] for each y in ys, bit for bit, v = exp(i pi/4 f)
    for f on the first rho characters.

    The stage of bit b pairs (x, x + 2^b) into a + b at x and a - b at
    x + 2^b, so out[y] needs after that stage only the entries that agree
    with y on bits 0..b: each stage halves the entries that y reads, in
    fwht's order and with its operands, about 2^nu additions in all.  The
    inputs are read _CHUNK at a time by _mu_chunk, and each chunk is halved
    down to one entry per y before the entries of all chunks are halved on.
    """
    n = mask.shape[0]
    step = min(n, _CHUNK)
    bits = step.bit_length() - 1
    tops = np.empty((len(ys), n // step), np.complex128)
    for c, i in enumerate(range(0, n, step)):
        x = _mu_chunk(mask, rho, i, step)
        for j, y in enumerate(ys):
            tops[j, c] = _halve(x, y, bits)[0]
    rest = n.bit_length() - 1 - bits
    return np.array([_halve(top, y >> bits, rest)[0] for top, y in zip(tops, ys)])


def _mu_chunk(mask: np.ndarray, rho: int, i: int, step: int) -> np.ndarray:
    """v * mask on [i, i + step), i a multiple of step (a power of two): the
    complex products np.multiply(v, mask) makes there, signed zeros
    included.  On the chunk f is its values on [0, step) less twice the
    low rho bits set in i, and v is read from _phases at f + rho.
    """
    codes = _character_sum(step.bit_length() - 1, rho)
    codes += rho - 2 * (i & ((1 << rho) - 1)).bit_count()
    x = _phases(rho)[codes]
    return np.multiply(x, mask[i:i + step], out=x)


def _halve(x: np.ndarray, y: int, bits: int) -> np.ndarray:
    """The stages of bits 0..bits-1 on x, keeping only the entries that
    agree with y on those bits."""
    for b in range(bits):
        pairs = x.reshape(-1, 2)
        x = (np.subtract if y >> b & 1 else np.add)(pairs[:, 0], pairs[:, 1])
    return x


def _max_abs(a: np.ndarray) -> float:
    """max |a| in float64 (a maximum is exact in any order), one tile-sized
    chunk at a time written into one buffer, instead of into an array-sized
    temporary."""
    step = 1 << _TILE_BITS
    buf = np.empty(min(a.shape[0], step), np.float64)
    return float(max(np.abs(a[i:i + step], out=buf[:min(step, a.shape[0] - i)]).max()
                     for i in range(0, a.shape[0], step)))
