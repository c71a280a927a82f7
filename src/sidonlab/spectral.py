"""Walsh spectra on (Z/2Z)^nu, flat random selections, and the
exponential-norm witness.

Characters are identified with nu-bit masks; y acts on x as
(-1)^popcount(x & y).  ``fwht`` is the unnormalized fast transform (an
involution up to the factor 2^nu).  ``sample_flat_lambda`` draws Bernoulli
selections until the nontrivial spectrum is flat relative to the mass at
the trivial character; ``analyticity_witness`` then certifies, by duality,
a lower bound on the restriction-algebra norm of exp(i pi/4 f) for a sum f
of independent characters.  Its sup |mu^| comes, at every rho, from one
exact int64 transform of a unit-valued spectrum, whose near-maximal
characters alone get fwht's float values (see ``_sup_mu``); mu's full
complex transform is its oracle, and is taken only when more than
``_MAX_CANDIDATES`` characters are near the maximum.
The flatness test and the witness read their exact int64 transforms in
``_PIECES`` contiguous output pieces (see ``_exact_pieces``), each built
and transformed in place in one buffer of 2^nu / ``_PIECES`` int64s, so
neither holds a transform of 2^nu entries, nor a piece's input beside its
output.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import ConfigError, ResourceCapError
from .rng import stream

__all__ = [
    "fwht",
    "naive_wht",
    "SpectralTable",
    "sigma_hat",
    "FlatSample",
    "FlatnessFailure",
    "sample_flat_lambda",
    "WitnessReport",
    "analyticity_witness",
    "masks_independent",
    "a_norm_upper_bound",
]

# Desk limits; the caps are read at each call.
NU_CAP = 26  # largest nu whose full spectrum is transformed
A_NORM_NU_CAP = 8  # largest nu of the subgradient cross-check
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
# of the unit-valued spectrum (see _unit_phases).  Past _MAX_CANDIDATES
# near-maximal characters the full complex transform is cheaper than their
# cones.  The exact scan and the cones run _CHUNK elements at a time.
EPS_IN = 2.0**-48
_UNITS = ((1, 0), (0, -1), (-1, 0), (0, 1))
_MAX_CANDIDATES = 8
_CHUNK = 1 << 16

# _exact_pieces builds an exact transform as this many output pieces (a
# power of two) in one int64 array of 2^nu / _PIECES entries.
_PIECES = 4


class FlatnessFailure(RuntimeError):
    """No flat sample found within the retry budget."""


def _target_dtype(a: np.ndarray) -> np.dtype:
    if np.issubdtype(a.dtype, np.complexfloating):
        return np.dtype(np.complex128)
    if np.issubdtype(a.dtype, np.floating):
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def fwht(values, table=None, out=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform.

    out[y] = sum_x in[x] * (-1)^popcount(x & y); applying it twice returns
    2^nu times the input.  Integer inputs stay exact (int64).  With a
    one-dimensional ``table``, ``values`` are integer codes into it and the
    transform is that of ``table[values]``, without building that array:
    the first pass gathers each tile from the table.  The result has the
    same bytes as ``fwht(table[values])``.

    The result is written into ``out`` when one is given, and ``out`` is
    returned: a one-dimensional, C-contiguous, writeable array of length n
    and of the result's dtype (int64, float64 or complex128), else
    ValueError.  Without a table it may be ``values`` itself, which is then
    transformed in place with the same result bytes; it may share no other
    memory with ``values``.  With a table it may share none with the codes
    or the table: the first pass widens each tile's codes in the output.

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
    input (with a table, the table's values).
    """
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    if table is not None:
        table = np.asarray(table)
        if table.ndim != 1 or a.dtype.kind not in "iu":
            raise ValueError("a table needs a one-dimensional table and integer codes")
        if int(a.min()) < 0 or int(a.max()) >= table.shape[0]:
            raise ValueError("a code lies outside the table")
    nu = n.bit_length() - 1
    source = a if table is None else table
    dtype = _target_dtype(source)
    work = _tile_dtype(source, n, dtype)
    if out is None:
        out = np.empty(n, dtype)
    else:
        _check_out(out, n, dtype, a, table)
    if table is not None:
        table = table.astype(work, copy=False)
    tile = min(n, 1 << _TILE_BITS)
    bufs = (np.empty(tile, work), np.empty(tile, work))
    step = max(1, _TILE_BITS // 2)
    src = a
    for lo in range(0, max(nu, 1), step):  # at nu = 0, one pass of no stages copies
        _pass(src, out, lo, min(lo + step, nu), bufs, table)
        src, table = out, None
    return out


def _check_out(out, n: int, dtype: np.dtype, a: np.ndarray, table) -> None:
    """ValueError unless fwht may write its result into out (see fwht)."""
    if not (isinstance(out, np.ndarray) and out.shape == (n,) and out.dtype == dtype
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable contiguous {dtype} array of length {n}")
    if table is not None:
        if np.shares_memory(out, a) or np.shares_memory(out, table):
            raise ValueError("out may not share memory with the codes or the table")
    elif np.shares_memory(out, a) and (out.ctypes.data, out.strides) != (a.ctypes.data, a.strides):
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


def _pass(src: np.ndarray, dst: np.ndarray, lo: int, hi: int, bufs, table=None) -> None:
    """The stages of index bits [lo, hi), from src into dst (which may be
    src), one tile of len(bufs[0]) elements at a time through the two
    buffers in bufs.

    With a table (first pass only, lo = 0), src holds codes and a tile is
    loaded as table[codes].  np.take would widen each tile's codes to intp
    in a temporary of its own; they are widened instead into the block of
    dst that the tile is written back to, which is contiguous when lo = 0
    and has at least 8 bytes an element, and is not read before then."""
    m, cols = 1 << (hi - lo), 1 << lo
    w = min(cols, bufs[0].shape[0] // m)  # columns per tile
    b = bufs[0].shape[0] // (m * w)  # rows of the slowest axis per tile
    s = src.reshape(-1, m, cols)
    d = dst.reshape(-1, m, cols)
    tiles = [buf.reshape(m, b, w) for buf in bufs]
    for r in range(0, s.shape[0], b):
        for c in range(0, cols, w):
            x, y = tiles
            block = s[r:r + b, :, c:c + w].transpose(1, 0, 2)
            if table is None:
                np.copyto(x, block, casting="unsafe")
            else:
                codes = d[r:r + b].reshape(-1).view(np.intp)[:x.size].reshape(x.shape)
                np.copyto(codes, block, casting="unsafe")
                np.take(table, codes, out=x, mode="clip")  # codes checked by fwht
            h = 1
            while h < m:
                _butterfly(x, y, h * b * w)
                x, y = y, x
                h *= 2
            d[r:r + b, :, c:c + w] = x.transpose(1, 0, 2)


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


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """A full spectrum, indexed by the nu-bit character mask."""

    nu: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (2**self.nu,):
            raise ValueError("spectrum length must be 2^nu")
        self.values.flags.writeable = False
        sup = _max_abs(self.values[1:]) if self.nu else 0.0
        object.__setattr__(self, "_sup_offpeak", sup)

    @property
    def at_one(self) -> float:
        """The value at the trivial character (mask 0)."""
        return float(abs(self.values[0]))

    def sup_offpeak(self) -> float:
        """max |value| over the nontrivial characters, taken once."""
        return self._sup_offpeak


def _as_mask_array(lam: Union[np.ndarray, Iterable[int]], nu: Optional[int]) -> np.ndarray:
    """A bool array as it is, else a fresh mask of length 2^nu with the
    given masks set; ValueError unless the mask is 1-D of length 2^nu."""
    if isinstance(lam, np.ndarray) and lam.dtype == bool:
        n = lam.shape[0] if lam.ndim == 1 else 0
        if n == 0 or n & (n - 1):
            raise ValueError(f"a mask of shape {lam.shape} is not of length 2^nu")
        return lam
    masks = list(lam)
    if nu is None:
        raise ValueError("nu is required when passing masks")
    out = np.zeros(2**nu, dtype=bool)
    for m in map(int, masks):
        if not 0 <= m < out.shape[0]:
            raise ValueError(f"mask {m} lies outside [0, 2^{nu})")
        out[m] = True
    return out


def _check_nu_cap(nu: int) -> None:
    if nu > NU_CAP:
        raise ResourceCapError(f"nu = {nu} exceeds the cap {NU_CAP}")


def sigma_hat(lam: Union[np.ndarray, Iterable[int]], nu: Optional[int] = None) -> SpectralTable:
    """Transform of the counting measure of a subset of (Z/2Z)^nu.

    The value at mask 0 equals |Lambda|.  Verifies the Parseval identity
    sum_y s(y)^2 = 2^nu * |Lambda|, its left side summed exactly, to 1e-9
    relative before returning.  The integer transform is then converted in
    place, chunk by chunk: every value is an integer of magnitude at most
    2^nu, so it equals the float64 transform of the 0/1 mask bit for bit.
    """
    mask = _as_mask_array(lam, nu)
    n = mask.shape[0]
    nu = n.bit_length() - 1
    _check_nu_cap(nu)
    values = fwht(mask)  # from int32 tiles, so every square is below 2^62
    table, lhs, step = values.view(np.float64), 0, 1 << _TILE_BITS
    for i, part in zip(range(0, n, step), _abs_chunks(values, np.int64)):
        lhs += _square_sum(part)
        table[i:i + step] = values[i:i + step]
    _check_parseval(lhs, mask)
    return SpectralTable(nu, table)


def _square_sum(part: np.ndarray) -> int:
    """sum part^2 exactly, for int64 values of modulus at most 2^26 (the
    spectrum of a mask, nu <= NU_CAP); part is overwritten by its squares.
    Each half of a square sum stays below 2^47 for 2^16 values."""
    np.multiply(part, part, out=part)
    return (int((part >> 31).sum()) << 31) + int((part & (2**31 - 1)).sum())


def _check_parseval(lhs: int, mask: np.ndarray) -> None:
    """AssertionError unless lhs = sum_y sigma^(y)^2 is 2^nu |Lambda| to
    1e-9 relative."""
    rhs = float(mask.shape[0]) * float(mask.sum())
    if rhs > 0 and abs(lhs - rhs) > 1e-9 * rhs:
        raise AssertionError("Parseval identity violated beyond tolerance")


def _spectrum_summary(mask: np.ndarray) -> tuple[float, float]:
    """sigma^(0) and max |sigma^| over the nontrivial characters, bit for
    bit as sigma_hat(mask) gives them, after its Parseval check.

    The exact spectrum is read in pieces (see _exact_pieces): every value
    is an integer of modulus at most 2^nu, so its float is the float64
    transform's value, and its maximum and square sum are exact in any
    order.  Beyond the mask this holds one int64 array of 2^nu / _PIECES
    entries and a few tile-sized chunks.
    """
    mask = _as_mask_array(mask, None)
    _check_nu_cap(mask.shape[0].bit_length() - 1)
    at_one, sup = None, 0
    # no enumerate: its cached tuple would keep the last piece alive
    for piece in _exact_pieces(mask.view(np.int8), np.arange(2)):
        if at_one is None:  # the first piece starts with the trivial character
            at_one = int(piece[0])
            lhs, piece = at_one * at_one, piece[1:]
        for part in _abs_chunks(piece, np.int64):
            sup = max(sup, int(part.max()))
            lhs += _square_sum(part)
        piece = part = None  # the piece and its abs chunk, before the next is built
    _check_parseval(lhs, mask)
    return float(at_one), float(sup)


def _exact_pieces(codes: np.ndarray, table: np.ndarray) -> Iterator[np.ndarray]:
    """fwht(table[codes]) for an integer table, exactly, as P = min(_PIECES,
    n) contiguous int64 pieces of m = n / P entries, in order.

    With x_i the i-th block of m entries of table[codes], out[j m + y] is
    sum_i (-1)^popcount(i & j) fwht(x_i)[y], so piece j is the length-m
    fwht of sum_i (-1)^popcount(i & j) x_i.  That input is built _CHUNK
    entries at a time into one buffer of m int64s, transformed there in
    place and yielded: every piece is that same buffer, so a piece is valid
    only until the next one is requested, and the transform holds one
    m-entry array and fwht's two tiles.  Every value is an exact integer
    (int64 sums wrap, so only the transform's own values must fit), so the
    pieces have the bytes of fwht(table[codes]).  The codes must index the
    table.
    """
    n = codes.shape[0]
    count = min(_PIECES, n)
    m = n // count
    blocks = codes.reshape(count, m)
    table = np.asarray(table, dtype=np.int64)
    buf = np.empty(m, np.int64)
    for j in range(count):
        for k in range(0, m, _CHUNK):
            part = buf[k:k + _CHUNK]
            np.take(table, blocks[0, k:k + _CHUNK], out=part, mode="clip")
            for i in range(1, count):
                op = np.subtract if (i & j).bit_count() % 2 else np.add
                op(part, table.take(blocks[i, k:k + _CHUNK], mode="clip"), out=part)
        yield fwht(buf, out=buf)


@dataclass(frozen=True, eq=False)
class FlatSample:
    """A Bernoulli selection whose nontrivial spectrum is flat.

    Of the spectrum sigma_hat(mask) it keeps only the two numbers that the
    flatness test and the witness read: sigma1, the value at the trivial
    character, and sup_offpeak, the largest modulus off it.  They are read
    from the exact spectrum in pieces (see _spectrum_summary), one buffer
    of 2^nu / _PIECES int64s at a time, so no spectrum of 2^nu entries is
    ever held; sigma_hat(mask) builds one with the same two values bit for
    bit.
    """

    nu: int
    ell: int
    alpha: float
    mask: np.ndarray
    sigma1: float
    sup_offpeak: float
    retries_used: int
    lambda_param: float  # 10 * sqrt(nu), the tail parameter backing flatness

    @property
    def flatness_threshold(self) -> float:
        return (20.0 / math.sqrt(self.ell)) * self.sigma1


def sample_flat_lambda(
    nu: int,
    ell: int,
    seed: int = 0,
    max_retries: int = FLAT_RETRY_BUDGET,
) -> FlatSample:
    """Resample Bernoulli(alpha) subsets until the spectrum is flat.

    alpha = 2*ell*nu*2^(-nu) must be < 1 and ell > FLAT_ELL_LIMIT (400).
    Success means the trivial value is at least ell*nu and every nontrivial
    value is at most (20/sqrt(ell)) times the trivial one.
    """
    _check_nu_cap(nu)
    if ell <= FLAT_ELL_LIMIT:
        raise ConfigError(f"need ell > {FLAT_ELL_LIMIT}")
    n = 2**nu
    alpha = 2 * ell * nu / n
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha = {alpha} must lie in (0, 1)")
    ratio = 20.0 / math.sqrt(ell)
    mask = np.empty(n, dtype=bool)
    for t in range(max_retries):
        rng = stream(seed, nu, ell, t)
        for i in range(0, n, _CHUNK):  # the uniforms of rng.random(n), a chunk at a time
            np.less(rng.random(min(_CHUNK, n - i)), alpha, out=mask[i:i + _CHUNK])
        s1, sup = _spectrum_summary(mask)
        if s1 >= ell * nu and sup <= ratio * s1:
            return FlatSample(
                nu=nu,
                ell=ell,
                alpha=alpha,
                mask=mask,
                sigma1=s1,
                sup_offpeak=sup,
                retries_used=t + 1,
                lambda_param=10.0 * math.sqrt(nu),
            )
    raise FlatnessFailure(f"no flat sample in {max_retries} retries")


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------


def masks_independent(masks: Sequence[int]) -> bool:
    """Linear independence over F_2 of character masks."""
    basis: list[int] = []
    for m in masks:
        m = int(m)
        for b in basis:
            m = min(m, m ^ b)
        if m == 0:
            return False
        basis.append(m)
    return True


def _character_sum(nu: int, masks: Iterable[int]) -> np.ndarray:
    """sum_j (-1)^popcount(x & y_j) over the masks y_j, for all x < 2^nu.

    Bits of a mask at or above nu are ignored.  Each character is built by
    doubling over the nu index bits: its values on [2^b, 2^(b+1)) are its
    values on [0, 2^b), negated when bit b of the mask is set.  The sum is
    int8: independent masks number at most nu <= NU_CAP, so it stays in
    [-NU_CAP, NU_CAP].
    """
    masks = [int(y) for y in masks]
    n = 1 << nu
    total = np.zeros(n, dtype=np.int8)
    chi = np.empty(n, dtype=np.int8)
    for y in masks:
        chi[0] = 1
        for b in range(nu):
            h = 1 << b
            if y >> b & 1:
                np.negative(chi[:h], out=chi[h:2 * h])
            else:
                chi[h:2 * h] = chi[:h]
        total += chi
    return total


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


def analyticity_witness(
    lam: Union[np.ndarray, Iterable[int], FlatSample],
    ell: Optional[int] = None,
    rho: Optional[int] = None,
    y_masks: Optional[Sequence[int]] = None,
    nu: Optional[int] = None,
) -> WitnessReport:
    """Duality lower bound for the restriction norm of v = exp(i pi/4 f).

    f = y_1 + ... + y_rho for independent characters; since each y_j takes
    values +-1, v = 2^(-rho/2) * prod_j (1 + i y_j), so |v^| equals
    2^(-rho/2) on the subgroup generated by the masks and vanishes
    elsewhere.  With sigma the counting measure of the sampled set and
    mu = v * sigma, the bound is sigma^(1) / sup_y |mu^(y)|, which applies
    to the norm of v via the norm equality for this unimodular v.

    Reports the exact algebra norm of f itself, rho: f's transform is 2^nu
    at each mask and 0 elsewhere, so nothing cancels (the masks must be
    independent and lie in [0, 2^nu), else ValueError).  Alongside it the
    chain value (2^(-rho/2) + (20/sqrt(ell)) 2^(rho/2))^(-1).

    Of sigma's spectrum only sigma^(1) and its largest off-peak modulus are
    read: from a FlatSample they are its fields; for a raw mask
    _spectrum_summary reads them from the exact spectrum in pieces.
    sup |mu^| is fwht's float maximum bit for bit, found by _sup_mu from
    the exact int64 transform of the unit-valued spectrum u * mask (|mu^|
    = |U|, see _unit_phases), read in pieces too, at every rho.  So beyond
    the mask the peak holds the int8 codes, one int64 array of 2^nu /
    _PIECES entries, fwht's two tiles and a few fixed-size chunks: about 3
    * 2^nu bytes.  Only when more than _MAX_CANDIDATES characters are near
    the maximum does _sup_mu take mu's full complex transform.  nu above
    NU_CAP is refused (ResourceCapError): the cap keeps f in int8 and
    the exact transform packable.
    """
    if isinstance(lam, FlatSample):
        ell = lam.ell if ell is None else ell
        mask, summary = lam.mask, (lam.sigma1, lam.sup_offpeak)
    else:
        mask, summary = _as_mask_array(lam, nu), None
    if ell is None:
        raise ValueError("ell is required")
    n = mask.shape[0]
    nu = n.bit_length() - 1
    _check_nu_cap(nu)
    rho_default, rho_exact = default_rho(ell)
    if rho is None:
        rho = rho_default
    if rho > nu:
        raise ConfigError("rho cannot exceed nu")
    if y_masks is None:
        y_masks = [1 << b for b in range(rho)]
    if len(y_masks) != rho:
        raise ValueError("need exactly rho character masks")
    # _character_sum reads only a mask's low nu bits
    if not (all(0 <= int(y) < n for y in y_masks) and masks_independent(y_masks)):
        raise ValueError("character masks must be independent and lie in [0, 2^nu)")

    s1, sup_off = _spectrum_summary(mask) if summary is None else summary

    # mu = v * sigma with v = exp(i pi/4 f).  f takes the 2 rho + 1 values
    # -rho..rho, so mu is read through codes f + rho (+ 2 rho + 1 where the
    # mask is set) from the table of v's values times False, then times
    # True: the complex products np.multiply(v, mask) makes, signed zeros
    # included.  The codes overwrite f in its int8 array (4 rho + 1 < 128);
    # the mask folds in as 0/1 int8s times 2 rho + 1, whose temporary is
    # freed before the pieces are built.
    v = _phases(rho)
    table = np.concatenate((v * False, v * True))
    codes = _character_sum(nu, y_masks)
    codes += rho
    codes += mask.view(np.int8) * np.int8(2 * rho + 1)
    sup_mu = _sup_mu(codes, table, rho, int(np.count_nonzero(mask)))

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


def _unit_phases(rho: int) -> list[tuple[int, int]]:
    """(Re, Im) of u_k = (-i)^((rho - k)/2) for k = -rho..rho, exactly.

    f(x) = k means b = (rho - k)/2 characters at -1.  Each factor 1 + i
    chi_j(x) is 1 + i or 1 - i = -i (1 + i), so prod_j (1 + i chi_j(x)) =
    (1 + i)^rho (-i)^b, and e^(i pi k/4) = e^(i pi rho/4) u_k: the
    spectra of u * mask and of e^(i pi f/4) * mask have the same modulus.
    k of the other parity never occurs and gets 0.
    """
    return [_UNITS[(rho - k) // 2 % 4] if (rho - k) % 2 == 0 else (0, 0)
            for k in range(-rho, rho + 1)]


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


def _sup_mu(codes: np.ndarray, table: np.ndarray, rho: int, count: int) -> float:
    """max |fwht(codes, table=table)|, bit for bit, mostly without that
    complex transform.

    |mu^| = |U| with U the exact transform of u * mask (see _unit_phases),
    so one int64 transform gives Q = |U|^2 = |mu^|^2 for every character.
    Only characters whose exact modulus lies within 2 delta of the exact
    maximum (delta from _rounding_bound) can hold the float maximum; their
    float values come from _cone_values, and their maximum from _max_abs.
    The float maximum must lie within delta of sqrt(max Q), else
    AssertionError.  The full transform is taken only when more than
    _MAX_CANDIDATES characters are near the maximum.
    """
    delta = _rounding_bound(codes.shape[0].bit_length() - 1, count)
    q_max, ys = _near_maxima(codes, rho, 2 * delta)
    sup = _max_abs(fwht(codes, table=table) if ys is None else _cone_values(codes, table, ys))
    if abs(sup - math.sqrt(q_max)) > delta:
        raise AssertionError("float and exact sup |mu^| disagree beyond rounding")
    return sup


def _near_maxima(codes: np.ndarray, rho: int, slack: float) -> tuple[int, Optional[list[int]]]:
    """max Q and the y with sqrt(Q(y)) >= sqrt(max Q) - slack, for Q = |U|^2
    and U the exact transform of u * mask; None for the y's when there are
    more than _MAX_CANDIDATES of them.

    U = A + iB is read in pieces (see _exact_pieces) of the int64 transform
    of the table Re u + 2^31 Im u, indexed by the witness's codes (0 where
    the mask is unset).  |A| and |B| are at most |Lambda| <= 2^NU_CAP <
    2^30, so each chunk unpacks by bit operations and is overwritten in
    place by Q = A^2 + B^2 <= 2^(2 NU_CAP).  Only the _MAX_CANDIDATES + 1
    largest (Q, y) pairs seen are kept: the y's above the threshold are all
    among them when there are at most _MAX_CANDIDATES, and fill them when
    there are more.
    """
    u = _unit_phases(rho)
    packed = np.array([0] * len(u) + [re + (im << 31) for re, im in u], dtype=np.int64)
    keep = _MAX_CANDIDATES + 1
    top: list[tuple[int, int]] = []
    low = np.empty(min(codes.shape[0], _CHUNK), np.int64)
    offset = 0
    for piece in _exact_pieces(codes, packed):
        for i in range(0, piece.shape[0], _CHUNK):
            part, a = piece[i:i + _CHUNK], low[:min(_CHUNK, piece.shape[0] - i)]
            np.add(part, 1 << 30, out=a)
            a &= (1 << 31) - 1
            a -= 1 << 30  # A, the low 31 bits read as signed
            part -= a
            part >>= 31  # B
            np.multiply(part, part, out=part)
            np.multiply(a, a, out=a)
            part += a
            if len(top) < keep or part.max() > top[-1][0]:  # a full top takes only a larger Q
                most = min(keep, len(part))
                found = np.argpartition(part, -most)[-most:].tolist()
                top = heapq.nlargest(keep, top + [(int(part[k]), offset + i + k) for k in found])
        offset += piece.shape[0]
        del piece, part  # before the next piece is built
    q_max = top[0][0]
    # keep Q >= floor(t^2 / 2^64) with t <= 2^32 (sqrt(max Q) - slack), so
    # no y within slack of the maximum is dropped
    t = math.isqrt(q_max << 64) - math.ceil(math.ldexp(slack, 32))
    threshold = (t * t) >> 64 if t > 0 else 0
    ys = sorted(y for q, y in top if q >= threshold)
    return q_max, ys if len(ys) <= _MAX_CANDIDATES else None


def _cone_values(codes: np.ndarray, table: np.ndarray, ys: Sequence[int]) -> np.ndarray:
    """fwht(codes, table=table)[y] for each y in ys, bit for bit.

    The stage of bit b pairs (x, x + 2^b) into a + b at x and a - b at
    x + 2^b, so out[y] needs after that stage only the entries that agree
    with y on bits 0..b: each stage halves the entries that y reads, in
    fwht's order and with its operands, about 2^nu additions in all.  The
    inputs are gathered _CHUNK at a time, and each chunk is halved down to
    one entry per y before the entries of all chunks are halved on.
    """
    n = codes.shape[0]
    step = min(n, _CHUNK)
    bits = step.bit_length() - 1
    tops = np.empty((len(ys), n // step), np.complex128)
    for c, i in enumerate(range(0, n, step)):
        x = table[codes[i:i + step]]
        for j, y in enumerate(ys):
            tops[j, c] = _halve(x, y, bits)[0]
    rest = n.bit_length() - 1 - bits
    return np.array([_halve(top, y >> bits, rest)[0] for top, y in zip(tops, ys)])


def _halve(x: np.ndarray, y: int, bits: int) -> np.ndarray:
    """The stages of bits 0..bits-1 on x, keeping only the entries that
    agree with y on those bits."""
    for b in range(bits):
        pairs = x.reshape(-1, 2)
        x = (np.subtract if y >> b & 1 else np.add)(pairs[:, 0], pairs[:, 1])
    return x


def _abs_chunks(a: np.ndarray, dtype) -> Iterator[np.ndarray]:
    """|a| one tile-sized chunk at a time, each written into the same
    buffer of dtype, instead of into an array-sized temporary."""
    step = 1 << _TILE_BITS
    buf = np.empty(min(a.shape[0], step), dtype)
    for i in range(0, a.shape[0], step):
        yield np.abs(a[i:i + step], out=buf[:min(step, a.shape[0] - i)])


def _max_abs(a: np.ndarray) -> float:
    """max |a| in float64 (a maximum is exact in any order)."""
    return float(max(part.max() for part in _abs_chunks(a, np.float64)))


def a_norm_upper_bound(v: np.ndarray, mask: np.ndarray) -> float:
    """Upper estimate of the restriction norm by subgradient descent.

    Minimizes the mean absolute spectrum over extensions of v|Lambda in 400
    steps of size 0.5/sqrt(t); every iterate is feasible, so the best
    objective seen is a valid upper bound on the restriction norm.  Small nu
    only (up to A_NORM_NU_CAP); used as a cross-check against the duality
    lower bound.
    """
    n = v.shape[0]
    if n > 2**A_NORM_NU_CAP:
        raise ResourceCapError(
            f"cross-check route is limited to nu <= {A_NORM_NU_CAP}"
        )
    g = v.astype(np.complex128, copy=True)
    best = float(np.abs(fwht(g)).sum()) / n
    for t in range(1, 401):
        spec = fwht(g)
        mag = np.abs(spec)
        phase = np.where(mag > 1e-15, spec / np.maximum(mag, 1e-300), 0)
        grad = fwht(phase) / n
        g = g - (0.5 / math.sqrt(t)) * grad
        g[mask] = v[mask]
        best = min(best, float(np.abs(fwht(g)).sum()) / n)
    return best
