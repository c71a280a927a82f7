"""Walsh spectra on (Z/2Z)^nu, flat random selections, and the
exponential-norm witness.

Characters are identified with nu-bit masks; y acts on x as
(-1)^popcount(x & y).  ``fwht`` is the unnormalized fast transform (an
involution up to the factor 2^nu).  ``sample_flat_lambda`` draws Bernoulli
selections until the nontrivial spectrum is flat relative to the mass at
the trivial character; ``analyticity_witness`` then certifies, by duality,
a lower bound on the restriction-algebra norm of exp(i pi/4 f) for a sum f
of independent characters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence, Union

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


class FlatnessFailure(RuntimeError):
    """No flat sample found within the retry budget."""


def _target_dtype(a: np.ndarray) -> np.dtype:
    if np.issubdtype(a.dtype, np.complexfloating):
        return np.dtype(np.complex128)
    if np.issubdtype(a.dtype, np.floating):
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def fwht(values, table=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform.

    out[y] = sum_x in[x] * (-1)^popcount(x & y); applying it twice returns
    2^nu times the input.  Integer inputs stay exact (int64).  With a
    one-dimensional ``table``, ``values`` are integer codes into it and the
    transform is that of ``table[values]``, without building that array:
    the first pass gathers each tile from the table.  The result has the
    same bytes as ``fwht(table[values])``.

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
    output through the tiles.  So the argument is never written, and beyond
    the output the transform allocates two tiles.

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
    if table is not None:
        table = table.astype(work, copy=False)
    out = np.empty(n, dtype)
    tile = min(n, 1 << _TILE_BITS)
    bufs = (np.empty(tile, work), np.empty(tile, work))
    step = max(1, _TILE_BITS // 2)
    src = a
    for lo in range(0, max(nu, 1), step):  # at nu = 0, one pass of no stages copies
        _pass(src, out, lo, min(lo + step, nu), bufs, table)
        src, table = out, None
    return out


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
    if isinstance(lam, np.ndarray) and lam.dtype == bool:
        return lam
    masks = list(lam)
    if nu is None:
        raise ValueError("nu is required when passing masks")
    out = np.zeros(2**nu, dtype=bool)
    for m in masks:
        out[int(m)] = True
    return out


def _check_nu_cap(nu: int) -> None:
    if nu > NU_CAP:
        raise ResourceCapError(f"nu = {nu} exceeds the cap {NU_CAP}")


def sigma_hat(lam: Union[np.ndarray, Iterable[int]], nu: Optional[int] = None) -> SpectralTable:
    """Transform of the counting measure of a subset of (Z/2Z)^nu.

    The value at mask 0 equals |Lambda|.  Verifies the Parseval identity
    sum_y s(y)^2 = 2^nu * |Lambda| to 1e-9 relative before returning.  The
    mask is transformed in integers and then converted: every value is an
    integer of magnitude at most 2^nu, so it equals the float64 transform of
    the 0/1 mask bit for bit.
    """
    mask = _as_mask_array(lam, nu)
    n = mask.shape[0]
    nu = n.bit_length() - 1
    _check_nu_cap(nu)
    table = fwht(mask).astype(np.float64)
    lhs = float(np.sum(table * table))
    rhs = float(n) * float(mask.sum())
    if rhs > 0 and abs(lhs - rhs) > 1e-9 * rhs:
        raise AssertionError("Parseval identity violated beyond tolerance")
    return SpectralTable(nu, table)


@dataclass(frozen=True, eq=False)
class FlatSample:
    """A Bernoulli selection whose nontrivial spectrum is flat."""

    nu: int
    ell: int
    alpha: float
    mask: np.ndarray
    spectrum: SpectralTable
    retries_used: int
    lambda_param: float  # 10 * sqrt(nu), the tail parameter backing flatness

    @property
    def sigma1(self) -> float:
        return self.spectrum.at_one

    @property
    def sup_offpeak(self) -> float:
        return self.spectrum.sup_offpeak()

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
    for t in range(max_retries):
        rng = stream(seed, nu, ell, t)
        mask = rng.random(n) < alpha
        table = sigma_hat(mask)
        s1 = table.at_one
        if s1 >= ell * nu and table.sup_offpeak() <= ratio * s1:
            return FlatSample(
                nu=nu,
                ell=ell,
                alpha=alpha,
                mask=mask,
                spectrum=table,
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
    int8 for fewer than 128 masks (it cannot leave [-127, 127]), int64
    otherwise.
    """
    masks = [int(y) for y in masks]
    n = 1 << nu
    total = np.zeros(n, dtype=np.int8 if len(masks) < 128 else np.int64)
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


def _character_values(nu: int, y: int) -> np.ndarray:
    """(-1)^popcount(x & y) for all x, as an int8 array."""
    return _character_sum(nu, [y])


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

    Reports the exact algebra norm of f itself (= rho: one unit Walsh
    coefficient per mask) alongside the chain value
    (2^(-rho/2) + (20/sqrt(ell)) 2^(rho/2))^(-1).
    """
    if isinstance(lam, FlatSample):
        ell = lam.ell if ell is None else ell
        mask, spectrum = lam.mask, lam.spectrum  # spectrum is sigma_hat(mask)
    else:
        mask, spectrum = _as_mask_array(lam, nu), None
    if ell is None:
        raise ValueError("ell is required")
    n = mask.shape[0]
    nu = n.bit_length() - 1
    rho_default, rho_exact = default_rho(ell)
    if rho is None:
        rho = rho_default
    if rho > nu:
        raise ConfigError("rho cannot exceed nu")
    if y_masks is None:
        y_masks = [1 << b for b in range(rho)]
    if len(y_masks) != rho:
        raise ValueError("need exactly rho character masks")
    if not masks_independent(y_masks):
        raise ValueError("character masks are dependent over F_2")

    f = _character_sum(nu, y_masks)
    f_norm = float(np.abs(fwht(f)).sum()) / n

    if spectrum is None:
        spectrum = sigma_hat(mask)
    s1, sup_off = spectrum.at_one, spectrum.sup_offpeak()

    # mu = v * sigma with v = exp(i pi/4 f).  f takes the 2 rho + 1 values
    # -rho..rho, so mu is read through codes f + rho (+ 2 rho + 1 where the
    # mask is set) from the table of v's values times False, then times
    # True: the complex products np.multiply(v, mask) makes, signed zeros
    # included.  The codes overwrite f.
    v = np.exp(1j * (math.pi / 4) * np.arange(-rho, rho + 1))
    table = np.concatenate((v * False, v * True))
    codes = f if 4 * rho + 1 <= np.iinfo(f.dtype).max else f.astype(np.int16)
    codes += rho
    np.add(codes, 2 * rho + 1, out=codes, where=mask)
    del f
    sup_mu = _max_abs(fwht(codes, table=table))

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
        f_algebra_norm=f_norm,
        flatness_holds=sup_off <= ratio * s1,
        passed=lower >= target,
    )


def _max_abs(a: np.ndarray) -> float:
    """max |a|, one tile-sized chunk at a time instead of through an
    array-sized temporary (a maximum is exact in any order)."""
    step = 1 << _TILE_BITS
    buf = np.empty(min(a.shape[0], step), np.float64)
    peaks = []
    for i in range(0, a.shape[0], step):
        part = buf[:min(step, a.shape[0] - i)]
        peaks.append(np.abs(a[i:i + step], out=part).max())
    return float(np.max(peaks))


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
