import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonlab.core import ConfigError
from sidonlab.spectral import (
    FlatnessFailure,
    FlatSample,
    _character_sum,
    _exact_pass,
    analyticity_witness,
    default_rho,
    fwht,
    naive_wht,
    sample_flat_lambda,
)


def _popcount_sum(nu, masks):
    """sum_j (-1)^popcount(x & y_j) over any masks y_j, for all x < 2^nu
    (bits at or above nu are ignored), in int8."""
    x = np.arange(2**nu)
    f = np.zeros(2**nu, dtype=np.int8)
    for y in masks:
        parity = np.zeros(2**nu, dtype=np.int64)
        for b in range(nu):
            if y >> b & 1:
                parity ^= x >> b & 1
        f += (1 - 2 * parity).astype(np.int8)
    return f


def _sample_of(mask, rho):
    """A FlatSample at ell = 401 and rho of any mask of length 2^nu, flat or
    not, its spectra read by _exact_pass as sample_flat_lambda reads them."""
    spectra = _exact_pass(mask, rho)
    return FlatSample(nu=mask.shape[0].bit_length() - 1, ell=401, alpha=float(mask.mean()),
                      mask=mask, sigma1=float(spectra.sigma1), sup_offpeak=float(spectra.sup),
                      retries_used=1, rho=rho, top=tuple(spectra.top))


def test_fwht_delta_and_constant():
    delta = np.zeros(8, dtype=np.int64)
    delta[0] = 1
    assert np.array_equal(fwht(delta), np.ones(8, dtype=np.int64))
    ones = np.ones(8, dtype=np.int64)
    out = fwht(ones)
    assert out[0] == 8 and not out[1:].any()


def test_fwht_requires_power_of_two():
    with pytest.raises(ValueError):
        fwht(np.ones(6))
    with pytest.raises(ValueError):
        fwht(np.ones((4, 4)))


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_fwht_matches_naive_oracle(nu):
    rng = np.random.default_rng(nu)
    a = rng.integers(-9, 10, 2**nu)
    assert np.array_equal(fwht(a), naive_wht(a))
    x = rng.normal(size=2**nu)
    assert np.allclose(fwht(x), naive_wht(x), rtol=1e-12)
    z = rng.normal(size=2**nu) + 1j * rng.normal(size=2**nu)
    assert np.allclose(fwht(z), naive_wht(z), rtol=1e-12)


@pytest.mark.parametrize("nu", [1, 3, 5])
def test_fwht_involution(nu):
    rng = np.random.default_rng(nu + 10)
    a = rng.integers(-50, 50, 2**nu)
    assert np.array_equal(fwht(fwht(a)), (2**nu) * a)
    x = rng.normal(size=2**nu)
    assert np.allclose(fwht(fwht(x)), (2**nu) * x, rtol=1e-9)


# Integer-valued inputs in every dtype.  Tiles of 2^1..2^4 make transforms
# of nu <= 10 run several passes of one to two bits over many tiles; 2^15
# runs two passes of 7 bits (the default is 2^16, 8 bits).
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 15]),
    st.integers(0, 10).flatmap(
        lambda nu: st.tuples(
            st.lists(st.integers(-(2**40), 2**40), min_size=2**nu, max_size=2**nu),
            st.sampled_from([np.int64, np.bool_, np.float64, np.complex128]),
        )
    ),
)
def test_fwht_integer_inputs_match_naive_property(block_bits, case):
    import sidonlab.spectral

    values, dtype = case
    a = np.array(values, dtype=np.int64).astype(dtype)
    if dtype is np.complex128:
        a = a + 1j * a[::-1]
    saved = sidonlab.spectral._TILE_BITS
    sidonlab.spectral._TILE_BITS = block_bits
    try:
        out = fwht(a)
    finally:
        sidonlab.spectral._TILE_BITS = saved
    expected = naive_wht(a)
    assert out.dtype == expected.dtype
    if dtype in (np.int64, np.bool_):
        assert np.array_equal(out, expected)
    else:
        assert np.allclose(out, expected, rtol=1e-12)


# Integer inputs at the edge of the int32 tiles: a character times
# peak = (2^31 - 1) // n + offset makes the transform reach n * peak at y0,
# within int32 for offset <= 0 and past it otherwise; a random vector of
# the same peak rides along.  Peaks near 2^62 / n check the int64 tiles.
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 16]),
    st.integers(0, 10),
    st.integers(-2, 2),
    st.sampled_from([31, 62]),
    st.integers(0, 2**10 - 1),
    st.sampled_from([1, -1]),
    st.integers(0, 2**32 - 1),
)
def test_fwht_tile_dtype_bound_property(tile_bits, nu, offset, log_bound, y0, sign, seed):
    import sidonlab.spectral
    from sidonlab.spectral import _tile_dtype

    n = 2**nu
    peak = (2**log_bound - 1) // n + offset
    extreme = sign * peak * _popcount_sum(nu, [y0]).astype(np.int64)
    noise = np.random.default_rng(seed).integers(-peak, peak + 1, n)
    noise[seed % n] = sign * peak
    narrow = log_bound == 31 and offset <= 0
    saved = sidonlab.spectral._TILE_BITS
    sidonlab.spectral._TILE_BITS = tile_bits
    try:
        for a in (extreme, noise):
            assert _tile_dtype(a, n, np.dtype(np.int64)) == (np.int32 if narrow else np.int64)
            out = fwht(a)
            assert out.dtype == np.int64
            assert np.array_equal(out, naive_wht(a))
    finally:
        sidonlab.spectral._TILE_BITS = saved


@pytest.mark.parametrize("kind", ["complex128", "float64", "int64"])
@pytest.mark.parametrize("block_bits", [1, 3, 16])
@pytest.mark.parametrize("nu", [0, 1, 5, 9])
def test_fwht_table_route_equals_gathered_input(nu, block_bits, kind, monkeypatch):
    # fwht in place, as _sup_mu's complex fallback runs it, on an input
    # gathered from a table of signed zeros and values far apart in scale
    monkeypatch.setattr("sidonlab.spectral._TILE_BITS", block_bits)
    rng = np.random.default_rng(nu + block_bits)
    if kind == "int64":
        table = rng.integers(-(2**40), 2**40, 9)
    else:
        table = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-300, 7.0, -0.5])
        if kind == "complex128":
            table = table + 1j * table[::-1]
    codes = rng.integers(0, len(table), 2**nu).astype(np.int8)
    x = table[codes]
    assert fwht(x, out=x) is x
    assert x.dtype == np.dtype(kind) and x.tobytes() == fwht(table[codes]).tobytes()


@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float64, np.complex128])
@pytest.mark.parametrize("nu", [0, 1, 2, 3, 6, 7, 9])
def test_fwht_never_writes_its_argument(nu, dtype):
    _check_fwht_leaves_its_argument(nu, dtype)


@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float64, np.complex128])
@pytest.mark.parametrize("block_bits", [1, 2, 4])
@pytest.mark.parametrize("nu", [0, 1, 2, 3, 6, 7, 9])
def test_fwht_never_writes_its_argument_in_small_blocks(nu, block_bits, dtype, monkeypatch):
    monkeypatch.setattr("sidonlab.spectral._TILE_BITS", block_bits)
    _check_fwht_leaves_its_argument(nu, dtype)


def _check_fwht_leaves_its_argument(nu, dtype):
    rng = np.random.default_rng(nu)
    a = (rng.integers(-5, 6, 2**nu) + (1j if dtype is np.complex128 else 0)).astype(dtype)
    before = a.copy()
    out = fwht(a)
    assert not np.shares_memory(out, a)
    assert np.array_equal(a, before)
    out[...] = 0
    assert np.array_equal(a, before)


def test_fwht_allocates_the_output_and_two_tiles():
    # in place (out=values) the output is not allocated either
    import tracemalloc

    from sidonlab.spectral import _TILE_BITS

    for in_place in (False, True):
        a = np.ones(2**18, dtype=np.complex128)
        tile_bytes = (1 << _TILE_BITS) * a.itemsize
        tracemalloc.start()
        try:
            out = fwht(a, out=a if in_place else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out[0] == 2**18 and not out[1:].any()
        # slack: the buffers numpy's ufunc loop takes for three strided operands
        slack = 3 * np.getbufsize() * a.itemsize + 64 * 1024
        assert peak <= (0 if in_place else out.nbytes) + 2 * tile_bytes + slack


# out= is the argument itself where the dtypes allow it (bool has no
# in-place transform), else a separate array; the tile sizes run one to two
# bits a pass, three bits a pass and the default.
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 3, 16]),
    st.integers(0, 12),
    st.sampled_from([np.bool_, np.int64, np.float64, np.complex128]),
    st.integers(0, 2**32 - 1),
)
def test_fwht_into_out_equals_a_fresh_transform_property(tile_bits, nu, dtype, seed):
    import sidonlab.spectral

    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        x = rng.random(2**nu) < 0.5
    elif dtype is np.int64:
        x = rng.integers(-(2**40), 2**40, 2**nu)
    else:
        x = rng.standard_normal(2**nu) * 10.0 ** rng.integers(-8, 9, 2**nu)
        if dtype is np.complex128:
            x = x + 1j * rng.standard_normal(2**nu)
    saved = sidonlab.spectral._TILE_BITS
    sidonlab.spectral._TILE_BITS = tile_bits
    try:
        want = fwht(x)
        y = x.copy()
        out = y if dtype is not np.bool_ else np.full(2**nu, 7, np.int64)
        got = fwht(y, out=out)
    finally:
        sidonlab.spectral._TILE_BITS = saved
    assert got is out
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_fwht_rejects_a_bad_out():
    x = np.arange(8)
    read_only = np.empty(8, np.int64)
    read_only.flags.writeable = False
    bad = [np.empty(8, np.float64), np.empty(8, np.int32), np.empty(4, np.int64),
           np.empty(16, np.int64), np.empty(16, np.int64)[::2], np.empty((2, 4), np.int64),
           read_only, [0] * 8]
    for out in bad:
        with pytest.raises(ValueError, match="out must be"):
            fwht(x, out=out)
    with pytest.raises(ValueError, match="out must be"):
        fwht(np.ones(8, bool), out=np.ones(8, bool))  # bool is not the result dtype
    big = np.arange(16)
    with pytest.raises(ValueError, match="only by being values"):
        fwht(big[4:12], out=big[:8])  # overlapping, but not the argument itself


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def seed0_nu22():
    return sample_flat_lambda(nu=22, ell=40000, seed=0)


def test_fwht_bit_identical_pins_at_nu22(seed0_nu22):
    # SHA-256 of the transforms made by the stage-by-stage radix-2 loop
    # (one reshape, copy and two in-place updates per stage), which fwht
    # must reproduce bit for bit
    sigma = seed0_nu22.mask.astype(np.float64)
    f = _character_sum(22, 3)
    v = np.exp(1j * (math.pi / 4) * f)
    pins = [
        (sigma, np.float64,
         "8e49bd8f21f9f68d7f9ae6f566f44eee843044b4e6e22edb18aa4f84cef2e308"),
        (v * sigma, np.complex128,
         "d44b87e1e9c6b1a300e6b6459cfe08f0f0a56093e6ea3ed328a46da3a9394402"),
        (f, np.int64,
         "fa77e74084150c7a759e38fa0c1e908624155c5ad8d9076a1ecf5c70edd7fbb9"),
    ]
    for values, dtype, digest in pins:
        out = fwht(values)
        assert out.dtype == dtype
        assert _sha256(out.tobytes()) == digest
    # the witness's route to the same complex transform (_sup_mu's
    # fallback): v * sigma filled a chunk at a time, transformed in place
    from sidonlab.spectral import _CHUNK, _mu_chunk

    x = np.empty(2**22, np.complex128)
    for i in range(0, 2**22, _CHUNK):
        x[i:i + _CHUNK] = _mu_chunk(seed0_nu22.mask, 3, i, _CHUNK)
    assert _sha256(fwht(x, out=x).tobytes()) == pins[1][2]


# Above the sample, the witness on the cone route holds one complex chunk of
# mu (16 * _CHUNK bytes) and less than that again for the chunk's index and
# halvings, whatever nu: it builds nothing of 2^nu entries.  The slack is
# that of test_fwht_allocates_the_output_and_two_tiles.
def _witness_peak(sample):
    import tracemalloc

    tracemalloc.start()
    try:
        analyticity_witness(sample)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cone_bound():
    from sidonlab.spectral import _CHUNK

    return 2 * 16 * _CHUNK + 3 * np.getbufsize() * 16 + 64 * 1024


def test_witness_peak_memory(seed0_nu22):
    # one bound at nu = 20 and 22: the peak does not grow with 2^nu
    for sample in (sample_flat_lambda(nu=20, ell=401, seed=0, rho=3), seed0_nu22):
        assert not sample.counters()["complex_fallback"]
        assert _witness_peak(sample) <= _cone_bound() < 2**22


def test_flat_sample_and_witness_peak_memory(small_flat):
    # the CLI's path: the sample stays alive through the witness.  The
    # sample's peak may hold the mask, the exact pass's one piece, fwht's
    # two tiles and the chunks; neither sigma's spectrum, mu's complex
    # transform, a whole int64 transform nor f's transform may join them.
    # The witness adds only the cones' chunks to the mask.  (small_flat
    # is drawn before tracing starts, so numpy.random's import is not
    # counted.)
    import tracemalloc

    from sidonlab.spectral import _CHUNK, _PIECES, _TILE_BITS

    n = 2**20
    tracemalloc.start()
    try:
        sample = sample_flat_lambda(nu=20, ell=4000, seed=0)
        _, sample_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        analyticity_witness(sample)
        _, witness_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece, tiles, chunks = 8 * (n // _PIECES), 2 * (8 << _TILE_BITS), 16 * _CHUNK
    # slack as in test_fwht_allocates_the_output_and_two_tiles
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert sample_peak <= piece + n + tiles + chunks + slack
    assert witness_peak <= n + _cone_bound()


def test_flat_sample_peak_memory(small_flat):
    # both spectra are read in pieces of n / _PIECES int64s, each
    # transformed in place in one buffer (see _exact_pass), and the draws
    # are made a chunk at a time, so beside the mask the sample holds only
    # that piece and about two tile-sized chunks (fwht's two int32 tiles, the
    # row-stage chunks of U and the square sum's temporaries).
    import tracemalloc

    from sidonlab.spectral import _PIECES, _TILE_BITS

    n = 2**20
    tracemalloc.start()
    try:
        sample_flat_lambda(nu=20, ell=4000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece, chunk = 8 * (n // _PIECES), 8 << _TILE_BITS
    # slack as in test_fwht_allocates_the_output_and_two_tiles
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert peak <= piece + n + 2 * chunk + slack


# the spectral benchmark's three seeds at the defaults, and rho = 20 and 22,
# where a cone chunk's start bits fall inside the low rho bits
@pytest.mark.parametrize("seed, rho, sup_mu, lower_bound, digest", [
    pytest.param(0, None, "0x1.3022bd528ca83p+19", "0x1.6995fee186deap+1",
                 "09d8922f3877ca75ffe231cd0235e249fe9cbcb1fb16eefff07de7e94b180b67", id="seed0"),
    pytest.param(1, None, "0x1.2fd5a7e6c096cp+19", "0x1.69b8624cc941cp+1",
                 "dd178d2ce445899eb64fcb69f4f0e61069b4e3ecac3245159b2bba193ff693ac", id="seed1"),
    pytest.param(2, None, "0x1.2fd9e8033dc65p+19", "0x1.69bbe83de7220p+1",
                 "1554ec047e949fe82179fd133c75dcc6c6ce9a303201d53bc47bf745139adc97", id="seed2"),
    pytest.param(0, 20, "0x1.46681ee1b9aafp+12", "0x1.50ea22bd8c662p+8",
                 "bc553e423afb801007ae96a1394f1493efabf7bee4a8cf71c22b413e5e649eed", id="rho20"),
    pytest.param(0, 22, "0x1.1e0dee34c8f24p+12", "0x1.807105dab9efdp+8",
                 "bf6edeced2ab6f255a40a860b0583f114a1886338a0786f094c133acdca8c2cb", id="rho22"),
])
def test_witness_report_pin_at_nu22(seed, rho, sup_mu, lower_bound, digest, seed0_nu22):
    if (seed, rho) == (0, None):
        sample = seed0_nu22
    else:
        sample = sample_flat_lambda(nu=22, ell=40000, seed=seed, rho=rho)
    report = analyticity_witness(sample).to_dict()
    assert (report["sup_mu"].hex(), report["lower_bound"].hex()) == (sup_mu, lower_bound)
    assert _sha256(json.dumps(report, sort_keys=True).encode()) == digest


def test_convolution_identity():
    # transform of a pointwise product = (1/2^nu) * xor-convolution of transforms
    rng = np.random.default_rng(77)
    for nu in (2, 3, 4):
        n = 2**nu
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        lhs = fwht(f * g)
        fh, gh = fwht(f), fwht(g)
        conv = np.zeros(n)
        for y1 in range(n):
            for y2 in range(n):
                conv[y1 ^ y2] += fh[y1] * gh[y2]
        assert np.allclose(lhs, conv / n, rtol=1e-9, atol=1e-9)


def test_sigma_hat_counts_and_parseval():
    mask = np.zeros(8, dtype=bool)
    mask[[0b01, 0b10, 0b11]] = True
    assert _exact_pass(mask, 0).sigma1 == 3
    assert int((fwht(mask) ** 2).sum()) == _exact_pass(mask, 1).squares == 8 * 3
    full = _exact_pass(np.ones(16, dtype=bool), 2)
    assert (full.sigma1, full.sup, full.squares) == (16, 0, 16 * 16)


def test_max_abs_takes_tile_chunks():
    import tracemalloc

    from sidonlab.spectral import _TILE_BITS, _max_abs

    rng = np.random.default_rng(0)
    values = rng.standard_normal(2**18) + 1j * rng.standard_normal(2**18)
    tracemalloc.start()
    try:
        sup = _max_abs(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sup == np.abs(values).max()
    # one tile-sized buffer, not a spectrum-sized np.abs temporary
    assert peak <= (8 << _TILE_BITS) + 64 * 1024 < values.nbytes


def test_sigma_hat_coset_support():
    # a coset of a subgroup H has |sigma^| = |Lambda| on the annihilator of H
    nu = 4
    h_masks = [0b0011, 0b0101]  # generate H of size 4
    members = {0}
    for m in h_masks:
        members |= {x ^ m for x in members}
    coset = {x ^ 0b1000 for x in members}
    mask = np.zeros(2**nu, dtype=bool)
    mask[sorted(coset)] = True
    mags = np.abs(fwht(mask.astype(np.float64)))
    annihilator = [
        y for y in range(2**nu) if all((y & x).bit_count() % 2 == 0 for x in members)
    ]
    for y in range(2**nu):
        if y in annihilator:
            assert mags[y] == len(coset)
        else:
            assert mags[y] == 0


def test_default_rho():
    rho, exact = default_rho(40000)
    assert rho == 3 and exact == pytest.approx(math.log2(10))
    assert default_rho(401)[0] >= 0


@pytest.fixture(scope="module")
def small_flat():
    return sample_flat_lambda(nu=14, ell=401, seed=0)


def test_sample_flat_lambda_contract(small_flat):
    s = small_flat
    assert s.sigma1 >= s.ell * s.nu
    assert s.sup_offpeak <= s.flatness_threshold
    assert s.retries_used >= 1
    again = sample_flat_lambda(nu=14, ell=401, seed=0)
    assert np.array_equal(again.mask, s.mask)


def test_sample_flat_lambda_validation():
    with pytest.raises(ValueError):
        sample_flat_lambda(nu=14, ell=400, seed=0)  # needs ell > 400
    with pytest.raises(ValueError):
        sample_flat_lambda(nu=10, ell=401, seed=0)  # alpha >= 1
    with pytest.raises(FlatnessFailure):
        sample_flat_lambda(nu=14, ell=401, seed=0, max_retries=0)


def test_witness_rho_zero(small_flat):
    rep = analyticity_witness(sample_flat_lambda(nu=14, ell=401, seed=0, rho=0))
    assert rep.lower_bound == pytest.approx(1.0)
    assert rep.target == pytest.approx(0.5)
    assert rep.passed
    # the sample's spectra are the ones _exact_pass reads from its mask
    assert analyticity_witness(_sample_of(small_flat.mask, 0)) == rep


def test_witness_structure(small_flat):
    rep = analyticity_witness(sample_flat_lambda(nu=14, ell=401, seed=0, rho=2))
    assert rep.f_algebra_norm == pytest.approx(2.0)  # rho unit coefficients
    assert rep.flatness_holds
    # computed duality bound is at least as strong as the analytic chain
    assert rep.lower_bound >= rep.chain_bound - 1e-9
    assert rep.sigma1 == small_flat.sigma1
    assert analyticity_witness(_sample_of(small_flat.mask, 2)) == rep


def test_witness_validation(small_flat):
    # the witness's rho is fixed when the sample is drawn
    for rho in (small_flat.nu + 1, 20):
        with pytest.raises(ConfigError, match="rho cannot exceed nu"):
            sample_flat_lambda(nu=14, ell=401, seed=0, rho=rho)
    with pytest.raises(ValueError, match="negative"):
        sample_flat_lambda(nu=14, ell=401, seed=0, rho=-1)


@pytest.mark.parametrize("nu", range(13))
def test_character_sum_matches_popcount_loop(nu):
    for rho in range(nu + 1):
        masks = [1 << b for b in range(rho)]
        f = _character_sum(nu, rho)
        expected = [
            sum(1 - 2 * ((x & y).bit_count() % 2) for y in masks) for x in range(2**nu)
        ]
        assert f.dtype == np.int8
        assert f.tolist() == expected


def test_v_spectrum_is_flat_on_subgroup():
    # v = exp(i pi/4 (y1 + ... + y_rho)) has |v^| = 2^(-rho/2) on the
    # subgroup generated by the masks, and 0 elsewhere
    nu, rho = 5, 3
    n = 2**nu
    masks = [1, 2, 4]
    f = _character_sum(nu, rho).astype(np.int64)
    v = np.exp(1j * (math.pi / 4) * f)
    vh = fwht(v) / n
    subgroup = {0}
    for m in masks:
        subgroup |= {x ^ m for x in subgroup}
    for y in range(n):
        if y in subgroup:
            assert abs(abs(vh[y]) - 2 ** (-rho / 2)) < 1e-12
        else:
            assert abs(vh[y]) < 1e-12
    assert np.abs(vh).sum() == pytest.approx(2 ** (rho / 2))


# ---------------------------------------------------------------------------
# sup |mu^| from the exact transform and the cones of its near-maxima
# ---------------------------------------------------------------------------


def _mu_inputs(mask, rho):
    """mu = exp(i pi/4 f) * mask, f on the first rho characters, as codes
    into a complex table, the oracle of _mu_chunk: codes f + rho (+ 2 rho
    + 1 where the mask is set) into v's values times False, then times
    True."""
    from sidonlab.spectral import _phases

    v = _phases(rho)
    codes = _popcount_sum(mask.shape[0].bit_length() - 1, [1 << b for b in range(rho)]) + rho
    np.add(codes, 2 * rho + 1, out=codes, where=mask)
    return codes, np.concatenate((v * False, v * True))


def _exact_q(codes, rho, transform=fwht):
    """Q = |mu^|^2 at every character, exactly, for the codes of _mu_inputs:
    Re and Im of the unit-valued function times the mask, transformed
    separately."""
    from sidonlab.spectral import _UNITS

    # code c + rho of a point in the set has f = c, so (rho - c) / 2 characters at -1
    units = [_UNITS[(rho - c) // 2 % 4] for c in range(-rho, rho + 1)]
    re = transform(np.array([0] * len(units) + [a for a, _ in units])[codes]).astype(object)
    im = transform(np.array([0] * len(units) + [b for _, b in units])[codes]).astype(object)
    return re * re + im * im


def _full_top(codes, rho):
    """The _MAX_CANDIDATES + 1 largest pairs (Q(y), y) of _exact_q."""
    from sidonlab.spectral import _MAX_CANDIDATES

    q = _exact_q(codes, rho)
    return tuple(sorted(((int(v), y) for y, v in enumerate(q)), reverse=True)[:_MAX_CANDIDATES + 1])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10).flatmap(lambda nu: st.tuples(st.just(nu), st.integers(0, nu))),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([1, 4, 1 << 16]),
    st.integers(0, 2**32 - 1),
)
def test_mu_chunk_equals_the_gathered_codes_property(nu_rho, density, chunk, seed):
    from sidonlab.spectral import _mu_chunk

    nu, rho = nu_rho
    mask = np.random.default_rng(seed).random(2**nu) < density
    codes, table = _mu_inputs(mask, rho)
    step = min(chunk, 2**nu)
    for i in range(0, 2**nu, step):
        got = _mu_chunk(mask, rho, i, step)
        assert got.dtype == np.complex128 and got.tobytes() == table[codes[i:i + step]].tobytes()


@pytest.mark.parametrize("tile_bits", [1, 3, 16])
@pytest.mark.parametrize("nu", [0, 1, 2, 5, 8, 10])
def test_cone_values_equal_the_transform(nu, tile_bits, monkeypatch):
    from sidonlab.spectral import _cone_values

    monkeypatch.setattr("sidonlab.spectral._TILE_BITS", tile_bits)
    mask = np.random.default_rng(nu + 100 * tile_bits).random(2**nu) < 0.5
    for rho in sorted({0, 1, nu // 2, nu}):
        codes, table = _mu_inputs(mask, rho)
        full = fwht(table[codes])
        assert _cone_values(mask, rho, range(2**nu)).tobytes() == full.tobytes()


@pytest.mark.parametrize("chunk_bits", [0, 1, 3])
@pytest.mark.parametrize("nu", [1, 4, 8])
def test_cone_values_across_chunks(nu, chunk_bits, monkeypatch):
    # chunks smaller than the input, their start bits inside and past the
    # low rho bits: the per-chunk entries are halved on
    from sidonlab.spectral import _cone_values

    monkeypatch.setattr("sidonlab.spectral._CHUNK", 1 << chunk_bits)
    mask = np.random.default_rng(nu).random(2**nu) < 0.5
    for rho in sorted({0, nu // 2, nu}):
        codes, table = _mu_inputs(mask, rho)
        full = fwht(table[codes])
        assert _cone_values(mask, rho, range(2**nu)).tobytes() == full.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda nu: st.tuples(st.just(nu), st.integers(0, nu))),
    st.sampled_from([0.0, 0.001, 0.05, 0.5, 0.95, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_sup_mu_equals_the_full_transform_property(nu_rho, density, seed):
    from sidonlab.spectral import _max_abs, _sup_mu

    nu, rho = nu_rho
    mask = np.random.default_rng(seed).random(2**nu) < density
    codes, table = _mu_inputs(mask, rho)
    want = _max_abs(fwht(table[codes]))
    # the top of Q from the whole exact transform, not from the pass
    sample = dataclasses.replace(_sample_of(mask, rho), top=_full_top(codes, rho))
    assert _sup_mu(sample).hex() == want.hex()


def test_sup_mu_fallbacks_agree(monkeypatch):
    import sidonlab.spectral as sp

    def unused(*args):
        raise RuntimeError("this route should not run")

    for nu in (4, 6, 8, 10):
        full = np.ones(2**nu, dtype=bool)
        codes, table = _mu_inputs(full, 4)
        want = sp._max_abs(fwht(table[codes]))
        # a full mask: |mu^| = 2^(nu - rho/2) on the 16 characters of the subgroup
        assert want == 2.0 ** (nu - 2)
        if nu <= 8:  # the quadratic oracle
            assert want == pytest.approx(np.abs(naive_wht(table[codes])).max(), rel=1e-12)
        sample = _sample_of(full, 4)
        with monkeypatch.context() as m:  # more than _MAX_CANDIDATES tied maxima
            m.setattr(sp, "_cone_values", unused)
            m.setattr(sp, "_CHUNK", 8)  # mu filled in chunks, their start bits in f's
            assert sample.counters()["complex_fallback"]
            assert sp._sup_mu(sample).hex() == want.hex()
            assert analyticity_witness(sample).sup_mu.hex() == want.hex()
    # an empty mask ties all 2^nu characters at 0
    assert sp._sup_mu(_sample_of(np.zeros(2**nu, dtype=bool), 2)) == 0.0


# (nu, rho, density, seed) of a random mask
_CEILING_CASES = [(6, 1, 0.3, 5), (5, 0, 0.5, 1), (6, 3, 0.3, 2), (7, 2, 0.3, 3), (8, 4, 0.3, 4)]


@pytest.mark.parametrize("nu, rho, density, seed", _CEILING_CASES)
def test_duality_bound_at_most_the_norm_ceiling(nu, rho, density, seed, monkeypatch):
    # By duality the witness's bound |Lambda| / sup |mu^| is at most the
    # restriction norm, which is at most sum |v^| = 2^(rho/2).  On integers:
    # |Lambda|^2 <= 2^rho Q_max with Q_max = max |mu^|^2 read exactly.
    import sidonlab.spectral as sp

    mask = np.random.default_rng(seed).random(2**nu) < density
    mask[0] = True
    q_max = sp._exact_pass(mask, rho).top[0][0]
    count = int(mask.sum())
    assert count**2 <= 2**rho * q_max
    ceiling = 2 ** (rho / 2) * (1 + 2**-40)
    assert analyticity_witness(_sample_of(mask, rho)).lower_bound <= ceiling
    # the float form catches a sup |mu^| that is too small: halved, the
    # bound is at least twice the exact one, which reaches past half the
    # ceiling on these masks
    sup_mu = sp._sup_mu
    monkeypatch.setattr(sp, "_sup_mu", lambda *args: sup_mu(*args) / 2)
    assert not analyticity_witness(_sample_of(mask, rho)).lower_bound <= ceiling


def test_phase_tables_within_eps_in():
    import mpmath

    from sidonlab.spectral import EPS_IN, NU_CAP, _packed_unit, _phases

    with mpmath.workprec(200):
        for rho in range(NU_CAP + 1):
            v = _phases(rho)
            assert (v * True).tobytes() == v.tobytes()  # the witness's masked values
            for k, vk in zip(range(-rho, rho + 1), v):
                exact = mpmath.expjpi(mpmath.mpf(k) / 4)
                assert abs(mpmath.mpc(vk.real, vk.imag) - exact) <= EPS_IN
                if (rho - k) % 2 == 0:
                    # f = k at a point with b = (rho - k) / 2 characters at -1:
                    # (1 + i)^rho u = 2^(rho/2) e^(i pi k/4), so |U| = |mu^|
                    packed = _packed_unit((rho - k) // 2)
                    re = (packed + 2**30) % 2**31 - 2**30
                    im = (packed - re) >> 31
                    lhs = mpmath.mpc(1, 1) ** rho * mpmath.mpc(re, im)
                    assert abs(lhs - 2 ** (mpmath.mpf(rho) / 2) * exact) < 1e-50
                    assert re * re + im * im == 1


def test_witness_rejects_a_wrong_exact_transform(small_flat, monkeypatch):
    import sidonlab.spectral as sp

    monkeypatch.setattr(sp, "_UNITS", tuple((2 * a, 2 * b) for a, b in sp._UNITS))
    sample = sample_flat_lambda(nu=14, ell=401, seed=0, rho=2)
    with pytest.raises(AssertionError, match="exact sup"):
        analyticity_witness(sample)


def _large_rho_flat():
    # |Lambda| 2^ceil(rho/2) >= 2^30: the spectrum of 2^(rho/2) mu would
    # not pack into int64, the unit-valued spectrum does.  At rho = 20 u
    # reads every bit of a piece, so the pass shares no stages.
    sample = sample_flat_lambda(nu=21, ell=40000, seed=0, rho=20)
    assert int(sample.mask.sum()) << 10 >= 1 << 30
    assert not sample.counters()["shared_stages"]
    return sample


@pytest.fixture(scope="module")
def large_rho_flat():
    return _large_rho_flat()


def test_witness_peak_memory_at_large_rho(large_rho_flat):
    # the bound of test_witness_peak_memory: at rho = 20 too, mu's complex
    # transform (16 * 2^nu bytes) is never built
    assert _witness_peak(large_rho_flat) <= _cone_bound()


def test_flat_sample_peak_memory_at_large_rho():
    # the sampler at rho = 20 transforms each int64 piece twice in place:
    # beside the mask (n bytes) it holds that piece, fwht's two int64 tiles
    # and the pass's chunks
    import tracemalloc

    from sidonlab.spectral import _CHUNK, _PIECES, _TILE_BITS

    n = 2**21
    tracemalloc.start()
    try:
        sample_flat_lambda(nu=21, ell=40000, seed=0, rho=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece, tiles, chunks = 8 * (n // _PIECES), 2 * (8 << _TILE_BITS), 16 * _CHUNK
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert peak <= piece + n + tiles + chunks + slack


def test_witness_cross_check_runs_at_large_rho(monkeypatch):
    import sidonlab.spectral as sp

    monkeypatch.setattr(sp, "_UNITS", tuple((2 * a, 2 * b) for a, b in sp._UNITS))
    sample = _large_rho_flat()  # drawn with the doubled units
    with pytest.raises(AssertionError, match="exact sup"):
        analyticity_witness(sample)


# ---------------------------------------------------------------------------
# the exact pass
# ---------------------------------------------------------------------------


# every rho in 0..nu, so both the shared route (1 << rho below the piece and
# within a chunk) and the separate one run; chunks of 1 to 2^14 entries
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2, 8, 64, 1 << 14]),
    st.sampled_from([1, 2, 16]),
    st.integers(0, 10).flatmap(lambda nu: st.tuples(st.just(nu), st.integers(0, nu))),
    st.sampled_from([0.0, 0.02, 0.3, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_exact_pass_equals_the_transform_property(pieces, chunk, tile_bits, nu_rho, density, seed):
    import sidonlab.spectral as sp

    nu, rho = nu_rho
    mask = np.random.default_rng(seed).random(2**nu) < density
    saved = sp._PIECES, sp._LOW_CHUNK, sp._TILE_BITS
    sp._PIECES, sp._LOW_CHUNK, sp._TILE_BITS = pieces, chunk, tile_bits
    try:
        got = sp._exact_pass(mask, rho)
    finally:
        sp._PIECES, sp._LOW_CHUNK, sp._TILE_BITS = saved
    _assert_equals_the_transform(got, mask, rho)


def _assert_equals_the_transform(got, mask, rho):
    """got, _exact_pass(mask, rho), against the transforms of the mask."""
    from sidonlab.spectral import _MAX_CANDIDATES

    nu = mask.shape[0].bit_length() - 1
    transform = naive_wht if nu <= 8 else fwht  # the quadratic oracle where it is quick
    sigma = transform(mask)
    q = _exact_q(_mu_inputs(mask, rho)[0], rho, transform)
    assert got.sigma1 == int(sigma[0])
    assert got.sup == (int(np.abs(sigma[1:]).max()) if nu else 0)
    assert got.squares == int((sigma.astype(object) ** 2).sum())
    # top: the largest Q values, largest first, each at a distinct y it holds
    assert [p for p, _ in got.top] == sorted(q.tolist(), reverse=True)[:_MAX_CANDIDATES + 1]
    assert all(q[y] == p for p, y in got.top)
    assert len({y for _, y in got.top}) == len(got.top)


# numpy < 2.0 has no np.bitwise_count; the separate route must not need it
@pytest.mark.parametrize("nu, rho", [(4, 3), (6, 6), (9, 4), (10, 10)])
def test_separate_route_runs_without_bitwise_count(nu, rho, monkeypatch):
    import sidonlab.spectral as sp

    mask = np.random.default_rng(nu + rho).random(2**nu) < 0.3
    monkeypatch.setattr(sp, "_LOW_CHUNK", 8)
    with monkeypatch.context() as numpy_1:
        numpy_1.delattr(np, "bitwise_count", raising=False)
        assert not sp._shares_stages(mask.shape[0], rho)
        got = sp._exact_pass(mask, rho)
    _assert_equals_the_transform(got, mask, rho)


@pytest.mark.parametrize("pieces", [1, 2, 4, 8])
@pytest.mark.parametrize("nu", [0, 1, 2, 5, 11])
def test_spectrum_summary_equals_sigma_hat(nu, pieces, monkeypatch):
    monkeypatch.setattr("sidonlab.spectral._PIECES", pieces)
    monkeypatch.setattr("sidonlab.spectral._LOW_CHUNK", 8)  # several chunks a piece
    rng = np.random.default_rng(nu + 10 * pieces)
    for mask in (np.zeros(2**nu, bool), np.ones(2**nu, bool), rng.random(2**nu) < 0.3):
        mags = np.abs(fwht(mask.astype(np.float64)))  # analyticity-demo --csv's spectrum
        want = [float(mags[0]), float(mags[1:].max()) if nu else 0.0]
        for rho in sorted({0, nu // 2, nu}):
            spectra = _exact_pass(mask, rho)
            assert [float(spectra.sigma1).hex(), float(spectra.sup).hex()] == [x.hex() for x in want]


def _full_scan(mask, rho, slack):
    """_near_maxima's answer from the whole exact transform: Re and Im of
    u * mask transformed separately, every Q kept."""
    from sidonlab.spectral import _MAX_CANDIDATES

    q = _exact_q(_mu_inputs(mask, rho)[0], rho)
    q_max = int(q.max())
    t = math.isqrt(q_max << 64) - math.ceil(math.ldexp(slack, 32))
    ys = np.flatnonzero(q >= ((t * t) >> 64 if t > 0 else 0)).tolist()
    return q_max, ys if len(ys) <= _MAX_CANDIDATES else None


def _near(mask, rho, slack):
    """_near_maxima of the pass's top, None past _MAX_CANDIDATES characters,
    as _sup_mu reads it."""
    from sidonlab.spectral import _MAX_CANDIDATES, _near_maxima

    q_max, ys = _near_maxima(_exact_pass(mask, rho).top, slack)
    return q_max, ys if len(ys) <= _MAX_CANDIDATES else None


@pytest.mark.parametrize("pieces", [1, 4, 8])
@pytest.mark.parametrize("nu", [1, 4, 6, 9])
def test_near_maxima_match_a_full_scan(nu, pieces, monkeypatch):
    from sidonlab.spectral import _MAX_CANDIDATES

    monkeypatch.setattr("sidonlab.spectral._PIECES", pieces)
    monkeypatch.setattr("sidonlab.spectral._LOW_CHUNK", 4)  # several chunks a piece
    rng = np.random.default_rng(nu)
    # rho = 0: U is sigma's integer spectrum, and slack = max|U| - level puts
    # the threshold exactly at level^2, so every |U| = level ties on it
    mask = rng.random(2**nu) < 0.4
    s = np.abs(fwht(mask))
    for level in sorted(set(s.tolist())):
        want = np.flatnonzero(s >= level).tolist()
        got = _near(mask, 0, float(s.max() - level))
        assert got == (int(s.max()) ** 2, want if len(want) <= _MAX_CANDIDATES else None)
    # a full mask ties 2^rho characters at the maximum: 8 are kept, 16 are not
    for rho in [r for r in (3, 4) if r <= nu]:
        full = np.ones(2**nu, bool)
        q_max, ys = _near(full, rho, 0.0)
        assert q_max == 4**nu >> rho and (len(ys) == 8 if rho == 3 else ys is None)
        assert (q_max, ys) == _full_scan(full, rho, 0.0)
    for rho in range(nu + 1):
        mask = rng.random(2**nu) < 0.5
        for slack in (0.0, 0.5, 3.0, 2.0**nu):
            assert _near(mask, rho, slack) == _full_scan(mask, rho, slack)


@pytest.mark.parametrize("nu", [1, 3, 8, 12])
def test_f_algebra_norm_is_the_transform_sum(nu):
    mask = np.random.default_rng(nu).random(2**nu) < 0.5
    for rho in sorted({0, 1, nu // 2, nu}):
        report = analyticity_witness(_sample_of(mask, rho))
        f = _character_sum(nu, rho)
        assert report.f_algebra_norm.hex() == (float(np.abs(fwht(f)).sum()) / 2**nu).hex()

