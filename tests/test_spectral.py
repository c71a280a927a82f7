import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonlab.spectral import (
    FlatnessFailure,
    _character_sum,
    a_norm_upper_bound,
    analyticity_witness,
    default_rho,
    fwht,
    masks_independent,
    naive_wht,
    sample_flat_lambda,
    sigma_hat,
)


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
    extreme = sign * peak * _character_sum(nu, [y0]).astype(np.int64)
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
    monkeypatch.setattr("sidonlab.spectral._TILE_BITS", block_bits)
    rng = np.random.default_rng(nu + block_bits)
    if kind == "int64":
        table = rng.integers(-(2**40), 2**40, 9)
    else:
        table = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-300, 7.0, -0.5])
        if kind == "complex128":
            table = table + 1j * table[::-1]
    codes = rng.integers(0, len(table), 2**nu).astype(np.int8)
    saved = codes.copy(), table.copy()
    out = fwht(codes, table=table)
    assert out.dtype == np.dtype(kind)
    assert out.tobytes() == fwht(table[codes]).tobytes()
    given_out = np.full(2**nu, 3, out.dtype)
    assert fwht(codes, table=table, out=given_out) is given_out
    assert given_out.tobytes() == out.tobytes()
    assert codes.tobytes() == saved[0].tobytes() and table.tobytes() == saved[1].tobytes()


def test_fwht_table_rejects_bad_codes():
    table = np.arange(3.0)
    with pytest.raises(ValueError):
        fwht(np.array([0, 3], dtype=np.int8), table=table)
    with pytest.raises(ValueError):
        fwht(np.array([0, -1], dtype=np.int8), table=table)
    with pytest.raises(ValueError):
        fwht(np.array([0.0, 1.0]), table=table)


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
    # with a table the output may share memory with neither codes nor table
    buf = np.zeros(16, np.int64)
    with pytest.raises(ValueError, match="codes or the table"):
        fwht(buf[:8], table=np.arange(3), out=buf[:8])
    with pytest.raises(ValueError, match="codes or the table"):
        fwht(buf[:8], table=np.arange(3), out=buf[4:12])
    table = np.arange(8, dtype=np.int64)
    with pytest.raises(ValueError, match="codes or the table"):
        fwht(np.zeros(8, np.int8), table=table, out=table)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def seed0_nu22():
    return sample_flat_lambda(nu=22, ell=40000, seed=0)


def test_fwht_bit_identical_pins_at_nu22(seed0_nu22):
    # SHA-256 of the transforms made by the stage-by-stage radix-2 loop
    # (one reshape, copy and two in-place updates per stage), which fwht
    # must reproduce bit for bit
    from sidonlab.spectral import _character_sum

    sigma = seed0_nu22.mask.astype(np.float64)
    f = _character_sum(22, [1, 2, 4])
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
    # the witness's route to the same complex transform: codes into a table
    # of v's values times False, then times True
    table = np.exp(1j * (math.pi / 4) * np.arange(-3, 4))
    codes = f + 3
    np.add(codes, 7, out=codes, where=seed0_nu22.mask)
    out = fwht(codes, table=np.concatenate((table * False, table * True)))
    assert _sha256(out.tobytes()) == pins[1][2]


def test_witness_peak_memory():
    # above the sample, the witness holds at most the codes, the exact
    # spectrum's one piece (see _exact_pieces: n / _PIECES int64s,
    # transformed in place), fwht's two int64 tiles, the scan's chunks and the
    # ufunc buffers of the butterflies: neither mu's complex transform, a
    # whole int64 transform nor v = exp(i pi/4 f) times the mask is ever
    # built.  The cones' chunks (about 33 * _CHUNK bytes) come after the
    # pieces are released.  rho = 3 makes the packed table need int64 tiles.
    import tracemalloc

    from sidonlab.spectral import _CHUNK, _PIECES, _TILE_BITS

    sample = sample_flat_lambda(nu=20, ell=401, seed=0)
    n = sample.mask.shape[0]
    tracemalloc.start()
    try:
        analyticity_witness(sample, rho=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece, tiles, chunks = 8 * (n // _PIECES), 2 * (8 << _TILE_BITS), 16 * _CHUNK
    # slack as in test_fwht_allocates_the_output_and_two_tiles
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert peak <= piece + n + tiles + chunks + slack


def test_flat_sample_and_witness_peak_memory(small_flat):
    # the CLI's path: the sample stays alive through the witness.  The peak
    # may hold the mask, the int8 codes, the exact spectrum's one piece,
    # fwht's two int64 tiles and the scan's chunks; neither sigma's
    # spectrum, mu's complex transform, a whole int64 transform nor f's
    # transform may join them.  (small_flat is drawn before tracing starts,
    # so numpy.random's import is not counted.)
    import tracemalloc

    from sidonlab.spectral import _CHUNK, _PIECES, _TILE_BITS

    n = 2**20
    tracemalloc.start()
    try:
        sample = sample_flat_lambda(nu=20, ell=4000, seed=0)
        analyticity_witness(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece, tiles, chunks = 8 * (n // _PIECES), 2 * (8 << _TILE_BITS), 16 * _CHUNK
    # slack as in test_fwht_allocates_the_output_and_two_tiles
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert peak <= piece + n + n + tiles + chunks + slack


def test_flat_sample_peak_memory(small_flat):
    # sigma's spectrum is read in pieces of n / _PIECES int64s, each
    # transformed in place in one buffer (see _spectrum_summary), and the
    # uniforms are drawn a chunk at a time, so beside the mask the sample
    # holds only that piece and two tile-sized chunks (fwht's two int32
    # tiles, or the absolute values and a temporary of the square sum; the
    # absolute values are released with their piece).
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


def test_witness_report_pin_at_nu22(seed0_nu22):
    report = analyticity_witness(seed0_nu22).to_dict()
    assert report["sup_mu"] == 622869.9163268361
    text = json.dumps(report, sort_keys=True)
    assert _sha256(text.encode()) == (
        "09d8922f3877ca75ffe231cd0235e249fe9cbcb1fb16eefff07de7e94b180b67"
    )


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
    table = sigma_hat({0b01, 0b10, 0b11}, nu=3)
    assert table.at_one == 3
    full = sigma_hat(np.ones(16, dtype=bool))
    assert full.at_one == 16 and full.sup_offpeak() == 0


@pytest.mark.parametrize("length", [3, 5, 6, 12])
def test_a_mask_of_no_power_of_two_length_is_refused(length):
    from sidonlab.spectral import _spectrum_summary

    mask = np.ones(length, dtype=bool)
    for call in (sigma_hat, _spectrum_summary, lambda m: analyticity_witness(m, ell=500)):
        with pytest.raises(ValueError, match=rf"shape \({length},\) is not of length 2\^nu"):
            call(mask)


def test_spectral_table_takes_its_off_peak_supremum_in_tile_chunks():
    import tracemalloc

    from sidonlab.spectral import _TILE_BITS, SpectralTable

    values = np.random.default_rng(0).standard_normal(2**18)
    values[0] = 1e9  # the trivial character is left out
    tracemalloc.start()
    try:
        table = SpectralTable(18, values)
        sup = table.sup_offpeak()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sup == np.abs(values[1:]).max()
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
    table = sigma_hat(coset, nu=nu)
    mags = np.abs(table.values)
    annihilator = [
        y for y in range(2**nu) if all((y & x).bit_count() % 2 == 0 for x in members)
    ]
    for y in range(2**nu):
        if y in annihilator:
            assert mags[y] == len(coset)
        else:
            assert mags[y] == 0


def test_mask_independence():
    assert masks_independent([0b001, 0b010, 0b100])
    assert not masks_independent([0b001, 0b010, 0b011])
    assert masks_independent([])


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
    assert s.lambda_param == pytest.approx(10 * math.sqrt(14))


def test_sample_flat_lambda_validation():
    with pytest.raises(ValueError):
        sample_flat_lambda(nu=14, ell=400, seed=0)  # needs ell > 400
    with pytest.raises(ValueError):
        sample_flat_lambda(nu=10, ell=401, seed=0)  # alpha >= 1
    with pytest.raises(FlatnessFailure):
        sample_flat_lambda(nu=14, ell=401, seed=0, max_retries=0)


def test_witness_rho_zero(small_flat):
    rep = analyticity_witness(small_flat, rho=0)
    assert rep.lower_bound == pytest.approx(1.0)
    assert rep.target == pytest.approx(0.5)
    assert rep.passed


def test_witness_structure(small_flat):
    rep = analyticity_witness(small_flat, rho=2)
    assert rep.f_algebra_norm == pytest.approx(2.0)  # rho unit coefficients
    assert rep.flatness_holds
    # computed duality bound is at least as strong as the analytic chain
    assert rep.lower_bound >= rep.chain_bound - 1e-9
    assert rep.sigma1 == small_flat.sigma1


def test_witness_from_sample_equals_witness_from_mask(small_flat):
    # the sample path reads sigma's two numbers from the sample; the mask
    # path transforms sigma itself
    for rho in (0, 2):
        from_sample = analyticity_witness(small_flat, rho=rho)
        from_mask = analyticity_witness(small_flat.mask, ell=small_flat.ell, rho=rho)
        assert from_sample.to_dict() == from_mask.to_dict()


@pytest.mark.parametrize("masks", [[-1], [8], [1, 8]])
def test_masks_outside_the_group_are_refused(masks):
    # a negative mask must not wrap around to 2^nu - 1
    bad = next(m for m in masks if not 0 <= m < 8)
    with pytest.raises(ValueError, match=rf"mask {bad} lies outside \[0, 2\^3\)"):
        sigma_hat(masks, nu=3)
    with pytest.raises(ValueError, match=rf"mask {bad} "):
        analyticity_witness(masks, ell=401, rho=0, nu=3)


def test_witness_validation(small_flat):
    with pytest.raises(ValueError):
        analyticity_witness(small_flat, rho=2, y_masks=[0b01, 0b01])
    # masks that agree below bit nu are one character: f would be 2 chi_1
    for y_masks in ([1, 1 + 2**small_flat.nu], [2**small_flat.nu], [-1]):
        with pytest.raises(ValueError, match="independent"):
            analyticity_witness(small_flat, rho=len(y_masks), y_masks=y_masks)
    with pytest.raises(ValueError):
        analyticity_witness(small_flat, rho=20)
    with pytest.raises(ValueError):
        analyticity_witness(small_flat.mask)  # ell missing


@pytest.mark.parametrize("nu", [1, 2, 5, 9, 12])
def test_character_sum_matches_popcount_loop(nu):
    rng = np.random.default_rng(nu)
    for rho in sorted({0, 1, nu // 2, nu}):
        masks = []
        while len(masks) < rho:
            y = int(rng.integers(1, 2**nu))
            if not masks:
                y |= 1 << (nu - 1)  # the top bit
            if masks_independent(masks + [y]):
                masks.append(y)
        f = _character_sum(nu, masks)
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
    from sidonlab.spectral import _character_sum

    f = np.zeros(n, dtype=np.int64)
    for y in masks:
        f += _character_sum(nu, [y])
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


def test_duality_bound_below_subgradient_upper():
    nu = 6
    n = 2**nu
    rng = np.random.default_rng(5)
    mask = rng.random(n) < 0.3
    mask[0] = True
    rep = analyticity_witness(mask, ell=401, rho=1)
    from sidonlab.spectral import _character_sum

    f = _character_sum(nu, [1]).astype(np.int64)
    v = np.exp(1j * (math.pi / 4) * f)
    upper = a_norm_upper_bound(v, mask)
    assert rep.lower_bound <= upper + 1e-9


# ---------------------------------------------------------------------------
# sup |mu^| from the exact transform and the cones of its near-maxima
# ---------------------------------------------------------------------------


def _mu_inputs(nu, y_masks, mask):
    """The witness's codes and complex table for mu = exp(i pi/4 f) * mask."""
    from sidonlab.spectral import _phases

    rho = len(y_masks)
    v = _phases(rho)
    codes = _character_sum(nu, y_masks) + rho
    np.add(codes, 2 * rho + 1, out=codes, where=mask)
    return codes, np.concatenate((v * False, v * True)), rho


def _independent_masks(nu, rho, rng):
    masks = []
    while len(masks) < rho:
        y = int(rng.integers(1, 2**nu))
        if masks_independent(masks + [y]):
            masks.append(y)
    return masks


@pytest.mark.parametrize("tile_bits", [1, 3, 16])
@pytest.mark.parametrize("nu", [0, 1, 2, 5, 8, 10])
def test_cone_values_equal_the_transform(nu, tile_bits, monkeypatch):
    from sidonlab.spectral import _cone_values

    monkeypatch.setattr("sidonlab.spectral._TILE_BITS", tile_bits)
    rng = np.random.default_rng(nu + 100 * tile_bits)
    table = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-300, 7.0, -0.5])
    table = table + 1j * table[::-1]
    codes = rng.integers(0, len(table), 2**nu).astype(np.int8)
    full = fwht(codes, table=table)
    assert _cone_values(codes, table, range(2**nu)).tobytes() == full.tobytes()


@pytest.mark.parametrize("chunk_bits", [0, 1, 3])
@pytest.mark.parametrize("nu", [1, 4, 8])
def test_cone_values_across_chunks(nu, chunk_bits, monkeypatch):
    # chunks smaller than the input: the per-chunk entries are halved on
    from sidonlab.spectral import _cone_values

    monkeypatch.setattr("sidonlab.spectral._CHUNK", 1 << chunk_bits)
    rng = np.random.default_rng(nu)
    codes, table, _ = _mu_inputs(nu, _independent_masks(nu, nu // 2, rng), rng.random(2**nu) < 0.5)
    full = fwht(codes, table=table)
    assert _cone_values(codes, table, range(2**nu)).tobytes() == full.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda nu: st.tuples(st.just(nu), st.integers(0, nu))),
    st.sampled_from([0.0, 0.001, 0.05, 0.5, 0.95, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_sup_mu_equals_the_full_transform_property(nu_rho, density, seed):
    from sidonlab.spectral import _max_abs, _sup_mu

    nu, rho = nu_rho
    rng = np.random.default_rng(seed)
    mask = rng.random(2**nu) < density
    codes, table, _ = _mu_inputs(nu, _independent_masks(nu, rho, rng), mask)
    want = _max_abs(fwht(codes, table=table))
    assert _sup_mu(codes, table, rho, int(mask.sum())).hex() == want.hex()


def test_sup_mu_fallbacks_agree(monkeypatch):
    import sidonlab.spectral as sp

    nu = 10
    full = np.ones(2**nu, dtype=bool)
    codes, table, rho = _mu_inputs(nu, [1, 2, 4, 8], full)
    want = sp._max_abs(fwht(codes, table=table))
    # a full mask: |mu^| = 2^(nu - rho/2) on the 16 characters of the subgroup
    assert want == 2.0 ** (nu - rho / 2)

    def unused(*args):
        raise RuntimeError("this route should not run")

    with monkeypatch.context() as m:  # more than _MAX_CANDIDATES tied maxima
        m.setattr(sp, "_cone_values", unused)
        assert sp._sup_mu(codes, table, rho, 2**nu).hex() == want.hex()
    # an empty mask ties all 2^nu characters at 0
    codes, table, rho = _mu_inputs(nu, [1, 2], np.zeros(2**nu, dtype=bool))
    assert sp._sup_mu(codes, table, rho, 0) == 0.0


def test_phase_tables_within_eps_in():
    import mpmath

    from sidonlab.spectral import EPS_IN, NU_CAP, _phases, _unit_phases

    with mpmath.workprec(200):
        for rho in range(NU_CAP + 1):
            v = _phases(rho)
            assert (v * True).tobytes() == v.tobytes()  # the witness's masked values
            for k, vk, (re, im) in zip(range(-rho, rho + 1), v, _unit_phases(rho)):
                exact = mpmath.expjpi(mpmath.mpf(k) / 4)
                assert abs(mpmath.mpc(vk.real, vk.imag) - exact) <= EPS_IN
                if (rho - k) % 2 == 0:
                    # (1 + i)^rho u_k = 2^(rho/2) e^(i pi k/4), so |U| = |mu^|
                    lhs = mpmath.mpc(1, 1) ** rho * mpmath.mpc(re, im)
                    assert abs(lhs - 2 ** (mpmath.mpf(rho) / 2) * exact) < 1e-50
                    assert re * re + im * im == 1
                else:
                    assert (re, im) == (0, 0)


def test_witness_rejects_a_wrong_exact_transform(small_flat, monkeypatch):
    import sidonlab.spectral as sp

    monkeypatch.setattr(sp, "_UNITS", tuple((2 * a, 2 * b) for a, b in sp._UNITS))
    with pytest.raises(AssertionError, match="exact sup"):
        analyticity_witness(small_flat, rho=2)


@pytest.fixture(scope="module")
def large_rho_flat():
    # |Lambda| 2^ceil(rho/2) >= 2^30: the spectrum of 2^(rho/2) mu would
    # not pack into int64, the unit-valued spectrum does
    sample = sample_flat_lambda(nu=21, ell=40000, seed=0)
    assert int(sample.mask.sum()) << 10 >= 1 << 30
    return sample


def test_witness_peak_memory_at_large_rho(large_rho_flat):
    # the bound of test_witness_peak_memory: at rho = 20 too, mu's complex
    # transform (16 * 2^nu bytes) is never built
    import tracemalloc

    from sidonlab.spectral import _CHUNK, _PIECES, _TILE_BITS

    n = large_rho_flat.mask.shape[0]
    tracemalloc.start()
    try:
        analyticity_witness(large_rho_flat, rho=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece, tiles, chunks = 8 * (n // _PIECES), 2 * (8 << _TILE_BITS), 16 * _CHUNK
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert peak <= piece + n + tiles + chunks + slack


def test_witness_cross_check_runs_at_large_rho(large_rho_flat, monkeypatch):
    import sidonlab.spectral as sp

    monkeypatch.setattr(sp, "_UNITS", tuple((2 * a, 2 * b) for a, b in sp._UNITS))
    with pytest.raises(AssertionError, match="exact sup"):
        analyticity_witness(large_rho_flat, rho=20)


# ---------------------------------------------------------------------------
# exact transforms in pieces
# ---------------------------------------------------------------------------


def _packed_parts(nu):
    """Re and Im parts of a packed table entry, up to the largest modulus
    whose transform stays below 2^30, where Re + 2^31 Im unpacks."""
    bound = ((1 << 30) - 1) >> nu
    return st.one_of(st.sampled_from([bound, -bound, bound - 1, 1 - bound, 0]),
                     st.integers(-bound, bound))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 4, 1 << 16]),
    st.integers(0, 12).flatmap(
        lambda nu: st.tuples(
            st.just(nu),
            st.lists(st.tuples(_packed_parts(nu), _packed_parts(nu)), min_size=1, max_size=12),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_exact_pieces_equal_the_transform_property(pieces, chunk, case, seed):
    import sidonlab.spectral as sp

    nu, parts = case
    table = np.array([re + (im << 31) for re, im in parts], dtype=np.int64)
    codes = np.random.default_rng(seed).integers(0, len(table), 2**nu).astype(np.int8)
    saved = sp._PIECES, sp._CHUNK
    sp._PIECES, sp._CHUNK = pieces, chunk
    try:  # a piece is valid only until the next one is requested
        got = [piece.copy() for piece in sp._exact_pieces(codes, table)]
    finally:
        sp._PIECES, sp._CHUNK = saved
    assert len(got) == min(pieces, 2**nu)
    assert all(p.dtype == np.int64 and p.shape == (2**nu // len(got),) for p in got)
    assert np.concatenate(got).tobytes() == fwht(table[codes]).tobytes()


@pytest.mark.parametrize("pieces", [1, 2, 4, 8])
@pytest.mark.parametrize("nu", [0, 1, 2, 5, 11])
def test_spectrum_summary_equals_sigma_hat(nu, pieces, monkeypatch):
    from sidonlab.spectral import _spectrum_summary

    monkeypatch.setattr("sidonlab.spectral._PIECES", pieces)
    monkeypatch.setattr("sidonlab.spectral._TILE_BITS", 3)  # several abs chunks a piece
    rng = np.random.default_rng(nu + 10 * pieces)
    for mask in (np.zeros(2**nu, bool), np.ones(2**nu, bool), rng.random(2**nu) < 0.3):
        table = sigma_hat(mask)
        got = _spectrum_summary(mask)
        assert [x.hex() for x in got] == [table.at_one.hex(), table.sup_offpeak().hex()]


def _full_scan(codes, rho, slack):
    """_near_maxima's answer from the whole exact transform: Re and Im of
    u * mask transformed separately, every Q kept."""
    from sidonlab.spectral import _MAX_CANDIDATES, _unit_phases

    u = _unit_phases(rho)
    re = fwht(np.array([0] * len(u) + [a for a, _ in u])[codes]).astype(object)
    im = fwht(np.array([0] * len(u) + [b for _, b in u])[codes]).astype(object)
    q = re * re + im * im
    q_max = int(q.max())
    t = math.isqrt(q_max << 64) - math.ceil(math.ldexp(slack, 32))
    ys = np.flatnonzero(q >= ((t * t) >> 64 if t > 0 else 0)).tolist()
    return q_max, ys if len(ys) <= _MAX_CANDIDATES else None


@pytest.mark.parametrize("pieces", [1, 4, 8])
@pytest.mark.parametrize("nu", [1, 4, 6, 9])
def test_near_maxima_match_a_full_scan(nu, pieces, monkeypatch):
    from sidonlab.spectral import _MAX_CANDIDATES, _near_maxima

    monkeypatch.setattr("sidonlab.spectral._PIECES", pieces)
    monkeypatch.setattr("sidonlab.spectral._CHUNK", 4)  # several chunks a piece
    rng = np.random.default_rng(nu)
    # rho = 0: W is sigma's integer spectrum, and slack = max|W| - level puts
    # the threshold exactly at level^2, so every |W| = level ties on it
    mask = rng.random(2**nu) < 0.4
    s = np.abs(fwht(mask))
    for level in sorted(set(s.tolist())):
        want = np.flatnonzero(s >= level).tolist()
        got = _near_maxima(mask.astype(np.int8), 0, float(s.max() - level))
        assert got == (int(s.max()) ** 2, want if len(want) <= _MAX_CANDIDATES else None)
    # a full mask ties 2^rho characters at the maximum: 8 are kept, 16 are not
    for rho in [r for r in (3, 4) if r <= nu]:
        codes, _, _ = _mu_inputs(nu, [1 << b for b in range(rho)], np.ones(2**nu, bool))
        q_max, ys = _near_maxima(codes, rho, 0.0)
        assert q_max == 4**nu >> rho and (len(ys) == 8 if rho == 3 else ys is None)
        assert (q_max, ys) == _full_scan(codes, rho, 0.0)
    for rho in range(nu + 1):
        codes, _, _ = _mu_inputs(nu, _independent_masks(nu, rho, rng), rng.random(2**nu) < 0.5)
        for slack in (0.0, 0.5, 3.0, 2.0**nu):
            assert _near_maxima(codes, rho, slack) == _full_scan(codes, rho, slack)


@pytest.mark.parametrize("nu", [1, 3, 8, 12])
def test_f_algebra_norm_is_the_transform_sum(nu):
    rng = np.random.default_rng(nu)
    mask = rng.random(2**nu) < 0.5
    for rho in sorted({0, 1, nu // 2, nu}):
        masks = _independent_masks(nu, rho, rng)
        report = analyticity_witness(mask, ell=401, rho=rho, y_masks=masks)
        f = _character_sum(nu, masks)
        assert report.f_algebra_norm.hex() == (float(np.abs(fwht(f)).sum()) / 2**nu).hex()
