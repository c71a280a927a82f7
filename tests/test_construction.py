import itertools
import json
import math

import numpy as np
import pytest

from sidonlab.construction import (
    BASE_MATRIX,
    DissociatedBasis,
    build_matrix,
    embed_theorem1,
    n_nu,
    theorem1_witness,
    witness_counts,
    _support_counts,
)
from sidonlab.mesh import Box, _digit_bounds, mesh_count
from sidonlab.verify import verify_qi_exhaustive


def test_n_nu_values():
    assert [n_nu(v) for v in range(1, 9)] == [3, 8, 20, 48, 112, 256, 576, 1280]
    assert n_nu(5) == 112


def test_n_nu_matches_recurrence():
    prev = 1  # level-0 seed of the recurrence
    for nu in range(1, 13):
        current = 2 * prev + 2 ** (nu - 1)
        assert n_nu(nu) == current
        prev = current
    with pytest.raises(ValueError):
        n_nu(0)


def test_build_matrix_base_case():
    m = build_matrix(1)
    assert m.entries.tolist() == [list(r) for r in BASE_MATRIX]
    cols = m.columns_as_points()
    assert {tuple(c.coords + (0,) * (2 - c.dim)) for c in cols} == {
        (1, 1),
        (1, -1),
        (1, 0),
    }


@pytest.mark.parametrize("nu", range(1, 9))
def test_build_matrix_dimensions_and_entries(nu):
    m = build_matrix(nu)
    assert m.entries.shape == (2**nu, n_nu(nu))
    assert np.isin(m.entries, (-1, 0, 1)).all()
    if nu >= 2:
        half = 2 ** (nu - 1)
        tail = m.entries[:, -half:]
        assert np.array_equal(tail[:half], np.eye(half, dtype=m.entries.dtype))
        assert not tail[half:].any()


def test_build_matrix_cap():
    with pytest.raises(ValueError):
        build_matrix(0)
    with pytest.raises(ValueError):
        build_matrix(13)


def test_structural_holds_above_the_acceptance_range():
    from sidonlab.verify import verify_qi_structural

    assert verify_qi_structural(build_matrix(10))


# ---------------------------------------------------------------------------
# dissociated basis
# ---------------------------------------------------------------------------


def test_coefficient_bounds_follow_blocks():
    assert DissociatedBasis.build(3).bounds[:8] == (1, 3, 3, 8, 8, 8, 8, 20)
    for nu_max in (1, 2, 5):
        basis = DissociatedBasis.build(nu_max)
        assert len(basis.bounds) == len(basis.betas) == 2 ** (nu_max + 1) + 2**nu_max
        assert basis.bounds[0] == 1
        for index in range(2, len(basis.bounds) + 1):
            nu = index.bit_length() - 1  # 2^nu <= index < 2^(nu+1)
            assert basis.bounds[index - 1] == n_nu(nu)


def test_dissociated_basis_bounded_combinations_distinct():
    basis = DissociatedBasis.build(2)
    betas, bounds = basis.betas[:5], basis.bounds[:5]
    seen = set()
    for coeffs in itertools.product(*(range(-b, b + 1) for b in bounds)):
        value = sum(c * b for c, b in zip(coeffs, betas))
        assert value not in seen
        seen.add(value)


def test_dissociated_betas_pass_the_qi_oracle():
    basis = DissociatedBasis.build(2)
    points = [basis.beta(i) for i in range(2, 12)]
    qi, _ = verify_qi_exhaustive(points)
    assert qi


def test_digits_roundtrip_and_rejection():
    basis = DissociatedBasis.build(3)
    rng = np.random.default_rng(3)
    top = len(basis.betas)
    for _ in range(200):
        support = rng.choice(top, size=4, replace=False)
        digits = {}
        x = 0
        for i in support:
            idx = int(i) + 1
            bound = basis.bounds[idx - 1]
            d = int(rng.integers(-bound, bound + 1))
            if d:
                digits[idx] = d
                x += d * basis.beta(idx)
        assert basis.digits(x) == digits
    # a value outside every bounded expansion is rejected
    assert basis.digits(basis.beta(top) * (2 * basis.bounds[top - 1] + 5)) is None


# ---------------------------------------------------------------------------
# the embedding
# ---------------------------------------------------------------------------


def test_embed_block_one_points():
    c = embed_theorem1(1)
    b2, b3 = c.basis.beta(2), c.basis.beta(3)
    assert set(c.lambda_ints) == {b2 + b3, b2 - b3, b2}


@pytest.mark.parametrize("nu_max", [1, 4, 7])
def test_embed_equals_the_plain_column_sums(nu_max):
    c = embed_theorem1(nu_max)
    want = []
    for nu in range(1, nu_max + 1):
        entries = build_matrix(nu).entries.tolist()
        betas = [c.basis.beta(i) for i in c.basis.block_indices(nu)]
        for j in range(n_nu(nu)):
            want.append(sum(row[j] * beta for row, beta in zip(entries, betas)))
    assert list(c.lambda_ints) == want
    assert all(type(x) is int for x in c.lambda_ints)


def test_embed_sizes_and_distinctness():
    c = embed_theorem1(2)
    assert len(c.lambda_ints) == 3 + 8 == 11
    for nu in (1, 2):
        assert len(c.block_points(nu)) == n_nu(nu)
        assert all(type(x) is int for x in c.block_points(nu))
    assert len(set(c.lambda_ints)) == 11


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_embedded_blocks_are_qi(nu):
    c = embed_theorem1(3)
    qi, _ = verify_qi_exhaustive(c.block_points(nu))
    assert qi


def test_union_of_small_blocks_is_qi():
    c = embed_theorem1(2)
    qi, _ = verify_qi_exhaustive(list(c.lambda_ints))
    assert qi


# ---------------------------------------------------------------------------
# the witness mesh
# ---------------------------------------------------------------------------


def test_witness_counts_and_bounds():
    c = embed_theorem1(2)
    mesh, count = theorem1_witness(4, c)
    assert count == 8 and mesh.k == 4
    assert count >= 0.25 * 4 * math.log2(4)
    mesh7, count7 = theorem1_witness(7, c)
    assert count7 == 8 and mesh7.k == 7
    assert count7 >= 0.25 * 7 * math.log2(7)


def test_witness_range_errors():
    c = embed_theorem1(2)
    for k in (0, 1, 8, 100):
        with pytest.raises(ValueError):
            theorem1_witness(k, c)


def test_witness_count_agrees_with_mesh_count():
    c = embed_theorem1(3)
    lam = list(c.lambda_ints)
    for k in (2, 3, 4, 6, 8, 12, 15):
        mesh, claimed = theorem1_witness(k, c)
        assert mesh.domain == Box(1)
        assert _digit_bounds(mesh) is not None
        assert mesh_count(lam, mesh) == claimed
        if mesh.domain_size() <= 10**5:
            assert mesh_count(lam, mesh, method="enumerate") == claimed


def test_witness_counts_helper_matches_witness():
    c = embed_theorem1(3)
    ks = range(2, 16)
    counts = witness_counts(c, ks)
    for k in ks:
        _, claimed = theorem1_witness(k, c)
        assert counts[k] == claimed == n_nu(k.bit_length() - 1)


def test_witness_claim_is_n_nu_at_the_cli_default():
    # theorem1 reads the claimed count of every k as N_nu instead of
    # building each witness mesh
    nu_max = 7
    c = embed_theorem1(nu_max)
    for k in range(2, 2 ** (nu_max + 1)):
        assert theorem1_witness(k, c)[1] == n_nu(k.bit_length() - 1)


def _loop_counts(supports, nu_max, ks):
    """The per-support loop: every index in the witness set, every |digit| <= 1."""
    fresh = 2 ** (nu_max + 1)
    counts = {}
    for k in ks:
        nu = k.bit_length() - 1
        indices = list(range(2**nu, 2 ** (nu + 1)))
        indices += list(range(fresh, fresh + k - len(indices)))
        idx = set(indices)
        counts[k] = sum(
            1 for d in supports if all(i in idx and abs(n) <= 1 for i, n in d.items())
        )
    return counts


@pytest.mark.parametrize("nu_max", range(1, 8))
def test_witness_counts_match_the_per_support_loop(nu_max):
    c = embed_theorem1(nu_max)
    ks = range(2, 2 ** (nu_max + 1))
    supports = [c.basis.digits(x) for x in c.lambda_ints]
    assert witness_counts(c, ks) == _loop_counts(supports, nu_max, ks)


def test_support_counts_edge_cases():
    nu_max = 3  # blocks [2^nu, 2^(nu+1)) below 16, padding from 16 on
    supports = [
        {},  # counts for every k
        {16: 1},  # padding only
        {17: -1, 18: 1},
        {22: 1},  # the last padding index, only at k = 15
        {23: 1},  # beyond every padding
        {4: 1, 16: -1},  # a block and the padding
        {4: 1, 9: 1, 16: 1},  # two blocks
        {8: -1, 15: 1, 17: 1},
        {8: 2},  # a digit too large
        {12: 1, 17: 3},
        {1: 1},  # index 1 is in no block
        {2: 1, 3: -1},
        {0: 1},
    ]
    ks = list(range(2, 16))
    want = _loop_counts(supports, nu_max, ks)
    assert _support_counts(supports, nu_max, ks) == want
    assert _support_counts(supports, nu_max, ks[::-1] + [5]) == want
    assert (want[2], want[5], want[15]) == (2, 3, 5)
    for k in (1, 16):
        with pytest.raises(ValueError):
            _support_counts(supports, nu_max, [k])


def test_export_roundtrip(tmp_path):
    c = embed_theorem1(2)
    path = tmp_path / "construction.json"
    c.to_json(path)
    data = json.loads(path.read_text())
    assert [int(x) for x in data["lambda"]] == list(c.lambda_ints)
    assert int(data["betas"][1]) == c.basis.beta(2)

    m = build_matrix(2)
    csv_path = tmp_path / "m2.csv"
    m.to_csv(csv_path)
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()]
    assert [[int(x) for x in row] for row in rows] == m.entries.tolist()
