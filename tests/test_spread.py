import json
import math

import pytest

from sidonlab.core import fp_rank
from sidonlab.growth import DoubleLog
from sidonlab.spread import (
    Schedule,
    ScheduleError,
    build_theorem3_prefix,
    check_schedule,
    default_w,
    five_ten_bound,
    pick_independent_subset,
    theorem3_mesh_reports,
    v_p_size,
    well_spread_check,
)


@pytest.fixture(scope="module")
def system():
    return build_theorem3_prefix(J=4, seed=0)


def test_default_schedule_values():
    s = Schedule.default(4)
    assert s.ells == (2, 2, 3, 3)
    assert s.nus == (17, 18, 19, 20)
    assert s.ps == (37, 131, 3079, 786433)
    # primes grow fast, sizes slowly, densities very slowly
    assert all(a < b for a, b in zip(s.ps, s.ps[1:]))
    assert all(b - a == 1 for a, b in zip(s.nus, s.nus[1:]))
    assert all(4 * e < p for e, p in zip(s.ells, s.ps))


def test_schedule_conditions_hold_on_default_grid():
    s = Schedule.default(4)
    rows = check_schedule(s, default_w())
    assert all(r["ok"] for r in rows)


def test_infeasible_schedule_is_named():
    s = Schedule.default(2)
    with pytest.raises(ScheduleError) as err:
        check_schedule(s, DoubleLog(1.0))
    assert "condition" in str(err.value)


def test_well_spread_examples():
    assert well_spread_check([1, 10], 3)
    assert not well_spread_check([1, 2], 3)
    assert well_spread_check([12345], 9)  # single generator, any odd q
    with pytest.raises(ValueError):
        well_spread_check([1, 2], 4)
    with pytest.raises(MemoryError):
        well_spread_check(list(range(1, 12)), 9, cap=10**6)


def _plain_combinations(basis, q):
    half = (q - 1) // 2
    values = {0}
    for b in basis:
        values = {v + m * b for v in values for m in range(-half, half + 1)}
    return values


@pytest.mark.parametrize("basis", [
    [5, 5 + (2**61 - 1)],  # congruent mod 2^61 - 1, unequal
    [2**61, 2**62 - 1, 2**61],
    [10**700, 10**700 + 2**61 - 1, 3],
    [2**64 + 1, -(2**64 + 1) + 2 * (2**61 - 1)],
    [7, 7],
])
def test_well_spread_and_v_p_size_confirm_residue_collisions(basis):
    for q in (3, 5):
        values = _plain_combinations(basis, q)
        assert v_p_size(basis, q) == len(values)
        assert well_spread_check(basis, q) == (len(values) == q ** len(basis))
    assert well_spread_check(basis[:2], 3) == (basis[0] != basis[1])


def test_build_block_sizes_and_certificates(system):
    assert len(system.blocks) == 4
    for b in system.blocks:
        assert b.ell * b.nu <= b.size <= 3 * b.ell * b.nu
        assert b.certificate.use_eighth
        assert b.certificate.checked_subset_size == b.nu // 8
        assert 4 * b.ell < b.p


def test_q_values_follow_block_parameters(system):
    for b in system.blocks:
        expected = 2 * b.nu * ((b.p - 1) // 2) ** 2 + 1
        assert b.q == expected
        for i in range(b.index_lo, b.index_hi + 1):
            assert system.q(i) == expected


def test_structural_distinctness_and_small_enumeration(system):
    assert system.structurally_well_spread()
    # enumerate a prefix of block 1 at its own p: exact distinctness
    basis = system.block_basis(1)
    assert well_spread_check(basis[:3], system.blocks[0].p)
    assert well_spread_check(system.block_basis(2)[:2], system.blocks[1].p)


def test_lambda_images_live_in_the_block_mesh(system):
    b = system.blocks[0]
    basis = system.block_basis(b.j)
    half = (b.p - 1) // 2
    for x, v in zip(b.lambda_ints, b.certificate.Lambda):
        assert x == sum(c * beta for c, beta in zip(v.centered(), basis))
        assert all(abs(c) <= half for c in v.centered())


def test_spread_identity_for_independent_parts(system):
    for b in system.blocks:
        for p_small in (3, 5):
            for size in (1, 2, 3, 4):
                part = pick_independent_subset(b, size)
                assert v_p_size(part, p_small) == p_small**size


def test_spread_identity_fails_for_dependent_parts(system):
    b = system.blocks[0]
    x = b.lambda_ints[0]
    # {x, x} is nothing like independent: collisions collapse the count
    assert v_p_size([x, x], 3) < 9


def test_independent_subsets_have_free_preimages(system):
    b = system.blocks[2]
    part = pick_independent_subset(b, 4)
    index = {x: v for x, v in zip(b.lambda_ints, b.certificate.Lambda)}
    assert fp_rank([index[x] for x in part]) == 4


def test_five_ten_bound_on_grid(system):
    w = default_w()
    for h in system.grid_h:
        for k in system.grid_k:
            bound = five_ten_bound(k, h, system.schedule.p(k))
            assert bound <= 0.5 * k * math.sqrt(w(h * k))


def test_mesh_reports_all_pass(system):
    reports = theorem3_mesh_reports(system, count=150, seed=0)
    assert len(reports) == 150
    assert all(r.passed for r in reports)


def test_mesh_reports_read_w_and_the_grid_from_the_system():
    w = DoubleLog(4000.0)
    system = build_theorem3_prefix(w=w, J=2, seed=0, grid_h=(1,), grid_k=(1, 2))
    reports = theorem3_mesh_reports(system, count=60, seed=0)
    assert len(reports) == 60
    assert {r.k for r in reports} == {1, 2}
    assert {r.height for r in reports} == {1}
    assert all(r.bound == r.k * w(r.k * r.height) for r in reports)
    assert system.w == w


def test_export(system, tmp_path):
    path = tmp_path / "t3.json"
    system.to_json(path)
    data = json.loads(path.read_text())
    assert len(data["betas"]) == len(system.betas)
    assert int(data["betas"][5]) == system.betas[5]
    assert [b["j"] for b in data["blocks"]] == [1, 2, 3, 4]
