from fractions import Fraction

import pytest

from sidonlab.blocks import (
    build_theorem2_prefix,
    choose_nu,
    choose_nu_capped,
    pisier_ratio,
    theorem2_mesh_reports,
)
from sidonlab.core import FpVector, fp_rank
from sidonlab.growth import DoubleLog, Power, StepTable
from sidonlab.selection import k_ell


def test_choose_nu_minimum_dominates():
    # a huge constant weight is already above the threshold at nu = 16
    w = StepTable(((1, 10**6),))
    assert choose_nu(2, 2, w) == 16
    assert choose_nu_capped(2, 2, w, cap=24) == (16, False)


def test_choose_nu_monotone_in_ell():
    w = StepTable(((1, 10), (50, 200), (5000, 4000), (10**9, 10**9)))
    values = [choose_nu(ell, 2, w) for ell in (2, 3, 4, 6)]
    assert values == sorted(values)


def test_choose_nu_capped_binding():
    w = DoubleLog(1.0)
    nu, capped = choose_nu_capped(2, 3, w, cap=24)
    assert (nu, capped) == (24, True)
    # and the uncapped target really is out of reach for the cap
    K = k_ell(3, 2)
    assert w(K * 24) < 3 * 2 / K


def test_choose_nu_exact_at_threshold():
    w = StepTable(((1, 1), (7, 1000)))
    K = k_ell(2, 2)  # 0.0625
    nu = choose_nu(2, 2, w)
    assert w(K * nu) >= 3 * 2 / K
    assert w(K * (nu - 1)) < 3 * 2 / K


def _bisection_nu(ell, p, w, cap):
    """The float bisection over [16, cap] that choose_nu_capped once ran."""
    K = k_ell(p, ell)
    target = 3 * ell / K
    lo, hi = 16, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if w(K * mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("w, p, ell, cap", [
    (StepTable(((1, 1), (7, 1000))), 2, 2, 200),
    (StepTable(((1, 1), (3, 40), (30, 500))), 3, 4, 5000),
    (Power(0.5), 3, 2, 10**5),
    (Power(0.3), 5, 3, 10**8),
    (DoubleLog(50.0), 3, 2, 1000),
    (DoubleLog(120.0), 7, 5, 10**4),
])
def test_choose_nu_capped_below_the_cap_equals_the_old_bisection(w, p, ell, cap):
    nu, capped = choose_nu_capped(ell, p, w, cap)
    assert 16 < nu <= cap and not capped  # the case lies strictly inside (16, cap]
    assert nu == _bisection_nu(ell, p, w, cap) == choose_nu(ell, p, w)


def test_choose_nu_capped_binds_when_the_answer_exceeds_a_cap_below_16():
    w = StepTable(((1, 10**6),))  # met everywhere, so choose_nu answers 16
    assert choose_nu_capped(2, 2, w, cap=10) == (10, True)


def test_build_single_block_window():
    w = StepTable(((1, 10**6),))
    bc = build_theorem2_prefix(p=3, w=w, L=2, seed=0)
    assert len(bc.blocks) == 1
    b = bc.blocks[0]
    assert 2 * b.nu <= b.size <= 6 * b.nu
    assert b.nu == 16 and not b.cap_bound


def test_build_theorem2_blocks_and_ratios():
    bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=6, seed=0, nu_cap=24)
    assert [b.ell for b in bc.blocks] == [2, 3, 4, 5, 6]
    for b in bc.blocks:
        assert b.nu == 24 and b.cap_bound
        r = pisier_ratio(bc, b.ell)
        assert isinstance(r, Fraction)
        assert b.ell <= r <= 3 * b.ell
        assert b.certificate.verify()


def test_ratios_grow_with_ell():
    bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=6, seed=0)
    assert pisier_ratio(bc, 6) > pisier_ratio(bc, 2) - 2  # lower bounds grow
    assert float(pisier_ratio(bc, 6)) >= 6


def test_union_rank_is_sum_of_block_ranks():
    bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=4, seed=1)
    subsets = []
    expected = 0
    for b in bc.blocks:
        pts = bc.block_points(b.ell)[: b.ell + 2]
        subsets.extend(pts)
        expected += fp_rank([FpVector(bc.p, v.coords) for v in pts])
    assert fp_rank(subsets) == expected


def test_embedding_dimensions():
    bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=3, seed=0)
    assert bc.total_dim == sum(b.nu for b in bc.blocks)
    union = bc.union_points()
    assert all(v.nu == bc.total_dim for v in union)
    assert len(union) == sum(b.size for b in bc.blocks)
    with pytest.raises(KeyError):
        bc.block(9)


def test_mesh_reports_all_pass():
    w = DoubleLog(1.0)
    bc = build_theorem2_prefix(p=3, w=w, L=4, seed=0)
    reports = theorem2_mesh_reports(bc, count=120, seed=0)
    assert len(reports) == 120
    assert all(r.passed for r in reports)
    assert all(r.bound == r.k * w(r.k) for r in reports)  # the construction's w
    assert all(r.bound >= r.k for r in reports)  # w >= 1


def test_export(tmp_path):
    import json

    bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=3, seed=0)
    path = tmp_path / "t2.json"
    bc.to_json(path)
    data = json.loads(path.read_text())
    assert data["p"] == 3
    assert [blk["ell"] for blk in data["blocks"]] == [2, 3]
