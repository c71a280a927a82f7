from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonlab.blocks import (
    build_theorem2_prefix,
    choose_nu_capped,
    pisier_ratio,
    theorem2_mesh_reports,
)
from sidonlab.core import FpVector, fp_rank
from sidonlab.growth import DoubleLog, Power, StepTable
from sidonlab.selection import k_ell


def _scan_nu(ell, p, w, cap):
    """The least nu in [16, cap] with w(K_ell nu) >= 3 ell / K_ell, by a
    plain scan, or None."""
    K = k_ell(p, ell)
    return next((nu for nu in range(16, cap + 1) if w(K * nu) >= 3 * ell / K), None)


def test_choose_nu_minimum_dominates():
    # a huge constant weight is already above the threshold at nu = 16
    w = StepTable(((1, 10**6),))
    assert choose_nu_capped(2, 2, w, cap=24) == (16, False)


def test_choose_nu_monotone_in_ell():
    w = StepTable(((1, 10), (50, 200), (5000, 4000), (10**9, 10**9)))
    answers = [choose_nu_capped(ell, 2, w, cap=10**12) for ell in (2, 3, 4, 6)]
    assert not any(capped for _, capped in answers)
    values = [nu for nu, _ in answers]
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
    nu, capped = choose_nu_capped(2, 2, w, cap=10**6)
    assert not capped
    assert w(K * nu) >= 3 * 2 / K
    assert w(K * (nu - 1)) < 3 * 2 / K


# the answers of the exact closed-form inversion that once backed the
# bisection, keyed by (p, ell, cap)
_INVERSION_NU = {
    (2, 2, 200): 112, (3, 4, 5000): 423, (3, 2, 10**5): 55775,
    (5, 3, 10**8): 35232681, (3, 2, 1000): 223, (7, 5, 10**4): 122,
}


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
    assert nu == _INVERSION_NU[p, ell, cap]
    if nu <= 10**5:  # the scan of the (5, 3) case would take 3.5e7 steps
        assert nu == _scan_nu(ell, p, w, cap)


def test_choose_nu_capped_binds_when_the_answer_exceeds_a_cap_below_16():
    w = StepTable(((1, 10**6),))  # met everywhere, so the least nu >= 16 is 16
    assert choose_nu_capped(2, 2, w, cap=10) == (10, True)


@st.composite
def _weights(draw):
    """A DoubleLog, a Power or an increasing StepTable, with parameters on
    a log scale around those that meet the targets 3 ell / K_ell (45 to
    576 here) at K_ell nu between 0.7 and 10^11."""
    def log_uniform(lo, hi):
        return 10 ** draw(st.floats(lo, hi))

    kind = draw(st.sampled_from(["doublelog", "power", "step"]))
    if kind == "doublelog":
        return DoubleLog(log_uniform(1.3, 3.2))
    if kind == "power":
        return Power(log_uniform(-1, 0.5))
    n = draw(st.integers(1, 5))
    thresholds = sorted(log_uniform(-0.5, 6) for _ in range(n))
    values = sorted(log_uniform(0, 3) for _ in range(n))
    return StepTable(tuple(zip(thresholds, values)))


_PRIMES = st.sampled_from([2, 3, 5, 7, 11])


@settings(max_examples=200, deadline=None)
@given(_weights(), _PRIMES, st.integers(2, 8), st.integers(10, 2000))
def test_choose_nu_capped_equals_a_scan(w, p, ell, cap):
    nu = _scan_nu(ell, p, w, cap)
    assert choose_nu_capped(ell, p, w, cap) == ((cap, True) if nu is None else (nu, False))


@settings(max_examples=200, deadline=None)
@given(_weights(), _PRIMES, st.integers(2, 8), st.integers(1, 10**12))
def test_choose_nu_capped_is_least_or_capped(w, p, ell, cap):
    K = k_ell(p, ell)
    target = 3 * ell / K
    nu, capped = choose_nu_capped(ell, p, w, cap)
    assert capped == (cap < 16 or w(K * cap) < target)
    if capped:
        assert nu == cap
    else:
        assert 16 <= nu <= cap and w(K * nu) >= target
        assert nu == 16 or w(K * (nu - 1)) < target


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
    reports = theorem2_mesh_reports(bc, count=120, seed=0, k_choices=(1, 2, 3, 4, 5, 6),
                                    heights=(1, 2))
    assert len(reports) == 120
    assert all(r.passed for r in reports)
    assert all(r.bound == r.k * w(r.k) for r in reports)  # the construction's w
    assert all(r.bound >= r.k for r in reports)  # w >= 1


def test_default_prefix_has_a_mesh_past_its_bound():
    # theorem2's defaults (p = 3, 6 blocks, --nu-cap 24, doublelog:1, seed
    # 0): in block ell = 5, whose nu is capped, points 49, 55, 159, 198 and
    # 248 satisfy l49 + 2 l55 + l159 + l198 + l248 = 0 in F_3^24.  So the
    # mesh on (l49, l55, l159, l198) with Box(1) meets the union in 5
    # points, against k w(k) = 4; the default report passes only because
    # its 500 meshes are sampled and miss this one.
    from sidonlab.growth import parse_growth
    from sidonlab.mesh import BoundSpec, Box, Mesh, check_mesh_condition, mesh_count

    w = parse_growth("doublelog:1")
    bc = build_theorem2_prefix(p=3, w=w, L=6, seed=0, nu_cap=24)
    pts = bc.block_points(5)
    union = bc.union_points()
    mesh = Mesh(tuple(pts[i] for i in (49, 55, 159, 198)), Box(1))
    assert mesh_count(union, mesh) == mesh_count(union, mesh, method="enumerate") == 5
    assert mesh.k * w(mesh.k) == 4
    (report,) = check_mesh_condition(union, [mesh], BoundSpec("k_w_k", w=w))
    assert (report.count, report.bound, report.passed) == (5, 4, False)


def test_export(tmp_path):
    import json

    bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=3, seed=0)
    path = tmp_path / "t2.json"
    bc.to_json(path)
    data = json.loads(path.read_text())
    assert data["p"] == 3
    assert [blk["ell"] for blk in data["blocks"]] == [2, 3]
