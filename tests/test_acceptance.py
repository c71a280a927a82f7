"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its criterion holds; any failure is a
plain assertion failure.  Run with `pytest -v tests/test_acceptance.py -s`
to see the lines as they come.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sidonlab.core import FpVector, LatticePoint, fp_rank
from sidonlab.construction import (
    build_matrix,
    embed_theorem1,
    n_nu,
    theorem1_witness,
    witness_counts,
)
from sidonlab.growth import DoubleLog
from sidonlab.blocks import build_theorem2_prefix, pisier_ratio, theorem2_mesh_reports
from sidonlab.mesh import Box, _digit_bounds, mesh_count
from sidonlab.selection import SelectionConfig, lemma_search, sample_lambda
from sidonlab.spectral import analyticity_witness, fwht, naive_wht, sample_flat_lambda
from sidonlab.spread import (
    PREFIX_ENUM_CAP,
    build_theorem3_prefix,
    pick_independent_subset,
    theorem3_mesh_reports,
    v_p_size,
    well_spread_check,
)
from sidonlab.tails import (
    binomial_tail_exact,
    check_mgf_inequality,
    difference_tail_check,
)
from sidonlab.verify import verify_qi_exhaustive, verify_qi_naive, verify_qi_structural


def _announce(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_construction_correctness():
    expected_columns = [3, 8, 20, 48, 112, 256, 576, 1280]
    assert [n_nu(v) for v in range(1, 9)] == expected_columns
    for nu in range(1, 9):
        m = build_matrix(nu)
        assert m.entries.shape == (2**nu, (2 ** (nu - 1)) * (nu + 2))
        assert verify_qi_structural(m)
    t0 = time.perf_counter()
    for nu in (1, 2, 3):
        qi, witness = verify_qi_exhaustive(build_matrix(nu).columns_as_points())
        assert qi and witness is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(1, f"matrices 1..8 exact; exhaustive checks 1..3 in {elapsed:.1f}s")


def test_criterion_2_theorem1_witnesses():
    construction = embed_theorem1(7)
    ks = range(2, 256)
    counts = witness_counts(construction, ks)
    for k in ks:
        nu = k.bit_length() - 1
        mesh, claimed = theorem1_witness(k, construction)
        assert mesh.k == k and mesh.domain == Box(1)
        assert counts[k] == claimed == n_nu(nu)
        assert counts[k] >= math.ceil(0.25 * k * math.log2(k))
    for k in (4, 8, 16, 32, 64, 128):
        assert counts[k] >= 0.5 * k * math.log2(k)
    # independent count route on a sample of witness meshes
    lam = list(construction.lambda_ints)
    for k in (2, 5, 16, 100, 255):
        mesh, claimed = theorem1_witness(k, construction)
        assert mesh_count(lam, mesh) == claimed
    _announce(2, "height-1 witness meshes meet the lower bound for every k in [2, 256)")


def test_criterion_3_selection_statistics_and_lemma():
    t0 = time.perf_counter()
    cfg = SelectionConfig(p=2, nu=16, ell=4, seed=0, trials=1000)
    lo, hi = cfg.ell * cfg.nu, 3 * cfg.ell * cfg.nu
    sizes = [len(sample_lambda(cfg, t)) for t in range(cfg.trials)]
    freq = sum(1 for s in sizes if lo <= s <= hi) / cfg.trials
    q = 1 - 2 * math.exp(-cfg.ell * cfg.nu / 16)
    sigma = math.sqrt(q * (1 - q) / cfg.trials)
    assert freq >= q - 3 * sigma
    mean = sum(sizes) / len(sizes)
    expected = cfg.space_size * cfg.alpha
    se = math.sqrt(expected * (1 - cfg.alpha)) / math.sqrt(cfg.trials)
    assert abs(mean - expected) <= 5 * se
    for p, nu, ell in [(2, 16, 1), (2, 16, 4), (101, 16, 1)]:
        cert = lemma_search(SelectionConfig(p=p, nu=nu, ell=ell, seed=0), max_retries=10**4)
        assert cert.verify()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(3, f"size-window frequency {freq:.3f} >= {q - 3 * sigma:.3f}; "
                 f"3 certificates re-verified in {elapsed:.1f}s")


def test_criterion_4_theorem2_prefix():
    w = DoubleLog(1.0)
    bc = build_theorem2_prefix(p=3, w=w, L=6, seed=0, nu_cap=24)
    for b in bc.blocks:
        assert pisier_ratio(bc, b.ell) >= b.ell
    reports = theorem2_mesh_reports(
        bc, count=500, seed=0, k_choices=(1, 2, 3, 4, 5, 6), heights=(1, 2)
    )
    assert len(reports) == 500
    violations = [r for r in reports if not r.passed]
    assert violations == []
    _announce(4, "pisier ratios >= ell on all blocks; 0/500 mesh violations")


def test_criterion_5_theorem3_prefix():
    # theorem3 at its defaults: w, J, seed and the (h, k) grid
    system = build_theorem3_prefix(DoubleLog(2500.0), 4, 0, (1, 2, 3), (1, 2, 3, 4, 5))
    for b in system.blocks:
        assert 4 * b.ell < b.p
    assert system.structurally_well_spread()
    for b in system.blocks:
        basis = system.block_basis(b.j)
        depth = 1
        while b.p ** (depth + 1) <= PREFIX_ENUM_CAP and depth < len(basis):
            depth += 1
        if b.p**depth <= PREFIX_ENUM_CAP:
            assert well_spread_check(basis[:depth], b.p, cap=PREFIX_ENUM_CAP)
        # deeper prefixes, checked at the smallest block prime
        assert well_spread_check(basis[:3], 37, cap=PREFIX_ENUM_CAP)
    for b in system.blocks:
        for p_small in (3, 5):
            for size in (1, 2, 3, 4):
                part = pick_independent_subset(b, size)
                assert v_p_size(part, p_small) == p_small**size
    assert system.grid_k == (1, 2, 3, 4, 5) and system.grid_h == (1, 2, 3)
    reports = theorem3_mesh_reports(system, count=500, seed=0)
    assert len(reports) == 500
    violations = [r for r in reports if not r.passed]
    assert violations == []
    _announce(5, "schedule valid, spread identities exact, 0/500 mesh violations")


def test_criterion_6_flatness_witness():
    nu, ell, rho = 22, 40000, 3
    target = 0.5 * 2 ** (rho / 2)
    chain = 1.0 / (2 ** (-rho / 2) + (20 / math.sqrt(ell)) * 2 ** (rho / 2))
    assert target == pytest.approx(math.sqrt(2))
    assert chain == pytest.approx(1.5713484, abs=1e-6)
    lows = []
    for seed in range(5):
        sample = sample_flat_lambda(nu, ell, seed=seed, max_retries=20, rho=rho)
        assert sample.retries_used <= 20
        report = analyticity_witness(sample)
        assert report.lower_bound >= target
        assert report.lower_bound >= chain - 1e-9
        lows.append(report.lower_bound)
    rng = np.random.default_rng(0)
    data = rng.normal(size=2**nu) + 1j * rng.normal(size=2**nu)
    t0 = time.perf_counter()
    fwht(data)
    per_transform = time.perf_counter() - t0
    assert per_transform < 5.0
    _announce(6, f"5 seeds: duality bounds {min(lows):.3f}..{max(lows):.3f} >= "
                 f"{chain:.4f}; transform at 2^22 in {per_transform:.2f}s")


def test_criterion_7_appendix():
    t0 = time.perf_counter()
    violation = check_mgf_inequality(np.linspace(0.01, 0.99, 99), 1001)
    assert violation <= 1e-12
    tail = binomial_tail_exact(1024, 0.25, 128)
    assert tail <= 2 * math.exp(-8)
    for N in (100, 400, 2000):
        for alpha in (0.1, 0.3, 0.5):
            window = (
                math.inf
                if alpha == 0.5
                else math.sqrt(N * alpha * (1 - alpha) / abs(1 - 2 * alpha))
            )
            for lam in (0.5, 1.0, 2.0, 4.0):
                if lam >= window:
                    continue
                report = difference_tail_check(N, alpha, lam)
                assert report.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(7, f"max MGF violation {violation:.1e}; all exact tails below "
                 f"their bounds in {elapsed:.1f}s")


def test_criterion_8_oracle_equivalences():
    rng = np.random.default_rng(2024)
    # transform vs naive, exact on integers
    for nu in (1, 2, 3, 4):
        a = rng.integers(-9, 10, 2**nu)
        assert np.array_equal(fwht(a), naive_wht(a))
    # meet-in-the-middle vs single-loop enumeration, N <= 12
    for _ in range(25):
        n = int(rng.integers(0, 10))
        pts = [LatticePoint(tuple(int(x) for x in rng.integers(-3, 4, 2))) for _ in range(n)]
        assert verify_qi_exhaustive(pts)[0] == verify_qi_naive(pts)[0]
    worst = [3**i for i in range(12)]
    assert verify_qi_exhaustive(worst)[0] == verify_qi_naive(worst, n_max=12)[0] is True
    # digit route vs enumeration on witness meshes
    construction = embed_theorem1(4)
    lam = list(construction.lambda_ints)
    for k in (2, 4, 7, 10):
        mesh, _ = theorem1_witness(k, construction)
        assert _digit_bounds(mesh) is not None
        assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate")
    # rank vs span enumeration
    for _ in range(40):
        p = int(rng.choice([2, 3, 5, 7]))
        nu = int(rng.integers(1, 5))
        vecs = [
            FpVector(p, tuple(int(x) for x in rng.integers(0, p, nu)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        seen = set()
        for coeffs in itertools.product(range(p), repeat=len(vecs)):
            acc = [0] * nu
            for c, v in zip(coeffs, vecs):
                acc = [(a + c * x) % p for a, x in zip(acc, v.coords)]
            seen.add(tuple(acc))
        assert p ** fp_rank(vecs) == len(seen)
    _announce(8, "all four oracle pairs agree exactly")
