import inspect
import math

import numpy as np
import pytest

from sidonlab.core import ResourceCapError
from sidonlab.tails import (
    BINOMIAL_N_CAP,
    EXACT_LIMIT,
    DomainError,
    SubGaussianSpec,
    binomial_subgaussian_spec,
    binomial_tail_exact,
    check_mgf_inequality,
    concavity_margin,
    difference_tail_check,
    subgaussian_tail_bound,
)


def _mgf_lhs(alpha, u):
    return alpha * math.exp((1 - alpha) * u) + (1 - alpha) * math.exp(-alpha * u)


def test_mgf_inequality_on_full_grid():
    violation = check_mgf_inequality(np.linspace(0.01, 0.99, 99), 1001)
    assert violation <= 1e-12


def test_mgf_equality_at_zero():
    for alpha in (0.1, 0.5, 0.77):
        assert _mgf_lhs(alpha, 0.0) == 1.0


def test_mgf_at_window_edge():
    alpha = 0.1
    edge = 1 / abs(2 - 4 * alpha)
    assert edge == pytest.approx(0.625)
    for u in (edge, -edge):
        assert _mgf_lhs(alpha, u) <= math.exp(2 * alpha * (1 - alpha) * u * u)


def test_mgf_half_case_is_cosh():
    # at alpha = 1/2 the left side is cosh(u/2) <= e^(u^2/8) <= e^(u^2/2)
    for u in (0.5, 2.0, 10.0):
        assert _mgf_lhs(0.5, u) == pytest.approx(math.cosh(u / 2))
        assert math.cosh(u / 2) <= math.exp(u * u / 8)


def test_concavity_quadratic_nonpositive():
    assert concavity_margin(np.linspace(0.01, 0.99, 99), 1001) <= 1e-12


# ---------------------------------------------------------------------------
# exact binomial tails
# ---------------------------------------------------------------------------


def test_tail_edge_cases():
    assert binomial_tail_exact(10, 0.3, 10) == 0.0
    assert binomial_tail_exact(2, 0.5, 0.5) == pytest.approx(0.5)


def test_tail_half_mean_deviation():
    tail = binomial_tail_exact(1024, 0.25, 128)
    assert tail <= 2 * math.exp(-1024 * 0.25 / 32)
    assert tail > 0


def test_tail_monotone_and_complements():
    N, alpha = 300, 0.4
    ts = [0.0, 1.0, 5.0, 20.0, 60.0, 120.0]
    tails = [binomial_tail_exact(N, alpha, t) for t in ts]
    assert tails == sorted(tails, reverse=True)
    for t in ts:
        k = np.arange(N + 1)
        from scipy.stats import binom

        central = binom.pmf(k[np.abs(k - N * alpha) <= t], N, alpha).sum()
        assert central + binomial_tail_exact(N, alpha, t) == pytest.approx(1.0, abs=1e-12)


def test_tail_matches_direct_sum():
    from scipy.stats import binom

    for N, alpha, t in [(40, 0.3, 5), (100, 0.5, 12), (17, 0.9, 3)]:
        k = np.arange(N + 1)
        direct = binom.pmf(k[np.abs(k - N * alpha) > t], N, alpha).sum()
        assert binomial_tail_exact(N, alpha, t) == pytest.approx(direct, rel=1e-10)


def test_tiny_tails_stay_finite():
    tail = binomial_tail_exact(10**5, 0.5, 4.9 * 10**4)
    assert 0 <= tail < 1e-300 or tail == 0.0


# ---------------------------------------------------------------------------
# sub-Gaussian bounds
# ---------------------------------------------------------------------------


def test_subgaussian_bound_formula():
    one, two, ok = subgaussian_tail_bound(1.0, SubGaussianSpec(1.0))
    assert one == pytest.approx(math.exp(-0.5))
    assert two == pytest.approx(2 * math.exp(-0.5))
    assert ok  # infinite window


def test_binomial_window():
    spec = binomial_subgaussian_spec(100, 0.3)
    assert spec.tau == pytest.approx(2 * math.sqrt(100 * 0.3 * 0.7))
    assert spec.h == pytest.approx(1 / 0.8)
    # domain_ok iff lam < sqrt(N a (1-a)) / |1-2a|
    edge = math.sqrt(100 * 0.3 * 0.7) / 0.4
    assert subgaussian_tail_bound(edge * 0.999, spec).domain_ok
    assert not subgaussian_tail_bound(edge * 1.001, spec).domain_ok
    assert binomial_subgaussian_spec(100, 0.5).h == math.inf


def test_binomial_tails_below_bound_within_window():
    # composed sums of centered Bernoulli summands: exact tail never exceeds
    # 2 exp(-lam^2/2) inside the window
    for N in (10, 50, 200):
        for alpha in (0.1, 0.3, 0.5):
            spec = binomial_subgaussian_spec(N, alpha)
            for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
                one, two, ok = subgaussian_tail_bound(lam, spec)
                if not ok:
                    continue
                t = 2 * lam * math.sqrt(N * alpha * (1 - alpha))
                assert binomial_tail_exact(N, alpha, t) <= two


# ---------------------------------------------------------------------------
# difference of two binomials
# ---------------------------------------------------------------------------


def test_difference_exact_small():
    r = difference_tail_check(100, 0.5, 2.0)
    assert r.passed
    assert r.threshold == pytest.approx(4 * math.sqrt(50))
    assert r.bound == pytest.approx(2 * math.exp(-2))


def test_difference_window_enforced():
    with pytest.raises(DomainError):
        difference_tail_check(400, 0.3, 20.0)
    # alpha = 1/2 leaves the window unbounded
    r = difference_tail_check(50, 0.5, 5.0)
    assert r.passed


def test_difference_at_window_edge():
    window = math.sqrt(400 * 0.3 * 0.7 / abs(1 - 0.6))
    r = difference_tail_check(400, 0.3, window * 0.999)
    assert r.passed


def test_difference_small_lambda_vacuous():
    r = difference_tail_check(60, 0.4, 1e-6)
    assert r.bound == pytest.approx(2.0)
    assert r.passed


def test_difference_tail_check_takes_n_alpha_lambda():
    assert list(inspect.signature(difference_tail_check).parameters) == ["N", "alpha", "lam"]


def test_difference_above_the_exact_limit_is_a_cap():
    assert difference_tail_check(EXACT_LIMIT, 0.5, 1.5).passed
    with pytest.raises(ResourceCapError):
        difference_tail_check(EXACT_LIMIT + 1, 0.5, 1.5)


def test_binomial_tail_cap_and_negative_n():
    assert binomial_tail_exact(0, 0.3, 0.5) == 0.0
    with pytest.raises(ResourceCapError):
        binomial_tail_exact(BINOMIAL_N_CAP + 1, 0.3, 1.0)
    with pytest.raises(ValueError):
        binomial_tail_exact(-1, 0.3, 1.0)


def test_difference_exact_matches_simulation_roughly():
    r = difference_tail_check(200, 0.5, 1.0)
    rng = np.random.default_rng(1)
    z = rng.binomial(200, 0.5, 200000).astype(int) - rng.binomial(200, 0.5, 200000)
    freq = float((np.abs(z) > r.threshold).mean())
    assert abs(freq - r.tail) < 5 * math.sqrt(max(r.tail, 1e-9) / 200000) + 1e-3


# every (N, alpha, lambda) that appendix-check runs on the exact route
_CLI_EXACT_CASES = [
    (N, alpha, lam)
    for N in (100, 400, 2000)
    for alpha in (0.1, 0.3, 0.5)
    for lam in (0.5, 1.0, 2.0)
    if alpha == 0.5 or lam < math.sqrt(N * alpha * (1 - alpha) / abs(1 - 2 * alpha))
]


@pytest.mark.parametrize("N", [100, 400, 2000])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
def test_private_binom_ufunc_equals_scipy_stats_bit_for_bit(N, alpha):
    from scipy.special._ufuncs import _binom_pmf
    from scipy.stats import binom

    k = np.arange(N + 1)
    fast = _binom_pmf(k, N, alpha)
    public = binom.pmf(k, N, alpha)
    assert fast.dtype == public.dtype == np.float64
    assert fast.tobytes() == public.tobytes()


def test_difference_tail_falls_back_to_scipy_stats(monkeypatch):
    import sys

    from scipy.stats import binom

    fast = [difference_tail_check(N, alpha, lam) for N, alpha, lam in _CLI_EXACT_CASES]
    calls = []
    public_pmf = binom.pmf

    def spy(*args):
        calls.append(args[1:])
        return public_pmf(*args)

    monkeypatch.setattr(binom, "pmf", spy)
    # a None entry makes `from scipy.special._ufuncs import ...` raise ImportError
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    slow = [difference_tail_check(N, alpha, lam) for N, alpha, lam in _CLI_EXACT_CASES]
    assert len(calls) == len(_CLI_EXACT_CASES)
    assert slow == fast
