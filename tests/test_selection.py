import hashlib
import json
import math
from fractions import Fraction

import pytest

from sidonlab.core import FpVector, is_free
from sidonlab.selection import (
    LemmaCertificate,
    SearchFailure,
    SelectionConfig,
    SelectionError,
    enumerate_dependence_probability,
    estimate_tied_probability,
    exact_dependence_probability,
    k_ell,
    lemma_search,
    sample_lambda,
    sample_lambda_rows,
    sample_sub_lambda,
    tied_probability_check,
    trial_statistics,
)


def test_k_ell_values():
    assert k_ell(2, 1) == pytest.approx(0.25 * math.log(2) / math.log(8))
    assert k_ell(5, 1) == pytest.approx(0.25 * math.log(5) / math.log(20), abs=1e-12)
    assert k_ell(5, 1) == pytest.approx(0.1343, abs=5e-5)
    # fixed ell, growing p: the ratio tends to 1/4
    assert abs(k_ell(2**61 - 1, 1) - 0.25) < 0.01


def test_config_validation_and_derived_parameters():
    cfg = SelectionConfig(p=2, nu=16, ell=4, seed=0, trials=10)
    assert cfg.alpha == pytest.approx(2 ** (-9))
    assert cfg.beta == pytest.approx(1 / 32)
    assert cfg.lemma_mode_ok()
    with pytest.raises(ValueError):
        SelectionConfig(p=6, nu=4, ell=1)
    with pytest.raises(ValueError):
        SelectionConfig(p=2, nu=2, ell=10)  # alpha >= 1


def test_sample_lambda_deterministic_and_sized():
    cfg = SelectionConfig(p=2, nu=16, ell=4, seed=7)
    a = sample_lambda(cfg, 0)
    b = sample_lambda(cfg, 0)
    assert a == b
    c = sample_lambda(cfg, 1)
    assert a != c
    # expectation 2*ell*nu = 128; a 5-sigma corridor is generous
    assert abs(len(a) - 128) < 5 * math.sqrt(128)


def test_sample_lambda_cap():
    cfg = SelectionConfig(p=101, nu=16, ell=1)
    with pytest.raises(MemoryError):
        sample_lambda(cfg)


def test_sub_lambda_thinning():
    cfg = SelectionConfig(p=2, nu=16, ell=4, seed=1)
    lam = sample_lambda(cfg, 0)
    sub = sample_sub_lambda(lam, cfg, 0)
    assert sub <= lam
    assert sample_sub_lambda(lam, cfg, 0) == sub
    assert sample_sub_lambda(lam, cfg, 0, beta=0.0) == set()
    assert sample_sub_lambda(lam, cfg, 0, beta=1.0) == lam


def test_sub_lambda_mean_matches_beta():
    cfg = SelectionConfig(p=2, nu=12, ell=2, seed=3)
    lam = sample_lambda(cfg, 0)
    total = sum(len(sample_sub_lambda(lam, cfg, t)) for t in range(400))
    expected = 400 * len(lam) * cfg.beta
    assert abs(total - expected) < 5 * math.sqrt(expected)


def test_size_window_frequency():
    cfg = SelectionConfig(p=2, nu=16, ell=4, seed=5, trials=300)
    lo, hi = cfg.ell * cfg.nu, 3 * cfg.ell * cfg.nu
    hits = sum(1 for t in range(cfg.trials) if lo <= len(sample_lambda(cfg, t)) <= hi)
    q = 1 - 2 * math.exp(-cfg.ell * cfg.nu / 16)
    sigma = math.sqrt(q * (1 - q) / cfg.trials)
    assert hits / cfg.trials >= q - 3 * sigma


def test_tied_probability_small():
    cfg = SelectionConfig(p=2, nu=16, ell=1, seed=2, trials=1000)
    estimate, bound = estimate_tied_probability(cfg)
    assert bound == pytest.approx(2 ** (-8))
    assert estimate <= bound + 3 * math.sqrt(bound * (1 - bound) / cfg.trials)


def test_singletons_and_empty_sets_are_free():
    assert is_free([])
    assert is_free([FpVector(2, (1, 0, 1))])


# ---------------------------------------------------------------------------
# the certified search
# ---------------------------------------------------------------------------


def test_lemma_search_small_p():
    cfg = SelectionConfig(p=2, nu=16, ell=1, seed=0)
    cert = lemma_search(cfg)
    assert cert.checked_subset_size == 1  # floor(K_1 * 16) = 1
    assert cert.mode == "bernoulli"
    assert 16 <= len(cert.Lambda) <= 48
    assert not any(v.is_zero() for v in cert.Lambda)
    assert cert.verify()


def test_lemma_search_vacuous_subset_size():
    cfg = SelectionConfig(p=2, nu=16, ell=4, seed=0)
    cert = lemma_search(cfg)
    assert cert.checked_subset_size == 0  # floor(0.05 * 16)
    assert cert.verify()


def test_lemma_search_large_prime_direct_mode():
    cfg = SelectionConfig(p=101, nu=16, ell=1, seed=0)
    cert = lemma_search(cfg)
    assert cert.mode == "direct"
    assert cert.checked_subset_size == 3
    assert cert.verify()


def test_lemma_search_beyond_int64():
    from sidonlab.core import next_prime

    p = next_prime(2**64)
    cert = lemma_search(SelectionConfig(p=p, nu=16, ell=1), use_eighth=True)
    assert cert.mode == "direct"
    coords = [c for v in cert.Lambda for c in v.coords]
    assert all(0 <= c < p for c in coords)
    assert any(c >= 2**63 for c in coords)  # not capped at int64


def test_wide_uniform_redraws_above_the_largest_multiple():
    import numpy as np

    from sidonlab.core import next_prime
    from sidonlab.selection import _wide_uniform

    class Words:  # a bit generator that yields the given 64-bit words
        def __init__(self, words):
            self.words = list(words)

        def random_raw(self, size):
            out, self.words = self.words[:size], self.words[size:]
            return np.array(out, dtype=np.uint64)

    class Rng:
        def __init__(self, words):
            self.bit_generator = Words(words)

    p = next_prime(2**64)
    top = 2**64 - 1  # (top, top) is 2^128 - 1, above the largest multiple of p
    assert _wide_uniform(Rng([top, top, 0, 5, 1, 0]), p, 2) == [5, 2**64 % p]


def test_lemma_search_eighth_mode():
    cfg = SelectionConfig(p=37, nu=17, ell=2, seed=0)
    cert = lemma_search(cfg, use_eighth=True)
    assert cert.use_eighth and cert.K == 0.125
    assert cert.checked_subset_size == 2
    assert cert.verify()
    with pytest.raises(ValueError):
        lemma_search(SelectionConfig(p=2, nu=16, ell=1), use_eighth=True)


def test_lemma_search_requires_lemma_mode():
    with pytest.raises(ValueError):
        lemma_search(SelectionConfig(p=2, nu=8, ell=1))


def test_lemma_search_retry_budget():
    cfg = SelectionConfig(p=2, nu=16, ell=1, seed=0)
    with pytest.raises(SearchFailure):
        lemma_search(cfg, max_retries=0)


def test_tampered_certificate_fails_reverify():
    cfg = SelectionConfig(p=101, nu=16, ell=1, seed=0)
    cert = lemma_search(cfg)
    v = cert.Lambda[0]
    tampered = LemmaCertificate(
        p=cert.p,
        nu=cert.nu,
        ell=cert.ell,
        Lambda=cert.Lambda[:-1] + (2 * v,),  # proportional pair
        K=cert.K,
        checked_subset_size=cert.checked_subset_size,
        exhaustive=cert.exhaustive,
        mode=cert.mode,
        use_eighth=cert.use_eighth,
        seed=cert.seed,
        trial_found=cert.trial_found,
    )
    assert not tampered.verify()


# ---------------------------------------------------------------------------
# dependence probability for k uniform distinct points
# ---------------------------------------------------------------------------


def test_dependence_formula_matches_enumeration():
    for p, nu, k in [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 2, 2), (3, 2, 3)]:
        assert exact_dependence_probability(p, nu, k) == enumerate_dependence_probability(
            p, nu, k
        )


def test_dependence_probability_below_conditional_bound():
    # P(dependent | k points) < p^(k - nu), checked exactly at p=2, nu=8
    for k in (1, 2, 3, 4):
        exact = exact_dependence_probability(2, 8, k)
        assert exact < Fraction(2**k, 2**8)


def test_dependence_probability_edge_cases():
    assert exact_dependence_probability(2, 4, 0) == 0
    # a single draw is dependent only when it is the zero vector
    assert exact_dependence_probability(2, 4, 1) == Fraction(1, 16)


# ---------------------------------------------------------------------------
# the index-array sampler
# ---------------------------------------------------------------------------

# SHA-256 of the sorted coordinates of sample_lambda and sample_sub_lambda
# (at beta and at 1/2) for seeds (0, 1, 7) and trials (0, 1, 5), recorded
# from the point-by-point sampler that decoded one index at a time.
_SAMPLER_PINS = {
    (2, 16, 4): "fc00d476e30949b738bb2d67f03aec0f46fe5ec39556c89c6c9747879b2da9ab",
    (3, 9, 2): "93bb08f5fd121ec16909d6a3157da5eefd449d779fc6a16a403ffcb077169079",
    (5, 6, 2): "51c4c6951ab972931d146affd0b5fd6eae14d6f48e91d3c2b1a0801d16708a09",
}


@pytest.mark.parametrize("p, nu, ell", sorted(_SAMPLER_PINS))
def test_samplers_reproduce_pinned_sets(p, nu, ell):
    digest = hashlib.sha256()
    for seed in (0, 1, 7):
        cfg = SelectionConfig(p=p, nu=nu, ell=ell, seed=seed)
        for trial in (0, 1, 5):
            lam = sample_lambda(cfg, trial)
            sub = sample_sub_lambda(lam, cfg, trial)
            half = sample_sub_lambda(lam, cfg, trial, beta=0.5)
            for s in (lam, sub, half):
                digest.update(repr(sorted(v.coords for v in s)).encode())
    assert digest.hexdigest() == _SAMPLER_PINS[(p, nu, ell)]


@pytest.mark.parametrize("p, nu, ell", sorted(_SAMPLER_PINS))
def test_rows_and_trial_statistics_match_the_set_api(p, nu, ell):
    for seed in (0, 3):
        cfg = SelectionConfig(p=p, nu=nu, ell=ell, seed=seed)
        for trial in range(4):
            rows = sample_lambda_rows(cfg, trial)
            lam = sample_lambda(cfg, trial)
            assert [tuple(r) for r in rows.tolist()] == sorted(v.coords for v in lam)
            sub = sample_sub_lambda(lam, cfg, trial)
            size, tied = trial_statistics(cfg, trial)
            assert size == len(lam)
            assert tied == (not is_free(sorted(sub, key=lambda v: v.coords)))


def test_trial_statistics_finds_dependent_thinned_sets():
    # nu = 3 makes dependence common enough to see both outcomes
    cfg = SelectionConfig(p=2, nu=3, ell=1, seed=0, trials=100)
    flags = [trial_statistics(cfg, t)[1] for t in range(100)]
    assert any(flags) and not all(flags)
    for t in range(100):
        sub = sample_sub_lambda(sample_lambda(cfg, t), cfg, t)
        assert flags[t] == (not is_free(sorted(sub, key=lambda v: v.coords)))


def test_tied_probability_check_shares_the_3_sigma_rule():
    cfg = SelectionConfig(p=2, nu=16, ell=1, seed=2, trials=1000)
    assert tied_probability_check(cfg, 0) == (0.0, 2 ** (-8))
    bound = 2 ** (-8)
    limit = bound + 3 * math.sqrt(bound * (1 - bound) / cfg.trials)
    tied = math.floor(limit * cfg.trials)
    assert tied_probability_check(cfg, tied).estimate == tied / cfg.trials
    with pytest.raises(SelectionError):
        tied_probability_check(cfg, tied + 1)
    with pytest.raises(ValueError):
        tied_probability_check(SelectionConfig(p=2, nu=16, ell=1, trials=99), 0)
    assert estimate_tied_probability(cfg) == tied_probability_check(
        cfg, sum(trial_statistics(cfg, t)[1] for t in range(cfg.trials))
    )


def test_select_report_independent_of_threads():
    from sidonlab.cli import parse_config, run

    reports = []
    for threads in ("1", "2"):
        argv = ["select", "--trials", "120", "--threads", threads]
        report = run(parse_config(argv)).to_dict()
        report.pop("meta")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
