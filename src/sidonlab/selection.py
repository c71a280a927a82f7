"""Two-stage Bernoulli selection in (Z/pZ)^nu and the certified search.

Stage one keeps each point of X = (Z/pZ)^nu independently with probability
alpha = 2 * ell * nu / p^nu, giving a set Lambda whose size concentrates in
[ell*nu, 3*ell*nu].  Stage two thins Lambda with probability
beta = 1 / (4 p ell); the thinned set is linearly dependent over F_p with
probability below p^(-nu/2).  ``lemma_search`` resamples Lambda until every
subset of size <= floor(K * nu) is free, K = (1/4) log p / log(4 p ell)
(or K = 1/8 when 4*ell < p), and returns a re-verifiable certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConfigError, FpVector, ResourceCapError, fp_rank, is_free, is_prime
from .rng import stream

__all__ = [
    "SelectionConfig",
    "LemmaCertificate",
    "SearchFailure",
    "k_ell",
    "sample_lambda_rows",
    "sample_lambda",
    "trial_statistics",
    "tied_bound",
    "estimate_tied_probability",
    "lemma_search",
]

# Desk limits; the caps and the budget of subsets are read at each call.
SAMPLING_CAP = 2**26  # points of the space that pointwise sampling visits
SUBSET_BUDGET = 2 * 10**6  # subsets the search or a re-verification checks
RETRY_BUDGET = 10**4  # draws the certified search makes
LEMMA_NU_MIN = 16  # least nu of the certified search
TIED_MIN_TRIALS = 100  # least trials of the tied-probability check
_CHUNK = 1 << 20


class SearchFailure(RuntimeError):
    """Retry budget exhausted without a certifiable set."""


def k_ell(p: int, ell: int) -> float:
    """(1/4) * log(p) / log(4*p*ell), natural logs."""
    if p < 2 or ell < 1:
        raise ValueError("need p >= 2 and ell >= 1")
    return 0.25 * math.log(p) / math.log(4 * p * ell)


@dataclass(frozen=True)
class SelectionConfig:
    """Parameters of the two-stage selection."""

    p: int
    nu: int
    ell: int
    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        if not is_prime(self.p):
            raise ConfigError(f"p = {self.p} is not prime")
        if self.nu < 1 or self.ell < 1:
            raise ConfigError("need nu >= 1 and ell >= 1")
        if 2 * self.ell * self.nu >= self.p**self.nu:
            raise ConfigError("alpha = 2*ell*nu/p^nu must be < 1")

    @property
    def space_size(self) -> int:
        return self.p**self.nu

    @property
    def alpha(self) -> float:
        return 2 * self.ell * self.nu / self.space_size

    @property
    def beta(self) -> float:
        return 1.0 / (4 * self.p * self.ell)

    def lemma_mode_ok(self) -> bool:
        return self.nu >= LEMMA_NU_MIN and 2 * self.ell * self.nu <= self.space_size


def _digits(indices: np.ndarray, p: int, nu: int) -> np.ndarray:
    """Base-p digits of each index, least significant first: one row per index."""
    return indices[:, None] // p ** np.arange(nu, dtype=np.int64) % p


def sample_lambda_rows(cfg: SelectionConfig, trial: int = 0) -> np.ndarray:
    """Bernoulli(alpha) sample of the full space as an (n, nu) coordinate array.

    Rows are sorted by coordinates.  ``sample_lambda`` returns the same set
    as ``FpVector``s; both are deterministic given the seed and trial.
    """
    size = cfg.space_size
    if size > SAMPLING_CAP:
        raise ResourceCapError(
            f"p^nu = {size} exceeds the pointwise sampling cap {SAMPLING_CAP}"
        )
    rng = stream(cfg.seed, cfg.p, cfg.nu, cfg.ell, trial, 0)
    hits = [
        start + np.flatnonzero(rng.random(min(_CHUNK, size - start)) < cfg.alpha)
        for start in range(0, size, _CHUNK)
    ]
    rows = _digits(np.concatenate(hits), cfg.p, cfg.nu)
    return rows[np.lexsort(rows.T[::-1])]


def sample_lambda(cfg: SelectionConfig, trial: int = 0) -> set[FpVector]:
    """Bernoulli(alpha) sample of the full space; deterministic given seed."""
    rows = sample_lambda_rows(cfg, trial)
    return {FpVector(cfg.p, tuple(row)) for row in rows.tolist()}


def _thin_mask(n: int, cfg: SelectionConfig, trial: int, beta: float) -> np.ndarray:
    """Which of n coordinate-sorted points stage two keeps."""
    rng = stream(cfg.seed, cfg.p, cfg.nu, cfg.ell, trial, 1)
    return rng.random(n) < beta


def trial_statistics(cfg: SelectionConfig, trial: int) -> tuple[int, bool]:
    """|Lambda| and whether its thinned set is dependent, from one draw.

    Stage two keeps each of Lambda's coordinate-sorted points with
    probability beta; only the thinned points become ``FpVector``s.
    """
    rows = sample_lambda_rows(cfg, trial)
    thinned = rows[_thin_mask(len(rows), cfg, trial, cfg.beta)]
    tied = not is_free([FpVector(cfg.p, tuple(row)) for row in thinned.tolist()])
    return len(rows), tied


class TiedEstimate(NamedTuple):
    estimate: float
    bound: float


def tied_bound(cfg: SelectionConfig) -> tuple[float, float]:
    """The bound p^(-nu/2) on the tied probability, and the allowance of 3
    binomial sigma (sigma evaluated at the bound, over cfg.trials trials) by
    which a measured frequency may exceed it."""
    bound = cfg.p ** (-cfg.nu / 2)
    return bound, 3 * math.sqrt(bound * (1 - bound) / cfg.trials)


def estimate_tied_probability(cfg: SelectionConfig) -> TiedEstimate:
    """Monte-Carlo frequency of a linearly dependent thinned set over
    cfg.trials draws, beside the bound p^(-nu/2) of ``tied_bound``."""
    tied = sum(trial_statistics(cfg, t)[1] for t in range(cfg.trials))
    return TiedEstimate(tied / cfg.trials, tied_bound(cfg)[0])


# ---------------------------------------------------------------------------
# the certified search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCertificate:
    """A set with the size window and exhaustively checked freeness.

    ``mode`` records how Lambda was drawn: "bernoulli" for the pointwise
    sample, "direct" for the Poissonized point sample used when p^nu
    exceeds the pointwise cap.  ``use_eighth`` marks the K -> 1/8
    replacement available when 4*ell < p.
    """

    p: int
    nu: int
    ell: int
    Lambda: tuple[FpVector, ...]
    K: float
    checked_subset_size: int
    exhaustive: bool
    mode: str
    use_eighth: bool
    seed: int
    trial_found: int

    def verify(self) -> bool:
        """Independent revalidation: size window plus plain subset ranks."""
        n = len(self.Lambda)
        if not (self.ell * self.nu <= n <= 3 * self.ell * self.nu):
            return False
        m = min(self.checked_subset_size, n)
        if m <= 0:
            return True
        _check_subset_budget(n, m)
        for subset in itertools.combinations(self.Lambda, m):
            if fp_rank(subset) != m:
                return False
        return True


def _check_subset_budget(n: int, m: int) -> None:
    if math.comb(n, m) > SUBSET_BUDGET:
        raise ResourceCapError(
            f"C({n},{m}) subset checks exceed the budget {SUBSET_BUDGET}"
        )


def _subsets_free(points: list[FpVector], m: int) -> bool:
    """All subsets of size <= m are free (equivalently all m-subsets)."""
    n = len(points)
    m = min(m, n)
    if m <= 0:
        return True
    if any(v.is_zero() for v in points):
        return False
    if m == 1:
        return True
    # Pairs are free iff no two points are proportional; normalizing the
    # first nonzero coordinate to 1 detects that in one pass.
    normalized = set()
    for v in points:
        lead = next(c for c in v.coords if c)
        inv = pow(lead, -1, v.p)
        normalized.add(tuple(inv * c % v.p for c in v.coords))
    if len(normalized) != n:
        return False
    if m == 2:
        return True
    _check_subset_budget(n, m)
    for subset in itertools.combinations(points, m):
        if fp_rank(subset) != m:
            return False
    return True


def _sample_direct(cfg: SelectionConfig, trial: int) -> set[FpVector]:
    """Poissonized point sample for spaces beyond the pointwise cap.

    |Lambda| ~ Poisson(2*ell*nu) is the p^nu -> infinity limit of the
    Binomial(p^nu, alpha) law; points are then uniform and independent
    (deduplicated; collisions have negligible probability at this scale).
    """
    rng = stream(cfg.seed, cfg.p, cfg.nu, cfg.ell, trial, 2)
    size = int(rng.poisson(2 * cfg.ell * cfg.nu))
    if cfg.p < 2**63:
        coords = rng.integers(0, cfg.p, size=(size, cfg.nu)).tolist()
    else:
        flat = _wide_uniform(rng, cfg.p, size * cfg.nu)
        coords = [flat[i:i + cfg.nu] for i in range(0, len(flat), cfg.nu)]
    return {FpVector(cfg.p, tuple(row)) for row in coords}


def _wide_uniform(rng: np.random.Generator, p: int, count: int) -> list[int]:
    """count integers uniform on [0, p) for p beyond int64.

    Each is built from the w = ceil(bits(p) / 64) next 64-bit words of
    rng's bit generator; a value at or above the largest multiple of p
    below 2^(64 w) is redrawn, so the rest reduce mod p without bias.
    """
    words = -(-p.bit_length() // 64)
    limit = (1 << 64 * words) // p * p
    out: list[int] = []
    while len(out) < count:
        raw = rng.bit_generator.random_raw((count - len(out)) * words).tolist()
        for i in range(0, len(raw), words):
            value = 0
            for word in raw[i:i + words]:
                value = value << 64 | word
            if value < limit:
                out.append(value % p)
    return out


def lemma_search(
    cfg: SelectionConfig,
    use_eighth: bool = False,
    max_retries: int = RETRY_BUDGET,
) -> LemmaCertificate:
    """Resample until the size window and subset freeness both hold.

    With use_eighth (requires 4*ell < p) the checked subset size is
    floor(nu/8) instead of floor(K_ell * nu).
    """
    if not cfg.lemma_mode_ok():
        raise ConfigError(f"lemma mode needs nu >= {LEMMA_NU_MIN} and ell <= p^nu/(2 nu)")
    if use_eighth and not 4 * cfg.ell < cfg.p:
        raise ConfigError("the K -> 1/8 replacement requires 4*ell < p")
    K = 0.125 if use_eighth else k_ell(cfg.p, cfg.ell)
    m = math.floor(K * cfg.nu)
    pointwise = cfg.space_size <= SAMPLING_CAP
    lo, hi = cfg.ell * cfg.nu, 3 * cfg.ell * cfg.nu
    for t in range(max_retries):
        lam = sample_lambda(cfg, t) if pointwise else _sample_direct(cfg, t)
        if not lo <= len(lam) <= hi:
            continue
        points = sorted(lam, key=lambda v: v.coords)
        if not _subsets_free(points, m):
            continue
        return LemmaCertificate(
            p=cfg.p,
            nu=cfg.nu,
            ell=cfg.ell,
            Lambda=tuple(points),
            K=K,
            checked_subset_size=m,
            exhaustive=True,
            mode="bernoulli" if pointwise else "direct",
            use_eighth=use_eighth,
            seed=cfg.seed,
            trial_found=t,
        )
    raise SearchFailure(
        f"no certifiable set within {max_retries} retries for "
        f"(p={cfg.p}, nu={cfg.nu}, ell={cfg.ell})"
    )
