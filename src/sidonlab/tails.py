"""Sub-Gaussian windows and exact binomial tail comparisons.

A centered variable is sub-Gaussian of type tau on the window (-h, h) when
its moment generating function is at most exp(u^2 tau^2 / 2) for |u| <= h;
the tail bound exp(-lambda^2/2) then holds for 0 < lambda < tau*h.  For a
Bernoulli(alpha) summand the window is h = 1/|2-4alpha| with
tau = 2 sqrt(alpha(1-alpha)), which rests on the pointwise inequality

    alpha e^((1-alpha)u) + (1-alpha) e^(-alpha u) <= e^(2 alpha(1-alpha) u^2)

on that window.  This module checks the inequality on a dense grid and
compares exact binomial and difference tails against the resulting bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ResourceCapError

__all__ = [
    "SubGaussianSpec",
    "binomial_subgaussian_spec",
    "check_mgf_inequality",
    "concavity_margin",
    "binomial_tail_exact",
    "subgaussian_tail_bound",
    "DifferenceTailReport",
    "difference_tail_check",
    "DomainError",
]

MGF_SURROGATE_WINDOW = 50.0  # finite stand-in for the unbounded alpha=1/2 window
BINOMIAL_N_CAP = 10**6  # binomial_tail_exact sums N + 1 terms at most this N
EXACT_LIMIT = 2000  # difference_tail_check convolves at most this N


class DomainError(ValueError):
    """The requested lambda lies outside the validity window."""


@dataclass(frozen=True)
class SubGaussianSpec:
    """Type parameter tau and window half-width h (possibly infinite)."""

    tau: float
    h: float = math.inf

    def __post_init__(self):
        if self.tau <= 0 or self.h <= 0:
            raise ValueError("need tau > 0 and h > 0")


def binomial_subgaussian_spec(N: int, alpha: float) -> SubGaussianSpec:
    """Type and window for Y - N*alpha with Y ~ B(N, alpha)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    tau = 2 * math.sqrt(N * alpha * (1 - alpha))
    h = math.inf if alpha == 0.5 else 1.0 / abs(2 - 4 * alpha)
    return SubGaussianSpec(tau, h)


def _window_grid(alpha_grid: np.ndarray, u_count: int):
    """(alpha, u) for each alpha of the grid, u being u_count points across
    alpha's validity window."""
    for alpha in alpha_grid:
        a = float(alpha)
        edge = MGF_SURROGATE_WINDOW if a == 0.5 else 1.0 / abs(2 - 4 * a)
        yield alpha, np.linspace(-edge, edge, u_count)


def check_mgf_inequality(alpha_grid: np.ndarray, u_count: int) -> float:
    """Max of LHS - RHS of the Bernoulli MGF inequality over the grid.

    Each alpha row samples u over its own validity window (the alpha = 1/2
    row, whose window is unbounded, uses |u| <= 50).  The max must not
    exceed ~1e-12; the true difference vanishes only at u = 0.
    """
    worst = -math.inf
    with np.errstate(over="ignore"):
        for alpha, u in _window_grid(alpha_grid, u_count):
            lhs = alpha * np.exp((1 - alpha) * u) + (1 - alpha) * np.exp(-alpha * u)
            rhs = np.exp(2 * alpha * (1 - alpha) * u * u)
            worst = max(worst, float((lhs - rhs).max()))
    return worst


def concavity_margin(alpha_grid: np.ndarray, u_count: int) -> float:
    """Max of ((2-4a)u + 3)((2-4a)u - 1) over the same grid (must be <= 0).

    This is the inner concavity step behind the MGF inequality: the
    exponent's derivative condition A'^2 + A'' <= 0 reduces to this
    quadratic being nonpositive on the window.
    """
    worst = -math.inf
    for alpha, u in _window_grid(alpha_grid, u_count):
        t = (2 - 4 * alpha) * u
        worst = max(worst, float(((t + 3) * (t - 1)).max()))
    return worst


def binomial_tail_exact(N: int, alpha: float, t: float) -> float:
    """P(|Y - N*alpha| > t) for Y ~ B(N, alpha), summed in log space.

    Handles tails far below 1e-300 without underflow inside the sum; only
    the final exponentiation can round to zero.
    """
    from scipy.special import gammaln, logsumexp  # lazy: keeps CLI start-up light

    if N < 0:
        raise ValueError("need N >= 0")
    if N > BINOMIAL_N_CAP:
        raise ResourceCapError(f"N = {N} exceeds the cap {BINOMIAL_N_CAP}")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if t >= N:
        return 0.0
    k = np.arange(N + 1)
    keep = np.abs(k - N * alpha) > t
    if not keep.any():
        return 0.0
    k = k[keep]
    logpmf = (
        gammaln(N + 1)
        - gammaln(k + 1)
        - gammaln(N - k + 1)
        + k * math.log(alpha)
        + (N - k) * math.log1p(-alpha)
    )
    return float(np.exp(logsumexp(logpmf)))


class TailBounds(NamedTuple):
    one_sided: float
    two_sided: float
    domain_ok: bool


def subgaussian_tail_bound(lam: float, spec: SubGaussianSpec) -> TailBounds:
    """exp(-lam^2/2) and its two-sided double, plus window membership."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    one = math.exp(-0.5 * lam * lam)
    return TailBounds(one, 2 * one, lam < spec.tau * spec.h)


def _binom_pmf(k: np.ndarray, N: int, alpha: float) -> np.ndarray:
    """The binomial pmf at k, computed as ``scipy.stats.binom.pmf`` does.

    Importing ``scipy.stats`` costs more than everything else in
    ``appendix-check`` together, so this calls the ufunc that
    ``binom._pmf`` wraps in scipy 1.17 directly.  Older scipy, where the
    name does not exist, falls back to ``scipy.stats``.  A test pins the
    two to equal bit for bit on every (N, alpha) the CLI checks exactly.
    """
    try:  # lazy: keeps CLI start-up light
        from scipy.special._ufuncs import _binom_pmf as pmf
    except ImportError:
        from scipy.stats import binom

        pmf = binom.pmf
    return pmf(k, N, alpha)


@dataclass(frozen=True)
class DifferenceTailReport:
    """Exact tail of Y - Y' against 2 exp(-lambda^2/2)."""

    N: int
    alpha: float
    lam: float
    threshold: float
    tail: float
    bound: float
    passed: bool


def difference_tail_check(N: int, alpha: float, lam: float) -> DifferenceTailReport:
    """Tail of Z = Y - Y' (independent B(N, alpha)) at 2 lam sqrt(2N a(1-a)).

    Valid only for lam < sqrt(N*alpha*(1-alpha)/|1-2*alpha|) (vacuously all
    lam at alpha = 1/2); outside that window no claim is made and a
    DomainError is raised.  The tail is the exact double convolution of the
    pmf, for N up to EXACT_LIMIT; a larger N raises ResourceCapError.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if N > EXACT_LIMIT:
        raise ResourceCapError(f"N = {N} exceeds the exact limit {EXACT_LIMIT}")
    if alpha != 0.5:
        window = math.sqrt(N * alpha * (1 - alpha) / abs(1 - 2 * alpha))
        if lam >= window:
            raise DomainError(
                f"lambda = {lam} is outside the validity window {window}"
            )
    threshold = 2 * lam * math.sqrt(2 * N * alpha * (1 - alpha))
    bound = 2 * math.exp(-0.5 * lam * lam)
    pmf = _binom_pmf(np.arange(N + 1), N, alpha)
    pmf_z = np.convolve(pmf, pmf[::-1])  # support -N..N
    z = np.arange(-N, N + 1)
    tail = float(pmf_z[np.abs(z) > threshold].sum())
    return DifferenceTailReport(N, alpha, lam, threshold, tail, bound, tail <= bound)
