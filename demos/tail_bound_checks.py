#!/usr/bin/env python3
"""Sub-Gaussian windows versus exact binomial tails.

Checks the Bernoulli MGF inequality on a dense grid, compares exact
binomial and difference-of-binomials tails against exp(-lambda^2/2)
bounds inside their validity windows, and shows the windows at work.
"""

import math

import numpy as np

from sidonlab import (
    binomial_subgaussian_spec,
    binomial_tail_exact,
    check_mgf_inequality,
    difference_tail_check,
    subgaussian_tail_bound,
)
from sidonlab.tails import concavity_margin

alpha_grid = np.linspace(0.01, 0.99, 99)
violation = check_mgf_inequality(alpha_grid, 1001)
print(f"MGF inequality, 99 x 1001 grid: max LHS - RHS = {violation:.3e}")
print(f"inner concavity quadratic, same grid: max = {concavity_margin(alpha_grid, 1001):.3e}")
print()

N, alpha, t = 1024, 0.25, 128
tail = binomial_tail_exact(N, alpha, t)
print(f"P(|Y - {N*alpha:.0f}| > {t}) for Y ~ B({N}, {alpha}): exact {tail:.3e}")
print(f"  half-mean deviation bound 2 exp(-N*alpha/32) = {2*math.exp(-N*alpha/32):.3e}")
print()

print("binomial tails inside the window (tau = 2 sqrt(N a (1-a)), h = 1/|2-4a|):")
for lam in (1.0, 2.0, 3.0):
    spec = binomial_subgaussian_spec(200, 0.3)
    one, two, ok = subgaussian_tail_bound(lam, spec)
    exact = binomial_tail_exact(200, 0.3, 2 * lam * math.sqrt(200 * 0.3 * 0.7))
    print(f"  lam = {lam}: exact {exact:.3e} <= 2 exp(-lam^2/2) = {two:.3e} "
          f"(window ok: {ok})")
print()

print("difference of two binomials, exact by double convolution:")
for N, alpha, lam in [(100, 0.5, 2.0), (400, 0.3, 2.0), (2000, 0.1, 1.5)]:
    r = difference_tail_check(N, alpha, lam)
    print(f"  N={N:4d} a={alpha}: tail {r.tail:.3e} <= {r.bound:.3e} "
          f"at threshold {r.threshold:.1f}")
print()
print("outside the window no claim is made:")
try:
    difference_tail_check(400, 0.3, 20.0)
except Exception as exc:
    print(f"  lam = 20 at (N=400, a=0.3) -> {type(exc).__name__}: {exc}")
