#!/usr/bin/env python3
"""Two-stage Bernoulli selection in (Z/pZ)^nu and the certified search.

Samples the space pointwise, checks the concentration of |Lambda| against
its analytic bound, estimates how often the thinned subset is linearly
dependent, and produces freeness certificates for three parameter sets.
"""

import math

from sidonlab import (
    SelectionConfig,
    estimate_tied_probability,
    k_ell,
    lemma_search,
)
from sidonlab.selection import trial_statistics

cfg = SelectionConfig(p=2, nu=16, ell=4, seed=0, trials=400)
print(f"p = {cfg.p}, nu = {cfg.nu}, ell = {cfg.ell}")
print(f"alpha = 2*ell*nu/p^nu = {cfg.alpha:.3e}  (expected size {cfg.space_size * cfg.alpha:.0f})")
print(f"beta  = 1/(4*p*ell)   = {cfg.beta:.4f}")
print()

# one draw per trial gives |Lambda| and whether its thinned set is dependent
stats = [trial_statistics(cfg, t) for t in range(cfg.trials)]
sizes = [size for size, _ in stats]
lo, hi = cfg.ell * cfg.nu, 3 * cfg.ell * cfg.nu
freq = sum(1 for s in sizes if lo <= s <= hi) / cfg.trials
print(f"mean |Lambda| over {cfg.trials} trials: {sum(sizes)/len(sizes):.1f}")
print(f"P({lo} <= |Lambda| <= {hi}) empirically {freq:.4f}, "
      f"analytic bound {1 - 2 * math.exp(-cfg.ell * cfg.nu / 16):.4f}")

size, tied = stats[0]
print(f"one draw: |Lambda| = {size}, thinned set of mean size {size * cfg.beta:.1f} "
      f"is {'dependent' if tied else 'free'}")
print()

estimate, bound = estimate_tied_probability(cfg)
print(f"P(thinned set dependent): estimated {estimate:.4f}, bound p^(-nu/2) = {bound:.4f}")
print()

print("Certified searches (every subset of size <= floor(K*nu) verified free):")
for p, nu, ell in [(2, 16, 1), (2, 16, 4), (101, 16, 1)]:
    cert = lemma_search(SelectionConfig(p=p, nu=nu, ell=ell, seed=0))
    print(f"  p={p:4d} nu={nu} ell={ell}: |Lambda| = {len(cert.Lambda):3d} in "
          f"[{ell*nu}, {3*ell*nu}], K = {cert.K:.4f} "
          f"(K_ell formula gives {k_ell(p, ell):.4f}), "
          f"checked subset size {cert.checked_subset_size}, mode {cert.mode}, "
          f"re-verified: {cert.verify()}")
