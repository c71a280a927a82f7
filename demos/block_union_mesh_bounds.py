#!/usr/bin/env python3
"""A block union in (Z/pZ)^N whose intersection/rank ratios are unbounded
while every sampled mesh stays below k * w(k).

Each coordinate block carries a certified selection of size >= ell times its
rank; the union therefore cannot satisfy a bounded subgroup-intersection
ratio, yet the sampled mesh condition survives with margin.
"""

from sidonlab import DoubleLog, build_theorem2_prefix, pisier_ratio, theorem2_mesh_reports

bc = build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=6, seed=0, nu_cap=24)

print(f"p = {bc.p}; blocks ell = 2..6 in disjoint coordinate ranges "
      f"(total dimension {bc.total_dim})")
print()
print(" ell   nu   |Lambda_ell|   ratio |Lambda_ell|/nu   cap bound?")
for b in bc.blocks:
    ratio = pisier_ratio(bc, b.ell)
    print(f"  {b.ell}    {b.nu}       {b.size:4d}          {float(ratio):6.2f}"
          f"            {b.cap_bound}")
print()
print("The ratios exceed ell and keep growing with ell, while any set whose")
print("mesh counts admit a bounded subgroup ratio would have to stop growing.")
print()

reports = theorem2_mesh_reports(
    bc, count=300, seed=0, k_choices=(1, 2, 3, 4, 5, 6), heights=(1, 2)
)
violations = [r for r in reports if not r.passed]
worst = min(r.bound - r.count for r in reports)
print(f"sampled meshes: {len(reports)}, violations of count <= k*w(k): {len(violations)}")
print(f"smallest margin bound - count over the sample: {worst:.3f}")
by_k = {}
for r in reports:
    by_k.setdefault(r.k, []).append(r.count)
print("max count by mesh rank:", {k: max(v) for k, v in sorted(by_k.items())})
