#!/usr/bin/env python3
"""Quasi-independent sets that pack a height-1 mesh as densely as possible.

Builds the doubling-recursion matrices, embeds their columns into Z along a
dissociated integer sequence, and shows that the resulting set meets a
height-1 k-mesh in N_nu >= (1/4) k log2 k points for every k.
"""

import math

from sidonlab import (
    build_matrix,
    embed_theorem1,
    mesh_count,
    n_nu,
    theorem1_witness,
    verify_qi_exhaustive,
    verify_qi_structural,
    witness_counts,
)

print("Column counts of the recursive matrices (2^(nu-1) * (nu+2)):")
print("  nu :", list(range(1, 9)))
print("  N  :", [n_nu(v) for v in range(1, 9)])
print()

print("The 2 x 3 base matrix and the first doubling step:")
print(build_matrix(1).entries)
print()
print(build_matrix(2).entries)
print()

for nu in (1, 2, 3):
    qi, _ = verify_qi_exhaustive(build_matrix(nu).columns_as_points())
    print(f"columns of level {nu}: quasi-independent by exhaustive search = {qi}")
for nu in (4, 6, 8):
    print(f"columns of level {nu}: quasi-independent by structural recursion = "
          f"{verify_qi_structural(build_matrix(nu))}")
print()

NU_MAX = 5
construction = embed_theorem1(NU_MAX)
print(f"Embedded set with blocks 1..{NU_MAX}: {len(construction.lambda_ints)} integers;")
print(f"largest beta has {len(str(construction.basis.betas[-1]))} digits.")
print()

print(" k   mesh-count   (1/4) k log2 k   margin")
counts = witness_counts(construction, range(2, 2 ** (NU_MAX + 1)))
for k in (2, 3, 4, 7, 8, 15, 16, 31, 32, 63):
    bound = 0.25 * k * math.log2(k)
    print(f"{k:3d}   {counts[k]:6d}      {bound:8.2f}      {counts[k] - bound:8.2f}")

print()
mesh, claimed = theorem1_witness(10, construction)
recount = mesh_count(construction.lambda_ints, mesh)
print(f"k = 10 witness mesh recounted through the mesh engine: {recount} "
      f"(claimed {claimed})")
