#!/usr/bin/env python3
"""Mesh basics: members, exact intersection counts, and bound functions.

A mesh is the set of bounded integer combinations of a basis.  Counting
|Lambda ∩ M| runs through plain enumeration, a greedy digit route for
super-increasing integer bases, or a vectorized route for F_p bases; all
three agree exactly wherever they overlap.
"""

from sidonlab import (
    BoundSpec,
    Box,
    DoubleLog,
    ExplicitList,
    FpVector,
    Mesh,
    check_mesh_condition,
    mesh_count,
    mesh_members,
    sidon_mesh_bound,
)

m = Mesh((1, 2), Box(1))
print("basis {1, 2}, height 1:", sorted(mesh_members(m)),
      "(9 combinations collapse to 7 values)")

m = Mesh((1, 10, 200), Box(2))
lam = [0, 1, 12, 21, 222, 199, 500, -19]
print("count via digits:     ", mesh_count(lam, m))  # super-increasing basis
print("count via enumeration:", mesh_count(lam, m, method="enumerate"))

fp_basis = (FpVector(5, (1, 0, 2)), FpVector(5, (0, 1, 1)))
fp_lam = [FpVector(5, (2, 0, 4)), FpVector(5, (1, 1, 3)), FpVector(5, (4, 4, 4))]
fp_mesh = Mesh(fp_basis, Box(2))
print("F_5 mesh, vectorized: ", mesh_count(fp_lam, fp_mesh),
      " enumeration:", mesh_count(fp_lam, fp_mesh, method="enumerate"))
print()

print("bound functions:")
print(f"  C k log(1 + sup_l1) at k=4, sup=4, C=1: {sidon_mesh_bound(4, 4, 1.0):.3f}")
w = DoubleLog(1.0)
up = BoundSpec("k_w_k", w=w)
low = BoundSpec("lower_quarter_k_log2_k")
meshes = [Mesh((3, 50), Box(2)), Mesh((1,), ExplicitList(((0,), (1,))))]
# {3, 50, 53} is dense in the first mesh on purpose: three members on a
# rank-2 mesh violate the slow-growth upper bound and the report says so.
for r in check_mesh_condition([3, 50, 53], meshes, up):
    print(f"  upper check: k={r.k} count={r.count} bound={r.bound:.2f} passed={r.passed}")
for r in check_mesh_condition([3, 50, 53], meshes, low):
    print(f"  lower check: k={r.k} count={r.count} bound={r.bound:.2f} passed={r.passed}")
print()
print(f"a height-h box on k generators has sup_l1 = k*h: "
      f"{Mesh((1, 7, 9), Box(2)).sup_l1()} for k=3, h=2")
