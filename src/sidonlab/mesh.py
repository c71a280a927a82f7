"""Meshes: finite sets of bounded integer combinations of a basis.

A mesh on basis (g_1, ..., g_k) with coefficient domain E is the set
{ sum n_j g_j : (n_j) in E }.  The domain is either an explicit coefficient
list or the height-h box |n_j| <= h.  The module enumerates members, counts
|Lambda ∩ M| exactly, and evaluates the bound functions used by the mesh
condition checks.

Counting routes (all exact):

* generic enumeration of the member set (capped);
* a digit route for one-dimensional super-increasing integer bases, where
  membership is decided by greedy digit extraction without enumeration;
* a vectorized route for F_p vector bases: the coefficient domain is
  reduced mod p first (a height-h box becomes min(2h+1, p)^k residue rows),
  the members are one matrix product mod p, and the count is an exact join
  on whole-row keys against Lambda, encoded once per (p, nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .core import FpVector, LatticePoint

__all__ = [
    "Box",
    "ExplicitList",
    "Mesh",
    "MeshReport",
    "BoundSpec",
    "MeshResourceError",
    "mesh_members",
    "mesh_count",
    "sidon_mesh_bound",
    "check_mesh_condition",
    "random_meshes",
]

ENUM_CAP_DEFAULT = 10**7


class MeshResourceError(RuntimeError):
    """Domain too large to enumerate and no fast path applies."""


@dataclass(frozen=True)
class Box:
    """All coefficient vectors with |n_j| <= height."""

    height: int

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("height must be >= 0")


@dataclass(frozen=True)
class ExplicitList:
    """A finite, deduplicated list of coefficient vectors."""

    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(dict.fromkeys(tuple(int(c) for c in row) for row in self.coeffs))
        if not rows:
            raise ValueError("ExplicitList needs at least one coefficient vector")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("coefficient vectors must share a common length")
        object.__setattr__(self, "coeffs", rows)


Domain = Union[Box, ExplicitList]


@dataclass(frozen=True)
class Mesh:
    """A basis plus a coefficient domain."""

    basis: tuple
    domain: Domain

    def __post_init__(self):
        basis = tuple(self.basis)
        if len(basis) < 1:
            raise ValueError("a mesh needs at least one basis element")
        if isinstance(self.domain, ExplicitList):
            if len(self.domain.coeffs[0]) != len(basis):
                raise ValueError("coefficient width must match the basis size")
        object.__setattr__(self, "basis", basis)

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def height(self) -> Optional[int]:
        """Box height, or the max |coefficient| for an explicit domain."""
        if isinstance(self.domain, Box):
            return self.domain.height
        return max(abs(c) for row in self.domain.coeffs for c in row)

    def domain_size(self) -> int:
        if isinstance(self.domain, Box):
            return (2 * self.domain.height + 1) ** self.k
        return len(self.domain.coeffs)

    def coefficient_bounds(self) -> tuple[int, ...]:
        """Per-coordinate bound on |n_j| over the domain."""
        if isinstance(self.domain, Box):
            return (self.domain.height,) * self.k
        cols = zip(*self.domain.coeffs)
        return tuple(max(abs(c) for c in col) for col in cols)

    def sup_l1(self) -> int:
        """sup over the domain of |n_1| + ... + |n_k|."""
        if isinstance(self.domain, Box):
            return self.k * self.domain.height
        return max(sum(abs(c) for c in row) for row in self.domain.coeffs)


# ---------------------------------------------------------------------------
# membership / counting
# ---------------------------------------------------------------------------


def _is_int_basis(mesh: Mesh) -> bool:
    return all(isinstance(b, LatticePoint) and b.dim <= 1 for b in mesh.basis)


def _members_ints(mesh: Mesh, cap: int) -> set[int]:
    if mesh.domain_size() > cap:
        raise MeshResourceError(
            f"domain of size {mesh.domain_size()} exceeds the cap {cap}"
        )
    basis = [b.as_int() for b in mesh.basis]
    if isinstance(mesh.domain, Box):
        h = mesh.domain.height
        values = {0}
        for b in basis:
            scaled = [n * b for n in range(-h, h + 1)]
            values = {v + s for v in values for s in scaled}
        return values
    return {sum(n * b for n, b in zip(row, basis)) for row in mesh.domain.coeffs}


def _members_generic(mesh: Mesh, cap: int) -> set:
    if mesh.domain_size() > cap:
        raise MeshResourceError(
            f"domain of size {mesh.domain_size()} exceeds the cap {cap}"
        )
    zero = mesh.basis[0] - mesh.basis[0]
    if isinstance(mesh.domain, Box):
        h = mesh.domain.height
        values = {zero}
        for b in mesh.basis:
            scaled = [n * b for n in range(-h, h + 1)]
            values = {v + s for v in values for s in scaled}
        return values
    out = set()
    for row in mesh.domain.coeffs:
        acc = zero
        for n, b in zip(row, mesh.basis):
            if n:
                acc = acc + n * b
        out.add(acc)
    return out


def mesh_members(mesh: Mesh, cap: int = ENUM_CAP_DEFAULT) -> set:
    """The set of all sums over the domain (duplicates collapse)."""
    if _is_int_basis(mesh):
        return {LatticePoint.from_int(v) for v in _members_ints(mesh, cap)}
    return _members_generic(mesh, cap)


def _digit_bounds(mesh: Mesh) -> Optional[list[tuple[int, int, int]]]:
    """Sorted (beta, bound, position) triples when the digit route applies.

    Requires a one-dimensional basis of distinct positive integers that is
    super-increasing relative to the domain bounds:
    2 * sum_{i<j} bound_i * beta_i < beta_j for every j.  Greedy digit
    extraction from the top is then exact.
    """
    if not _is_int_basis(mesh):
        return None
    betas = [b.as_int() for b in mesh.basis]
    bounds = mesh.coefficient_bounds()
    if any(b <= 0 for b in betas) or len(set(betas)) != len(betas):
        return None
    order = sorted(range(len(betas)), key=lambda i: betas[i])
    weight = 0
    triples = []
    for pos in order:
        beta, bound = betas[pos], bounds[pos]
        if 2 * weight >= beta:
            return None
        triples.append((beta, bound, pos))
        weight += bound * beta
    return triples


def _count_by_digits(lambda_ints: Iterable[int], mesh: Mesh) -> int:
    triples = _digit_bounds(mesh)
    assert triples is not None
    explicit = (
        set(mesh.domain.coeffs) if isinstance(mesh.domain, ExplicitList) else None
    )
    count = 0
    for x in lambda_ints:
        coeffs = [0] * mesh.k
        ok = True
        for beta, bound, pos in reversed(triples):
            n = (2 * x + beta) // (2 * beta)
            if abs(n) > bound:
                ok = False
                break
            coeffs[pos] = n
            x -= n * beta
        if ok and x == 0:
            if explicit is None or tuple(coeffs) in explicit:
                count += 1
    return count


def _is_fp_basis(mesh: Mesh) -> bool:
    if not all(isinstance(b, FpVector) for b in mesh.basis):
        return False
    p = mesh.basis[0].p
    nu = mesh.basis[0].nu
    return all(b.p == p and b.nu == nu for b in mesh.basis)


class _Lambda:
    """Lambda deduplicated once, with its F_p points encoded once per (p, nu)."""

    def __init__(self, lam: Iterable):
        self.points = list(dict.fromkeys(lam))  # |Lambda ∩ M| is a set intersection
        rows: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for v in self.points:
            # larger primes never pass the int64 guard of the vectorized route
            if isinstance(v, FpVector) and (v.p - 1) ** 2 < 2**62:
                rows.setdefault((v.p, v.nu), []).append(v.coords)
        # row keys of the points that are FpVectors in (Z/pZ)^nu, by (p, nu)
        self.fp_keys = {
            key: _row_keys(np.array(group, dtype=np.int64), key[0])
            for key, group in rows.items()
        }


def _row_keys(rows: np.ndarray, p: int) -> np.ndarray:
    """One opaque key per row of residues in [0, p): equal keys iff equal rows."""
    rows = np.ascontiguousarray(rows, dtype=np.min_scalar_type(p - 1))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _residue_coeffs(mesh: Mesh, p: int) -> np.ndarray:
    """The coefficient domain reduced mod p, without repeated rows."""
    if isinstance(mesh.domain, Box):
        h = min(mesh.domain.height, p // 2)  # 2h+1 >= p consecutive ints hit every residue
        residues = np.unique(np.arange(-h, h + 1) % p)
        grids = np.meshgrid(*([residues] * mesh.k), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    rows = [[c % p for c in row] for row in mesh.domain.coeffs]
    return np.unique(np.array(rows, dtype=np.int64), axis=0)


def _count_fp_vectorized(lam: _Lambda, mesh: Mesh, cap: int) -> int:
    if mesh.domain_size() > cap:
        raise MeshResourceError(
            f"domain of size {mesh.domain_size()} exceeds the cap {cap}"
        )
    p = mesh.basis[0].p
    lam_keys = lam.fp_keys.get((p, mesh.basis[0].nu))
    if lam_keys is None:
        return 0
    basis = np.array([b.coords for b in mesh.basis], dtype=np.int64)
    members = _residue_coeffs(mesh, p) @ basis % p
    return int(np.isin(lam_keys, _row_keys(members, p)).sum())


def mesh_count(
    lam: Iterable,
    mesh: Mesh,
    cap: int = ENUM_CAP_DEFAULT,
    method: str = "auto",
) -> int:
    """|Lambda ∩ M| exactly.

    method: "auto" picks the digit route for super-increasing integer
    bases, a vectorized route for F_p bases, and set enumeration otherwise;
    "enumerate" forces plain enumeration (the oracle route); "digits"
    forces the digit route (error when inapplicable).
    """
    pts = lam if isinstance(lam, _Lambda) else _Lambda(lam)
    lam = pts.points
    if method == "enumerate":
        members = mesh_members(mesh, cap) if not _is_int_basis(mesh) else None
        if members is None:
            ints = _members_ints(mesh, cap)
            return sum(1 for x in set(lam) if _as_opt_int(x) in ints)
        return len(set(lam) & members)
    if method == "digits" or (method == "auto" and _digit_bounds(mesh) is not None):
        if _digit_bounds(mesh) is None:
            raise ValueError("digit route does not apply to this mesh")
        ints = {_as_opt_int(x) for x in lam}
        ints.discard(None)
        return _count_by_digits(ints, mesh)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if _is_fp_basis(mesh):
        p, k = mesh.basis[0].p, mesh.k
        # int64 matmul accumulates k*(p-1)^2; huge primes take the slow path
        if k * (p - 1) ** 2 < 2**62:
            return _count_fp_vectorized(pts, mesh, cap)
    return mesh_count(pts, mesh, cap, method="enumerate")


def _as_opt_int(x) -> Optional[int]:
    if isinstance(x, LatticePoint):
        return x.as_int() if x.dim <= 1 else None
    if isinstance(x, int):
        return x
    return None


# ---------------------------------------------------------------------------
# bound functions and reports
# ---------------------------------------------------------------------------


def sidon_mesh_bound(k: int, sup_l1: int, C: float) -> float:
    """C * k * log(1 + sup_l1), natural log."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if sup_l1 < 0:
        raise ValueError("sup_l1 must be >= 0")
    return C * k * math.log1p(sup_l1)


@dataclass(frozen=True)
class BoundSpec:
    """A mesh-count bound: which function, with which parameters.

    kinds:
      "k_w_k"      -- upper bound k * w(k)
      "k_w_kh"     -- upper bound k * w(k * h)
      "sidon_log"  -- upper bound C * k * log(1 + sup_l1)
      "lower_quarter_k_log2_k" -- lower bound (1/4) k log2 k
    """

    kind: str
    w: Optional[Callable[[float], float]] = None
    C: Optional[float] = None

    def evaluate(self, mesh: Mesh) -> tuple[float, str]:
        k = mesh.k
        if self.kind == "k_w_k":
            return k * self.w(k), "upper"
        if self.kind == "k_w_kh":
            return k * self.w(k * max(1, mesh.height)), "upper"
        if self.kind == "sidon_log":
            return sidon_mesh_bound(k, mesh.sup_l1(), self.C), "upper"
        if self.kind == "lower_quarter_k_log2_k":
            return 0.25 * k * math.log2(k) if k >= 2 else 0.0, "lower"
        raise ValueError(f"unknown bound kind {self.kind!r}")


@dataclass(frozen=True)
class MeshReport:
    """Count versus bound for one mesh."""

    k: int
    height: Optional[int]
    domain_size: int
    count: int
    bound: float
    direction: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "height": self.height,
            "domain_size": self.domain_size,
            "count": self.count,
            "bound": self.bound,
            "direction": self.direction,
            "passed": self.passed,
        }


def check_mesh_condition(
    lam: Iterable,
    meshes: Sequence[Mesh],
    bound: BoundSpec,
    cap: int = ENUM_CAP_DEFAULT,
    parallelism=None,
) -> list[MeshReport]:
    """One report per mesh; pass means count <= bound (or >= for lower bounds)."""
    lam = _Lambda(lam)

    def one(mesh: Mesh) -> MeshReport:
        count = mesh_count(lam, mesh, cap)
        value, direction = bound.evaluate(mesh)
        passed = count <= value if direction == "upper" else count >= value
        return MeshReport(
            k=mesh.k,
            height=mesh.height if isinstance(mesh.domain, Box) else None,
            domain_size=mesh.domain_size(),
            count=count,
            bound=value,
            direction=direction,
            passed=passed,
        )

    if parallelism is not None:
        return list(parallelism.map(one, meshes))
    return [one(m) for m in meshes]


def random_meshes(
    pool: Sequence,
    random_element: Callable,
    count: int,
    seed: int,
    k_choices: Sequence[int] = (1, 2, 3, 4, 5, 6),
    heights: Sequence[int] = (1, 2, 3),
    pool_fraction: float = 0.6,
) -> list[Mesh]:
    """Seeded random height-h box meshes for condition sampling.

    Basis elements are drawn from the given pool with probability
    pool_fraction, otherwise from random_element(rng).
    """
    from .rng import stream

    rng = stream(seed, 0x4D45)
    meshes = []
    for _ in range(count):
        k = int(rng.choice(list(k_choices)))
        h = int(rng.choice(list(heights)))
        basis = []
        for _ in range(k):
            if pool and rng.random() < pool_fraction:
                basis.append(pool[int(rng.integers(len(pool)))])
            else:
                basis.append(random_element(rng))
        meshes.append(Mesh(tuple(basis), Box(h)))
    return meshes
