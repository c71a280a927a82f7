"""Meshes: finite sets of bounded integer combinations of a basis.

A mesh on basis (g_1, ..., g_k) with coefficient domain E is the set
{ sum n_j g_j : (n_j) in E }.  The domain is either an explicit coefficient
list or the height-h box |n_j| <= h.  The module enumerates members, counts
|Lambda ∩ M| exactly, and evaluates the bound functions used by the mesh
condition checks.

Counting routes (all exact):

* generic enumeration of the member set (capped);
* a digit route for one-dimensional super-increasing integer bases, where
  membership is decided by greedy digit extraction without enumeration,
  scanning only the integers of Lambda within reach of the mesh;
* a keyed route for every other integer basis: the members' ``core.row_keys``
  keys come from broadcast ``add_keys`` of the terms' keys and are joined to
  Lambda's keys; each match is confirmed by the member's exact sum in Python
  ints, so a key collision is never counted.  ``count_distinct_sums`` uses
  the same keys and computes exact sums only for rows that share a key;
* a vectorized route for F_p vector bases: the coefficient domain is
  reduced mod p first (a height-h box becomes min(2h+1, p)^k residue rows),
  the members are one matrix product mod p, and they are joined on their
  row keys to Lambda's rows, keyed once per (p, nu), rows compared exactly.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .core import ConfigError, FpVector, LatticePoint, ResourceCapError, add_keys, row_keys

__all__ = [
    "Box",
    "ExplicitList",
    "Mesh",
    "MeshReport",
    "BoundSpec",
    "MeshResourceError",
    "mesh_members",
    "mesh_count",
    "count_distinct_sums",
    "check_enum_cap",
    "super_increasing",
    "sidon_mesh_bound",
    "check_mesh_condition",
    "random_meshes",
]

ENUM_CAP = 10**7  # desk limit on enumerated members; read when a call has no cap
_CONFIRM_CHUNK = 2**14  # shared rows whose exact sums count_distinct_sums builds at once


class MeshResourceError(ResourceCapError):
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


def check_enum_cap(size: int, cap: Optional[int] = None) -> None:
    """MeshResourceError when an enumeration of `size` rows passes cap
    (ENUM_CAP when None)."""
    cap = ENUM_CAP if cap is None else cap
    if size > cap:
        raise MeshResourceError(f"domain of size {size} exceeds the cap {cap}")


def _members(mesh: Mesh, cap: Optional[int]) -> set:
    """Every sum over the domain, by a plain set loop (the oracle route).

    A basis of points of Z is summed as plain ints, any other basis as its
    own elements.
    """
    check_enum_cap(mesh.domain_size(), cap)
    if _is_int_basis(mesh):
        basis = [b.as_int() for b in mesh.basis]
    else:
        basis = list(mesh.basis)
    zero = basis[0] - basis[0]
    if isinstance(mesh.domain, Box):
        h = mesh.domain.height
        values = {zero}
        for b in basis:
            scaled = [n * b for n in range(-h, h + 1)]
            values = {v + s for v in values for s in scaled}
        return values
    out = set()
    for row in mesh.domain.coeffs:
        acc = zero
        for n, b in zip(row, basis):
            if n:
                acc = acc + n * b
        out.add(acc)
    return out


def mesh_members(mesh: Mesh, cap: Optional[int] = None) -> set:
    """The set of all sums over the domain (duplicates collapse)."""
    members = _members(mesh, cap)
    if _is_int_basis(mesh):
        return {LatticePoint.from_int(v) for v in members}
    return members


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
    triples = sorted(zip(betas, bounds, range(len(betas))))
    return triples if super_increasing((b, n) for b, n, _ in triples) else None


def super_increasing(pairs: Iterable[tuple[int, int]]) -> bool:
    """Each beta exceeds 2 * sum bound_i * beta_i over the (beta, bound) pairs
    before it, so greedy digits decide every sum n_i beta_i, |n_i| <= bound_i."""
    weight = 0
    for beta, bound in pairs:
        if 2 * weight >= beta:
            return False
        weight += bound * beta
    return True


def _count_by_digits(
    lambda_ints: Sequence[int], mesh: Mesh, triples: list[tuple[int, int, int]]
) -> int:
    """Count by greedy digits, scanning only the sorted ints within reach."""
    reach = sum(beta * bound for beta, bound, _ in triples)  # max |member|
    lo = bisect_left(lambda_ints, -reach)
    hi = bisect_right(lambda_ints, reach, lo)
    explicit = (
        set(mesh.domain.coeffs) if isinstance(mesh.domain, ExplicitList) else None
    )
    count = 0
    for x in lambda_ints[lo:hi]:
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


def _sumset_keys(basis: Sequence[int], domain: Domain) -> np.ndarray:
    """The row key of sum_j n_j * basis[j] for every coefficient row.

    Rows come in domain order: C order over (n_1 + h, ..., n_k + h) for a
    box of height h, list order for an explicit list.  The key is linear, so
    the keys of the terms n_j * basis[j] are added with ``add_keys``.
    """
    if isinstance(domain, Box):
        h = domain.height
        acc = np.zeros(1, dtype=np.int64)
        for b in basis:
            terms = row_keys([(n * b,) for n in range(-h, h + 1)])
            acc = add_keys(acc[:, None], terms[None, :]).ravel()
        return acc
    acc = np.zeros(len(domain.coeffs), dtype=np.int64)
    for j, b in enumerate(basis):
        acc = add_keys(acc, row_keys([(row[j] * b,) for row in domain.coeffs]))
    return acc


def _exact_sums(basis: Sequence[int], domain: Domain, rows: np.ndarray) -> list[int]:
    """The exact sums, as Python ints, of the domain rows at the given indices."""
    if isinstance(domain, Box):
        h = domain.height
        sums = [0] * len(rows)
        for b in reversed(basis):  # C order: the last coefficient varies fastest
            rows, digit = np.divmod(rows, 2 * h + 1)
            sums = [s + (d - h) * b for s, d in zip(sums, digit.tolist())]
        return sums
    coeffs = [domain.coeffs[i] for i in rows.tolist()]
    return [sum(n * b for n, b in zip(row, basis)) for row in coeffs]


def count_distinct_sums(basis: Sequence[int], domain: Domain) -> int:
    """|{sum_j n_j * basis[j] : n in domain}| for integers of any size.

    Rows whose keys differ have different sums; exact sums are computed only
    for rows that share a key with another row, _CONFIRM_CHUNK rows at a
    time into one set.  The keys, sorted in place, and their sort order
    (8 bytes a row each) are the only large arrays held.
    """
    basis = [operator.index(b) for b in basis]
    keys = _sumset_keys(basis, domain)
    order = np.argsort(keys)
    keys.sort()  # in place: the same values as keys[order]
    shared = np.zeros(len(keys), dtype=bool)
    same = keys[1:] == keys[:-1]
    shared[1:] |= same
    shared[:-1] |= same
    del keys, same  # the confirmation below needs only order and shared
    sums: set[int] = set()
    for start in range(0, len(order), _CONFIRM_CHUNK):
        rows = order[start : start + _CONFIRM_CHUNK][shared[start : start + _CONFIRM_CHUNK]]
        sums.update(_exact_sums(basis, domain, rows))
    return len(order) - int(shared.sum()) + len(sums)


def _count_keyed(lam: "_Lambda", mesh: Mesh, cap: Optional[int]) -> int:
    """|Lambda ∩ M| for an integer basis by a key join, hits confirmed.

    A member can equal a point of Lambda only if their keys match; each
    matched member's exact sum is then looked up in Lambda, so a key
    collision is rejected, never counted.
    """
    check_enum_cap(mesh.domain_size(), cap)
    if not lam.ints:
        return 0
    basis = [b.as_int() for b in mesh.basis]
    keys = _sumset_keys(basis, mesh.domain)
    hits = np.flatnonzero(np.isin(keys, lam.int_keys))
    return len(lam.int_set.intersection(_exact_sums(basis, mesh.domain, hits)))


def _is_fp_basis(mesh: Mesh) -> bool:
    if not all(isinstance(b, FpVector) for b in mesh.basis):
        return False
    p = mesh.basis[0].p
    nu = mesh.basis[0].nu
    return all(b.p == p and b.nu == nu for b in mesh.basis)


class _Lambda:
    """Lambda deduplicated and keyed once for every counting route.

    Its integers (plain ints and points of Z) are kept as a set, a sorted
    list and the row keys; its F_p points, per (p, nu), as a row array
    sorted by row key, with the sorted keys.
    """

    def __init__(self, lam: Iterable):
        self.points = list(dict.fromkeys(lam))  # |Lambda ∩ M| is a set intersection
        ints = set()
        rows: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for v in self.points:
            if isinstance(v, FpVector):
                # larger primes never pass the int64 guard of the vectorized route
                if (v.p - 1) ** 2 < 2**62:
                    rows.setdefault((v.p, v.nu), []).append(v.coords)
            elif isinstance(v, int):
                ints.add(v)
            elif isinstance(v, LatticePoint) and v.dim <= 1:
                ints.add(v.as_int())
        self.int_set, self.ints = ints, sorted(ints)
        self.int_keys = row_keys([(x,) for x in ints])
        self.fp = {}
        for (p, nu), group in rows.items():
            group = np.array(group, dtype=np.min_scalar_type(p - 1))
            keys = row_keys(group)
            order = np.argsort(keys)
            self.fp[p, nu] = (group[order], keys[order])


def _residue_coeffs(mesh: Mesh, p: int) -> np.ndarray:
    """The coefficient domain reduced mod p, without repeated rows."""
    if isinstance(mesh.domain, Box):
        h = min(mesh.domain.height, p // 2)  # 2h+1 >= p consecutive ints hit every residue
        residues = np.unique(np.arange(-h, h + 1) % p)
        grids = np.meshgrid(*([residues] * mesh.k), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    rows = [[c % p for c in row] for row in mesh.domain.coeffs]
    return np.unique(np.array(rows, dtype=np.int64), axis=0)


def _count_fp_vectorized(lam: _Lambda, mesh: Mesh, cap: Optional[int]) -> int:
    """|Lambda ∩ M| for an F_p basis by a row-key join: a member whose key is
    in Lambda's sorted keys counts only where the rows are equal."""
    check_enum_cap(mesh.domain_size(), cap)
    p = mesh.basis[0].p
    fp = lam.fp.get((p, mesh.basis[0].nu))
    if fp is None:
        return 0
    lam_rows, lam_keys = fp
    basis = np.array([b.coords for b in mesh.basis], dtype=np.int64)
    members = _residue_coeffs(mesh, p) @ basis % p
    keys = row_keys(members)
    lo, hi = np.searchsorted(lam_keys, keys), np.searchsorted(lam_keys, keys, side="right")
    found = {j for i in np.flatnonzero(lo < hi).tolist() for j in range(lo[i], hi[i])
             if np.array_equal(lam_rows[j], members[i])}
    return len(found)


def mesh_count(
    lam: Iterable,
    mesh: Mesh,
    cap: Optional[int] = None,
    method: str = "auto",
) -> int:
    """|Lambda ∩ M| exactly.

    Domains of more than cap members (ENUM_CAP when None) raise
    MeshResourceError unless the digit route applies.

    method: "auto" picks the digit route for super-increasing integer
    bases, the keyed route for other integer bases, a vectorized route for
    F_p bases, and set enumeration otherwise; "enumerate" forces plain
    enumeration (the oracle route); "digits" forces the digit route (error
    when inapplicable).  Integers of Lambda count once per value, whether
    given as ints or as points of Z.
    """
    lam = lam if isinstance(lam, _Lambda) else _Lambda(lam)
    if method == "enumerate":
        members = _members(mesh, cap)
        if _is_int_basis(mesh):
            return sum(1 for x in lam.ints if x in members)
        return len(members.intersection(lam.points))
    if method not in ("auto", "digits"):
        raise ValueError(f"unknown method {method!r}")
    triples = _digit_bounds(mesh)
    if triples is not None:
        return _count_by_digits(lam.ints, mesh, triples)
    if method == "digits":
        raise ValueError("digit route does not apply to this mesh")
    if _is_int_basis(mesh):
        return _count_keyed(lam, mesh, cap)
    if _is_fp_basis(mesh):
        p, k = mesh.basis[0].p, mesh.k
        # int64 matmul accumulates k*(p-1)^2; huge primes take the slow path
        if k * (p - 1) ** 2 < 2**62:
            return _count_fp_vectorized(lam, mesh, cap)
    return mesh_count(lam, mesh, cap, method="enumerate")


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


# the parameter each bound kind reads (None: it reads none)
_BOUND_PARAMETER = {
    "k_w_k": "w",
    "k_w_kh": "w",
    "sidon_log": "C",
    "lower_quarter_k_log2_k": None,
}


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

    def __post_init__(self):
        if self.kind not in _BOUND_PARAMETER:
            raise ConfigError(f"unknown bound kind {self.kind!r}")
        needed = _BOUND_PARAMETER[self.kind]
        if needed is not None and getattr(self, needed) is None:
            raise ConfigError(f"bound kind {self.kind!r} needs {needed!r}")

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
        return asdict(self)


def check_mesh_condition(
    lam: Iterable,
    meshes: Sequence[Mesh],
    bound: BoundSpec,
    cap: Optional[int] = None,
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
) -> list[Mesh]:
    """Seeded random height-h box meshes for condition sampling.

    Basis elements are drawn from the given pool with probability 0.6,
    otherwise from random_element(rng).
    """
    from .rng import stream

    rng = stream(seed, 0x4D45)
    meshes = []
    for _ in range(count):
        k = int(rng.choice(list(k_choices)))
        h = int(rng.choice(list(heights)))
        basis = []
        for _ in range(k):
            if pool and rng.random() < 0.6:
                basis.append(pool[int(rng.integers(len(pool)))])
            else:
                basis.append(random_element(rng))
        meshes.append(Mesh(tuple(basis), Box(h)))
    return meshes
