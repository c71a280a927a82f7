"""Meshes: finite sets of bounded integer combinations of a basis.

A mesh on basis (g_1, ..., g_k) with coefficient domain E is the set
{ sum n_j g_j : (n_j) in E }.  The domain is either an explicit coefficient
list or the height-h box |n_j| <= h.  The module enumerates members, counts
|Lambda ∩ M| exactly, and evaluates the bound functions used by the mesh
condition checks.

Counting routes (all exact):

* generic enumeration of the member set (capped);
* a digit route for one-dimensional super-increasing integer bases, where
  membership is decided by ``greedy_digits`` without enumeration, scanning
  only the integers of Lambda within reach of the mesh (the same kernel
  expands points over ``construction.DissociatedBasis``);
* a keyed route for every other integer basis: the members' ``core.row_keys``
  keys are broadcast ``add_keys`` of the terms' keys;
* a vectorized route for F_p vector bases: the domain is reduced mod p first
  (a height-h box becomes min(2h+1, p)^k residue rows), the members are one
  matrix product mod p.
Both keep, by ``core.key_hits``, the members whose key Lambda (keyed and sorted
once) has and the points of Lambda whose key such a member has, then confirm them
by ``core.first_matches`` (on ``exact_rows`` for integers, as ``count_distinct_sums`` does).
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .core import KEY_MOD, ConfigError, FpVector, LatticePoint, ResourceCapError, add_keys
from .core import exact_rows, first_matches, key_hits, row_keys

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
    "greedy_digits",
    "sidon_mesh_bound",
    "check_mesh_condition",
    "random_meshes",
]

ENUM_CAP = 10**7  # desk limit on enumerated members; read when a call has no cap
_CONFIRM_CHUNK = 2**14  # shared rows whose exact rows count_distinct_sums writes at once


class MeshResourceError(ResourceCapError):
    """Domain too large to enumerate and no fast path applies."""


@dataclass(frozen=True)
class Box:
    """All coefficient vectors with |n_j| <= height."""

    height: int

    def __post_init__(self):
        object.__setattr__(self, "height", operator.index(self.height))
        if self.height < 0:
            raise ValueError("height must be >= 0")


@dataclass(frozen=True)
class ExplicitList:
    """A finite, deduplicated list of coefficient vectors."""

    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(dict.fromkeys(tuple(map(operator.index, row)) for row in self.coeffs))
        if not rows:
            raise ValueError("ExplicitList needs at least one coefficient vector")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("coefficient vectors must share a common length")
        object.__setattr__(self, "coeffs", rows)


Domain = Union[Box, ExplicitList]


@dataclass(frozen=True)
class Mesh:
    """A basis plus a coefficient domain.

    A point of Z in the basis, an integer of any type (numpy's included) or
    a LatticePoint of dimension <= 1, is stored as an int.  F_p vectors form
    a basis only with each other and of one (p, nu), else ValueError.
    """

    basis: tuple
    domain: Domain

    def __post_init__(self):
        basis = tuple(map(_as_z, self.basis))
        if len(basis) < 1:
            raise ValueError("a mesh needs at least one basis element")
        fp = {(b.p, b.nu) if isinstance(b, FpVector) else None for b in basis}
        if len(fp) > 1 and any(fp):
            raise ValueError("F_p vectors of one (p, nu) form a basis only with each other")
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


def _as_z(v):
    """A point of Z (an integer of any type, or a LatticePoint of dimension
    <= 1) as an int; any other point as it is."""
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, LatticePoint) and v.dim <= 1:
        return v.coords[0] if v.coords else 0
    return v


def _is_int_basis(mesh: Mesh) -> bool:
    return all(isinstance(b, int) for b in mesh.basis)


def check_enum_cap(size: int, cap: Optional[int] = None) -> None:
    """MeshResourceError when an enumeration of `size` rows passes cap
    (ENUM_CAP when None)."""
    cap = ENUM_CAP if cap is None else cap
    if size > cap:
        raise MeshResourceError(f"domain of size {size} exceeds the cap {cap}")


def mesh_members(mesh: Mesh, cap: Optional[int] = None) -> set:
    """The set of all sums over the domain (duplicates collapse), by a plain
    set loop (the oracle route); a member in Z is an int.

    A basis of ints is summed as ints, any other basis as its own elements,
    its ints as LatticePoints.
    """
    check_enum_cap(mesh.domain_size(), cap)
    ints = _is_int_basis(mesh)
    basis = [LatticePoint((b,)) if isinstance(b, int) and not ints else b for b in mesh.basis]
    zero = basis[0] - basis[0]
    if isinstance(mesh.domain, Box):
        h = mesh.domain.height
        values = {zero}
        for b in basis:
            scaled = [n * b for n in range(-h, h + 1)]
            values = {v + s for v in values for s in scaled}
    else:
        values = set()
        for row in mesh.domain.coeffs:
            acc = zero
            for n, b in zip(row, basis):
                if n:
                    acc = acc + n * b
            values.add(acc)
    return values if ints else set(map(_as_z, values))


def _digit_bounds(mesh: Mesh) -> Optional[list[tuple[int, int, int]]]:
    """Sorted (beta, bound, position) triples when the digit route applies.

    Requires a one-dimensional basis of distinct positive integers that is
    super-increasing relative to the domain bounds:
    2 * sum_{i<j} bound_i * beta_i < beta_j for every j.  Greedy digit
    extraction from the top is then exact.
    """
    if not _is_int_basis(mesh):
        return None
    betas = mesh.basis
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


def greedy_digits(x: int, betas: Sequence[int], bounds: Sequence[int]) -> Optional[dict[int, int]]:
    """The nonzero digits {i: n_i} of x = sum_i n_i * betas[i] with
    |n_i| <= bounds[i], or None when x has no such expansion.

    The betas ascend and are super-increasing relative to the bounds (see
    super_increasing), so the expansion is unique and greedy digits from the
    top find it: below beta_j every bounded sum is less than beta_j / 2, so
    n_j is x / beta_j rounded.  The betas above 2|x| carry digit 0 and are
    skipped by bisection.
    """
    out = {}
    j = len(betas)
    while x:
        j = bisect_right(betas, 2 * abs(x), 0, j) - 1
        if j < 0:
            return None
        beta = betas[j]
        n = (2 * x + beta) // (2 * beta)
        if abs(n) > bounds[j]:
            return None
        out[j] = n
        x -= n * beta
    return out


def _count_by_digits(
    lambda_ints: Sequence[int], mesh: Mesh, triples: list[tuple[int, int, int]]
) -> int:
    """Count by greedy_digits, scanning only the sorted ints within reach: a
    box holds every expansion found, an explicit list those of its rows."""
    betas, bounds, positions = zip(*triples)
    reach = sum(beta * bound for beta, bound in zip(betas, bounds))  # max |member|
    lo = bisect_left(lambda_ints, -reach)
    hi = bisect_right(lambda_ints, reach, lo)
    found = [d for d in (greedy_digits(x, betas, bounds) for x in lambda_ints[lo:hi])
             if d is not None]
    if isinstance(mesh.domain, Box):
        return len(found)
    rank = {pos: i for i, pos in enumerate(positions)}  # mesh position -> index in betas
    rows = set(mesh.domain.coeffs)
    return sum(tuple(d.get(rank[pos], 0) for pos in range(mesh.k)) in rows for d in found)


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
            terms = row_keys([(n * (b % KEY_MOD),) for n in range(-h, h + 1)])  # key(n b), small
            acc = add_keys(acc[:, None], terms[None, :]).ravel()
        return acc
    acc = np.zeros(len(domain.coeffs), dtype=np.int64)
    for j, b in enumerate(basis):
        acc = add_keys(acc, row_keys([(row[j] * b,) for row in domain.coeffs]))
    return acc


def _coefficient_rows(domain: Domain, k: int, indices: np.ndarray) -> np.ndarray:
    """The domain's coefficient rows at the given indices (domain order), as int64."""
    if isinstance(domain, Box):
        return np.stack(np.unravel_index(indices, (2 * domain.height + 1,) * k), 1) - domain.height
    return np.array([domain.coeffs[i] for i in indices.tolist()], dtype=np.int64).reshape(-1, k)


def count_distinct_sums(basis: Sequence[int], domain: Domain) -> int:
    """|{sum_j n_j * basis[j] : n in domain}| for integers of any size.

    Rows whose keys differ have different sums.  Rows that share a key are
    written by ``core.exact_rows`` in key order, _CONFIRM_CHUNK at a time;
    ``core.first_matches`` keeps those no earlier row equals, carrying on the
    distinct rows of the key a chunk ends in.  The sorted keys and their
    order (8 bytes a row each) are the only large arrays held.
    """
    basis = [operator.index(b) for b in basis]
    keys = _sumset_keys(basis, domain)
    order = np.argsort(keys)
    keys.sort()  # in place: the same values as keys[order]
    starts = np.concatenate(([True], keys[1:] != keys[:-1]))  # the first row of each key
    del keys  # the confirmation below needs only order and starts
    shared = ~(starts & np.append(starts[1:], True))
    distinct = len(order) - int(shared.sum())
    carry = exact_rows(np.zeros((0, len(basis)), dtype=np.int64), basis)
    for start in range(0, len(order), _CONFIRM_CHUNK):
        take = slice(start, start + _CONFIRM_CHUNK)
        coeffs = _coefficient_rows(domain, len(basis), order[take][shared[take]])
        rows = np.concatenate([carry, exact_rows(coeffs, basis)])
        key = np.cumsum(np.concatenate([np.zeros(len(carry), bool), starts[take][shared[take]]]))
        fresh = first_matches(rows, rows[len(carry):]) == np.arange(len(carry), len(rows))
        distinct += int(fresh.sum())
        carry = rows[np.concatenate([np.ones(len(carry), bool), fresh]) & (key == key[-1:])]
    return distinct


def _count_keyed(lam: "_Lambda", mesh: Mesh, cap: Optional[int]) -> int:
    """|Lambda ∩ M| for an integer basis: members whose key Lambda has and the ints of
    Lambda sharing a key with one, in one ``core.exact_rows`` call, joined exactly."""
    check_enum_cap(mesh.domain_size(), cap)
    basis = list(mesh.basis)
    keys = _sumset_keys(basis, mesh.domain)
    hits = np.flatnonzero(key_hits(lam.int_keys, keys))
    if not len(hits):
        return 0
    near = lam.int_order[key_hits(np.sort(keys[hits]), lam.int_keys)]
    rows = exact_rows(_coefficient_rows(mesh.domain, mesh.k, hits),
                      basis + [lam.ints[i] for i in near.tolist()])
    return int((first_matches(rows[: len(hits)], rows[len(hits) :]) >= 0).sum())


def _is_fp_basis(mesh: Mesh) -> bool:
    return isinstance(mesh.basis[0], FpVector)  # then all are, of one (p, nu) (see Mesh)


class _Lambda:
    """Lambda deduplicated and keyed once for every counting route.

    Its points of Z (see _as_z) as a sorted list of ints, deduplicated by
    sorting (a set of ints sharing a residue mod KEY_MOD hashes to a scan),
    and their sorted row keys with the order that sorts them; its other
    points as a deduplicated list; its F_p points, per (p, nu), sorted by
    key.
    """

    def __init__(self, lam: Iterable):
        values, points = [], []
        for v in map(_as_z, lam):
            (values if isinstance(v, int) else points).append(v)
        values.sort()
        self.ints = [x for i, x in enumerate(values) if i == 0 or x != values[i - 1]]
        keys = row_keys([(x,) for x in self.ints])
        self.int_order = np.argsort(keys)
        self.int_keys = keys[self.int_order]
        self.points = list(dict.fromkeys(points))  # |Lambda ∩ M| is a set intersection
        rows: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for v in self.points:
            # larger primes never pass the int64 guard of the vectorized route
            if isinstance(v, FpVector) and (v.p - 1) ** 2 < 2**62:
                rows.setdefault((v.p, v.nu), []).append(v.coords)
        self.fp = {}
        for (p, nu), group in rows.items():
            group = np.array(group, dtype=np.min_scalar_type(p - 1))
            keys = row_keys(group)
            order = np.argsort(keys)
            self.fp[p, nu] = (group[order], keys[order])


def _residue_coeffs(mesh: Mesh, p: int) -> np.ndarray:
    """The coefficient domain reduced mod p: a box's rows once each, an explicit
    list's rows in list order (two may share their residues)."""
    if isinstance(mesh.domain, Box):
        h = mesh.domain.height  # 2h+1 >= p consecutive ints hit every residue
        residues = np.arange(p) if 2 * h + 1 >= p else np.arange(-h, h + 1) % p
        grids = np.meshgrid(*([residues] * mesh.k), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    return np.array([[c % p for c in row] for row in mesh.domain.coeffs], dtype=np.int64)


def _count_fp_vectorized(lam: _Lambda, mesh: Mesh, cap: Optional[int]) -> int:
    """|Lambda ∩ M| for an F_p basis: the members whose key Lambda has are
    joined by ``core.first_matches`` to the rows of Lambda sharing a key with one."""
    check_enum_cap(mesh.domain_size(), cap)
    p = mesh.basis[0].p
    fp = lam.fp.get((p, mesh.basis[0].nu))
    if fp is None:
        return 0
    lam_rows, lam_keys = fp
    basis = np.array([b.coords for b in mesh.basis], dtype=np.int64)
    members = _residue_coeffs(mesh, p) @ basis % p
    keys = row_keys(members)
    hit = key_hits(lam_keys, keys)
    near = key_hits(np.sort(keys[hit]), lam_keys)
    return int((first_matches(members[hit], lam_rows[near]) >= 0).sum())


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
    bases, the keyed route for other integer bases (coefficients with
    sum_j max|n_j| <= 2^30), a vectorized route for F_p bases, and set
    enumeration otherwise; "enumerate" forces plain enumeration (the oracle
    route).  Integers of Lambda count once per
    value, whether given as integers of any type or as points of Z.
    """
    lam = lam if isinstance(lam, _Lambda) else _Lambda(lam)
    if method == "enumerate":
        members = mesh_members(mesh, cap)
        return len(members.intersection(lam.ints)) + len(members.intersection(lam.points))
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    triples = _digit_bounds(mesh)
    if triples is not None:
        return _count_by_digits(lam.ints, mesh, triples)
    if _is_int_basis(mesh) and sum(mesh.coefficient_bounds()) <= 2**30:  # exact_rows' bound
        return _count_keyed(lam, mesh, cap)
    # the F_p route's int64 matmul accumulates k (p-1)^2; huge primes enumerate
    if _is_fp_basis(mesh) and mesh.k * (mesh.basis[0].p - 1) ** 2 < 2**62:
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

    return [one(m) for m in meshes]


def random_meshes(
    pool: Sequence,
    random_element: Callable,
    count: int,
    seed: int,
    k_choices: Sequence[int],
    heights: Sequence[int],
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
