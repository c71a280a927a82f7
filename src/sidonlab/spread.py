"""Copies of (Z/pZ)^nu spread along Z by a rapidly growing integer basis.

The integers beta_i grow fast enough that every combination
sum m_i beta_i with |m_i| <= (q(i)-1)/2 is distinct, where
q(i) = 2 * nu_j * ((p_j - 1)/2)^2 + 1 on the indices of block j.  Block j
maps a certified selection in (Z/p_jZ)^{nu_j} onto the integers spanned by
its betas; the union obeys the mesh bound k * w(kh) while no tail of it is
close to independent.

The prime/size/density schedule (p_j fast, nu_j slow, ell_j very slow) must
satisfy a handful of inequalities on the declared (h, k) test grid; the
build refuses schedules that fail one, naming the condition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import ConfigError, FpVector, fp_rank, next_prime
from .growth import GrowthFunction
from .mesh import (
    BoundSpec,
    Box,
    MeshReport,
    check_enum_cap,
    check_mesh_condition,
    count_distinct_sums,
    random_meshes,
    super_increasing,
)
from .selection import LemmaCertificate, SelectionConfig, lemma_search

__all__ = [
    "ScheduleError",
    "Schedule",
    "SpreadBlock",
    "SpreadSystem",
    "build_theorem3_prefix",
    "well_spread_check",
    "v_p_size",
    "five_ten_bound",
    "pick_independent_subset",
    "theorem3_mesh_reports",
]

J_CAP = 6  # p_7 would leave the deterministic primality range
PREFIX_ENUM_CAP = 3 * 10**5  # members of each theorem3 well-spread prefix check


class ScheduleError(ConfigError):
    """A schedule condition fails on the declared test grid."""


@dataclass(frozen=True)
class Schedule:
    """Primes p_j (fast), sizes nu_j (slow), densities ell_j (very slow),
    by closed formulas in j; J is the number of blocks built."""

    J: int

    @classmethod
    def default(cls, J: int) -> "Schedule":
        if not 1 <= J <= J_CAP:
            raise ConfigError(f"J must lie in [1, {J_CAP}]")
        return cls(J=J)

    @staticmethod
    def ell(j: int) -> int:
        return 1 + int(math.log2(1 + j))

    @staticmethod
    def nu(j: int) -> int:
        return 16 + j

    @staticmethod
    @lru_cache(maxsize=None)
    def p(j: int) -> int:
        if j > J_CAP:
            raise ConfigError(f"primes beyond j = {J_CAP} are not materialized")
        return next_prime(4 * Schedule.ell(j) * 2 ** (2**j))

    @property
    def ells(self) -> tuple[int, ...]:
        return tuple(self.ell(j) for j in range(1, self.J + 1))

    @property
    def nus(self) -> tuple[int, ...]:
        return tuple(self.nu(j) for j in range(1, self.J + 1))

    @property
    def ps(self) -> tuple[int, ...]:
        return tuple(self.p(j) for j in range(1, self.J + 1))


def five_ten_bound(k: int, h: int, p: int) -> float:
    """k * (1 + (k+1) * log(2h+1) / log p)."""
    return k * (1 + (k + 1) * math.log(2 * h + 1) / math.log(p))


def _x_factor(h: int, k: int) -> int:
    """max(1, max ell_j over blocks with nu_j <= 8 (2h+1)^k).

    The sup runs over the whole (infinite) schedule: nu_j = 16 + j
    increases while ell_j is nondecreasing, so it is ell at the last
    admissible index.
    """
    j_star = 8 * (2 * h + 1) ** k - 16
    return Schedule.ell(j_star) if j_star >= 1 else 1


def check_schedule(
    schedule: Schedule,
    w: GrowthFunction,
    grid_h: Sequence[int],
    grid_k: Sequence[int],
) -> list[dict]:
    """Evaluate every schedule condition on the grid; raise on violation."""
    rows = []
    for j in range(1, max(schedule.J, max(grid_k)) + 1):
        lhs, rhs = 4 * schedule.ell(j), schedule.p(j)
        rows.append(
            {"condition": "4*ell_j < p_j", "j": j, "lhs": lhs, "rhs": rhs, "ok": lhs < rhs}
        )
    for h in grid_h:
        for k in grid_k:
            sqw = math.sqrt(w(h * k))
            p_k = schedule.p(k)
            cases = [
                ("independent-part (5.10) within k*sqrt(w)/2",
                 five_ten_bound(k, h, p_k), 0.5 * k * sqw),
                ("sum of nu_j within k*sqrt(w)/2",
                 float(sum(schedule.nu(j) for j in range(1, k + 1))), 0.5 * k * sqw),
                ("3*ell_k within sqrt(w)", 3.0 * schedule.ell(k), sqw),
                ("density factor X within sqrt(w)", float(_x_factor(h, k)), sqw),
            ]
            for name, lhs, rhs in cases:
                rows.append(
                    {"condition": name, "h": h, "k": k, "lhs": lhs, "rhs": rhs,
                     "ok": lhs <= rhs}
                )
    for row in rows:
        if not row["ok"]:
            where = ", ".join(f"{k}={v}" for k, v in row.items() if k != "ok")
            raise ScheduleError(f"schedule condition violated: {where}")
    return rows


@dataclass(frozen=True)
class SpreadBlock:
    """One block: its parameters, beta index range, and mapped selection."""

    j: int
    p: int
    nu: int
    ell: int
    q: int
    index_lo: int  # 1-based, inclusive
    index_hi: int
    certificate: LemmaCertificate
    lambda_ints: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.lambda_ints)


@dataclass(frozen=True)
class SpreadSystem:
    """The full construction: betas, per-index bounds q(i), and blocks,
    with the weight w and the (h, k) grid its schedule was checked on."""

    schedule: Schedule
    w: GrowthFunction
    betas: tuple[int, ...]  # betas[i-1] = beta_i
    qs: tuple[int, ...]
    blocks: tuple[SpreadBlock, ...]
    seed: int
    grid_h: tuple[int, ...]
    grid_k: tuple[int, ...]
    conditions: tuple[dict, ...]

    def beta(self, i: int) -> int:
        return self.betas[i - 1]

    def q(self, i: int) -> int:
        return self.qs[i - 1]

    def block_basis(self, j: int) -> list[int]:
        b = self.blocks[j - 1]
        return [self.beta(i) for i in range(b.index_lo, b.index_hi + 1)]

    def lambda_union(self) -> list[int]:
        return [x for b in self.blocks for x in b.lambda_ints]

    def structurally_well_spread(self) -> bool:
        """beta_i exceeds twice the max combination below it, which makes
        every combination with |m_i| <= (q(i)-1)/2 distinct."""
        return super_increasing(zip(self.betas, ((q - 1) // 2 for q in self.qs)))

    def to_json(self, path) -> None:
        payload = {
            "seed": self.seed,
            "grid_h": list(self.grid_h),
            "grid_k": list(self.grid_k),
            "betas": [str(b) for b in self.betas],
            "q": [str(q) for q in self.qs],
            "blocks": [
                {
                    "j": b.j,
                    "p": b.p,
                    "nu": b.nu,
                    "ell": b.ell,
                    "q": str(b.q),
                    "beta_index_lo": b.index_lo,
                    "beta_index_hi": b.index_hi,
                    "size": b.size,
                    "lambda": [str(x) for x in b.lambda_ints],
                }
                for b in self.blocks
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def build_theorem3_prefix(
    w: GrowthFunction,
    J: int,
    seed: int,
    grid_h: Sequence[int],
    grid_k: Sequence[int],
) -> SpreadSystem:
    """Build J blocks with the default schedule, checked for w on the (h, k)
    grid grid_h x grid_k.

    Raises ScheduleError when a schedule condition fails on the grid.  Each
    block's selection uses the K -> 1/8 replacement (valid by 4*ell < p).
    """
    schedule = Schedule.default(J)
    conditions = check_schedule(schedule, w, grid_h, grid_k)

    total = sum(schedule.nu(j) for j in range(1, J + 1))
    qs: list[int] = []
    for j in range(1, J + 1):
        q_j = 2 * schedule.nu(j) * ((schedule.p(j) - 1) // 2) ** 2 + 1
        qs.extend([q_j] * schedule.nu(j))

    betas: list[int] = [1]
    weight = ((qs[0] - 1) // 2) * 1
    for i in range(2, total + 1):
        beta = qs[i - 1] * (1 + weight)
        betas.append(beta)
        weight += ((qs[i - 1] - 1) // 2) * beta

    blocks: list[SpreadBlock] = []
    lo = 1
    for j in range(1, J + 1):
        p_j, nu_j, ell_j = schedule.p(j), schedule.nu(j), schedule.ell(j)
        cfg = SelectionConfig(p=p_j, nu=nu_j, ell=ell_j, seed=seed)
        cert = lemma_search(cfg, use_eighth=True)
        base = betas[lo - 1 : lo - 1 + nu_j]
        lam_ints = tuple(
            sum(c * b for c, b in zip(v.centered(), base)) for v in cert.Lambda
        )
        blocks.append(
            SpreadBlock(
                j=j,
                p=p_j,
                nu=nu_j,
                ell=ell_j,
                q=qs[lo - 1],
                index_lo=lo,
                index_hi=lo + nu_j - 1,
                certificate=cert,
                lambda_ints=lam_ints,
            )
        )
        lo += nu_j
    system = SpreadSystem(
        schedule=schedule,
        w=w,
        betas=tuple(betas),
        qs=tuple(qs),
        blocks=tuple(blocks),
        seed=seed,
        grid_h=tuple(grid_h),
        grid_k=tuple(grid_k),
        conditions=tuple(conditions),
    )
    if not system.structurally_well_spread():
        raise AssertionError("beta growth rule failed its own distinctness check")
    return system


def well_spread_check(basis: Sequence[int], q: int, cap: Optional[int] = None) -> bool:
    """True iff all q^|B| combinations with |m_i| <= (q-1)/2 are distinct.

    More than cap combinations (mesh.ENUM_CAP when None) raise
    MeshResourceError.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("q must be a positive odd integer")
    size = q ** len(basis)
    check_enum_cap(size, cap)
    return count_distinct_sums(basis, Box((q - 1) // 2)) == size


def v_p_size(points: Sequence[int], p: int) -> int:
    """|V_p(A')|: distinct combinations sum m_a * a with |m_a| <= (p-1)/2.

    More than mesh.ENUM_CAP combinations raise MeshResourceError.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd integer >= 3")
    check_enum_cap(p ** len(points))
    return count_distinct_sums(points, Box((p - 1) // 2))


def pick_independent_subset(block: SpreadBlock, size: int) -> list[int]:
    """First elements of the block whose preimages form a free system.

    "Independent" means the image of a free subset of (Z/pZ)^nu; greedy
    over the certificate order.
    """
    chosen: list[FpVector] = []
    chosen_ints: list[int] = []
    for v, x in zip(block.certificate.Lambda, block.lambda_ints):
        if fp_rank(chosen + [v]) == len(chosen) + 1:
            chosen.append(v)
            chosen_ints.append(x)
            if len(chosen) == size:
                return chosen_ints
    raise ValueError(f"block {block.j} has no free subset of size {size}")


def theorem3_mesh_reports(
    system: SpreadSystem,
    count: int,
    seed: int,
) -> list[MeshReport]:
    """Sampled height-h meshes on the system's (h, k) grid against the bound
    k*w(kh) for the system's w."""
    lam = system.lambda_union()
    pool = lam + list(system.betas)

    def random_int(rng):
        x = 0
        while x == 0:
            x = int(rng.integers(-100, 101))
        return x

    meshes = random_meshes(
        pool,
        random_int,
        count=count,
        seed=seed,
        k_choices=system.grid_k,
        heights=system.grid_h,
    )
    bound = BoundSpec("k_w_kh", w=system.w)
    return check_mesh_condition(lam, meshes, bound)
