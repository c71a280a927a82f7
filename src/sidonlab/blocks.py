"""Block unions in (Z/pZ)^N with unbounded intersection/rank ratios.

Coordinates are split into disjoint blocks; block ell carries a certified
selection of size between ell*nu_ell and 3*ell*nu_ell inside its own
(Z/pZ)^{nu_ell}.  The union then meets the block subgroup in at least ell
times its rank (``pisier_ratio``), while sampled meshes stay below k*w(k).

The block size nu_ell is the least nu >= 16 with
3*ell/K_ell <= w(K_ell * nu); slowly growing w makes that astronomically
large, so it is sought only up to a desk cap, and a binding cap is recorded
per block.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Sequence

from .core import ConfigError, FpVector
from .growth import GrowthFunction
from .mesh import BoundSpec, MeshReport, check_mesh_condition, random_meshes
from .selection import LEMMA_NU_MIN, LemmaCertificate, SelectionConfig, k_ell, lemma_search

__all__ = [
    "Block",
    "BlockConstruction",
    "choose_nu_capped",
    "build_theorem2_prefix",
    "pisier_ratio",
    "theorem2_mesh_reports",
]

NU_CAP_DEFAULT = 24


def choose_nu_capped(ell: int, p: int, w: GrowthFunction, cap: int) -> tuple[int, bool]:
    """Least nu in [16, cap] (lemma mode) with 3*ell/K_ell <= w(K_ell * nu),
    and False; (cap, True) when no nu in that range qualifies, the flag
    recording a binding desk cap.

    w is nondecreasing, so the qualifying nu form a final segment of
    [16, cap]; bisection finds where it starts.
    """
    if cap > sys.float_info.max:  # w is evaluated at the float K * cap
        raise ConfigError(f"the nu cap {cap} exceeds the largest float")
    K = k_ell(p, ell)
    target = 3 * ell / K
    if cap < LEMMA_NU_MIN or w(K * cap) < target:
        return cap, True
    lo, hi = LEMMA_NU_MIN, cap  # hi qualifies throughout
    while lo < hi:
        mid = (lo + hi) // 2
        if w(K * mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo, False


@dataclass(frozen=True)
class Block:
    """One coordinate block and its certified selection."""

    ell: int
    nu: int
    offset: int
    cap_bound: bool
    certificate: LemmaCertificate

    @property
    def size(self) -> int:
        return len(self.certificate.Lambda)


@dataclass(frozen=True)
class BlockConstruction:
    """Disjoint blocks ell = 2..L with their selections, living in F_p^D,
    sized for the weight w."""

    p: int
    w: GrowthFunction
    blocks: tuple[Block, ...]
    seed: int

    @property
    def total_dim(self) -> int:
        return sum(b.nu for b in self.blocks)

    def block(self, ell: int) -> Block:
        for b in self.blocks:
            if b.ell == ell:
                return b
        raise KeyError(f"no block with ell = {ell}")

    def embed(self, block: Block, v: FpVector) -> FpVector:
        coords = [0] * self.total_dim
        coords[block.offset : block.offset + block.nu] = v.coords
        return FpVector(self.p, tuple(coords))

    def block_points(self, ell: int) -> list[FpVector]:
        b = self.block(ell)
        return [self.embed(b, v) for v in b.certificate.Lambda]

    def union_points(self) -> list[FpVector]:
        return [self.embed(b, v) for b in self.blocks for v in b.certificate.Lambda]

    def coordinate_vectors(self) -> list[FpVector]:
        """The canonical basis vectors of F_p^D (the beta pool for meshes)."""
        dim = self.total_dim
        out = []
        for i in range(dim):
            coords = [0] * dim
            coords[i] = 1
            out.append(FpVector(self.p, tuple(coords)))
        return out

    def to_json(self, path) -> None:
        payload = {
            "p": self.p,
            "seed": self.seed,
            "blocks": [
                {
                    "ell": b.ell,
                    "nu": b.nu,
                    "offset": b.offset,
                    "cap_bound": b.cap_bound,
                    "size": b.size,
                    "checked_subset_size": b.certificate.checked_subset_size,
                    "mode": b.certificate.mode,
                    "points": [list(v.coords) for v in b.certificate.Lambda],
                }
                for b in self.blocks
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def build_theorem2_prefix(
    p: int,
    w: GrowthFunction,
    L: int,
    seed: int = 0,
    nu_cap: int = NU_CAP_DEFAULT,
) -> BlockConstruction:
    """Blocks ell = 2..L, each found by the certified search.

    Blocks live in independent coordinate ranges, so the rank of a union of
    subsets is the sum of the per-block ranks.
    """
    if L < 2:
        raise ConfigError("need L >= 2")
    blocks = []
    offset = 0
    for ell in range(2, L + 1):
        nu, capped = choose_nu_capped(ell, p, w, nu_cap)
        cfg = SelectionConfig(p=p, nu=nu, ell=ell, seed=seed)
        cert = lemma_search(cfg)
        blocks.append(
            Block(ell=ell, nu=nu, offset=offset, cap_bound=capped, certificate=cert)
        )
        offset += nu
    return BlockConstruction(p=p, w=w, blocks=tuple(blocks), seed=seed)


def pisier_ratio(construction: BlockConstruction, ell: int):
    """|Lambda ∩ block subgroup| / rank of the block subgroup, exact."""
    from fractions import Fraction

    b = construction.block(ell)
    return Fraction(b.size, b.nu)


def theorem2_mesh_reports(
    construction: BlockConstruction,
    count: int,
    seed: int,
    k_choices: Sequence[int],
    heights: Sequence[int],
) -> list[MeshReport]:
    """Sampled k-meshes against the bound k*w(k) for the construction's w;
    zero failures expected.

    Mesh bases mix points of the union, coordinate vectors, and random
    small vectors, as a seeded falsification family.
    """
    union = construction.union_points()
    pool = union + construction.coordinate_vectors()
    p = construction.p
    dim = construction.total_dim

    def random_vec(rng):
        coords = rng.integers(-2, 3, size=dim)
        return FpVector(p, tuple(int(c) for c in coords))

    meshes = random_meshes(
        pool, random_vec, count=count, seed=seed, k_choices=k_choices, heights=heights
    )
    bound = BoundSpec("k_w_k", w=construction.w)
    return check_mesh_condition(union, meshes, bound)
