"""Recursive quasi-independent matrices and their embedding into Z.

``build_matrix`` produces the level-nu matrix A_nu with 2^nu rows and
N_nu = 2^(nu-1)(nu+2) columns over {-1, 0, +1} by the doubling recursion

    A_{nu+1} = [[A_nu,  A_nu, I],
                [A_nu, -A_nu, 0]],    A_1 = [[1, 1, 1], [1, -1, 0]].

``embed_theorem1`` applies each A_nu to a block of a dissociated integer
sequence beta_j, giving a quasi-independent set of integers that meets a
height-1 mesh on 2^nu generators in N_nu points (``theorem1_witness``).

Because N_nu / (2^nu * nu) -> 1/2, this family shows the log factor in the
mesh-count bound C*k*log(1 + sup|n|_1) for quasi-independent sets cannot
be improved, and forces C >= 1/(2 log 2) there.  That constant is recorded
here for context only; exact extremal constants are out of scope and no
test asserts one.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, LatticePoint

__all__ = [
    "BASE_MATRIX",
    "NU_CAP",
    "QiMatrix",
    "DissociatedBasis",
    "Theorem1Construction",
    "n_nu",
    "build_matrix",
    "embed_theorem1",
    "theorem1_witness",
    "witness_counts",
]

BASE_MATRIX = ((1, 1, 1), (1, -1, 0))
NU_CAP = 12  # 4096 x 28672 entries; memory guard


def n_nu(nu: int) -> int:
    """Column count of the level-nu matrix: 2^(nu-1) * (nu + 2)."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    return (1 << (nu - 1)) * (nu + 2)


@dataclass(frozen=True, eq=False)
class QiMatrix:
    """The level-nu matrix with entries over {-1, 0, +1}."""

    nu: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (2**self.nu, n_nu(self.nu)):
            raise ValueError(
                f"level-{self.nu} matrix must be {2**self.nu} x {n_nu(self.nu)}, "
                f"got {self.entries.shape}"
            )
        if not np.isin(self.entries, (-1, 0, 1)).all():
            raise ValueError("entries must lie in {-1, 0, +1}")
        self.entries.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def columns_as_points(self) -> list[LatticePoint]:
        return [
            LatticePoint(tuple(int(x) for x in self.entries[:, j]))
            for j in range(self.cols)
        ]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in self.entries:
                writer.writerow(int(x) for x in row)


def build_matrix(nu: int) -> QiMatrix:
    """Build A_nu by the doubling recursion; dimensions 2^nu x N_nu."""
    if not 1 <= nu <= NU_CAP:
        raise ConfigError(f"nu must lie in [1, {NU_CAP}], got {nu}")
    block = np.array(BASE_MATRIX, dtype=np.int8)
    for level in range(2, nu + 1):
        half = 2 ** (level - 1)
        eye = np.eye(half, dtype=np.int8)
        zero = np.zeros((half, half), dtype=np.int8)
        block = np.vstack(
            [
                np.hstack([block, block, eye]),
                np.hstack([block, -block, zero]),
            ]
        )
    return QiMatrix(nu, block)


def _coefficient_bound(index: int) -> int:
    """Coefficient bound for the dissociated sequence at a given index.

    Index j with 2^nu <= j < 2^(nu+1) carries the bound N_nu; index 1 is
    never used by the embedding and carries the bound 1.
    """
    if index < 1:
        raise ValueError("indices start at 1")
    if index == 1:
        return 1
    return n_nu(index.bit_length() - 1)


@dataclass(frozen=True)
class DissociatedBasis:
    """An increasing integer sequence with no bounded vanishing combination.

    Built by the super-increasing rule beta_1 = 1,
    beta_{j+1} = 2 * W_j + 1 with W_j = sum_{i<=j} H_i * beta_i, where H_i is
    the per-index coefficient bound.  Any combination sum n_j beta_j with
    |n_j| <= H_j then vanishes only trivially: the top nonzero term exceeds
    everything below it (greedy-digit argument).

    betas[i] is beta_{i+1}; index arguments below are 1-based.
    """

    betas: tuple[int, ...]
    nu_max: int

    @classmethod
    def build(cls, nu_max: int, max_index: Optional[int] = None) -> "DissociatedBasis":
        if max_index is None:
            # Lambda uses indices [2, 2^(nu_max+1)); witness padding takes
            # fresh indices beyond, at most 2^nu_max - 1 of them.
            max_index = 2 ** (nu_max + 1) + 2**nu_max
        betas = [1]
        weight = _coefficient_bound(1) * 1
        for j in range(2, max_index + 1):
            beta = 2 * weight + 1
            betas.append(beta)
            weight += _coefficient_bound(j) * beta
        return cls(tuple(betas), nu_max)

    def beta(self, index: int) -> int:
        return self.betas[index - 1]

    def block_indices(self, nu: int) -> range:
        return range(2**nu, 2 ** (nu + 1))

    def digits(self, x: int) -> Optional[dict[int, int]]:
        """Greedy digit expansion of x over the full sequence.

        Returns {index: digit} with digits bounded by the per-index
        coefficient bounds, or None when no such expansion exists.  The
        expansion, when it exists, is unique.
        """
        out: dict[int, int] = {}
        j = len(self.betas)
        while x != 0 and j >= 1:
            # Skip indices whose digit is forced to zero: beta_j > 2|x|.
            j = bisect_right(self.betas, 2 * abs(x), 0, j)
            if j < 1:
                break
            beta = self.betas[j - 1]
            n = (2 * x + beta) // (2 * beta)
            if n == 0 or abs(n) > _coefficient_bound(j):
                return None
            out[j] = n
            x -= n * beta
            j -= 1
        return out if x == 0 else None


@dataclass(frozen=True)
class Theorem1Construction:
    """Blocks of integers gamma obtained by applying A_nu to beta blocks."""

    nu_max: int
    basis: DissociatedBasis
    blocks: tuple[tuple[range, QiMatrix], ...]
    lambda_points: tuple[LatticePoint, ...]

    def lambda_ints(self) -> list[int]:
        return [p.as_int() for p in self.lambda_points]

    def block_points(self, nu: int) -> list[LatticePoint]:
        offset = sum(n_nu(v) for v in range(1, nu))
        return list(self.lambda_points[offset : offset + n_nu(nu)])

    def to_json(self, path) -> None:
        payload = {
            "nu_max": self.nu_max,
            "betas": [str(b) for b in self.basis.betas],
            "blocks": [
                {
                    "nu": m.nu,
                    "beta_index_lo": rng.start,
                    "beta_index_hi": rng.stop,
                    "columns": int(m.cols),
                }
                for rng, m in self.blocks
            ],
            "lambda": [str(x) for x in self.lambda_ints()],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def embed_theorem1(nu_max: int) -> Theorem1Construction:
    """Concatenate the blocks (beta_{2^nu}, ..., beta_{2^(nu+1)-1}) A_nu.

    Block nu contributes exactly N_nu integers; all of them are distinct
    across blocks because the betas admit no bounded vanishing combination.
    Each block is summed row by row in Python ints (object dtype), exact
    however large the betas grow; a row adds its beta only at its nonzero
    entries, about 3/(nu + 2) of them.
    """
    if not 1 <= nu_max <= NU_CAP:
        raise ConfigError(f"nu_max must lie in [1, {NU_CAP}], got {nu_max}")
    basis = DissociatedBasis.build(nu_max)
    blocks = []
    points: list[LatticePoint] = []
    for nu in range(1, nu_max + 1):
        m = build_matrix(nu)
        idx = basis.block_indices(nu)
        vals = np.zeros(m.cols, dtype=object)
        for row, beta in zip(m.entries, (basis.beta(i) for i in idx)):
            nz = np.flatnonzero(row)
            vals[nz] += row[nz].astype(object) * beta
        points.extend(LatticePoint.from_int(x) for x in vals)
        blocks.append((idx, m))
    if len(set(points)) != len(points):
        raise AssertionError("embedded gamma values are not distinct")
    return Theorem1Construction(nu_max, basis, tuple(blocks), tuple(points))


def _witness_nu(k: int, nu_max: int) -> int:
    if not 2 <= k < 2 ** (nu_max + 1):
        raise ValueError(f"k must lie in [2, {2 ** (nu_max + 1)}), got {k}")
    return k.bit_length() - 1


def _witness_indices(k: int, construction: Theorem1Construction) -> tuple[int, list[int]]:
    nu_max = construction.nu_max
    nu = _witness_nu(k, nu_max)
    indices = list(construction.basis.block_indices(nu))
    # Pad with fresh betas never touched by the embedded set, so the
    # intersection count is unchanged while the mesh has k generators.
    fresh = 2 ** (nu_max + 1)
    indices += list(range(fresh, fresh + k - len(indices)))
    return nu, indices


def theorem1_witness(k: int, construction: Theorem1Construction):
    """The height-1 k-mesh meeting the embedded set in N_nu points.

    Returns (mesh, count) where count = N_nu with 2^nu <= k < 2^(nu+1);
    the bound count >= (1/4) k log2 k holds for every such k.
    """
    from .mesh import Box, Mesh

    nu, indices = _witness_indices(k, construction)
    basis_points = tuple(
        LatticePoint.from_int(construction.basis.beta(i)) for i in indices
    )
    mesh = Mesh(basis=basis_points, domain=Box(1))
    count = n_nu(nu)
    if count < 0.25 * k * math.log2(k):
        raise AssertionError(f"witness bound violated at k={k}")
    return mesh, count


def witness_counts(
    construction: Theorem1Construction, ks: Sequence[int]
) -> dict[int, int]:
    """|Lambda ∩ M_k| for many k at once, via one digit expansion per point.

    Each embedded integer is expanded once over the dissociated sequence;
    membership in the height-1 witness mesh for k then only requires its
    digit support to sit inside the mesh's index set with digits in
    {-1, 0, +1}.  Agrees with mesh_count wherever both run.
    """
    basis = construction.basis
    supports = []
    for x in construction.lambda_ints():
        d = basis.digits(x)
        if d is None:
            raise AssertionError("embedded point has no digit expansion")
        supports.append(d)
    return _support_counts(supports, construction.nu_max, ks)


def _support_counts(
    supports: Sequence[dict[int, int]], nu_max: int, ks: Sequence[int]
) -> dict[int, int]:
    """For each k, how many supports lie in the witness index set of k with
    every digit in {-1, 0, +1}; an empty support counts for every k.

    The index set is the block [2^nu, 2^(nu+1)) plus the padding
    [F, F + k - 2^nu), F = 2^(nu_max+1) lying above every block.  A support
    fits iff its least index is >= 2^nu, its largest index below F is
    < 2^(nu+1), and its largest index is < F + k - 2^nu; so four numbers per
    support decide every k.
    """
    fresh = 2 ** (nu_max + 1)
    n = len(supports)
    lo = np.full(n, fresh, dtype=np.int64)  # least index
    below = np.zeros(n, dtype=np.int64)  # largest index below fresh
    top = np.zeros(n, dtype=np.int64)  # largest index
    small = np.ones(n, dtype=bool)  # every |digit| <= 1
    for s, d in enumerate(supports):
        if d:
            lo[s] = min(d)
            below[s] = max((i for i in d if i < fresh), default=0)
            top[s] = max(d)
            small[s] = all(abs(v) <= 1 for v in d.values())
    tops: dict[int, np.ndarray] = {}  # sorted largest indices of the fits, by nu
    counts: dict[int, int] = {}
    for k in ks:
        nu = _witness_nu(k, nu_max)
        if nu not in tops:
            fits = small & (lo >= 2**nu) & (below < 2 ** (nu + 1))
            tops[nu] = np.sort(top[fits])
        counts[k] = int(np.searchsorted(tops[nu], fresh + k - 2**nu))
    return counts
