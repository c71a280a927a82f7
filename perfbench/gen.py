"""Seeded inputs for the `integer` workload and their independent checks.

Only the standard library is used here: nothing in this file calls
sidonlab, so the expected answers cannot share a bug with the program.
"""

from __future__ import annotations

import itertools
import math
import random

QI_POINTS = 20          # super-increasing set handed to `verify-qi` (exit 0)
DEP_POINTS = 22         # random integers handed to `verify-qi` (exit 1)
# 2^22 subsets of 22 integers below 10^5 have sums in [0, 22 * 10^5], a range
# smaller than 2^22, so two subsets collide and their difference is a
# nonzero {-1, 0, 1} dependency (pigeonhole).
DEP_BOUND = 10**5
MESH_LAMBDA = 40        # dissociated Lambda of the `mesh-report` file
MESH_COUNT = 1000       # meshes per file: half digit route, half enumerate route
MESH_HEIGHTS = (1, 2)
MESH_K_MAX = 6
MESH_RANDOM_MAX = 10**4  # range of the random (non-Lambda) basis elements
SIDON_C = 3.0           # C of the sidon_log bound C * k * log(1 + k * h)


def super_increasing(rng: random.Random, n: int) -> list[int]:
    """n positive integers, each more than 5 times the sum of the earlier ones.

    Any nonzero combination with coefficients in [-2, 2] is then nonzero,
    so the set is dissociated, hence quasi-independent.
    """
    out: list[int] = []
    total = 0
    for _ in range(n):
        x = 5 * total + rng.randint(1, max(9, total))
        out.append(x)
        total += x
    return out


def digit_route_applies(basis: list[int], height: int) -> bool:
    """The program's documented digit-route condition for a box mesh:
    distinct positive elements with 2 * sum_{i<j} height * b_i < b_j."""
    if any(b <= 0 for b in basis) or len(set(basis)) != len(basis):
        return False
    weight = 0
    for b in sorted(basis):
        if 2 * weight >= b:
            return False
        weight += height * b
    return True


def box_count(lam: list[int], basis: list[int], height: int) -> int:
    """|Lambda ∩ M| by enumerating every coefficient vector of the box."""
    scaled = [[n * b for n in range(-height, height + 1)] for b in basis]
    members = {sum(terms) for terms in itertools.product(*scaled)}
    return sum(1 for x in set(lam) if x in members)


def integer_inputs(seed: int) -> dict:
    """All generated data of the `integer` workload for one seed."""
    rng = random.Random(seed)
    qi = super_increasing(rng, QI_POINTS)
    rng.shuffle(qi)
    dep = [rng.randrange(1, DEP_BOUND) for _ in range(DEP_POINTS)]

    lam = super_increasing(rng, MESH_LAMBDA)
    meshes, counts = [], []
    while len(meshes) < MESH_COUNT:
        height = rng.choice(MESH_HEIGHTS)
        if len(meshes) % 2 == 0:
            k = rng.randint(1, MESH_K_MAX)
            basis = rng.sample(lam, k)
        else:
            k = rng.randint(2, MESH_K_MAX)
            basis = [rng.randint(1, MESH_RANDOM_MAX) for _ in range(k)]
            if digit_route_applies(basis, height):
                continue
        count = box_count(lam, basis, height)
        if count > SIDON_C * k * math.log1p(k * height):  # the sidon_log bound
            continue
        meshes.append({"basis": basis, "height": height})
        counts.append(count)
    return {
        "qi_points": qi,
        "dependent_points": dep,
        "mesh_file": {
            "lambda": lam,
            "meshes": meshes,
            "bound": {"kind": "sidon_log", "C": SIDON_C},
        },
        "mesh_counts": counts,
    }


def witness_ok(points: list[int], witness) -> bool:
    """A nonzero {-1, 0, 1} vector of the right length whose signed sum is 0."""
    if not isinstance(witness, list) or len(witness) != len(points):
        return False
    if any(type(s) is not int or s not in (-1, 0, 1) for s in witness):
        return False
    return any(witness) and sum(s * x for s, x in zip(witness, points)) == 0
