import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonlab.core import KEY_MOD, FpVector, LatticePoint, next_prime
from sidonlab.mesh import (
    BoundSpec,
    Box,
    ExplicitList,
    Mesh,
    MeshResourceError,
    _count_keyed,
    _Lambda,
    check_mesh_condition,
    count_distinct_sums,
    mesh_count,
    mesh_members,
    random_meshes,
    sidon_mesh_bound,
)


def ip(x):
    return LatticePoint.from_int(x)


def test_members_single_generator():
    m = Mesh((ip(1),), Box(1))
    assert {p.as_int() for p in mesh_members(m)} == {-1, 0, 1}


def test_members_collisions_collapse():
    m = Mesh((ip(1), ip(2)), Box(1))
    assert {p.as_int() for p in mesh_members(m)} == set(range(-3, 4))


def test_members_independent_generators():
    basis = tuple(LatticePoint(tuple(int(i == j) for j in range(3))) for i in range(3))
    for h in (0, 1, 2):
        assert len(mesh_members(Mesh(basis, Box(h)))) == (2 * h + 1) ** 3


def test_members_cap():
    basis = tuple(ip(3**i) for i in range(12))
    with pytest.raises(MeshResourceError):
        mesh_members(Mesh(basis, Box(3)), cap=10**5)


def test_explicit_list_dedup_and_validation():
    e = ExplicitList(((1, 0), (1, 0), (0, 2)))
    assert len(e.coeffs) == 2
    with pytest.raises(ValueError):
        ExplicitList(((1, 0), (1,)))
    with pytest.raises(ValueError):
        Mesh((ip(1),), ExplicitList(((1, 2),)))
    with pytest.raises(ValueError):
        Mesh((), Box(1))
    with pytest.raises(ValueError):
        Box(-1)


def test_count_disjoint_lambda():
    m = Mesh((ip(10), ip(100)), Box(1))
    assert mesh_count([ip(7), ip(13)], m) == 0


def test_count_bounded_by_lambda_and_domain():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        basis = tuple(ip(int(x)) for x in rng.integers(1, 30, k))
        h = int(rng.integers(0, 3))
        lam = [ip(int(x)) for x in rng.integers(-40, 40, 10)]
        m = Mesh(basis, Box(h))
        c = mesh_count(lam, m, method="enumerate")
        assert c <= min(len(set(lam)), m.domain_size())


def test_count_monotone_in_height_and_domain():
    lam = [ip(x) for x in range(-20, 21)]
    basis = (ip(3), ip(5))
    counts = [mesh_count(lam, Mesh(basis, Box(h))) for h in (0, 1, 2, 3)]
    assert counts == sorted(counts)
    small = ExplicitList(((0, 0), (1, 1)))
    big = ExplicitList(((0, 0), (1, 1), (2, -1), (1, 0)))
    assert mesh_count(lam, Mesh(basis, small)) <= mesh_count(lam, Mesh(basis, big))


def test_digit_route_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        h = int(rng.integers(0, 4))
        betas = []
        weight = 0
        for _ in range(k):
            b = 2 * max(1, h) * weight + int(rng.integers(1, 50))
            betas.append(b)
            weight += b
        basis = tuple(ip(b) for b in betas)
        mesh = Mesh(basis, Box(h))
        if mesh.domain_size() > 10**5:
            continue
        members = [p.as_int() for p in mesh_members(mesh)]
        lam = [ip(v) for v in members[::3]] + [ip(int(x)) for x in rng.integers(-100, 100, 20)]
        assert mesh_count(lam, mesh, method="digits") == mesh_count(
            lam, mesh, method="enumerate"
        )


def test_digit_route_with_explicit_domain():
    basis = (ip(1), ip(10), ip(200))
    dom = ExplicitList(((1, 0, 0), (1, 1, 0), (-1, 0, 1), (0, 0, 0)))
    mesh = Mesh(basis, dom)
    lam = [ip(x) for x in (0, 1, 11, 199, 210, -9, 9)]
    assert mesh_count(lam, mesh, method="digits") == mesh_count(lam, mesh, method="enumerate")


def test_fp_vectorized_matches_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = int(rng.choice([2, 3, 5]))
        nu = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(0, 3))
        basis = tuple(
            FpVector(p, tuple(int(x) for x in rng.integers(0, p, nu))) for _ in range(k)
        )
        lam = [
            FpVector(p, tuple(int(x) for x in rng.integers(0, p, nu))) for _ in range(12)
        ]
        mesh = Mesh(basis, Box(h))
        assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate")


def test_sidon_bound_examples():
    assert sidon_mesh_bound(1, 0, 1.0) == 0.0
    assert sidon_mesh_bound(4, 4, 1.0) == pytest.approx(4 * math.log(5))
    m = Mesh((ip(1), ip(5), ip(9)), Box(2))
    assert m.sup_l1() == 3 * 2
    with pytest.raises(ValueError):
        sidon_mesh_bound(0, 1, 1.0)


def test_bound_spec_directions():
    m = Mesh((ip(1), ip(10)), Box(1))
    up, d_up = BoundSpec("sidon_log", C=1.0).evaluate(m)
    assert d_up == "upper" and up == pytest.approx(2 * math.log(3))
    low, d_low = BoundSpec("lower_quarter_k_log2_k").evaluate(m)
    assert d_low == "lower" and low == pytest.approx(0.5)
    with pytest.raises(ValueError):
        BoundSpec("nope").evaluate(m)
    for kind in ("k_w_k", "k_w_kh", "sidon_log"):  # each needs its parameter
        with pytest.raises(ValueError, match="needs"):
            BoundSpec(kind)


def test_check_mesh_condition_empty_lambda_passes():
    meshes = [Mesh((ip(3), ip(7)), Box(2)), Mesh((ip(2),), Box(1))]
    reports = check_mesh_condition([], meshes, BoundSpec("sidon_log", C=1.0))
    assert all(r.passed and r.count == 0 for r in reports)


def test_theorem1_witness_passes_lower_bound_check():
    from sidonlab.construction import embed_theorem1, theorem1_witness

    c = embed_theorem1(3)
    lam = list(c.lambda_points)
    meshes = [theorem1_witness(k, c)[0] for k in (4, 7, 11)]
    reports = check_mesh_condition(lam, meshes, BoundSpec("lower_quarter_k_log2_k"))
    assert all(r.passed for r in reports)


def test_random_meshes_deterministic():
    pool = [ip(x) for x in (1, 5, 25)]

    def rand_el(rng):
        return ip(int(rng.integers(1, 100)))

    a = random_meshes(pool, rand_el, count=20, seed=3)
    b = random_meshes(pool, rand_el, count=20, seed=3)
    assert a == b
    c = random_meshes(pool, rand_el, count=20, seed=4)
    assert a != c


def _fp(p, coords):
    return FpVector(p, tuple(int(c) for c in coords))


def test_fp_route_matches_enumeration_on_residue_domains():
    rng = np.random.default_rng(77)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        nu = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        basis = tuple(_fp(p, rng.integers(0, p, nu)) for _ in range(k))
        # heights with 2h+1 >= p, so several coefficients share a residue
        h = int(rng.integers(p // 2, p + 2))
        rows = [tuple(int(c) for c in rng.integers(-2 * p, 2 * p, k)) for _ in range(6)]
        rows += [tuple(c + p for c in rows[0]), tuple(c - 2 * p for c in rows[1])]
        lam = [_fp(p, rng.integers(0, p, nu)) for _ in range(10)]
        lam += lam[:3]  # duplicates
        lam += [ip(1), LatticePoint((1, 2)), 5, _fp(p, rng.integers(0, p, nu + 1))]
        lam.append(_fp(2 if p != 2 else 3, rng.integers(0, 2, nu)))
        for domain in (Box(h), ExplicitList(tuple(rows))):
            mesh = Mesh(basis, domain)
            for points in (lam, [], lam[-5:]):
                assert mesh_count(points, mesh) == mesh_count(
                    points, mesh, method="enumerate"
                )


def test_fp_route_rejects_forced_key_collisions(monkeypatch):
    import sidonlab.core

    # every weight 1: a row keys as its coordinate sum, so distinct rows collide
    monkeypatch.setattr(sidonlab.core, "_key_weights", lambda dim: np.ones(dim, np.int64))
    rng = np.random.default_rng(5)
    collided = 0
    for _ in range(80):
        p = int(rng.choice([2, 3, 5, 7]))
        nu = int(rng.integers(2, 5))
        basis = tuple(_fp(p, rng.integers(0, p, nu)) for _ in range(int(rng.integers(1, 4))))
        mesh = Mesh(basis, Box(int(rng.integers(0, 3))))
        members = sorted(mesh_members(mesh), key=lambda v: v.coords)
        picked = [members[i] for i in rng.choice(len(members), size=min(4, len(members)))]
        # a rotated member has a member's key and is mostly not a member
        rotated = [_fp(p, np.roll(v.coords, 1)) for v in members]
        lam = picked + rotated + [_fp(p, rng.integers(0, p, nu)) for _ in range(5)]
        collided += any(v not in members for v in rotated)
        want = mesh_count(lam, mesh, method="enumerate")
        assert mesh_count(lam, mesh) == want
        assert mesh_count(rotated, mesh) == mesh_count(rotated, mesh, method="enumerate")
    assert collided >= 20


def test_check_mesh_condition_mixed_meshes_match_mesh_count():
    rng = np.random.default_rng(5)
    p, nu = 3, 4
    lam = [_fp(p, rng.integers(0, p, nu)) for _ in range(30)]
    lam += [ip(int(x)) for x in rng.integers(-30, 30, 20)]
    lam += [_fp(5, rng.integers(0, 5, 2)) for _ in range(10)]
    meshes = []
    for _ in range(12):
        k = int(rng.integers(1, 4))
        h = int(rng.integers(0, 3))
        meshes.append(Mesh(tuple(_fp(p, rng.integers(0, p, nu)) for _ in range(k)), Box(h)))
        meshes.append(Mesh(tuple(_fp(5, rng.integers(0, 5, 2)) for _ in range(k)), Box(h)))
        meshes.append(Mesh(tuple(ip(int(x)) for x in rng.integers(1, 20, k)), Box(h)))
    # a prime beyond int64 takes the enumeration fallback
    big = next_prime(2**64)
    lam += [_fp(big, (1, big - 1)), _fp(big, (2, 0))]
    meshes.append(Mesh((_fp(big, (1, 0)), _fp(big, (0, 1))), Box(2)))
    reports = check_mesh_condition(lam, meshes, BoundSpec("sidon_log", C=100.0))
    assert [r.count for r in reports] == [mesh_count(lam, m) for m in meshes]
    assert [r.count for r in reports] == [
        mesh_count(lam, m, method="enumerate") for m in meshes
    ]


def test_fp_route_cap_uses_the_full_domain_size():
    basis = tuple(_fp(2, (int(i == j) for j in range(6))) for i in range(6))
    mesh = Mesh(basis, Box(3))  # 7^6 coefficient rows, only 2^6 residue rows
    lam = [_fp(2, (1, 0, 0, 0, 0, 0))]
    with pytest.raises(MeshResourceError):
        mesh_count(lam, mesh, cap=1000)
    with pytest.raises(MeshResourceError):
        check_mesh_condition(lam, [mesh], BoundSpec("sidon_log", C=1.0), cap=1000)
    assert mesh_count(lam, mesh) == 1


# ---------------------------------------------------------------------------
# the keyed integer route against the oracles
# ---------------------------------------------------------------------------


def _plain_sums(basis, domain):
    """Every sum over the domain, by a plain loop over its coefficient rows."""
    if isinstance(domain, Box):
        h = domain.height
        rows = itertools.product(range(-h, h + 1), repeat=len(basis))
    else:
        rows = domain.coeffs
    return {sum(n * b for n, b in zip(row, basis)) for row in rows}


_EDGES = (KEY_MOD, 2**61, 2**62, 2**63, 2**64)
_FAR = (2**100, 3**150, 10**700)

key_ints = st.one_of(
    st.integers(-5, 5),
    st.builds(
        lambda e, d, s: s * (e + d), st.sampled_from(_EDGES), st.integers(-3, 3),
        st.sampled_from((1, -1)),
    ),
    st.builds(lambda e, d: e + d, st.sampled_from(_FAR), st.integers(-3, 3)),
)


@st.composite
def int_meshes(draw):
    basis = draw(st.lists(key_ints, min_size=1, max_size=3))
    extra = draw(st.sampled_from(("none", "repeat", "shift")))
    if extra == "repeat":
        basis.append(basis[0])
    elif extra == "shift":  # congruent to basis[0] mod KEY_MOD, but unequal
        basis.append(basis[0] + KEY_MOD)
    coeff = st.integers(-3, 3)
    domain = draw(st.one_of(
        st.builds(Box, st.integers(0, 3)),
        st.lists(st.tuples(*[coeff] * len(basis)), min_size=1, max_size=12).map(
            lambda rows: ExplicitList(tuple(rows))
        ),
    ))
    members = sorted(_plain_sums(basis, domain))
    picked = draw(st.lists(st.sampled_from(members), max_size=6))
    lam = picked + [x + s * KEY_MOD for x in picked[:3] for s in (1, -2)]
    lam += draw(st.lists(key_ints, max_size=6))
    return Mesh(tuple(ip(b) for b in basis), domain), basis, [ip(x) for x in lam]


@settings(max_examples=150, deadline=None)
@given(int_meshes())
def test_keyed_route_matches_enumeration(case):
    mesh, basis, lam = case
    want = mesh_count(lam, mesh, method="enumerate")
    assert want == len(_plain_sums(basis, mesh.domain) & {p.as_int() for p in lam})
    assert _count_keyed(_Lambda(lam), mesh, 10**7) == want
    assert mesh_count(lam, mesh) == want
    assert count_distinct_sums(basis, mesh.domain) == len(_plain_sums(basis, mesh.domain))


@pytest.mark.parametrize(
    "b", [3, 2**61 + 5, 2**64 - 1, 10**700 + 1], ids=["3", "2^61+5", "2^64-1", "10^700+1"]
)
def test_keyed_route_rejects_residue_collisions(b):
    m = KEY_MOD
    one = Mesh((ip(b),), Box(1))  # members -b, 0, b
    shifted = [ip(b + m), ip(b - m), ip(-b + 2 * m), ip(m)]
    assert _count_keyed(_Lambda(shifted), one, 10**7) == 0
    assert mesh_count(shifted, one, method="enumerate") == 0
    pair = Mesh((ip(b), ip(b + m)), Box(1))  # not super-increasing: keyed route
    lam = [ip(2 * b), ip(b), ip(b + m), ip(3 * b), ip(2 * b + m)]
    # 2b shares its residue with the member 2b + m but is not a member
    assert mesh_count(lam, pair) == mesh_count(lam, pair, method="enumerate") == 3
    explicit = Mesh((ip(b), ip(b + m)), ExplicitList(((1, 1), (2, 0), (0, -1))))
    lam = [ip(2 * b + m), ip(2 * b), ip(-b - m), ip(-b), ip(m)]  # -b and m collide
    assert mesh_count(lam, explicit) == mesh_count(lam, explicit, method="enumerate") == 3


def test_ints_and_points_of_z_count_once_per_value():
    mesh = Mesh((ip(2), ip(3)), Box(1))
    lam = [ip(5), 5, LatticePoint(()), 0, 7]
    for method in ("auto", "enumerate"):
        assert mesh_count(lam, mesh, method=method) == 2
    digits = Mesh((ip(1), ip(10)), Box(1))
    assert mesh_count(lam, digits) == mesh_count(lam, digits, method="enumerate") == 1


def test_keyed_route_cap_uses_the_full_domain_size():
    mesh = Mesh((ip(1), ip(2), ip(7)), Box(3))
    with pytest.raises(MeshResourceError):
        mesh_count([ip(1)], mesh, cap=10)
    assert mesh_count([ip(1)], mesh) == 1


def test_count_distinct_sums_confirms_shared_residues():
    m = KEY_MOD
    for b in (1, 2**61, 10**700):
        for basis, h in (([b, b + m], 1), ([b, b + m, b], 1), ([b, 2 * b + m], 2), ([m, 2 * m], 1)):
            assert count_distinct_sums(basis, Box(h)) == len(_plain_sums(basis, Box(h)))
    # all 9 sums of (b, b + m) are distinct although only 5 residues are
    assert count_distinct_sums([5, 5 + m], Box(1)) == 9


@pytest.mark.parametrize("kind", ["distinct-sums", "colliding-sums"])
def test_count_distinct_sums_memory_per_row(kind):
    import random
    import tracemalloc

    # 5^8 rows: at this seed the random basis gives 5^8 distinct sums; the
    # sums of 3^i cover each integer in [-(3^8 - 1), 3^8 - 1] many times
    draw = random.Random(0).randrange
    basis = [draw(10**12) for _ in range(8)] if kind == "distinct-sums" else [3**i for i in range(8)]
    tracemalloc.start()
    try:
        count = count_distinct_sums(basis, Box(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == (5**8 if kind == "distinct-sums" else 2 * (3**8 - 1) + 1)
    # the keys and their sort order, 8 bytes a row each, and two bool masks;
    # exact sums are held a chunk at a time
    assert peak <= 20 * 5**8
