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
    _count_fp_vectorized,
    _count_keyed,
    _digit_bounds,
    _Lambda,
    check_mesh_condition,
    count_distinct_sums,
    greedy_digits,
    mesh_count,
    mesh_members,
    random_meshes,
    sidon_mesh_bound,
    super_increasing,
)


def ip(x):
    return LatticePoint((x,))


def test_members_single_generator():
    m = Mesh((ip(1),), Box(1))
    assert mesh_members(m) == {-1, 0, 1}


def test_members_collisions_collapse():
    m = Mesh((ip(1), ip(2)), Box(1))
    assert mesh_members(m) == set(range(-3, 4))


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
    # F_p vectors of one (p, nu) form a basis only with each other
    for basis in ((FpVector(3, (1, 0)), ip(1)), (FpVector(3, (1, 0)), 2),
                  (FpVector(3, (1, 0)), FpVector(5, (1, 0))),
                  (FpVector(3, (1, 0)), FpVector(3, (1, 0, 1)))):
        with pytest.raises(ValueError, match="F_p vectors"):
            Mesh(basis, Box(1))


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
        members = sorted(mesh_members(mesh))
        values = members[::3] + [int(x) for x in rng.integers(-100, 100, 20)]
        lam = [ip(v) for v in values]
        assert _digit_bounds(mesh) is not None
        want = mesh_count(lam, mesh, method="enumerate")
        assert mesh_count(lam, mesh) == want
        # integers of any type are points of Z, in Lambda and in the basis
        ints = np.array(values)
        for plain in (mesh, Mesh(tuple(betas), Box(h)), Mesh(tuple(np.array(betas)), Box(h))):
            assert mesh_count(ints, plain) == mesh_count(ints, plain, method="enumerate") == want


def test_digit_route_with_explicit_domain():
    basis = (ip(1), ip(10), ip(200))
    dom = ExplicitList(((1, 0, 0), (1, 1, 0), (-1, 0, 1), (0, 0, 0)))
    mesh = Mesh(basis, dom)
    lam = [ip(x) for x in (0, 1, 11, 199, 210, -9, 9)]
    assert _digit_bounds(mesh) is not None
    assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate")


@st.composite
def _super_increasing_bases(draw):
    """(betas, bounds) with k <= 5 and bounds <= 3, super-increasing by
    construction: each beta is above 2 W and its predecessor, W the weight
    below it, plus a drawn gap."""
    bounds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    betas, weight = [], 0
    for bound in bounds:
        betas.append(max(2 * weight, betas[-1] if betas else 0) + 1 + draw(st.integers(0, 3)))
        weight += bound * betas[-1]
    return betas, bounds


@settings(max_examples=60, deadline=None)
@given(_super_increasing_bases())
def test_greedy_digits_matches_box_enumeration(basis):
    betas, bounds = basis
    assert super_increasing(zip(betas, bounds))
    expansions = {}
    for coeffs in itertools.product(*(range(-b, b + 1) for b in bounds)):
        value = sum(n * beta for n, beta in zip(coeffs, betas))
        assert value not in expansions
        expansions[value] = {i: n for i, n in enumerate(coeffs) if n}
    reach = sum(bound * beta for bound, beta in zip(bounds, betas))
    for x in range(-reach - 3, reach + 4):
        assert greedy_digits(x, betas, bounds) == expansions.get(x)


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
    lam = list(c.lambda_ints)
    meshes = [theorem1_witness(k, c)[0] for k in (4, 7, 11)]
    reports = check_mesh_condition(lam, meshes, BoundSpec("lower_quarter_k_log2_k"))
    assert all(r.passed for r in reports)


def test_random_meshes_deterministic():
    pool = [ip(x) for x in (1, 5, 25)]

    def rand_el(rng):
        return ip(int(rng.integers(1, 100)))

    kw = dict(count=20, k_choices=(1, 2, 3, 4, 5, 6), heights=(1, 2, 3))
    a = random_meshes(pool, rand_el, seed=3, **kw)
    b = random_meshes(pool, rand_el, seed=3, **kw)
    assert a == b
    c = random_meshes(pool, rand_el, seed=4, **kw)
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


@st.composite
def fp_meshes(draw):
    """An F_p mesh of nu from 1 to 40 (so at and past the sketch's 32
    columns), its basis dependent or not, and a Lambda holding some of its
    members, random rows and points of another (p, nu)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nu = draw(st.integers(1, 40))
    residue = st.integers(0, p - 1)
    vector = st.lists(residue, min_size=nu, max_size=nu).map(lambda c: _fp(p, c))
    basis = draw(st.lists(vector, min_size=1, max_size=3))
    if draw(st.booleans()):  # a combination of the others, or a repeat
        weights = draw(st.lists(residue, min_size=len(basis), max_size=len(basis)))
        basis.append(sum((w * b for w, b in zip(weights, basis)), FpVector.zero(p, nu)))
    coeff = st.integers(-2 * p, 2 * p)
    domain = draw(st.one_of(
        st.builds(Box, st.integers(0, 2)),
        st.lists(st.tuples(*[coeff] * len(basis)), min_size=1, max_size=10).map(
            lambda rows: ExplicitList(tuple(rows))),
    ))
    mesh = Mesh(tuple(basis), domain)
    members = sorted(mesh_members(mesh), key=lambda v: v.coords)
    lam = draw(st.lists(st.sampled_from(members), max_size=6))
    lam += draw(st.lists(vector, max_size=6))
    longer = st.lists(residue, min_size=nu + 1, max_size=nu + 1).map(lambda c: _fp(p, c))
    lam += draw(st.lists(longer, max_size=2))
    return mesh, lam


@settings(max_examples=120, deadline=None)
@given(fp_meshes())
def test_fp_sketch_route_matches_enumeration(case):
    mesh, lam = case
    want = mesh_count(lam, mesh, method="enumerate")
    assert _count_fp_vectorized(_Lambda(lam), mesh, None) == want
    assert mesh_count(lam, mesh) == want


def test_fp_route_confirms_every_member_when_every_sketch_is_zero(monkeypatch):
    # a zero projection gives every member and every point of Lambda the
    # sketch 0, so each match is decided by the whole-row confirmation alone
    import sidonlab.mesh

    monkeypatch.setattr(sidonlab.mesh, "_projection",
                        lambda nu: np.zeros((nu, min(nu, 32)), np.int64))
    rng = np.random.default_rng(13)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        nu, k = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        basis = [_fp(p, rng.integers(0, p, nu)) for _ in range(k)]
        basis.append(basis[0] + basis[-1])  # dependent
        rows = [tuple(int(c) for c in rng.integers(-2 * p, 2 * p, k + 1)) for _ in range(6)]
        for domain in (Box(int(rng.integers(0, 3))), ExplicitList(tuple(rows))):
            mesh = Mesh(tuple(basis), domain)
            members = sorted(mesh_members(mesh), key=lambda v: v.coords)
            lam = [members[i] for i in rng.choice(len(members), size=min(3, len(members)))]
            lam += [_fp(p, rng.integers(0, p, nu)) for _ in range(5)]
            assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate")


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
    return Mesh(tuple(ip(b) for b in basis), domain), basis, lam


@settings(max_examples=150, deadline=None)
@given(int_meshes())
def test_keyed_route_matches_enumeration(case):
    mesh, basis, ints = case
    lam = [ip(x) for x in ints]
    want = mesh_count(lam, mesh, method="enumerate")
    assert want == len(_plain_sums(basis, mesh.domain) & set(ints))
    assert _count_keyed(_Lambda(lam), mesh, 10**7) == want
    assert mesh_count(lam, mesh) == want
    # the basis as plain ints, mixed with points of Z, and Lambda as ints
    for plain in (basis, [ip(b) if j % 2 else b for j, b in enumerate(basis)]):
        assert mesh_count(ints, Mesh(tuple(plain), mesh.domain)) == want
        assert mesh_count(ints, Mesh(tuple(plain), mesh.domain), method="enumerate") == want
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


def test_coefficients_past_the_exact_rows_bound_count_by_enumeration():
    # sum_j max|n_j| = 2^30 is the last the keyed route takes (core.exact_rows'
    # int64 bound); past it, and past int64 itself at 2^70, meshes are enumerated
    for c in (2**29, 2**30, 2**70):
        mesh = Mesh((ip(3), ip(5)), ExplicitList(((c, 1), (1, c), (-c, 0), (2, 2))))
        lam = [ip(3 * c + 5), ip(3 + 5 * c), ip(-3 * c), ip(16), ip(17)]
        assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate") == 4


def test_ints_and_points_of_z_count_once_per_value():
    mesh = Mesh((ip(2), ip(3)), Box(1))
    lam = [ip(5), 5, LatticePoint(()), 0, 7]
    for method in ("auto", "enumerate"):
        assert mesh_count(lam, mesh, method=method) == 2
    digits = Mesh((ip(1), ip(10)), Box(1))
    assert mesh_count(lam, digits) == mesh_count(lam, digits, method="enumerate") == 1
    # Python ints, numpy int64s, 1-D LatticePoints and a mix of them, in the
    # basis and in Lambda, count alike on every integer route
    forms = (list, lambda xs: list(np.array(xs, dtype=np.int64)), lambda xs: [ip(x) for x in xs],
             lambda xs: [(int, np.int64, ip)[i % 3](x) for i, x in enumerate(xs)])
    values = [0, 5, 7, 11, 13, -3, 21, 5]
    for basis, digit_route, want in (((2, 3), False, 3), ((1, 10), True, 2)):
        for form_basis in forms:
            mesh = Mesh(tuple(form_basis(basis)), Box(1))
            assert mesh.basis == basis and all(type(b) is int for b in mesh.basis)
            assert (_digit_bounds(mesh) is not None) == digit_route  # else the keyed route
            assert all(type(v) is int for v in mesh_members(mesh))
            for form_lam in forms:
                for method in ("auto", "enumerate"):
                    assert mesh_count(form_lam(values), mesh, method=method) == want


def test_a_basis_mixing_points_of_z_and_z2_counts():
    mesh = Mesh((1, LatticePoint((1, 2))), Box(1))
    lam = [1, LatticePoint((2, 2)), LatticePoint((0, 2)), 5]
    assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate") == 3
    assert mesh_members(mesh) == {-1, 0, 1} | {
        LatticePoint((a, 2 * s)) for s in (1, -1) for a in (s - 1, s, s + 1)
    }


def test_domains_take_integers_only():
    with pytest.raises(TypeError):
        ExplicitList(((1.5, 2.7),))
    with pytest.raises(TypeError):
        Box(1.5)
    # bools and numpy integers are integers
    assert Box(np.int64(2)) == Box(2) and type(Box(np.int64(2)).height) is int
    assert ExplicitList(((True, np.int8(-1)),)).coeffs == ((1, -1),)
    # a basis of Z^2 whose members (1, 0) and (0, 0) are points of Z
    plane = Mesh((LatticePoint((1, 2)), LatticePoint((0, 2))), Box(1))
    assert mesh_count([1, 0, ip(1), LatticePoint((1, 2))], plane) == 3
    # integers of any type, in Lambda and in the basis, on every route
    for lam, basis, want in (([1, 2, 3], (1, 10), 1), (np.array([1, 2, 3]), (ip(1), ip(10)), 1),
                             ([np.int8(1), 2, ip(3)], (np.int64(1), ip(10)), 1),
                             ([1, 5, 6], (ip(2), 3), 2), ([1, 5, 6], (np.uint8(2), 3), 2)):
        for method in ("auto", "enumerate"):
            assert mesh_count(lam, Mesh(basis, Box(1)), method=method) == want


# Lambda and the sums are multiples of KEY_MOD: every key is 0, and Python's
# hash of an int is its residue mod KEY_MOD, so every hash is 0 as well
@pytest.mark.parametrize("h", [0, 1, 2, 5])
def test_colliding_keys_count_the_closed_forms(h):
    m = KEY_MOD
    lam = [ip(j * m) for j in range(-10 * h - 1, 10 * h + 2)]
    mesh = Mesh((ip(m), ip(3 * m)), Box(h))  # the sums j * m, |j| <= 4h
    assert mesh_count(lam, mesh) == mesh_count(lam, mesh, method="enumerate") == 8 * h + 1
    assert count_distinct_sums([m, 2 * m], Box(h)) == 6 * h + 1  # the sums j * m, |j| <= 3h
    assert count_distinct_sums([m, 2 * m], Box(h)) == len(_plain_sums([m, 2 * m], Box(h)))


def test_colliding_keys_take_no_hash_scan():
    import time

    m, h = KEY_MOD, 200
    lam = [ip(j * m) for j in range(-3000, 3001)]
    start = time.perf_counter()
    assert mesh_count(lam, Mesh((ip(m), ip(3 * m)), Box(h))) == 8 * h + 1
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert count_distinct_sums([m, 2 * m], Box(h)) == 6 * h + 1
    assert time.perf_counter() - start < 1.0


def test_routes_match_enumeration_when_every_key_is_zero(monkeypatch):
    # every member and every point of Lambda shares the key 0, so each match
    # is decided by the exact confirmation alone
    import sidonlab.mesh

    def zero_sums(basis, domain):
        size = (2 * domain.height + 1) ** len(basis) if isinstance(domain, Box) else len(domain.coeffs)
        return np.zeros(size, dtype=np.int64)

    monkeypatch.setattr(sidonlab.mesh, "row_keys", lambda rows: np.zeros(len(rows), np.int64))
    monkeypatch.setattr(sidonlab.mesh, "_sumset_keys", zero_sums)
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        basis = [int(b) for b in rng.integers(-9, 10, k)]
        rows = [tuple(int(c) for c in rng.integers(-3, 4, k)) for _ in range(6)]
        for domain in (Box(int(rng.integers(0, 3))), ExplicitList(tuple(rows))):
            mesh = Mesh(tuple(ip(b) for b in basis), domain)
            members = sorted(_plain_sums(basis, domain))
            lam = [ip(int(x)) for x in rng.choice(members, 3)]
            lam += [ip(int(x)) for x in rng.integers(-40, 41, 8)]
            assert _count_keyed(_Lambda(lam), mesh, None) == mesh_count(lam, mesh, method="enumerate")
            assert count_distinct_sums(basis, domain) == len(members)
    for _ in range(60):
        p = int(rng.choice([2, 2, 3, 5]))
        nu, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        basis = tuple(_fp(p, rng.integers(0, p, nu)) for _ in range(k))
        rows = [tuple(int(c) for c in rng.integers(-2 * p, 2 * p, k)) for _ in range(5)]
        rows += [tuple(c + p for c in rows[0]), tuple(c - 2 * p for c in rows[1])]  # repeat mod p
        lam = [_fp(p, rng.integers(0, p, nu)) for _ in range(8)]
        # heights with 2h+1 below, at and past p: boxes at p = 2 repeat every residue
        for domain in (Box(int(rng.integers(0, p + 2))), ExplicitList(tuple(rows))):
            mesh = Mesh(basis, domain)
            assert _count_fp_vectorized(_Lambda(lam), mesh, None) == mesh_count(
                lam, mesh, method="enumerate")


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
