import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonlab.construction import build_matrix
from sidonlab.core import KEY_MOD, FpVector, LatticePoint, SignVector, signed_combination
from sidonlab.verify import (
    DependencyWitness,
    QiResourceError,
    verify_qi_exhaustive,
    verify_qi_naive,
    verify_qi_structural,
)


def lp(*coords):
    return LatticePoint(tuple(coords))


def random_points(rng, n, dim=3, span=3):
    return [lp(*rng.integers(-span, span + 1, size=dim)) for _ in range(n)]


def test_base_matrix_columns_are_qi():
    qi, witness = verify_qi_exhaustive(build_matrix(1).columns_as_points())
    assert qi and witness is None


def test_dependent_triple():
    pts = [lp(1, 0), lp(0, 1), lp(1, 1)]
    qi, witness = verify_qi_exhaustive(pts)
    assert not qi
    assert witness is not None and witness.validates(pts)
    # the naive oracle agrees and also produces a valid witness
    qi2, w2 = verify_qi_naive(pts)
    assert not qi2 and w2.validates(pts)


def test_empty_list_is_vacuously_qi():
    assert verify_qi_exhaustive([]) == (True, None)
    assert verify_qi_naive([]) == (True, None)


def test_duplicate_elements_are_a_dependency():
    g = lp(3, -1)
    qi, witness = verify_qi_exhaustive([g, g])
    assert not qi
    assert sorted(witness.eps.signs) == [-1, 1]


def test_zero_element_is_a_dependency():
    qi, witness = verify_qi_exhaustive([lp(2), LatticePoint.zero(), lp(5)])
    assert not qi and witness.validates([lp(2), LatticePoint.zero(), lp(5)])


def test_exhaustive_reads_ints_and_points_of_z_alike():
    forms = (list, lambda xs: list(np.array(xs, dtype=np.int64)), lambda xs: [lp(x) for x in xs])
    for values, qi in (([3, 5, 8, 13, 40], False), ([1, 3, 9, 27, 81], True)):
        results = []
        for form in forms:
            pts = form(values)
            results.append(verify_qi_exhaustive(pts))
            assert results[-1][0] == qi and (qi or results[-1][1].validates(pts))
        assert results[0] == results[1] == results[2]
    # ints mixed with points of Z^2: (4, 2) - (1, 2) - 3 = 0
    mixed = [lp(1, 2), 3, lp(4, 2), np.int64(7), lp(1)]
    qi, witness = verify_qi_exhaustive(mixed)
    assert not qi and witness.validates(mixed) and verify_qi_naive(mixed)[0] is False
    assert verify_qi_exhaustive([lp(1, 2), 3, lp(0, 7)]) == (True, None)


def test_witness_must_be_nonzero():
    with pytest.raises(ValueError):
        DependencyWitness(SignVector((0, 0)))


def test_resource_cap():
    pts = [lp(2**i) for i in range(30)]
    with pytest.raises(QiResourceError):
        verify_qi_exhaustive(pts, n_max=24)


def test_mitm_agrees_with_naive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n = int(rng.integers(0, 9))
        pts = random_points(rng, n, dim=int(rng.integers(1, 4)), span=2)
        qi_fast, w_fast = verify_qi_exhaustive(pts)
        qi_slow, w_slow = verify_qi_naive(pts)
        assert qi_fast == qi_slow
        if not qi_fast:
            assert w_fast.validates(pts) and w_slow.validates(pts)


def test_qi_invariant_under_permutation_and_negation():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        pts = random_points(rng, n, dim=2, span=2)
        qi, _ = verify_qi_exhaustive(pts)
        perm = list(rng.permutation(n))
        assert verify_qi_exhaustive([pts[i] for i in perm])[0] == qi
        flipped = [-p if rng.random() < 0.5 else p for p in pts]
        assert verify_qi_exhaustive(flipped)[0] == qi


def test_returned_witness_revalidates():
    rng = np.random.default_rng(47)
    found = 0
    for _ in range(60):
        pts = random_points(rng, int(rng.integers(3, 9)), dim=1, span=2)
        qi, witness = verify_qi_exhaustive(pts)
        if not qi:
            found += 1
            assert not witness.eps.is_zero()
            assert signed_combination(pts, witness.eps).is_zero()
    assert found > 0  # one-dimensional small points collide often


@st.composite
def point_sets(draw, max_points=8, max_coord=3):
    dim = draw(st.integers(1, 3))
    coord = st.integers(-max_coord, max_coord)
    rows = draw(st.lists(st.tuples(*[coord] * dim), max_size=max_points))
    return [LatticePoint(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_packed_kernel_matches_naive_oracle(pts):
    qi_fast, w_fast = verify_qi_exhaustive(pts)
    qi_slow, w_slow = verify_qi_naive(pts)
    assert qi_fast == qi_slow
    if qi_fast:
        assert w_fast is None and w_slow is None
    else:
        assert w_fast.validates(pts) and w_slow.validates(pts)


# Witnesses returned by the dict-based search this kernel replaced.
PINNED_WITNESSES = [
    pytest.param(
        [lp(1, 0), lp(0, 1), lp(1, 1), lp(5, 7), lp(11, -3), lp(40, 2)],
        (1, 1, -1, 0, 0, 0),
        id="left-half-only",
    ),
    pytest.param(
        [lp(1000), lp(10**5), lp(10**7), lp(3), lp(4), lp(7)],
        (0, 0, 0, 1, 1, -1),
        id="right-half-only",
    ),
    pytest.param(
        [lp(1, 0, 2), lp(10, 1), lp(100), lp(111, 1, 2), lp(5000), lp(0, 0, 7000)],
        (-1, -1, -1, 1, 0, 0),
        id="cross-half-join",
    ),
    pytest.param([lp(3, -1), lp(3, -1)], (-1, 1), id="duplicate-pair"),
    pytest.param([lp(2), LatticePoint.zero(), lp(5)], (0, 1, 0), id="zero-element"),
    pytest.param(
        [lp(2**70, 1), lp(-(2**70) + 3, 2**66), lp(5, -(2**71)),
         lp(-2, 2**66 + 2**71 + 1), lp(7, 2**69)],
        (-1, -1, 1, 1, 0),
        id="cross-half-python-ints",
    ),
]


@pytest.mark.parametrize("pts, signs", PINNED_WITNESSES)
def test_witnesses_are_pinned(pts, signs):
    qi, witness = verify_qi_exhaustive(pts)
    assert not qi and witness.eps.signs == signs
    assert witness.validates(pts)


def test_python_int_path_matches_naive_oracle():
    rng = np.random.default_rng(71)
    big = 2**70
    for _ in range(30):
        n = int(rng.integers(1, 8))
        pts = [
            lp(*(int(a) * big + int(b) for a, b in rng.integers(-2, 3, size=(2, 2))))
            for _ in range(n)
        ]
        qi_fast, w_fast = verify_qi_exhaustive(pts)
        qi_slow, w_slow = verify_qi_naive(pts)
        assert qi_fast == qi_slow
        if not qi_fast:
            assert w_fast.validates(pts) and w_slow.validates(pts)
    # small coordinates, but eight of them
    for _ in range(30):
        pts = [lp(*(int(x) for x in rng.integers(-50, 51, size=8))) for _ in range(8)]
        pts.append(pts[0] + pts[1] - pts[2])  # one planted dependency
        qi_fast, w_fast = verify_qi_exhaustive(pts)
        qi_slow, w_slow = verify_qi_naive(pts)
        assert not qi_fast and not qi_slow
        assert w_fast.validates(pts) and w_slow.validates(pts)


@st.composite
def colliding_point_sets(draw):
    """Coordinates c * KEY_MOD + e: the keys see only e, so many signed sums
    that differ share a key; half the sets get a planted dependency."""
    dim = draw(st.integers(1, 2))
    coord = st.builds(
        lambda c, e: c * KEY_MOD + e, st.integers(-3, 3), st.sampled_from((0, 0, 1, -1))
    )
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7))
    if draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=3))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
        planted = tuple(sum(s * rows[i][c] for s, i in zip(signs, picks)) for c in range(dim))
        rows.insert(draw(st.integers(0, len(rows))), planted)
    return [LatticePoint(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(colliding_point_sets())
def test_forced_key_collisions_match_naive_oracle(pts):
    qi_fast, w_fast = verify_qi_exhaustive(pts)
    qi_slow, w_slow = verify_qi_naive(pts)
    assert qi_fast == qi_slow
    if not qi_fast:
        assert w_fast.validates(pts) and w_slow.validates(pts)


def test_forced_key_collisions_are_rejected():
    m = KEY_MOD
    # every key is 0, yet only the last set is dependent
    independent = [lp(m), lp(3 * m), lp(9 * m), lp(27 * m), lp(81 * m)]
    assert verify_qi_exhaustive(independent) == (True, None)
    qi, witness = verify_qi_exhaustive(independent + [lp(13 * m)])
    assert not qi and witness.validates(independent + [lp(13 * m)])
    assert verify_qi_naive(independent)[0]
    # 3 + m keys as 3 = key(1) + key(2), yet 1 + 2 != 3 + m
    pts = [lp(1), lp(2), lp(3 + m), lp(5 * m + 7)]
    assert verify_qi_exhaustive(pts) == verify_qi_naive(pts) == (True, None)


def _search_order_witness(pts):
    """The witness verify_qi_exhaustive promises, by plain enumeration: the
    first vanishing left prefix (shortest, then in product order), else the
    first right vector in product order with its first left match."""
    dim = max(p.dim for p in pts)
    rows = [p.coords + (0,) * (dim - p.dim) for p in pts]
    n, n_left = len(rows), len(rows) // 2

    def vanishes(signs):
        return not any(sum(s * x for s, x in zip(signs, col)) for col in zip(*rows))

    for step in range(1, n_left + 1):
        for prefix in itertools.product((0, 1, -1), repeat=step):
            if any(prefix) and vanishes(prefix):
                return prefix + (0,) * (n - step)
    for right in itertools.product((0, 1, -1), repeat=n - n_left):
        if any(right):
            for prefix in itertools.product((0, 1, -1), repeat=n_left):
                if vanishes(prefix + right):
                    return prefix + right
    return None


@settings(max_examples=100, deadline=None)
@given(colliding_point_sets())
def test_witness_order_holds_under_key_collisions(pts):
    qi, witness = verify_qi_exhaustive(pts)
    want = _search_order_witness(pts)
    assert (witness.eps.signs if witness else None) == want
    assert qi == (want is None)


# Coordinates on both sides of the int64 digits' limit: a point set whose
# sum of max|coordinate| reaches 2^63 is written in several digits.
_EDGE_COORDS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**62, 2**62 - 1, 2**63 - 1, -(2**63), 2**63, 2**70, -(2**100) + 1]),
    st.builds(lambda c, e: c * KEY_MOD + e, st.integers(-3, 3), st.integers(-1, 1)),
    st.builds(lambda a, b, c: a * 2**120 + b * 2**58 + c, *[st.integers(-2, 2)] * 3),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda dim: st.lists(st.tuples(*[_EDGE_COORDS] * dim), min_size=1, max_size=6)))
def test_exact_sum_digits_equal_exactly_when_the_sums_do(rows):
    from sidonlab.core import exact_rows
    from sidonlab.verify import _sign_rows

    n = len(rows)
    for start in sorted({0, n // 2}):
        length = n - start
        for _, signs in _sign_rows(np.arange(3**length), length):
            coeffs = np.zeros((len(signs), n), dtype=np.int64)
            coeffs[:, start:] = signs
            digits = [tuple(row) for row in exact_rows(coeffs, rows).tolist()]
            exact = [tuple(sum(int(s) * x for s, x in zip(row, col[start:])) for col in zip(*rows))
                     for row in signs]
            assert len(set(digits)) == len(set(exact)) == len(set(zip(digits, exact)))
            assert [not any(d) for d in digits] == [not any(e) for e in exact]


@pytest.mark.parametrize("rows", [
    [(2**62,), (2**62 - 1,), (1,)],                   # max|x| sums to 2^63: digits
    [(2**62 - 1,), (2**62,), (-1,), (3,)],            # ... and past it
    [(2**62 - 1,), (2**62 - 2,), (1,)],               # 2^63 - 2: one int64 product
    [(2**63 - 1, 1), (-(2**63), 5), (1, -6), (0, 1)],  # the int64 extremes
    [(2**100, 3), (2**100 - 2**58, 3), (2**58, 0)],   # a carry across digits
])
def test_witness_order_holds_at_the_int64_limit(rows):
    pts = [LatticePoint(row) for row in rows]
    qi, witness = verify_qi_exhaustive(pts)
    want = _search_order_witness(pts)
    assert want is not None and witness.eps.signs == want and not qi


def _keyless_points(n):
    """3^i * KEY_MOD: every key and every signed key sum is 0, yet the points
    are quasi-independent (dissociated in base 3)."""
    return [lp(3**i * KEY_MOD) for i in range(n)]


def test_colliding_keys_match_naive_oracle():
    for n in range(1, 11):
        pts = _keyless_points(n)
        assert verify_qi_exhaustive(pts) == verify_qi_naive(pts) == (True, None)
        dependent = pts + [lp(4 * KEY_MOD)]  # 3^0 + 3^1, once n >= 2
        qi_fast, w_fast = verify_qi_exhaustive(dependent)
        qi_slow, w_slow = verify_qi_naive(dependent)
        assert qi_fast == qi_slow == (n < 2)
        if not qi_fast:
            assert w_fast.validates(dependent) and w_slow.validates(dependent)


def test_colliding_keys_dependent_witness_follows_the_search_order():
    # every key is 0: 84 m = 3 m + 81 m joins a left point to a right one,
    # and -28 m = -(m + 27 m) two left points to a right one
    for extra in ([84], [-28], [84, -28], [-28, 84]):
        pts = _keyless_points(7) + [lp(c * KEY_MOD) for c in extra]
        qi, witness = verify_qi_exhaustive(pts)
        assert not qi and witness.eps.signs == _search_order_witness(pts)


def test_colliding_keys_cost_one_lookup_per_right_vector():
    # every (left, right) pair shares the key 0: 3^14 confirmations one by one
    pts = _keyless_points(14)
    start = time.perf_counter()
    assert verify_qi_exhaustive(pts) == (True, None)
    assert time.perf_counter() - start < 1.0


def test_left_phase_confirms_each_zero_key_prefix_once(monkeypatch):
    # every left prefix of 3^i * KEY_MOD keys to 0; a prefix ending in sign 0
    # repeats the one confirmed a step earlier, so step s confirms 2 * 3^(s-1)
    # prefixes (the right half's table then confirms all 3^m left sums, and
    # each of the 3^(n-m) - 1 nonzero right vectors is confirmed once)
    import collections

    import sidonlab.verify

    lengths = collections.Counter()
    sign_rows = sidonlab.verify._sign_rows

    def counted(indices, length):
        lengths[length] += len(indices)
        return sign_rows(indices, length)

    monkeypatch.setattr(sidonlab.verify, "_sign_rows", counted)
    n, m = 13, 6
    assert verify_qi_exhaustive(_keyless_points(n)) == (True, None)
    want = {s: 2 * 3 ** (s - 1) for s in range(1, m)}
    want[m] = 2 * 3 ** (m - 1) + 3**m
    want[n - m] = 3 ** (n - m) - 1
    assert dict(lengths) == want


def test_exhaustive_takes_only_lattice_points():
    pts = [FpVector(5, (1, 0)), FpVector(5, (0, 1)), FpVector(5, (1, 1))]
    with pytest.raises(TypeError):
        verify_qi_exhaustive(pts)
    qi, witness = verify_qi_naive(pts)  # the naive oracle stays generic
    assert not qi and witness.validates(pts)


# ---------------------------------------------------------------------------
# structural route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", range(1, 9))
def test_structural_accepts_built_matrices(nu):
    assert verify_qi_structural(build_matrix(nu))


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_structural_agrees_with_exhaustive(nu):
    m = build_matrix(nu)
    qi, _ = verify_qi_exhaustive(m.columns_as_points())
    assert verify_qi_structural(m) == qi


def test_tampered_identity_block_is_rejected():
    from sidonlab.construction import QiMatrix, n_nu

    m = build_matrix(2)
    entries = m.entries.copy()
    col = 2 * n_nu(1)  # first identity column
    entries[0, col] = 0
    tampered = QiMatrix(2, entries)
    assert not verify_qi_structural(tampered)
    qi, witness = verify_qi_exhaustive(tampered.columns_as_points())
    assert not qi and witness.validates(tampered.columns_as_points())


def test_bad_shape_and_entries_rejected():
    from sidonlab.construction import QiMatrix

    # the invariants are enforced at construction and again by the verifier
    with pytest.raises(ValueError):
        QiMatrix(2, build_matrix(1).entries.copy())
    bad = build_matrix(2).entries.copy()
    bad[0, 0] = 2
    with pytest.raises(ValueError):
        QiMatrix(2, bad)

    class Fake:
        nu = 2
        entries = build_matrix(1).entries

    with pytest.raises(ValueError):
        verify_qi_structural(Fake())
