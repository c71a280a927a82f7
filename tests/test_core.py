import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidonlab
from sidonlab.core import (
    KEY_MOD,
    FpVector,
    LatticePoint,
    SignVector,
    add_keys,
    fp_rank,
    is_free,
    is_prime,
    next_prime,
    row_keys,
    signed_combination,
)


def lp(*coords):
    return LatticePoint(tuple(coords))


def span_size(vectors):
    """Brute-force span oracle: enumerate all linear combinations."""
    if not vectors:
        return 1
    p = vectors[0].p
    seen = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        acc = [0] * vectors[0].nu
        for c, v in zip(coeffs, vectors):
            acc = [(a + c * x) % p for a, x in zip(acc, v.coords)]
        seen.add(tuple(acc))
    return len(seen)


def rank_oracle(vectors):
    size = span_size(vectors)
    p = vectors[0].p if vectors else 2
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 786433, 2147483647}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 9, 91, 786432, 2147483646):
        assert not is_prime(n)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(32) == 37
    assert next_prime(3072) == 3079
    assert next_prime(786432) == 786433


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def test_fp_vector_reduces_and_checks_prime():
    v = FpVector(5, (7, -1))
    assert v.coords == (2, 4)
    with pytest.raises(ValueError):
        FpVector(4, (1, 2))
    with pytest.raises(ValueError):
        FpVector(5, ())


def test_fp_vector_centered():
    v = FpVector(5, (0, 1, 2, 3, 4))
    assert v.centered() == (0, 1, 2, -2, -1)


def test_lattice_point_canonical_form():
    assert lp(2, 0) == lp(2)
    assert lp(0, 0) == LatticePoint.zero()
    assert lp(1, 2).dim == 2
    assert LatticePoint.from_int(-3).as_int() == -3
    assert LatticePoint.zero().as_int() == 0
    with pytest.raises(ValueError):
        lp(1, 2).as_int()


def test_lattice_point_arithmetic():
    assert lp(1, 1) + lp(1, -1) == lp(2)
    assert lp(1, 2) - lp(1, 2) == LatticePoint.zero()
    assert 3 * lp(2, -1) == lp(6, -3)
    assert -lp(1, -2) == lp(-1, 2)


def test_sign_vector_validation():
    s = SignVector((1, 0, -1))
    assert len(s) == 3 and not s.is_zero()
    assert (-s).signs == (-1, 0, 1)
    with pytest.raises(ValueError):
        SignVector((2, 0))


# ---------------------------------------------------------------------------
# signed_combination
# ---------------------------------------------------------------------------


def test_signed_combination_examples():
    assert signed_combination([lp(1, 1), lp(1, -1)], SignVector((1, 1))) == lp(2)
    pts = [lp(1, 1), lp(1, -1), lp(1, 0)]
    assert signed_combination(pts, SignVector((0, 0, 0))).is_zero()
    triple = [lp(1, 0), lp(0, 1), lp(1, 1)]
    assert signed_combination(triple, SignVector((1, 1, -1))).is_zero()


def test_signed_combination_length_mismatch():
    with pytest.raises(ValueError):
        signed_combination([lp(1)], SignVector((1, 1)))


def test_signed_combination_negation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(0, 6))
        pts = [lp(*rng.integers(-5, 6, size=3)) for _ in range(n)]
        eps = SignVector(tuple(int(s) for s in rng.integers(-1, 2, size=n)))
        assert signed_combination(pts, -eps) == -signed_combination(pts, eps)


# ---------------------------------------------------------------------------
# fp_rank / is_free
# ---------------------------------------------------------------------------


def test_fp_rank_examples():
    basis = [FpVector(7, tuple(int(i == j) for j in range(4))) for i in range(4)]
    assert fp_rank(basis) == 4
    v = FpVector(5, (1, 3))
    assert fp_rank([v, v]) == 1
    triple = [FpVector(5, (1, 1)), FpVector(5, (1, 4)), FpVector(5, (2, 0))]
    assert fp_rank(triple) == 2
    assert fp_rank([]) == 0


def test_is_free_examples():
    assert is_free([])
    e1, e2 = FpVector(3, (1, 0)), FpVector(3, (0, 1))
    assert is_free([e1, e2])
    triple = [FpVector(5, (1, 1)), FpVector(5, (1, 4)), FpVector(5, (2, 0))]
    assert not is_free(triple)


def test_fp_rank_mixed_inputs_rejected():
    with pytest.raises(ValueError):
        fp_rank([FpVector(3, (1, 0)), FpVector(5, (1, 0))])
    with pytest.raises(ValueError):
        fp_rank([FpVector(3, (1, 0)), FpVector(3, (1, 0, 0))])


def test_fp_rank_vs_span_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        nu = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        vecs = [FpVector(p, tuple(int(x) for x in rng.integers(0, p, nu))) for _ in range(n)]
        assert fp_rank(vecs) == rank_oracle(vecs)


def test_fp_rank_invariances():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = int(rng.choice([3, 5, 7]))
        nu = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        vecs = [FpVector(p, tuple(int(x) for x in rng.integers(0, p, nu))) for _ in range(n)]
        r = fp_rank(vecs)
        assert r <= min(nu, n)
        perm = list(rng.permutation(n))
        assert fp_rank([vecs[i] for i in perm]) == r
        scale = int(rng.integers(1, p))
        scaled = [scale * vecs[0]] + vecs[1:]
        assert fp_rank(scaled) == r
        # monotone under inclusion
        assert fp_rank(vecs[: n - 1]) <= r


def test_fp_rank_large_prime():
    p = 2147483647
    vecs = [FpVector(p, (1, 2, 3)), FpVector(p, (2, 4, 6)), FpVector(p, (0, 1, 0))]
    assert fp_rank(vecs) == 2


# ---------------------------------------------------------------------------
# the row key of the exact joins
# ---------------------------------------------------------------------------


def _python_keys(rows, weights):
    return [sum(int(x) * int(w) for x, w in zip(row, weights)) % KEY_MOD for row in rows]


# Rows at the edge of the int64 product: every entry has magnitude at most
# peak = (2^log_bound - 1) // dim + offset and one row reaches it in every
# column.  The product route takes dim * peak < 2^32 (log_bound 32, offset
# <= 0).  With the widest weights (2^31 - 1 past W_0) a row of peaks at
# log_bound 33 sums past 2^63 for dim >= 2, so a looser threshold fails.
@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([32, 33]),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([1, -1]),
    st.integers(0, 2**32 - 1),
)
def test_row_keys_product_equals_the_python_route_at_its_threshold(
    dim, log_bound, offset, widest, sign, seed
):
    import sidonlab.core

    peak = (2**log_bound - 1) // dim + offset
    rng = np.random.default_rng(seed)
    rows = rng.integers(-peak, peak + 1, size=(5, dim))
    rows[0] = sign * peak
    rows[1, seed % dim] = -sign * peak
    weights = sidonlab.core._key_weights(dim)
    if widest:
        weights = np.array([1] + [2**31 - 1] * (dim - 1), dtype=np.int64)[:dim]
    saved = sidonlab.core._key_weights
    sidonlab.core._key_weights = lambda d: weights
    try:
        fast = row_keys(rows)
        slow = row_keys(rows.tolist())
        narrow = row_keys(rows.astype(np.int32 if peak < 2**31 else np.int64))
    finally:
        sidonlab.core._key_weights = saved
    assert fast.dtype == slow.dtype == np.int64
    assert fast.tolist() == slow.tolist() == narrow.tolist() == _python_keys(rows, weights)


big_ints = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**40), 2**40),
    st.builds(lambda c, e: c * KEY_MOD + e, st.integers(-3, 3), st.integers(-2, 2)),
    st.integers(-(10**30), 10**30),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda dim: st.tuples(*[st.lists(big_ints, min_size=dim, max_size=dim)] * 2)
))
def test_row_keys_are_linear(pair):
    u, v = pair
    ku, kv = row_keys([u])[0], row_keys([v])[0]
    plus = [a + b for a, b in zip(u, v)]
    minus = [a - b for a, b in zip(u, v)]
    assert row_keys([plus])[0] == add_keys(np.array([ku]), kv)[0]
    assert row_keys([minus])[0] == add_keys(np.array([ku]), -kv % KEY_MOD)[0]
    small = np.array([u, v, plus, minus], dtype=object)
    if all(abs(x) < 2**20 for x in small.ravel()):  # the int64 product route
        assert row_keys(small.astype(np.int64)).tolist() == row_keys(small.tolist()).tolist()


def test_an_integer_keys_as_its_residue():
    xs = [0, 5, -1, KEY_MOD, KEY_MOD + 3, -(2**70), 10**700]
    assert row_keys([(x,) for x in xs]).tolist() == [x % KEY_MOD for x in xs]
    assert row_keys(np.array([[3], [-4]])).tolist() == [3, KEY_MOD - 4]
    assert row_keys([]).shape == (0,)


def test_the_key_format_has_one_home():
    """2^61 - 1 is written once, no join keys rows by a void view, and the
    QI search and the mesh routes build no object arrays."""
    src = Path(sidonlab.__file__).parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in src.glob("*.py")}
    written = [name for name, text in texts.items()
               for _ in re.finditer(r"2\s*\*\*\s*61\s*-\s*1", text)]
    assert written == ["core.py"]
    assert not [name for name, text in texts.items() if "np.void" in text]
    for name in ("mesh.py", "verify.py"):
        tree = ast.parse(texts[name])
        owners = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        loose = [node.lineno for node in ast.walk(tree)  # object.__setattr__ is fine
                 if isinstance(node, ast.Name) and node.id == "object" and id(node) not in owners]
        assert loose == [], (name, loose)
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "object_"], name
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value == "O"], name
