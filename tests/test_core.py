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
    exact_rows,
    first_matches,
    fp_rank,
    is_free,
    is_prime,
    key_hits,
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


def test_signed_combination_mixes_integers_and_lattice_points():
    # an integer x among LatticePoints is read as the point (x,), in either order
    assert signed_combination([1, lp(1, 2)], SignVector((1, 1))) == lp(2, 2)
    assert signed_combination([lp(1, 2), 1], SignVector((1, -1))) == lp(0, 2)
    assert signed_combination([np.int64(3), lp(3)], SignVector((1, -1))).is_zero()
    total = signed_combination([3, 5], SignVector((1, -1)))
    assert total == -2 and type(total) is int


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


# terms on both sides of each digit boundary: int64's ends, 2^64, 2^120 with
# carries into the next digit, KEY_MOD multiples (whose keys all agree) and 0
_EXACT_TERMS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.sampled_from([2**62 - 1, -(2**62 - 1), 2**63, -(2**63), 2**64, 2**120, -(2**120)]),
    st.builds(lambda a, b, c: a * 2**120 + b * 2**62 + c, *[st.integers(-2, 2)] * 3),
    st.builds(lambda c, e: c * KEY_MOD + e, st.integers(-3, 3), st.integers(-1, 1)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[_EXACT_TERMS] * dim), min_size=1, max_size=5),
    st.integers(0, 3),
)), st.data())
def test_exact_rows_equal_exactly_when_the_sums_do(case, data):
    terms, h = case
    n = len(terms)
    width = data.draw(st.integers(0, n), label="coefficient columns")
    coeffs = data.draw(st.lists(st.lists(st.integers(-h, h), min_size=width, max_size=width),
                                min_size=1, max_size=12), label="coefficients")
    rows = [tuple(r) for r in exact_rows(np.array(coeffs, dtype=np.int64).reshape(len(coeffs), width),
                                         terms).tolist()]
    # the sums, then the terms past the coefficient columns as rows of their own
    sums = [tuple(sum(c * t[d] for c, t in zip(row, terms)) for d in range(len(terms[0])))
            for row in coeffs] + terms[width:]
    assert len(rows) == len(sums)
    assert len(set(rows)) == len(set(sums)) == len(set(zip(rows, sums)))
    assert [not any(r) for r in rows] == [not any(s) for s in sums]
    # the same terms write one format, whatever the coefficients
    again = exact_rows(np.array(coeffs[::-1], dtype=np.int64).reshape(len(coeffs), width), terms)
    assert [tuple(r) for r in again.tolist()[:len(coeffs)]] == rows[:len(coeffs)][::-1]


def test_exact_rows_refuse_coefficients_past_the_int64_bound():
    assert exact_rows(np.array([[2**29, 2**29]]), [2**200, -1]).shape == (1, 7)
    with pytest.raises(ValueError):
        exact_rows(np.array([[2**29, 2**29 + 1]]), [1, 1])


def _first_matches_oracle(left, right):
    first = {}
    for i, row in enumerate(map(tuple, left)):
        first.setdefault(row, i)
    return [first.get(row, -1) for row in map(tuple, right)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.tuples(*[
    st.lists(st.lists(st.integers(-2, 2), min_size=width, max_size=width), max_size=15)] * 2
)))
def test_first_matches_gives_the_least_equal_left_index(sides):
    width = max(len(r) for r in sides[0] + sides[1]) if sides[0] + sides[1] else 1
    left, right = (np.array(side, dtype=np.int64).reshape(-1, width) for side in sides)
    assert first_matches(left, right).tolist() == _first_matches_oracle(left, right)


def test_first_matches_on_duplicates_misses_and_empty_sides():
    left = np.array([[1, 2], [3, 4], [1, 2], [0, 0]])
    right = np.array([[1, 2], [5, 5], [0, 0], [3, 4], [1, 2]])
    assert first_matches(left, right).tolist() == [0, -1, 3, 1, 0]
    assert first_matches(left[:0], right).tolist() == [-1] * 5
    assert first_matches(left, right[:0]).tolist() == []
    assert first_matches(np.array([[7]]), np.array([[8], [6]])).tolist() == [-1, -1]


# small keys, so sides share some, and the extreme keys 0 and KEY_MOD - 1
join_keys = st.one_of(st.integers(0, 6), st.sampled_from((0, 1, KEY_MOD - 2, KEY_MOD - 1)),
                      st.integers(0, KEY_MOD - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(join_keys, max_size=12), st.lists(join_keys, max_size=12))
def test_key_hits_agrees_with_a_set_oracle(keys, needles):
    sorted_keys = np.sort(np.array(keys, dtype=np.int64))
    needles = np.array(needles, dtype=np.int64)  # unsorted, with repeats
    assert key_hits(sorted_keys, needles).tolist() == [x in set(keys) for x in needles.tolist()]
    swapped = key_hits(np.sort(needles), sorted_keys)
    assert swapped.tolist() == [x in set(needles.tolist()) for x in sorted_keys.tolist()]


def test_key_hits_on_empty_sides_and_needles_past_every_key():
    keys = np.array([3, 5, 5, 9], dtype=np.int64)
    none = np.zeros(0, dtype=np.int64)
    # 0 and 2 land before every key, 10 and KEY_MOD - 1 past the last one (take's clip)
    needles = np.array([0, 2, 3, 4, 5, 9, 10, KEY_MOD - 1, 5], dtype=np.int64)
    assert key_hits(keys, needles).tolist() == [0, 0, 1, 0, 1, 1, 0, 0, 1]
    assert key_hits(np.sort(needles), keys).tolist() == [1, 1, 1, 1]
    assert key_hits(none, needles).tolist() == [False] * len(needles)
    assert key_hits(keys, none).tolist() == []
    assert key_hits(none, none).tolist() == []
    edges = np.array([0, KEY_MOD - 1], dtype=np.int64)
    assert key_hits(edges, np.array([KEY_MOD - 1, 1, 0])).tolist() == [1, 0, 1]


def test_the_key_format_has_one_home():
    """2^61 - 1 is written once, no join keys rows by a void view, the QI
    search and the mesh routes build no object arrays, and they find key
    matches by ``key_hits`` alone: no ``np.isin``, no ``np.unique`` (which
    imports numpy.ma) and no ``np.repeat`` pair expansion."""
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
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr in ("isin", "unique", "repeat")], name


def test_the_public_surface_is_consistent():
    """Every name in a module's __all__ exists, and every name the package
    imports from one of its modules is in that module's __all__, so a
    deleted function cannot leave a stale export behind."""
    import importlib

    src = Path(sidonlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"sidonlab.{path.stem}" if path.stem != "__init__"
                                         else "sidonlab")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], (path.name, missing)
    tree = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"sidonlab.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in exported]
        assert unlisted == [], (node.module, unlisted)


# The oracle caps: only tests lower them, to show that the oracles refuse.
_TEST_ONLY_PARAMETERS = {("mesh_members", "cap"), ("verify_qi_naive", "n_max")}


def test_every_defaulted_public_parameter_is_set_by_the_library():
    """A parameter with a default that no call in sidonlab passes can be set
    only by tests: every run of the program takes its default.  So each
    such parameter of a function named in a module's __all__ must be
    passed, by position or keyword, by at least one call in the package
    (calls are matched on the callee's name), unless it is an oracle cap."""
    src = Path(sidonlab.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    public = {}
    for tree in trees:
        names = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        public.update((node.name, node.args) for node in tree.body
                      if isinstance(node, ast.FunctionDef) and names and node.name in names[0])
    passed = {name: set() for name in public}
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name not in public:
            continue
        args = public[name]
        positional = [a.arg for a in args.posonlyargs + args.args]
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            passed[name].update(positional, (a.arg for a in args.kwonlyargs))
        passed[name].update(positional[:len(call.args)], (k.arg for k in call.keywords))
    defaulted = set()
    for name, args in public.items():
        positional = args.posonlyargs + args.args
        defaulted.update((name, a.arg) for a in positional[len(positional) - len(args.defaults):])
        defaulted.update((name, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None)
    assert _TEST_ONLY_PARAMETERS <= defaulted  # no stale exemption
    unset = sorted(p for p in defaulted - _TEST_ONLY_PARAMETERS if p[1] not in passed[p[0]])
    assert unset == []
