import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqincidence import ffield
from fqincidence.errors import DegreeOutOfRange, DivisionByZero, NotPrime
from fqincidence.ffield import FieldSpec, is_prime, make_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]
# every extension field the tables serve with q <= 256, and larger samples
EXT_FIELDS_UP_TO_256 = [
    (p, n) for p in (2, 3, 5, 7, 11, 13) for n in (2, 3, 4) if p**n <= 256
]
LARGE_EXT_FIELDS = [(5, 4), (7, 3), (31, 4), (101, 3), (1021, 2)]


def test_make_field_prime():
    fs = make_field(3, 1)
    assert fs.q == 3
    assert fs.q_mod4 == 3
    assert fs.modulus == (0, 1)


def test_make_field_gf9_modulus_is_x2_plus_1():
    # x^2 has the root 0 and every x^2 + c1*x with c0 = 0 does too, so the
    # first irreducible in low-degree-first order is x^2 + 1 (no root mod 3).
    fs = make_field(3, 2)
    assert fs.q == 9
    assert fs.modulus == (1, 0, 1)


def test_make_field_gf8():
    fs = make_field(2, 3)
    assert fs.q == 8
    assert fs.q_mod4 == 0


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(DegreeOutOfRange):
        make_field(3, 5)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        make_field(1048583, 1)  # prime above the order cap


def test_modulus_is_irreducible_by_brute_force():
    # no root, and for degree 4 no monic quadratic divisor either
    for p, n in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        fs = make_field(p, n)
        mod = fs.modulus
        for x in range(p):
            val = sum(c * x**i for i, c in enumerate(mod)) % p
            assert val != 0, (p, n, x)
        if n == 4:
            for g0 in range(p):
                for g1 in range(p):
                    g = [g0, g1, 1]
                    if any(sum(c * x**i for i, c in enumerate(g)) % p == 0
                           for x in range(p)):
                        continue
                    r = list(mod)
                    for i in range(len(r) - 1, 1, -1):
                        c = r[i]
                        if c:
                            for j in range(3):
                                r[i - 2 + j] = (r[i - 2 + j] - c * g[j]) % p
                    assert any(r[:2]), (p, n, g)


def test_gf7_mul():
    fs = make_field(7, 1)
    assert fs.mul(3, 5) == 1


def test_gf9_generator_squares_to_two():
    fs = make_field(3, 2)
    # index 3 encodes the class of x; x^2 = -1 = 2 under modulus x^2 + 1
    assert fs.mul(3, 3) == 2


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_lagrange_pow(p, n):
    fs = make_field(p, n)
    for a in range(1, fs.q):
        assert fs.pow(a, fs.q - 1) == 1


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_field_axioms(p, n):
    fs = make_field(p, n)
    q = fs.q
    if q <= 16:
        triples = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    else:
        rng = random.Random(20240 + q)
        triples = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(500)]
    for a, b, c in triples:
        assert fs.add(a, b) == fs.add(b, a)
        assert fs.mul(a, b) == fs.mul(b, a)
        assert fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
        assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
        assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))
    for a in range(q):
        assert fs.add(a, 0) == a
        assert fs.mul(a, 1) == a
        assert fs.mul(a, 0) == 0
        assert fs.add(a, fs.neg(a)) == 0
        if a:
            assert fs.mul(a, fs.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1), (7, 1), (13, 1), (2, 4)])
def test_inverse_is_multiplicative(p, n):
    fs = make_field(p, n)
    for a in range(1, fs.q):
        for b in range(1, fs.q):
            assert fs.inv(fs.mul(a, b)) == fs.mul(fs.inv(a), fs.inv(b))


def test_inv_zero_raises():
    fs = make_field(5, 1)
    with pytest.raises(DivisionByZero):
        fs.inv(0)


def test_sub_and_pow_edge_cases():
    fs = make_field(3, 2)
    for a in range(9):
        for b in range(9):
            assert fs.add(fs.sub(a, b), b) == a
    assert fs.pow(0, 0) == 1
    assert fs.pow(0, 5) == 0
    with pytest.raises(ValueError):
        fs.pow(2, -1)


def test_is_square_known_values():
    assert make_field(7, 1).is_square(6) is False  # -1 with 7 = 3 mod 4
    assert make_field(13, 1).is_square(12) is True  # -1 with 13 = 1 mod 4
    assert make_field(3, 2).is_square(2) is True  # 2 = (x)^2 under x^2 + 1


def test_is_square_matches_brute_force_table():
    for p, n in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (2, 3),
                 (3, 2), (5, 2), (2, 4), (3, 4), (13, 2)]:
        fs = make_field(p, n)
        if fs.q > 169:
            continue
        squares = {fs.mul(a, a) for a in fs.elements()}
        for e in fs.elements():
            assert fs.is_square(e) == (e in squares), (p, n, e)


def test_elements_enumeration():
    assert list(make_field(3, 1).elements()) == [0, 1, 2]
    assert len(list(make_field(2, 2).elements())) == 4
    e9 = list(make_field(3, 2).elements())
    assert len(e9) == 9 and e9[0] == 0 and e9[1] == 1


def test_coeff_roundtrip_is_bijective():
    fs = make_field(3, 3)
    seen = set()
    for a in fs.elements():
        cs = fs.coeffs(a)
        assert fs.from_coeffs(cs) == a
        seen.add(cs)
    assert len(seen) == fs.q


def test_make_field_deterministic():
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(2, 4).modulus == make_field(2, 4).modulus


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (31, 4)])
def test_make_field_memoized(p, n):
    assert make_field(p, n) is make_field(p, n)


def test_fieldspec_validation():
    # q and q_mod4 are derived from (p, n), never passed in
    fs = FieldSpec(3, 2, (1, 0, 1))
    assert (fs.q, fs.q_mod4) == (9, 1)
    assert (FieldSpec(2, 3, (1, 1, 0, 1)).q, FieldSpec(7, 1, (0, 1)).q_mod4) == (8, 3)
    with pytest.raises(TypeError):
        FieldSpec(p=3, n=2, q=9, modulus=(1, 0, 1))
    # not monic; reducible: x^2 = x * x, x^2 + 2 = (x + 1)(x + 2) and
    # x^3 + 1 = (x + 1)(x^2 + 2x + 1) over GF(3), which unchecked gave wrong
    # products and sums or an IndexError; a coefficient outside [0, 3)
    for modulus in [(1, 0, 2), (0, 0, 1), (2, 0, 1), (1, 0, 0, 1), (4, 0, 1)]:
        with pytest.raises(ValueError, match="irreducible"):
            FieldSpec(3, len(modulus) - 1, modulus)
    with pytest.raises(NotPrime):
        FieldSpec(4, 2, (2, 1, 1))  # irreducible over GF(2), but 4 is no prime
    with pytest.raises(DegreeOutOfRange):
        FieldSpec(3, 5, (2, 1, 0, 0, 0, 1))
    with pytest.raises(DegreeOutOfRange):
        FieldSpec(2, 0, (1,))
    with pytest.raises(DegreeOutOfRange):
        FieldSpec(1048583, 1, (0, 1))  # prime above the order cap
    # the order cap comes before the primality test: 10^400 is never tested
    with pytest.raises(DegreeOutOfRange):
        FieldSpec(10**400, 1, (0, 1))
    with pytest.raises(DegreeOutOfRange):
        make_field(10**400, 1)


OPS = ("add", "sub", "neg", "mul", "inv", "pow", "is_square", "vmul", "vadd", "vneg", "vinv")


@pytest.mark.parametrize("p,n", [(7, 1), (2, 3), (3, 2), (5, 4)])
def test_ops_are_set_at_construction(p, n):
    fs = FieldSpec(p, n, make_field(p, n).modulus)
    assert set(OPS) <= vars(fs).keys()
    assert not any(hasattr(FieldSpec, op) for op in OPS)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(1048573)
    assert not is_prime(1) and not is_prime(9) and not is_prime(1048575)


# -- the table-driven backend against raw polynomial arithmetic ---------------

def raw_neg(fs, a):
    return fs.from_coeffs([-c for c in fs.coeffs(a)])


def raw_dot(fs, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = fs._add_raw(acc, fs._mul_raw(int(x), int(y)))
    return acc


def check_scalar_ops(fs, pairs):
    assert [fs.mul(a, b) for a, b in pairs] == [fs._mul_raw(a, b) for a, b in pairs]
    assert [fs.add(a, b) for a, b in pairs] == [fs._add_raw(a, b) for a, b in pairs]
    elems = sorted({a for a, _ in pairs})
    assert [fs.neg(a) for a in elems] == [raw_neg(fs, a) for a in elems]
    assert all(fs._mul_raw(a, fs.inv(a)) == 1 for a in elems if a)


@pytest.mark.parametrize("p,n", EXT_FIELDS_UP_TO_256)
def test_tables_match_raw_arithmetic_exhaustively(p, n):
    fs = make_field(p, n)
    check_scalar_ops(fs, [(a, b) for a in range(fs.q) for b in range(fs.q)])


@pytest.mark.parametrize("p,n", LARGE_EXT_FIELDS)
def test_tables_match_raw_arithmetic_sampled(p, n):
    fs = make_field(p, n)
    rng = random.Random(100 * p + n)
    elems = [rng.randrange(fs.q) for _ in range(2000)]
    pairs = [(a, rng.randrange(fs.q)) for a in elems]
    pairs += [(0, a) for a in elems[:20]] + [(a, 0) for a in elems[:20]]
    pairs += [(a, raw_neg(fs, a)) for a in elems[:20]] + [(0, 0), (1, fs.q - 1)]
    check_scalar_ops(fs, pairs)
    with pytest.raises(DivisionByZero):
        fs.inv(0)
    with pytest.raises(ValueError):
        fs.pow(2, -1)
    # O(q) int32 tables: under 32 MB even at q = 1021^2
    assert sum(getattr(fs, t).nbytes for t in ("_exp", "_log")) <= 32 << 20


# odd extension fields by the reduction tables of vadd and add: one (GF(3^2),
# GF(3^4)), two (GF(5^4), GF(31^2), GF(1021^2), the last with q > 2^16) and
# three (GF(101^3)); GF(1048573), whose products overflow int32
@pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (1048573, 1), (2, 4), (3, 2), (3, 4), (5, 4),
                                 (31, 2), (101, 3), (1021, 2)])
def test_vectorised_ops_match_scalar(p, n):
    fs = make_field(p, n)
    rng = np.random.default_rng(fs.q)
    a = rng.integers(0, fs.q, size=300)
    b = rng.integers(0, fs.q, size=300)
    a[:10] = 0
    b[10:20] = 0
    b[20:40] = [fs.neg(int(x)) for x in a[20:40]]
    a[40], b[40] = fs.q - 1, fs.q - 1  # the largest digit in every run
    pairs = list(zip(a.tolist(), b.tolist()))
    assert [fs.add(x, y) for x, y in pairs] == [fs._add_raw(x, y) for x, y in pairs]
    assert [fs.sub(x, y) for x, y in pairs] == [fs._add_raw(x, raw_neg(fs, y)) for x, y in pairs]
    # every field reads indices of any integer dtype that holds them
    dtypes = [np.int64, np.int32, np.uint16, np.uint8]
    for dtype in [t for t in dtypes if fs.q <= np.iinfo(t).max + 1]:
        a, b = a.astype(dtype), b.astype(dtype)
        assert fs.vmul(a, b).tolist() == [fs.mul(x, y) for x, y in pairs]
        assert fs.vadd(a, b).tolist() == [fs.add(x, y) for x, y in pairs]
        assert fs.vneg(a).tolist() == [fs.neg(x) for x in a.tolist()]
        # broadcasting, as the pairwise kernels use it
        table = fs.vadd(a[:30, None], b[None, :30])
        assert table.tolist() == [[fs.add(x, y) for y in b[:30].tolist()] for x in a[:30].tolist()]
        cube = fs.vadd(a[:24].reshape(2, 3, 4), b[:4])
        assert cube.shape == (2, 3, 4)
        assert cube.ravel().tolist() == [fs.add(x, y) for x, y in zip(a[:24].tolist(), b[:4].tolist() * 6)]
        if p > 2 and n > 1:  # odd extension sums come back as narrow indices
            assert {table.dtype, cube.dtype} == {np.dtype(ffield.narrow_dtype(fs.q))}
        if n == 1:  # prime fields compute in int64
            assert {fs.vmul(a, b).dtype, table.dtype, fs.vneg(a).dtype} == {np.dtype(np.int64)}


@pytest.mark.parametrize("p,n", [(7, 1), (2, 3), (3, 2), (5, 4)])
def test_dot_blocks_match_raw_dot(p, n, monkeypatch):
    # a budget of 50 entries cuts 23 rows against 17 into blocks of 2 rows,
    # GF(8)'s uint8 table blocks included
    monkeypatch.setattr(ffield, "PAIR_BLOCK_ELEMENTS", 50)
    fs = make_field(p, n)
    rng = np.random.default_rng(fs.q)
    X = rng.integers(0, fs.q, size=(23, 3))
    Y = rng.integers(0, fs.q, size=(17, 3))
    blocks = list(fs.dot_blocks(X, Y))
    assert [len(blk) for blk in blocks] == [2] * 11 + [1]
    got = np.vstack(blocks).tolist()
    assert got == [[raw_dot(fs, x, y) for y in Y] for x in X]


# extension fields of both characteristics: GF(2^n) product tables in uint8;
# odd tables of packed digits in uint16 (GF(3^4) and GF(7^2), uint8 blocks;
# GF(17^2), uint16 blocks) or uint32 (GF(5^4), uint16 blocks, two
# reduction tables)
TABLE_FIELDS = [(2, 3), (2, 4), (3, 4), (7, 2), (17, 2), (5, 4)]


@pytest.mark.parametrize("shape", ["tables", "few_rows", "wide_y"])
@pytest.mark.parametrize("p,n", TABLE_FIELDS)
@settings(max_examples=6)
@given(data=st.data())
def test_dot_blocks_both_paths_match_raw_dot(p, n, shape, data):
    # "tables": q <= |X| and q * |Y| within the table cap, so the product
    # tables serve blocks of q rows; "few_rows" (|X| < q) and
    # "wide_y" (q * |Y| one over the cap, blocks of q - 1 rows) take the
    # per-pair path
    fs = make_field(p, n)
    q = fs.q
    d = data.draw(st.integers(2, 5), label="d")
    ny = data.draw(st.integers(1, 2 if q > 256 else 6), label="|Y|")
    if shape == "few_rows":
        nx = data.draw(st.integers(1, q - 1), label="|X|")
    else:
        nx = data.draw(st.integers(q, 2 * q + 7), label="|X|")
    budget = q * ny - (shape == "wide_y")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.integers(0, q, size=(nx, d))
    Y = rng.integers(0, q, size=(ny, d))
    X[0], Y[0] = q - 1, 0  # the largest element and a zero row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "PAIR_BLOCK_ELEMENTS", budget)
        mp.setattr(ffield, "TABLE_ELEMENTS", budget)
        blocks = list(fs.dot_blocks(X, Y))
    step = budget // ny
    assert [len(blk) for blk in blocks] == [min(step, nx - s) for s in range(0, nx, step)]
    got = np.vstack(blocks)
    assert got.min() >= 0 and got.max() < q
    if p == 2:  # XOR keeps the tables' uint8; the per-pair path returns exp's int32
        dtype = np.uint8 if shape == "tables" else np.int32
        assert {blk.dtype for blk in blocks} == {np.dtype(dtype)}
    assert got.tolist() == [[raw_dot(fs, x, y) for y in Y] for x in X]


# odd fields by their reduction tables: one (GF(3^4), all 16 packed bits),
# two (GF(5^4), GF(31^4) and GF(1021^2)) and three (GF(101^3))
CARRY_FIELDS = [(3, 4), (5, 4), (101, 3), (31, 4), (1021, 2)]


@pytest.mark.parametrize("p,n", CARRY_FIELDS)
def test_packed_sums_carry_no_digit_at_the_largest_sums(p, n):
    # x_j * y_j = q - 1, whose digits are all p - 1, so every digit of a
    # packed sum reaches d (p - 1), its largest value; most is the last d
    # whose digit sums stay below 2^k
    fs = make_field(p, n)
    q = fs.q
    k = (5 * (p - 1)).bit_length()
    most = ((1 << k) - 1) // (p - 1)
    rng = np.random.default_rng(q)
    for d in [1, 2, 3, 4, 5, most]:
        A = rng.integers(1, q, size=(4, d))
        B = fs.vmul(fs.vinv(A), q - 1)
        top = raw_dot(fs, A[0], B[0])
        assert top == fs.from_coeffs([-d % p] * n)  # d (p - 1) = -d mod p per digit
        # per pair (|X| < q): every row of A against every row of B and zero
        Y = np.vstack([B, np.zeros((1, d), dtype=np.int64)])
        blocks = list(fs.dot_blocks(A, Y))
        assert {blk.dtype for blk in blocks} == {np.dtype(ffield.narrow_dtype(q))}
        assert np.vstack(blocks).tolist() == [[raw_dot(fs, x, y) for y in Y] for x in A]
        # product tables (q rows against one): q copies of A[0] against B[0]
        blocks = list(fs.dot_blocks(np.broadcast_to(A[0], (q, d)), B[:1]))
        assert sum(map(len, blocks)) == q and all((blk == top).all() for blk in blocks)
    wide = np.ones((2, most + 1), dtype=np.int64)
    with pytest.raises(ValueError, match="carry past a packed digit"):
        next(fs.dot_blocks(wide, wide))


def test_table_build_holds_its_peak():
    # GF(1021^2), the largest table build: exp, log and packed hold 37.5 MB,
    # and the build peaks at 38.6 MB (tracemalloc) because the packed copy is
    # built in _POWER_BLOCK slices (in one pass it peaked at 54 MB).  The
    # table total is the tight pin; the peak pin leaves numpy's temporaries
    # about 1.4 MB
    fs = make_field(1021, 2)
    tracemalloc.start()
    try:
        built = FieldSpec(fs.p, fs.n, fs.modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(getattr(built, t).nbytes for t in ("_exp", "_log", "_packed")) < 37.6e6
    assert peak < 40e6


# the prime block is a float64 product reduced through a floor; 1048573 is
# the largest prime below 2^20, where a d = 5 sum reaches 5 (p - 1)^2 > 2^42
PRIME_BLOCK_ORDERS = [2, 3, 101, 65521, 1048573]


@pytest.mark.parametrize("p", PRIME_BLOCK_ORDERS)
@settings(max_examples=30)
@given(data=st.data())
def test_prime_block_matches_python_ints(p, data):
    fs = make_field(p, 1)
    d = data.draw(st.integers(1, 5), label="d")
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    vectors = st.lists(st.lists(entry, min_size=d, max_size=d), max_size=12)
    # rows of all p - 1 (the largest sum) and all 0 always take part
    X = data.draw(vectors, label="X") + [[p - 1] * d, [0] * d]
    Y = data.draw(vectors, label="Y") + [[0] * d, [p - 1] * d]
    blocks = list(fs.dot_blocks(np.array(X), np.array(Y)))
    assert {blk.dtype for blk in blocks} == {np.dtype(np.int32)}
    got = np.vstack(blocks).tolist()
    assert got == [[sum(x * y for x, y in zip(u, v)) % p for v in Y] for u in X]


@pytest.mark.parametrize("p", PRIME_BLOCK_ORDERS)
def test_prime_block_matches_int64_on_many_pairs(p):
    # 2^18 sums per d against int64 arithmetic, the largest sum (the all
    # p - 1 row against itself) and the zero row among them
    fs = make_field(p, 1)
    rng = np.random.default_rng(p)
    for d in range(1, 6):
        X = rng.integers(0, p, size=(512, d))
        X[0], X[1] = p - 1, 0
        got = np.vstack(list(fs.dot_blocks(X, X)))
        assert np.array_equal(got, X @ X.T % p)


def test_prime_block_refuses_sums_past_the_exact_range():
    fs = make_field(1048573, 1)
    ok = np.ones((2, 2048), dtype=np.int64)  # 2048 * p^2 < 2^51
    assert np.vstack(list(fs.dot_blocks(ok, ok))).tolist() == [[2048] * 2] * 2
    with pytest.raises(ValueError, match="exact float range"):
        next(fs.dot_blocks(np.ones((2, 2049), dtype=np.int64), np.ones((2, 2049), dtype=np.int64)))


@pytest.mark.parametrize("p,n", [(101, 1), (2, 4), (3, 4)])
@pytest.mark.parametrize("ny", [1, 7, 300, ffield.PAIR_BLOCK_ELEMENTS + 5,
                                ffield.TABLE_ELEMENTS // 16 + 1])
def test_blocks_hold_max_1_budget_over_y_rows(p, n, ny):
    # at the default constants, on both backends and both extension paths:
    # the product tables where q <= |X| and q * |Y| is within the table cap,
    # per pair where not.  A block holds 2^13 // |Y| rows on every path.
    fs = make_field(p, n)
    tables = fs.q == 16 and fs.q * ny <= ffield.TABLE_ELEMENTS  # and |X| >= 16
    step = max(1, ffield.PAIR_BLOCK_ELEMENTS // ny)
    nx = max(2 * step + 3, 16)
    rng = np.random.default_rng(ny)
    X = rng.integers(0, fs.q, size=(nx, 3))
    Y = rng.integers(0, fs.q, size=(ny, 3))
    blocks = list(fs.dot_blocks(X, Y))
    assert [blk.shape for blk in blocks] == [(min(step, nx - s), ny) for s in range(0, nx, step)]
    if fs.q == 16:  # tables: uint8, XOR in place; per pair: exp's int32
        assert {blk.dtype for blk in blocks} == {np.dtype(np.uint8 if tables else np.int32)}


# recorded g (the smallest index >= p of order q - 1) for every extension
# field this module builds
PRIMITIVE_ELEMENTS = {
    (2, 2): 2, (2, 3): 2, (2, 4): 2, (3, 2): 4, (3, 3): 3, (3, 4): 10,
    (5, 2): 7, (5, 3): 7, (5, 4): 30, (7, 2): 9, (7, 3): 9, (11, 2): 15,
    (13, 2): 18, (31, 2): 35, (31, 4): 34, (101, 3): 103, (1021, 2): 1030,
}


def test_primitive_elements_unchanged():
    assert set(PRIMITIVE_ELEMENTS) >= set(EXT_FIELDS_UP_TO_256 + LARGE_EXT_FIELDS)
    for (p, n), g in PRIMITIVE_ELEMENTS.items():
        fs = make_field(p, n)
        assert ffield._primitive_element(fs) == g
        assert fs.mul(1, 1) == 1 and fs._exp[1] == g
        assert len(np.unique(fs._exp[:fs.q - 1])) == fs.q - 1  # g has order q - 1


AXIOM_FIELDS = [make_field(p, n) for p, n in [(7, 1), (2, 4), (3, 4), (5, 4), (13, 2), (2, 1),
                                               (101, 3), (1021, 2)]]


@st.composite
def field_triples(draw):
    fs = draw(st.sampled_from(AXIOM_FIELDS))
    elem = st.integers(0, fs.q - 1)
    return fs, draw(elem), draw(elem), draw(elem)


@settings(max_examples=400, deadline=None)
@given(field_triples())
def test_field_axioms_property(args):
    fs, a, b, c = args
    add, mul = fs.add, fs.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, fs.neg(a)) == 0 and add(fs.sub(a, b), b) == a
    if a:
        assert mul(a, fs.inv(a)) == 1
        assert fs.pow(a, fs.q - 1) == 1
        assert fs.pow(a, 3) == mul(a, mul(a, a))
        assert fs.is_square(mul(a, a))
