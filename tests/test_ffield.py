import random

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
    with pytest.raises(ValueError):
        FieldSpec(p=3, n=2, q=8, modulus=(1, 0, 1), q_mod4=0)
    with pytest.raises(ValueError):
        FieldSpec(p=3, n=2, q=9, modulus=(1, 0, 2), q_mod4=1)


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
    assert sum(getattr(fs, t).nbytes for t in ("_exp", "_log", "_zech")) <= 32 << 20


@pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (2, 4), (3, 4), (5, 4), (31, 2)])
def test_vectorised_ops_match_scalar(p, n):
    fs = make_field(p, n)
    rng = np.random.default_rng(fs.q)
    a = rng.integers(0, fs.q, size=300)
    b = rng.integers(0, fs.q, size=300)
    a[:10] = 0
    b[10:20] = 0
    b[20:40] = [fs.neg(int(x)) for x in a[20:40]]
    pairs = list(zip(a.tolist(), b.tolist()))
    assert fs.vmul(a, b).tolist() == [fs.mul(x, y) for x, y in pairs]
    assert fs.vadd(a, b).tolist() == [fs.add(x, y) for x, y in pairs]
    assert fs.vneg(a).tolist() == [fs.neg(x) for x in a.tolist()]
    # broadcasting, as the pairwise kernels use it
    table = fs.vadd(a[:30, None], b[None, :30])
    assert table.tolist() == [[fs.add(x, y) for y in b[:30].tolist()] for x in a[:30].tolist()]


@pytest.mark.parametrize("p,n", [(7, 1), (2, 3), (3, 2), (5, 4)])
def test_dot_blocks_match_raw_dot(p, n, monkeypatch):
    # a budget of 50 entries cuts 23 rows against 17 into blocks of 2 rows
    monkeypatch.setattr(ffield, "PAIR_BLOCK_ELEMENTS", 50)
    fs = make_field(p, n)
    rng = np.random.default_rng(fs.q)
    X = rng.integers(0, fs.q, size=(23, 3))
    Y = rng.integers(0, fs.q, size=(17, 3))
    blocks = list(fs.dot_blocks(X, Y))
    assert [len(blk) for blk in blocks] == [2] * 11 + [1]
    got = np.vstack(blocks).tolist()
    assert got == [[raw_dot(fs, x, y) for y in Y] for x in X]


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


AXIOM_FIELDS = [make_field(p, n) for p, n in [(7, 1), (2, 4), (3, 4), (5, 4), (13, 2), (2, 1)]]


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
