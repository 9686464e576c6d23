"""Exact arithmetic in GF(q) for prime powers q = p^n, n <= 4, q <= 2^20.

A field element is represented by its index, a plain int in [0, q).  The
index encodes polynomial coefficients c_0..c_{n-1} over GF(p) via

    index = sum(c_i * p**i),

so 0 is the additive identity and 1 the multiplicative identity.  The
extension modulus is the lexicographically smallest monic irreducible
polynomial of degree n, coefficients compared low-degree-first.  That choice
is deterministic, so a (p, n) pair pins bit-identical file formats on every
machine.

A FieldSpec picks its backend once, at construction, and holds every op as
an instance attribute.  Prime fields (n = 1) compute inline mod p.
Extension fields share one table-driven backend over a fixed primitive
element g, the smallest index >= p of order m = q - 1 (Lidl & Niederreiter,
*Finite Fields*):

    exp[k] = g^(k mod m) for k < 2m, 0 for 2m <= k <= 4m;
    log[g^k] = k for k < m, log[0] = 2m,

so mul(a, b) = exp[log a + log b] needs no branch for zero.  When p = 2 an
index packs the GF(2) coefficients as bits and add is XOR; for odd p, add
uses Zech's logarithm zech[d] = log(1 + g^d), since g^i + g^j =
g^(i + zech[j - i]) (K. Huber, IEEE Trans. IT 36, 1990).  neg, inv, pow and
is_square read log.  The tables are O(q) int32 arrays (about 25 MB at
q = 1021^2), built in numpy blocks with the field; the scalar ops are
closures that read them through memoryviews.  vmul, vadd, vneg and vinv
work on numpy index arrays.

dot_blocks yields the pairwise dot products x . y of a block of rows X
against a fixed Y, in row blocks under PAIR_BLOCK_ELEMENTS.  Prime fields
take one matmul and a single % p per block.  Extension fields, when
q <= |X| and q * |Y| <= PAIR_BLOCK_ELEMENTS, build once per call the product
tables T_j[a, c] = a * Y[c, j] over all a in [0, q); since x . y =
sum_j T_j[x_j, c], a block is the row gather T_0[X[:, 0]] with the gathered
rows of every further T_j added in (XOR in place when p = 2, vadd for odd
p).  The tables hold the narrowest dtype that fits q (uint8 to q = 256,
uint16 to 2^16, int32 above), so blocks may come back that narrow.  With
fewer rows than elements the tables would cost more products than they
save, and tables over the block budget would break the memory bound; then
each block does a log/exp product per pair and coordinate instead.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegreeOutOfRange, DivisionByZero, NoIrreducibleFound, NotPrime

# Desk-scale caps.
MAX_ORDER = 1 << 20
MAX_DEGREE = 4

# Entries per block of dot_blocks: bounds the memory of every pairwise kernel.
PAIR_BLOCK_ELEMENTS = 1 << 20

# Odd extension fields up to this order add arrays through a q x q table in
# vadd, which beats the masked Zech path on small tables.
_VADD_TABLE_MAX_Q = 256

# Powers of the primitive element are built this many at a time.
_POWER_BLOCK = 1 << 16


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _poly_eval(coeffs: list[int], x: int, p: int) -> int:
    """Evaluate a polynomial (coefficients low-degree-first) at x over GF(p)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_mod_monic(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo a monic polynomial g over GF(p)."""
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return r[:dg]


def _has_root(coeffs: list[int], p: int) -> bool:
    return any(_poly_eval(coeffs, x, p) == 0 for x in range(p))


def _irreducible_quadratics(p: int) -> list[list[int]]:
    quads = ([c0, c1, 1] for c0 in range(p) for c1 in range(p))
    return [g for g in quads if not _has_root(g, p)]


def _is_irreducible(coeffs: list[int], p: int, n: int) -> bool:
    # Degree 2 and 3 reduce iff they have a root.  Degree 4 additionally needs
    # the no-irreducible-quadratic-factor check.
    if _has_root(coeffs, p):
        return False
    if n <= 3:
        return True
    for g in _irreducible_quadratics(p):
        if not any(_poly_mod_monic(coeffs, g, p)):
            return False
    return True


@functools.cache
def make_field(p: int, n: int) -> "FieldSpec":
    """Construct GF(p^n) with the canonical (lexicographically smallest) modulus.

    Memoized on (p, n): every caller shares one instance, so the modulus scan
    and the extension tables are built once per field and process.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if not 1 <= n <= MAX_DEGREE:
        raise DegreeOutOfRange(f"extension degree n = {n} outside [1, {MAX_DEGREE}]")
    q = p**n
    if q > MAX_ORDER:
        raise DegreeOutOfRange(f"q = p^n = {q} exceeds the cap {MAX_ORDER}")
    if n == 1:
        modulus = (0, 1)  # degree-1 placeholder: the class of x
    else:
        # Lexicographic scan: the constant coefficient is the most significant.
        modulus = next((c + (1,) for c in product(range(p), repeat=n)
                        if _is_irreducible(list(c) + [1], p, n)), None)
        if modulus is None:
            raise NoIrreducibleFound(f"no irreducible modulus for GF({p}^{n})")
    return FieldSpec(p, n, modulus)


@dataclass(frozen=True)
class FieldSpec:
    """Immutable GF(q), q = p^n, and its arithmetic on element indices.

    Construction derives q and q_mod4 and puts every op on the instance,
    from _prime_backend or _extension_backend:

        add, sub, neg, mul, inv, pow, is_square   on ints in [0, q)
        vmul, vadd, vneg, vinv                     elementwise on numpy index
                                                   arrays, broadcasting
        dot_blocks(X, Y)                           pairwise dot products

    dot_blocks takes integer arrays X and Y of shape (rows, d) holding
    element indices and yields the |X| x |Y| matrix of x . y in row blocks:
    consecutive rows of X against every row of Y, at most
    PAIR_BLOCK_ELEMENTS entries (and at least one row) per block.  A block
    is an integer array of values in [0, q), possibly as narrow as uint8.

    inv and vinv raise DivisionByZero on 0.  pow(a, e) raises ValueError for
    e < 0 (0**0 == 1).  is_square(e) is True iff e has a square root in the
    field: for 0, and for every element when p = 2.
    """

    p: int
    n: int
    modulus: tuple[int, ...]
    q: int = field(init=False)
    q_mod4: int = field(init=False)

    def __post_init__(self):
        if len(self.modulus) != self.n + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        q = self.p**self.n
        # frozen: the derived attributes and the ops go straight into __dict__
        self.__dict__.update(q=q, q_mod4=q % 4)
        self.__dict__.update(_prime_backend(self.p) if self.n == 1 else _extension_backend(self))

    # -- element encoding -------------------------------------------------

    def elements(self) -> range:
        """All q elements in index order."""
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        cs = []
        for _ in range(self.n):
            a, r = divmod(a, self.p)
            cs.append(r)
        return tuple(cs)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(cs):
            a = a * self.p + c % self.p
        return a

    # -- raw polynomial arithmetic: builds the tables, reference in tests ---

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.from_coeffs([(x + y) % p for x, y in zip(ca, cb)])

    def _mul_raw(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                for j in range(n + 1):
                    prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
        return self.from_coeffs(prod[:n])


def _pow_raw(fs: FieldSpec, a: int, e: int) -> int:
    acc = 1
    while e:
        if e & 1:
            acc = fs._mul_raw(acc, a)
        a = fs._mul_raw(a, a)
        e >>= 1
    return acc


def _primitive_element(fs: FieldSpec) -> int:
    """The smallest index >= p of order q - 1.

    Indices below p are the constants, whose order divides p - 1.
    """
    m = fs.q - 1
    # every prime factor r of m is a divisor d <= sqrt(m) or its cofactor m // d
    divisors = [c for d in range(1, math.isqrt(m) + 1) if m % d == 0 for c in (d, m // d)]
    exponents = {m // r for r in divisors if is_prime(r)}
    return next(
        g for g in range(fs.p, fs.q)
        if all(_pow_raw(fs, g, e) != 1 for e in exponents)
    )


def _times(fs: FieldSpec, idx, h: int):
    """h * a for every index a in the array idx, as one GF(p)-linear map."""
    pw = fs.p ** np.arange(fs.n, dtype=np.int64)
    # row j holds the coefficients of x^j * h
    rows = np.array([fs.coeffs(fs._mul_raw(fs.p**j, h)) for j in range(fs.n)])
    digits = idx.astype(np.int64)[:, None] // pw % fs.p
    return digits @ rows % fs.p @ pw


def _row_blocks(X, width: int):
    """Consecutive row slices of X with at most PAIR_BLOCK_ELEMENTS entries
    (and at least one row) each against width columns."""
    step = max(1, PAIR_BLOCK_ELEMENTS // max(width, 1))
    return (X[start:start + step] for start in range(0, len(X), step))


def _prime_backend(p: int) -> dict:
    """The ops of GF(p), inline mod p; add, neg and mul serve arrays too."""

    def inv(a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, p - 2, p)

    def power(a, e):
        if e < 0:
            raise ValueError("negative exponent; invert explicitly")
        return pow(a, e, p)

    def vinv(a):
        a = np.asarray(a, dtype=np.int64)
        if not a.all():
            raise DivisionByZero("inverse of 0")
        acc, e = np.ones_like(a), p - 2  # a^(p-2) by repeated squaring
        while e:
            acc, a, e = (acc * a % p if e & 1 else acc), a * a % p, e >> 1
        return acc

    def dot_blocks(X, Y):
        for rows in _row_blocks(X, len(Y)):
            yield rows @ Y.T % p

    half = (p - 1) // 2  # Euler's criterion; every element of GF(2) passes
    ops = dict(add=lambda a, b: (a + b) % p, sub=lambda a, b: (a - b) % p,
               neg=lambda a: -a % p, mul=lambda a, b: a * b % p, inv=inv, pow=power,
               is_square=lambda e: e == 0 or pow(e, half, p) == 1, vinv=vinv,
               dot_blocks=dot_blocks)
    return dict(ops, vadd=ops["add"], vneg=ops["neg"], vmul=ops["mul"])


def _extension_backend(fs: FieldSpec) -> dict:
    """The tables of GF(p^n), n > 1, and the ops that read them."""
    p, q = fs.p, fs.q
    m = q - 1
    g = _primitive_element(fs)
    exp = np.zeros(4 * m + 1, dtype=np.int32)
    powers = exp[:m]
    powers[0] = 1
    k = 1
    while k < m:
        # g^k .. g^(k+step-1) from g^0 .. g^(step-1)
        step = min(k, m - k, _POWER_BLOCK)
        g_k = fs._mul_raw(int(powers[k - 1]), g)
        powers[k:k + step] = _times(fs, powers[:step], g_k)
        k += step
    exp[m:2 * m] = powers
    log = np.empty(q, dtype=np.int32)
    log[powers] = np.arange(m, dtype=np.int32)
    log[0] = 2 * m
    exp_s, log_s = memoryview(exp), memoryview(log)
    tables = {"_exp": exp, "_log": log}

    def mul(a, b):
        return exp_s[log_s[a] + log_s[b]]

    def inv(a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return exp_s[m - log_s[a]]

    def power(a, e):
        if e < 0:
            raise ValueError("negative exponent; invert explicitly")
        if a == 0:
            return 1 if e == 0 else 0
        return exp_s[log_s[a] * e % m]

    # Table positions are summed as intp: numpy gathers several times faster
    # through intp indices than through the int32 the tables store.
    def vmul(a, b):
        return exp[np.add(log[a], log[b], dtype=np.intp)]

    def vinv(a):
        a = np.asarray(a, dtype=np.int64)
        if not a.all():
            raise DivisionByZero("inverse of 0")
        return exp[np.subtract(m, log[a], dtype=np.intp)]

    if p == 2:
        # an index packs the GF(2) coefficients as bits; every element is a square
        add = sub = vadd = operator.xor
        neg = vneg = lambda a: a
        is_square = lambda e: True
    else:
        # 1 + g^d adds 1 to the constant coefficient, which wraps at p
        one_more = powers + 1
        one_more[one_more % p == 0] -= p
        zech = tables["_zech"] = log[one_more]
        zech_s = memoryview(zech)
        half = m // 2  # -1 = g^half; log 0 + half lands in the zero tail of exp

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log_s[a]
            return exp_s[la + zech_s[(log_s[b] - la) % m]]

        def neg(a):
            return exp_s[log_s[a] + half]

        def sub(a, b):
            return add(a, exp_s[log_s[b] + half])

        def is_square(e):
            return log_s[e] % 2 == 0  # log 0 = 2m is even too

        def vneg(a):
            return exp[np.add(log[a], half, dtype=np.intp)]

        if q <= _VADD_TABLE_MAX_Q:
            pw = p ** np.arange(fs.n)
            digits = np.arange(q)[:, None] // pw % p
            addq = ((digits[:, None, :] + digits[None, :, :]) % p @ pw).astype(np.int32).ravel()

            def vadd(a, b):
                return addq[np.multiply(a, q, dtype=np.intp) + b]  # a + b at a * q + b
        else:
            def vadd(a, b):
                la, lb = log[a], log[b]
                s = exp[np.add(la, zech[(lb - la) % m], dtype=np.intp)]
                return np.where(a == 0, b, np.where(b == 0, a, s))

    narrow = np.uint8 if q <= 1 << 8 else np.uint16 if q <= 1 << 16 else np.int32
    accumulate = operator.ixor if p == 2 else vadd  # ixor adds in place

    def dot_blocks(X, Y):
        d = Y.shape[1]
        if q > len(X) or q * len(Y) > PAIR_BLOCK_ELEMENTS:
            # fewer rows than elements, or tables over the block budget:
            # a log/exp product per pair
            for rows in _row_blocks(X, len(Y)):
                acc = vmul(rows[:, None, 0], Y[None, :, 0])
                for j in range(1, d):
                    acc = vadd(acc, vmul(rows[:, None, j], Y[None, :, j]))
                yield acc
            return
        # products[j][a, c] = a * Y[c, j]: x_j takes only q values, so a
        # block's products are row gathers from these tables
        a = np.arange(q)[:, None]
        products = [vmul(a, Y[None, :, j]).astype(narrow) for j in range(d)]
        for rows in _row_blocks(X, len(Y)):
            acc = products[0].take(rows[:, 0], axis=0)
            for j in range(1, d):
                acc = accumulate(acc, products[j].take(rows[:, j], axis=0))
            yield acc

    return dict(tables, add=add, sub=sub, neg=neg, mul=mul, inv=inv, pow=power,
                is_square=is_square, vmul=vmul, vadd=vadd, vneg=vneg, vinv=vinv,
                dot_blocks=dot_blocks)
