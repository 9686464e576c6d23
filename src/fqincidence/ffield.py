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
index packs the GF(2) coefficients as bits and add is XOR; for odd p, a + b
is the two-term case of the carry-free sums below, packed[log a] +
packed[log b] reduced to an index, and sub(a, b) = add(a, neg b).  neg, inv,
pow and is_square read log.  The tables are O(q) arrays built in numpy
blocks with the field: exp and log in int32, and for odd p the packed copy
of exp below, in uint16 or uint32 (about 21 + 17 = 38 MB at q = 1021^2);
the scalar ops are closures that read them through memoryviews.  vmul,
vadd, vneg and vinv work on numpy index arrays.

dot_blocks yields the pairwise dot products x . y of a block of rows X
against a fixed Y, in row blocks.  One rule sizes every block, here and in
the kernels that step like it: a block holds at most PAIR_BLOCK_ELEMENTS =
2^13 entries, 2^13 // |Y| rows, on every path and field class.  At 8 bytes
an entry, the widest of any path or of any consumer that widens a block
(float64, intp), it is 64 KiB, the cache unit: it stays in L2 and below
glibc's default mmap threshold.  The product tables below are built in row
blocks of their intp positions and bounded by TABLE_ELEMENTS.

Prime fields take one float64 BLAS product v = X . Y^T per block and reduce
it in place to r = v - p * floor((v + 0.5) * fl(1/p)), returned as int32.
This is exact whenever d * p^2 <= 2^51, so for every p <= 2^20 up to
d = 2^11 columns; the kernels here use d <= 5, where:

  * v <= 5 (p - 1)^2 < 2^43, so every product and partial sum is an integer
    below 2^53, an exact double in any summation order, and v + 0.5 is
    exact too;
  * fl(1/p) and the product each carry a relative error of at most 2^-53,
    and (v + 0.5)/p < 5(p - 1), so the computed quotient is within
    5(p - 1) * 2^-52 (1 + 2^-54) < 5 * 2^20 * 2^-52 = 5 * 2^-32 of the
    true one;
  * the true quotient (v + 0.5)/p = floor(v/p) + (r + 0.5)/p, 0 <= r < p,
    lies at least 1/(2p) >= 2^-21 from an integer, more than the error, so
    the floor is floor(v/p) exactly, and so are p * floor and the
    difference r.

Extension fields sum the products of a block digit by digit, without
carries.  When p = 2 an index is its GF(2) digit vector and XOR adds it.
For odd p, an element's packed form puts its n digits c_i k bits apart in
one unsigned int, sum(c_i << k i), with k = bit_length(5 (p - 1)); packed
holds the packed form of exp[j] at j (0 on exp's zero tail), in uint16
when n k <= 16 (every odd q <= 256) and uint32 otherwise (n k <= 32 for
every field under the caps).  Integer += then adds d packed products
exactly:

  * digit i of the sum is the plain integer sum of d digits of [0, p), at
    most d (p - 1);
  * while d <= (2^k - 1) // (p - 1), which is at least 5 for every p, that
    is below 2^k, so no digit carries into the next and the word holds
    every digit sum exactly;
  * digit i of x . y is that digit sum mod p.  Five terms is the widest
    product the kernels take (the distance rows), which is why k is sized
    for it; past the bound dot_blocks raises ValueError.  add and vadd take
    two terms.

A block of sums is reduced once to indices of narrow_dtype(q) (uint8 to
q = 256, uint16 to 2^16, int32 above) through one table per run of digits
that fits 16 bits, from the run's packed bits to its share sum c_i p^i of
the index; vadd's sums take the same path, and add reads the same tables
through memoryviews.  The fewest runs, split evenly, keep every table
within 2^16 entries: every odd q <= 256 takes one table (2^16 entries at
GF(3^4)), GF(5^4) two of 2^10, GF(31^4) two of 2^16, GF(1021^2) two of 2^13
and GF(101^3) three of 2^9.

A block's products come two ways.  When q <= |X| and q * |Y| <=
TABLE_ELEMENTS, a call builds once the product tables T_j[a, c] =
a * Y[c, j] over all a in [0, q) from exp[log a + log Y[c, j]] (packed for
odd p, narrow_dtype(q) for p = 2); since x . y = sum_j T_j[x_j, c], a block
is the row gather T_0[X[:, 0]] with the gathered rows of every further T_j
added in place, so GF(2^n) table blocks come back narrow_dtype(q) too.
With fewer rows than elements the tables would cost more products than
they save, and tables over the cap would break the memory bound; then each
product is gathered per pair and coordinate, exp[log x_j + log y_j]
(packed for odd p; exp's int32 blocks for p = 2).
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegreeOutOfRange, DivisionByZero, NotPrime

# Desk-scale caps.
MAX_ORDER = 1 << 20
MAX_DEGREE = 4

# Entries per block of dot_blocks and of the kernels that step like it: at
# 8 bytes an entry, the cache unit, 64 KiB (see the module docstring).
PAIR_BLOCK_ELEMENTS = 1 << 13

# Entries of the tables a pairwise call builds once (the extension product
# tables, the dense table of geom.flat_counts, the plane-pair gram rows): the
# memory bound of every pairwise kernel.
TABLE_ELEMENTS = 1 << 20

# The prime block's floating-point reduction is exact while d * p^2 stays
# within this (see the module docstring).
_EXACT_FLOAT_DOT = 1 << 51

# Powers of the primitive element are built this many at a time.
_POWER_BLOCK = 1 << 16

# The most terms of a pairwise product in the kernels: the distance rows
# (x, ||x||, 1) . (-2y, 1, ||y||).  Odd packed digits are sized for it.
_MAX_DOT_TERMS = 5

# Packed bits a reduction table of odd packed sums covers: 2^16 entries.
_REDUCE_BITS = 16


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


def _check_order(p: int, n: int) -> None:
    """DegreeOutOfRange for a degree or order past the caps, NotPrime for p:
    the checks make_field and FieldSpec share."""
    if not 1 <= n <= MAX_DEGREE:
        raise DegreeOutOfRange(f"extension degree n = {n} outside [1, {MAX_DEGREE}]")
    q = p**n
    if q > MAX_ORDER:  # before the primality test, whose cost grows with p
        raise DegreeOutOfRange(f"q = p^n = {q} exceeds the cap {MAX_ORDER}")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")


@functools.cache
def make_field(p: int, n: int) -> "FieldSpec":
    """Construct GF(p^n) with the canonical (lexicographically smallest) modulus.

    Memoized on (p, n): every caller shares one instance, so the modulus scan
    and the extension tables are built once per field and process.
    """
    _check_order(p, n)
    if n == 1:
        modulus = (0, 1)  # degree-1 placeholder: the class of x
    else:
        # Lexicographic scan: the constant coefficient is the most significant.
        # GF(p) has a monic irreducible of every degree, so the scan ends.
        modulus = next(c + (1,) for c in product(range(p), repeat=n)
                       if _is_irreducible(list(c) + [1], p, n))
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
    consecutive rows of X against every row of Y, in row_blocks(X, |Y|),
    at most PAIR_BLOCK_ELEMENTS entries each (the last block may have fewer
    rows).  The block is the cache unit; the memory a call holds
    beyond its blocks is its tables, at most TABLE_ELEMENTS entries.  A
    block is an integer array of values in [0, q): int32 for prime fields
    (exact through float64, see the module docstring; ValueError when
    d * p^2 > 2^51), narrow_dtype(q) for odd extension fields (exact packed
    digit sums; ValueError when d > (2^k - 1) // (p - 1), at least 5) and on
    the GF(2^n) table path, int32 on the GF(2^n) per-pair path.

    The vector ops return, over extension fields, exp's int32 from vmul,
    vinv and the odd vneg, and narrow_dtype(q) from the odd vadd (unsigned
    up to q = 2^16); GF(2^n) vadd and vneg keep the inputs' dtype (XOR and
    the identity).  Tables read indices of any integer dtype.  Prime fields
    take any integer dtype and return int64.  A caller that subtracts,
    negates or multiplies a result by q widens it first.

    inv and vinv raise DivisionByZero on 0.  pow(a, e) raises ValueError for
    e < 0 (0**0 == 1).  is_square(e) is True iff e has a square root in the
    field: for 0, and for every element when p = 2.

    Construction checks the field as make_field does: DegreeOutOfRange past
    the caps, NotPrime for p, ValueError unless the modulus is monic and
    irreducible of degree n with coefficients in [0, p).
    """

    p: int
    n: int
    modulus: tuple[int, ...]
    q: int = field(init=False)
    q_mod4: int = field(init=False)

    def __post_init__(self):
        p, n, mod = self.p, self.n, self.modulus
        _check_order(p, n)
        if (len(mod) != n + 1 or mod[-1] != 1 or not all(0 <= c < p for c in mod)
                or n > 1 and not _is_irreducible(list(mod), p, n)):
            raise ValueError("modulus must be monic and irreducible of degree n over GF(p)")
        q = p**n
        # frozen: the derived attributes and the ops go straight into __dict__
        self.__dict__.update(q=q, q_mod4=q % 4)
        self.__dict__.update(_prime_backend(p) if n == 1 else _extension_backend(self))

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


def row_blocks(X, width: int):
    """Consecutive row slices of X, each of at least one row and at most
    PAIR_BLOCK_ELEMENTS entries when a row takes width entries: the block
    rule of dot_blocks and of every kernel that steps like it (pass
    np.arange(n) for blocks of row indices)."""
    step = max(1, PAIR_BLOCK_ELEMENTS // max(width, 1))
    return (X[start:start + step] for start in range(0, len(X), step))


def narrow_dtype(q: int):
    """The narrowest dtype that holds every index of GF(q): the dtype of
    odd extension blocks and of the GF(2^n) product tables, and the one to
    compare blocks with without widening."""
    return np.uint8 if q <= 1 << 8 else np.uint16 if q <= 1 << 16 else np.int32


def _prime_backend(p: int) -> dict:
    """The ops of GF(p), inline mod p; the vector ops compute in int64."""

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

    inv_p = 1.0 / p

    def dot_blocks(X, Y):
        if Y.shape[1] * p * p > _EXACT_FLOAT_DOT:
            raise ValueError(f"{Y.shape[1]} columns over GF({p}) leave the exact float range")
        cols = Y.T.astype(np.float64)
        for rows in row_blocks(X, len(Y)):
            v = rows.astype(np.float64) @ cols  # BLAS; exact, see the module docstring
            t = v + 0.5
            t *= inv_p
            np.floor(t, out=t)
            t *= p
            v -= t
            yield v.astype(np.int32)

    half = (p - 1) // 2  # Euler's criterion; every element of GF(2) passes
    return dict(add=lambda a, b: (a + b) % p, sub=lambda a, b: (a - b) % p,
                neg=lambda a: -a % p, mul=lambda a, b: a * b % p, inv=inv, pow=power,
                is_square=lambda e: e == 0 or pow(e, half, p) == 1,
                vadd=lambda a, b: np.add(a, b, dtype=np.int64) % p,
                vneg=lambda a: np.negative(a, dtype=np.int64) % p,
                vmul=lambda a, b: np.multiply(a, b, dtype=np.int64) % p,
                vinv=vinv, dot_blocks=dot_blocks)


def _packed_sums(fs: FieldSpec, powers, log):
    """The carry-free sums of odd characteristic (see the module docstring):
    exp with the n digits of each index k bits apart, built in _POWER_BLOCK
    slices; the most terms a sum may take; the reduction of a block of
    packed sums to narrow_dtype(q) indices; and add on ints, the two-term
    sum reduced through the same tables."""
    p, n, m = fs.p, fs.n, fs.q - 1
    k = (_MAX_DOT_TERMS * (p - 1)).bit_length()
    packed = np.zeros(4 * m + 1, dtype=np.uint16 if n * k <= 16 else np.uint32)
    for start in range(0, m, _POWER_BLOCK):
        block = slice(start, min(start + _POWER_BLOCK, m))
        rest, word = powers[block], packed[block]
        for i in range(n):
            rest, digit = np.divmod(rest, p)
            word |= (digit << k * i).astype(packed.dtype)  # int32 holds 30 << 24, the most
    packed[m:2 * m] = packed[:m]
    # one table per run of digits within _REDUCE_BITS, from the run's packed
    # bits to its share of the index: [(shift, mask or None, table)].  The
    # fewest runs, of equal length, keep the tables small and cache-warm.
    per_run = -(-n // -(-n // (_REDUCE_BITS // k)))
    digit_values = np.arange(1 << k) % p  # a packed digit sum, mod p
    runs = []
    for lo in range(0, n, per_run):
        share = np.zeros(1, dtype=np.int64)
        for i in range(lo, min(lo + per_run, n)):  # digit i above the digits below it
            share = np.add.outer(digit_values * p**i, share).ravel()
        mask = len(share) - 1 if lo + per_run < n else None
        runs.append((k * lo, mask, share.astype(narrow_dtype(fs.q))))

    def to_indices(acc):
        out = None
        for shift, mask, share in runs:
            pos = acc >> shift if shift else acc
            part = share.take(pos if mask is None else pos & mask)
            if out is None:
                out = part
            else:
                out += part
        return out

    # a + b on ints reads the same tables through memoryviews; a sum has no
    # bits above the last run, so its table's size masks it too
    packed_s, log_s = memoryview(packed), memoryview(log)
    views = [(shift, len(share) - 1, memoryview(share)) for shift, _, share in runs]
    if len(views) == 1:  # every odd q <= 256
        whole = views[0][2]

        def add(a, b):
            return whole[packed_s[log_s[a]] + packed_s[log_s[b]]]
    else:
        def add(a, b):
            s, out = packed_s[log_s[a]] + packed_s[log_s[b]], 0
            for shift, mask, share in views:
                out += share[s >> shift & mask]
            return out

    return packed, ((1 << k) - 1) // (p - 1), to_indices, add


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
        # an index packs the GF(2) coefficients as bits, so XOR adds digit
        # vectors without carries: an index is its own packed sum, any number
        # of terms may be added, and the tables stay narrow.  Every element
        # is a square.
        add = sub = vadd = operator.xor
        neg = vneg = lambda a: a
        is_square = lambda e: True
        packed, add_in, most, finish = exp, operator.ixor, math.inf, None
        table_dtype = narrow_dtype(q)
    else:
        # a + b is the two-term packed sum, reduced like a block of dot_blocks
        packed, most, finish, add = _packed_sums(fs, powers, log)
        tables["_packed"] = packed
        add_in, table_dtype = operator.iadd, packed.dtype
        half = m // 2  # -1 = g^half; log 0 + half lands in the zero tail of exp

        def neg(a):
            return exp_s[log_s[a] + half]

        def sub(a, b):
            return add(a, exp_s[log_s[b] + half])

        def is_square(e):
            return log_s[e] % 2 == 0  # log 0 = 2m is even too

        def vneg(a):
            return exp[np.add(log[a], half, dtype=np.intp)]

        def vadd(a, b):
            return finish(packed.take(log.take(a)) + packed.take(log.take(b)))

    def sums(blocks, term, d):
        # sum_j term(rows, j) per block, in place, then reduced to indices
        for rows in blocks:
            acc = term(rows, 0)
            for j in range(1, d):
                add_in(acc, term(rows, j))
            yield acc if finish is None else finish(acc)

    def dot_blocks(X, Y):
        d = Y.shape[1]
        if d > most:
            raise ValueError(f"{d} columns over GF({p}^{fs.n}) carry past a packed digit")
        log_y = log[Y.T].astype(np.intp)  # intp positions, as in vmul
        if q > len(X) or q * len(Y) > TABLE_ELEMENTS:
            # fewer rows than elements, or tables over the cap: a product
            # per pair, packed[log x_j + log y_j]
            def per_pair(log_x, j):
                return packed.take(log_x[:, j, None] + log_y[j])

            log_rows = (log[rows].astype(np.intp) for rows in row_blocks(X, len(Y)))
            yield from sums(log_rows, per_pair, d)
            return
        # products[j][a, c] = a * Y[c, j]: x_j takes only q values, so a
        # block's products are row gathers from these tables, which are
        # built in the row blocks of their intp positions log a + log Y[c, j]
        products = np.empty((d, q, len(Y)), dtype=table_dtype)
        for a in row_blocks(range(q), len(Y)):
            block = slice(a.start, a.stop)
            for j in range(d):
                products[j, block] = packed.take(log[block, None] + log_y[j])

        def gathered(rows, j):
            return products[j].take(rows[:, j], axis=0)

        yield from sums(row_blocks(X, len(Y)), gathered, d)

    return dict(tables, add=add, sub=sub, neg=neg, mul=mul, inv=inv, pow=power,
                is_square=is_square, vmul=vmul, vadd=vadd, vneg=vneg, vinv=vinv,
                dot_blocks=dot_blocks)
