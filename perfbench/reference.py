"""Independent references for the kernel and VC jobs of the benchmark.

Nothing here calls fqincidence.  Field arithmetic is rebuilt from the public
(p, n, modulus) triple of a FieldSpec: prime fields use plain mod-p
arithmetic, extension fields use exp/log tables over a primitive element
found by schoolbook polynomial products.  Every count is then recomputed
with numpy over those tables, so a fault in the library's arithmetic paths
or its counting kernels shows up as a mismatch.  (The library's own
brute-force oracles share its field arithmetic, so they are not used here.)

The two full-space jobs at q = 16 have closed forms instead, and the
matrices are built in row blocks of at most _BLOCK entries, so that the
reference phase stays well below the peak memory the benchmark reports.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np

_BLOCK = 1 << 16


def _blocks(rows: int, cols: int):
    step = max(1, _BLOCK // max(cols, 1))
    for start in range(0, rows, step):
        yield slice(start, min(rows, start + step))


def _elements_digits(p: int, n: int) -> np.ndarray:
    q = p**n
    idx = np.arange(q, dtype=np.int64)
    return np.stack([(idx // p**i) % p for i in range(n)], axis=1)


def _polymulmod(a, b, p, modulus):
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % p
        for j in range(n + 1):
            prod[k - n + j] -= c * modulus[j]
    return [v % p for v in prod[:n]]


class RefField:
    """add / mul / neg tables of GF(p^n) as q x q (or q) int64 arrays."""

    def __init__(self, p: int, n: int, modulus):
        q = p**n
        self.p, self.n, self.q = p, n, q
        digits = _elements_digits(p, n)
        weights = p ** np.arange(n, dtype=np.int64)
        self.add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        self.neg = ((-digits) % p) @ weights
        if n == 1:
            a = np.arange(q, dtype=np.int64)
            self.mul = np.outer(a, a) % p
            return
        exp = self._primitive_powers(p, n, list(modulus), weights)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        self.mul = mul

    @staticmethod
    def _primitive_powers(p, n, modulus, weights) -> np.ndarray:
        q = p**n
        for g in range(2, q):
            gd = [(g // p**i) % p for i in range(n)]
            x = [1] + [0] * (n - 1)
            powers = []
            for e in range(q - 1):
                powers.append(x)
                x = _polymulmod(x, gd, p, modulus)
                if x == [1] + [0] * (n - 1) and e < q - 2:
                    break
            else:
                return np.asarray(powers, dtype=np.int64) @ weights
        raise ValueError(f"no primitive element in GF({p}^{n})")

    # -- vectorised helpers over coordinate arrays ---------------------------

    def dot(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """|X| x |Y| matrix of x . y for 3-coordinate point arrays."""
        M, A = self.mul, self.add
        out = np.empty((len(X), len(Y)), dtype=np.int64)
        for rows in _blocks(len(X), len(Y)):
            t = [M[X[rows, i][:, None], Y[:, i][None, :]] for i in range(3)]
            out[rows] = A[A[t[0], t[1]], t[2]]
        return out

    def dist(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """|X| x |Y| matrix of ||x - y||."""
        M, A, N = self.mul, self.add, self.neg
        out = np.empty((len(X), len(Y)), dtype=np.int64)
        for rows in _blocks(len(X), len(Y)):
            sq = []
            for i in range(3):
                d = A[X[rows, i][:, None], N[Y[:, i]][None, :]]
                sq.append(M[d, d])
            out[rows] = A[A[sq[0], sq[1]], sq[2]]
        return out


def _arr(points) -> np.ndarray:
    return np.asarray(points, dtype=np.int64).reshape(len(points), -1)


def count_lines(rf: RefField, points, lines) -> int:
    P = _arr(points)
    x, y = P[:, 0], P[:, 1]
    total = 0
    nv = [(a, b) for kind, a, b in lines if kind == "N"]
    if nv:
        a = np.asarray([ln[0] for ln in nv], dtype=np.int64)
        b = np.asarray([ln[1] for ln in nv], dtype=np.int64)
        for rows in _blocks(len(P), len(nv)):
            on = rf.add[rf.mul[a[None, :], x[rows, None]], b[None, :]] == y[rows, None]
            total += int(on.sum())
    vc = np.asarray([a for kind, a, _ in lines if kind == "V"], dtype=np.int64)
    if vc.size:
        total += int((x[:, None] == vc[None, :]).sum())
    return total


def count_planes(rf: RefField, points, planes) -> int:
    nrm = _arr([pl[0] for pl in planes])
    rhs = np.asarray([pl[1] for pl in planes], dtype=np.int64)
    return int((rf.dot(_arr(points), nrm) == rhs[None, :]).sum())


def energy(rf: RefField, lines, a_set) -> int:
    a = np.asarray([ln[0] for ln in lines], dtype=np.int64)
    b = np.asarray([ln[1] for ln in lines], dtype=np.int64)
    x = np.asarray(a_set, dtype=np.int64)
    vals = rf.add[rf.mul[a[:, None], x[None, :]], b[:, None]]
    r = np.bincount(vals.ravel(), minlength=rf.q)
    return int((r * r).sum())


def dot_set(rf: RefField, E, F):
    counts = np.bincount(rf.dot(_arr(E), _arr(F)).ravel(), minlength=rf.q)
    lam = {int(v): int(c) for v, c in enumerate(counts) if c}
    nonzero = [(v, c) for v, c in lam.items() if v != 0]
    best = None
    if nonzero:
        top = max(c for _, c in nonzero)
        best = min(v for v, c in nonzero if c == top)
    return (tuple(sorted(lam.items())), lam.get(0, 0), best)


def distance_T(rf: RefField, E, F):
    D = rf.dist(_arr(E), _arr(F))  # rows E, columns F
    dists = tuple(sorted({int(v) for v in np.unique(D)}))
    zero = int((D == 0).sum())
    nF = D.shape[1]
    per_col = np.bincount((np.arange(nF)[None, :] * rf.q + D).ravel(),
                          minlength=nF * rf.q).reshape(nF, rf.q)
    T = int((per_col[:, 1:] ** 2).sum())
    return (dists, zero, T)


def trace_classes(rf: RefField, U, Up):
    hit = rf.dot(_arr(U), _arr(Up)) == 1
    groups = Counter(tuple(np.flatnonzero(row).tolist()) for row in hit)
    sizes = sorted(groups.values(), reverse=True)
    return (tuple(sizes), sum(m * m for m in sizes), len(sizes))


def _partition(U, counts, q):
    n = len(U)
    lo, hi = n / (2 * q), 2 * n / q
    heavy = tuple(u for u, c in zip(U, counts) if c >= hi)
    light = tuple(u for u, c in zip(U, counts) if c < hi and c <= lo)
    middle = tuple(u for u, c in zip(U, counts) if lo < c < hi)
    return (middle, heavy, light)


def regular_partition(rf: RefField, U):
    counts = (rf.dot(_arr(U), _arr(U)) == 1).sum(axis=1).tolist()
    return _partition([tuple(u) for u in U], counts, rf.q)


def full_space_points(q: int):
    return [(i % q, (i // q) % q, i // (q * q)) for i in range(q**3)]


def full_space_plane_count(q: int) -> int:
    """Every plane a . x = 1 with a != 0 holds exactly q^2 points."""
    return (q**3 - 1) * q * q


def full_space_partition(q: int):
    """In the full space, u != 0 has q^2 unit-product partners and 0 has none."""
    U = full_space_points(q)
    return _partition(U, [0 if u == (0, 0, 0) else q * q for u in U], q)


def vc_system(rf: RefField, points, normals, side: str):
    """Family masks, VC dimension (capped at 3) and shatter value at z = 3.

    The library's exact search runs to d_max = 4.  Plane-neighbourhood
    systems have VC dimension at most 3, which the job checks on its own;
    below that, the dimension follows from brute force over 3-sets: it is 3
    exactly when some 3-set is shattered, else the largest shattered size
    among singletons and pairs.
    """
    inc = rf.dot(_arr(points), _arr(normals)) == 1  # points x planes
    if side == "by_plane":
        inc = inc.T
    ground = inc.shape[1]
    masks = tuple(sum(1 << int(j) for j in np.flatnonzero(row)) for row in inc)
    members = np.unique(inc, axis=0).astype(np.int64)

    def traces(d):
        """Distinct traces of the family on every d-subset of the ground set."""
        subsets = _subsets(ground, d)
        if subsets.size == 0:
            return np.zeros(0, dtype=np.int64)
        code = sum(members[:, subsets[:, i]] << i for i in range(d))  # members x subsets
        seen = np.bitwise_or.reduce(np.int64(1) << code, axis=0).astype(np.uint8)
        return np.unpackbits(seen[:, None], axis=1).sum(axis=1)

    counts = {d: traces(d) for d in range(1, min(3, ground) + 1)}
    z = min(3, ground)
    shatter = int(counts[z].max()) if z else int(len(members) > 0)
    vc = 0
    for d in range(1, 4):
        if d in counts and counts[d].size and counts[d].max() == 1 << d:
            vc = d
        else:
            break
    return (masks, vc, False, shatter)


@lru_cache(maxsize=None)
def _subsets(ground: int, d: int) -> np.ndarray:
    return np.asarray(list(combinations(range(ground), d)), dtype=np.int64).reshape(-1, d)
