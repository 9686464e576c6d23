"""Distance-set, dot-product-set, regular-subset, and trace-pair machinery.

All point sets live in three-space over GF(q).  The quadratic form
||x|| = x1^2 + x2^2 + x3^2 drives the distance operations, which therefore
require odd q (in characteristic 2 the form collapses to a linear one).
Pairwise counts (dot products, distances with T in one pass, unit products,
trace classes) run over the row blocks of FieldSpec.dot_blocks.
Counts are exact; the asymptotic conclusions of the source theorems are
reported as measured ratios, never asserted with a constant.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

import numpy as np

from . import ffield
from .errors import BudgetExceeded, EqualPoints, EvenCharacteristic, InvalidPointSet
from .ffield import FieldSpec
from .geom import (Line3, Plane3, Point3, as_rows, distinct_points3, dot3, field_array,
                   line_blocks, plane_canonical, plane_counts, row_keys,
                   unit_rows)

TRIPLE_BUDGET = 10**9  # |E| * |F| pair work for the distance scan
BISECTOR_PAIR_BUDGET = 10**7


def _require_odd(fs: FieldSpec) -> None:
    if fs.p == 2:
        raise EvenCharacteristic("distance operations require odd q")


def norm3(fs: FieldSpec, x) -> int:
    """x1^2 + x2^2 + x3^2."""
    _require_odd(fs)
    return dot3(fs, x, x)


# ---------------------------------------------------------------------------
# distance sets
# ---------------------------------------------------------------------------

@dataclass
class DistanceReport:
    distance_set: set[int]
    zero_pairs: int
    T: Optional[int] = None  # equal-nonzero-distance triple count
    chain_lhs: Optional[float] = None  # (|E||F| - zero_pairs)^2
    chain_rhs: Optional[float] = None  # |set minus 0| * |F| * T
    chain_holds: Optional[bool] = None
    zero_hypothesis_ok: Optional[bool] = None  # zero_pairs <= |E||F|/2
    derived_lower: Optional[float] = None  # |E|^2 |F| / (4T) when hypothesis holds


def distance_set(fs: FieldSpec, E, F) -> DistanceReport:
    """Exact distance set, zero-distance pair count and T, in one pass.

    ||y - x|| = (y, ||y||, 1) . (-2x, 1, ||x||) for y in F and x in E, over
    the row blocks of FieldSpec.dot_blocks.  T is the number of triples
    (u, v, y) in E x E x F with ||y-u|| = ||y-v|| != 0: per row y, the sum of
    squared run lengths of its sorted nonzero distances.  Every call sorts
    each block to get T, and raises BudgetExceeded for |E| * |F| over
    TRIPLE_BUDGET (10^9) pairs, also when only the distance set is wanted.
    """
    _require_odd(fs)
    E, F = as_rows(E), as_rows(F)
    if not len(E) or not len(F):
        raise InvalidPointSet("E and F must be nonempty")
    if len(E) * len(F) > TRIPLE_BUDGET:
        raise BudgetExceeded("distance scan over 10^9 pairs")
    present = np.zeros(fs.q, dtype=bool)
    zero = T = 0
    for d in _distance_blocks(fs, field_array(fs, F, 3), field_array(fs, E, 3)):
        present[d] = True
        s = np.sort(d, axis=1)
        first = np.flatnonzero(np.diff(s, axis=1, prepend=-1))  # run starts
        runs = np.diff(first, append=s.size)
        nonzero = s.ravel()[first] != 0
        zero += int(runs[~nonzero].sum())
        T += int(runs[nonzero] @ runs[nonzero])
    return DistanceReport(set(np.flatnonzero(present).tolist()), zero, T)


def _norms(fs: FieldSpec, pts):
    """||x|| for each row (last axis) of pts, as a trailing axis of length 1."""
    sq = fs.vmul(pts, pts)
    return fs.vadd(fs.vadd(sq[..., 0], sq[..., 1]), sq[..., 2])[..., None]


def _distance_blocks(fs: FieldSpec, a, b):
    """||a_i - b_j|| in the row blocks of dot_blocks:
    (a_i, ||a_i||, 1) . (-2 b_j, 1, ||b_j||)."""
    rows = np.hstack([a, _norms(fs, a), np.ones_like(a[:, :1])])
    cols = np.hstack([fs.vmul(b, fs.neg(fs.add(1, 1))), np.ones_like(b[:, :1]), _norms(fs, b)])
    return fs.dot_blocks(rows, cols)


def triple_count_T(fs: FieldSpec, E, F) -> DistanceReport:
    """Count triples (u, v, x) in E x E x F with ||x-u|| = ||x-v|| != 0.

    The count comes from the one pass of distance_set, exact tuple-for-tuple.
    Also decides, in integers, the unconditional chain check

        (|E||F| - zero_pairs)^2 <= |distance set minus 0| * |F| * T

    and, when zero_pairs <= |E||F|/2, the derived lower bound
    |distance set| >= |E|^2 |F| / (4T).
    """
    E, F = as_rows(E), as_rows(F)
    rep = distance_set(fs, E, F)
    nonzero_pairs, rhs = len(E) * len(F) - rep.zero_pairs, len(rep.distance_set - {0}) * len(F)
    rep.chain_lhs, rep.chain_rhs = float(nonzero_pairs) ** 2, float(rhs) * rep.T
    rep.chain_holds = nonzero_pairs**2 <= rhs * rep.T  # in integers; the floats are for the CSV
    rep.zero_hypothesis_ok = rep.zero_pairs <= len(E) * len(F) / 2
    if rep.zero_hypothesis_ok and rep.T > 0:
        rep.derived_lower = len(E) ** 2 * len(F) / (4 * rep.T)
    return rep


def bisector_plane(fs: FieldSpec, x, y) -> Plane3:
    """The plane {u : ||x-u|| = ||y-u||}, i.e. 2d.u = ||y|| - ||x|| = d.(x+y)
    with d = y - x, in canonical form; x and y are read by field_array."""
    _require_odd(fs)
    (x0, x1, x2), (y0, y1, y2) = field_array(fs, [x, y], 3).tolist()
    sub, add, mul = fs.sub, fs.add, fs.mul
    d0, d1, d2 = sub(y0, x0), sub(y1, x1), sub(y2, x2)
    if not (d0 or d1 or d2):
        raise EqualPoints("bisector needs two distinct points")
    two = add(1, 1)
    rhs = add(add(mul(d0, add(x0, y0)), mul(d1, add(x1, y1))), mul(d2, add(x2, y2)))
    return plane_canonical(fs, Plane3((mul(two, d0), mul(two, d1), mul(two, d2)), rhs))


def bisector_collisions_isotropic(fs: FieldSpec, points) -> bool:
    """Whether, for every apex x among the points, bisector planes of (x, y)
    coincide only among y with ||y - x|| = 0.  Per block of apexes, the keys
    (unit form of y - x, right-hand side under the same scale) are sorted."""
    _require_odd(fs)
    pts = distinct_points3(fs, points)
    norms, n = _norms(fs, pts)[:, 0], len(pts)
    for apex in ffield.row_blocks(np.arange(n), n):
        d = fs.vadd(pts, fs.vneg(pts[apex, None]))
        unit, scale = unit_rows(fs, d)
        normal = row_keys(fs.q, unit)
        normal[np.arange(len(apex)), apex] = -1  # y = x, alone in its group
        rhs = fs.vmul(scale[..., 0], fs.vadd(norms, fs.vneg(norms[apex, None])))
        order = np.lexsort((rhs, normal), axis=1)
        normal, rhs, far = (np.take_along_axis(k, order, axis=1)
                            for k in (normal, rhs, _norms(fs, d)[..., 0] != 0))
        tied = (normal[:, 1:] == normal[:, :-1]) & (rhs[:, 1:] == rhs[:, :-1])
        if (tied & (far[:, 1:] | far[:, :-1])).any():
            return False
    return True


def bisector_collinear_k(fs: FieldSpec, E, F) -> int:
    """Largest number of collinear points of F equidistant (nonzero) from some
    pair of distinct points of E; zero when there is none.

    Q has a row per pair (x, y), 1 at u in F when (u, 1) . (2(y - x),
    ||x|| - ||y||) = 0 and ||x - u|| != 0.  Two points of a row are always
    collinear; a second pass multiplies Q by the membership matrix of the
    lines through three or more points of F in rows of three or more.
    """
    _require_odd(fs)
    e, f = distinct_points3(fs, E), distinct_points3(fs, F)
    if len(e) * (len(e) - 1) // 2 * max(len(f), 1) > BISECTOR_PAIR_BUDGET:
        raise BudgetExceeded("bisector pair scan over budget")
    if len(e) < 2 or not len(f):
        return 0
    i, j = np.triu_indices(len(e), 1)
    ne = _norms(fs, e)
    bisectors = np.hstack([fs.vmul(fs.vadd(e[j], fs.vneg(e[i])), fs.add(1, 1)),
                           fs.vadd(ne[i], fs.vneg(ne[j]))])
    on_f = np.hstack([f, np.ones_like(f[:, :1])])

    def q_blocks(width):  # Q, in the row blocks of a product against width columns
        for pairs in ffield.row_blocks(np.arange(len(i)), width):
            (plane,) = fs.dot_blocks(bisectors[pairs], on_f)
            (distance,) = _distance_blocks(fs, e[i[pairs]], f)
            yield (plane == 0) & (distance != 0)

    best, rich = 0, np.zeros(len(f), dtype=bool)
    for hits in q_blocks(len(f)):
        count = hits.sum(axis=1)
        best = max(best, min(int(count.max()), 2))
        rich |= hits[count > 2].any(axis=0)
    lines = [np.concatenate(parts) for parts in zip(*line_blocks(fs, f[rich], 3))]
    if not lines or not len(lines[0]):
        return best
    (anchor, size, rest), cols = lines, np.flatnonzero(rich)
    starts = np.cumsum(size - 1) - (size - 1)
    for hits in q_blocks(max(len(f), len(rest))):
        on_line = np.add.reduceat(hits[:, cols[rest]], starts, axis=1, dtype=np.int64)
        best = max(best, int((on_line + hits[:, cols[anchor]]).max()))
    return best


def sphere_line_scan(fs: FieldSpec, r: int) -> list[Line3]:
    """All lines fully contained in the sphere ||x|| = r, r != 0, sorted.

    b + t d lies on it for every t iff ||d|| = 0, b . d = 0 and ||b|| = r.
    For an isotropic unit direction d, leading 1 at position i, the bases
    with b_i = 0 and b . d = 0 are s v, v = d x e_i, and ||v|| = -1: so each
    of the q + 1 such d gives two lines when -r is a nonzero square, else none.
    """
    _require_odd(fs)
    r = int(field_array(fs, [[r]], 1, "radius")[0, 0])
    if r == 0:
        raise ValueError("r must be nonzero")
    # the unit directions (1, a, b), a < q, and (0, 1, b); (0, 0, 1) is not isotropic
    a, b = np.divmod(np.arange(fs.q * (fs.q + 1)), fs.q)
    d = np.column_stack([a < fs.q, np.where(a < fs.q, a, 1), b])
    d = d[_norms(fs, d)[:, 0] == 0]
    at0 = d[:, 0]  # 0 or 1: the integer products below pick d x e_0 or d x e_1
    v = np.column_stack([fs.vneg(d[:, 2]) * (1 - at0), d[:, 2] * at0, fs.vneg(d[:, 1]) * at0])
    el = np.arange(fs.q)
    bases = fs.vmul(np.flatnonzero(fs.vmul(el, el) == fs.neg(r))[:, None, None], v)
    return sorted(Line3(tuple(x), tuple(u)) for s in bases.tolist() for x, u in zip(s, d.tolist()))


# ---------------------------------------------------------------------------
# dot-product sets
# ---------------------------------------------------------------------------

@dataclass
class DotReport:
    dot_set: set[int]
    orthogonal_pairs: int  # M_0
    lambda_counts: dict[int, int]
    best_lambda: Optional[int]  # argmax of the counts over nonzero values
    orthogonal_hypothesis_ok: bool  # M_0 <= |E||F|/2


def dot_product_set(fs: FieldSpec, E, F) -> DotReport:
    """Exact dot-product value set and the per-value pair counts."""
    E, F = as_rows(E), as_rows(F)
    if not len(E) or not len(F):
        raise InvalidPointSet("E and F must be nonempty")
    hist = np.zeros(fs.q, dtype=np.int64)
    for vals in fs.dot_blocks(field_array(fs, E, 3), field_array(fs, F, 3)):  # intp bincount
        hist += np.bincount(vals.ravel(), minlength=fs.q)
    lams = np.flatnonzero(hist)
    counts = dict(zip(lams.tolist(), hist[lams].tolist()))
    # argmax returns the first, i.e. smallest, of the most frequent nonzero values
    best = int(np.argmax(hist[1:])) + 1 if hist[1:].any() else None
    return DotReport(
        dot_set=set(counts),
        orthogonal_pairs=counts.get(0, 0),
        lambda_counts=dict(counts),
        best_lambda=best,
        orthogonal_hypothesis_ok=counts.get(0, 0) <= len(E) * len(F) / 2,
    )


# ---------------------------------------------------------------------------
# regular subsets and trace pairs
# ---------------------------------------------------------------------------

@dataclass
class RegularSubsetReport:
    U1: list[Point3]
    L_heavy: list[Point3]  # |N(u)| >= 2|U|/q
    R_light: list[Point3]  # |N(u)| <= |U|/(2q)
    lower_threshold: float  # |U|/(2q)
    upper_threshold: float  # 2|U|/q
    size_hypothesis_ok: bool  # |U| >= 8 q^2
    counts: np.ndarray = field(repr=False, compare=False)  # |N(u)| as int64, in U order


def regular_subset(fs: FieldSpec, U) -> RegularSubsetReport:
    """Partition U by unit-product neighborhood size against |U|/(2q) and 2|U|/q.

    The neighborhood of u is every u' in U with u . u' = 1.  U1 keeps the
    points whose neighborhood size lies strictly between the two thresholds.
    The |U| >= 8q^2 hypothesis of the source lemma is recorded as a flag; the
    partition is returned either way for exploration.  U is read by
    field_array; the parts list its points as tuples, in the order of U.

    The count of u is the number of planes u' . x = 1, u' in U, through u,
    by geom.plane_counts; by the symmetry of u . u' = 1 it is also the
    number of points of U on the plane u . x = 1.  The zero point lies on
    none of these planes and gives none, as 0 . x = 1 is empty.  counts
    holds them as an int64 array in the order of U.  InvalidPointSet (a
    ValueError) for a point given twice.
    """
    arr = field_array(fs, as_rows(U), 3)
    if (np.diff(np.sort(row_keys(fs.q, arr))) == 0).any():
        raise InvalidPointSet("U must not contain duplicate points")
    counts = plane_counts(fs, arr, arr, np.ones(len(arr), np.int64))
    U, n = list(zip(*arr.T.tolist())), len(arr)
    lo, hi = n / (2 * fs.q), 2 * n / fs.q  # counts are below 2^53: compared exactly
    return RegularSubsetReport(
        U1=list(compress(U, ((lo < counts) & (counts < hi)).tolist())),
        L_heavy=list(compress(U, (counts >= hi).tolist())),
        R_light=list(compress(U, (counts <= lo).tolist())),
        lower_threshold=lo,
        upper_threshold=hi,
        size_hypothesis_ok=n >= 8 * fs.q**2,
        counts=counts,
    )


@dataclass
class TracePairReport:
    class_sizes: list[int]  # multiplicities m(S), descending
    pair_count: int  # sum of m(S)^2
    classes: int
    bound_value: float  # |U|^2 / |U'|^3 (inf when U' is empty)
    cs_lower: float  # |U|^2 / classes; pair_count >= cs_lower always
    ratio_vs_bound: float  # pair_count / bound_value
    cs_holds: bool  # pair_count * classes >= |U|^2, decided in Python ints


def trace_pairs(fs: FieldSpec, U, Uprime) -> TracePairReport:
    """Group u in U by the trace of the dual plane {x : u.x = 1} on U'.

    pair_count = sum m(S)^2 counts the pairs (u, v) with identical traces;
    the exact Cauchy-Schwarz floor |U|^2 / #classes always holds, and the
    ratio against |U|^2 / |U'|^3 is reported (that bound is asymptotic).
    """
    U = field_array(fs, as_rows(U), 3)
    if not len(U):
        raise InvalidPointSet("U must be nonempty")
    Up = field_array(fs, as_rows(Uprime), 3)
    keys, sub = np.sort(row_keys(fs.q, U)), row_keys(fs.q, Up)
    if (keys[np.searchsorted(keys, sub) % len(keys)] != sub).any():  # each key of U' in U
        raise InvalidPointSet("U' must be a subset of U")
    groups: Counter = Counter()
    for vals in fs.dot_blocks(U, Up):
        packed = np.packbits(vals == 1, axis=1)
        # one void scalar (the trace's bytes) per row: a 1-D sort, several
        # times faster than sorting the rows with axis=0
        traces, mult = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_counts=True)
        groups.update(dict(zip(traces.tolist(), mult.tolist())))
    # an empty U' leaves every u the one empty trace, which a void view of
    # zero bytes per row cannot hold
    sizes = sorted(groups.values(), reverse=True) if len(Up) else [len(U)]
    pair_count = sum(m * m for m in sizes)
    classes = len(sizes)
    bound = len(U) ** 2 / len(Up) ** 3 if len(Up) else math.inf
    cs_lower = len(U) ** 2 / classes
    ratio = pair_count / bound if bound != math.inf else 0.0
    return TracePairReport(sizes, pair_count, classes, bound, cs_lower, ratio,
                           pair_count * classes >= len(U) ** 2)
