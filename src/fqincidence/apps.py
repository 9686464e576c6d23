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
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    CoplanarPointSet,
    EqualPoints,
    EvenCharacteristic,
    TooFewMarkedPoints,
)
from .ffield import FieldSpec
from .geom import (
    Line3,
    Plane3,
    Point3,
    coords_array,
    dot3,
    line3_points,
    max_collinear,
)

TRIPLE_BUDGET = 10**9  # |E| * |F| pair work for the distance scan
SPHERE_SCAN_MAX_Q = 13
BISECTOR_PAIR_BUDGET = 10**7


def _require_odd(fs: FieldSpec) -> None:
    if fs.p == 2:
        raise EvenCharacteristic("distance operations require odd q")


def norm3(fs: FieldSpec, x) -> int:
    """x1^2 + x2^2 + x3^2."""
    _require_odd(fs)
    return dot3(fs, x, x)


def dist(fs: FieldSpec, x, y) -> int:
    _require_odd(fs)
    d = tuple(fs.sub(x[i], y[i]) for i in range(3))
    return dot3(fs, d, d)


# ---------------------------------------------------------------------------
# distance sets
# ---------------------------------------------------------------------------

@dataclass
class DistanceReport:
    distance_set: set[int]
    zero_pairs: int
    T: Optional[int] = None  # equal-nonzero-distance triple count
    k_bisector: Optional[int] = None
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
    E, F = list(E), list(F)
    if not E or not F:
        raise ValueError("E and F must be nonempty")
    if len(E) * len(F) > TRIPLE_BUDGET:
        raise BudgetExceeded("distance scan over 10^9 pairs")
    e, f = coords_array(E, 3), coords_array(F, 3)
    rows = np.hstack([f, _norms(fs, f), np.ones_like(f[:, :1])])
    cols = np.hstack([fs.vmul(e, fs.neg(fs.add(1, 1))), np.ones_like(e[:, :1]), _norms(fs, e)])
    present = np.zeros(fs.q, dtype=bool)
    zero = T = 0
    for d in fs.dot_blocks(rows, cols):
        present[d] = True
        s = np.sort(d, axis=1)
        first = np.flatnonzero(np.diff(s, axis=1, prepend=-1))  # run starts
        runs = np.diff(first, append=s.size)
        nonzero = s.ravel()[first] != 0
        zero += int(runs[~nonzero].sum())
        T += int(runs[nonzero] @ runs[nonzero])
    return DistanceReport(set(np.flatnonzero(present).tolist()), zero, T)


def _norms(fs: FieldSpec, pts):
    """||x|| for each row of pts, as a column."""
    sq = fs.vmul(pts, pts)
    return fs.vadd(fs.vadd(sq[:, 0], sq[:, 1]), sq[:, 2])[:, None]


def triple_count_T(fs: FieldSpec, E, F) -> DistanceReport:
    """Count triples (u, v, x) in E x E x F with ||x-u|| = ||x-v|| != 0.

    The count comes from the one pass of distance_set, which agrees with the
    definition tuple-for-tuple.  Also runs the unconditional chain check

        (|E||F| - zero_pairs)^2 <= |distance set minus 0| * |F| * T

    and, when zero_pairs <= |E||F|/2, the derived lower bound
    |distance set| >= |E|^2 |F| / (4T).
    """
    E, F = list(E), list(F)
    rep = distance_set(fs, E, F)
    nonzero_pairs = len(E) * len(F) - rep.zero_pairs
    rep.chain_lhs = float(nonzero_pairs) ** 2
    rep.chain_rhs = float(len(rep.distance_set - {0})) * len(F) * rep.T
    rep.chain_holds = rep.chain_lhs <= rep.chain_rhs
    rep.zero_hypothesis_ok = rep.zero_pairs <= len(E) * len(F) / 2
    if rep.zero_hypothesis_ok and rep.T > 0:
        rep.derived_lower = len(E) ** 2 * len(F) / (4 * rep.T)
    return rep


def full_distance_report(fs: FieldSpec, E, F) -> DistanceReport:
    """distance_set + triple count + chain check + the bisector collinearity k."""
    rep = triple_count_T(fs, E, F)
    rep.k_bisector = bisector_collinear_k(fs, E, F)
    return rep


def bisector_plane(fs: FieldSpec, x, y) -> Plane3:
    """The plane {u : ||x-u|| = ||y-u||}, i.e. 2(y-x).u = ||y|| - ||x||."""
    _require_odd(fs)
    if tuple(x) == tuple(y):
        raise EqualPoints("bisector needs two distinct points")
    two = fs.add(1, 1)
    normal = tuple(fs.mul(two, fs.sub(y[i], x[i])) for i in range(3))
    rhs = fs.sub(norm3(fs, y), norm3(fs, x))
    from .geom import make_plane

    return make_plane(fs, normal, rhs)


def bisector_collinear_k(fs: FieldSpec, E, F) -> int:
    """Largest number of collinear points of F equidistant (nonzero) from some
    pair of distinct points of E.

    Zero when E has no distinct pair or no qualifying configuration exists.
    """
    _require_odd(fs)
    E, F = list(set(E)), list(F)
    if len(E) * (len(E) - 1) // 2 * max(len(F), 1) > BISECTOR_PAIR_BUDGET:
        raise BudgetExceeded("bisector pair scan over budget")
    best = 0
    for i in range(len(E)):
        for j in range(i + 1, len(E)):
            x, y = E[i], E[j]
            pl = bisector_plane(fs, x, y)
            qualifying = [
                u for u in F if dot3(fs, pl.normal, u) == pl.rhs and dist(fs, x, u) != 0
            ]
            if len(qualifying) <= best:
                continue
            k, _ = max_collinear(fs, qualifying) if qualifying else (0, None)
            if k > best:
                best = k
    return best


def sphere_line_scan(fs: FieldSpec, r: int) -> list[Line3]:
    """All lines fully contained in the sphere ||x|| = r, r != 0.

    Exhaustive over lines spanned by sphere point pairs.  The answer is
    empty exactly when -r is not a nonzero square; for q = 3 mod 4 that
    means exactly when r is a nonzero square.  Budget: q <= 13.
    """
    _require_odd(fs)
    if r == 0:
        raise ValueError("r must be nonzero")
    if fs.q > SPHERE_SCAN_MAX_Q:
        raise BudgetExceeded(f"sphere scan capped at q <= {SPHERE_SCAN_MAX_Q}")
    q = fs.q
    sphere = set()
    for idx in range(q**3):
        pt = (idx % q, (idx // q) % q, idx // (q * q))
        if norm3(fs, pt) == r:
            sphere.add(pt)
    pts = sorted(sphere)
    from .geom import line3_key

    seen: set[Line3] = set()
    found: list[Line3] = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            key = line3_key(fs, pts[i], pts[j])
            if key in seen:
                continue
            seen.add(key)
            if all(p in sphere for p in line3_points(fs, key)):
                found.append(key)
    found.sort()
    return found


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
    E, F = list(E), list(F)
    if not E or not F:
        raise ValueError("E and F must be nonempty")
    hist = np.zeros(fs.q, dtype=np.int64)
    for vals in fs.dot_blocks(coords_array(E, 3), coords_array(F, 3)):
        hist += np.bincount(vals.ravel(), minlength=fs.q)
    counts = {lam: c for lam, c in enumerate(hist.tolist()) if c}
    # argmax returns the first, i.e. smallest, of the most frequent nonzero values
    best = int(np.argmax(hist[1:])) + 1 if hist[1:].any() else None
    return DotReport(
        dot_set=set(counts),
        orthogonal_pairs=counts.get(0, 0),
        lambda_counts=dict(counts),
        best_lambda=best,
        orthogonal_hypothesis_ok=counts.get(0, 0) <= len(E) * len(F) / 2,
    )


def affine_rank(fs: FieldSpec, points) -> int:
    """Rank of the differences to the first point; 3 means not coplanar."""
    pts = list(points)
    if len(pts) < 2:
        return 0
    base = pts[0]
    rows = [tuple(fs.sub(p[i], base[i]) for i in range(3)) for p in pts[1:]]
    rank = 0
    reduced: list[tuple[int, ...]] = []
    for row in rows:
        row = list(row)
        for piv_col, piv_row in reduced:
            c = row[piv_col]
            if c:
                row = [fs.sub(row[t], fs.mul(c, piv_row[t])) for t in range(3)]
        lead = next((t for t in range(3) if row[t] != 0), None)
        if lead is not None:
            inv = fs.inv(row[lead])
            reduced.append((lead, tuple(fs.mul(inv, v) for v in row)))
            rank += 1
            if rank == 3:
                break
    return rank


@dataclass
class DotKLineReport:
    k: int  # marked points of F on the line
    path: str  # "distinct-lambdas" | "witness-point"
    lambdas: list[int]  # nonzero constant-product values met by E
    witness: Optional[Point3]
    products: list[int]  # the k distinct products along the chosen path
    dot_count: int  # |D(E, marked)|
    ok: bool  # dot_count >= k


def dot_k_line_check(fs: FieldSpec, E, F, line0: Line3) -> DotKLineReport:
    """Verify |D(E, marked points of F on line0)| >= k via the two-path argument.

    Path one: enough distinct nonzero values lambda occur as the constant
    product of some point of E with every marked point (those points sit on
    the common intersection line of the lambda-planes).  Path two: a point of
    E off the plane {x : x . direction = 0} has k distinct products with the
    marked points.  E must not be contained in any plane, and k >= 2.
    """
    E = list(E)
    marked = sorted(set(line3_points(fs, line0)) & set(map(tuple, F)))
    k = len(marked)
    if k < 2:
        raise TooFewMarkedPoints(f"line carries {k} points of F; need >= 2")
    if affine_rank(fs, E) < 3:
        raise CoplanarPointSet("E is contained in a plane")
    dot_values, lambdas = set(), set()
    for prods in fs.dot_blocks(coords_array(E, 3), coords_array(marked, 3)):
        dot_values.update(np.unique(prods).tolist())
        const = prods[(prods == prods[:, :1]).all(axis=1), 0]  # one product per row
        lambdas.update(const[const != 0].tolist())
    if len(lambdas) >= k:
        return DotKLineReport(
            k, "distinct-lambdas", sorted(lambdas), None, sorted(lambdas)[:k],
            len(dot_values), len(dot_values) >= k,
        )
    d = line0.direction
    witness = next((e for e in E if dot3(fs, e, d) != 0), None)
    if witness is None:  # impossible once affine_rank(E) == 3
        raise CoplanarPointSet("E lies in the plane x . direction = 0")
    products = sorted({dot3(fs, witness, u) for u in marked})
    return DotKLineReport(
        k, "witness-point", sorted(lambdas), witness, products,
        len(dot_values), len(dot_values) >= k,
    )


def dot_shared_collinear_k(
    fs: FieldSpec, E, F, pair_budget: int = 10**6
) -> tuple[int, dict[int, int]]:
    """Global and per-lambda maxima of |F on the common line of two lambda-planes|.

    For each nonzero lambda and distinct u, v in E, the planes u.x = lambda
    and v.x = lambda either miss each other or meet in a line; the value is
    the largest number of F-points on such a line.
    """
    from .geom import plane_intersection, make_plane

    E = list({tuple(e) for e in E})
    fset = {tuple(y) for y in F}
    n_pairs = len(E) * (len(E) - 1) // 2
    if n_pairs * (fs.q - 1) > pair_budget:
        raise BudgetExceeded("lambda-plane pair scan over budget")
    per_lambda: dict[int, int] = {}
    for lam in range(1, fs.q):
        best = 0
        for i in range(len(E)):
            if E[i] == (0, 0, 0):
                continue
            for j in range(i + 1, len(E)):
                if E[j] == (0, 0, 0):
                    continue
                meet = plane_intersection(
                    fs, make_plane(fs, E[i], lam), make_plane(fs, E[j], lam)
                )
                if meet.kind != "line":
                    continue
                cnt = sum(1 for p in line3_points(fs, meet.line) if p in fset)
                if cnt > best:
                    best = cnt
        per_lambda[lam] = best
    return max(per_lambda.values(), default=0), per_lambda


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
    neighbor_sizes: dict[Point3, int] = field(repr=False, default_factory=dict)


def _unit_dot_counts(fs: FieldSpec, U: list[Point3]) -> list[int]:
    """For each u in U, the number of u' in U with u . u' = 1."""
    arr = coords_array(U, 3)
    return [c for vals in fs.dot_blocks(arr, arr) for c in (vals == 1).sum(axis=1)]


def regular_subset(fs: FieldSpec, U) -> RegularSubsetReport:
    """Partition U by unit-product neighborhood size against |U|/(2q) and 2|U|/q.

    U1 keeps the points whose neighborhood size lies strictly between the two
    thresholds.  The |U| >= 8q^2 hypothesis of the source lemma is recorded
    as a flag; the partition is returned either way for exploration.
    """
    U = list(map(tuple, U))
    if len(set(U)) != len(U):
        raise ValueError("U must not contain duplicate points")
    counts = _unit_dot_counts(fs, U)
    n = len(U)
    lo = n / (2 * fs.q)
    hi = 2 * n / fs.q
    heavy, light, middle = [], [], []
    sizes = {}
    for u, c in zip(U, counts):
        sizes[u] = c
        if c >= hi:
            heavy.append(u)
        elif c <= lo:
            light.append(u)
        else:
            middle.append(u)
    return RegularSubsetReport(
        U1=middle,
        L_heavy=heavy,
        R_light=light,
        lower_threshold=lo,
        upper_threshold=hi,
        size_hypothesis_ok=n >= 8 * fs.q**2,
        neighbor_sizes=sizes,
    )


@dataclass
class TracePairReport:
    class_sizes: list[int]  # multiplicities m(S), descending
    pair_count: int  # sum of m(S)^2
    classes: int
    bound_value: float  # |U|^2 / |U'|^3 (inf when U' is empty)
    cs_lower: float  # |U|^2 / classes; pair_count >= cs_lower always
    ratio_vs_bound: float  # pair_count / bound_value


def trace_pairs(fs: FieldSpec, U, Uprime) -> TracePairReport:
    """Group u in U by the trace of the dual plane {x : u.x = 1} on U'.

    pair_count = sum m(S)^2 counts the pairs (u, v) with identical traces;
    the exact Cauchy-Schwarz floor |U|^2 / #classes always holds, and the
    ratio against |U|^2 / |U'|^3 is reported (that bound is asymptotic).
    """
    U = list(map(tuple, U))
    Up = list(map(tuple, Uprime))
    if not set(Up) <= set(U):
        raise ValueError("U' must be a subset of U")
    groups: Counter = Counter()
    for vals in fs.dot_blocks(coords_array(U, 3), coords_array(Up, 3)):
        traces, mult = np.unique(np.packbits(vals == 1, axis=1), axis=0, return_counts=True)
        groups.update(dict(zip(map(bytes, traces), mult.tolist())))
    sizes = sorted(groups.values(), reverse=True)
    pair_count = sum(m * m for m in sizes)
    classes = len(sizes)
    bound = len(U) ** 2 / len(Up) ** 3 if Up else math.inf
    cs_lower = len(U) ** 2 / classes
    ratio = pair_count / bound if bound != math.inf else 0.0
    return TracePairReport(sizes, pair_count, classes, bound, cs_lower, ratio)
