"""Affine points, lines, and planes over GF(q) with exact incidence counting.

Points are plain tuples of field-element indices.  Lines in the plane are a
tagged union: "N" for y = a*x + b (a may be zero) and "V" for x = c.  Planes
are stored as (normal, rhs) for {x : normal . x = rhs}; the affine_one flag
marks planes kept in the normalized form normal . x = 1 instead of the
scaled canonical form.

Everything here is affine and exact; there is no projective geometry and no
floating point.
"""

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import ffield
from .errors import FieldMismatch, SizeCap
from .ffield import FieldSpec

# Hard budget for the brute-force pair loop.
ORACLE_PAIR_CAP = 10**9

Point2 = tuple[int, int]
Point3 = tuple[int, int, int]


class Line2(NamedTuple):
    kind: str  # "N": y = a*x + b, "V": x = a (b unused, kept 0)
    a: int
    b: int


def nonvertical(a: int, b: int) -> Line2:
    return Line2("N", a, b)


def vertical(c: int) -> Line2:
    return Line2("V", c, 0)


class Plane3(NamedTuple):
    normal: Point3
    rhs: int
    affine_one: bool = False


class Line3(NamedTuple):
    base: Point3
    direction: Point3


class IncidenceCount(NamedTuple):
    count: int
    method: str


class PlaneMeet(NamedTuple):
    kind: str  # "same" | "empty" | "line"
    line: Optional[Line3]


def plane_through_one(normal: Point3) -> Plane3:
    """The paper-normalized plane normal . x = 1; normal must be nonzero."""
    if normal == (0, 0, 0):
        raise ValueError("plane normal must be nonzero")
    return Plane3(tuple(normal), 1, True)


def make_plane(fs: FieldSpec, normal, rhs: int) -> Plane3:
    if tuple(normal) == (0, 0, 0):
        raise ValueError("plane normal must be nonzero")
    return plane_canonical(fs, Plane3(tuple(normal), rhs, False))


def plane_canonical(fs: FieldSpec, plane: Plane3) -> Plane3:
    """Scale so the first nonzero normal coordinate is 1 (drops affine_one)."""
    nrm = plane.normal
    i0 = next(i for i in range(3) if nrm[i] != 0)
    if nrm[i0] == 1 and not plane.affine_one:
        return plane
    s = fs.inv(nrm[i0])
    return Plane3(tuple(fs.mul(s, c) for c in nrm), fs.mul(s, plane.rhs), False)


def decode_points(q: int, idxs, dim: int = 3) -> list[tuple[int, ...]]:
    """The points with the given indices, in order: (x_0, ..., x_{dim-1}) has
    index x_0 + x_1 q + ... + x_{dim-1} q^(dim-1), so range(q**dim) lists
    the whole space and range(1, q**dim) every nonzero point."""
    idxs = list(idxs)
    return list(zip(*[[idx // s % q for idx in idxs] for s in (q**i for i in range(dim))]))


def all_planes_through_one(fs: FieldSpec) -> list[Plane3]:
    """Every plane of the form a . x = 1, a nonzero: q^3 - 1 planes."""
    return [plane_through_one(a) for a in decode_points(fs.q, range(1, fs.q**3))]


def grid_points(a_set: Sequence[int], b_set: Sequence[int]) -> list[Point2]:
    """The Cartesian product point set A x B."""
    return [(x, y) for x in a_set for y in b_set]


def _check_coords(fs: FieldSpec, coords, what: str = "coordinate") -> None:
    for c in coords:
        if not 0 <= c < fs.q:
            raise FieldMismatch(f"{what} {c} outside [0, {fs.q})")


def _check_flat(fs: FieldSpec, flat) -> None:
    """A known line kind, coefficients in [0, q), a nonzero plane normal."""
    if isinstance(flat, Line2):
        if flat.kind not in ("N", "V"):
            raise FieldMismatch(f"unknown line kind {flat.kind!r}")
        _check_coords(fs, (flat.a, flat.b), "line coefficient")
    elif isinstance(flat, Plane3):
        if len(flat.normal) != 3:
            raise FieldMismatch("a plane normal needs 3 coordinates")
        _check_coords(fs, (*flat.normal, flat.rhs), "plane coefficient")
        if not any(flat.normal):
            raise FieldMismatch("plane normal must be nonzero")
    else:
        raise FieldMismatch(f"unsupported flat type {type(flat)!r}")


def check_incidence_input(fs: FieldSpec, points, flats, lines: bool) -> None:
    """Every flat a valid Line2 (lines) or Plane3, every point of matching
    dimension with coordinates in [0, q); FieldMismatch otherwise."""
    kind = Line2 if lines else Plane3
    for f in flats:
        if not isinstance(f, kind):
            raise FieldMismatch(f"expected {kind.__name__} flats, got {type(f).__name__}")
        _check_flat(fs, f)
    dim = 2 if lines else 3
    for pt in points:
        if len(pt) != dim:
            raise FieldMismatch(f"expected {dim}-coordinate points")
        _check_coords(fs, pt)


def coords_array(rows, dim: int):
    """Points (or other rows of dim field elements) as an int64 (len, dim) array;
    FieldMismatch when a row does not hold dim coordinates."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    except ValueError:
        raise FieldMismatch(f"expected {dim}-coordinate points") from None


def dot3(fs: FieldSpec, u, v) -> int:
    return fs.add(
        fs.add(fs.mul(u[0], v[0]), fs.mul(u[1], v[1])), fs.mul(u[2], v[2])
    )


# ---------------------------------------------------------------------------
# incidence counting
# ---------------------------------------------------------------------------

def count_incidences(fs, points, flats, method: str = "fast") -> IncidenceCount:
    """Exact I(P, L) or I(P, Pi).

    "oracle" is the plain double loop over all (point, flat) pairs and is the
    reference everything else is checked against.  "fast" runs over the row
    blocks of FieldSpec.dot_blocks: for planes, point . normal against the
    right-hand side; for lines, (x, y) . (-a, 1) = y - a*x against the
    intercepts of the lines of slope a, with x = c as (x, y) . (1, 0) = c.
    Both return identical counts.  Both raise FieldMismatch for a coordinate
    or flat coefficient outside [0, q), an unknown line kind or a zero plane
    normal.
    """
    if method not in ("oracle", "fast"):
        raise ValueError(f"unknown method {method!r}")
    points = list(points)
    flats = list(flats)
    if not points or not flats:
        return IncidenceCount(0, method)
    lines = isinstance(flats[0], Line2)
    check_incidence_input(fs, points, flats, lines)
    if method == "oracle":
        if len(points) * len(flats) > ORACLE_PAIR_CAP:
            raise SizeCap("oracle pair count over 10^9")
        return IncidenceCount(_count_oracle(fs, points, flats, lines), "oracle")
    if lines:
        return IncidenceCount(_count_lines_fast(fs, points, flats), "fast")
    return IncidenceCount(_count_planes_fast(fs, points, flats), "fast")


def _count_oracle(fs, points, flats, lines: bool) -> int:
    total = 0
    if lines:
        add, mul = fs.add, fs.mul
        for x, y in points:
            for ln in flats:
                if ln.kind == "V":
                    total += x == ln.a
                else:
                    total += y == add(mul(ln.a, x), ln.b)
    else:
        add, mul = fs.add, fs.mul
        for pt in points:
            x0, x1, x2 = pt
            for pl in flats:
                n = pl.normal
                s = add(add(mul(n[0], x0), mul(n[1], x1)), mul(n[2], x2))
                total += s == pl.rhs
    return total


def _count_lines_fast(fs, points, flats) -> int:
    # Line k has a direction row D[k] and a value v[k], and (x, y) lies on it
    # iff (x, y) . D[k] = v[k]; lines sharing a direction share a row.
    dirs: dict[tuple[int, int], int] = {}
    keys = []
    for ln in flats:
        d, v = ((1, 0), ln.a) if ln.kind == "V" else ((fs.neg(ln.a), 1), ln.b)
        keys.append(dirs.setdefault(d, len(dirs)) * fs.q + v)
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    pts, D = coords_array(points, 2), coords_array(list(dirs), 2)
    # lines per (direction, value) bucket, over chunks of directions whose
    # bucket table stays within the block budget
    step = max(1, ffield.PAIR_BLOCK_ELEMENTS // fs.q)
    total = 0
    for lo in range(0, len(D), step):
        chunk = D[lo : lo + step]
        first, end = np.searchsorted(keys, [lo * fs.q, (lo + len(chunk)) * fs.q])
        table = np.bincount(keys[first:end] - lo * fs.q, minlength=len(chunk) * fs.q)
        offset = np.arange(len(chunk), dtype=np.int64) * fs.q
        total += sum(int(table[vals + offset].sum()) for vals in fs.dot_blocks(pts, chunk))
    return total


def _count_planes_fast(fs, points, flats) -> int:
    pts = coords_array(points, 3)
    nrm = coords_array([pl.normal for pl in flats], 3)
    rhs = np.asarray([pl.rhs for pl in flats], dtype=np.int64)
    return sum(int(np.count_nonzero(vals == rhs)) for vals in fs.dot_blocks(pts, nrm))


# ---------------------------------------------------------------------------
# collinearity
# ---------------------------------------------------------------------------

def _as_point3(pt) -> Point3:
    if len(pt) == 3:
        return tuple(pt)
    if len(pt) == 2:
        return (pt[0], pt[1], 0)
    raise FieldMismatch("points must have 2 or 3 coordinates")


def line3_key(fs: FieldSpec, p: Point3, r: Point3) -> Line3:
    """Canonical key for the line through two distinct points.

    The direction is scaled so its first nonzero coordinate is 1; the base
    point is reduced along the direction so that the coordinate at that
    position is 0.  Distinct point pairs on one line map to one key.
    """
    d = tuple(fs.sub(r[i], p[i]) for i in range(3))
    i0 = next(i for i in range(3) if d[i] != 0)
    s = fs.inv(d[i0])
    dn = tuple(fs.mul(s, c) for c in d)
    t = p[i0]
    base = tuple(fs.sub(p[i], fs.mul(t, dn[i])) for i in range(3))
    return Line3(base, dn)


def line3_points(fs: FieldSpec, line: Line3) -> list[Point3]:
    """The q points base + t*direction."""
    b, d = line.base, line.direction
    out = []
    for t in fs.elements():
        out.append(tuple(fs.add(b[i], fs.mul(t, d[i])) for i in range(3)))
    return out


def max_collinear(fs, points) -> tuple[int, Optional[Line3]]:
    """Exact maximum number of input points on one common line, plus a witness.

    Accepts 2- or 3-coordinate points (2D inputs are embedded in the z = 0
    plane).  Returns k = 1 with no witness for a single point; duplicate
    input points are collapsed first.
    """
    pts = sorted({_as_point3(pt) for pt in points})
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return 1, None
    on_line: dict[Line3, set[int]] = {}
    for i, j in combinations(range(len(pts)), 2):
        key = line3_key(fs, pts[i], pts[j])
        grp = on_line.get(key)
        if grp is None:
            on_line[key] = {i, j}
        else:
            grp.add(i)
            grp.add(j)
    best_key = max(on_line, key=lambda k: (len(on_line[k]), k))
    return len(on_line[best_key]), best_key


def plane_intersection(fs: FieldSpec, p1: Plane3, p2: Plane3) -> PlaneMeet:
    """Classify the meet of two planes: Same, Empty, or a Line of q points."""
    c1 = plane_canonical(fs, p1)
    c2 = plane_canonical(fs, p2)
    if c1.normal == c2.normal:
        return PlaneMeet("same" if c1.rhs == c2.rhs else "empty", None)
    n1, n2 = c1.normal, c2.normal
    d = (
        fs.sub(fs.mul(n1[1], n2[2]), fs.mul(n1[2], n2[1])),
        fs.sub(fs.mul(n1[2], n2[0]), fs.mul(n1[0], n2[2])),
        fs.sub(fs.mul(n1[0], n2[1]), fs.mul(n1[1], n2[0])),
    )
    k = next(i for i in range(3) if d[i] != 0)
    i, j = [c for c in range(3) if c != k]
    det = fs.sub(fs.mul(n1[i], n2[j]), fs.mul(n1[j], n2[i]))
    det_inv = fs.inv(det)
    r1, r2 = c1.rhs, c2.rhs
    xi = fs.mul(det_inv, fs.sub(fs.mul(r1, n2[j]), fs.mul(r2, n1[j])))
    xj = fs.mul(det_inv, fs.sub(fs.mul(n1[i], r2), fs.mul(n2[i], r1)))
    base = [0, 0, 0]
    base[i], base[j] = xi, xj
    b = tuple(base)
    other = tuple(fs.add(b[t], d[t]) for t in range(3))
    return PlaneMeet("line", line3_key(fs, b, other))


def max_shared_collinear(fs, points, planes) -> int:
    """Max, over plane pairs meeting in a line, of input points on that line.

    This is the checker for the light-lines hypothesis: a value below k means
    no line contained in two of the planes holds k points of the set.
    """
    pset = {_as_point3(pt) for pt in points}
    best = 0
    seen: set[Line3] = set()
    for a, b in combinations(range(len(planes)), 2):
        meet = plane_intersection(fs, planes[a], planes[b])
        if meet.kind != "line" or meet.line in seen:
            continue
        seen.add(meet.line)
        cnt = sum(1 for pt in line3_points(fs, meet.line) if pt in pset)
        if cnt > best:
            best = cnt
    return best
