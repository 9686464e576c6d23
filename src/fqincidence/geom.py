"""Affine points, lines, and planes over GF(q) with exact incidence counting.

Points are plain tuples of field-element indices.  Lines in the plane are a
tagged union: "N" for y = a*x + b (a may be zero) and "V" for x = c.  Planes
are stored as (normal, rhs) for {x : normal . x = rhs}; the affine_one flag
marks planes kept in the normalized form normal . x = 1 instead of the
scaled canonical form.

Everything here is affine and exact; there is no projective geometry and no
floating point.
"""

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


def _check_array(fs: FieldSpec, arr, what: str = "coordinate") -> None:
    bad = arr[(arr < 0) | (arr >= fs.q)]
    if bad.size:
        raise FieldMismatch(f"{what} {bad[0]} outside [0, {fs.q})")


def field_array(fs: FieldSpec, rows, dim: int, what: str = "coordinate"):
    """coords_array(rows, dim); FieldMismatch for an entry outside [0, q)."""
    arr = coords_array(rows, dim)
    _check_array(fs, arr, what)
    return arr


def plane_rows(fs: FieldSpec, planes):
    """Normals and right-hand sides as int64 arrays; FieldMismatch for a
    coefficient outside [0, q) or a zero normal."""
    nrm = coords_array([pl.normal for pl in planes], 3, "plane normals")
    rhs = np.array([pl.rhs for pl in planes], dtype=np.int64)
    _check_array(fs, np.column_stack([nrm, rhs]), "plane coefficient")
    if not nrm.any(axis=1).all():
        raise FieldMismatch("plane normal must be nonzero")
    return nrm, rhs


def check_incidence_input(fs: FieldSpec, points, flats, lines: bool):
    """Every flat a valid Line2 (lines) or Plane3, every point of matching
    dimension with coordinates in [0, q); FieldMismatch otherwise.  Returns
    the points as an int64 array and the flats as rows: the (a, b) array of
    the lines, or plane_rows of the planes."""
    kind = Line2 if lines else Plane3
    for f in flats:
        if not isinstance(f, kind):
            raise FieldMismatch(f"expected {kind.__name__} flats, got {type(f).__name__}")
        if lines and f.kind not in ("N", "V"):
            raise FieldMismatch(f"unknown line kind {f.kind!r}")
    if lines:
        rows = field_array(fs, [f[1:] for f in flats], 2, "line coefficient")
    else:
        rows = plane_rows(fs, flats)
    return field_array(fs, points, 2 if lines else 3), rows


def coords_array(rows, dim: int, what: str = "points"):
    """Points (or other rows of dim field elements) as an int64 (len, dim) array;
    FieldMismatch when a row does not hold dim coordinates."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    except ValueError:
        raise FieldMismatch(f"expected {dim}-coordinate {what}") from None


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
    pts, rows = check_incidence_input(fs, points, flats, lines)
    if method == "oracle":
        if len(points) * len(flats) > ORACLE_PAIR_CAP:
            raise SizeCap("oracle pair count over 10^9")
        return IncidenceCount(_count_oracle(fs, points, flats, lines), "oracle")
    if lines:
        return IncidenceCount(_count_lines_fast(fs, pts, flats, rows), "fast")
    nrm, rhs = rows
    count = sum(int(np.count_nonzero(vals == rhs)) for vals in fs.dot_blocks(pts, nrm))
    return IncidenceCount(count, "fast")


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


def _count_lines_fast(fs, pts, flats, ab) -> int:
    # Line k has a direction row D[k] and a value v[k], and (x, y) lies on it
    # iff (x, y) . D[k] = v[k]: (1, 0) and a for x = a, (-a, 1) and b for
    # y = a*x + b.  A direction packs into one int in [0, q], q for (1, 0)
    # and -a for (-a, 1); lines sharing a direction share a row, numbered in
    # packed order.
    vert = np.fromiter((f.kind == "V" for f in flats), dtype=bool, count=len(flats))
    a, b = ab[:, 0], ab[:, 1]
    packed = np.where(vert, fs.q, fs.vneg(a))
    used = np.zeros(fs.q + 1, dtype=bool)
    used[packed] = True
    dirs = np.flatnonzero(used)
    keys = np.sort((np.cumsum(used) - 1)[packed] * fs.q + np.where(vert, a, b))
    D = np.column_stack([np.where(dirs == fs.q, 1, dirs), dirs < fs.q])
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


# ---------------------------------------------------------------------------
# collinearity
# ---------------------------------------------------------------------------

def _as_point3(pt) -> Point3:
    if len(pt) == 3:
        return tuple(pt)
    if len(pt) == 2:
        return (pt[0], pt[1], 0)
    raise FieldMismatch("points must have 2 or 3 coordinates")


def distinct_points3(fs: FieldSpec, points):
    """The distinct points, sorted, as an int64 (n, 3) array; 2-coordinate
    points are embedded in the z = 0 plane.  FieldMismatch for a coordinate
    outside [0, q)."""
    return field_array(fs, sorted({_as_point3(pt) for pt in points}), 3)


def unit_rows(fs: FieldSpec, rows):
    """Every row (last axis) scaled so its first nonzero entry is 1, and the
    scale, as a trailing axis of length 1; a zero row stays zero, scale 1."""
    lead = np.take_along_axis(rows, np.argmax(rows != 0, axis=-1)[..., None], axis=-1)
    scale = fs.vinv(np.where(lead == 0, 1, lead))
    return fs.vmul(rows, scale), scale


def row_keys(q: int, rows):
    """Rows of three field elements as int64 keys ordered like the tuples."""
    return rows @ np.array([q * q, q, 1], dtype=np.int64)


def line_keys(fs: FieldSpec, P, R):
    """Canonical (base, direction) rows of the lines through the pairs P[i] !=
    R[i]: the direction scaled so its first nonzero coordinate is 1, the base
    moved along it so that coordinate is 0; one key per line."""
    d, _ = unit_rows(fs, fs.vadd(R, fs.vneg(P)))
    t = np.take_along_axis(P, np.argmax(d != 0, axis=-1)[..., None], axis=-1)
    return fs.vadd(P, fs.vneg(fs.vmul(t, d))), d


def line3_points(fs: FieldSpec, line: Line3) -> list[Point3]:
    """The q points base + t*direction."""
    return [tuple(fs.add(b, fs.mul(t, d)) for b, d in zip(*line)) for t in fs.elements()]


def line_blocks(fs: FieldSpec, pts, least: int = 2):
    """The lines through at least least >= 2 of the distinct points pts (an
    (n, 3) array), each once, as (anchor, size, rest) per block of anchors:
    per line its lowest point and point count, then all its other points.
    Per anchor, the sorted keys of the unit directions to every point hold
    the rest of each line through it in a run; a block has at most
    PAIR_BLOCK_ELEMENTS pairs."""
    n = len(pts)
    step = max(1, ffield.PAIR_BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, n, step):
        anchors = np.arange(lo, min(lo + step, n))
        key = row_keys(fs.q, unit_rows(fs, fs.vadd(pts, fs.vneg(pts[anchors, None])))[0])
        key[np.arange(len(anchors)), anchors] = -1  # sorts first: runs never span rows
        order = np.argsort(key, axis=1, kind="stable")
        key = np.take_along_axis(key, order, axis=1).ravel()
        order = order.ravel()
        first = np.flatnonzero(np.diff(key, prepend=-2))
        length = np.diff(first, append=key.size)
        anchor = anchors[first // n]
        keep = (length >= least - 1) & (order[first] > anchor)
        yield anchor[keep], length[keep] + 1, order[np.repeat(keep, length)]


def max_collinear(fs, points) -> tuple[int, Optional[Line3]]:
    """Exact maximum number of input points on one common line, plus a witness.

    Accepts 2- or 3-coordinate points (2D inputs are embedded in the z = 0
    plane).  Returns k = 1 with no witness for a single point; duplicate
    input points are collapsed first.  The witness is the line largest by
    (k, key).  FieldMismatch for a coordinate outside [0, q)."""
    pts = distinct_points3(fs, points)
    if not len(pts):
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return 1, None
    best = (0,)
    for anchor, size, rest in line_blocks(fs, pts):
        if not len(size) or size.max() < best[0]:
            continue
        top = size == size.max()
        second = rest[np.cumsum(size - 1) - (size - 1)]
        base, d = line_keys(fs, pts[anchor[top]], pts[second[top]])
        i = np.lexsort((row_keys(fs.q, d), row_keys(fs.q, base)))[-1]
        best = max(best, (int(size.max()), tuple(base[i].tolist()), tuple(d[i].tolist())))
    return best[0], Line3(*best[1:])


def max_shared_collinear(fs, points, planes) -> int:
    """Max, over plane pairs meeting in a line, of input points on that line.

    This is the checker for the light-lines hypothesis: a value below k means
    no line contained in two of the planes holds k points of the set.  It is
    the largest entry of N^T N, N the 0/1 point-plane incidence matrix, over
    plane pairs with different unit normals (parallel planes share no line).
    FieldMismatch for a coordinate outside [0, q) or a zero plane normal."""
    pts = distinct_points3(fs, points)
    nrm, rhs = plane_rows(fs, planes)
    if not len(pts) or len(planes) < 2:
        return 0
    key = row_keys(fs.q, unit_rows(fs, nrm)[0])
    step = max(1, ffield.PAIR_BLOCK_ELEMENTS // len(planes))
    best = 0
    for lo in range(0, len(planes), step):
        gram = np.zeros((len(key[lo:lo + step]), len(planes)))
        for vals in fs.dot_blocks(pts, nrm):
            on = (vals == rhs).astype(np.float64)
            gram += on[:, lo:lo + step].T @ on
        gram[key[lo:lo + step, None] == key] = 0
        best = max(best, int(gram.max()))
    return best
