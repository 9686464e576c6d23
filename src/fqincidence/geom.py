"""Affine points, lines, and planes over GF(q) with exact incidence counting.

Points are plain tuples of field-element indices.  Lines in the plane are a
tagged union: "N" for y = a*x + b (a may be zero) and "V" for x = c.  Planes
are stored as (normal, rhs) for {x : normal . x = rhs}; the affine_one flag
marks planes kept in the normalized form normal . x = 1 instead of the
scaled canonical form.

Everything here is affine and exact; there is no projective geometry, and
the float64 of max_shared_collinear's gram (sums of 0/1 incidences, below
2^53) and of every prime-field dot_blocks block (see ffield) is exact.
"""

from itertools import chain
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
    """The canonical plane normal . x = rhs, read by field_array
    (FieldMismatch for a bad coefficient); ValueError for a zero normal."""
    normal = tuple(field_array(fs, [normal], 3, "plane coefficient")[0].tolist())
    rhs = int(field_array(fs, [[rhs]], 1, "plane coefficient")[0, 0])
    if normal == (0, 0, 0):
        raise ValueError("plane normal must be nonzero")
    return plane_canonical(fs, Plane3(normal, rhs, False))


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


def field_array(fs: FieldSpec, rows, dim: int, what: str = "coordinate"):
    """A sequence of rows of dim field elements as an int64 (len(rows), dim)
    array: the one converter from caller input to the kernels' arrays.
    FieldMismatch naming what for a row that does not hold dim entries, an
    entry that is not an integer (a float, a string, an int too large for
    int64) or one outside [0, q).  A flat list of n entries goes in as the
    one row [flat] with dim n."""
    try:
        arr = np.array(rows)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    if len(rows) and arr.shape != (len(rows), dim):
        raise FieldMismatch(f"expected rows of {dim} {what}s")
    if arr.dtype.kind not in "biu" and arr.size:  # named as given: numpy has cast it
        bad = next((x for row in rows for x in row
                    if not (isinstance(x, (int, np.integer)) and 0 <= x < fs.q)), None)
        if isinstance(bad, (int, np.integer)):  # too large for int64
            raise FieldMismatch(f"{what} {bad} outside [0, {fs.q})")
        raise FieldMismatch(f"{what} {bad!r} is not an integer")
    out = arr.astype(np.int64, copy=False).reshape(len(rows), dim)
    if np.count_nonzero(out.view(np.uint64) >= fs.q):  # a negative entry wraps past q
        raise FieldMismatch(f"{what} {arr[(arr < 0) | (arr >= fs.q)][0]} outside [0, {fs.q})")
    return out


def as_rows(points):
    """points as field_array reads them: a numpy array whole, any other
    iterable (a generator, say) as a list."""
    return points if isinstance(points, np.ndarray) else list(points)


def plane_rows(fs: FieldSpec, planes):
    """Normals and right-hand sides as int64 arrays, read by field_array;
    FieldMismatch for a bad coefficient or a zero normal."""
    nrm = field_array(fs, [pl.normal for pl in planes], 3, "plane coefficient")
    rhs = field_array(fs, [[pl.rhs for pl in planes]], len(planes), "plane coefficient")[0]
    if not nrm.any(axis=1).all():
        raise FieldMismatch("plane normal must be nonzero")
    return nrm, rhs


def check_incidence_input(fs: FieldSpec, points, flats, lines: bool):
    """Every flat a valid Line2 (lines) or Plane3, every point of matching
    dimension with coordinates in [0, q); FieldMismatch otherwise.  Returns
    the points as an int64 array and the flats as rows: line_rows of the
    lines, or plane_rows of the planes."""
    kind = Line2 if lines else Plane3
    if not all(issubclass(t, kind) for t in set(map(type, flats))):
        bad = next(f for f in flats if not isinstance(f, kind))
        raise FieldMismatch(f"expected {kind.__name__} flats, got {type(bad).__name__}")
    rows = line_rows(fs, flats) if lines else plane_rows(fs, flats)
    return field_array(fs, points, 2 if lines else 3), rows


def line_rows(fs: FieldSpec, lines):
    """A bool mask of the vertical lines and the (a, b) of every line as an
    int64 array, read in one pass; FieldMismatch for an unknown kind, or as
    field_array for a bad coefficient."""
    flat = list(chain.from_iterable(lines))  # kind_0, a_0, b_0, kind_1, ...
    kinds = flat[::3]
    if kinds.count("N") + kinds.count("V") != len(kinds):
        bad = next(k for k in kinds if k not in ("N", "V"))
        raise FieldMismatch(f"unknown line kind {bad!r}")
    del flat[::3]
    ab = field_array(fs, [flat], len(flat), "line coefficient").reshape(-1, 2)
    return np.frombuffer("".join(kinds).encode(), dtype=np.uint8) == ord("V"), ab


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
    blocks of FieldSpec.dot_blocks.  Lines always go through flat_counts,
    one column per distinct direction: (x, y) . (-a, 1) = y - a*x against
    the intercepts of the lines of slope a, and x = c as (x, y) . (1, 0) =
    c.  Planes are point . normal against the right-hand side, one column
    per plane, unless grouping_pays finds them numerous enough to share
    unit normals; then flat_counts takes one column per unit normal of
    plane_groups.  Both methods return identical counts.  Both raise
    FieldMismatch for a coordinate or flat coefficient outside [0, q), an
    unknown line kind or a zero plane normal.
    """
    if method not in ("oracle", "fast"):
        raise ValueError(f"unknown method {method!r}")
    points = as_rows(points)
    flats = list(flats)
    if not len(points) or not flats:
        return IncidenceCount(0, method)
    lines = isinstance(flats[0], Line2)
    pts, rows = check_incidence_input(fs, points, flats, lines)
    if method == "oracle":
        if len(points) * len(flats) > ORACLE_PAIR_CAP:
            raise SizeCap("oracle pair count over 10^9")
        return IncidenceCount(_count_oracle(fs, pts.tolist(), flats, lines), "oracle")
    if lines:
        return IncidenceCount(_count_lines_fast(fs, pts, *rows), "fast")
    nrm, rhs = rows
    if grouping_pays(fs, len(pts), len(nrm)):
        count = flat_counts(fs, pts, *plane_groups(fs, nrm, rhs)).sum()
        return IncidenceCount(int(count), "fast")
    rhs = rhs.astype(ffield.narrow_dtype(fs.q))  # compared in the block's own dtype
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


def _count_lines_fast(fs, pts, vert, ab) -> int:
    # (x, y) lies on x = a iff (x, y) . (1, 0) = a, and on y = a*x + b iff
    # (x, y) . (-a, 1) = b.  A direction packs into one int in [0, q], q for
    # (1, 0) and -a for (-a, 1).
    a, b = ab[:, 0], ab[:, 1]
    dirs, dir_id = np.unique(np.where(vert, fs.q, fs.vneg(a)), return_inverse=True)
    D = np.column_stack([np.where(dirs == fs.q, 1, dirs), dirs < fs.q])
    return int(flat_counts(fs, pts, D, dir_id, np.where(vert, a, b)).sum())


def flat_counts(fs: FieldSpec, X, D, dir_id, val):
    """For each row x of X, the number of flats k with x . D[dir_id[k]] ==
    val[k], as an int64 array; D holds the distinct directions, dir_id
    (integers) and val (field elements) one entry per flat.

    The counts run over the row blocks of dot_blocks(X, D), whose entry
    x . D[j] sits at key j q + x . D[j] among the flats' keys dir_id q +
    val.  While |D| q <= TABLE_ELEMENTS the flats per key are one dense
    bincount table, gathered per block; beyond that the keys are sorted and
    each block counted by two searchsorted calls, which has no term in q.
    """
    keys = dir_id * fs.q + val
    dense = len(D) * fs.q <= ffield.TABLE_ELEMENTS
    # narrow positions j q + x . D[j] < |D| q add and gather faster
    offset = np.arange(0, len(D) * fs.q, fs.q, dtype=np.int32 if dense else np.int64)
    if dense:
        table = np.bincount(keys, minlength=len(D) * fs.q)
        hits = table.astype(np.min_scalar_type(len(keys))).take  # counts <= flats
    else:
        keys = np.sort(keys)

        def hits(at):
            return np.searchsorted(keys, at, "right") - np.searchsorted(keys, at, "left")

    counts = np.zeros(len(X), dtype=np.int64)
    start = 0
    for vals in fs.dot_blocks(X, D):  # gathered at intp positions
        counts[start:start + len(vals)] = hits(vals + offset).sum(axis=1, dtype=np.uint32)
        start += len(vals)
    return counts


def grouping_pays(fs: FieldSpec, points: int, flats: int) -> bool:
    """Whether points rows meet flats planes (or unit products) sooner
    through plane_groups and flat_counts than one column per flat: when the
    flats number at least k (q^2 + q + 1) max(1, 800 / points), k flats per
    unit normal of GF(q)^3 on average, so that by pigeonhole they share
    normals, with k = 2, or 8 in characteristic 2.

    The rule reads sizes only, so an input it keeps on the plain path pays
    nothing for the grouping.  It comes from timing both paths on random
    normals and right-hand sides (2-CPU host, min of 7, interleaved): the
    grouped path spends ~2.5 ns gathering each entry of its blocks and
    ~0.2 us grouping each flat.  Over GF(7) to GF(101) it won from
    2 (q^2 + q + 1) flats at 2000 points (0.76-0.85 of the plain time) and
    from 3 (q^2 + q + 1) at 600, but at 100 points lost up to 2.4x below
    6-10 (q^2 + q + 1).  A GF(2^n) product-table block is a few uint8 XOR
    gathers, several times cheaper than an odd one: over GF(16) the grouped
    path lost up to 2.6x below 8 (q^2 + q + 1) flats, and 2000 x 2000
    (7.3 (q^2 + q + 1) flats) still read 1.03-1.06 of the plain time.
    """
    share = 8 if fs.p == 2 else 2
    return flats >= share * (fs.q**2 + fs.q + 1) * max(1, 800 / max(points, 1))


def plane_groups(fs: FieldSpec, nrm, rhs):
    """The flats x . nrm[k] = rhs[k] as flat_counts takes them, grouped by
    unit normal: flat k is (s nrm[k]) . x = s rhs[k], s the inverse of its
    first nonzero coordinate, as unit_rows scales it.  A zero row is left
    out, so it must come with a nonzero rhs, which no x meets."""
    keep = nrm.any(axis=1)
    unit, scale = unit_rows(fs, nrm[keep])
    _, first, dir_id = np.unique(row_keys(fs.q, unit), return_index=True, return_inverse=True)
    return unit[first], dir_id, fs.vmul(rhs[keep], scale[:, 0])


# ---------------------------------------------------------------------------
# collinearity
# ---------------------------------------------------------------------------

def distinct_points3(fs: FieldSpec, points):
    """The distinct points, sorted, as an int64 (n, 3) array, read by one
    field_array call: all of 3 coordinates, or all of 2, embedded in the
    z = 0 plane.  FieldMismatch as field_array."""
    points = as_rows(points)
    dim = len(points[0]) if len(points) and hasattr(points[0], "__len__") else 3
    if dim not in (2, 3):
        raise FieldMismatch("points must have 2 or 3 coordinates")
    pts = np.zeros((len(points), 3), dtype=np.int64)
    pts[:, :dim] = field_array(fs, points, dim)
    return pts[np.unique(row_keys(fs.q, pts), return_index=True)[1]]


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
    the rest of each line through it in a run; the anchor blocks are the
    row_blocks of n int64 keys per anchor, at most PAIR_BLOCK_ELEMENTS
    pairs."""
    n = len(pts)
    for anchors in ffield.row_blocks(np.arange(n), n):
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
    rhs = rhs.astype(ffield.narrow_dtype(fs.q))  # compared in the block's own dtype
    key = row_keys(fs.q, unit_rows(fs, nrm)[0])
    step = max(1, ffield.TABLE_ELEMENTS // len(planes))  # gram rows per step
    best = 0
    for lo in range(0, len(planes), step):
        gram = np.zeros((len(key[lo:lo + step]), len(planes)))
        for vals in fs.dot_blocks(pts, nrm):  # float64 copies
            on = (vals == rhs).astype(np.float64)
            gram += on[:, lo:lo + step].T @ on
        gram[key[lo:lo + step, None] == key] = 0
        best = max(best, int(gram.max()))
    return best
