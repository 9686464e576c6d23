"""Affine points, lines, and planes over GF(q) with exact incidence counting.

Points are tuples of field-element indices, or the rows of an int64 array.
Lines in the plane are a tagged union: "N" for y = a*x + b (a may be zero)
and "V" for x = c.  Planes are stored as (normal, rhs) for
{x : normal . x = rhs}; the affine_one flag marks planes kept in the
normalized form normal . x = 1 instead of the scaled canonical form.
Line2 and Plane3 are the scalar types.  A Flats holds many lines or planes
as one kind of object, the hyperplanes n . x = r of GF(q)^2 or GF(q)^3,
in arrays read once; flat_rows reads every caller's flats into one, and
slope_lines and line_coeffs alone build and read lines in slope form.

Everything here is affine and exact; there is no projective geometry, and
the float64 of max_shared_collinear's gram (sums of 0/1 incidences, below
2^53) and of every prime-field dot_blocks block (see ffield) is exact.
The complex counts of plane_field are taken only when every entry rounds
to an integer within 1/4; otherwise the count is pairwise.
"""

import math
import operator
import struct
from itertools import chain, starmap
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


def decode_rows(q: int, idxs, dim: int = 3):
    """The points with the given indices, in order, as an int64 (len, dim)
    array: the one point-index codec.  (x_0, ..., x_{dim-1}) has index
    x_0 + x_1 q + ... + x_{dim-1} q^(dim-1), so range(q**dim) lists the whole
    space and range(1, q**dim) every nonzero point."""
    idx = np.asarray(as_rows(idxs), dtype=np.int64)
    return idx[:, None] // q ** np.arange(dim, dtype=np.int64) % q


def decode_points(q: int, idxs, dim: int = 3) -> list[tuple[int, ...]]:
    """decode_rows as a list of tuples."""
    return list(map(tuple, decode_rows(q, idxs, dim).tolist()))


def all_planes_through_one(fs: FieldSpec) -> "Flats":
    """Every plane of the form a . x = 1, a nonzero: q^3 - 1 planes."""
    return Flats(fs, decode_rows(fs.q, np.arange(1, fs.q**3)), np.ones(fs.q**3 - 1, np.int64))


def grid_points(a_set: Sequence[int], b_set: Sequence[int]) -> list[Point2]:
    """The Cartesian product point set A x B."""
    return [(x, y) for x in a_set for y in b_set]


def field_array(fs: FieldSpec, rows, dim: int, what: str = "coordinate"):
    """A sequence of rows of dim field elements as an int64 (len(rows), dim)
    array: the one converter from caller input to the kernels' arrays.
    An entry is an integer when it is a numpy bool or has __index__: an int
    or bool, a numpy integer, a 0-d integer array or any object struct packs
    as one.
    FieldMismatch naming what for a row that does not hold dim entries, an
    entry that is not an integer (a float, a string, None) or one outside
    [0, q).  A flat list of n entries goes in as the one row [flat] with
    dim n."""
    try:
        arr = _read_rows(rows, dim)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    if len(rows) and arr.shape != (len(rows), dim):
        raise FieldMismatch(f"expected rows of {dim} {what}s")
    if arr.dtype.kind not in "biu" and arr.size:  # numpy has cast it: read each entry again
        arr = np.fromiter(_field_ints(rows, fs.q, what), np.int64, arr.size)
    out = arr.astype(np.int64, copy=False).reshape(len(rows), dim)
    if np.count_nonzero(out.view(np.uint64) >= fs.q):  # a negative entry wraps past q
        raise FieldMismatch(f"{what} {arr[(arr < 0) | (arr >= fs.q)][0]} outside [0, {fs.q})")
    return out


def _read_rows(rows, dim: int):
    """rows as one array for field_array to check.  Tuple and list rows
    (namedtuples included) are packed by one struct of dim int64s each into
    one flat buffer, which costs about half of numpy's walk of the nested
    rows from ~100 entries on (1500 x 2: 128 against 243 us, 200 x 3: 23
    against 41 us; 2-CPU host, min of 25 interleaved runs).  Rows that do
    not pack (a row of another length, an entry that is not an integer in
    int64 range) and rows of any other type (ndarray rows, range, or a dict,
    set, str or bytes, which is no row at all) are read by np.array(rows),
    which infers the dtype that field_array then checks."""
    if not isinstance(rows, np.ndarray) and all(
            issubclass(t, (tuple, list)) for t in set(map(type, rows))):
        try:
            flat = bytearray().join(starmap(struct.Struct(f"{dim}q").pack, rows))
        except (struct.error, TypeError):
            pass
        else:
            return np.frombuffer(flat, np.int64).reshape(len(rows), dim)
    return np.array(rows)


def _field_ints(rows, q: int, what: str):
    """Each entry of rows as the int its __index__ gives, as struct packs it
    (a numpy scalar as its Python value first, so a numpy bool reads as the
    bool): FieldMismatch for the first that is not an integer or lies
    outside [0, q)."""
    for x in chain.from_iterable(rows):
        if isinstance(x, np.generic):
            x = x.item()
        try:
            x = operator.index(x)
        except TypeError:
            raise FieldMismatch(f"{what} {x!r} is not an integer") from None
        if not 0 <= x < q:
            raise FieldMismatch(f"{what} {x} outside [0, {q})")
        yield x


def as_rows(points):
    """points (or flats) as field_array reads them: a list, numpy array or
    Flats whole, any other iterable (a generator, say) as a list.
    FieldMismatch naming the type of a set that is not iterable (an int, a
    numpy scalar or a 0-d array)."""
    if isinstance(points, (list, Flats)) or isinstance(points, np.ndarray) and points.ndim:
        return points
    try:
        rows = iter(points)
    except TypeError:
        raise FieldMismatch(f"expected a sequence, got {type(points).__name__}") from None
    return list(rows)


class Flats:
    """Flats as hyperplanes n . x = r of GF(q)^d: normals, the int64 (n, d)
    rows, and rhs, the int64 right-hand sides, with d = 2 for lines and 3 for
    planes, the width of the normals.  A line is kept in slope form, y = a*x
    + b as (-a, 1) with rhs b and x = c as (1, 0) with rhs c, built by
    slope_lines and read by line_coeffs.  A plane is kept as given.  The
    constructor reads both arrays through field_array for the field fs, once
    (FieldMismatch as there, for a width other than 2 or 3, a count of
    right-hand sides other than of normals, a line not in slope form or a
    zero plane normal): kernels take a Flats of their order as it is.  As a
    sequence it holds the Line2 or Plane3 of its rows; a slice is a Flats,
    and equality compares the order and the arrays."""

    __slots__ = ("fs", "normals", "rhs")
    __hash__ = None

    def __init__(self, fs: FieldSpec, normals, rhs):
        normals = as_rows(normals)
        dim = len(normals[0]) if len(normals) else np.shape(normals)[-1]
        if dim not in (2, 3):
            raise FieldMismatch("expected flats of 2 or 3 coordinates")
        what = ("line", "plane")[dim - 2]
        nrm, rhs = field_array(fs, normals, dim, f"{what} coefficient"), as_rows(rhs)
        if len(rhs) != len(nrm):
            raise FieldMismatch(f"expected one right-hand side per {what} normal, "
                                f"got {len(rhs)} for {len(nrm)}")
        rhs = field_array(fs, [rhs], len(nrm), f"{what} coefficient")[0]
        if dim == 2:
            slope = (nrm[:, 1] == 1) | (nrm[:, 1] == 0) & (nrm[:, 0] == 1)
            if not slope.all():
                bad = tuple(nrm[~slope][0].tolist())
                raise FieldMismatch(f"line normal {bad} is not (-a, 1) or (1, 0)")
        elif not nrm.any(axis=1).all():
            raise FieldMismatch("plane normal must be nonzero")
        self._fill(fs, nrm, rhs)

    def _fill(self, fs, normals, rhs):
        normals.setflags(write=False)
        rhs.setflags(write=False)
        self.fs, self.normals, self.rhs = fs, normals, rhs
        return self

    @classmethod
    def _of(cls, fs, normals, rhs):
        """A Flats of int64 rows already read for fs."""
        return object.__new__(cls)._fill(fs, normals, rhs)

    def __len__(self) -> int:
        return len(self.rhs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self._of(self.fs, self.normals[k], self.rhs[k])
        return next(iter(self._of(self.fs, self.normals[k, None], self.rhs[k, None])))

    def __iter__(self):
        if self.normals.shape[1] == 3:
            return map(Plane3, map(tuple, self.normals.tolist()), self.rhs.tolist())
        a, b, vert = line_coeffs(self.fs, self)
        return map(Line2, np.where(vert, "V", "N").tolist(), a.tolist(), b.tolist())

    def __eq__(self, other):
        if type(other) is not Flats:
            return NotImplemented
        return (self.fs.q == other.fs.q and np.array_equal(self.normals, other.normals)
                and np.array_equal(self.rhs, other.rhs))

    def __repr__(self) -> str:
        return f"Flats(q={self.fs.q}, {len(self)} flats of {self.normals.shape[1]} coordinates)"


def flat_rows(fs: FieldSpec, flats, dim: Optional[int] = None) -> Flats:
    """flats as a Flats of the order of fs: a Flats of that order and of
    dimension dim as it is, and Line2 or Plane3 items in one pass, lines
    through slope_lines; a Flats of another order or dimension is read again
    from its items.  dim is 2 for lines and 3 for planes; without it the
    flats are of the kind of the first.  FieldMismatch for a flat of the
    other kind ("expected Plane3 flats, got Line2"), an unknown line kind, a
    zero plane normal, or as field_array for a bad coefficient."""
    flats = as_rows(flats)
    if isinstance(flats, Flats):
        if flats.fs.q == fs.q and dim in (None, flats.normals.shape[1]):
            return flats
        flats = list(flats)
    if dim is None:
        dim = 2 if len(flats) and isinstance(flats[0], Line2) else 3
    kind = (Line2, Plane3)[dim - 2]
    if not all(issubclass(t, kind) for t in set(map(type, flats))):
        bad = type(next(f for f in flats if not isinstance(f, kind)))
        raise FieldMismatch(f"expected {kind.__name__} flats, got {bad.__name__}")
    if dim == 3:
        return Flats(fs, field_array(fs, [pl.normal for pl in flats], 3, "plane coefficient"),
                     [pl.rhs for pl in flats])
    flat = list(chain.from_iterable(flats))  # kind_0, a_0, b_0, kind_1, ...
    kinds = flat[::3]
    if kinds.count("N") + kinds.count("V") != len(kinds):
        bad = next(k for k in kinds if k not in ("N", "V"))
        raise FieldMismatch(f"unknown line kind {bad!r}")
    vert = np.frombuffer("".join(kinds).encode(), dtype=np.uint8) == ord("V")
    return slope_lines(fs, flat[1::3], flat[2::3], vert)


def slope_lines(fs: FieldSpec, a, b, vertical=None) -> Flats:
    """The one line encoder, in Line2's convention: the lines y = a*x + b, and
    x = a where the bool mask vertical is set, as a slope-form Flats.  a and b
    are read by one field_array call as line coefficients; b is unused at x = a."""
    a, b = field_array(fs, [a, b], len(a), "line coefficient")
    vert = np.zeros(len(a), dtype=bool) if vertical is None else np.asarray(vertical, bool)
    nrm = np.column_stack([np.where(vert, 1, fs.vneg(a)), ~vert]).astype(np.int64)
    return Flats._of(fs, nrm, np.where(vert, a, b))


def line_coeffs(fs: FieldSpec, lines):
    """The one line decoder: (a, b, vertical) of the lines flat_rows reads, as
    slope_lines takes them, two int64 arrays and a bool mask; b is 0 at x = a."""
    lines = flat_rows(fs, lines, 2)
    vert = lines.normals[:, 1] == 0
    return (np.where(vert, lines.rhs, fs.vneg(lines.normals[:, 0])),
            np.where(vert, 0, lines.rhs), vert)


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
    reference everything else is checked against.  The flats are a Flats, or
    a sequence of Line2 or Plane3 that flat_rows reads into one, and the
    points have its width (2 or 3 for an empty list); the oracle loops over
    their Line2 or Plane3 items.  "fast" counts the hyperplanes n . x = r of
    the Flats.  Lines go over the row blocks of FieldSpec.dot_blocks, through
    flat_counts from the cheaper side of the join, as x_join_pays picks it:
    the points as rows against one column per distinct normal, (-a, 1) or
    (1, 0), against the right-hand sides; or the line_coeffs (a, b) of the
    non-vertical lines as rows against one column (x, 1) per distinct x of
    the points, against the y of the points at x, and the lines x = c
    counted from the points at each x.  Planes are counted by plane_total:
    per point of GF(q)^3 from one transform of the planes grouped by unit
    normal when spectrum_pays (plane_field), else over dot_blocks, one
    column per plane.  Both methods return identical counts.  Both read
    each side, also beside an empty one, and raise FieldMismatch for a
    coordinate or flat coefficient outside [0, q), an unknown line kind or
    a zero plane normal.
    """
    if method not in ("oracle", "fast"):
        raise ValueError(f"unknown method {method!r}")
    points, flats = as_rows(points), as_rows(flats)
    rows = flat_rows(fs, flats)
    dim = rows.normals.shape[1]
    unsized = not (len(rows) or isinstance(flats, Flats))  # no flat gives the width
    if unsized and len(points) and hasattr(points[0], "__len__") and len(points[0]) == 2:
        dim = 2
    pts = field_array(fs, points, dim)
    if not len(pts) or not len(rows):
        return IncidenceCount(0, method)
    if method == "oracle":
        if len(points) * len(flats) > ORACLE_PAIR_CAP:
            raise SizeCap("oracle pair count over 10^9")
        flats = list(flats)  # a Flats builds its items once, not once per point
        return IncidenceCount(_count_oracle(fs, pts.tolist(), flats, dim == 2), "oracle")
    if dim == 2:
        return IncidenceCount(_count_lines_fast(fs, pts, rows), "fast")
    return IncidenceCount(plane_total(fs, pts, rows.normals, rows.rhs), "fast")


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


def _count_lines_fast(fs, pts, lines: Flats) -> int:
    # (x, y) lies on x = c iff (x, y) . (1, 0) = c, and on y = a*x + b iff
    # (x, y) . (-a, 1) = b, that is (a, b) . (x, 1) = y.
    vert = lines.normals[:, 1] == 0
    if x_join_pays(fs, len(pts), len(lines), len(lines) - int(np.count_nonzero(vert))):
        # each point is a flat: direction its x, value its y
        xs, x_id = _numbered(pts[:, 0], fs.q)
        D = np.column_stack([xs, np.ones_like(xs)])
        a, b, _ = line_coeffs(fs, lines)  # masked 1-D: a row mask of stacked (a, b) costs 2x
        ab = np.column_stack([a[~vert], b[~vert]])
        count = int(flat_counts(fs, ab, D, x_id, pts[:, 1]).sum())
        c = a[vert]
        if len(c):  # the points at x = c
            at = np.searchsorted(xs, c).clip(max=len(xs) - 1)
            count += int(np.bincount(x_id)[at][xs[at] == c].sum())
        return count
    # a normal packs into one int in [0, q], q for (1, 0) and n_0 for (n_0, 1)
    dirs, dir_id = _numbered(np.where(vert, fs.q, lines.normals[:, 0]), fs.q + 1)
    D = np.column_stack([np.where(dirs == fs.q, 1, dirs), dirs < fs.q])
    return int(flat_counts(fs, pts, D, dir_id, lines.rhs).sum())


def _numbered(keys, size: int):
    """The distinct keys (integers in [0, size)), sorted, and the index of
    each key among them: from a size-slot mask while size is at most the
    number of keys, where it is O(len(keys)) and cheaper than the sort of
    np.unique, which takes the rest."""
    if size > len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def x_join_pays(fs: FieldSpec, points: int, lines: int, nonvertical: int) -> bool:
    """Whether points rows meet lines lines (nonvertical of them not x = c)
    sooner with the non-vertical lines as the rows of flat_counts, against
    one column per distinct x of the points, than with the points as rows
    against one column per distinct line direction.

    The rule reads sizes only, and bounds the distinct columns by min(q,
    points) x values and min(q + 1, lines) directions, so neither side pays
    for numbering the other's.  A side of r rows, c columns and k keyed
    flats costs r c block entries plus c q / 5 for its dense table while
    c q <= TABLE_ELEMENTS; beyond that each entry pays two searchsorted
    calls over the k keys, log2(k + 1) / 2 entries.  The x side is taken
    when its cost times 6/5 is below the other's.

    It comes from timing both sides on random points and lines, 20 to 3000
    of each, over GF(13), GF(101), GF(1021), GF(16), GF(81), GF(625) and
    GF(1048573) (2-CPU host, min of 14, interleaved).  Block entries cost
    about the same on both sides, ~7 ns at q = 101.  Where the points or
    the lines number fewer than q, the bounded entry counts tie and the
    dense table decides: its bincount costs 0.5-0.8 ns an entry, and
    weights from 1/10 to 3/10 fit the timings equally well.  At GF(1021),
    20 points against 300 lines took 355 us by directions and 111 us by x;
    1500 points against 20 lines, 313 us against 884 us.  Past
    TABLE_ELEMENTS the side with fewer keys won the tie: at GF(1048573),
    20 points against 3000 lines took 3.05 ms against 1.75 ms, and at
    GF(1021^2) 150 against 1500 took 17 ms against 14 ms.  At equal costs
    the x side lost by 5-20%, for its vertical lookup and its x numbering,
    hence the 6/5: 1500 x 1500 at GF(101) took 1.09 ms by directions and
    1.19 ms by x.  The benchmark shapes fall clear of the threshold: 1500
    points against 600 lines at GF(101) took 1.09 ms by directions and
    0.52 ms by x, and 150 against 300 at GF(81) 120 us against 163 us.
    Over all 392 shapes of a second pass, including GF(1021^2), the rule's
    picks took 1.02 times the faster side's total, and directions alone
    1.06 times.
    """
    def cost(rows: int, cols: int, keys: int) -> float:
        if cols * fs.q <= ffield.TABLE_ELEMENTS:
            return rows * cols + cols * fs.q / 5
        return rows * cols * math.log2(keys + 1) / 2

    return 6 * cost(nonvertical, min(fs.q, points), points) < 5 * cost(
        points, min(fs.q + 1, lines), lines)


def flat_counts(fs: FieldSpec, X, D, dir_id, val):
    """For each row x of X, the number of flats k with x . D[dir_id[k]] ==
    val[k], as an int64 array; D holds the distinct directions, dir_id
    (integers) and val (field elements) one entry per flat, repeats counted
    each time.  Either side of a line incidence join can be the flats: lines
    grouped by direction against points, or points grouped by x against
    non-vertical lines, the point (x, y) being the flat (a, b) . (x, 1) = y.

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


def spectrum_pays(fs: FieldSpec, points: int, flats: int) -> bool:
    """Whether points rows meet flats planes sooner through plane_field,
    one transform of the planes, than through the plain side of
    plane_counts, one dot_blocks column per plane: when q^3 <=
    TABLE_ELEMENTS (q <= 101), which caps the transform, and points x flats
    > 30 (w q^3 + 2000), with w = 1 in characteristic 2 and w = n for odd p.

    The rule reads sizes only.  It comes from timing both sides on random
    points and planes, 30 to 30000 of each and at most 3 x 10^7 pairs (the
    transform then taken of the points, over the same q^3 entries), over
    GF(5), GF(7), GF(11), GF(13), GF(31), GF(101), GF(4), GF(8), GF(16),
    GF(9), GF(25), GF(49), GF(27) and GF(81) (2-CPU host, min of 10,
    interleaved), against the pairwise sides of that time, the plain one
    and a grouped one since deleted.  The transform costs a floor of 0.15-0.3 ms up to
    q = 16 and then 70-110 ns per entry of GF(q)^3 for prime q and n = 2
    (2.2 ms at GF(31), 8.2 ms at GF(49), 109 ms at GF(101)), and 200-220 ns
    at GF(27) and GF(81), whose numpy.fft.fftn makes one pass per axis of
    length p, 3n of them; the integer Walsh-Hadamard butterflies of GF(16)
    take 0.27 ms in all.  A pairwise block entry costs 3-5 ns, so a plain
    pair costs about 1/30 of a transform entry.  Both sides also pay per
    plane, 0.12 us to scale it to its unit normal here and 0.2 us to group
    it on the grouped side, so the product points x flats, rather than the
    grouped side's points x (q^2 + q + 1) entries, is the measure: 30
    points against 30000 planes over GF(13) took 3.7 ms through the
    transform and 5.8 ms grouped.  Over the 672 shapes the rule's picks took
    1.04 times the faster side's total (geometric mean 1.01, worst 1.8,
    near the threshold), the pairwise sides alone 2.56 times and the
    transform alone 5.7 times.  A second pass over 560 other shapes, 50 to
    20000 of each, GF(17) and GF(53) added, read 1.01 (worst 1.7), 2.56
    and 5.8.
    """
    q = fs.q
    weight = 1 if fs.p == 2 else fs.n
    return q**3 <= ffield.TABLE_ELEMENTS and points * flats > 30 * (weight * q**3 + 2000)


def plane_groups(fs: FieldSpec, nrm, rhs):
    """The planes x . nrm[k] = rhs[k] as plane_field takes them, grouped by
    unit normal: plane k is (s nrm[k]) . x = s rhs[k], s the inverse of its
    first nonzero coordinate, as unit_rows scales it.  The unit normals are
    numbered in row_keys order, (0, 0, 1) as 0, (0, 1, b) as 1 + b and
    (1, a, b) as 1 + q + a q + b, in int64, by _numbered, and D is decoded
    from the numbers.  A zero row is left out, so it must come with a
    nonzero rhs, which no x meets."""
    q = fs.q
    unit, scale = unit_rows(fs, nrm)
    u0, u1, u2 = unit.astype(np.int64).T
    keep = (u0 | u1 | u2) > 0
    index = np.where(u0 == 1, 1 + q + q * u1 + u2, u1 * (1 + u2))[keep]
    ids, dir_id = _numbered(index, q * q + q + 1)
    a, b = np.divmod(ids - 1 - q, q)  # a is -2 for (0, 0, 1), -1 for (0, 1, b)
    D = np.column_stack([a >= 0, np.where(a >= 0, a, a + 2), np.where(a < -1, 1, b)])
    return D, dir_id, fs.vmul(rhs[keep], scale[keep, 0])


def plane_field(fs: FieldSpec, D, dir_id, val):
    """F(x), the number of flats k with x . D[dir_id[k]] == val[k], at every
    point x of GF(q)^3 in point-index order, for unit normals D as
    plane_groups gives them: the projection-slice theorem run backwards,
    one transform for all x.  None when the transform is not exact.

    C[w, v] counts the flats of unit normal w and value v, so F(x) = sum_w
    C[w, w . x].  forward1 takes each row of C to S_w(e) = sum_v C[w, v]
    chi_e(-v) over the characters chi_e of GF(q) = (Z_p)^n.  The character
    a -> chi_e(w a) is chi_G[w, e] for a q x q table G (w e mod q for prime
    q), so x -> chi_e(w . x) is the character of GF(q)^3 at c(w, e) =
    G[w_0, e] + q G[w_1, e] + q^2 G[w_2, e], distinct over the unit normals
    w and e != 0.  With A(c(w, e)) = S_w(e) and A(0) the number of flats,
    inverse3 gives F.  Every entry must lie within 1/4 of an integer in
    both its real and imaginary parts, or it is refused (see ffield).
    """
    p, n, q = fs.p, fs.n, fs.q
    S = fs.forward1(np.bincount(dir_id * q + val, minlength=len(D) * q).reshape(len(D), q))
    # G[w, e] = sum_j (e . digits(w p^j) mod p) p^j: the character e of w a
    # as a character of a
    el = np.arange(q)
    digits = el[:, None] // p ** np.arange(n) % p
    G = sum(digits[fs.vmul(el, p**j)] @ digits.T % p * p**j for j in range(n))
    A = np.zeros(q**3, dtype=S.dtype)
    A[G[D[:, 0]] + q * G[D[:, 1]] + q * q * G[D[:, 2]]] = S
    A[0] = len(dir_id)  # c(w, 0) = 0 for every w
    F = fs.inverse3(A)
    counts = np.rint(F.real)
    if not ((abs(F.real - counts) < 0.25).all() and (abs(F.imag) < 0.25).all()):
        return None
    return counts.astype(np.int64)


def _spectral_counts(fs: FieldSpec, X, normals, rhs):
    """For each row x of X, the planes k with x . normals[k] == rhs[k], read
    from plane_field of the planes grouped once by plane_groups; None when
    spectrum_pays does not hold or the transform is not exact."""
    if not spectrum_pays(fs, len(X), len(normals)):
        return None
    field = plane_field(fs, *plane_groups(fs, normals, rhs))
    return None if field is None else field[X @ np.array([1, fs.q, fs.q**2])]


def plane_counts(fs: FieldSpec, X, normals, rhs):
    """For each row x of X, the number of planes k with x . normals[k] ==
    rhs[k], as an int64 array: from one transform when spectrum_pays and it
    is exact (_spectral_counts), else by one dot_blocks column per plane.
    A zero normal meets no x if its rhs is nonzero."""
    counts = _spectral_counts(fs, X, normals, rhs)
    if counts is not None:
        return counts
    counts = np.zeros(len(X), dtype=np.int64)
    start = 0
    for on in _plain_blocks(fs, X, normals, rhs):
        counts[start:start + len(on)] = on.sum(axis=1, dtype=np.uint32)
        start += len(on)
    return counts


def plane_total(fs: FieldSpec, X, normals, rhs) -> int:
    """The number of pairs (x, k) with x . normals[k] == rhs[k]: the sum of
    the sides of plane_counts, where the plain side totals each block with
    one count_nonzero."""
    counts = _spectral_counts(fs, X, normals, rhs)
    if counts is not None:
        return int(counts.sum())
    return int(sum(np.count_nonzero(on) for on in _plain_blocks(fs, X, normals, rhs)))


def _plain_blocks(fs: FieldSpec, X, normals, rhs):
    """The row blocks of x . normals[k] == rhs[k], one dot_blocks column per
    plane."""
    rhs = rhs.astype(ffield.narrow_dtype(fs.q))  # compared in the block's own dtype
    for vals in fs.dot_blocks(X, normals):
        yield vals == rhs


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
    planes = flat_rows(fs, planes, 3)
    nrm, rhs = planes.normals, planes.rhs
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
