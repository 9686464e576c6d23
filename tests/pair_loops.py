"""Pair-loop references for the collinearity kernels.

Each function walks point or plane pairs one at a time through scalar
field arithmetic, as the library did before its numpy kernels; the
differential tests compare the kernels against these.  They stay naive on
purpose and carry no size guard.
"""

from itertools import combinations
from typing import NamedTuple, Optional

from fqincidence.apps import bisector_plane, norm3
from fqincidence.ffield import FieldSpec
from fqincidence.geom import (Line3, Plane3, Point3, decode_points, dot3, line3_points,
                              plane_canonical)


class PlaneMeet(NamedTuple):
    kind: str  # "same" | "empty" | "line"
    line: Optional[Line3]


def _as_point3(pt) -> Point3:
    return tuple(pt) if len(pt) == 3 else (pt[0], pt[1], 0)


def dist(fs: FieldSpec, x, y) -> int:
    """||x - y||."""
    d = tuple(fs.sub(a, b) for a, b in zip(x, y))
    return dot3(fs, d, d)


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


def max_collinear(fs, points) -> tuple[int, Optional[Line3]]:
    """Maximum number of points on one line and the line largest by (k, key)."""
    pts = sorted({_as_point3(pt) for pt in points})
    if len(pts) == 1:
        return 1, None
    on_line: dict[Line3, set[int]] = {}
    for i, j in combinations(range(len(pts)), 2):
        on_line.setdefault(line3_key(fs, pts[i], pts[j]), set()).update((i, j))
    best_key = max(on_line, key=lambda k: (len(on_line[k]), k))
    return len(on_line[best_key]), best_key


def max_shared_collinear(fs, points, planes) -> int:
    """Max, over plane pairs meeting in a line, of input points on that line."""
    pset = {_as_point3(pt) for pt in points}
    best = 0
    for a, b in combinations(range(len(planes)), 2):
        meet = plane_intersection(fs, planes[a], planes[b])
        if meet.kind == "line":
            best = max(best, sum(1 for pt in line3_points(fs, meet.line) if pt in pset))
    return best


def bisector_collinear_k(fs, E, F) -> int:
    """Most collinear points of F on the bisector of a pair of E, at nonzero
    distance from the pair."""
    E = list(set(E))
    best = 0
    for x, y in combinations(E, 2):
        pl = bisector_plane(fs, x, y)
        qualifying = [u for u in F if dot3(fs, pl.normal, u) == pl.rhs and dist(fs, x, u) != 0]
        if qualifying:
            best = max(best, max_collinear(fs, qualifying)[0])
    return best


def sphere_line_scan(fs, r) -> list[Line3]:
    """The lines spanned by pairs of sphere points that lie on the sphere."""
    sphere = {pt for pt in decode_points(fs.q, range(fs.q**3)) if norm3(fs, pt) == r}
    keys = {line3_key(fs, p, s) for p, s in combinations(sorted(sphere), 2)}
    return sorted(k for k in keys if all(pt in sphere for pt in line3_points(fs, k)))


def bisector_collisions_isotropic(fs) -> bool:
    """Whether, for every apex x, bisector planes of (x, y) collide only
    among points y at zero distance from x."""
    space = decode_points(fs.q, range(fs.q**3))
    for x in space:
        groups: dict = {}
        for y in space:
            if y != x:
                groups.setdefault(bisector_plane(fs, x, y), []).append(y)
        if any(len(ys) > 1 and any(dist(fs, x, y) != 0 for y in ys) for ys in groups.values()):
            return False
    return True
