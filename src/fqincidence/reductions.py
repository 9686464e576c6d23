"""The point-line to point-plane reduction for Cartesian point sets.

For non-vertical lines L (pairs (a, b) meaning y = a*x + b) and A a subset
of the field, the energy count is

    #{(a, b, x, a', b', x') in L x A x L x A : a*x + b = a'*x' + b'}.

Each solution is an incidence between the 3D point (x, a', b') and the plane
with normal (a, -x', -1) and right-hand side -b: substituting gives
a*x - x'*a' - b' = -b, i.e. exactly a*x + b = a'*x' + b'.  (Taking the sign
of the third normal coordinate as +1 instead would encode
a*x + b = a'*x' - b', which fails the defining identity;
tests/test_reductions.py::test_plane_sign_convention checks the convention on
every (point, plane) pair of every lift the tests build.)

Duplicate lines in L are permitted and counted with multiplicity; energy
counts are multiset counts.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ffield
from .errors import SizeCap, VerticalLinePresent
from .ffield import FieldSpec
from .geom import (Line2, Plane3, Point3, count_incidences, field_array, grid_points, line_rows,
                   unit_rows)

ORACLE_TUPLE_CAP = 10**9


def count_solutions(fs: FieldSpec, lines, a_set, method: str = "fast") -> int:
    """The energy count over L x A x L x A.

    "fast" makes one pass over the row blocks of (a, b) . (x, 1) = a*x + b,
    which histograms r(v) = #{(a, b, x) : a*x + b = v}, and returns
    sum r(v)^2; "oracle" enumerates all tuples.  Both agree exactly, and both
    raise FieldMismatch as geom.line_rows and geom.field_array for a bad line
    or element of A, and VerticalLinePresent for a vertical line.
    """
    vert, rows = line_rows(fs, lines)
    if vert.any():
        raise VerticalLinePresent("the reduction needs non-vertical lines")
    A = list(a_set)
    cols = field_array(fs, [(x, 1) for x in A], 2, "element")
    if method == "fast":
        r = np.zeros(fs.q, dtype=np.int64)
        for vals in ffield.wide_blocks(fs.dot_blocks(rows, cols), len(cols)):  # intp bincount
            r += np.bincount(vals.ravel(), minlength=fs.q)
        return sum(v * v for v in r[r > 0].tolist())
    if method == "oracle":
        if (len(rows) * len(A)) ** 2 > ORACLE_TUPLE_CAP:
            raise SizeCap("oracle tuple count over 10^9")
        L, A = rows.tolist(), cols[:, 0].tolist()
        add, mul = fs.add, fs.mul
        vals = [add(mul(a, x), b) for a, b in L for x in A]
        return sum(1 for v in vals for w in vals if v == w)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class ReductionOutput:
    points3: list[Point3]
    planes3: list[Plane3]
    k_bound: int  # max(|distinct A|, |distinct slopes|)
    solution_count: int


def build_point_plane_sets(fs: FieldSpec, lines, a_set) -> ReductionOutput:
    """Materialize the 3D point and plane sets whose incidence count is the energy.

    points3 = {(x, a', b')} over A x L; planes3 encode (a, b, x') over L x A.
    Both lists keep multiplicity; the defining identity
    I(points3, planes3) == count_solutions(L, A) holds exactly.  Each plane
    is in the canonical form of geom.make_plane, scaled by unit_rows.
    Raises as count_solutions for a bad line or element of A.
    """
    lines, A = list(lines), list(a_set)
    count = count_solutions(fs, lines, A, method="fast")  # checks L and A first
    ab, xs = line_rows(fs, lines)[1], field_array(fs, [A], len(A), "element")[0]
    pts = np.column_stack([np.repeat(xs, len(ab)), np.tile(ab, (len(xs), 1))])
    nrm, scale = unit_rows(fs, np.column_stack([
        np.repeat(ab[:, 0], len(xs)), np.tile(fs.vneg(xs), len(ab)),
        np.full(len(pts), fs.neg(1))]))
    rhs = fs.vmul(scale[:, 0], np.repeat(fs.vneg(ab[:, 1]), len(xs)))
    points3 = [tuple(pt) for pt in pts.tolist()]
    planes3 = [Plane3(tuple(n), r) for n, r in zip(nrm.tolist(), rhs.tolist())]
    k_bound = max(np.unique(xs).size, np.unique(ab[:, 0]).size, 1)
    return ReductionOutput(points3, planes3, k_bound, count)


class CsUpperReport(NamedTuple):
    value: float  # sqrt(|B|) * sqrt(energy)
    solution_count: int
    actual: int  # oracle I(A x B, L)
    holds: bool  # actual <= value; unconditional


def cs_upper(fs: FieldSpec, lines, a_set, b_set) -> CsUpperReport:
    """sqrt(|B| * energy) upper bound on I(A x B, L), checked against the oracle."""
    lines = list(lines)
    A = list(a_set)
    B = list(b_set)
    energy = count_solutions(fs, lines, A, method="fast")  # checks L and A first
    value = math.sqrt(len(B)) * math.sqrt(energy)
    line_objs = [Line2(*ln) for ln in lines]  # count_incidences reads Line2 only
    actual = count_incidences(fs, grid_points(A, B), line_objs, "oracle").count if B else 0
    return CsUpperReport(value, energy, actual, actual <= value + 1e-9)
