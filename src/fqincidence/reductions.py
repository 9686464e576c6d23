"""The point-line to point-plane reduction for Cartesian point sets.

For non-vertical lines L (pairs (a, b) meaning y = a*x + b) and A a subset
of the field, the energy count is

    #{(a, b, x, a', b', x') in L x A x L x A : a*x + b = a'*x' + b'}.

Each solution is an incidence between the 3D point (x, a', b') and the plane
with normal (a, -x', -1) and right-hand side -b: substituting gives
a*x - x'*a' - b' = -b, i.e. exactly a*x + b = a'*x' + b'.  (Taking the sign
of the third normal coordinate as +1 instead would encode
a*x + b = a'*x' - b', which fails the defining identity; the constructor
self-checks the identity on a sample and raises InvariantFailure if the
convention is ever wrong.)

Duplicate lines in L are permitted and counted with multiplicity; energy
counts are multiset counts.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantFailure, SizeCap, VerticalLinePresent
from .ffield import FieldSpec
from .geom import (
    Line2,
    Plane3,
    Point3,
    count_incidences,
    dot3,
    field_array,
    grid_points,
    make_plane,
    max_collinear,
)

ORACLE_TUPLE_CAP = 10**9


def _line_pairs(lines) -> list[tuple[int, int]]:
    out = []
    for ln in lines:
        if ln.kind == "V":
            raise VerticalLinePresent("the reduction needs non-vertical lines")
        out.append((ln.a, ln.b))
    return out


def count_solutions(fs: FieldSpec, lines, a_set, method: str = "fast") -> int:
    """The energy count over L x A x L x A.

    "fast" makes one pass over the row blocks of (a, b) . (x, 1) = a*x + b,
    which histograms r(v) = #{(a, b, x) : a*x + b = v}, and returns
    sum r(v)^2; "oracle" enumerates all tuples.  Both agree exactly, and both
    raise FieldMismatch for a line coefficient or element of A outside [0, q).
    """
    L = _line_pairs(lines)
    A = list(a_set)
    rows = field_array(fs, L, 2, "line coefficient")
    cols = field_array(fs, [(x, 1) for x in A], 2, "element")
    if method == "fast":
        r = np.zeros(fs.q, dtype=np.int64)
        for vals in fs.dot_blocks(rows, cols):
            r += np.bincount(vals.ravel(), minlength=fs.q)
        return sum(v * v for v in r[r > 0].tolist())
    if method == "oracle":
        if (len(L) * len(A)) ** 2 > ORACLE_TUPLE_CAP:
            raise SizeCap("oracle tuple count over 10^9")
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
    I(points3, planes3) == count_solutions(L, A) holds exactly.  A projection
    self-check confirms at most k_bound collinear points in the Oxy shadow.
    FieldMismatch for a line coefficient or element of A outside [0, q).
    """
    lines, A = list(lines), list(a_set)
    count = count_solutions(fs, lines, A, method="fast")  # checks L and A first
    L = _line_pairs(lines)
    points3 = [(x, ap, bp) for x in A for ap, bp in L]
    neg = fs.neg
    planes3 = [
        make_plane(fs, (a, neg(xp), neg(1)), neg(b)) for a, b in L for xp in A
    ]
    k_bound = max(len(set(A)), len({a for a, _ in L}), 1)
    if points3:
        # sign-convention self-check: incidence must track the equation on a
        # sample of (point, plane) parameter tuples, matching or not
        add, mul = fs.add, fs.mul
        for pi in range(min(4, len(points3))):
            x, (ap, bp) = A[pi // len(L)], L[pi % len(L)]
            for qi in range(min(4, len(planes3))):
                a, b = L[qi // len(A)]
                xp = A[qi % len(A)]
                lhs = add(mul(a, x), b)
                rhs = add(mul(ap, xp), bp)
                pl = planes3[qi]
                if (dot3(fs, pl.normal, points3[pi]) == pl.rhs) != (lhs == rhs):
                    raise InvariantFailure("plane sign convention broke the identity")
        proj = {(x, ap) for x, ap, _ in points3}
        k_proj, _ = max_collinear(fs, proj)
        if k_proj > k_bound:
            raise InvariantFailure(
                f"projected collinearity {k_proj} exceeds k bound {k_bound}"
            )
    return ReductionOutput(points3, planes3, k_bound, count)


class CsUpperReport(NamedTuple):
    value: float  # sqrt(|B|) * sqrt(energy)
    solution_count: int
    actual: int  # oracle I(A x B, L)
    holds: bool  # actual <= value; unconditional


def cs_upper(fs: FieldSpec, lines, a_set, b_set) -> CsUpperReport:
    """sqrt(|B| * energy) upper bound on I(A x B, L), checked against the oracle."""
    lines = list(lines)
    L = _line_pairs(lines)
    A = list(a_set)
    B = list(b_set)
    energy = count_solutions(fs, lines, A, method="fast")
    value = math.sqrt(len(B)) * math.sqrt(energy)
    line_objs = [Line2("N", a, b) for a, b in L]
    actual = count_incidences(fs, grid_points(A, B), line_objs, "oracle").count if B else 0
    return CsUpperReport(value, energy, actual, actual <= value + 1e-9)
