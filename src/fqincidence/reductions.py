"""The point-line to point-plane reduction for Cartesian point sets.

For non-vertical lines L (pairs (a, b) meaning y = a*x + b, as
geom.line_coeffs reads them from a geom.Flats or Line2 items) and A a
subset of the field, the energy count is

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

from .errors import SizeCap, VerticalLinePresent
from .ffield import FieldSpec
from .geom import (Flats, as_rows, count_incidences, field_array, flat_rows, grid_points,
                   line_coeffs, unit_rows)

ORACLE_TUPLE_CAP = 10**9


def count_solutions(fs: FieldSpec, lines, a_set, method: str = "fast") -> int:
    """The energy count over L x A x L x A.

    "fast" makes one pass over the row blocks of (a, b) . (x, 1) = a*x + b,
    which histograms r(v) = #{(a, b, x) : a*x + b = v}, and returns
    sum r(v)^2; "oracle" enumerates all tuples.  The lines are a geom.Flats
    or a sequence of Line2, read into (a, b) by geom.line_coeffs.  Both
    methods agree exactly, and both raise FieldMismatch as geom.flat_rows
    and geom.field_array for a bad line or element of A, and
    VerticalLinePresent for a vertical line.
    """
    a, b, vert = line_coeffs(fs, lines)
    if vert.any():
        raise VerticalLinePresent("the reduction needs non-vertical lines")
    rows, A = np.column_stack([a, b]), as_rows(a_set)
    cols = field_array(fs, [(x, 1) for x in A], 2, "element")
    if method == "fast":
        r = np.zeros(fs.q, dtype=np.int64)
        for vals in fs.dot_blocks(rows, cols):  # intp bincount
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
    points3: np.ndarray  # int64 (|A| |L|, 3)
    planes3: Flats
    k_bound: int  # max(|distinct A|, |distinct slopes|)
    solution_count: int


def build_point_plane_sets(fs: FieldSpec, lines, a_set) -> ReductionOutput:
    """Materialize the 3D point and plane sets whose incidence count is the energy.

    points3 = {(x, a', b')} over A x L, an int64 array; planes3, a Flats,
    encode (a, b, x') over L x A, (a, b) from geom.line_coeffs.  Both keep
    multiplicity; the defining identity I(points3, planes3) ==
    count_solutions(L, A) holds exactly.  Each plane is in the canonical
    form of geom.make_plane, scaled by unit_rows.  Raises as count_solutions
    for a bad line or element of A.
    """
    lines, A = flat_rows(fs, lines, 2), as_rows(a_set)
    count = count_solutions(fs, lines, A, method="fast")  # checks L and A first
    ab = np.column_stack(line_coeffs(fs, lines)[:2])
    xs = field_array(fs, [A], len(A), "element")[0]
    pts = np.column_stack([np.repeat(xs, len(ab)), np.tile(ab, (len(xs), 1))])
    nrm, scale = unit_rows(fs, np.column_stack([
        np.repeat(ab[:, 0], len(xs)), np.tile(fs.vneg(xs), len(ab)),
        np.full(len(pts), fs.neg(1))]))
    rhs = fs.vmul(scale[:, 0], np.repeat(fs.vneg(ab[:, 1]), len(xs)))
    k_bound = max(np.unique(xs).size, np.unique(ab[:, 0]).size, 1)
    return ReductionOutput(pts, Flats(fs, nrm, rhs), k_bound, count)


class CsUpperReport(NamedTuple):
    value: float  # sqrt(|B|) * sqrt(energy)
    solution_count: int
    actual: int  # oracle I(A x B, L)
    holds: bool  # actual <= value, as actual^2 <= |B| energy in integers; unconditional


def cs_upper(fs: FieldSpec, lines, a_set, b_set) -> CsUpperReport:
    """sqrt(|B| * energy) upper bound on I(A x B, L), checked against the oracle;
    B is read by geom.field_array before the oracle counts."""
    lines, A, B = flat_rows(fs, lines, 2), as_rows(a_set), as_rows(b_set)
    energy = count_solutions(fs, lines, A, method="fast")  # checks L and A first
    B = field_array(fs, [B], len(B), "element")[0].tolist()
    value = math.sqrt(len(B)) * math.sqrt(energy)
    actual = count_incidences(fs, grid_points(A, B), lines, "oracle").count if len(B) else 0
    return CsUpperReport(value, energy, actual, actual * actual <= len(B) * energy)
