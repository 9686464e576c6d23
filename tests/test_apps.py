import math
import random
from itertools import combinations

import numpy as np
import pytest

from fqincidence import apps, geom
from fqincidence.apps import (
    bisector_collinear_k,
    bisector_collisions_isotropic,
    bisector_plane,
    distance_set,
    dot_product_set,
    norm3,
    regular_subset,
    sphere_line_scan,
    trace_pairs,
    triple_count_T,
)
from fqincidence.errors import (
    EqualPoints,
    EvenCharacteristic,
    FieldMismatch,
    InvalidPointSet,
    ToolkitError,
)
from fqincidence.ffield import make_field
from fqincidence.geom import (Line2, Line3, Plane3, count_incidences, distinct_points3, dot3,
                              field_array, line3_points, make_plane, max_collinear,
                              max_shared_collinear)
from fqincidence.reductions import build_point_plane_sets, count_solutions, cs_upper
from fqincidence.setsys import neighborhood_system
from pair_loops import dist


def all_points3(q):
    return [(i % q, (i // q) % q, i // (q * q)) for i in range(q**3)]


def sample3(rng, q, count):
    return [all_points3(q)[i] for i in sorted(rng.sample(range(q**3), count))]


# -- norms and distances -----------------------------------------------------

def test_norm_and_dist_basics():
    fs = make_field(3, 1)
    assert dist(fs, (0, 0, 0), (1, 0, 0)) == 1
    assert dist(fs, (2, 1, 0), (2, 1, 0)) == 0
    assert dist(fs, (0, 0, 0), (1, 1, 1)) == 0  # 3 = 0 mod 3
    assert norm3(fs, (1, 1, 0)) == 2


def test_even_characteristic_rejected():
    fs = make_field(2, 2)
    with pytest.raises(EvenCharacteristic):
        norm3(fs, (1, 0, 0))
    with pytest.raises(EvenCharacteristic):
        distance_set(fs, [(0, 0, 0)], [(1, 0, 0)])


def test_distance_set_small():
    fs = make_field(3, 1)
    rep = distance_set(fs, [(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (1, 0, 0)])
    assert rep.distance_set == {0, 1}
    assert rep.zero_pairs == 2


def test_distance_set_full_space_covers_field():
    fs = make_field(3, 1)
    pts = all_points3(3)
    rep = distance_set(fs, pts, pts)
    assert rep.distance_set == {0, 1, 2}


def test_distance_set_singletons():
    fs = make_field(7, 1)
    rep = distance_set(fs, [(1, 2, 3)], [(4, 5, 6)])
    assert len(rep.distance_set) == 1


def brute_T(fs, E, F):
    total = 0
    for u in E:
        for v in E:
            for x in F:
                du, dv = dist(fs, x, u), dist(fs, x, v)
                total += du == dv != 0
    return total


def test_triple_count_tiny():
    fs = make_field(3, 1)
    E = [(0, 0, 0), (1, 0, 0)]
    rep = triple_count_T(fs, E, E)
    # by hand: for x = (0,0,0) only u = v = (1,0,0) works, symmetrically for
    # the other point, so T = 2
    assert rep.T == 2 == brute_T(fs, E, E)


def test_triple_count_single_e():
    fs = make_field(5, 1)
    rng = random.Random(3)
    E = [(1, 2, 3)]
    F = sample3(rng, 5, 10)
    rep = triple_count_T(fs, E, F)
    assert rep.T == sum(1 for x in F if dist(fs, x, E[0]) != 0)


def test_chain_inequality_random_configs():
    fs = make_field(7, 1)
    for trial in range(12):
        rng = random.Random(700 + trial)
        E = sample3(rng, 7, rng.randint(1, 20))
        F = sample3(rng, 7, rng.randint(1, 20))
        rep = triple_count_T(fs, E, F)
        assert rep.T == brute_T(fs, E, F)
        assert rep.chain_holds
        nonzero = len(E) * len(F) - rep.zero_pairs
        assert rep.chain_lhs == pytest.approx(nonzero**2)
        if rep.zero_hypothesis_ok and rep.T:
            # the chain and zero_pairs <= |E||F|/2 give the derived bound
            assert len(rep.distance_set - {0}) >= rep.derived_lower - 1e-9


def test_bisector_plane_examples():
    fs3 = make_field(3, 1)
    pl = bisector_plane(fs3, (0, 0, 0), (2, 0, 0))
    assert pl == make_plane(fs3, (1, 0, 0), 1)
    fs5 = make_field(5, 1)
    pl = bisector_plane(fs5, (0, 0, 0), (1, 1, 1))
    assert pl == make_plane(fs5, (2, 2, 2), 3)


def test_bisector_plane_membership():
    fs = make_field(7, 1)
    rng = random.Random(8)
    for _ in range(20):
        x, y = sample3(rng, 7, 2)
        pl = bisector_plane(fs, x, y)
        for u in sample3(rng, 7, 15):
            on = dot3(fs, pl.normal, u) == pl.rhs
            assert on == (dist(fs, x, u) == dist(fs, y, u))


def test_bisector_equal_points_rejected():
    fs = make_field(3, 1)
    with pytest.raises(EqualPoints):
        bisector_plane(fs, (1, 1, 1), (1, 1, 1))


@pytest.mark.parametrize("q", [3, 7])
def test_bisector_collisions_only_on_isotropic_differences(q):
    # y -> bisector(x, y) is injective on {y : ||y-x|| != 0}; collisions can
    # and do happen between points whose differences from x are parallel
    # isotropic vectors (the form x1^2+x2^2+x3^2 is isotropic for every q in
    # three variables, whatever q mod 4 is)
    fs = make_field(q, 1)
    pts = all_points3(q)
    for x in pts[:: max(1, len(pts) // 6)]:
        groups = {}
        for y in pts:
            if y != x:
                groups.setdefault(bisector_plane(fs, x, y), []).append(y)
        for ys in groups.values():
            if len(ys) == 1:
                continue
            diffs = [tuple(fs.sub(y[i], x[i]) for i in range(3)) for y in ys]
            assert all(dist(fs, x, y) == 0 for y in ys)
            d1 = diffs[0]
            i0 = next(i for i in range(3) if d1[i] != 0)
            for d2 in diffs[1:]:
                c = fs.mul(d2[i0], fs.inv(d1[i0]))
                assert all(fs.mul(c, d1[i]) == d2[i] for i in range(3))


def test_bisector_collision_counterexample_gf3():
    # the concrete witness that unrestricted injectivity fails: both
    # differences are isotropic multiples of (1,1,1)
    fs = make_field(3, 1)
    a = bisector_plane(fs, (0, 0, 0), (1, 1, 1))
    b = bisector_plane(fs, (0, 0, 0), (2, 2, 2))
    assert a == b


def test_bisector_collinear_k_example():
    fs = make_field(3, 1)
    E = [(0, 0, 0), (2, 0, 0)]
    F = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]
    assert bisector_collinear_k(fs, E, F) == 3


def test_bisector_collinear_k_degenerate():
    fs = make_field(3, 1)
    assert bisector_collinear_k(fs, [(1, 1, 1)], [(0, 0, 0)]) == 0
    # bisector misses F entirely
    assert bisector_collinear_k(fs, [(0, 0, 0), (1, 0, 0)], [(0, 0, 0)]) == 0


# -- spheres -----------------------------------------------------------------

@pytest.mark.parametrize("q,p,n", [(3, 3, 1), (5, 5, 1), (7, 7, 1), (9, 3, 2),
                                   (11, 11, 1)])
def test_sphere_lines_exactly_when_negated_radius_is_square(q, p, n):
    # The radius-r sphere (r != 0) contains a line iff -r is a nonzero
    # square: lines need an isotropic direction d, and the form restricted
    # to the hyperplane orthogonal to d takes exactly the values -s^2.  For
    # q = 3 mod 4 that means non-square radii DO carry lines, for instance
    # (1,0,2) + t(1,1,1) on the radius-2 sphere over GF(3); acceptance
    # criterion 5a checks this classification at q = 3, 7, 11.
    fs = make_field(p, n)
    for r in range(1, q):
        found = sphere_line_scan(fs, r)
        assert bool(found) == fs.is_square(fs.neg(r)), (q, r)
        for ln in found:
            assert all(norm3(fs, pt) == r for pt in line3_points(fs, ln))


def test_sphere_counterexample_gf3_radius_two():
    fs = make_field(3, 1)
    assert sphere_line_scan(fs, 1) == []  # square radius: truly empty
    found = sphere_line_scan(fs, 2)
    assert Line3((0, 1, 2), (1, 1, 1)) in found
    assert len(found) == 2 * (3 + 1)
    witness = found[0]
    assert all(norm3(fs, pt) == 2 for pt in line3_points(fs, witness))


def test_sphere_line_witness_q5():
    fs = make_field(5, 1)
    found = sphere_line_scan(fs, 1)
    assert Line3((0, 0, 1), (1, 2, 0)) in found
    for ln in found:
        assert all(norm3(fs, p) == 1 for p in line3_points(fs, ln))


def test_sphere_scan_rejects_zero_radius():
    fs = make_field(5, 1)
    with pytest.raises(ValueError):
        sphere_line_scan(fs, 0)


# -- dot products ------------------------------------------------------------

def test_dot_product_basis_example():
    fs = make_field(5, 1)
    E = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rep = dot_product_set(fs, E, [(1, 1, 1)])
    assert rep.dot_set == {1}
    assert rep.lambda_counts == {1: 3}
    assert rep.orthogonal_pairs == 0
    assert rep.best_lambda == 1


def test_dot_product_zero_set():
    fs = make_field(5, 1)
    rep = dot_product_set(fs, [(0, 0, 0)], [(1, 2, 3), (4, 4, 4)])
    assert rep.dot_set == {0}
    assert rep.orthogonal_pairs == 2
    assert rep.best_lambda is None
    assert rep.orthogonal_hypothesis_ok is False


def test_dot_product_counts_sum():
    fs = make_field(7, 1)
    for trial in range(10):
        rng = random.Random(42 + trial)
        E = sample3(rng, 7, rng.randint(1, 15))
        F = sample3(rng, 7, rng.randint(1, 15))
        rep = dot_product_set(fs, E, F)
        assert sum(rep.lambda_counts.values()) == len(E) * len(F)
        assert rep.orthogonal_pairs == rep.lambda_counts.get(0, 0)
        if rep.best_lambda is not None:
            nonzero_total = len(E) * len(F) - rep.orthogonal_pairs
            assert rep.lambda_counts[rep.best_lambda] >= nonzero_total / (fs.q - 1)


def test_max_shared_collinear_on_lambda_planes_matches_pair_loop():
    # two lambda-planes u.x = lam, v.x = lam meet in a line exactly when u
    # and v are not parallel; the line holds the points with both products lam
    fs = make_field(5, 1)
    rng = random.Random(11)
    E = sample3(rng, 5, 7)
    E += E[:2]
    F = sample3(rng, 5, 40)
    normals = sorted({e for e in E if any(e)})
    for lam in range(1, 5):
        got = max_shared_collinear(fs, F, [make_plane(fs, u, lam) for u in normals])
        best = 0
        for u, v in combinations(normals, 2):
            cross = [fs.sub(fs.mul(u[i], v[j]), fs.mul(u[j], v[i]))
                     for i, j in ((1, 2), (2, 0), (0, 1))]
            if any(cross):
                best = max(best, sum(dot3(fs, u, x) == lam == dot3(fs, v, x)
                                     for x in set(F)))
        assert got == best


# -- regular subsets ---------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_regular_subset_full_space(p, n):
    fs = make_field(p, n)
    q = fs.q
    U = all_points3(q)
    rep = regular_subset(fs, U)
    assert rep.size_hypothesis_ok  # q^3 = 8 q^2 exactly at q = 8, above at 9
    assert sorted(rep.U1) == sorted(U[1:])
    assert rep.R_light == [(0, 0, 0)]
    assert rep.L_heavy == []
    assert rep.neighbor_sizes[(1, 0, 0)] == q * q


def test_regular_subset_random_q9():
    fs = make_field(3, 2)
    rng = random.Random(12)
    U = sample3(rng, 9, 700)
    rep = regular_subset(fs, U)
    assert rep.size_hypothesis_ok
    assert len(rep.U1) >= len(U) / 2
    for u in rep.U1:
        assert rep.lower_threshold < rep.neighbor_sizes[u] < rep.upper_threshold


def test_regular_subset_small_flagged():
    fs = make_field(3, 1)
    rep = regular_subset(fs, all_points3(3))
    assert rep.size_hypothesis_ok is False  # 27 < 8 * 9
    assert len(rep.U1) + len(rep.L_heavy) + len(rep.R_light) == 27


def test_regular_subset_counts_match_brute_force():
    fs = make_field(3, 2)
    rng = random.Random(77)
    U = sample3(rng, 9, 60)
    rep = regular_subset(fs, U)
    for u in U[:10]:
        brute = sum(1 for v in U if dot3(fs, u, v) == 1)
        assert rep.neighbor_sizes[u] == brute


def test_regular_subset_counts_match_brute_force_q625():
    # U holds a few normals a and points on their planes a . x = 1, so the
    # unit-product counts are not all zero; the brute force uses raw
    # polynomial arithmetic, independent of the field tables
    fs = make_field(5, 4)
    q = fs.q
    rng = random.Random(625)
    U = set()
    for _ in range(4):
        a = tuple(rng.randrange(1, q) for _ in range(3))
        U.add(a)
        for _ in range(25):
            x0, x1 = rng.randrange(q), rng.randrange(q)
            rest = fs.sub(1, fs.add(fs.mul(a[0], x0), fs.mul(a[1], x1)))
            U.add((x0, x1, fs.mul(rest, fs.inv(a[2]))))
    U = sorted(U)
    rep = regular_subset(fs, U)

    def raw_dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = fs._add_raw(acc, fs._mul_raw(x, y))
        return acc

    brute = {u: sum(1 for v in U if raw_dot(u, v) == 1) for u in U}
    assert rep.neighbor_sizes == brute
    assert max(brute.values()) >= 25


# -- trace pairs -------------------------------------------------------------

def test_trace_pairs_frozen_example():
    fs = make_field(3, 1)
    U = all_points3(3)[1:]
    rep = trace_pairs(fs, U, [(1, 0, 0)])
    assert sorted(rep.class_sizes) == [9, 17]
    assert rep.pair_count == 370
    assert rep.classes == 2


def test_trace_pairs_empty_uprime():
    fs = make_field(3, 1)
    U = all_points3(3)[1:9]
    rep = trace_pairs(fs, U, [])
    assert rep.classes == 1
    assert rep.pair_count == len(U) ** 2
    assert rep.bound_value == math.inf


def test_trace_pairs_cs_floor_random():
    fs = make_field(5, 1)
    for trial in range(10):
        rng = random.Random(50 + trial)
        U = sample3(rng, 5, rng.randint(2, 40))
        k = rng.randint(1, min(4, len(U)))
        Up = [U[i] for i in sorted(rng.sample(range(len(U)), k))]
        rep = trace_pairs(fs, U, Up)
        assert sum(rep.class_sizes) == len(U)
        assert rep.pair_count >= rep.cs_lower - 1e-9
        assert rep.pair_count >= math.ceil(len(U) ** 2 / rep.classes) - 1


def test_trace_pairs_requires_subset():
    fs = make_field(3, 1)
    with pytest.raises(ValueError):
        trace_pairs(fs, [(1, 0, 0)], [(2, 0, 0)])


def test_empty_and_non_subset_inputs_raise_invalid_point_set():
    fs = make_field(3, 1)
    assert issubclass(InvalidPointSet, ToolkitError)
    assert issubclass(InvalidPointSet, ValueError)
    with pytest.raises(InvalidPointSet):
        trace_pairs(fs, [], [])
    with pytest.raises(InvalidPointSet):
        trace_pairs(fs, [(1, 0, 0)], [(2, 0, 0)])
    for fn in (dot_product_set, distance_set):
        with pytest.raises(InvalidPointSet):
            fn(fs, [], [(1, 0, 0)])


def test_trace_classes_bounded_by_shatter_function():
    from fqincidence.setsys import neighborhood_system, shatter_function

    fs = make_field(3, 1)
    rng = random.Random(31)
    U = sample3(rng, 3, 20)
    Up = [U[i] for i in sorted(rng.sample(range(20), 3))]
    rep = trace_pairs(fs, U, Up)
    planes = [make_plane(fs, u, 1) for u in U if u != (0, 0, 0)]
    system = neighborhood_system(fs, Up, planes, "by_plane")
    cap = shatter_function(system, len(Up))
    # the zero point's empty trace may add one class beyond the plane family's
    assert rep.classes <= cap.value + (1 if (0, 0, 0) in U else 0)


# -- entries that are not field elements --------------------------------------

GOOD3 = [(1, 1, 1), (0, 1, 0)]
PLANES = [Plane3((1, 0, 0), 1), Plane3((0, 1, 0), 1)]
# each call passes one entry x in a coordinate, coefficient, element or radius
OUT_OF_RANGE = {
    "dot_product_set": lambda fs, x: dot_product_set(fs, [(0, 0, x)], GOOD3),
    "distance_set": lambda fs, x: distance_set(fs, GOOD3, [(x, 0, 0)]),
    "triple_count_T": lambda fs, x: triple_count_T(fs, [(0, x, 0)], GOOD3),
    "trace_pairs": lambda fs, x: trace_pairs(fs, [(0, 0, x), *GOOD3], GOOD3),
    "regular_subset": lambda fs, x: regular_subset(fs, [*GOOD3, (x, 1, 0)]),
    "count_solutions-line": lambda fs, x: count_solutions(fs, [Line2("N", 1, x)], [0, 1]),
    "count_solutions-A": lambda fs, x: count_solutions(fs, [Line2("N", 1, 1)], [0, x]),
    "count_solutions-oracle": lambda fs, x: count_solutions(
        fs, [Line2("N", x, 1)], [0, 1], method="oracle"),
    "build_point_plane_sets-line": lambda fs, x: build_point_plane_sets(
        fs, [Line2("N", 1, 0), Line2("N", 2, x)], [0, 1]),
    "build_point_plane_sets-A": lambda fs, x: build_point_plane_sets(
        fs, [Line2("N", 1, 0)], [x, 1]),
    "count_incidences-lines-fast": lambda fs, x: count_incidences(
        fs, [(0, 1), (x, 0)], [Line2("N", 1, 0)]),
    "count_incidences-lines-oracle": lambda fs, x: count_incidences(
        fs, [(0, 1)], [Line2("V", 0, 0), Line2("N", x, 0)], "oracle"),
    "count_incidences-planes-fast": lambda fs, x: count_incidences(
        fs, GOOD3, [*PLANES, Plane3((1, 0, 0), x)]),
    "count_incidences-planes-oracle": lambda fs, x: count_incidences(
        fs, [*GOOD3, (0, x, 1)], PLANES, "oracle"),
    "max_collinear": lambda fs, x: max_collinear(fs, [(x, 0), (1, 1)]),
    "max_shared_collinear": lambda fs, x: max_shared_collinear(fs, [*GOOD3, (0, 0, x)], PLANES),
    "neighborhood_system": lambda fs, x: neighborhood_system(
        fs, GOOD3, [*PLANES, Plane3((1, x, 0), 1)], "by_point"),
    "bisector_collinear_k": lambda fs, x: bisector_collinear_k(fs, GOOD3, [(0, x, 0)]),
    "bisector_plane": lambda fs, x: bisector_plane(fs, (0, 0, 0), (1, x, 0)),
    "bisector_collisions_isotropic": lambda fs, x: bisector_collisions_isotropic(
        fs, [*GOOD3, (x, 0, 1)]),
    "make_plane-normal": lambda fs, x: make_plane(fs, (1, 0, x), 1),
    "make_plane-rhs": lambda fs, x: make_plane(fs, (1, 0, 0), x),
    "cs_upper": lambda fs, x: cs_upper(fs, [Line2("N", 1, 0)], [0, 1], [x]),
    "sphere_line_scan": lambda fs, x: sphere_line_scan(fs, x),
}
# the distance functions refuse even q before they read a coordinate
DISTANCE_CALLS = {"distance_set", "triple_count_T", "bisector_collinear_k", "sphere_line_scan",
                  "bisector_plane", "bisector_collisions_isotropic"}
# q + 2 wraps mod p over a prime field and indexes past the tables of an
# extension field; numpy would truncate 1.5, and "1" and 2**70 do not fit int64
BAD_VALUES = {
    "q+2": lambda q: q + 2,
    "float": lambda q: 1.5,
    "str": lambda q: "1",
    "huge": lambda q: 2**70,
}


@pytest.mark.parametrize("name,p,n,bad", [
    pytest.param(name, p, n, bad, id=f"{name}-{p}-{n}" + ("" if bad == "q+2" else f"-{bad}"))
    for bad in BAD_VALUES for name in OUT_OF_RANGE for p, n in [(5, 1), (2, 2), (3, 2)]
    if p != 2 or name not in DISTANCE_CALLS
])
def test_coordinates_outside_the_field_raise_field_mismatch(name, p, n, bad):
    fs = make_field(p, n)
    with pytest.raises(FieldMismatch):
        OUT_OF_RANGE[name](fs, BAD_VALUES[bad](fs.q))


# "X" is neither "N" nor "V"
UNKNOWN_KIND = {
    "count_solutions": lambda fs, ln: count_solutions(fs, [ln], [0, 1]),
    "count_solutions-oracle": lambda fs, ln: count_solutions(fs, [ln], [0, 1], "oracle"),
    "build_point_plane_sets": lambda fs, ln: build_point_plane_sets(fs, [ln], [0, 1]),
    "cs_upper": lambda fs, ln: cs_upper(fs, [ln], [0, 1], [0, 1]),
}


@pytest.mark.parametrize("name", UNKNOWN_KIND)
@pytest.mark.parametrize("p,n", [(5, 1), (2, 2)])
def test_unknown_line_kind_raises_field_mismatch(name, p, n):
    fs = make_field(p, n)
    with pytest.raises(FieldMismatch, match="unknown line kind 'X'"):
        UNKNOWN_KIND[name](fs, Line2("X", 1, 1))


# -- the shapes a point set may take ------------------------------------------

P3 = [(1, 2, 3), (0, 0, 1), (1, 1, 1), (2, 0, 2), (3, 3, 0), (0, 4, 4)]
P2 = [(0, 1), (1, 2), (2, 3), (0, 0), (4, 1)]
# each call passes every point set it takes through the shape function
SHAPES = {
    "count_incidences-lines": lambda fs, s: count_incidences(
        fs, s(P2), [Line2("N", 1, 1), Line2("V", 0, 0)]),
    "count_incidences-planes": lambda fs, s: count_incidences(fs, s(P3), PLANES),
    "count_incidences-oracle": lambda fs, s: count_incidences(fs, s(P3), PLANES, "oracle"),
    "distinct_points3": lambda fs, s: distinct_points3(fs, s(P3)).tolist(),
    "max_collinear-2d": lambda fs, s: max_collinear(fs, s(P2)),
    "max_collinear-3d": lambda fs, s: max_collinear(fs, s(P3)),
    "max_shared_collinear": lambda fs, s: max_shared_collinear(fs, s(P3), PLANES),
    "neighborhood_system": lambda fs, s: neighborhood_system(fs, s(P3), PLANES, "by_point"),
    "distance_set": lambda fs, s: distance_set(fs, s(P3[:3]), s(P3)),
    "triple_count_T": lambda fs, s: triple_count_T(fs, s(P3), s(P3[2:])),
    "dot_product_set": lambda fs, s: dot_product_set(fs, s(P3), s(P3[1:])),
    "bisector_plane": lambda fs, s: bisector_plane(fs, *s(P3[:2])),
    "bisector_collisions_isotropic": lambda fs, s: bisector_collisions_isotropic(fs, s(P3)),
    "bisector_collinear_k": lambda fs, s: bisector_collinear_k(fs, s(P3[:3]), s(P3)),
    "regular_subset": lambda fs, s: regular_subset(fs, s(P3)),
    "trace_pairs": lambda fs, s: trace_pairs(fs, s(P3), s(P3[:2])),
    "make_plane": lambda fs, s: make_plane(fs, *s(P3[:1]), 1),
}
SHAPE_OF = {
    "lists": lambda pts: [list(pt) for pt in pts],
    "array": np.array,
    "generator": lambda pts: (pt for pt in pts),
}


@pytest.mark.parametrize("shape", SHAPE_OF)
@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
def test_point_shapes_give_the_tuple_result(name, shape, p, n):
    fs = make_field(p, n)
    assert SHAPES[name](fs, SHAPE_OF[shape]) == SHAPES[name](fs, list)


# the calls that used to split an array into a list of row arrays
ARRAY_WHOLE = ["distinct_points3", "max_collinear-2d", "regular_subset", "trace_pairs"]


@pytest.mark.parametrize("name", ARRAY_WHOLE)
def test_int64_arrays_reach_field_array_unsplit(name, monkeypatch):
    fs = make_field(5, 1)
    made, seen = [], []

    def int64_array(pts):
        made.append(np.array(pts, dtype=np.int64))
        return made[-1]

    def spy(fs, rows, *args):
        seen.append(rows)
        return field_array(fs, rows, *args)

    with monkeypatch.context() as mp:
        mp.setattr(geom, "field_array", spy)
        mp.setattr(apps, "field_array", spy)
        got = SHAPES[name](fs, int64_array)
    assert made and all(any(rows is arr for rows in seen) for arr in made)
    assert got == SHAPES[name](fs, list)


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 0, 0]]), np.array([[5, 0, 0]]), np.array([[0, -1, 0]]),
    np.array([[2**70, 0, 0]], dtype=object), np.array([[1, 0, 0, 0]]), np.array([[1]]),
], ids=["float", "q", "negative", "past-int64", "width-4", "width-1"])
@pytest.mark.parametrize("name", ARRAY_WHOLE)
def test_bad_arrays_get_the_row_list_message(name, bad):
    fs = make_field(5, 1)

    def message(points):
        with pytest.raises(FieldMismatch) as info:
            SHAPES[name](fs, lambda pts: points)
        return str(info.value)

    assert message(bad) == message(list(bad))


@pytest.mark.parametrize("name", SHAPES)
def test_bare_int_points_raise_field_mismatch(name):
    fs = make_field(5, 1)
    with pytest.raises(FieldMismatch):
        SHAPES[name](fs, lambda pts: [1, 2][:len(pts)])


def test_side_path_inputs_raise_field_mismatch():
    fs = make_field(7, 1)
    rows = [[1, 2, 3], [0, 0, 1]]
    assert bisector_collinear_k(fs, rows, [(1, 1, 1)]) == bisector_collinear_k(
        fs, list(map(tuple, rows)), [(1, 1, 1)])
    for call in (lambda: regular_subset(fs, [1, 2]),
                 lambda: max_collinear(fs, [1, 2]),
                 lambda: max_collinear(fs, [(1, 2), (1, 2, 3)]),  # mixed dimensions
                 lambda: bisector_plane(fs, (0.5, 0, 0), (1, 0, 0)),
                 lambda: make_plane(fs, (8, 0, 0), 9),
                 lambda: make_plane(fs, (1.5, 0, 0), 1)):
        with pytest.raises(FieldMismatch):
            call()
    with pytest.raises(FieldMismatch, match="points must have 2 or 3 coordinates"):
        max_collinear(fs, [(1, 2, 3, 4)])
    with pytest.raises(ValueError, match="plane normal must be nonzero"):
        make_plane(fs, (0, 0, 0), 1)
