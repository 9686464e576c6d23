"""Differential tests: every pairwise kernel against a plain double loop.

The kernels run over the row blocks of FieldSpec.dot_blocks.  Each test runs
twice: at the default block budget, and with PAIR_BLOCK_ELEMENTS cut to 50
entries, so that inputs with more than 50 columns get one row per block and
smaller ones several rows per block (and the line count walks its
directions in several chunks).  The references below are the double loops
over scalar field arithmetic that the kernels replaced.
"""

import random
import tracemalloc
from collections import Counter

import pytest

from fqincidence import apps, ffield
from fqincidence.apps import (
    distance_set,
    dot_product_set,
    trace_pairs,
    triple_count_T,
)
from fqincidence.errors import BudgetExceeded, FieldMismatch
from fqincidence.ffield import make_field
from fqincidence.geom import (
    Line2,
    Plane3,
    all_planes_through_one,
    count_incidences,
    decode_points,
    dot3,
)
from fqincidence.reductions import count_solutions
from fqincidence.setsys import SetSystem, neighborhood_system

# a prime field, q = 9, p = 2 (q = 16) and q = 625
FIELDS = [(101, 1), (3, 2), (2, 4), (5, 4)]
ODD_FIELDS = [f for f in FIELDS if f[0] != 2]
# (rows, columns) of the pair matrix: several rows per block, one row per block
SHAPES = [(23, 17), (9, 70)]


@pytest.fixture(params=[None, 50], ids=["default-budget", "budget-50"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(ffield, "PAIR_BLOCK_ELEMENTS", request.param)
    return request.param


def points3(rng, q, count):
    return [tuple(rng.randrange(q) for _ in range(3)) for _ in range(count)]


def ref_lines(fs, points, lines):
    total = 0
    for x, y in points:
        for ln in lines:
            if ln.kind == "V":
                total += x == ln.a
            else:
                total += y == fs.add(fs.mul(ln.a, x), ln.b)
    return total


def ref_energy(fs, pairs, a_set):
    r = Counter(fs.add(fs.mul(a, x), b) for a, b in pairs for x in a_set)
    return sum(c * c for c in r.values())


def ref_distances(fs, E, F):
    dists, zero, T = set(), 0, 0
    for y in F:
        row = Counter()
        for x in E:
            d = tuple(fs.sub(y[i], x[i]) for i in range(3))
            row[dot3(fs, d, d)] += 1
        dists |= set(row)
        zero += row[0]
        T += sum(c * c for g, c in row.items() if g != 0)
    return dists, zero, T


def ref_traces(fs, U, Up):
    groups = Counter(
        tuple(i for i, x in enumerate(Up) if dot3(fs, u, x) == 1) for u in U
    )
    return sorted(groups.values(), reverse=True)


def ref_neighborhoods(fs, points, planes, side):
    hit = [[count_incidences(fs, [pt], [pl], "oracle").count for pl in planes] for pt in points]
    if side == "by_point":
        rows = [[j for j, h in enumerate(row) if h] for row in hit]
        return SetSystem.from_sets(len(planes), rows)
    cols = [[i for i, row in enumerate(hit) if row[j]] for j in range(len(planes))]
    return SetSystem.from_sets(len(points), cols)


@pytest.mark.parametrize("p,n", FIELDS)
@pytest.mark.parametrize("n_points,n_lines", SHAPES + [(40, 3)])
def test_line_count_matches_double_loop(p, n, n_points, n_lines, budget):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q * n_lines + n_points)
    slopes = [rng.randrange(q) for _ in range(3)]  # repeated slopes
    lines = []
    for k in range(n_lines):
        if k % 5 == 2:
            lines.append(Line2("V", rng.randrange(q), 0))
        else:
            lines.append(Line2("N", rng.choice(slopes), rng.randrange(q)))
    lines += lines[:2]  # duplicate lines count twice
    points = [(rng.randrange(q), rng.randrange(q)) for _ in range(n_points)]
    # put every point on the first line, and one on the first vertical line
    a, b = lines[0].a, lines[0].b
    points += [(x, fs.add(fs.mul(a, x), b)) for x, _ in points[:5]]
    v = next(ln for ln in lines if ln.kind == "V")
    points.append((v.a, 0))
    got = count_incidences(fs, points, lines).count
    assert got == ref_lines(fs, points, lines)
    assert got == count_incidences(fs, points, lines, "oracle").count
    on_y_axis = sum(x == 0 for x, _ in points)
    assert count_incidences(fs, points, [Line2("V", 0, 0)]).count == on_y_axis


@pytest.mark.parametrize("p,n", FIELDS)
@pytest.mark.parametrize("n_lines,n_a", SHAPES)
def test_energy_matches_double_loop(p, n, n_lines, n_a, budget):
    fs = make_field(p, n)
    rng = random.Random(fs.q + n_lines)
    pairs = [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(n_lines)]
    pairs += pairs[:3]  # duplicate lines are counted with multiplicity
    a_set = [rng.randrange(fs.q) for _ in range(n_a)]
    got = count_solutions(fs, [Line2("N", a, b) for a, b in pairs], a_set)
    assert got == ref_energy(fs, pairs, a_set)
    assert count_solutions(fs, [Line2("N", a, b) for a, b in pairs], []) == 0


@pytest.mark.parametrize("p,n", FIELDS)
@pytest.mark.parametrize("n_e,n_f", SHAPES)
def test_dot_products_match_double_loop(p, n, n_e, n_f, budget):
    fs = make_field(p, n)
    rng = random.Random(fs.q + n_e)
    E, F = points3(rng, fs.q, n_e), points3(rng, fs.q, n_f)
    F[0] = (0, 0, 0)  # a row of zero products
    counts = Counter(dot3(fs, x, y) for x in E for y in F)
    rep = dot_product_set(fs, E, F)
    assert rep.lambda_counts == dict(counts)
    assert rep.dot_set == set(counts)
    assert rep.orthogonal_pairs == counts[0]
    nonzero = {lam: c for lam, c in counts.items() if lam}
    top = max(nonzero.values())
    assert rep.best_lambda == min(lam for lam, c in nonzero.items() if c == top)


@pytest.mark.parametrize("p,n", ODD_FIELDS)
@pytest.mark.parametrize("n_e,n_f", SHAPES)
def test_distances_match_double_loop(p, n, n_e, n_f, budget):
    fs = make_field(p, n)
    rng = random.Random(fs.q + n_f)
    # F is the row side; columns are E
    E, F = points3(rng, fs.q, n_f), points3(rng, fs.q, n_e)
    E += E[:4]  # repeated points make runs of equal distances
    F.append(E[0])  # and a zero distance
    dists, zero, T = ref_distances(fs, E, F)
    rep = distance_set(fs, E, F)
    assert (rep.distance_set, rep.zero_pairs, rep.T) == (dists, zero, T)
    full = triple_count_T(fs, E, F)
    assert (full.distance_set, full.zero_pairs, full.T) == (dists, zero, T)


def test_distance_pass_budget(monkeypatch):
    fs = make_field(7, 1)
    E, F = points3(random.Random(7), 7, 5), points3(random.Random(8), 7, 4)
    monkeypatch.setattr(apps, "TRIPLE_BUDGET", 20)
    assert distance_set(fs, E, F).T is not None  # 5 x 4 = 20 pairs
    with pytest.raises(BudgetExceeded):
        distance_set(fs, E + E[:1], F)
    with pytest.raises(BudgetExceeded):
        triple_count_T(fs, E + E[:1], F)


@pytest.mark.parametrize("p,n", FIELDS)
@pytest.mark.parametrize("n_u,n_up", SHAPES + [(12, 0)])
def test_trace_pairs_match_double_loop(p, n, n_u, n_up, budget):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q + n_u)
    Up = list(dict.fromkeys(points3(rng, q, n_up)))
    U = list(Up)
    for k in range(n_u):
        # u . x = 1 for some x in U' wherever x[2] is invertible
        u0, u1 = rng.randrange(q), rng.randrange(q)
        x = Up[k % len(Up)] if Up else (0, 0, 0)
        if x[2]:
            rest = fs.sub(1, fs.add(fs.mul(u0, x[0]), fs.mul(u1, x[1])))
            U.append((u0, u1, fs.mul(rest, fs.inv(x[2]))))
        else:
            U.append((u0, u1, rng.randrange(q)))
    U += U[:3]  # duplicates share a trace
    rep = trace_pairs(fs, U, Up)
    sizes = ref_traces(fs, U, Up)
    assert rep.class_sizes == sizes
    assert rep.classes == len(sizes)
    assert rep.pair_count == sum(m * m for m in sizes)


@pytest.mark.parametrize("p,n", FIELDS)
@pytest.mark.parametrize("n_points,n_planes", SHAPES + [(0, 5), (5, 0)])
@pytest.mark.parametrize("side", ["by_point", "by_plane"])
def test_neighborhoods_match_incident_loop(p, n, n_points, n_planes, side, budget):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q + n_points + n_planes)
    points = points3(rng, q, n_points)
    planes = []
    for j in range(n_planes):
        normal = (rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
        # half the planes pass through a chosen point
        rhs = dot3(fs, normal, points[j % n_points]) if points and j % 2 else rng.randrange(q)
        planes.append(Plane3(normal, rhs))
    points += points[:2]
    planes += planes[:2]
    got = neighborhood_system(fs, points, planes, side)
    want = ref_neighborhoods(fs, points, planes, side)
    assert (got.ground_size, got.family) == (want.ground_size, want.family)


@pytest.mark.parametrize("points,planes", [
    ([(0, 0, 9)], [Plane3((1, 0, 0), 1)]),  # coordinate outside GF(7)
    ([(0, 0)], [Plane3((1, 0, 0), 1)]),  # two coordinates
    ([(0, 0, 1)], [Plane3((0, 0, 0), 1)]),  # zero normal
    ([(0, 0, 1)], [Plane3((1, 0, 0), 7)]),  # rhs outside GF(7)
    ([(0, 0, 1)], [Plane3((1, 0, 0), 1), Plane3((1, 8, 0), 1)]),
])
@pytest.mark.parametrize("side", ["by_point", "by_plane"])
def test_neighborhood_input_rejected(points, planes, side):
    fs = make_field(7, 1)
    with pytest.raises(FieldMismatch):
        neighborhood_system(fs, points, planes, side)


@pytest.mark.parametrize("kernel", ["regular_subset", "plane_count"])
def test_whole_space_kernels_stay_in_memory_budget(kernel):
    # every point of GF(16)^3: 4096 x 4096 unit products and 4096 x 4095
    # point-plane pairs, which a kernel must walk in blocks rather than hold
    fs = make_field(2, 4)
    space = decode_points(fs.q, range(fs.q**3))
    planes = all_planes_through_one(fs)
    tracemalloc.start()
    try:
        if kernel == "regular_subset":
            result = len(apps.regular_subset(fs, space).U1)
        else:
            result = count_incidences(fs, space, planes).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every nonzero u has q^2 points x with u . x = 1: all of them are in U1,
    # and every plane holds q^2 points
    assert result == (fs.q**3 - 1) * (1 if kernel == "regular_subset" else fs.q**2)
    assert peak < 8 * 2**20
