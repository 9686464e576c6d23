"""Differential tests: every pairwise kernel against a plain double loop.

The kernels run over the row blocks of FieldSpec.dot_blocks.  Each test runs
three times: at the default block budget; with PAIR_BLOCK_ELEMENTS and
TABLE_ELEMENTS cut to 50, so that inputs with more than 50 columns get one
row per block and smaller ones several rows per block (and flat_counts
takes its sorted-key form on every field); and with PAIR_BLOCK_ELEMENTS alone
cut to 50, so that GF(16) keeps its product tables and its uint8 blocks,
widened by the consumers, take a few rows each.  The references below
are the double loops over scalar field arithmetic that the kernels replaced.
"""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqincidence import apps, ffield, geom
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
    flat_counts,
    plane_groups,
)
from fqincidence.reductions import count_solutions
from fqincidence.setsys import SetSystem, neighborhood_system

# a prime field, q = 9, p = 2 (q = 16) and q = 625
FIELDS = [(101, 1), (3, 2), (2, 4), (5, 4)]
ODD_FIELDS = [f for f in FIELDS if f[0] != 2]
# and q > 2^16, where flat_counts sorts its keys from 16 directions on
GROUPED_FIELDS = FIELDS + [(257, 2)]
# (rows, columns) of the pair matrix: several rows per block, one row per block
SHAPES = [(23, 17), (9, 70)]


@pytest.fixture(params=[None, 50, "blocks-50"], ids=["default-budget", "budget-50", "blocks-50"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(ffield, "PAIR_BLOCK_ELEMENTS", 50)
    if request.param == 50:
        monkeypatch.setattr(ffield, "TABLE_ELEMENTS", 50)
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


@pytest.mark.parametrize("p,n", GROUPED_FIELDS)
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


def whole_space_peak(fs, kernel):
    """The traced peak of regular_subset, the plane count (against every
    plane a . x = 1) or dot_product_set over every point of GF(q)^3, after
    checking the result: every nonzero u has q^2 points x with u . x = 1,
    so all of them are in U1, and every plane holds q^2 points; the zero
    point and q^2 points per nonzero u have u . x = 0."""
    q = fs.q
    space = decode_points(q, range(q**3))
    planes = all_planes_through_one(fs)
    tracemalloc.start()
    try:
        if kernel == "regular_subset":
            result = len(apps.regular_subset(fs, space).U1)
        elif kernel == "dot_product_set":
            result = dot_product_set(fs, space, space).orthogonal_pairs
        else:
            result = count_incidences(fs, space, planes).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = {"regular_subset": q**3 - 1, "plane_count": (q**3 - 1) * q**2,
                "dot_product_set": q**3 + (q**3 - 1) * q**2}
    assert result == expected[kernel]
    return peak


@pytest.mark.parametrize("kernel", ["regular_subset", "plane_count"])
def test_whole_space_kernels_stay_in_memory_budget(kernel, spectral):
    # GF(16)^3: 4096 x 4096 unit products and 4096 x 4095 point-plane pairs,
    # which a kernel must walk in blocks rather than hold
    assert whole_space_peak(make_field(2, 4), kernel) < 8 * 2**20


# twice the traced peaks measured over GF(11) with 2^13-entry blocks, 314 KiB
# and 417 KiB; 2^20-entry int64 blocks peaked at 19 MiB
PRIME_PEAK_PINS = {"regular_subset": 2 * 321_839, "plane_count": 2 * 427_062}


@pytest.mark.parametrize("kernel", list(PRIME_PEAK_PINS))
def test_whole_space_prime_kernels_stay_in_block_memory(kernel, spectral):
    assert whole_space_peak(make_field(11, 1), kernel) < PRIME_PEAK_PINS[kernel]


# 1.5 times the traced peaks over the whole GF(49)^3 through the spectral
# side, 20.0 MB and 26.8 MB: mostly the int64 rows of the 117,648 planes or
# points as unit_rows scales them, and regular_subset's report tuples; the
# transform holds q^3 complex entries, 1.9 MB, and the histograms
# (q^2 + q + 1) q int64, 0.96 MB.  The pairwise sides would take 2,451
# columns per point.
GF49_SPECTRAL_PEAK_PINS = {"regular_subset": 40_000_000, "plane_count": 30_000_000}


@pytest.mark.parametrize("kernel", list(GF49_SPECTRAL_PEAK_PINS))
def test_whole_space_spectral_kernels_stay_in_transform_memory(kernel, monkeypatch):
    fs = make_field(7, 2)
    seen = dot_block_columns(monkeypatch, fs)
    assert whole_space_peak(fs, kernel) < GF49_SPECTRAL_PEAK_PINS[kernel]
    assert not seen


# twice the traced peak of regular_subset on 520 seeded points of GF(81)^3,
# 468 KB: its uint16 packed product tables (3 x 81 x 520 entries) and blocks
# of 15 rows, reduced through 64 KiB of intp positions
GF81_REGULAR_PEAK_PIN = 2 * 468_136


def test_gf81_regular_subset_stays_in_block_memory():
    fs = make_field(3, 4)
    U = decode_points(fs.q, random.Random(81).sample(range(fs.q**3), 520))
    tracemalloc.start()
    try:
        rep = apps.regular_subset(fs, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(rep.U1), len(rep.L_heavy), len(rep.R_light)) == (463, 5, 52)
    assert peak < GF81_REGULAR_PEAK_PIN


# 1.25 times the traced peak of the whole-space GF(16) dot_product_set, whose
# bincount widens each uint8 block of at most 2^13 entries to 64 KiB of intp:
# 708 KB, and 757 KB once GF(2^n) blocks took the one block rule.  A bincount
# of 64 KiB uint8 blocks makes a 512 KiB intp copy of each and peaks at
# 1.10 MB.
GF16_DOT_PEAK_PIN = 885_000


def test_whole_space_gf16_dot_products_widen_blocks_in_slices():
    assert whole_space_peak(make_field(2, 4), "dot_product_set") < GF16_DOT_PEAK_PIN


# ---------------------------------------------------------------------------
# grouped flat counts: many flats per direction
# ---------------------------------------------------------------------------

def scaled_planes(fs, rng, normals, count):
    """count planes (c n, c r, c), plane k over normal n = normals[k %
    len(normals)], a random plane n . x = r under a random scaling c != 0:
    the same plane many times over, and parallel ones."""
    out = []
    for k in range(count):
        nrm, r, c = normals[k % len(normals)], rng.randrange(fs.q), rng.randrange(1, fs.q)
        out.append(([fs.mul(c, x) for x in nrm], fs.mul(c, r), c))
    return out


def distinct_normals(fs, rng, count):
    """count normals, no two parallel: (c, c a, c b) for distinct (a, b)
    and random c != 0, and (0, 0, c)."""
    out = [(0, 0, rng.randrange(1, fs.q))]
    for k in rng.sample(range(fs.q**2), count - 1):
        c = rng.randrange(1, fs.q)
        out.append((c, fs.mul(c, k // fs.q), fs.mul(c, k % fs.q)))
    return out


def ref_plane_rows(fs, points, planes):
    return [sum(dot3(fs, x, nrm) == r for nrm, r, _ in planes) for x in points]


@pytest.mark.parametrize("p,n", GROUPED_FIELDS)
@pytest.mark.parametrize("n_normals", [3, 20])
def test_grouped_planes_match_double_loop(p, n, n_normals, budget):
    # 20 normals put GF(257^2) past TABLE_ELEMENTS: the sorted-key form
    fs = make_field(p, n)
    rng = random.Random(fs.q + n_normals)
    normals = distinct_normals(fs, rng, n_normals)
    planes = scaled_planes(fs, rng, normals, 4 * len(normals))
    points = points3(rng, fs.q, 23) + [(0, 0, 0)]
    for nrm, r, _ in planes[:6]:  # points on some of the planes
        i = next(i for i in range(3) if nrm[i])
        x = [rng.randrange(fs.q) for _ in range(3)]
        x[i] = 0
        x[i] = fs.mul(fs.sub(r, dot3(fs, x, nrm)), fs.inv(nrm[i]))
        points.append(tuple(x))
    X = np.array(points)
    nrm = np.array([pl[0] for pl in planes])
    rhs = np.array([pl[1] for pl in planes])
    D, dir_id, val = plane_groups(fs, nrm, rhs)
    assert len(D) == len(normals)
    got = flat_counts(fs, X, D, dir_id, val)
    assert got.tolist() == ref_plane_rows(fs, points, planes)
    assert got.sum() > 0


@pytest.mark.parametrize("p,n", GROUPED_FIELDS)
def test_grouped_unit_products_match_double_loop(p, n, budget):
    # unit products u . u' = 1 over U, the zero point in U: scaled copies c w
    # of a few directions w share a column
    fs = make_field(p, n)
    rng = random.Random(fs.q + 3)
    dirs = points3(rng, fs.q, 5)
    U = [(0, 0, 0)] + [tuple(fs.mul(rng.randrange(1, fs.q), x) for x in w)
                       for w in dirs for _ in range(4)]
    u = U[1]
    for k in range(3):  # points with u . x = 1
        x = [rng.randrange(fs.q), rng.randrange(fs.q), 0]
        i = next(i for i in range(3) if u[i])
        x[i] = 0
        x[i] = fs.mul(fs.sub(1, dot3(fs, x, u)), fs.inv(u[i]))
        U.append(tuple(x))
    U = list(dict.fromkeys(U))
    X = np.array(U)
    got = flat_counts(fs, X, *plane_groups(fs, X, np.ones(len(U), dtype=np.int64)))
    want = [sum(dot3(fs, x, y) == 1 for y in U) for x in U]
    assert got.tolist() == want
    assert got[0] == 0 and got.sum() >= 6


@pytest.mark.parametrize("p,n", GROUPED_FIELDS)
def test_grouped_lines_match_double_loop(p, n, budget):
    # 20 slopes with several intercepts each and repeated vertical lines: 21
    # directions, past TABLE_ELEMENTS over GF(257^2)
    fs = make_field(p, n)
    rng = random.Random(fs.q + 20)
    slopes = rng.sample(range(fs.q), min(fs.q, 20))
    lines = [Line2("N", a, rng.randrange(fs.q)) for a in slopes for _ in range(3)]
    lines += [Line2("V", c, 0) for c in rng.choices(range(fs.q), k=4) * 2]
    points = [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(20)]
    points += [(x, fs.add(fs.mul(ln.a, x), ln.b)) for ln, (x, _) in zip(lines, points)]
    points += [(ln.a, rng.randrange(fs.q)) for ln in lines[-3:]]
    got = count_incidences(fs, points, lines).count
    assert got == ref_lines(fs, points, lines) >= len(points) - 20


# Both sides of the fast line count: the points as rows against the line
# directions, or the non-vertical lines as rows against the distinct x of the
# points, each forced on the same inputs.
LINE_CASES = ["mixed", "no-vertical", "all-vertical", "one-point", "no-points", "no-lines"]


def line_inputs(fs, rng, case, n_lines=30):
    """Random lines, six of them vertical, with repeats; random points, some
    on the lines, with repeats; then cut down to the case."""
    q = fs.q
    lines = [Line2("N", rng.randrange(q), rng.randrange(q)) for _ in range(n_lines)]
    lines += [Line2("V", rng.randrange(q), 0) for _ in range(6)]
    lines += lines[:3] + lines[-2:]  # repeated lines count each time
    points = [(rng.randrange(q), rng.randrange(q)) for _ in range(25)]
    points += [(x, fs.add(fs.mul(ln.a, x), ln.b)) for ln, (x, _) in zip(lines[:10], points)]
    points += [(ln.a, rng.randrange(q)) for ln in lines[n_lines:n_lines + 3]]
    points += points[-4:]  # repeated points count each time
    if case in ("no-vertical", "all-vertical"):
        lines = [ln for ln in lines if (ln.kind == "V") == (case == "all-vertical")]
    if case in ("one-point", "no-points"):
        points = points[-1:] if case == "one-point" else []
    return points, [] if case == "no-lines" else lines


def flat_count_rows(monkeypatch):
    """The rows X and the number of directions D of every flat_counts call
    the line count makes from here on."""
    seen, counts = [], geom.flat_counts

    def spy(fs, X, D, *rest):
        seen.append((np.array(X), len(D)))
        return counts(fs, X, D, *rest)

    monkeypatch.setattr(geom, "flat_counts", spy)
    return seen


@pytest.mark.parametrize("p,n", FIELDS)
@pytest.mark.parametrize("case", LINE_CASES)
@pytest.mark.parametrize("by_x", [False, True], ids=["by-direction", "by-x"])
def test_line_count_sides_match_double_loop(p, n, case, by_x, budget, monkeypatch):
    fs = make_field(p, n)
    points, lines = line_inputs(fs, random.Random(fs.q + len(case)), case)
    monkeypatch.setattr(geom, "x_join_pays", lambda *sizes: by_x)
    want = ref_lines(fs, points, lines)
    assert count_incidences(fs, points, lines) == (want, "fast")
    assert count_incidences(fs, points, lines, "oracle").count == want
    assert want >= {"mixed": 13, "no-vertical": 10, "all-vertical": 3}.get(case, 0)


# |X(P)| q past TABLE_ELEMENTS: the x side's keys are sorted, one per point
LARGE_LINE_FIELDS = [(1048573, 1), (1021, 2), (101, 3), (31, 4)]


@pytest.mark.parametrize("p,n", LARGE_LINE_FIELDS)
def test_large_field_x_side_sorts_the_point_keys(p, n, monkeypatch):
    fs = make_field(p, n)
    points, lines = line_inputs(fs, random.Random(p), "mixed", n_lines=200)
    nonvertical = [(ln.a, ln.b) for ln in lines if ln.kind == "N"]
    assert geom.x_join_pays(fs, len(points), len(lines), len(nonvertical))
    seen = flat_count_rows(monkeypatch)
    got = count_incidences(fs, points, lines)
    assert got == (ref_lines(fs, points, lines), "fast")
    assert got.count >= 13
    [(X, n_columns)] = seen
    assert np.array_equal(X, nonvertical)
    assert n_columns == len({x for x, _ in points})
    assert n_columns * fs.q > ffield.TABLE_ELEMENTS


@settings(max_examples=30)
@given(st.data())
def test_line_count_both_sides_of_the_x_rule(data):
    # the first non-vertical line count at which the rule changes side, and
    # one line fewer: both counts match the double loop, from the side taken
    p, n = data.draw(st.sampled_from([(7, 1), (13, 1), (2, 3), (3, 2), (5, 2)]))
    fs = make_field(p, n)
    n_points = data.draw(st.integers(1, 5 * fs.q))
    n_vertical = data.draw(st.integers(0, 4))
    flips = [k for k in range(1, 6 * fs.q) if geom.x_join_pays(
        fs, n_points, k + n_vertical, k) != geom.x_join_pays(fs, n_points, k - 1 + n_vertical, k - 1)]
    assume(flips)
    k = data.draw(st.sampled_from(flips))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    points = [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(n_points)]
    for nonvertical in (k - 1, k):
        lines = [Line2("N", rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(nonvertical)]
        lines += [Line2("V", points[i % n_points][0], 0) for i in range(n_vertical)]
        by_x = geom.x_join_pays(fs, len(points), len(lines), nonvertical)
        with pytest.MonkeyPatch.context() as mp:
            seen = flat_count_rows(mp)
            assert count_incidences(fs, points, lines).count == ref_lines(fs, points, lines)
        rows = [(ln.a, ln.b) for ln in lines if ln.kind == "N"] if by_x else points
        [(X, _)] = seen
        assert np.array_equal(X.reshape(-1, 2), np.reshape(rows, (-1, 2)))


def bench_line_input(fs, n_points, n_lines, seed):
    """Points and lines drawn as the benchmark's line jobs draw them."""
    rng, q = random.Random(seed), fs.q
    points = [(i % q, i // q) for i in rng.sample(range(q * q), n_points)]
    lines = [Line2("N", i // q, i % q) if i < q * q else Line2("V", i - q * q, 0)
             for i in rng.sample(range(q * q + q), n_lines)]
    return points, lines


@pytest.mark.parametrize("p,n,n_points,n_lines,by_x", [
    (101, 1, 1500, 600, True),  # 597 x 101 bounded entries against 1500 x 102
    (3, 4, 150, 300, False),  # 296 x 81 against 150 x 82
    (2, 4, 200, 200, False),  # 190 x 16 against 200 x 17: within the 6/5
])
def test_line_count_joins_from_the_cheaper_side(p, n, n_points, n_lines, by_x, monkeypatch):
    fs = make_field(p, n)
    points, lines = bench_line_input(fs, n_points, n_lines, fs.q)
    seen = flat_count_rows(monkeypatch)
    got = count_incidences(fs, points, lines).count
    nonvertical = [(ln.a, ln.b) for ln in lines if ln.kind == "N"]
    [(X, _)] = seen
    assert np.array_equal(X, nonvertical if by_x else points)
    monkeypatch.setattr(geom, "x_join_pays", lambda *sizes: not by_x)
    assert count_incidences(fs, points, lines).count == got
    assert got == ref_lines(fs, points[:40], lines) + count_incidences(fs, points[40:], lines).count


# The plane count and regular_subset with many planes per unit normal, on
# both sides of plane_counts: GF(7), GF(9) and GF(4).
SCALED_FIELDS = [(7, 1), (3, 2), (2, 2)]


@pytest.mark.parametrize("p,n", SCALED_FIELDS)
def test_plane_count_of_scaled_normals(p, n, budget, spectral):
    fs = make_field(p, n)
    rng = random.Random(fs.q)
    count = (8 if p == 2 else 2) * (fs.q**2 + fs.q + 1)  # at 800 points
    normals = [(rng.randrange(1, fs.q), rng.randrange(fs.q), rng.randrange(fs.q))
               for _ in range(count // 8)]
    planes = scaled_planes(fs, rng, normals, count)
    points = points3(rng, fs.q, 800)
    # a reference over the base normals: x . (c n) = c (x . n)
    base = [[dot3(fs, x, nrm) for nrm in normals] for x in points]
    want = sum(fs.mul(c, row[k % len(normals)]) == r
               for row in base for k, (_, r, c) in enumerate(planes))
    got = count_incidences(fs, points, [Plane3(tuple(nrm), r) for nrm, r, _ in planes])
    assert got == (want, "fast")


@pytest.mark.parametrize("p,n,size", [(7, 1, 343), (7, 1, 200), (3, 2, 600), (3, 2, 300)])
def test_regular_subset_matches_unit_products(p, n, size, budget, spectral):
    # the whole GF(7)^3, and random subsets of GF(7)^3 and GF(9)^3
    fs = make_field(p, n)
    idx = [0] + random.Random(size).sample(range(1, fs.q**3), size - 1)
    U = decode_points(fs.q, idx)
    counts = dict(zip(U, apps.regular_subset(fs, U).counts.tolist()))
    ones = Counter()
    for i, x in enumerate(U):
        for y in U[i:]:
            if dot3(fs, x, y) == 1:
                ones[x] += 1
                ones[y] += x != y
    assert counts == {u: ones[u] for u in U}
    assert counts[(0, 0, 0)] == 0


def dot_block_columns(monkeypatch, fs):
    """The column count of every dot_blocks call fs makes from here on."""
    seen, blocks = [], fs.dot_blocks

    def spy(X, Y):
        seen.append(len(Y))
        return blocks(X, Y)

    monkeypatch.setitem(fs.__dict__, "dot_blocks", spy)
    return seen


def whole_space_columns(monkeypatch, kernel):
    """The dot_blocks columns of the GF(16) whole-space kernel, after
    checking its result as whole_space_peak does."""
    fs = make_field(2, 4)
    space = decode_points(fs.q, range(fs.q**3))
    seen = dot_block_columns(monkeypatch, fs)
    if kernel == "regular_subset":
        assert len(apps.regular_subset(fs, space).U1) == fs.q**3 - 1
    else:
        planes = all_planes_through_one(fs)
        assert count_incidences(fs, space, planes).count == (fs.q**3 - 1) * fs.q**2
    return seen


@pytest.mark.parametrize("kernel", ["regular_subset", "plane_count"])
def test_whole_space_counts_take_a_column_per_plane(kernel, monkeypatch):
    # the plain side, with the spectral rule pinned off: 4096 unit-product
    # planes u . x = 1 (the zero point's among them) or the 4095 planes
    monkeypatch.setattr(geom, "spectrum_pays", lambda fs, points, flats: False)
    seen = whole_space_columns(monkeypatch, kernel)
    assert set(seen) == {16**3 if kernel == "regular_subset" else 16**3 - 1}


@pytest.mark.parametrize("kernel", ["regular_subset", "plane_count"])
def test_whole_space_counts_take_no_pairwise_block(kernel, monkeypatch):
    assert whole_space_columns(monkeypatch, kernel) == []


def test_random_gf81_regular_subset_keeps_a_column_per_point(monkeypatch):
    fs = make_field(3, 4)
    U = decode_points(fs.q, random.Random(81).sample(range(fs.q**3), 520))
    seen = dot_block_columns(monkeypatch, fs)
    apps.regular_subset(fs, U)
    assert seen == [520]


# twice the traced peak of 10^4 random lines against 1000 random points over
# GF(1021^2), 1.29 MB when the points were the rows against 10^4 directions
# (1.19 MB now, and 0.82 MB with the lines as rows against the 1000 distinct
# x, the side x_join_pays takes): either way flat_counts sorts its keys and
# counts each block by searchsorted.  A bucket table of q entries per
# direction peaked at 18.4 MB and took 5-7 s.
LARGE_LINE_PEAK_PIN = 2 * 1_288_159


def large_line_input():
    fs = make_field(1021, 2)
    rng = random.Random(1021)
    points = [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(1000)]
    lines = [Line2("N", rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(10**4)]
    lines[:20] = [Line2("N", 5, fs.sub(y, fs.mul(5, x))) for x, y in points[:20]]
    return fs, points, lines


def test_large_field_line_count_sorts_its_keys_in_block_memory():
    assert_large_line_count_in_block_memory(*large_line_input())


def test_large_field_line_count_by_direction_stays_in_block_memory(monkeypatch):
    # the same input with the points as rows, the side the rule declines
    fs, points, lines = large_line_input()
    assert geom.x_join_pays(fs, len(points), len(lines), len(lines))
    monkeypatch.setattr(geom, "x_join_pays", lambda *sizes: False)
    assert_large_line_count_in_block_memory(fs, points, lines)


def assert_large_line_count_in_block_memory(fs, points, lines):
    tracemalloc.start()
    try:
        got = count_incidences(fs, points, lines).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ref_lines(fs, points[:50], lines) + count_incidences(fs, points[50:], lines).count
    assert got >= 20
    assert peak < LARGE_LINE_PEAK_PIN
