import random
from itertools import combinations

import pytest

from fqincidence.errors import FieldMismatch
from fqincidence.ffield import make_field
from fqincidence.geom import (
    Line2,
    Line3,
    Plane3,
    all_planes_through_one,
    coords_array,
    count_incidences,
    decode_points,
    dot3,
    grid_points,
    line3_points,
    make_plane,
    max_collinear,
    max_shared_collinear,
    nonvertical,
    plane_canonical,
    plane_through_one,
    vertical,
)
from pair_loops import line3_key, plane_intersection


def sample_points2(rng, q, count):
    idxs = rng.sample(range(q * q), count)
    return [(i % q, i // q) for i in idxs]


def sample_points3(rng, q, count):
    idxs = rng.sample(range(q**3), count)
    return [(i % q, (i // q) % q, i // (q * q)) for i in idxs]


def sample_lines(rng, q, count):
    idxs = rng.sample(range(q * q + q), count)
    out = []
    for i in idxs:
        if i < q * q:
            out.append(Line2("N", i // q, i % q))
        else:
            out.append(Line2("V", i - q * q, 0))
    return out


def sample_planes(rng, q, count):
    idxs = rng.sample(range(1, q**3), count)
    return [plane_through_one((i % q, (i // q) % q, i // (q * q))) for i in idxs]


def test_incident_examples():
    fs = make_field(5, 1)
    assert count_incidences(fs, [(2, 3)], [nonvertical(1, 1)], "oracle").count == 1
    assert count_incidences(fs, [(2, 3)], [vertical(2)], "oracle").count == 1
    fs3 = make_field(3, 1)
    assert count_incidences(fs3, [(1, 1, 1)], [plane_through_one((1, 1, 1))], "oracle").count == 0


def test_incident_rejects_bad_dimension():
    fs = make_field(5, 1)
    with pytest.raises(FieldMismatch):
        count_incidences(fs, [(1, 2, 3)], [nonvertical(1, 1)], "oracle")
    with pytest.raises(FieldMismatch):
        count_incidences(fs, [(1, 7)], [nonvertical(1, 1)], "oracle")


@pytest.mark.parametrize("method", ["oracle", "fast"])
@pytest.mark.parametrize("p,n,flat", [
    (2, 2, Plane3((5, 1, 1), 0)),  # normal coordinate 5 >= q = 4
    (7, 1, Plane3((8, 0, 0), 1)),  # 8 = 1 mod 7, still outside [0, 7)
    (7, 1, nonvertical(8, 0)),
    (7, 1, Plane3((0, 0, 0), 0)),  # zero normal: not a plane
    (5, 1, Plane3((1, 0, 0), -1)),
    (5, 1, Plane3((1, 0), 1)),  # a normal needs 3 coordinates
    (5, 1, Line2("W", 1, 0)),
])
def test_bad_flats_rejected(p, n, flat, method):
    fs = make_field(p, n)
    pt = (0, 0) if isinstance(flat, Line2) else (0, 0, 0)
    with pytest.raises(FieldMismatch):
        count_incidences(fs, [pt], [flat], method)


def test_full_grid_line_count():
    fs = make_field(5, 1)
    pts = [(x, y) for x in range(5) for y in range(5)]
    lines = [nonvertical(a, b) for a in range(5) for b in range(5)]
    for method in ("oracle", "fast"):
        assert count_incidences(fs, pts, lines, method).count == 125


def test_full_plane_count():
    fs = make_field(3, 1)
    pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    planes = all_planes_through_one(fs)
    assert len(planes) == 26
    for method in ("oracle", "fast"):
        assert count_incidences(fs, pts, planes, method).count == 26 * 9


def test_fast_equals_oracle_random():
    fs = make_field(7, 1)
    rng = random.Random(17)
    pts = sample_points2(rng, 7, 30)
    lines = sample_lines(rng, 7, 40)
    assert (
        count_incidences(fs, pts, lines, "fast").count
        == count_incidences(fs, pts, lines, "oracle").count
    )


@pytest.mark.parametrize("q,p,n", [(3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1),
                                   (8, 2, 3), (9, 3, 2), (11, 11, 1), (13, 13, 1)])
def test_oracle_fast_agree_every_field(q, p, n):
    fs = make_field(p, n)
    for trial in range(10):
        rng = random.Random(1000 * q + trial)
        pts = sample_points2(rng, q, rng.randint(1, min(q * q, 30)))
        lines = sample_lines(rng, q, rng.randint(1, min(q * q + q, 30)))
        a = count_incidences(fs, pts, lines, "oracle").count
        b = count_incidences(fs, pts, lines, "fast").count
        assert a == b
        pts3 = sample_points3(rng, q, rng.randint(1, min(q**3, 30)))
        planes = sample_planes(rng, q, rng.randint(1, min(q**3 - 1, 30)))
        a = count_incidences(fs, pts3, planes, "oracle").count
        b = count_incidences(fs, pts3, planes, "fast").count
        assert a == b


def test_cartesian_count_matches_per_line_sum():
    fs = make_field(7, 1)
    rng = random.Random(5)
    A = sorted(rng.sample(range(7), 4))
    B = sorted(rng.sample(range(7), 5))
    lines = [ln for ln in sample_lines(rng, 7, 20) if ln.kind == "N"]
    total = count_incidences(fs, grid_points(A, B), lines, "fast").count
    expected = sum(
        sum(1 for x in A if fs.add(fs.mul(ln.a, x), ln.b) in set(B)) for ln in lines
    )
    assert total == expected


def test_max_collinear_diagonal():
    fs = make_field(3, 1)
    k, witness = max_collinear(fs, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    assert k == 3
    assert witness == Line3((0, 0, 0), (1, 1, 1))


def test_max_collinear_single_point():
    fs = make_field(3, 1)
    assert max_collinear(fs, [(1, 2, 0)]) == (1, None)


def brute_max_collinear(fs, pts):
    """Independent oracle: materialize the line through every pair."""
    pts = sorted(set(pts))
    if len(pts) == 1:
        return 1
    best = 1
    for p, r in combinations(pts, 2):
        line_pts = set(line3_points(fs, line3_key(fs, p, r)))
        best = max(best, sum(1 for t in pts if t in line_pts))
    return best


def test_max_collinear_matches_brute_force():
    fs = make_field(7, 1)
    for trial in range(8):
        rng = random.Random(300 + trial)
        pts = sample_points3(rng, 7, 20)
        k, witness = max_collinear(fs, pts)
        assert k == brute_max_collinear(fs, pts)
        if witness is not None:
            on_witness = set(line3_points(fs, witness))
            assert sum(1 for t in set(pts) if t in on_witness) == k


def test_max_collinear_monotone_under_inclusion():
    fs = make_field(5, 1)
    rng = random.Random(9)
    pts = sample_points3(rng, 5, 25)
    k_all, _ = max_collinear(fs, pts)
    assert k_all <= len(pts)
    sub = pts[:12]
    k_sub, _ = max_collinear(fs, sub)
    assert k_sub <= k_all


def test_max_collinear_accepts_2d_points():
    fs = make_field(5, 1)
    k, _ = max_collinear(fs, [(0, 0), (1, 1), (2, 2), (3, 1)])
    assert k == 3


def test_plane_intersection_examples():
    fs = make_field(5, 1)
    m = plane_intersection(fs, make_plane(fs, (1, 0, 0), 1), make_plane(fs, (0, 1, 0), 1))
    assert m.kind == "line"
    assert m.line == Line3((1, 1, 0), (0, 0, 1))
    m = plane_intersection(fs, make_plane(fs, (1, 0, 0), 1), make_plane(fs, (1, 0, 0), 2))
    assert m.kind == "empty"
    m = plane_intersection(fs, make_plane(fs, (1, 1, 0), 1), make_plane(fs, (2, 2, 0), 2))
    assert m.kind == "same"


def test_intersecting_planes_share_exactly_q_points():
    fs = make_field(5, 1)
    rng = random.Random(11)
    planes = sample_planes(rng, 5, 12)
    pts = [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]
    for p1, p2 in combinations(planes, 2):
        common = sum(
            count_incidences(fs, [pt], [p1, p2], "oracle").count == 2 for pt in pts
        )
        meet = plane_intersection(fs, p1, p2)
        if meet.kind == "line":
            assert common == 5
            on_line = line3_points(fs, meet.line)
            assert count_incidences(fs, on_line, [p1, p2], "oracle").count == 2 * 5
        else:
            assert common == 0  # distinct planes of the a.x=1 family never coincide
        assert common <= 5


def test_plane_canonical_and_equality():
    fs = make_field(5, 1)
    p1 = make_plane(fs, (2, 4, 0), 2)
    p2 = make_plane(fs, (1, 2, 0), 1)
    assert p1 == p2
    raw = plane_through_one((2, 4, 0))
    assert plane_canonical(fs, raw) == plane_canonical(fs, make_plane(fs, (2, 4, 0), 1))
    assert plane_canonical(fs, raw).normal[0] == 1


def test_max_shared_collinear():
    fs = make_field(3, 1)
    planes = [plane_through_one((1, 0, 0)), plane_through_one((0, 1, 0))]
    # the two planes meet in the line (1,1,t)
    pts = [(1, 1, 0), (1, 1, 2), (0, 0, 0)]
    assert max_shared_collinear(fs, pts, planes) == 2
    assert max_shared_collinear(fs, [(0, 0, 0)], planes) == 0


def test_fast_equals_oracle_q625():
    # random flats rarely meet random points at q = 625, so half of the
    # flats are built through sampled points
    fs = make_field(5, 4)
    q = fs.q
    rng = random.Random(625)
    pts = sample_points2(rng, q, 60)
    lines = sample_lines(rng, q, 40)
    for x, y in pts[:30]:
        a = rng.randrange(q)
        lines.append(Line2("N", a, fs.sub(y, fs.mul(a, x))))
    lines += [vertical(x) for x, _ in pts[:5]]
    pts3 = sample_points3(rng, q, 60)
    planes = []
    for pt in pts3[:40]:
        normal = tuple(rng.randrange(1, q) for _ in range(3))
        planes += [Plane3(normal, dot3(fs, normal, pt)), Plane3(normal, rng.randrange(q))]
    for flats, points in ((lines, pts), (planes, pts3)):
        fast = count_incidences(fs, points, flats, "fast").count
        assert fast == count_incidences(fs, points, flats, "oracle").count
        assert fast >= 30


@pytest.mark.parametrize("p,n", [(3, 4), (13, 1)])
def test_line_buckets_match_oracle_many_lines_per_direction(p, n):
    # a few slopes, each with many intercepts (repeats included), and many
    # vertical lines: the fast count buckets lines by direction and value
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q)
    slopes = rng.sample(range(q), 4)
    lines = [Line2("N", rng.choice(slopes), rng.randrange(q)) for _ in range(150)]
    lines += [vertical(rng.randrange(q)) for _ in range(60)]
    rng.shuffle(lines)
    pts = sample_points2(rng, q, 40)
    for x, y in pts[:20]:  # lines through sampled points, so counts are not tiny
        a = rng.choice(slopes)
        lines += [Line2("N", a, fs.sub(y, fs.mul(a, x))), vertical(x)]
    fast = count_incidences(fs, pts, lines, "fast").count
    assert fast == count_incidences(fs, pts, lines, "oracle").count
    assert fast >= 40


@pytest.mark.parametrize("q,dim", [(2, 2), (5, 2), (3, 3), (4, 3)])
def test_decode_points_lists_the_space_in_index_order(q, dim):
    space = decode_points(q, range(q**dim), dim)
    assert len(set(space)) == q**dim
    for idx, pt in enumerate(space):
        assert sum(c * q**i for i, c in enumerate(pt)) == idx
    assert decode_points(q, range(1, q**dim), dim) == space[1:]
    assert decode_points(q, []) == []


def test_all_planes_through_one_are_the_nonzero_normals():
    fs = make_field(3, 1)
    planes = all_planes_through_one(fs)
    assert [pl.normal for pl in planes] == decode_points(3, range(1, 27))
    assert all(pl.rhs == 1 and pl.affine_one for pl in planes)


def test_coords_array_rejects_wrong_dimension():
    assert coords_array([], 3).shape == (0, 3)
    assert coords_array([(1, 2, 3)], 3).tolist() == [[1, 2, 3]]
    for rows in ([(1, 2), (0, 1)], [(1, 2, 3), (1, 2)], [(1, 2, 3, 4)]):
        with pytest.raises(FieldMismatch):
            coords_array(rows, 3)
