"""The spectral side of the plane count against the oracle and the pairwise
sides.

geom.plane_groups groups the planes once by unit normal, and
geom.plane_field evaluates the groups at every point of GF(q)^3 at once,
from one transform of the planes (ffield's forward1 and inverse3), where
flat_counts evaluates them at the given points.  Here the rule,
geom.spectrum_pays, is pinned on or off: the counts through the transform
must equal the oracle's on prime, odd extension and GF(2^n) fields, with
repeated points and planes, right-hand side 0 and normals of any scale, and
an inexact transform must hand the count back to the pairwise sides.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqincidence import apps, ffield, geom
from fqincidence.errors import InvalidPointSet, ToolkitError
from fqincidence.ffield import make_field
from fqincidence.geom import Plane3, count_incidences, decode_points, dot3

# GF(5), GF(7), GF(11), GF(13), GF(4), GF(8), GF(16), GF(9), GF(25), GF(27)
FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3)]
WHOLE_FIELDS = [f for f in FIELDS if f[0] ** f[1] <= 16]


def field_calls(monkeypatch):
    """The results of every plane_field call from here on."""
    seen, plane_field = [], geom.plane_field

    def spy(fs, D, dir_id, val):
        seen.append(plane_field(fs, D, dir_id, val))
        return seen[-1]

    monkeypatch.setattr(geom, "plane_field", spy)
    return seen


def random_input(fs, rng, n_points, n_planes):
    """Random points and planes, each set with repeats; a share of the planes
    has right-hand side 0 and every normal is a random multiple of its unit
    form, so few are unit normals."""
    q = fs.q
    points = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n_points)]
    points += rng.sample(points, n_points // 4)
    planes = []
    for _ in range(n_planes):
        normal = (0, 0, 0)
        while normal == (0, 0, 0):
            normal = tuple(rng.randrange(q) for _ in range(3))
        planes.append(Plane3(normal, 0 if rng.random() < 0.2 else rng.randrange(q)))
    planes += rng.sample(planes, n_planes // 4)
    return points, planes


@pytest.mark.parametrize("p,n", FIELDS)
def test_plane_count_matches_the_oracle(p, n, spectral, monkeypatch):
    fs = make_field(p, n)
    points, planes = random_input(fs, random.Random(fs.q), 60, 50)
    seen = field_calls(monkeypatch)
    got = count_incidences(fs, points, planes)
    assert got == (count_incidences(fs, points, planes, "oracle").count, "fast")
    assert len(seen) == spectral
    assert all(h is not None for h in seen)


@pytest.mark.parametrize("p,n", [(7, 2), (101, 1)])
def test_large_orders_match_the_oracle(p, n, spectral):
    fs = make_field(p, n)
    points, planes = random_input(fs, random.Random(fs.q), 120, 80)
    # planes through some of the points, so the count is not near zero
    planes += [Plane3(pl.normal, dot3(fs, pl.normal, x)) for pl, x in zip(planes, points)]
    want = count_incidences(fs, points, planes, "oracle").count
    assert want >= 80
    assert count_incidences(fs, points, planes).count == want


@pytest.mark.parametrize("p,n", WHOLE_FIELDS)
def test_whole_space_counts(p, n, spectral):
    # every plane a . x = r, a != 0, holds q^2 points of GF(q)^3, and every
    # nonzero u has q^2 points x with u . x = 1
    fs = make_field(p, n)
    q = fs.q
    space = decode_points(q, range(q**3))
    normals = geom.decode_rows(q, range(1, q**3))
    planes = geom.Flats(fs, normals, np.arange(len(normals)) % q)
    assert count_incidences(fs, space, planes).count == (q**3 - 1) * q * q
    rep = apps.regular_subset(fs, space)
    assert rep.counts.tolist() == [q * q if any(u) else 0 for u in space]


@pytest.mark.parametrize("p,n", [(7, 1), (2, 3), (3, 2)])
def test_regular_subset_with_the_zero_point(p, n, spectral):
    fs = make_field(p, n)
    rng = random.Random(fs.q)
    U = [(0, 0, 0)] + decode_points(fs.q, rng.sample(range(1, fs.q**3), 150))
    rng.shuffle(U)
    counts = dict(zip(U, apps.regular_subset(fs, U).counts.tolist()))
    assert counts == {u: sum(dot3(fs, u, v) == 1 for v in U) for u in U}
    assert counts[(0, 0, 0)] == 0


@settings(max_examples=60)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_pinned_rule_gives_the_oracle_count(field, data):
    fs = make_field(*field)
    coord = st.integers(0, fs.q - 1)
    points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=30))
    normal = st.tuples(coord, coord, coord).filter(any)
    planes = data.draw(st.lists(st.builds(Plane3, normal, coord), min_size=1, max_size=30))
    want = count_incidences(fs, points, planes, "oracle").count
    for pinned in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geom, "spectrum_pays", lambda fs, points, flats: pinned)
            assert count_incidences(fs, points, planes).count == want


@pytest.mark.parametrize("p,n", [(11, 1), (3, 2), (2, 4)])
def test_inexact_transform_falls_back_to_the_pairwise_count(p, n, monkeypatch):
    fs = make_field(p, n)
    points, planes = random_input(fs, random.Random(fs.q), 60, 50)
    U = list(dict.fromkeys(points))
    want = count_incidences(fs, points, planes, "oracle").count
    want_sizes = apps.regular_subset(fs, U).counts.tolist()
    monkeypatch.setattr(geom, "spectrum_pays", lambda fs, points, flats: True)
    inverse3 = fs.inverse3
    monkeypatch.setitem(fs.__dict__, "inverse3", lambda A: inverse3(A) + 0.3)
    seen = field_calls(monkeypatch)
    assert count_incidences(fs, points, planes).count == want
    assert apps.regular_subset(fs, U).counts.tolist() == want_sizes
    assert seen == [None, None]


@pytest.mark.parametrize("p,n", [(7, 1), (2, 4)])
def test_duplicate_points_are_refused(p, n, spectral):
    fs = make_field(p, n)
    with pytest.raises(InvalidPointSet, match="duplicate") as err:
        apps.regular_subset(fs, [(1, 2, 3), (0, 1, 1), (1, 2, 3)])
    assert isinstance(err.value, ToolkitError) and isinstance(err.value, ValueError)


def plane_table(fs, rng, n_planes):
    """Random planes with repeats, as random_input makes them, and the
    normals and right-hand sides of their rows, for plane_groups."""
    _, planes = random_input(fs, rng, 0, n_planes)
    return planes, np.array([pl.normal for pl in planes]), np.array([pl.rhs for pl in planes])


def oracle_counts(fs, planes, X):
    """The planes through each row of X, by scalar arithmetic over the
    distinct planes and their multiplicities."""
    table = Counter((pl.normal, pl.rhs) for pl in planes).items()
    return [sum(m for (nrm, r), m in table if dot3(fs, nrm, x) == r) for x in X.tolist()]


@pytest.mark.parametrize("p,n", FIELDS)
def test_plane_field_counts_every_point(p, n):
    fs = make_field(p, n)
    q = fs.q
    planes, nrm, rhs = plane_table(fs, random.Random(q), 16)
    groups = geom.plane_groups(fs, nrm, rhs)
    space = geom.decode_rows(q, range(q**3))
    F = geom.plane_field(fs, *groups)
    assert F.tolist() == geom.flat_counts(fs, space, *groups).tolist()
    assert F.tolist() == oracle_counts(fs, planes, space)


@pytest.mark.parametrize("p,n", [(7, 2), (101, 1)])
def test_plane_field_at_large_orders(p, n):
    # the whole field against flat_counts and the oracle at 300 of its points
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q)
    planes, nrm, rhs = plane_table(fs, rng, 400)
    groups = geom.plane_groups(fs, nrm, rhs)
    X = geom.decode_rows(q, rng.sample(range(q**3), 300))
    for pl, x in zip(planes, X[:100]):  # moved onto some of the planes
        i = next(i for i in range(3) if pl.normal[i])
        x[i] = 0
        x[i] = fs.mul(fs.sub(pl.rhs, dot3(fs, pl.normal, x.tolist())), fs.inv(pl.normal[i]))
    at = X @ np.array([1, q, q * q])
    F = geom.plane_field(fs, *groups)
    want = oracle_counts(fs, planes, X)
    assert sum(want) >= 100
    assert F[at].tolist() == geom.flat_counts(fs, X, *groups).tolist() == want


# and orders where a number 1 + q + a q + b overflows int32
NUMBERED_FIELDS = FIELDS + [(1048573, 1), (1021, 2)]


@pytest.mark.parametrize("p,n", NUMBERED_FIELDS)
def test_unit_normals_are_numbered_in_row_keys_order(p, n):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q)
    if q**3 <= 20000:  # every normal, so every unit normal
        nrm, want = geom.decode_rows(q, range(1, q**3)), q * q + q + 1
    else:  # the last unit normal of each kind, scaled, and random normals
        last = [[0, 0, 1], [0, 1, q - 1], [1, q - 1, q - 1]]
        nrm = np.array(last + [[rng.randrange(1, q) for _ in range(3)] for _ in range(60)])
        nrm, want = fs.vmul(nrm, rng.randrange(2, q)).astype(np.int64), len(nrm)
    rhs = np.array([rng.randrange(q) for _ in range(len(nrm))])
    D, dir_id, val = geom.plane_groups(fs, nrm, rhs)
    unit, scale = geom.unit_rows(fs, nrm)
    assert len(D) == want
    assert (np.diff(geom.row_keys(q, D)) > 0).all()  # distinct, in row_keys order
    assert (geom.unit_rows(fs, D)[0] == D).all()
    assert (D[dir_id] == unit).all()
    assert (val == fs.vmul(rhs, scale[:, 0])).all()


def test_plain_count_at_a_large_extension(monkeypatch):
    # GF(1021^2) is past the transform's cap, so the count takes the plain
    # side, whose int32 blocks hold elements past 2^16
    fs = make_field(1021, 2)
    points, planes = random_input(fs, random.Random(7), 60, 40)
    planes += [Plane3(pl.normal, dot3(fs, pl.normal, x)) for pl, x in zip(planes, points)]
    seen = field_calls(monkeypatch)
    want = count_incidences(fs, points, planes, "oracle").count
    assert want >= 40
    assert count_incidences(fs, points, planes).count == want
    assert seen == []


def test_spectral_rule_reads_sizes_within_the_cap(monkeypatch):
    # GF(101)^3 holds TABLE_ELEMENTS (2^20) or fewer entries, GF(125)^3 more
    for q, capped in [(101, False), (125, True)]:
        fs = make_field(*((q, 1) if q == 101 else (5, 3)))
        assert geom.spectrum_pays(fs, 10**6, 10**6) is not capped
    fs = make_field(2, 4)
    assert not geom.spectrum_pays(fs, 1, 1)
    monkeypatch.setattr(ffield, "TABLE_ELEMENTS", fs.q**3 - 1)
    assert not geom.spectrum_pays(fs, 10**6, 10**6)
