"""The spectral side of the plane count against the oracle and the pairwise
sides.

geom.plane_histograms counts every plane of GF(q)^3 at once, from one
transform of the point set (ffield's forward3 and inverse1), and
geom.plane_spectrum reads the planes' counts from it.  Here the rule,
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


def histogram_calls(monkeypatch):
    """The results of every plane_histograms call from here on."""
    seen, histograms = [], geom.plane_histograms

    def spy(fs, X):
        seen.append(histograms(fs, X))
        return seen[-1]

    monkeypatch.setattr(geom, "plane_histograms", spy)
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
    seen = histogram_calls(monkeypatch)
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
    assert rep.neighbor_sizes == {u: q * q if any(u) else 0 for u in space}


@pytest.mark.parametrize("p,n", [(7, 1), (2, 3), (3, 2)])
def test_regular_subset_with_the_zero_point(p, n, spectral):
    fs = make_field(p, n)
    rng = random.Random(fs.q)
    U = [(0, 0, 0)] + decode_points(fs.q, rng.sample(range(1, fs.q**3), 150))
    rng.shuffle(U)
    counts = apps.regular_subset(fs, U).neighbor_sizes
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
    want_sizes = apps.regular_subset(fs, U).neighbor_sizes
    monkeypatch.setattr(geom, "spectrum_pays", lambda fs, points, flats: True)
    inverse1 = fs.inverse1
    monkeypatch.setitem(fs.__dict__, "inverse1", lambda S: inverse1(S) + 0.3)
    seen = histogram_calls(monkeypatch)
    assert count_incidences(fs, points, planes).count == want
    assert apps.regular_subset(fs, U).neighbor_sizes == want_sizes
    assert seen == [None, None]


@pytest.mark.parametrize("p,n", [(7, 1), (2, 4)])
def test_duplicate_points_are_refused(p, n, spectral):
    fs = make_field(p, n)
    with pytest.raises(InvalidPointSet, match="duplicate") as err:
        apps.regular_subset(fs, [(1, 2, 3), (0, 1, 1), (1, 2, 3)])
    assert isinstance(err.value, ToolkitError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("p,n", FIELDS)
def test_histograms_count_every_unit_normal(p, n):
    fs = make_field(p, n)
    q = fs.q
    rng = random.Random(q)
    X = np.array([[rng.randrange(q) for _ in range(3)] for _ in range(40)] * 2)
    W = geom.unit_normals(q)
    assert len(W) == q * q + q + 1
    assert (np.diff(geom.row_keys(q, W)) > 0).all()  # distinct, in row_keys order
    assert (geom.unit_rows(fs, W)[0] == W).all()
    H = geom.plane_histograms(fs, X)
    want = [Counter(dot3(fs, w, x) for x in X.tolist()) for w in W.tolist()]
    assert H.tolist() == [[c[r] for r in range(q)] for c in want]


def test_spectral_rule_reads_sizes_within_the_cap(monkeypatch):
    # GF(101)^3 holds TABLE_ELEMENTS (2^20) or fewer entries, GF(125)^3 more
    for q, capped in [(101, False), (125, True)]:
        fs = make_field(*((q, 1) if q == 101 else (5, 3)))
        assert geom.spectrum_pays(fs, 10**6, 10**6) is not capped
    fs = make_field(2, 4)
    assert not geom.spectrum_pays(fs, 1, 1)
    monkeypatch.setattr(ffield, "TABLE_ELEMENTS", fs.q**3 - 1)
    assert not geom.spectrum_pays(fs, 10**6, 10**6)
