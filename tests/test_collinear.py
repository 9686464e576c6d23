"""The numpy collinearity kernels against their pair-loop references.

Inputs are drawn so that collinear points, planes through a common line
and bisectors through a line of F actually occur: random points alone
almost never line up once q passes a few dozen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pair_loops
from fqincidence import apps, ffield, geom
from fqincidence.errors import DivisionByZero, FieldMismatch
from fqincidence.ffield import is_prime, make_field
from fqincidence.geom import Line3, Plane3, plane_through_one

PRIME = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]
EVEN_EXT = [(2, 2), (2, 3), (2, 4)]
ODD_EXT = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (13, 2), (5, 4)]
ODD = PRIME + ODD_EXT
ALL = PRIME + EVEN_EXT + ODD_EXT


def _fields(pairs):
    return st.sampled_from(pairs).map(lambda pn: make_field(*pn))


def _vec(fs, dim=3, nonzero=False):
    v = st.tuples(*[st.integers(0, fs.q - 1)] * dim)
    return v.filter(any) if nonzero else v


def _along(fs, base, d, t):
    return tuple(fs.add(b, fs.mul(t, c)) for b, c in zip(base, d))


def _cross(fs, a, b):
    return tuple(fs.sub(fs.mul(a[i], b[j]), fs.mul(a[j], b[i]))
                 for i, j in ((1, 2), (2, 0), (0, 1)))


@st.composite
def point_sets(draw, fs, dim=3, min_size=0):
    """Random points, points along a few lines, and repeats of both."""
    pts = draw(st.lists(_vec(fs, dim), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        base, d = draw(_vec(fs, dim)), draw(_vec(fs, dim, nonzero=True))
        ts = draw(st.lists(st.integers(0, fs.q - 1), min_size=1, max_size=6, unique=True))
        pts += [_along(fs, base, d, t) for t in ts]
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if len(pts) < min_size:
        pts += draw(st.lists(_vec(fs, dim), min_size=min_size - len(pts), max_size=min_size))
    return pts


@st.composite
def plane_sets(draw, fs, pts):
    """Planes through lines spanned by the points, random planes, parallel
    and rescaled copies, exact repeats and planes kept in the a . x = 1 form."""
    planes = []
    for _ in range(draw(st.integers(0, 2))):
        if len(set(pts)) < 2:
            break
        b, c = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=2, unique=True))
        d = tuple(fs.sub(y, x) for x, y in zip(b, c))
        for w in draw(st.lists(_vec(fs), min_size=1, max_size=3)):
            n = _cross(fs, d, w)
            if any(n):
                planes.append(Plane3(n, geom.dot3(fs, n, b)))
    planes += [Plane3(n, r) for n, r in draw(st.lists(
        st.tuples(_vec(fs, nonzero=True), st.integers(0, fs.q - 1)), max_size=4))]
    if planes:
        pl = draw(st.sampled_from(planes))
        s = draw(st.integers(1, fs.q - 1))
        planes.append(Plane3(tuple(fs.mul(s, c) for c in pl.normal), fs.mul(s, pl.rhs)))
        planes.append(Plane3(pl.normal, fs.add(pl.rhs, 1)))
        planes.append(draw(st.sampled_from(planes)))
    planes += [plane_through_one(n) for n in draw(st.lists(_vec(fs, nonzero=True), max_size=2))]
    return draw(st.permutations(planes))


@settings(max_examples=150)
@given(st.data())
def test_max_collinear_matches_pair_loop(data):
    fs = data.draw(_fields(ALL))
    dim = data.draw(st.sampled_from([2, 3]))
    pts = data.draw(point_sets(fs, dim, min_size=1))
    assert geom.max_collinear(fs, pts) == pair_loops.max_collinear(fs, pts)


@settings(max_examples=100)
@given(st.data())
def test_max_shared_collinear_matches_pair_loop(data):
    fs = data.draw(_fields(ALL))
    pts = data.draw(point_sets(fs, data.draw(st.sampled_from([2, 3]))))
    planes = data.draw(plane_sets(fs, [pair_loops._as_point3(pt) for pt in pts]))
    got = geom.max_shared_collinear(fs, pts, planes)
    assert got == pair_loops.max_shared_collinear(fs, pts, planes)


@st.composite
def bisector_inputs(draw, fs):
    """E and F where some pair of E has a line of F on its bisector."""
    F = draw(point_sets(fs, min_size=1))
    E = draw(st.lists(_vec(fs), max_size=4))
    base, d = draw(_vec(fs)), draw(_vec(fs, nonzero=True))
    F += [_along(fs, base, d, t) for t in draw(st.lists(st.integers(0, fs.q - 1), max_size=5))]
    # y = x + s n with n orthogonal to d: the bisector n . u = n . (x + y)/2
    # holds the line when s = 2 n . (base - x) / ||n||
    x, n = draw(_vec(fs)), _cross(fs, d, draw(_vec(fs)))
    nn = apps.norm3(fs, n)
    if nn:
        nb = geom.dot3(fs, n, tuple(fs.sub(b, c) for b, c in zip(base, x)))
        s = fs.mul(fs.add(nb, nb), fs.inv(nn))
        E += [x, _along(fs, x, n, s)]
    E += draw(st.lists(st.sampled_from(E), max_size=2)) if E else []
    return E, F


@settings(max_examples=100)
@given(st.data())
def test_bisector_collinear_k_matches_pair_loop(data):
    fs = data.draw(_fields(ODD))
    E, F = data.draw(bisector_inputs(fs))
    assert apps.bisector_collinear_k(fs, E, F) == pair_loops.bisector_collinear_k(fs, E, F)


@settings(max_examples=60)
@given(st.data())
def test_kernels_agree_in_small_blocks(data):
    # every kernel splits its pair arrays under PAIR_BLOCK_ELEMENTS, and the
    # plane-pair gram under TABLE_ELEMENTS; tiny budgets make lines, plane
    # pairs and bisector rows straddle blocks
    fs = data.draw(_fields(ODD))
    E, F = data.draw(bisector_inputs(fs))
    planes = data.draw(plane_sets(fs, F))

    def run():
        return (geom.max_collinear(fs, F), geom.max_shared_collinear(fs, F, planes),
                apps.bisector_collinear_k(fs, E, F), apps.bisector_collisions_isotropic(fs, F))

    expected = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "PAIR_BLOCK_ELEMENTS", data.draw(st.integers(1, 40)))
        mp.setattr(ffield, "TABLE_ELEMENTS", data.draw(st.integers(1, 40)))
        assert run() == expected


@settings(max_examples=40)
@given(st.data())
def test_max_shared_collinear_agrees_in_small_gf2_slices(data):
    # with q or more points GF(2^n) takes the product tables, and under a
    # small budget the float64 copy walks each uint8 block in several slices
    fs = data.draw(_fields(EVEN_EXT))
    pts = data.draw(point_sets(fs, min_size=fs.q))
    planes = data.draw(plane_sets(fs, pts))
    expected = geom.max_shared_collinear(fs, pts, planes)
    assert expected == pair_loops.max_shared_collinear(fs, pts, planes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "PAIR_BLOCK_ELEMENTS", data.draw(st.integers(1, 40)))
        assert geom.max_shared_collinear(fs, pts, planes) == expected


@pytest.mark.parametrize("F,k", [
    ([(0, 0, 0), (0, 1, 1)], 0),  # no point of F on the bisector x = 1
    ([(1, 0, 0), (0, 1, 1)], 1),
    ([(1, 0, 0), (1, 2, 3), (0, 1, 1)], 2),
    ([(1, 0, 0)], 1),  # a single point of F spans no line
    # (1, 2, 0) is on the line x = 1, z = 0 but at distance 0 from both
    ([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 4, 0), (1, 2, 3)], 3),
])
def test_bisector_collinear_k_small_rows(F, k):
    fs = make_field(5, 1)
    E = [(0, 0, 0), (2, 0, 0)]
    assert apps.bisector_collinear_k(fs, E, F) == k == pair_loops.bisector_collinear_k(fs, E, F)


def test_bisector_collinear_k_later_block_beats_earlier_one(monkeypatch):
    # over GF(5) the pair ((0,0,0), (2,0,0)) sees 3 points of F on the line
    # x = 1, z = 0, and the later pair ((0,0,0), (4,0,0)) sees 4 on x = 2,
    # z = 1; with one pair per block the second block must still count lines
    fs = make_field(5, 1)
    E = [(0, 0, 0), (2, 0, 0), (4, 0, 0)]
    F = [(1, 0, 0), (1, 1, 0), (1, 4, 0)] + [(2, t, 1) for t in range(1, 5)]
    monkeypatch.setattr(ffield, "PAIR_BLOCK_ELEMENTS", 1)
    assert apps.bisector_collinear_k(fs, E, F) == 4 == pair_loops.bisector_collinear_k(fs, E, F)


def test_bisector_collinear_k_skips_zero_distance_points():
    # (1, 1, 2) is on the bisector of (0, 0, 0) and (2, 0, 0) over GF(3),
    # but at distance 1 + 1 + 4 = 0 from both
    fs = make_field(3, 1)
    E, F = [(0, 0, 0), (2, 0, 0)], [(1, 1, 2), (1, 0, 0)]
    assert pair_loops.dist(fs, E[0], F[0]) == 0
    assert apps.bisector_collinear_k(fs, E, F) == 1 == pair_loops.bisector_collinear_k(fs, E, F)


@settings(max_examples=60)
@given(st.data())
def test_line_keys_match_line3_key(data):
    fs = data.draw(_fields(ALL))
    pairs = data.draw(st.lists(st.lists(_vec(fs), min_size=2, max_size=2, unique=True),
                               min_size=1, max_size=10))
    P, R = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    base, d = geom.line_keys(fs, P, R)
    got = [Line3(tuple(b), tuple(u)) for b, u in zip(base.tolist(), d.tolist())]
    assert got == [pair_loops.line3_key(fs, p, r) for p, r in pairs]


@pytest.mark.parametrize("p,n", ALL)
def test_vinv_inverts_every_nonzero_element(p, n):
    fs = make_field(p, n)
    a = np.arange(1, fs.q)
    assert (fs.vmul(a, fs.vinv(a)) == 1).all()
    assert fs.vinv(a[::7]).tolist() == [fs.inv(int(x)) for x in a[::7]]
    with pytest.raises(DivisionByZero):
        fs.vinv(np.arange(fs.q))


def _odd_prime_powers(limit):
    return [q for q in range(3, limit + 1, 2)
            if any(is_prime(p) and p ** n == q for p in range(3, q + 1) for n in range(1, 5))]


def _field_of(q):
    p = next(p for p in range(3, q + 1) if q % p == 0)
    return make_field(p, round(np.log(q) / np.log(p)))


@pytest.mark.parametrize("q", _odd_prime_powers(13))
def test_sphere_scan_matches_exhaustive_scan(q):
    # x -> s x maps the radius-r sphere and its lines onto the radius-r s^2
    # ones, so above q = 9 one radius per square class stands for the rest
    fs = _field_of(q)
    radii = range(1, q)
    if q > 9:
        radii = {fs.is_square(r): r for r in radii}.values()
    for r in radii:
        assert apps.sphere_line_scan(fs, r) == pair_loops.sphere_line_scan(fs, r), r


@pytest.mark.parametrize("q", _odd_prime_powers(103))
def test_sphere_scan_finds_2q_plus_2_lines_exactly_for_square_minus_r(q):
    fs = _field_of(q)
    t = np.arange(q)
    for r in range(1, q):
        found = apps.sphere_line_scan(fs, r)
        assert len(found) == (2 * (q + 1) if fs.is_square(fs.neg(r)) else 0), r
        assert len(set(found)) == len(found)
        if found:
            base, d = (np.array(col, dtype=np.int64) for col in zip(*found))
            pts = fs.vadd(base[:, None], fs.vmul(t[:, None], d[:, None]))
            assert (apps._norms(fs, pts) == r).all()


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1)])
def test_bisector_collisions_match_pair_loop_on_the_space(p, n):
    fs = make_field(p, n)
    space = geom.decode_points(fs.q, range(fs.q**3))
    assert apps.bisector_collisions_isotropic(fs, space) is True
    assert pair_loops.bisector_collisions_isotropic(fs) is True


def test_bisector_collisions_grouping_sees_isotropic_ties():
    # y -> bisector(x, y) collides on the isotropic multiples of (1, 1, 1)
    # over GF(3); the kernel must group those and still answer True, and a
    # point set holding only the collision is the smallest such case
    fs = make_field(3, 1)
    pts = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    assert apps.bisector_plane(fs, pts[0], pts[1]) == apps.bisector_plane(fs, pts[0], pts[2])
    assert apps.bisector_collisions_isotropic(fs, pts) is True


@pytest.mark.parametrize("call", [
    lambda fs: geom.max_collinear(fs, [(0, 0, 7), (1, 1, 1)]),
    lambda fs: geom.max_collinear(fs, [(0, -1), (1, 1)]),
    lambda fs: geom.max_shared_collinear(
        fs, [(0, 0, 0)], [Plane3((0, 0, 0), 1), Plane3((1, 0, 0), 1)]),
    lambda fs: geom.max_shared_collinear(
        fs, [(0, 0, 0)], [Plane3((1, 0, 0), 5), Plane3((0, 1, 0), 1)]),
    lambda fs: geom.max_shared_collinear(
        fs, [(5, 0, 0)], [Plane3((1, 0, 0), 1), Plane3((0, 1, 0), 1)]),
    lambda fs: apps.bisector_collinear_k(fs, [(0, 0, 0), (1, 0, 0)], [(0, 9, 0)]),
    lambda fs: apps.bisector_collinear_k(fs, [(0, 0, 0), (1, 0, -1)], [(0, 1, 0)]),
    lambda fs: apps.bisector_collisions_isotropic(fs, [(0, 0, 5)]),
    lambda fs: apps.sphere_line_scan(fs, 6),
])
def test_collinearity_helpers_reject_bad_input(call):
    with pytest.raises(FieldMismatch):
        call(make_field(5, 1))
