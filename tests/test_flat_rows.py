"""Flats against the Line2 and Plane3 lists they stand for.

A Flats and the equivalent list must give the same results in every kernel
that takes flats, by both methods where there are two, and bad input must
get the same FieldMismatch message either way: from the constructor, from a
Flats read for another order, or from the list in the kernel.  Lines are
kept in slope form, y = a*x + b as the normal (-a, 1) with rhs b and x = c
as (1, 0) with rhs c; a 2-D row in any other form is refused.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqincidence.errors import FieldMismatch
from fqincidence.ffield import make_field
from fqincidence.geom import (Flats, Line2, Plane3, count_incidences, decode_rows, flat_rows,
                              line_coeffs, max_shared_collinear, slope_lines)
from fqincidence.reductions import count_solutions
from fqincidence.setsys import neighborhood_system

FIELDS = [(13, 1), (2, 4), (3, 4), (5, 4)]  # prime, GF(16), GF(81), GF(625)
ROUND_TRIP_FIELDS = [(7, 1), (2, 4), (3, 4), (5, 4)]  # GF(7), GF(16), GF(81), GF(625)
# GF(7), GF(101), GF(16), GF(81), GF(625), GF(1021^2), GF(1048573)
CODEC_FIELDS = [(7, 1), (101, 1), (2, 4), (3, 4), (5, 4), (1021, 2), (1048573, 1)]


def _points(rng, q, count, dim):
    return decode_rows(q, rng.sample(range(q**dim), count), dim)


def _slope_form(fs, lines):
    """The normals and right-hand sides of Line2 items in slope form."""
    return ([(1, 0) if ln.kind == "V" else (fs.neg(ln.a), 1) for ln in lines],
            [ln.a if ln.kind == "V" else ln.b for ln in lines])


def _lines(rng, fs, count, vertical=True):
    """count random lines as a Line2 list and as the equivalent Flats."""
    q = fs.q
    out = [Line2("V", rng.randrange(q), 0) if vertical and rng.random() < 0.2
           else Line2("N", rng.randrange(q), rng.randrange(q)) for _ in range(count)]
    return out, Flats(fs, *_slope_form(fs, out))


def _planes(rng, fs, count):
    """count random planes (nonzero normals, any right-hand side) both ways."""
    q = fs.q
    normals = decode_rows(q, [rng.randrange(1, q**3) for _ in range(count)])
    rhs = [rng.randrange(q) for _ in range(count)]
    planes = [Plane3(tuple(n), r) for n, r in zip(normals.tolist(), rhs)]
    return planes, Flats(fs, normals, np.array(rhs))


@pytest.mark.parametrize("p,n", FIELDS)
def test_flats_count_as_their_lists(p, n):
    fs = make_field(p, n)
    rng = random.Random(fs.q)
    pts2, pts3 = _points(rng, fs.q, 60, 2), _points(rng, fs.q, 50, 3)
    line_list, lines = _lines(rng, fs, 45)
    plane_list, planes = _planes(rng, fs, 40)
    assert list(lines) == line_list and list(planes) == plane_list
    for method in ("fast", "oracle"):
        assert (count_incidences(fs, pts2, lines, method)
                == count_incidences(fs, pts2, line_list, method))
        assert (count_incidences(fs, pts3, planes, method)
                == count_incidences(fs, pts3, plane_list, method))
    assert max_shared_collinear(fs, pts3, planes) == max_shared_collinear(fs, pts3, plane_list)
    for side in ("by_point", "by_plane"):
        assert (neighborhood_system(fs, pts3, planes, side)
                == neighborhood_system(fs, pts3, plane_list, side))
    line_list, lines = _lines(rng, fs, 6, vertical=False)
    a_set = rng.sample(range(fs.q), 4)
    for method in ("fast", "oracle"):
        assert (count_solutions(fs, lines, a_set, method)
                == count_solutions(fs, line_list, a_set, method))


def test_large_plane_count_takes_flats(spectral):
    # 900 points against 400 planes over GF(13), on both sides of plane_counts
    fs = make_field(13, 1)
    rng = random.Random(7)
    pts = _points(rng, 13, 900, 3)
    plane_list, planes = _planes(rng, fs, 400)
    assert count_incidences(fs, pts, planes) == count_incidences(fs, pts, plane_list)


def test_flats_are_read_only_sequences():
    fs = make_field(7, 1)
    line_list, lines = _lines(random.Random(1), fs, 12)
    plane_list, planes = _planes(random.Random(2), fs, 9)
    for rows, items in ((lines, line_list), (planes, plane_list)):
        assert len(rows) == len(items)
        assert rows[0] == items[0] and rows[-1] == items[-1]
        assert list(rows[2:7]) == items[2:7] and type(rows[2:7]) is Flats
        assert rows[2:7] == rows[2:7] and rows[2:7] != rows[3:8]
        with pytest.raises(IndexError):
            rows[len(items)]
        for arr in (rows.normals, rows.rhs):
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    assert lines.normals.shape == (12, 2) and planes.normals.shape == (9, 3)
    assert flat_rows(fs, lines) is lines and flat_rows(fs, planes, 3) is planes
    assert flat_rows(fs, line_list) == lines and flat_rows(fs, plane_list, 3) == planes
    assert lines != planes and lines[:0] != planes[:0]


def test_flats_of_another_order_are_read_again():
    small, large = make_field(5, 1), make_field(7, 1)
    lines = Flats(large, [(6, 1), (1, 0)], [2, 4])  # y = x + 2, x = 4
    assert flat_rows(small, lines).fs is small and flat_rows(small, lines) == Flats(
        small, [(4, 1), (1, 0)], [2, 4])
    with pytest.raises(FieldMismatch, match=r"line coefficient 6 outside \[0, 5\)"):
        flat_rows(small, Flats(large, [(6, 1)], [6]))
    with pytest.raises(FieldMismatch, match=r"plane coefficient 5 outside \[0, 5\)"):
        flat_rows(small, Flats(large, [(1, 0, 0)], [5]))


def test_flats_take_two_or_three_coordinates_and_one_rhs_per_row():
    fs = make_field(5, 1)
    with pytest.raises(FieldMismatch, match="expected flats of 2 or 3 coordinates"):
        Flats(fs, [(1, 0, 0, 1)], [1])
    with pytest.raises(FieldMismatch,
                       match="^expected one right-hand side per line normal, got 2 for 1$"):
        Flats(fs, [(1, 0)], [1, 2])


# each bad flat as a Line2, and as the slope-form row and rhs of the same flat
BAD_LINES = {
    "at-q": (("N", 1, 7), (6, 1), 7),
    "negative": (("N", -1, 0), (-1, 1), 0),
    "float": (("N", 1.5, 0), (1.5, 1), 0),
}
BAD_PLANES = {
    "normal-at-q": ((1, 7, 0), 1),
    "rhs-at-q": ((1, 0, 0), 7),
    "negative": ((0, -2, 1), 1),
    "normal-float": ((1, 0.5, 0), 1),
    "rhs-float": ((1, 0, 0), 2.5),
    "zero-normal": ((0, 0, 0), 1),
}


def _message(call) -> str:
    with pytest.raises(FieldMismatch) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("bad", BAD_LINES)
def test_bad_lines_get_one_message_either_way(bad):
    fs = make_field(7, 1)
    (kind, a, b), normal, rhs = BAD_LINES[bad]
    listed = [Line2("N", 1, 1), Line2(kind, a, b)]
    want = _message(lambda: count_incidences(fs, [(0, 0)], listed))
    assert _message(lambda: count_incidences(fs, [(0, 0)], listed, "oracle")) == want
    assert _message(lambda: count_solutions(fs, listed, [0, 1])) == want
    assert _message(lambda: flat_rows(fs, listed, 2)) == want
    assert _message(lambda: Flats(fs, [(6, 1), normal], [1, rhs])) == want
    if bad != "float":  # numpy reads every entry of a float array as a float
        assert _message(lambda: Flats(fs, np.array([(6, 1), normal]), np.array([1, rhs]))) == want
        # an int64 Flats read for a smaller order
        wide = Flats(make_field(11, 1), *_slope_form(make_field(11, 1), [
            Line2("N", 1, 1), Line2("N", a % 11, b % 11)]))
        assert _message(lambda: count_incidences(fs, [(0, 0)], wide)) == _message(
            lambda: count_incidences(fs, [(0, 0)], list(wide)))


@pytest.mark.parametrize("bad", BAD_PLANES)
def test_bad_planes_get_one_message_either_way(bad):
    fs = make_field(7, 1)
    normal, rhs = BAD_PLANES[bad]
    listed = [Plane3((1, 1, 1), 0), Plane3(normal, rhs)]
    pts = [(0, 0, 0), (1, 2, 3)]
    want = _message(lambda: count_incidences(fs, pts, listed))
    assert _message(lambda: count_incidences(fs, pts, listed, "oracle")) == want
    assert _message(lambda: max_shared_collinear(fs, pts, listed)) == want
    assert _message(lambda: neighborhood_system(fs, pts, listed, "by_point")) == want
    assert _message(lambda: Flats(fs, [(1, 1, 1), normal], [0, rhs])) == want
    if "float" not in bad:  # numpy reads every entry of a float array as a float
        assert _message(lambda: Flats(fs, np.array([(1, 1, 1), normal]),
                                      np.array([0, rhs]))) == want


def test_a_float_array_is_named_by_its_first_entry():
    fs = make_field(7, 1)
    assert _message(lambda: Flats(fs, np.array([(1.0, 2.0, 0.5)]), [1])) == (
        "plane coefficient 1.0 is not an integer")


def test_flats_of_the_other_kind_are_refused_as_their_lists_are():
    fs = make_field(5, 1)
    line_list, lines = _lines(random.Random(3), fs, 4, vertical=False)
    plane_list, planes = _planes(random.Random(4), fs, 4)
    pts = [(0, 0, 0)]
    assert (_message(lambda: neighborhood_system(fs, pts, lines, "by_point"))
            == _message(lambda: neighborhood_system(fs, pts, line_list, "by_point"))
            == _message(lambda: max_shared_collinear(fs, pts, lines))
            == "expected Plane3 flats, got Line2")
    assert (_message(lambda: count_solutions(fs, planes, [0]))
            == _message(lambda: count_solutions(fs, plane_list, [0]))
            == "expected Line2 flats, got Plane3")


# -- round trips over every field class (hypothesis) ---------------------------

def _line_items(q):
    """Line2 items: x = c, y = a*x + b with any a (a = 0 included)."""
    element = st.integers(0, q - 1)
    return st.one_of(st.builds(Line2, st.just("V"), element, st.just(0)),
                     st.builds(Line2, st.just("N"), st.just(0), element),
                     st.builds(Line2, st.just("N"), element, element))


def _plane_items(q):
    element = st.integers(0, q - 1)
    normal = st.tuples(element, element, element).filter(any)
    return st.builds(Plane3, normal, element, st.just(False))


@settings(max_examples=40)
@given(st.data())
def test_flat_items_round_trip_through_flats(data):
    fs = make_field(*data.draw(st.sampled_from(ROUND_TRIP_FIELDS)))
    items = data.draw(st.lists(_line_items(fs.q), max_size=12)
                      if data.draw(st.booleans()) else st.lists(_plane_items(fs.q), max_size=12))
    dim = 3 if items and isinstance(items[0], Plane3) else 2
    flats = flat_rows(fs, items, dim)
    assert list(flats) == items and len(flats) == len(items)
    assert flats.normals.shape == (len(items), dim)
    assert all(flats[k] == item for k, item in enumerate(items))
    lo, hi = sorted(data.draw(st.lists(st.integers(0, len(items)), min_size=2, max_size=2)))
    assert type(flats[lo:hi]) is Flats and list(flats[lo:hi]) == items[lo:hi]
    built = (Flats(fs, *_slope_form(fs, items)) if dim == 2 and items else
             Flats(fs, [pl.normal for pl in items] or np.zeros((0, dim), np.int64),
                   [pl.rhs for pl in items]))
    assert built == flats


@settings(max_examples=25)
@given(st.data())
def test_flats_and_lists_count_alike(data):
    fs = make_field(*data.draw(st.sampled_from(ROUND_TRIP_FIELDS)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    lines = data.draw(st.lists(_line_items(fs.q), min_size=1, max_size=20))
    planes = data.draw(st.lists(_plane_items(fs.q), min_size=1, max_size=20))
    for items, dim in ((lines, 2), (planes, 3)):
        pts = _points(rng, fs.q, min(30, fs.q**dim), dim)
        flats = flat_rows(fs, items, dim)
        for method in ("fast", "oracle"):
            assert (count_incidences(fs, pts, flats, method)
                    == count_incidences(fs, pts, items, method))
        assert (count_incidences(fs, pts, items, "oracle").count
                == count_incidences(fs, pts, flats).count)


@settings(max_examples=25)
@given(st.data())
def test_flats_of_the_wrong_dimension_get_the_kind_text(data):
    fs = make_field(*data.draw(st.sampled_from(ROUND_TRIP_FIELDS)))
    lines = flat_rows(fs, data.draw(st.lists(_line_items(fs.q), min_size=1, max_size=6)), 2)
    planes = flat_rows(fs, data.draw(st.lists(_plane_items(fs.q), min_size=1, max_size=6)), 3)
    with pytest.raises(FieldMismatch, match="^expected Plane3 flats, got Line2$"):
        neighborhood_system(fs, [(0, 0, 0)], lines, "by_plane")
    with pytest.raises(FieldMismatch, match="^expected Plane3 flats, got Line2$"):
        max_shared_collinear(fs, [(0, 0, 0), (1, 0, 0)], lines)
    with pytest.raises(FieldMismatch, match="^expected Line2 flats, got Plane3$"):
        count_solutions(fs, planes, [0])


@settings(max_examples=40)
@given(st.data())
def test_a_line_not_in_slope_form_is_refused(data):
    fs = make_field(*data.draw(st.sampled_from(ROUND_TRIP_FIELDS)))
    element = st.integers(0, fs.q - 1)
    normal = data.draw(st.tuples(element, element).filter(lambda n: n[1] > 1 or n == (0, 0)
                                                          or n[1] == 0 and n[0] != 1))
    with pytest.raises(FieldMismatch, match=rf"^line normal \({normal[0]}, {normal[1]}\) is "
                                            r"not \(-a, 1\) or \(1, 0\)$"):
        Flats(fs, [(1, 0), normal], [0, data.draw(element)])


# -- the line codec: slope_lines builds, line_coeffs reads ---------------------

@settings(max_examples=60)
@given(st.data())
def test_the_line_codec_round_trips(data):
    fs = make_field(*data.draw(st.sampled_from(CODEC_FIELDS)))
    items = data.draw(st.lists(_line_items(fs.q), max_size=12))
    a, b = [ln.a for ln in items], [ln.b for ln in items]
    vert = [ln.kind == "V" for ln in items]
    if data.draw(st.booleans()):
        a, b = np.array(a, np.int64), np.array(b, np.int64)
    lines = slope_lines(fs, a, b, vert)
    assert type(lines) is Flats and list(lines) == items
    assert flat_rows(fs, items, 2) == lines
    if not any(vert):
        assert slope_lines(fs, a, b) == lines
    for got in (line_coeffs(fs, lines), line_coeffs(fs, items)):
        assert [c.dtype for c in got] == [np.int64, np.int64, bool]
        assert [c.tolist() for c in got] == [list(a), list(b), vert]


@settings(max_examples=60)
@given(st.data())
def test_the_line_codec_refuses_a_bad_coefficient(data):
    fs = make_field(*data.draw(st.sampled_from(CODEC_FIELDS)))
    items = data.draw(st.lists(_line_items(fs.q), min_size=1, max_size=8))
    coeffs = [[ln.a for ln in items], [ln.b for ln in items]]
    bad = data.draw(st.one_of(st.integers(fs.q, 2**70), st.integers(-2**70, -1),
                              st.floats(allow_nan=False, allow_infinity=False)))
    data.draw(st.sampled_from(coeffs))[data.draw(st.integers(0, len(items) - 1))] = bad
    with pytest.raises(FieldMismatch, match="^line coefficient "):
        slope_lines(fs, *coeffs, [ln.kind == "V" for ln in items])
