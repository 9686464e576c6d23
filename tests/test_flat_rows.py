"""Lines and Planes against the Line2 and Plane3 lists they stand for.

A container and the equivalent list must give the same results in every
kernel that takes flats, by both methods where there are two, and bad input
must get the same FieldMismatch message either way: from the container's
constructor, from a container read for another order, or from the list in
the kernel.
"""

import random

import numpy as np
import pytest

from fqincidence.errors import FieldMismatch
from fqincidence.ffield import make_field
from fqincidence.geom import (Line2, Lines, Plane3, Planes, count_incidences, decode_rows,
                              line_rows, max_shared_collinear, plane_rows)
from fqincidence.reductions import count_solutions
from fqincidence.setsys import neighborhood_system

FIELDS = [(13, 1), (2, 4), (3, 4), (5, 4)]  # prime, GF(16), GF(81), GF(625)


def _points(rng, q, count, dim):
    return decode_rows(q, rng.sample(range(q**dim), count), dim)


def _lines(rng, fs, count, vertical=True):
    """count random lines as a Line2 list and as the equivalent Lines."""
    q = fs.q
    out = [Line2("V", rng.randrange(q), 0) if vertical and rng.random() < 0.2
           else Line2("N", rng.randrange(q), rng.randrange(q)) for _ in range(count)]
    return out, Lines(fs, [ln.kind == "V" for ln in out], [(ln.a, ln.b) for ln in out])


def _planes(rng, fs, count):
    """count random planes (nonzero normals, any right-hand side) both ways."""
    q = fs.q
    normals = decode_rows(q, [rng.randrange(1, q**3) for _ in range(count)])
    rhs = [rng.randrange(q) for _ in range(count)]
    planes = [Plane3(tuple(n), r) for n, r in zip(normals.tolist(), rhs)]
    return planes, Planes(fs, normals, np.array(rhs))


@pytest.mark.parametrize("p,n", FIELDS)
def test_containers_count_as_their_lists(p, n):
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


def test_grouped_plane_count_takes_a_container():
    # enough planes over GF(13) for grouping_pays: the plane_groups path
    fs = make_field(13, 1)
    rng = random.Random(7)
    pts = _points(rng, 13, 900, 3)
    plane_list, planes = _planes(rng, fs, 400)
    assert count_incidences(fs, pts, planes) == count_incidences(fs, pts, plane_list)


def test_containers_are_read_only_sequences():
    fs = make_field(7, 1)
    line_list, lines = _lines(random.Random(1), fs, 12)
    plane_list, planes = _planes(random.Random(2), fs, 9)
    for rows, items in ((lines, line_list), (planes, plane_list)):
        assert len(rows) == len(items)
        assert rows[0] == items[0] and rows[-1] == items[-1]
        assert list(rows[2:7]) == items[2:7] and type(rows[2:7]) is type(rows)
        assert rows[2:7] == rows[2:7] and rows[2:7] != rows[3:8]
        with pytest.raises(IndexError):
            rows[len(items)]
    for arr in (lines.vertical, lines.ab, planes.normals, planes.rhs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert lines.ab.dtype == planes.normals.dtype == planes.rhs.dtype == np.int64
    assert line_rows(fs, lines) is lines and plane_rows(fs, planes) is planes
    assert line_rows(fs, line_list) == lines and plane_rows(fs, plane_list) == planes


def test_a_container_of_another_order_is_read_again():
    small, large = make_field(5, 1), make_field(7, 1)
    lines = Lines(large, [False, True], [(1, 2), (4, 0)])
    assert line_rows(small, lines).q == 5 and line_rows(small, lines) == Lines(
        small, [False, True], [(1, 2), (4, 0)])
    with pytest.raises(FieldMismatch, match=r"line coefficient 6 outside \[0, 5\)"):
        line_rows(small, Lines(large, [False], [(1, 6)]))
    with pytest.raises(FieldMismatch, match=r"plane coefficient 5 outside \[0, 5\)"):
        plane_rows(small, Planes(large, [(1, 0, 0)], [5]))


def test_a_vertical_mask_must_match_the_rows():
    fs = make_field(5, 1)
    with pytest.raises(FieldMismatch, match="one vertical flag per line"):
        Lines(fs, [False], [(1, 2), (3, 4)])


# each bad flat as a Line2 or Plane3, and the rows of the same flat
BAD_LINES = {
    "at-q": ("N", 1, 7),
    "negative": ("N", -1, 0),
    "float": ("N", 1.5, 0),
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
    kind, a, b = BAD_LINES[bad]
    listed = [Line2("N", 1, 1), Line2(kind, a, b)]
    want = _message(lambda: count_incidences(fs, [(0, 0)], listed))
    assert _message(lambda: count_incidences(fs, [(0, 0)], listed, "oracle")) == want
    assert _message(lambda: count_solutions(fs, listed, [0, 1])) == want
    assert _message(lambda: Lines(fs, [False, False], [(1, 1), (a, b)])) == want
    if bad != "float":  # numpy reads every entry of a float array as a float
        assert _message(lambda: Lines(fs, np.zeros(2, bool), np.array([(1, 1), (a, b)]))) == want
        # an int64 container read for a smaller order
        wide = Lines(make_field(11, 1), [False, False], [(1, 1), (a % 11, b % 11)])
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
    assert _message(lambda: Planes(fs, [(1, 1, 1), normal], [0, rhs])) == want
    if "float" not in bad:  # numpy reads every entry of a float array as a float
        assert _message(lambda: Planes(fs, np.array([(1, 1, 1), normal]),
                                       np.array([0, rhs]))) == want


def test_a_float_array_is_named_by_its_first_entry():
    fs = make_field(7, 1)
    assert _message(lambda: Planes(fs, np.array([(1.0, 2.0, 0.5)]), [1])) == (
        "plane coefficient 1.0 is not an integer")


def test_a_container_of_the_other_kind_is_refused_as_its_list_is():
    fs = make_field(5, 1)
    line_list, lines = _lines(random.Random(3), fs, 4)
    pts = [(0, 0, 0)]
    assert (_message(lambda: neighborhood_system(fs, pts, lines, "by_point"))
            == _message(lambda: neighborhood_system(fs, pts, line_list, "by_point"))
            == "expected Plane3 flats, got Line2")
