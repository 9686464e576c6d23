import pytest

from fqincidence.ffield import make_field
from fqincidence.fileio import (
    FormatError,
    load_lines,
    load_planes,
    load_points,
    load_setsystem,
    save_lines,
    save_planes,
    save_points,
    save_setsystem,
)
from fqincidence.geom import Line2, Plane3
from fqincidence.setsys import SetSystem


def test_points_roundtrip(tmp_path):
    fs = make_field(3, 2)
    pts = [(0, 1, 8), (3, 3, 3), (7, 0, 2)]
    path = tmp_path / "pts.txt"
    save_points(path, fs, pts)
    fs2, loaded = load_points(path)
    assert fs2 == fs
    assert loaded == pts
    assert path.read_text().splitlines()[0] == "# field 3 2"


def test_points_1d_subsets(tmp_path):
    fs = make_field(7, 1)
    path = tmp_path / "a.txt"
    save_points(path, fs, [0, 3, 6])
    _, loaded = load_points(path)
    assert loaded == [(0,), (3,), (6,)]


def test_points_reject_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# field 3 1\n5,1\n")
    with pytest.raises(FormatError):
        load_points(path)


def test_lines_roundtrip(tmp_path):
    fs = make_field(5, 1)
    lines = [Line2("N", 2, 3), Line2("V", 4, 0), Line2("N", 0, 0)]
    path = tmp_path / "lines.txt"
    save_lines(path, fs, lines)
    fs2, loaded = load_lines(path)
    assert fs2 == fs
    assert loaded == lines
    body = path.read_text().splitlines()
    assert body[1] == "N 2 3" and body[2] == "V 4"


def test_planes_roundtrip(tmp_path):
    fs = make_field(5, 1)
    planes = [Plane3((1, 2, 3), 1, False), Plane3((0, 0, 1), 4, False)]
    path = tmp_path / "planes.txt"
    save_planes(path, fs, planes)
    fs2, loaded = load_planes(path)
    assert loaded == planes
    assert path.read_text().splitlines()[1] == "P 1 2 3 1"


def test_header_required(tmp_path):
    path = tmp_path / "nohdr.txt"
    path.write_text("1,2\n")
    with pytest.raises(FormatError):
        load_points(path)


def test_setsystem_roundtrip(tmp_path):
    s = SetSystem.from_sets(6, [[0, 2, 4], [], [1]])
    path = tmp_path / "sys.txt"
    save_setsystem(path, s)
    text = path.read_text()
    assert text == "ground 6\n0 2 4\n\n1\n"
    loaded = load_setsystem(path)
    assert loaded.ground_size == 6
    assert loaded.family == s.family


def test_saves_are_deterministic(tmp_path):
    fs = make_field(3, 1)
    pts = [(1, 2, 0), (0, 0, 0)]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_points(p1, fs, pts)
    save_points(p2, fs, pts)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("loader,body", [
    (load_points, "0,x,2\n"),  # non-integer field
    (load_points, "1,2,3\n1,2\n"),  # mixed point dimensions
    (load_lines, "N 1 2\nN 7 0\n"),  # slope outside [0, q)
    (load_lines, "V -1\n"),
    (load_lines, "N 1 b\n"),
    (load_planes, "P 1 0 0 9\n"),  # rhs outside [0, q)
    (load_planes, "P 0 8 0 1\n"),
    (load_planes, "P 0 0 0 0\n"),  # zero normal
    (load_planes, "P 1 0 0 1.5\n"),
])
def test_malformed_records_rejected(tmp_path, loader, body):
    path = tmp_path / "bad.txt"
    path.write_text("# field 7 1\n" + body)
    with pytest.raises(FormatError):
        loader(path)


def test_non_integer_header_and_ground_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# field 7 one\n1,2\n")
    with pytest.raises(FormatError):
        load_points(path)
    path.write_text("ground 6\n0 x\n")
    with pytest.raises(FormatError):
        load_setsystem(path)


@pytest.mark.parametrize("body,where", [
    ("ground 3\n0 5\n", "'0 5'"),  # element outside the ground set
    ("ground 3\n0 1\n\n2 -1\n", "'2 -1'"),
    ("ground -1\n", "negative"),
])
def test_setsystem_element_outside_ground_rejected(tmp_path, body, where):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(FormatError, match=where) as info:
        load_setsystem(path)
    assert str(path) in str(info.value)
