import pytest

from fqincidence.cli import main
from fqincidence.ffield import make_field
from fqincidence.fileio import save_lines, save_planes, save_points
from fqincidence.geom import Line2, all_planes_through_one


@pytest.fixture
def gf5_files(tmp_path):
    fs = make_field(5, 1)
    pts = tmp_path / "points.txt"
    save_points(pts, fs, [(x, y) for x in range(5) for y in range(5)])
    lns = tmp_path / "lines.txt"
    save_lines(lns, fs, [Line2("N", a, b) for a in range(5) for b in range(5)])
    return pts, lns


def test_field_info(capsys):
    assert main(["field-info", "--p", "3", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "q = 9" in out
    assert "[1, 0, 1]" in out


def test_field_info_error_exit_code(capsys):
    assert main(["field-info", "--p", "6", "--n", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_count_lines(gf5_files, capsys):
    pts, lns = gf5_files
    assert main(["count", "--points", str(pts), "--lines", str(lns)]) == 0
    assert "incidences = 125" in capsys.readouterr().out


def test_count_oracle_method(gf5_files, capsys):
    pts, lns = gf5_files
    code = main(["count", "--points", str(pts), "--lines", str(lns),
                 "--method", "oracle"])
    assert code == 0
    assert "method=oracle" in capsys.readouterr().out


def test_count_requires_one_flat_kind(gf5_files, capsys):
    pts, lns = gf5_files
    assert main(["count", "--points", str(pts)]) == 1


def test_count_planes(tmp_path, capsys):
    fs = make_field(3, 1)
    pts = tmp_path / "p3.txt"
    save_points(pts, fs, [(i % 3, (i // 3) % 3, i // 9) for i in range(27)])
    pls = tmp_path / "planes.txt"
    save_planes(pls, fs, all_planes_through_one(fs))
    assert main(["count", "--points", str(pts), "--planes", str(pls)]) == 0
    assert "incidences = 234" in capsys.readouterr().out


def test_vcdim(tmp_path, capsys):
    fs = make_field(3, 1)
    pts = tmp_path / "p3.txt"
    save_points(pts, fs, [(i % 3, (i // 3) % 3, i // 9) for i in range(27)])
    pls = tmp_path / "planes.txt"
    save_planes(pls, fs, all_planes_through_one(fs))
    code = main(["vcdim", "--points", str(pts), "--planes", str(pls),
                 "--side", "by_point", "--max-d", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "vc_dimension = 3" in out


def test_reduce(tmp_path, capsys):
    fs = make_field(5, 1)
    lns = tmp_path / "l.txt"
    save_lines(lns, fs, [Line2("N", 1, 0), Line2("N", 2, 1)])
    a = tmp_path / "a.txt"
    save_points(a, fs, [0, 1, 3])
    b = tmp_path / "b.txt"
    save_points(b, fs, [0, 2])
    assert main(["reduce", "--lines", str(lns), "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out
    assert "identity holds" in out
    assert "cs upper" in out


def test_distance_and_exit_codes(tmp_path, capsys):
    fs = make_field(3, 1)
    e = tmp_path / "e.txt"
    f = tmp_path / "f.txt"
    save_points(e, fs, [(0, 0, 0), (2, 0, 0)])
    save_points(f, fs, [(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    assert main(["distance", "--e", str(e), "--f", str(f)]) == 0
    out = capsys.readouterr().out
    assert "bisector collinear k = 3" in out
    # all-zero distances trip the hypothesis
    save_points(e, fs, [(0, 0, 0)])
    save_points(f, fs, [(0, 0, 0)])
    assert main(["distance", "--e", str(e), "--f", str(f)]) == 2


def test_dotprod(tmp_path, capsys):
    fs = make_field(5, 1)
    e = tmp_path / "e.txt"
    f = tmp_path / "f.txt"
    save_points(e, fs, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    save_points(f, fs, [(1, 1, 1)])
    assert main(["dotprod", "--e", str(e), "--f", str(f)]) == 0
    assert "|dot set| = 1" in capsys.readouterr().out


def test_traces(tmp_path, capsys):
    fs = make_field(3, 1)
    u = tmp_path / "u.txt"
    up = tmp_path / "up.txt"
    save_points(u, fs, [(i % 3, (i // 3) % 3, i // 9) for i in range(1, 27)])
    save_points(up, fs, [(1, 0, 0)])
    assert main(["traces", "--u", str(u), "--uprime", str(up)]) == 0
    assert "pair count = 370" in capsys.readouterr().out


def test_suite_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["suite", "--name", "vinh-plane", "--q", "3",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "0 failures" in capsys.readouterr().out


def test_suite_preset_audit_exit_code_two(tmp_path):
    out = tmp_path / "audit.csv"
    code = main(["suite", "--name", "preset-audit", "--q", "3",
                 "--out", str(out)])
    assert code == 2
    assert out.exists()


def test_preset_cli(tmp_path, capsys):
    out = tmp_path / "cfg"
    code = main(["preset", "--name", "plane-3", "--q", "9", "--out", str(out)])
    assert code == 0
    assert (out / "points.txt").exists()
    assert (out / "planes.txt").exists()
    meta = (out / "meta.txt").read_text()
    assert "size_planes=27" in meta


def test_preset_cli_line(tmp_path):
    out = tmp_path / "cfg"
    assert main(["preset", "--name", "line-2", "--q", "16", "--out", str(out)]) == 0
    assert (out / "lines.txt").exists()
    assert (out / "a.txt").exists()


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("p=3\nn=2\n")
    assert main(["field-info", "--config", str(conf)]) == 0
    assert "q = 9" in capsys.readouterr().out
    # explicit flags win over the file
    assert main(["field-info", "--config", str(conf), "--p", "5", "--n", "1"]) == 0
    assert "q = 5" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("nonsense=1\n")
    assert main(["field-info", "--config", str(conf)]) == 1


def test_field_mismatch_between_files(tmp_path):
    e = tmp_path / "e.txt"
    f = tmp_path / "f.txt"
    save_points(e, make_field(3, 1), [(0, 0, 0)])
    save_points(f, make_field(5, 1), [(0, 0, 0)])
    assert main(["distance", "--e", str(e), "--f", str(f)]) == 1


def test_count_bad_file_exits_one_with_one_line(tmp_path, capsys):
    # a normal coordinate of 5 lies outside GF(4)
    pts = tmp_path / "points.txt"
    pts.write_text("# field 2 2\n0,1,2\n")
    pls = tmp_path / "planes.txt"
    pls.write_text("# field 2 2\nP 5 1 1 0\n")
    assert main(["count", "--points", str(pts), "--planes", str(pls)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("q", [4, 8])
def test_unconditional_suite_even_q_exits_one_with_one_line(tmp_path, q, capsys):
    # the distance-chain family needs odd q
    out = tmp_path / "suite.csv"
    assert main(["suite", "--name", "unconditional", "--q", str(q), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
