import os
import subprocess
import sys
from pathlib import Path

import pytest

from fqincidence import geom
from fqincidence.cli import build_parser, main
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


def test_count_oracle_past_its_cap_exits_one(gf5_files, capsys, monkeypatch):
    pts, lns = gf5_files
    monkeypatch.setattr(geom, "ORACLE_PAIR_CAP", 25 * 25 - 1)
    code = main(["count", "--points", str(pts), "--lines", str(lns),
                 "--method", "oracle"])
    assert code == 1
    assert "oracle pair count" in _one_error_line(capsys)
    assert main(["count", "--points", str(pts), "--lines", str(lns)]) == 0
    assert "incidences = 125" in capsys.readouterr().out


def test_count_requires_one_flat_kind(gf5_files, capsys):
    pts, lns = gf5_files
    assert main(["count", "--points", str(pts)]) == 1
    assert "pass exactly one of --lines or --planes" in _one_error_line(capsys)
    assert main(["count", "--points", str(pts), "--lines", str(lns), "--planes", str(lns)]) == 1
    assert "pass exactly one of --lines or --planes" in _one_error_line(capsys)


@pytest.mark.parametrize("flats", [[], ["--lines", "l.txt", "--planes", "p.txt"]],
                         ids=["neither", "both"])
def test_count_checks_its_flags_before_reading_points(tmp_path, capsys, flats):
    # the points file does not exist: the usage error must come first
    missing = str(tmp_path / "nope.txt")
    assert main(["count", "--points", missing, *flats]) == 1
    line = _one_error_line(capsys)
    assert "pass exactly one of --lines or --planes" in line
    assert "No such file" not in line


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


def _gf5_frame(tmp_path):
    """The origin, the unit vectors and (1, 1, 1) over GF(5), as a points file."""
    path = tmp_path / "frame.txt"
    save_points(path, make_field(5, 1), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    return str(path)


def test_dotprod_exits_two_past_half_orthogonal_pairs(tmp_path, capsys):
    frame = _gf5_frame(tmp_path)
    assert main(["dotprod", "--e", frame, "--f", frame]) == 2
    out = capsys.readouterr().out
    assert "orthogonal pairs = 15" in out  # over |E||F|/2 = 12.5
    assert "hypothesis violated: orthogonal pairs exceed |E||F|/2" in out


def test_distance_alpha_exits_two_when_f_is_too_small(tmp_path, capsys):
    frame = _gf5_frame(tmp_path)
    assert main(["distance", "--e", frame, "--f", frame]) == 0
    capsys.readouterr()
    assert main(["distance", "--e", frame, "--f", frame, "--alpha", "0.5"]) == 2
    out = capsys.readouterr().out
    assert "bisector collinear k = 2" in out
    assert "hypothesis violated: |F| = 5 <= 2*k*q^alpha = 8.94427" in out


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


def test_config_comments_and_blank_lines_are_skipped(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# the field of order 9\n\n  p = 3\n   \nn=2\n# n=5\n")
    assert main(["field-info", "--config", str(conf)]) == 0
    assert "q = 9" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("nonsense=1\n")
    assert main(["field-info", "--config", str(conf)]) == 1


_MIXED_FIELDS = {
    "count": lambda f5, f7: ["count", "--points", f5["p3"], "--planes", f7["planes"]],
    "vcdim": lambda f5, f7: ["vcdim", "--points", f5["p3"], "--planes", f7["planes"]],
    "reduce-A": lambda f5, f7: ["reduce", "--lines", f5["lines"], "--a", f7["a"]],
    "reduce-B": lambda f5, f7: ["reduce", "--lines", f5["lines"], "--a", f5["a"],
                                "--b", f7["a"]],
    "distance": lambda f5, f7: ["distance", "--e", f5["p3"], "--f", f7["p3"]],
    "dotprod": lambda f5, f7: ["dotprod", "--e", f5["p3"], "--f", f7["p3"]],
    "traces": lambda f5, f7: ["traces", "--u", f5["p3"], "--uprime", f7["p3"]],
}


@pytest.mark.parametrize("command", list(_MIXED_FIELDS))
def test_files_over_different_fields_exit_one_naming_both(tmp_path, capsys, command):
    files = {}
    for p in (5, 7):
        fs, d = make_field(p, 1), tmp_path / f"gf{p}"
        d.mkdir()
        files[p] = {"p3": d / "p3.txt", "planes": d / "planes.txt",
                    "lines": d / "lines.txt", "a": d / "a.txt"}
        save_points(files[p]["p3"], fs, [(1, 0, 0), (0, 1, 2)])
        save_planes(files[p]["planes"], fs, all_planes_through_one(fs)[:5])
        save_lines(files[p]["lines"], fs, [Line2("N", 1, 0), Line2("N", 2, 1)])
        save_points(files[p]["a"], fs, [0, 1, 3])
    args = _MIXED_FIELDS[command](*({k: str(v) for k, v in files[p].items()} for p in (5, 7)))
    assert main(args) == 1
    err = _one_error_line(capsys)
    assert str(tmp_path / "gf5") in err and str(tmp_path / "gf7") in err
    assert "GF(5)" in err and "GF(7)" in err


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


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _full_space_files(tmp_path):
    fs = make_field(3, 1)
    pts = tmp_path / "p3.txt"
    save_points(pts, fs, [(i % 3, (i // 3) % 3, i // 9) for i in range(27)])
    pls = tmp_path / "planes.txt"
    save_planes(pls, fs, all_planes_through_one(fs))
    return pts, pls


def test_config_value_overrides_flag_default(tmp_path, capsys):
    pts, pls = _full_space_files(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text("max_d=1\n")
    assert main(["vcdim", "--config", str(conf), "--points", str(pts),
                 "--planes", str(pls)]) == 0
    assert "vc_dimension = 1 " in capsys.readouterr().out
    conf.write_text("side=by_plane\n")
    assert main(["vcdim", "--config", str(conf), "--points", str(pts),
                 "--planes", str(pls)]) == 0
    assert "ground = 27," in capsys.readouterr().out
    # an explicit flag still beats the file
    conf.write_text("max-d=1\n")
    assert main(["vcdim", "--config", str(conf), "--points", str(pts),
                 "--planes", str(pls), "--max-d", "4"]) == 0
    assert "vc_dimension = 3" in capsys.readouterr().out


def test_config_method_reaches_count(gf5_files, tmp_path, capsys):
    pts, lns = gf5_files
    conf = tmp_path / "run.conf"
    conf.write_text("method=oracle\n")
    assert main(["count", "--config", str(conf), "--points", str(pts),
                 "--lines", str(lns)]) == 0
    assert "method=oracle" in capsys.readouterr().out


# the words an error line must hold, where a table row pins them
_ERROR_WORDS = {
    "trials 5": "config line without '='",
    ("field-info",): "missing required option(s): p, n",
    ("field-info", "--p", "3"): "missing required option(s): n",
}


@pytest.mark.parametrize("line", ["name=bogus", "trials=x", "trials 5"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, line):
    conf = tmp_path / "run.conf"
    conf.write_text(f"name=vinh-plane\nq=3\n{line}\n")
    assert main(["suite", "--config", str(conf)]) == 1
    assert _ERROR_WORDS.get(line, "") in _one_error_line(capsys)


def test_config_choice_checked_for_flag_with_default(gf5_files, tmp_path, capsys):
    pts, lns = gf5_files
    conf = tmp_path / "run.conf"
    conf.write_text("method=slow\n")
    assert main(["count", "--config", str(conf), "--points", str(pts),
                 "--lines", str(lns)]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["vcdim", "--max-d", "x"],
    ["suite", "--name", "bogus", "--q", "3"],
    ["suite", "--q", "3", "--unknown", "1"],
    ["suite", "--name", "calibration", "--q", "7", "--trials", "-3"],
    ["nope"],
    ["field-info"],
    ["field-info", "--p", "3"],
])
def test_usage_errors_exit_one_with_one_line(argv, capsys):
    assert main(argv) == 1
    assert _ERROR_WORDS.get(tuple(argv), "") in _one_error_line(capsys)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "-h"])
    assert exc.value.code == 0
    assert "--name" in capsys.readouterr().out


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["distance", "dotprod"])
def test_header_only_points_exit_one(tmp_path, capsys, command):
    empty = _write(tmp_path / "empty.txt", "# field 3 1\n")
    full = _write(tmp_path / "f.txt", "# field 3 1\n0,1,2\n")
    assert main([command, "--e", empty, "--f", full]) == 1
    _one_error_line(capsys)


def test_header_only_points_to_traces_exit_one(tmp_path, capsys):
    empty = _write(tmp_path / "empty.txt", "# field 3 1\n")
    assert main(["traces", "--u", empty, "--uprime", empty]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("command", ["distance", "dotprod"])
def test_two_coordinate_points_exit_one(tmp_path, capsys, command):
    flat = _write(tmp_path / "e.txt", "# field 3 1\n0,1\n1,2\n")
    assert main([command, "--e", flat, "--f", flat]) == 1
    _one_error_line(capsys)


def test_traces_uprime_outside_u_exit_one(tmp_path, capsys):
    u = _write(tmp_path / "u.txt", "# field 3 1\n1,0,0\n")
    up = _write(tmp_path / "up.txt", "# field 3 1\n2,0,0\n")
    assert main(["traces", "--u", u, "--uprime", up]) == 1
    _one_error_line(capsys)


_FILE_ERRORS = {
    "missing-points": lambda d, lns: ["count", "--points", str(d / "nope.txt"), "--lines", lns],
    "missing-config": lambda d, lns: ["suite", "--config", str(d / "nope.conf")],
    "directory-input": lambda d, lns: ["count", "--points", str(d), "--lines", lns],
    "non-utf8-input": lambda d, lns: ["count", "--points", str(d / "bad.txt"), "--lines", lns],
    "non-utf8-config": lambda d, lns: ["suite", "--config", str(d / "bad.conf")],
    "suite-out-missing-dir": lambda d, lns: ["suite", "--name", "vinh-plane", "--q", "3",
                                             "--trials", "1", "--out", str(d / "no" / "x.csv")],
    "preset-out-existing-file": lambda d, lns: ["preset", "--name", "plane-3", "--q", "9",
                                                "--out", lns],
}


@pytest.mark.parametrize("case", list(_FILE_ERRORS))
def test_file_errors_exit_one_with_one_line(tmp_path, capsys, case):
    lns = _write(tmp_path / "l.txt", "# field 3 1\nN 1 0\n")
    (tmp_path / "bad.txt").write_bytes(b"# field 3 1\n0,\xff\n")
    (tmp_path / "bad.conf").write_bytes(b"q=9\n\xff\n")
    assert main(_FILE_ERRORS[case](tmp_path, lns)) == 1
    assert str(tmp_path) in _one_error_line(capsys)  # the line names the file


def test_suite_bad_out_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    from fqincidence import harness

    started = []
    suite, columns = harness._SUITES["calibration"]
    monkeypatch.setitem(harness._SUITES, "calibration",
                        (lambda cfg, fs: started.append(cfg) or suite(cfg, fs), columns))
    out = tmp_path / "no" / "x.csv"
    assert main(["suite", "--name", "calibration", "--q", "9", "--trials", "5",
                 "--out", str(out)]) == 1
    assert str(out) in _one_error_line(capsys)
    assert started == []
    assert main(["suite", "--name", "calibration", "--q", "9", "--trials", "1",
                 "--out", str(tmp_path / "x.csv")]) == 0
    assert len(started) == 1


@pytest.mark.parametrize("max_d", ["0", "9"])
def test_vcdim_max_d_outside_range_is_a_usage_error(tmp_path, capsys, max_d):
    pts, pls = _full_space_files(tmp_path)
    assert main(["vcdim", "--points", str(pts), "--planes", str(pls),
                 "--max-d", max_d]) == 1
    assert "invalid choice" in _one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_reduce_rejects_multi_coordinate_subset_file(tmp_path, capsys, flag):
    lns = _write(tmp_path / "l.txt", "# field 7 1\nN 1 0\nN 2 3\n")
    single = _write(tmp_path / "single.txt", "# field 7 1\n1\n2\n")
    pairs = _write(tmp_path / "pairs.txt", "# field 7 1\n1,5\n2,6\n")
    files = {"--a": single, "--b": single, flag: pairs}
    assert main(["reduce", "--lines", lns, "--a", files["--a"], "--b", files["--b"]]) == 1
    assert "pairs.txt" in _one_error_line(capsys)


def test_memoized_parser_matches_a_fresh_one(gf5_files, tmp_path, capsys):
    # build_parser is built once per process; back-to-back runs through the
    # shared parser print and return what they do with a fresh parser each
    pts, lns = gf5_files
    conf = tmp_path / "run.conf"
    conf.write_text("p=3\nn=2\n")
    runs = [
        ["count", "--points", str(pts), "--lines", str(lns)],
        ["field-info", "--config", str(conf)],
        ["field-info", "--config", str(conf), "--p", "5", "--n", "1"],
        ["suite", "--name", "bogus", "--q", "3"],
        ["field-info", "--p", "7", "--n", "1"],
        ["count", "--points", str(pts), "--lines", str(lns), "--method", "oracle"],
    ]

    def outputs(fresh):
        seen = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            seen.append((code, *capsys.readouterr()))
        return seen

    shared = outputs(fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 0]
    assert shared == outputs(fresh=True)


def _zero_distance_files(tmp_path):
    # one point each: the only distance is 0 and bisector k is 0, so a lower
    # bound value of 0 would leave measured/value undefined
    fs = make_field(3, 1)
    e, f = tmp_path / "e.txt", tmp_path / "f.txt"
    save_points(e, fs, [(0, 0, 0)])
    save_points(f, fs, [(0, 0, 0)])
    return ["--e", str(e), "--f", str(f)]


@pytest.mark.parametrize("argv", [
    ["distance", "--alpha", "nan"],
    ["distance", "--alpha", "inf"],
    ["distance", "--alpha", "-1000"],
    ["distance", "--alpha", "1000"],
    ["suite", "--name", "calibration", "--q", "3", "--alpha", "nan"],
    ["suite", "--name", "calibration", "--q", "3", "--alpha", "inf"],
    ["suite", "--name", "calibration", "--q", "3", "--alpha", "1000"],
    ["suite", "--name", "vc-plane", "--q", "3", "--alpha", "nan"],
    ["suite", "--name", "vc-plane", "--q", "3", "--alpha", "x"],
    # exact tests past a denominator of 1000 would cost over a millisecond each
    ["distance", "--alpha", "0.1234"],
    ["distance", "--alpha", "1e-300"],
    ["suite", "--name", "calibration", "--q", "3", "--alpha", "0.1234"],
    ["suite", "--name", "calibration", "--q", "3", "--alpha", "1e-300"],
])
def test_alpha_outside_double_range_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "rows.csv"
    extra = _zero_distance_files(tmp_path) if argv[0] == "distance" else ["--out", str(out)]
    assert main(argv + extra) == 1
    line = _one_error_line(capsys)
    assert "alpha must be a number with |alpha| <= 16" in line
    assert f"and a denominator of at most 1000, got {argv[-1]!r}" in line
    assert not out.exists()


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e400"])
@pytest.mark.parametrize("glued", [False, True], ids=["spaced", "glued"])
@pytest.mark.parametrize("command", ["distance", "suite"])
def test_dash_alpha_outside_double_range_exits_one(tmp_path, capsys, command, glued, value):
    # argparse would take a spaced "-inf" for a flag; both forms reach the
    # alpha check
    alpha = [f"--alpha={value}"] if glued else ["--alpha", value]
    out = tmp_path / "rows.csv"
    if command == "distance":
        argv = ["distance", *alpha, *_zero_distance_files(tmp_path)]
    else:
        argv = ["suite", "--name", "calibration", "--q", "3", *alpha, "--out", str(out)]
    assert main(argv) == 1
    assert "alpha must be a number with |alpha| <= 16" in _one_error_line(capsys)
    assert not out.exists()


def test_negative_alpha_keeps_the_following_flags(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = ["suite", "--name", "calibration", "--q", "3", "--alpha", "-0.5", "--trials", "1",
            "--out", str(out)]
    assert main(argv) in (0, 2)
    rows = out.read_text().splitlines()
    assert rows[0].startswith("suite,q,alpha,trial,")
    assert {ln.split(",")[2:4] == ["-0.5", "0"] for ln in rows[1:]} == {True}
    files = _zero_distance_files(tmp_path)
    assert main(["distance", "--alpha", "-0.5", *files]) in (0, 2)
    assert "measured/value = " in capsys.readouterr().out
    # a flag where the value should be is not taken for the value
    assert main(["distance", "--alpha", *files]) == 1
    assert "--alpha: expected one argument" in _one_error_line(capsys)


@pytest.mark.parametrize("alpha", ["16", "-16"])
def test_distance_at_the_alpha_limits(tmp_path, capsys, alpha):
    assert main(["distance", "--alpha", alpha, *_zero_distance_files(tmp_path)]) == 2
    assert "measured/value = " in capsys.readouterr().out


@pytest.mark.parametrize("name,q,alpha", [
    ("calibration", 3, "2"),
    ("calibration", 5, "2.5"),
    ("calibration", 7, "2.5"),
    ("calibration", 3, "16"),
    ("calibration", 3, "-16"),
    ("unconditional", 3, "16"),
    ("unconditional", 3, "-16"),
])
def test_suites_run_at_large_and_negative_alpha(capsys, name, q, alpha):
    code = main(["suite", "--name", name, "--q", str(q), "--alpha", alpha, "--trials", "2"])
    assert code in (0, 2)
    assert "0 failures" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["suite", "--name", "vinh-plane", "--q", "1000000007"],
    ["preset", "--name", "line-1", "--q", "1000000007", "--out", "{tmp}"],
    ["field-info", "--p", "2305843009213693951", "--n", "1"],
])
def test_orders_over_the_cap_exit_one_before_factoring(tmp_path, argv):
    # a subprocess with a timeout, so a factoring or primality loop that runs
    # up to q fails this test instead of stalling the run
    argv = [a.format(tmp=tmp_path / "out") for a in argv]
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from fqincidence.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "exceeds the cap 1048576" in run.stderr


@pytest.mark.parametrize("name", ["vinh-plane", "regular-subset"])
@pytest.mark.parametrize("q", [49, 1048573])
def test_full_space_suites_refuse_past_the_pair_budget(name, q):
    # q^3 (q^3 - 1) > 10^9: refused before the whole space is built, which
    # at q = 49 ran for minutes and at q = 1048573 ran out of memory
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from fqincidence.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "suite", "--name", name, "--q", str(q),
         "--trials", "1"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert run.returncode == 1
    assert run.stderr == f"error: full space at q = {q} over 10^9 point pairs\n"
