"""The fqincidence command line.

Exit codes: 0 success, 2 when the run only tripped hypothesis flags,
1 on errors (usage and file errors included) or failed checks.  Every
subcommand accepts --config FILE with flat key=value lines mirroring its
long flags; they are checked like flags, and explicit flags win.
"""

import argparse
import functools
import math
import sys
from pathlib import Path

from . import apps, bounds, fileio, harness, reductions, setsys
from .errors import ToolkitError
from .ffield import FieldSpec, make_field
from .geom import count_incidences

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other error: exit 1 with one error: line."""

    def error(self, message):
        raise ToolkitError(message)


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The --config file's key=value lines as --key=value flag tokens."""
    tokens = []
    for ln in fileio.read_text(args.config).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ToolkitError(f"config line without '=': {ln!r}")
        key, val = (part.strip() for part in ln.split("=", 1))
        if not hasattr(args, key.replace("-", "_")):
            raise ToolkitError(f"config key {key!r} does not match a flag")
        tokens.append(f"--{key.replace('_', '-')}={val}")
    return tokens


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv; config values are parsed as flags ahead of the explicit
    ones, so they get the same types and choices and explicit flags win."""
    parser = build_parser()
    argv = _glue_alpha(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
    return args


def _glue_alpha(argv: list[str]) -> list[str]:
    """'--alpha V' as '--alpha=V' when V starts with '-' and reads as a float.

    argparse takes such a token for a flag unless it is a plain negative
    number, so -inf, -nan and -1e400 would never reach _alpha; a token that
    float() rejects, a following flag among them, is left where it is."""
    out = []
    for tok in argv:
        if out and out[-1] == "--alpha" and tok.startswith("-") and _is_float(tok):
            out[-1] = f"--alpha={tok}"
        else:
            out.append(tok)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ToolkitError(f"missing required option(s): {', '.join(missing)}")


def cmd_field_info(args) -> int:
    _require(args, "p", "n")
    fs = make_field(args.p, args.n)
    poly = " + ".join(
        (f"x^{i}" if c == 1 else f"{c}*x^{i}") if i else str(c)
        for i, c in enumerate(fs.modulus)
        if c
    )
    print(f"q = {fs.q} = {fs.p}^{fs.n}")
    print(f"modulus = {list(fs.modulus)}  ({poly})")
    print(f"q mod 4 = {fs.q_mod4}")
    return EXIT_OK


def _load_same_field(fs: FieldSpec, path, load, path2):
    """The records load reads from path2, whose field must be fs, the field
    of the file path; ToolkitError naming both files and fields otherwise."""
    fs2, records = load(path2)
    if fs2 != fs:
        raise ToolkitError(f"{path} is over GF({fs.q}) but {path2} is over GF({fs2.q}): "
                           "the files must share one field")
    return records


def cmd_count(args) -> int:
    _require(args, "points")
    fs, pts = fileio.load_points(args.points)
    if bool(args.lines) == bool(args.planes):
        raise ToolkitError("pass exactly one of --lines or --planes")
    load = fileio.load_lines if args.lines else fileio.load_planes
    flats = _load_same_field(fs, args.points, load, args.lines or args.planes)
    res = count_incidences(fs, pts, flats, args.method)
    print(f"incidences = {res.count}  (method={res.method}, "
          f"points={len(pts)}, flats={len(flats)})")
    return EXIT_OK


def cmd_vcdim(args) -> int:
    _require(args, "points", "planes")
    fs, pts = fileio.load_points(args.points)
    planes = _load_same_field(fs, args.points, fileio.load_planes, args.planes)
    system = setsys.neighborhood_system(fs, pts, planes, args.side)
    res = setsys.vc_dimension(system, args.max_d)
    suffix = " (saturated: a max-size shattered set exists)" if res.saturated else ""
    print(f"vc_dimension = {res.dimension}{suffix}")
    print(f"ground = {system.ground_size}, members = {len(system.family)}")
    return EXIT_OK


def _field_subset(path) -> tuple[FieldSpec, list[int]]:
    """The field of a points file and its records, which must be single indices."""
    fs, pts = fileio.load_points(path)
    if pts and len(pts[0]) != 1:
        raise ToolkitError(f"{path}: expected single field elements, "
                           f"got {len(pts[0])}-coordinate points")
    return fs, [p[0] for p in pts]


def cmd_reduce(args) -> int:
    _require(args, "lines", "a")
    fs, lines = fileio.load_lines(args.lines)
    a_set = _load_same_field(fs, args.lines, _field_subset, args.a)
    out = reductions.build_point_plane_sets(fs, lines, a_set)
    inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
    print(f"lines = {len(lines)}, |A| = {len(a_set)}, k_bound = {out.k_bound}")
    print(f"energy = {out.solution_count}, incidence check = {inc}, "
          f"identity {'holds' if inc == out.solution_count else 'FAILS'}")
    if args.b:
        b_set = _load_same_field(fs, args.lines, _field_subset, args.b)
        rep = reductions.cs_upper(fs, lines, a_set, b_set)
        print(f"cs upper = {rep.value:.6g}, actual = {rep.actual}, "
              f"holds = {rep.holds}")
    return EXIT_OK


def cmd_distance(args) -> int:
    _require(args, "e", "f")
    fs, E = fileio.load_points(args.e)
    F = _load_same_field(fs, args.e, fileio.load_points, args.f)
    rep = apps.triple_count_T(fs, E, F)
    k = apps.bisector_collinear_k(fs, E, F)
    print(f"|distance set| = {len(rep.distance_set)}, zero pairs = {rep.zero_pairs}")
    print(f"T = {rep.T}, chain holds = {rep.chain_holds}")
    violated = not rep.zero_hypothesis_ok
    if violated:
        print("hypothesis violated: zero pairs exceed |E||F|/2")
    print(f"bisector collinear k = {k}")
    if args.alpha is not None:
        low = bounds.eval_distance_dot_lower(fs.q, args.alpha, len(E), len(F), k)
        print(f"lower-bound branch {low.bound_name}: value = {low.value:.6g}, "
              f"measured/value = {bounds.ratio_of(len(rep.distance_set), low.value):.4g}")
        if k == 0:
            print("note: k = 0 leaves the size condition on |F| unconstrained")
        elif not low.hypotheses["F_over_2kq^a"]:
            violated = True
            print(f"hypothesis violated: |F| = {len(F)} <= 2*k*q^alpha "
                  f"= {2 * k * fs.q ** args.alpha:.6g}")
    return EXIT_HYPOTHESIS if violated else EXIT_OK


def cmd_dotprod(args) -> int:
    _require(args, "e", "f")
    fs, E = fileio.load_points(args.e)
    F = _load_same_field(fs, args.e, fileio.load_points, args.f)
    rep = apps.dot_product_set(fs, E, F)
    print(f"|dot set| = {len(rep.dot_set)}, orthogonal pairs = {rep.orthogonal_pairs}")
    print(f"best nonzero value = {rep.best_lambda} "
          f"(count {rep.lambda_counts.get(rep.best_lambda, 0)})")
    if not rep.orthogonal_hypothesis_ok:
        print("hypothesis violated: orthogonal pairs exceed |E||F|/2")
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_traces(args) -> int:
    _require(args, "u", "uprime")
    fs, U = fileio.load_points(args.u)
    Up = _load_same_field(fs, args.u, fileio.load_points, args.uprime)
    rep = apps.trace_pairs(fs, U, Up)
    print(f"classes = {rep.classes}, pair count = {rep.pair_count}")
    print(f"cs floor = {rep.cs_lower:.6g}, bound |U|^2/|U'|^3 = {rep.bound_value:.6g}, "
          f"ratio = {rep.ratio_vs_bound:.6g}")
    return EXIT_OK


def cmd_suite(args) -> int:
    _require(args, "name", "q")
    p, n = harness.split_prime_power(args.q)
    cfg = harness.ExperimentConfig(p, n, args.name, alpha=args.alpha, trials=args.trials,
                                   seed=args.seed, out=args.out)
    result = harness.run_suite(cfg)
    print(f"suite {result.suite}: {len(result.rows)} rows, "
          f"{result.failures} failures, {result.violations} hypothesis violations")
    if args.out:
        print(f"wrote {args.out}")
    return result.exit_code


def cmd_preset(args) -> int:
    _require(args, "name", "q", "out")
    pc = harness.preset(args.name, args.q, seed=args.seed)
    fs = harness.field_for_order(args.q)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = [f"name={pc.name}", f"q={pc.q}", f"alpha={pc.alpha}", f"seed={pc.seed}"]
    for key, val in sorted(pc.sizes.items()):
        meta.append(f"size_{key}={val}")
    if pc.kind == "line":
        fileio.save_lines(outdir / "lines.txt", fs, pc.lines)
        fileio.save_points(outdir / "a.txt", fs, pc.a_set)
        fileio.save_points(outdir / "b.txt", fs, pc.b_set)
    else:
        fileio.save_points(outdir / "points.txt", fs, pc.points)
        fileio.save_planes(outdir / "planes.txt", fs, pc.planes)
    (outdir / "meta.txt").write_text("\n".join(meta) + "\n", encoding="utf-8")
    print(f"preset {pc.name} at q = {pc.q}: wrote {outdir}")
    for key, val in sorted(pc.sizes.items()):
        print(f"  {key} = {val}")
    return EXIT_OK


# |alpha| <= 16 keeps every scale q^(c * alpha) the bounds and suites take,
# |c| <= 3, a finite nonzero double at every q <= MAX_ORDER = 2^20:
# 2^(20 * (3 * 16 + 1)) < 2^1023.
ALPHA_LIMIT = 16.0


def _alpha(text: str) -> float:
    """The --alpha flag: a float with |alpha| <= ALPHA_LIMIT (so not nan or inf)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not abs(value) <= ALPHA_LIMIT:  # nan compares false, so it lands here too
        raise argparse.ArgumentTypeError(
            f"alpha must be a number with |alpha| <= {ALPHA_LIMIT:g}, got {text!r}")
    return value


def _trials(text: str) -> int:
    """The --trials flag: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"trials must be an integer >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = _Parser(
        prog="fqincidence",
        description="incidence experiments over finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, /, **flags):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", help="key=value file mirroring the flags")
        for flag, kw in flags.items():
            sp.add_argument(f"--{flag.replace('_', '-')}", **kw)
        return sp

    add("field-info", cmd_field_info, p={"type": int}, n={"type": int})
    add("count", cmd_count, points={}, lines={}, planes={},
        method={"choices": ["oracle", "fast"], "default": "fast"})
    add("vcdim", cmd_vcdim, points={}, planes={},
        side={"choices": ["by_point", "by_plane"], "default": "by_point"},
        max_d={"type": int, "default": 4, "choices": range(1, 7)})
    add("reduce", cmd_reduce, lines={}, a={}, b={})
    add("distance", cmd_distance, e={}, f={}, alpha={"type": _alpha})
    add("dotprod", cmd_dotprod, e={}, f={})
    add("traces", cmd_traces, u={}, uprime={})
    add("suite", cmd_suite, name={"choices": list(harness.SUITE_NAMES)}, q={"type": int},
        alpha={"type": _alpha, "default": 0.5}, trials={"type": _trials, "default": 10},
        seed={"type": int, "default": 0}, out={})
    add("preset", cmd_preset, name={"choices": list(harness.PRESET_NAMES)}, q={"type": int},
        seed={"type": int, "default": 0}, out={})
    return ap


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.fn(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
