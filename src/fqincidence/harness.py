"""Seeded configuration generators, verification suites, and CSV emission.

Every suite is deterministic: all randomness flows from per-trial
sub-seeds derived arithmetically from (seed, suite, trial), so a config
fixes every emitted byte except the elapsed_ms column.  Suites never abort
on hypothesis violations; they flag them, and the command line maps
"violations but no failures" to exit code 2.

A suite is a generator over (config, field) that yields one
(trial, row fields, failures, violations) tuple per row; run_suite builds
the field, adds the base columns and elapsed_ms, sums the failures and
violations, and writes the CSV.
"""

import csv
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

import numpy as np

from . import apps, bounds, reductions, setsys
from .errors import BudgetExceeded, DegreeOutOfRange, EvenCharacteristic, Unrealizable
from .ffield import MAX_ORDER, FieldSpec, make_field
from .geom import (
    Flats,
    all_planes_through_one,
    count_incidences,
    decode_points,
    decode_rows,
    grid_points,
    line3_points,
    line_coeffs,
    max_shared_collinear,
    slope_lines,
)

_MASK64 = (1 << 64) - 1

# The q3mod4-geometry suite's range of odd q (the sphere scan itself has no cap).
SPHERE_SCAN_MAX_Q = 13
FULL_SPACE_PAIRS = 10**9  # the full-space suites' cap on q^3 (q^3 - 1): q <= 31


def _full_space(q: int):
    """Every point of GF(q)^3 as an int64 array, in index order;
    BudgetExceeded past FULL_SPACE_PAIRS pairs."""
    if q**3 * (q**3 - 1) > FULL_SPACE_PAIRS:
        raise BudgetExceeded(f"full space at q = {q} over 10^9 point pairs")
    return decode_rows(q, np.arange(q**3))


def _mix(*parts: int) -> int:
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p & _MASK64) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 31)) * 0x94D049BB133111EB & _MASK64
    return h


def rng_for(seed: int, *parts: int) -> random.Random:
    return random.Random(_mix(seed, *parts))


def _rounded(q: int, u, c=1) -> int:
    """c * q^u rounded half up, decided exactly: (floor(2 c q^u) + 1) // 2."""
    return (bounds.floor_scale(2 * c, q, u)[0] + 1) // 2


def _ceil(q: int, u, c=1) -> int:
    """The least integer n >= c * q^u, decided exactly."""
    n, exact = bounds.floor_scale(c, q, u)
    return n + (not exact)


def split_prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^n or raise; the order cap is checked before any trial
    division, which stops at sqrt(q): a q with no divisor up to there is prime."""
    if q > MAX_ORDER:
        raise DegreeOutOfRange(f"q = {q} exceeds the cap {MAX_ORDER}")
    if q < 2:
        raise Unrealizable(f"q = {q} is not a prime power")
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    n, m = 0, q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise Unrealizable(f"q = {q} is not a prime power")
    return p, n


def field_for_order(q: int) -> FieldSpec:
    p, n = split_prime_power(q)
    return make_field(p, n)


# ---------------------------------------------------------------------------
# samplers (uniform without replacement over the ambient object space)
# ---------------------------------------------------------------------------
#
# Each sampler draws one rng.sample over an index range and sorts it; all
# but sample_field_subset then decode the indices with numpy: points into an
# int64 array by geom.decode_rows, planes and lines (by geom.slope_lines) into
# a geom.Flats.

def sample_field_subset(rng, fs, size: int) -> list[int]:
    if size > fs.q:
        raise Unrealizable(f"subset size {size} exceeds q = {fs.q}")
    return sorted(rng.sample(range(fs.q), size))


def sample_points2(rng, fs, size: int):
    """size distinct points of GF(q)^2 as an int64 (size, 2) array."""
    if size > fs.q**2:
        raise Unrealizable(f"{size} points exceed the plane size {fs.q ** 2}")
    return decode_rows(fs.q, sorted(rng.sample(range(fs.q**2), size)), 2)


def sample_points3(rng, fs, size: int, nonzero: bool = False):
    """size distinct points of GF(q)^3 (nonzero ones if nonzero) as an int64
    (size, 3) array."""
    lo = 1 if nonzero else 0
    space = fs.q**3 - lo
    if size > space:
        raise Unrealizable(f"{size} points exceed the space size {space}")
    return decode_rows(fs.q, sorted(rng.sample(range(lo, fs.q**3), size)))


def sample_planes_one(rng, fs, size: int) -> Flats:
    """Distinct planes of the form a . x = 1, drawn as their nonzero normals."""
    normals = sample_points3(rng, fs, size, nonzero=True)
    return Flats(fs, normals, np.ones(size, np.int64))


def sample_lines(
    rng, fs, size: int, slanted_only: bool = False, with_vertical: bool = True
) -> Flats:
    """Distinct lines, built by geom.slope_lines; index i < q^2 is y = (i // q)
    x + i % q (slope 1 + i // q when slanted_only), and q^2 + c is x = c."""
    q = fs.q
    if slanted_only:
        space = (q - 1) * q
    else:
        space = q * q + (q if with_vertical else 0)
    if size > space:
        raise Unrealizable(f"{size} lines exceed the family size {space}")
    idx = np.array(sorted(rng.sample(range(space), size)), dtype=np.int64)
    a, b = np.divmod(idx, q)
    vert = idx >= q * q  # i = q^2 + c is x = c, and c = i % q
    return slope_lines(fs, np.where(vert, b, a + slanted_only), b, vert)


def random_config(fs: FieldSpec, kind: str, sizes: dict, seed: int) -> dict:
    """Uniform-without-replacement configuration of the named kind.

    kind "line": lines + A + B (sizes: lines, A, B, plus slanted flag via
    sizes.get("slanted")); kind "plane": points + planes (sizes: points,
    planes).  Identical (seed, sizes, q) give identical output.
    """
    rng = rng_for(seed)
    if kind == "line":
        return {
            "lines": sample_lines(
                rng, fs, sizes["lines"], slanted_only=bool(sizes.get("slanted"))
            ),
            "A": sample_field_subset(rng, fs, sizes["A"]),
            "B": sample_field_subset(rng, fs, sizes["B"]),
        }
    if kind == "plane":
        return {
            "points": sample_points3(rng, fs, sizes["points"]),
            "planes": sample_planes_one(rng, fs, sizes["planes"]),
        }
    raise ValueError(f"unknown config kind {kind!r}")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_LINE_PRESETS = {
    # alpha, slope-count exponent, total-line exponent, |A| exponent, |B| exponent
    "line-1": (F(1, 4), F(1, 2), F(5, 8), F(1, 12), F(2, 3)),
    "line-2": (F(2, 5), F(4, 5), 1, F(4, 15), F(3, 4)),
}

_PLANE_PRESETS = {
    # alpha, plane exponent, point exponent, point factor, e of the cap k = q^e
    "plane-1": (F(1, 5), F(5, 4), 1, 1, None),
    "plane-2": (F(1, 5), F(5, 4), F(4, 3), 1, None),
    "plane-3": (F(1, 3), F(3, 2), F(11, 10), 1, None),
    "light-1": (F(1, 3), F(8, 9), F(1, 2), 1, F(1, 8)),
    "light-2": (F(1, 3), F(5, 4), F(4, 3), 2, 1),
}

PRESET_NAMES = (*_LINE_PRESETS, *_PLANE_PRESETS)
_PRESET_MIN_Q = 3
_CAP_ATTEMPTS = 500


@dataclass
class PresetConfig:
    name: str
    q: int
    alpha: F
    kind: str  # "line" | "plane"
    sizes: dict[str, int]
    seed: int
    lines: Optional[Flats] = None
    a_set: Optional[list[int]] = None
    b_set: Optional[list[int]] = None
    points: Optional[np.ndarray] = None
    planes: Optional[Flats] = None
    k: Optional[int] = None


def preset(name: str, q: int, seed: int = 0) -> PresetConfig:
    """Deterministic seeded construction of one named configuration at order q.

    Sizes are round-half-up of the preset's nominal q-powers; structural
    constraints (distinct slopes, a collinearity cap k = q^e < q, as a line
    holds q points) are enforced by rejection on the seed stream.  Raises
    Unrealizable naming the first failing size when q is too small; every
    preset builds at q = _PRESET_MIN_Q = 3, and a smaller q is refused: q = 2
    has one slanted slope and one nonzero scalar, which degenerate them all.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; pick one of {PRESET_NAMES}")
    if q < _PRESET_MIN_Q:
        raise Unrealizable(f"preset {name}: q = {q} too small (need q >= {_PRESET_MIN_Q})")
    fs = field_for_order(q)
    rng = rng_for(seed, hash_name(name), q)
    if name in _LINE_PRESETS:
        alpha, se, le, ae, be = _LINE_PRESETS[name]
        n_slopes = _rounded(q, se)
        if n_slopes > q - 1:
            raise Unrealizable(f"preset {name}: {n_slopes} slopes exceed q-1")
        n_lines = _rounded(q, le)
        per_slope = -(-n_lines // n_slopes)
        if per_slope > q:
            raise Unrealizable(f"preset {name}: {per_slope} lines per slope exceed q")
        n_a = _rounded(q, ae)
        n_b = _rounded(q, be)
        if n_a > q:
            raise Unrealizable(f"preset {name}: |A| = {n_a} exceeds q")
        if n_b > q:
            raise Unrealizable(f"preset {name}: |B| = {n_b} exceeds q")
        slopes = sorted(rng.sample(range(1, q), n_slopes))
        counts = [n_lines // n_slopes + (j < n_lines % n_slopes) for j in range(n_slopes)]
        rhs = [b for cnt in counts for b in sorted(rng.sample(range(q), cnt))]
        lines = slope_lines(fs, np.repeat(slopes, counts), rhs)
        a_set = sample_field_subset(rng, fs, n_a)
        b_set = sample_field_subset(rng, fs, n_b)
        sizes = {"lines": len(lines), "slopes": n_slopes - counts.count(0), "A": n_a, "B": n_b}
        return PresetConfig(name, q, alpha, "line", sizes, seed, lines=lines, a_set=a_set,
                            b_set=b_set)
    alpha, pie, pe, pf, cap = _PLANE_PRESETS[name]
    n_pi = _rounded(q, pie)
    if n_pi > q**3 - 1:
        raise Unrealizable(f"preset {name}: {n_pi} planes exceed q^3-1")
    n_p = _rounded(q, pe, pf)
    if n_p > q**3:
        raise Unrealizable(f"preset {name}: {n_p} points exceed q^3")
    planes = sample_planes_one(rng, fs, n_pi)
    k = None if cap is None else _rounded(q, cap)
    for _ in range(_CAP_ATTEMPTS):
        points = sample_points3(rng, fs, n_p)
        if k is None or k >= q or max_shared_collinear(fs, points, planes) <= k:
            break
    else:
        raise Unrealizable(f"preset {name}: no point set met the collinearity cap k = {k}")
    sizes = {"points": n_p, "planes": n_pi}
    if k is not None:
        sizes["k"] = k
    return PresetConfig(
        name, q, alpha, "plane", sizes, seed, points=points, planes=planes, k=k
    )


def hash_name(name: str) -> int:
    """Stable small integer for a suite/preset name (not Python's hash)."""
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & _MASK64
    return h


# ---------------------------------------------------------------------------
# experiment configs and CSV rows
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    p: int
    n: int
    suite: str
    alpha: float = 0.5
    trials: int = 10
    seed: int = 0
    out: Optional[str] = None

    @property
    def q(self) -> int:
        return self.p**self.n


@dataclass
class SuiteResult:
    suite: str
    columns: list[str]
    rows: list[dict]
    failures: int = 0
    violations: int = 0

    @property
    def exit_code(self) -> int:
        if self.failures:
            return 1
        return 2 if self.violations else 0


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit(rows: list[dict], columns: list[str], path) -> None:
    """Write a CSV with header; same rows in, same bytes out."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt_cell(r.get(c, "")) for c in columns])


_BASE_COLS = ["suite", "q", "alpha", "trial", "seed"]

_SUITES: dict = {}  # name -> (suite, columns)


def _suite(name: str, *cols: str):
    """Register a suite under name; cols are its columns after the base ones."""

    def register(fn):
        _SUITES[name] = (fn, [*_BASE_COLS, *cols, "elapsed_ms"])
        return fn

    return register


def _trial_rng(cfg: ExperimentConfig, t: int) -> random.Random:
    return rng_for(cfg.seed, hash_name(cfg.suite), t)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@_suite("oracle-equivalence", "kind", "n_points", "n_flats", "oracle", "fast", "equal")
def suite_oracle_equivalence(cfg: ExperimentConfig, fs: FieldSpec):
    """Fast vs brute-force incidence counts on seeded random configurations."""
    q = fs.q
    for t in range(cfg.trials):
        rng = _trial_rng(cfg, t)
        if t % 2 == 0:
            n_pts = rng.randint(1, min(q * q, 40))
            n_fl = rng.randint(1, min(q * q + q, 40))
            pts = sample_points2(rng, fs, n_pts)
            flats = sample_lines(rng, fs, n_fl)
            kind = "lines"
        else:
            n_pts = rng.randint(1, min(q**3, 40))
            n_fl = rng.randint(1, min(q**3 - 1, 40))
            pts = sample_points3(rng, fs, n_pts)
            flats = sample_planes_one(rng, fs, n_fl)
            kind = "planes"
        oracle = count_incidences(fs, pts, flats, "oracle").count
        fast = count_incidences(fs, pts, flats, "fast").count
        equal = oracle == fast
        yield t, dict(kind=kind, n_points=n_pts, n_flats=n_fl, oracle=oracle,
                      fast=fast, equal=equal), not equal, 0


@_suite("unconditional", "family", "sizes", "lhs", "rhs", "holds")
def suite_unconditional(cfg: ExperimentConfig, fs: FieldSpec):
    """The five inequalities that must hold exactly on every configuration."""
    if fs.p == 2:
        raise EvenCharacteristic("the distance-chain family needs odd q")
    q = fs.q

    def row(family, sizes, lhs, rhs, holds):
        return dict(family=family, sizes=sizes, lhs=lhs, rhs=rhs, holds=holds), not holds, 0

    for t in range(cfg.trials):
        rng = _trial_rng(cfg, t)

        n_pts = rng.randint(1, min(q * q, 36))
        n_ln = rng.randint(1, min(q * q + q, 36))
        pts = sample_points2(rng, fs, n_pts)
        lns = sample_lines(rng, fs, n_ln)
        actual = count_incidences(fs, pts, lns, "oracle").count
        rep = bounds.eval_cs_line(n_pts, n_ln, actual=actual)
        yield t, *row("cs_line", f"P={n_pts};L={n_ln}", actual, rep.value, rep.satisfied())

        n_p3 = rng.randint(1, min(q**3, 40))
        n_pi = rng.randint(1, min(q**3 - 1, 40))
        pts3 = sample_points3(rng, fs, n_p3)
        pls = sample_planes_one(rng, fs, n_pi)
        actual = count_incidences(fs, pts3, pls, "oracle").count
        rep = bounds.eval_bound(
            "plane_vinh", bounds.RegimeParams(q=q, alpha=cfg.alpha, nP=n_p3, nPi=n_pi), actual)
        yield t, *row("vinh_plane", f"P={n_p3};Pi={n_pi}", actual, rep.value,
                      rep.satisfied())

        n_l = rng.randint(1, min(q * q, 20))
        n_a = rng.randint(1, min(q, 8))
        n_b = rng.randint(1, q)
        lns = sample_lines(rng, fs, n_l, with_vertical=False)
        a_set = sample_field_subset(rng, fs, n_a)
        b_set = sample_field_subset(rng, fs, n_b)
        rep = reductions.cs_upper(fs, lns, a_set, b_set)
        yield t, *row("cs_upper", f"L={n_l};A={n_a};B={n_b}", rep.actual, rep.value,
                      rep.holds)

        n_e = rng.randint(1, min(q**3, 24))
        n_f = rng.randint(1, min(q**3, 24))
        E = sample_points3(rng, fs, n_e)
        F = sample_points3(rng, fs, n_f)
        rep = apps.triple_count_T(fs, E, F)
        yield t, *row("distance_chain", f"E={n_e};F={n_f}", rep.chain_lhs,
                      rep.chain_rhs, rep.chain_holds)

        n_u = rng.randint(2, min(q**3, 40))
        U = sample_points3(rng, fs, n_u)
        n_up = rng.randint(1, min(n_u, 4))
        Up = U[sorted(rng.sample(range(n_u), n_up))]
        rep = apps.trace_pairs(fs, U, Up)
        yield t, *row("trace_pairs", f"U={n_u};Uprime={n_up}", rep.pair_count,
                      rep.cs_lower,
                      rep.pair_count * rep.classes >= sum(rep.class_sizes) ** 2)


@_suite("reduction-identity", "case", "n_lines", "n_a", "incidences", "fast", "oracle",
        "equal")
def suite_reduction_identity(cfg: ExperimentConfig, fs: FieldSpec):
    """I(points3, planes3) == energy count, plus full-family uniformity."""
    q = fs.q
    for t in range(cfg.trials):
        rng = _trial_rng(cfg, t)
        n_l = rng.randint(1, min(q * q, 14))
        n_a = rng.randint(1, min(q, 6))
        lns = sample_lines(rng, fs, n_l, with_vertical=False)
        a_set = sample_field_subset(rng, fs, n_a)
        out = reductions.build_point_plane_sets(fs, lns, a_set)
        inc = count_incidences(fs, out.points3, out.planes3, "oracle").count
        oracle = reductions.count_solutions(fs, lns, a_set, "oracle")
        equal = inc == out.solution_count == oracle
        yield t, dict(case="random", n_lines=n_l, n_a=n_a, incidences=inc,
                      fast=out.solution_count, oracle=oracle, equal=equal), not equal, 0
    full = slope_lines(fs, *np.divmod(np.arange(q * q), q))  # ordered by (a, b)
    fast = reductions.count_solutions(fs, full, list(fs.elements()), "fast")
    expected = q**5
    if q <= 5:
        oracle = reductions.count_solutions(fs, full, list(fs.elements()), "oracle")
    else:
        oracle = fast
    equal = fast == expected == oracle
    yield cfg.trials, dict(case="full_family", n_lines=len(full), n_a=q,
                           incidences=expected, fast=fast, oracle=oracle,
                           equal=equal), not equal, 0


@_suite("vc-plane", "side", "ground", "members", "vc", "saturated", "vc_ok",
        "shatter_z", "shatter_value", "ss_bound", "ss_ok")
def suite_vc_plane(cfg: ExperimentConfig, fs: FieldSpec):
    """VC dimension <= 3 for plane-neighborhood systems, both sides.

    q <= 5 runs the full configuration exhaustively; larger q runs seeded
    random configurations.  The by_plane ground set drops the origin (it
    lies on no plane of the a . x = 1 family), which keeps the exhaustive
    q = 5 search inside the combinatorial budget.
    """
    q = fs.q
    exhaustive = q <= 5
    for t in range(1 if exhaustive else cfg.trials):
        if exhaustive:
            by_point = decode_rows(q, np.arange(q**3))
            by_plane, planes = by_point[1:], all_planes_through_one(fs)
        else:
            rng = _trial_rng(cfg, t)
            by_point = by_plane = sample_points3(rng, fs, min(q**3 - 1, 40), nonzero=True)
            planes = sample_planes_one(rng, fs, min(q**3 - 1, 40))
        for side, pts in (("by_point", by_point), ("by_plane", by_plane)):
            system = setsys.neighborhood_system(fs, pts, planes, side)
            res = setsys.vc_dimension(system, d_max=4)
            vc_ok = res.dimension <= 3
            z = min(3, system.ground_size)
            sh = setsys.shatter_function(system, z)
            ss = setsys.sauer_shelah(z, res.dimension)
            ss_ok = sh.value <= ss
            yield t, dict(side=side, ground=system.ground_size,
                          members=len(system.family), vc=res.dimension,
                          saturated=res.saturated, vc_ok=vc_ok, shatter_z=z,
                          shatter_value=sh.value, ss_bound=ss,
                          ss_ok=ss_ok), (not vc_ok) + (not ss_ok), 0


@_suite("q3mod4-geometry", "check", "r", "lines_found", "expect_lines", "ok")
def suite_q3mod4_geometry(cfg: ExperimentConfig, fs: FieldSpec):
    """Sphere-line classification and bisector collision structure.

    The scan must find lines on the radius-r sphere exactly when -r is a
    nonzero square; for q = 3 mod 4 that is every non-square radius, so no
    blanket emptiness claim can hold and the rows record the exact
    classification instead.  Bisector planes may collide, but only
    between points whose differences from the apex are parallel isotropic
    vectors; the exhaustive check verifies that characterization.
    """
    q = fs.q
    if fs.p != 2 and q > SPHERE_SCAN_MAX_Q:
        raise BudgetExceeded(f"sphere scan capped at q <= {SPHERE_SCAN_MAX_Q}")
    for r in range(1, q):
        found = apps.sphere_line_scan(fs, r)
        expect_lines = fs.is_square(fs.neg(r))
        ok = bool(found) == expect_lines
        ok = ok and all(apps.norm3(fs, pt) == r for ln in found for pt in line3_points(fs, ln))
        if q == 5 and r == 1:
            witness = ((0, 0, 1), (1, 2, 0))
            ok = ok and any((ln.base, ln.direction) == witness for ln in found)
        yield r, dict(check="sphere_scan", r=r, lines_found=len(found),
                      expect_lines=expect_lines, ok=ok), not ok, 0
    if fs.p != 2 and q <= 7:
        ok = apps.bisector_collisions_isotropic(fs, decode_points(q, range(q**3)))
        yield q, dict(check="bisector_collisions_isotropic", r=0, lines_found=0,
                      expect_lines=False, ok=ok), not ok, 0


@_suite("regular-subset", "case", "n_u", "n_u1", "hypothesis_ok", "ok")
def suite_regular_subset(cfg: ExperimentConfig, fs: FieldSpec):
    """Thresholded unit-product neighborhoods on sets meeting |U| >= 8q^2."""
    q = fs.q
    full = _full_space(q)
    rep = apps.regular_subset(fs, full)
    hyp = rep.size_hypothesis_ok
    ok = rep.U1 == decode_points(q, range(1, q**3)) if hyp else True  # U1 in the order of U
    yield 0, dict(case="full_space", n_u=len(full), n_u1=len(rep.U1),
                  hypothesis_ok=hyp, ok=ok), not ok, not hyp
    if 8 * q * q < q**3:
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, t)
            n_u = rng.randint(8 * q * q, q**3)
            U = sample_points3(rng, fs, n_u)
            rep = apps.regular_subset(fs, U)
            ok = len(rep.U1) >= n_u / 2
            yield t + 1, dict(case="random", n_u=n_u, n_u1=len(rep.U1),
                              hypothesis_ok=rep.size_hypothesis_ok, ok=ok), not ok, 0


_RETRY_ATTEMPTS = 25


def _retry(rng, build, accept):
    """The first build(rng) that accept passes, else the last of the attempts."""
    for _ in range(_RETRY_ATTEMPTS):
        last = build(rng)
        if accept(last):
            break
    return last


def _calibrated(sizes: str, rep):
    """Row fields, failure and violation of one calibration bound report."""
    hyp = rep.hypotheses_ok
    ok = rep.satisfied(2.0) if hyp else True
    return dict(bound=rep.bound_name, sizes=sizes, actual=rep.actual, value=rep.value,
                ratio=rep.ratio, hypothesis_ok=hyp, ok=ok), not ok, not hyp


@_suite("calibration", "bound", "sizes", "actual", "value", "ratio", "hypothesis_ok",
        "ok")
def suite_calibration(cfg: ExperimentConfig, fs: FieldSpec):
    """actual <= 2 * bound for configs meeting each theorem's hypotheses.

    The factor 2 is a calibration choice standing in for the unspecified
    big-O constants; measured ratios are emitted for the full distribution.
    The thm14 and thm_line samples are redrawn until the size hypothesis
    their bound report records holds (or the attempts run out).
    """
    q, alpha = fs.q, bounds.exact_alpha(cfg.alpha)
    # the size floors of the thm13 and thm14 families; a floor past the
    # space skips its family
    need13 = _ceil(q, 1 + alpha, 2)
    need14 = max(1, _ceil(q, alpha, 4))
    for t in range(cfg.trials):
        rng = _trial_rng(cfg, t)

        if need13 <= q**3 - 1:
            n_pi = rng.randint(need13, q**3 - 1)
            n_p = rng.randint(1, q**3)
            pls = sample_planes_one(rng, fs, n_pi)
            pts = sample_points3(rng, fs, n_p)
            actual = count_incidences(fs, pts, pls, "fast").count
            rep = bounds.eval_bound("thm13_by_planes",
                                    bounds.RegimeParams(q=q, alpha=alpha, nP=n_p, nPi=n_pi), actual)
            yield t, *_calibrated(f"P={n_p};Pi={n_pi}", rep)

        if need13 <= q**3:
            n_p = rng.randint(need13, q**3)
            n_pi = rng.randint(1, q**3 - 1)
            pts = sample_points3(rng, fs, n_p)
            pls = sample_planes_one(rng, fs, n_pi)
            actual = count_incidences(fs, pts, pls, "fast").count
            rep = bounds.eval_bound("thm13_by_points",
                                    bounds.RegimeParams(q=q, alpha=alpha, nP=n_p, nPi=n_pi), actual)
            yield t, *_calibrated(f"P={n_p};Pi={n_pi}", rep)

        if need14 <= q**3:
            n_pi = rng.randint(2, min(q**3 - 1, 30))
            pls = sample_planes_one(rng, fs, n_pi)

            def build(r):
                n_p = r.randint(need14, q**3)
                pts = sample_points3(r, fs, n_p)
                k = max_shared_collinear(fs, pts, pls) + 1
                return pts, bounds.RegimeParams(q=q, alpha=alpha, nP=len(pts), nPi=n_pi, k=k)

            def size_ok(c):
                return bounds.holds("thm14", "points_at_least_2kq^a", c[1])

            pts, params = _retry(rng, build, size_ok)
            actual = count_incidences(fs, pts, pls, "fast").count
            rep = bounds.eval_bound("thm14", params, actual, params.k - 1)
            yield t, *_calibrated(f"P={params.nP};Pi={n_pi};k={params.k}", rep)

        def build_line(r):
            n_l = r.randint(1, min((q - 1) * q, 30))
            n_a = r.randint(1, q)
            n_b = r.randint(1, q)
            lns = sample_lines(r, fs, n_l, slanted_only=True)
            a_set = sample_field_subset(r, fs, n_a)
            b_set = sample_field_subset(r, fs, n_b)
            n_lx = np.unique(line_coeffs(fs, lns)[0]).size
            return lns, a_set, b_set, bounds.RegimeParams(
                q=q, alpha=alpha, nL=len(lns), nA=len(a_set), nB=len(b_set), nLx=n_lx)

        lns, a_set, b_set, params = _retry(
            rng, build_line,
            lambda c: bounds.holds("thm_line", "size_condition", c[3]))
        actual = count_incidences(
            fs, grid_points(a_set, b_set), lns, "fast").count
        rep = bounds.eval_thm_line(params, actual=actual)
        yield t, *_calibrated(
            f"L={params.nL};A={params.nA};B={params.nB};Lx={params.nLx}", rep)


@_suite("trace-pairs", "case", "n_u", "n_uprime", "pair_count", "classes", "cs_lower",
        "bound_value", "ratio", "ok")
def suite_trace_pairs(cfg: ExperimentConfig, fs: FieldSpec):
    """Trace-class pair counting: the frozen desk-scale case plus random ratios."""
    q = fs.q

    def cases():
        if q == 3:
            yield 0, "frozen_q3", decode_points(3, range(1, 27)), [(1, 0, 0)]
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, t)
            n_u = rng.randint(2, min(q**3, 60))
            U = sample_points3(rng, fs, n_u)
            n_up = rng.randint(1, min(n_u, 4))
            yield t + 1, "random", U, U[sorted(rng.sample(range(n_u), n_up))]

    for t, case, U, Up in cases():
        rep = apps.trace_pairs(fs, U, Up)
        if case == "frozen_q3":
            ok = rep.pair_count == 370
        else:
            ok = rep.pair_count * rep.classes >= sum(rep.class_sizes) ** 2
        yield t, dict(case=case, n_u=len(U), n_uprime=len(Up),
                      pair_count=rep.pair_count, classes=rep.classes,
                      cs_lower=rep.cs_lower, bound_value=rep.bound_value,
                      ratio=rep.ratio_vs_bound, ok=ok), not ok, 0


@_suite("preset-audit", "preset", "preset_q", "sizes", "actual", "winner",
        "hypothesis_ok", "flags")
def suite_preset_audit(cfg: ExperimentConfig, fs: FieldSpec):
    """Regime flags for all seven presets at q = _PRESET_MIN_Q, where each builds.

    Every row is computed at q = 3 whatever the suite's order is: the rows at
    any order are equal but for the q column, and preset_q names the order
    they were computed at."""
    q, pfs = _PRESET_MIN_Q, field_for_order(_PRESET_MIN_Q)
    for t, name in enumerate(PRESET_NAMES):
        pc = preset(name, q, seed=cfg.seed)
        if pc.kind == "line":
            actual = count_incidences(
                pfs, grid_points(pc.a_set, pc.b_set), pc.lines, "fast").count
            params = bounds.RegimeParams(
                q=q, alpha=pc.alpha, nL=pc.sizes["lines"], nA=pc.sizes["A"],
                nB=pc.sizes["B"], nLx=pc.sizes["slopes"])
            report = bounds.regime_report(params, actual=actual)
        else:
            actual = count_incidences(pfs, pc.points, pc.planes, "fast").count
            shared = max_shared_collinear(pfs, pc.points, pc.planes) if pc.k else None
            params = bounds.RegimeParams(
                q=q, alpha=pc.alpha, nP=pc.sizes["points"],
                nPi=pc.sizes["planes"], k=pc.k)
            report = bounds.regime_report(
                params, actual=actual, max_shared_collinear=shared)
        hyp = report.hypotheses_ok
        flags = ";".join(f"{k}={'1' if v else '0'}"
                         for k, v in sorted(report.flags.items()))
        sizes = ";".join(f"{k}={v}" for k, v in sorted(pc.sizes.items()))
        yield t, dict(preset=name, preset_q=q, sizes=sizes, actual=actual,
                      winner=report.winner, hypothesis_ok=hyp, flags=flags), 0, not hyp


@_suite("vinh-plane", "n_points", "n_planes", "actual", "main_term", "main_ratio", "ok")
def suite_vinh_plane(cfg: ExperimentConfig, fs: FieldSpec):
    """Full-space configuration: the main term alone matches the exact count."""
    q = fs.q
    pts = _full_space(q)
    planes = all_planes_through_one(fs)
    actual = count_incidences(fs, pts, planes, "fast").count
    main = len(pts) * len(planes) / q
    ok = actual == main
    yield 0, dict(n_points=len(pts), n_planes=len(planes), actual=actual,
                  main_term=main, main_ratio=main / actual if actual else 0.0,
                  ok=ok), not ok, 0


SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: ExperimentConfig) -> SuiteResult:
    """Execute the named suite; writes CSV when cfg.out is set.

    Fills the base columns of every row the suite yields, times each row
    into elapsed_ms, and sums the failures and hypothesis violations.
    """
    if cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; pick one of {SUITE_NAMES}")
    if cfg.trials < 0:
        raise ValueError(f"trials must be >= 0, got {cfg.trials}")
    suite, columns = _SUITES[cfg.suite]
    result = SuiteResult(cfg.suite, columns, [])
    fresh = cfg.out and not os.path.exists(cfg.out)
    if cfg.out:
        open(cfg.out, "a").close()  # a bad output path fails before any trial
    try:
        rows = suite(cfg, make_field(cfg.p, cfg.n))
        t0 = time.perf_counter()
        for trial, fields, failed, violated in rows:
            t1 = time.perf_counter()
            result.rows.append({"suite": cfg.suite, "q": cfg.q, "alpha": cfg.alpha,
                                "trial": trial, "seed": cfg.seed,
                                "elapsed_ms": int((t1 - t0) * 1000), **fields})
            result.failures += failed
            result.violations += violated
            t0 = t1
    except BaseException:
        if fresh:
            os.remove(cfg.out)  # a suite that raised leaves no empty CSV behind
        raise
    if cfg.out:
        emit(result.rows, result.columns, cfg.out)
    return result
