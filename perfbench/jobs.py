"""Seeded job lists for the four benchmark workloads, and how to run them.

A job is plain data (JSON-serialisable), generated from the workload seed by
the benchmark's own random.Random, never by the library's samplers.  One
pass of a workload is a fixed multiset of job shapes; the seed picks the
inputs and the order.  Sizes per shape are fixed, so two seeds do the same
amount of work on different inputs.

``materialize`` turns a job into a ``call`` (the timed library call, which
looks its entry point up on the module at call time so that tracing
wrappers are seen) and a ``canon`` that reduces the result to a plain tuple
for comparison.
"""

import contextlib
import csv
import hashlib
import io
import random
from pathlib import Path

from . import reference

WORKLOADS = ("kernels-prime", "kernels-ext", "vc-search", "suites-cli")

# (kind, (p, n), sizes, jobs per pass).  A pass holds at least 100 distinct
# jobs, so at least 10 lie beyond the 90th percentile.  Sizes put the jobs in
# latency bands (fast, middle, heavy) so that the median and the 90th
# percentile fall inside a band rather than on the edge between two, where
# they would jump from seed to seed.
_KERNEL_SHAPES = {
    "kernels-prime": [
        # fast band, ~1.5 ms
        ("planes", (101, 1), (300, 300), 5),
        ("planes", (13, 1), (300, 300), 5),
        ("energy", (101, 1), (200, 40), 5),
        ("traces", (13, 1), (600, 4), 5),
        ("regular", (13, 1), (600,), 6),
        ("distance", (101, 1), (50, 50), 3),
        ("distance", (13, 1), (50, 50), 3),
        # middle band, ~13 ms: holds the median
        ("dot", (101, 1), (150, 150), 36),
        ("dot", (101, 1), (200, 200), 12),
        # heavy band, ~55 ms: holds the 90th percentile
        ("lines", (101, 1), (1500, 600), 20),
    ],
    "kernels-ext": [
        # fast band, ~3-9 ms
        ("planes", (3, 4), (300, 300), 6),
        ("planes", (2, 4), (300, 300), 5),
        ("lines", (2, 4), (200, 200), 5),
        ("traces", (3, 4), (600, 4), 6),
        ("energy", (3, 4), (200, 40), 5),
        ("regular", (3, 4), (520,), 7),
        # middle band, ~16 ms: holds the median
        ("traces", (5, 4), (160, 4), 7),
        ("lines", (3, 4), (150, 300), 11),
        ("regular", (5, 4), (26,), 6),
        ("dot", (5, 4), (26, 26), 6),
        ("dot", (3, 4), (85, 85), 10),
        # heavy band, ~35-45 ms: holds the 90th percentile
        ("energy", (3, 4), (400, 81), 6),
        ("distance", (5, 4), (23, 23), 5),
        ("planes", (5, 4), (37, 37), 4),
        ("lines", (5, 4), (40, 100), 4),
        ("distance", (3, 4), (60, 60), 5),
        # full space at q = 16, ~0.7-1.2 s and ~670 MB each
        ("full_planes", (2, 4), (), 1),
        ("full_regular", (2, 4), (), 1),
    ],
}

# vc-search: the exhaustive vc-plane suite plus random neighbourhood systems.
# The exhaustive run at q = 5 (10-12 s) is left out: it would make every run
# a single pass dominated by one job.  q = 4 runs the same search code.
VC_EXHAUSTIVE = [(2, 2)]
_VC_RANDOM_FIELDS = [(7, 1), (2, 3), (3, 2)]
_VC_RANDOM_PER_FIELD = 100
_VC_RANDOM_SIZE = 40

# suites-cli: every suite and preset at these orders.  Suites run at suite
# seed 0: their own samplers pick random sizes per trial, which would move
# the 90th percentile by 10% from one workload seed to the next.  Presets
# take their seed from a recorded grid, so every reader's input varies with
# the workload seed and every output has a known digest.  q3mod4-geometry
# runs at q = 3 and 5: at q >= 7 its exhaustive bisector scan takes 1-3 s per
# call and would be most of the pass.
CLI_ORDERS = (7, 9, 11)
Q3MOD4_ORDERS = (3, 5)
SUITE_SEED = 0
CLI_SEED_GRID = (0, 1, 2, 3)
SUITES = (
    "oracle-equivalence", "unconditional", "reduction-identity", "vc-plane",
    "q3mod4-geometry", "regular-subset", "calibration", "trace-pairs",
    "preset-audit", "vinh-plane",
)
LINE_PRESETS = ("line-1", "line-2")
PLANE_PRESETS = ("plane-1", "plane-2", "plane-3", "light-1", "light-2")


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n = 1
    while p**n < q:
        n += 1
    return p, n


def fields_of(workload: str) -> list[tuple[int, int]]:
    """The (p, n) pairs a workload sets up, in a fixed order."""
    if workload in _KERNEL_SHAPES:
        out = [f for _, f, _, _ in _KERNEL_SHAPES[workload]]
    elif workload == "vc-search":
        out = VC_EXHAUSTIVE + _VC_RANDOM_FIELDS
    elif workload == "suites-cli":
        out = [_prime_power(q) for q in CLI_ORDERS + Q3MOD4_ORDERS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _points(rng, q, k, dim, nonzero=False):
    lo = 1 if nonzero else 0
    idx = rng.sample(range(lo, q**dim), k)
    return [[(i // q**d) % q for d in range(dim)] for i in idx]


def _lines(rng, q, k):
    out = []
    for i in rng.sample(range(q * q + q), k):
        out.append(["N", i // q, i % q] if i < q * q else ["V", i - q * q, 0])
    return out


def _planes(rng, q, k):
    idx = rng.sample(range(q, q**4), k)  # normal index >= 1, any rhs
    return [[[(i // q ** (d + 1)) % q for d in range(3)], i % q] for i in idx]


def _kernel_job(rng, kind, field, sizes):
    p, n = field
    q = p**n
    job = {"kind": kind, "field": [p, n]}
    if kind == "lines":
        job.update(points=_points(rng, q, sizes[0], 2), lines=_lines(rng, q, sizes[1]))
    elif kind == "planes":
        job.update(points=_points(rng, q, sizes[0], 3), planes=_planes(rng, q, sizes[1]))
    elif kind == "energy":
        nv = rng.sample(range(q * q), sizes[0])
        job.update(lines=[[i // q, i % q] for i in nv],
                   a_set=rng.sample(range(q), min(q, sizes[1])))
    elif kind in ("dot", "distance"):
        job.update(E=_points(rng, q, sizes[0], 3), F=_points(rng, q, sizes[1], 3))
    elif kind == "traces":
        U = _points(rng, q, sizes[0], 3)
        job.update(U=U, Up=[U[i] for i in sorted(rng.sample(range(len(U)), sizes[1]))])
    elif kind == "regular":
        job.update(U=_points(rng, q, sizes[0], 3))
    elif kind not in ("full_planes", "full_regular"):
        raise ValueError(f"unknown job kind {kind!r}")
    return job


def cli_units(pick_seed) -> list[list[dict]]:
    """suites-cli jobs grouped in units: a suite, or a preset then its readers.

    pick_seed() gives each preset's seed.
    """
    units = []
    suite_orders = [(name, q) for q in CLI_ORDERS for name in SUITES
                     if name != "q3mod4-geometry"]
    suite_orders += [("q3mod4-geometry", q) for q in Q3MOD4_ORDERS]
    for name, q in suite_orders:
        s = SUITE_SEED
        units.append([{
            "kind": "cli", "key": f"suite/{name}/q{q}/s{s}",
            "argv": ["suite", "--name", name, "--q", str(q), "--seed", str(s),
                     "--out", f"{{dir}}/suite-{name}-q{q}.csv"],
            "output": f"suite-{name}-q{q}.csv",
        }])
    for q in CLI_ORDERS:
        for name in LINE_PRESETS + PLANE_PRESETS:
            s = pick_seed()
            d = f"preset-{name}-q{q}"
            unit = [{
                "kind": "cli", "key": f"preset/{name}/q{q}/s{s}",
                "argv": ["preset", "--name", name, "--q", str(q), "--seed", str(s),
                         "--out", f"{{dir}}/{d}"],
                "output": d,
            }]
            if name in LINE_PRESETS:
                readers = {"reduce": ["reduce", "--lines", "lines.txt", "--a", "a.txt",
                                      "--b", "b.txt"]}
            else:
                readers = {
                    "count": ["count", "--points", "points.txt", "--planes", "planes.txt"],
                    "vcdim": ["vcdim", "--points", "points.txt", "--planes", "planes.txt"],
                    "distance": ["distance", "--e", "points.txt", "--f", "points.txt"],
                    "dotprod": ["dotprod", "--e", "points.txt", "--f", "points.txt"],
                    "traces": ["traces", "--u", "points.txt", "--uprime", "points.txt"],
                }
            for cmd, argv in readers.items():
                argv = [a if not a.endswith(".txt") else f"{{dir}}/{d}/{a}" for a in argv]
                unit.append({"kind": "cli", "key": f"{cmd}/{name}/q{q}/s{s}",
                             "argv": argv, "output": None})
            units.append(unit)
    return units


def make_jobs(workload: str, seed: int) -> list[dict]:
    """One pass of the workload: the same seed gives the same list."""
    rng = random.Random(f"fqincidence-bench/{workload}/{seed}")
    if workload in _KERNEL_SHAPES:
        jobs = [
            _kernel_job(rng, kind, field, sizes)
            for kind, field, sizes, count in _KERNEL_SHAPES[workload]
            for _ in range(count)
        ]
        rng.shuffle(jobs)
    elif workload == "vc-search":
        jobs = [{"kind": "vc_suite", "field": list(f)} for f in VC_EXHAUSTIVE]
        for p, n in _VC_RANDOM_FIELDS:
            q = p**n
            for i in range(_VC_RANDOM_PER_FIELD):
                jobs.append({
                    "kind": "vc_random", "field": [p, n],
                    "side": ("by_point", "by_plane")[i % 2],
                    "points": _points(rng, q, _VC_RANDOM_SIZE, 3, nonzero=True),
                    "normals": _points(rng, q, _VC_RANDOM_SIZE, 3, nonzero=True),
                })
        rng.shuffle(jobs)
    elif workload == "suites-cli":
        units = cli_units(lambda: rng.choice(CLI_SEED_GRID))
        rng.shuffle(units)
        jobs = [job for unit in units for job in unit]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def digest(value) -> str:
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:32]


def csv_without_elapsed(path) -> bytes:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return b""
    keep = [i for i, c in enumerate(rows[0]) if c != "elapsed_ms"]
    return "\n".join(",".join(r[i] for i in keep) for r in rows).encode()


def dir_digest(path) -> str:
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:32]


def suite_rows_digest(rows) -> str:
    return digest([sorted((k, v) for k, v in r.items() if k != "elapsed_ms") for r in rows])


def _tuples(points) -> list[tuple]:
    return [tuple(p) for p in points]


def materialize(job: dict, fields: dict, workdir: Path):
    """(call, canon) for a job; fields maps (p, n) to FieldSpec."""
    from fqincidence import apps, cli, geom, harness, reductions, setsys

    kind = job["kind"]
    if kind == "cli":
        argv = [a.replace("{dir}", str(workdir)) for a in job["argv"]]
        output = job["output"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def canon(res):
            rc, text = res
            if output is None:
                return (rc, digest(text.encode()))
            path = workdir / output
            if path.is_dir():
                return (rc, dir_digest(path))
            return (rc, digest(csv_without_elapsed(path)) if path.exists() else None)

        return call, canon

    fs = fields[tuple(job["field"])]
    if kind == "lines":
        pts = _tuples(job["points"])
        lines = [geom.Line2(*ln) for ln in job["lines"]]
        return (lambda: geom.count_incidences(fs, pts, lines)), (lambda r: r.count)
    if kind == "planes":
        pts = _tuples(job["points"])
        planes = [geom.Plane3(tuple(nrm), rhs, False) for nrm, rhs in job["planes"]]
        return (lambda: geom.count_incidences(fs, pts, planes)), (lambda r: r.count)
    if kind == "full_planes":
        pts = reference.full_space_points(fs.q)
        return (lambda: geom.count_incidences(fs, pts, geom.all_planes_through_one(fs)),
                lambda r: r.count)
    if kind == "energy":
        lines = [geom.Line2("N", a, b) for a, b in job["lines"]]
        a_set = list(job["a_set"])
        return (lambda: reductions.count_solutions(fs, lines, a_set)), (lambda r: r)
    if kind == "dot":
        E, F = _tuples(job["E"]), _tuples(job["F"])
        return (lambda: apps.dot_product_set(fs, E, F)), (
            lambda r: (tuple(sorted(r.lambda_counts.items())), r.orthogonal_pairs,
                       r.best_lambda))
    if kind == "distance":
        E, F = _tuples(job["E"]), _tuples(job["F"])
        return (lambda: apps.triple_count_T(fs, E, F)), (
            lambda r: (tuple(sorted(r.distance_set)), r.zero_pairs, r.T))
    if kind == "traces":
        U, Up = _tuples(job["U"]), _tuples(job["Up"])
        return (lambda: apps.trace_pairs(fs, U, Up)), (
            lambda r: (tuple(r.class_sizes), r.pair_count, r.classes))
    if kind in ("regular", "full_regular"):
        U = _tuples(job["U"]) if kind == "regular" else reference.full_space_points(fs.q)
        return (lambda: apps.regular_subset(fs, U)), (
            lambda r: (tuple(r.U1), tuple(r.L_heavy), tuple(r.R_light)))
    if kind == "vc_random":
        pts = _tuples(job["points"])
        planes = [geom.plane_through_one(tuple(nrm)) for nrm in job["normals"]]
        side = job["side"]

        def call():
            system = setsys.neighborhood_system(fs, pts, planes, side)
            vc = setsys.vc_dimension(system, d_max=4)
            sh = setsys.shatter_function(system, min(3, system.ground_size))
            return tuple(system.family), vc.dimension, vc.saturated, sh.value

        return call, (lambda r: r)
    if kind == "vc_suite":
        cfg = harness.ExperimentConfig(p=fs.p, n=fs.n, suite="vc-plane")

        def canon(res):
            vc_ok = all(row["vc"] <= 3 for row in res.rows)
            return (res.failures, vc_ok, suite_rows_digest(res.rows))

        return (lambda: harness.run_suite(cfg)), canon
    raise ValueError(f"unknown job kind {kind!r}")


def expected_output(job: dict, fs, ref_fields: dict, recorded: dict):
    """The reference value of canon(result) for a job."""
    kind = job["kind"]
    if kind == "cli":
        rec = recorded.get(job["key"])
        return tuple(rec) if rec is not None else ("unrecorded", job["key"])
    if kind == "vc_suite":
        return (0, True, recorded.get(f"vc-plane/q{fs.q}"))
    q = fs.q
    if kind == "full_planes":
        return reference.full_space_plane_count(q)
    if kind == "full_regular":
        return reference.full_space_partition(q)
    key = (fs.p, fs.n)
    rf = ref_fields.get(key)
    if rf is None:
        rf = ref_fields[key] = reference.RefField(fs.p, fs.n, fs.modulus)
    if kind == "lines":
        return reference.count_lines(rf, job["points"], job["lines"])
    if kind == "planes":
        return reference.count_planes(rf, job["points"], job["planes"])
    if kind == "energy":
        return reference.energy(rf, job["lines"], job["a_set"])
    if kind == "dot":
        return reference.dot_set(rf, job["E"], job["F"])
    if kind == "distance":
        return reference.distance_T(rf, job["E"], job["F"])
    if kind == "traces":
        return reference.trace_classes(rf, job["U"], job["Up"])
    if kind == "regular":
        return reference.regular_partition(rf, job["U"])
    if kind == "vc_random":
        return reference.vc_system(rf, job["points"], job["normals"], job["side"])
    raise ValueError(f"unknown job kind {kind!r}")
