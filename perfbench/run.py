"""The fqincidence benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
workload's job list (one pass) is generated from the seed.  The timed loop
is closed with one client: it runs whole passes over the list, starting
another only while it is expected to end within S seconds, so every run has
the same job mix.  After the loop every distinct job's output is compared
with an independent reference (see reference.py, and expected.json for the
CLI and exhaustive-suite digests).

--trace 0 prints the end-to-end metrics.  On a shared host the speed of the
CPU changes by up to 2x from one second to the next, so every time is
scaled to a reference host speed: a fixed piece of interpreter work
(host_probe) runs every PROBE_EVERY_S between jobs, outside the job timers,
and a job's latency is multiplied by PROBE_NOMINAL_S over the mean of the
probes just before and after it.  Each distinct job of a pass (at least
100) then gets its median scaled latency across passes: jobs_per_s is the
number of jobs over the sum of these medians, and job_p50_ms / job_p90_ms
are Harrell-Davis quantile estimates over them.  setup_s is the median over several fresh interpreters,
spread before and after the loop, each timed from spawn until it is ready
to run the first job (imports, make_field for the workload's fields, one
warm-up count per field) and scaled by probes taken around it.  peak_rss_mb is this process's
ru_maxrss, with glibc's mmap threshold fixed so that it does not depend on
job order.  The human-readable lines give the median probe time, so a raw
time is about value * probe / nominal.

--trace 1 runs whole passes untraced for S/2 seconds, then as many passes
with spans around the library's public functions (tracing.py), then as many
untraced again (the reference for the tracing overhead), then once more,
with tracemalloc, the jobs that reach a function whose peak allocation is
reported.  It prints the per-layer metrics; times and counts are per
pass, and times and rates are scaled by the traced passes' median probe
(the ffield micro-timings by probes taken around them).  Spans, written to
.bench_out/ at exit, are not scaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever that line is
printed; a missing library or a failing setup exits 2 without it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = (4, 5)  # before and after the timed loop
PROBE_TIMEOUT_S = 60
# Fixed fields for the arithmetic micro-measurements, one per class.
MICRO_FIELDS = {"prime": (101, 1), "small_ext": (3, 4), "large_ext": (5, 4)}
MICRO_BATCH = 4000
# Host-speed probe: nominal seconds on a quiet host, and the probe interval.
PROBE_NOMINAL_S = 0.0015
PROBE_EVERY_S = 0.1


def _fix_mmap_threshold() -> None:
    """Serve every allocation over 128 KiB by mmap, returned to the system on free.

    glibc otherwise raises this threshold after each large free, and the peak
    RSS of a run then depends on the order its jobs happened to run in.
    """
    try:
        ctypes.CDLL("libc.so.6").mallopt(-3, 1 << 17)  # -3 is M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


class BenchError(Exception):
    """The benchmark cannot run here (no library, failed setup)."""


def _import_library():
    if not (ROOT / "src" / "fqincidence" / "__init__.py").is_file():
        raise BenchError(f"no library under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(workload: str) -> dict:
    """Everything before the first timed job; returns (p, n) -> FieldSpec."""
    import fqincidence
    from fqincidence import geom
    from perfbench import jobs

    if workload == "suites-cli":
        from fqincidence import cli  # noqa: F401
    fields = {}
    for p, n in jobs.fields_of(workload):
        fs = fields[(p, n)] = fqincidence.make_field(p, n)
        q = fs.q
        pts = [(i % q, (3 * i + 1) % q, (7 * i + 2) % q) for i in range(20)]
        planes = [geom.Plane3(((i % (q - 1)) + 1, i % q, 1), 1, False) for i in range(20)]
        geom.count_incidences(fs, pts, planes)
    return fields


class _ProbeField:
    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return (a * b) % self.p

    def add(self, a, b):
        return (a + b) % self.p


def host_probe() -> float:
    """Seconds taken by a fixed piece of interpreter work shaped like the jobs.

    Method calls, modular arithmetic and dict updates: the mix that most jobs
    spend their time in, and that a busy host slows the most.
    """
    f = _ProbeField(101)
    mul, add = f.mul, f.add
    counts = {}
    t0 = time.perf_counter()
    for x in range(80):
        for y in range(80):
            v = add(mul(x, y), mul(y, 7))
            counts[v] = counts.get(v, 0) + 1
    return time.perf_counter() - t0


def _child(args, probe: str) -> list[str]:
    """Command line of a fresh interpreter running one probe of this workload."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe", probe]


def _probe_setup(args) -> float:
    """Scaled wall time of one fresh interpreter from spawn until setup is done."""
    before = host_probe()
    t0 = time.perf_counter()
    with subprocess.Popen(_child(args, "setup"), stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("setup probe timed out") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"setup probe failed (exit {proc.returncode})")
    return elapsed * PROBE_NOMINAL_S / ((before + host_probe()) / 2)


def _probe_first_ops(args) -> dict:
    """First-operation cost per extension class, in a fresh interpreter."""
    res = subprocess.run(_child(args, "first-op"), capture_output=True, text=True,
                         cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if res.returncode != 0:
        raise BenchError(f"first-op probe failed: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _first_ops() -> dict:
    from fqincidence import make_field

    out = {}
    for cls in ("small_ext", "large_ext"):
        fs = make_field(*MICRO_FIELDS[cls])
        t0 = time.perf_counter()
        fs.mul(2, 3)
        out[f"ffield.first_op_ms.{cls}"] = (time.perf_counter() - t0) * 1000
    scale = _probe_scale()
    return {name: value * scale for name, value in out.items()}


def run_passes(prepared, seconds=None, passes=None, tracer=None):
    """Closed loop over whole passes.

    Returns (latencies, scaled latencies, outputs, probes), all in execution
    order, pass after pass, plus the number of passes.  A host probe runs
    every PROBE_EVERY_S between jobs and at the end of each pass; a job's
    scaled latency is its latency times PROBE_NOMINAL_S over the mean of the
    probes just before and just after it.
    """
    from perfbench.jobs import digest

    latencies, scaled, outputs, probes, reported = [], [], [], [], set()
    n = len(prepared)
    start = time.perf_counter()
    done = 0
    while True:
        marks = []  # (jobs run before the probe, probe seconds)
        next_probe = time.perf_counter()
        pass_lat = []
        for jid, (call, canon) in enumerate(prepared):
            if time.perf_counter() >= next_probe:
                marks.append((jid, host_probe()))
                next_probe = time.perf_counter() + PROBE_EVERY_S
            if tracer is not None:
                tracer.job = jid
            t0 = time.perf_counter()
            try:
                result = call()
                t1 = time.perf_counter()
                out = digest(canon(result))
            except Exception:  # a failing job is counted, the loop goes on
                t1 = time.perf_counter()
                out = None
                if jid not in reported:
                    reported.add(jid)
                    traceback.print_exc(file=sys.stderr)
            pass_lat.append(t1 - t0)
            outputs.append((jid, out))
        marks.append((n, host_probe()))
        k = 0
        for jid, lat in enumerate(pass_lat):
            while marks[k + 1][0] <= jid:
                k += 1
            scaled.append(lat * PROBE_NOMINAL_S * 2 / (marks[k][1] + marks[k + 1][1]))
        latencies += pass_lat
        probes += [m[1] for m in marks]
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
    return latencies, scaled, outputs, probes, done


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics, instead of one or two of
    them: where the jobs of a pass leave a gap in latency at the quantile,
    the estimate moves smoothly rather than jumping across it.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], t))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def count_failures(job_list, fields, outputs, recorded) -> int:
    """Executions whose output differs from the job's reference."""
    from perfbench import jobs

    ref_fields, expected = {}, {}
    for jid in sorted({jid for jid, _ in outputs}):
        job = job_list[jid]
        fs = fields[tuple(job["field"])] if "field" in job else None
        expected[jid] = jobs.digest(jobs.expected_output(job, fs, ref_fields, recorded))
    return sum(1 for jid, out in outputs if out != expected[jid])


def _probe_scale() -> float:
    """PROBE_NOMINAL_S over the median of a few host probes taken now."""
    return PROBE_NOMINAL_S / statistics.median(host_probe() for _ in range(5))


def _micro_field_ns(workload) -> dict:
    from fqincidence import make_field
    from perfbench.jobs import fields_of

    scale = _probe_scale()
    out = {}
    rng = random.Random(0)
    for cls, (p, n) in MICRO_FIELDS.items():
        fs = make_field(p, n)
        pairs = [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(MICRO_BATCH)]
        for op in ("mul", "add"):
            fn = getattr(fs, op)
            fn(1, 1)
            reps = []
            for _ in range(5):
                t0 = time.perf_counter()
                for a, b in pairs:
                    fn(a, b)
                reps.append((time.perf_counter() - t0) / MICRO_BATCH * 1e9)
            out[f"ffield.{op}_ns.{cls}"] = statistics.median(reps) * scale
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for p, n in fields_of(workload):
            make_field(p, n)
        reps.append((time.perf_counter() - t0) * 1000 / len(fields_of(workload)))
    out["ffield.make_field_ms"] = statistics.median(reps) * scale
    return out


def run(args, workdir: Path) -> dict:
    from perfbench import jobs
    from perfbench.tracing import PEAK_GROUPS, Tracer, layer_metrics, write_spans

    setup_times = []
    if not args.trace:
        setup_times = [_probe_setup(args) for _ in range(SETUP_PROBES[0])]
    fields = setup(args.workload)
    job_list = jobs.make_jobs(args.workload, args.seed)
    prepared = [jobs.materialize(job, fields, workdir) for job in job_list]
    recorded = json.loads((Path(__file__).parent / "expected.json").read_text())
    # Keep the job data out of the collector's way during the timed loop.
    gc.collect()
    gc.freeze()

    if not args.trace:
        lat, scaled, outputs, probes, passes = run_passes(prepared, seconds=args.seconds)
        setup_times += [_probe_setup(args) for _ in range(SETUP_PROBES[1])]
        failed = count_failures(job_list, fields, outputs, recorded)
        n = len(prepared)
        per_job_ms = [statistics.median(scaled[j::n]) * 1000 for j in range(n)]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": n / (sum(per_job_ms) / 1000),
            "job_p50_ms": hd_quantile(per_job_ms, 0.5),
            "job_p90_ms": hd_quantile(per_job_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")
        note = (f"{passes} passes of {n} jobs, percentiles over {n} per-job medians, "
                f"host probe {statistics.median(probes) * 1000:.2f} ms "
                f"(nominal {PROBE_NOMINAL_S * 1000:g})")
    else:
        # Untraced passes first (they also warm up), then as many traced, then
        # as many untraced again to compare the traced ones with.
        lat, _, outputs, probes, passes = run_passes(prepared, seconds=args.seconds / 2)
        with Tracer() as tracer:
            lat_t, scaled_t, outputs_t, probes_t, _ = run_passes(prepared, passes=passes,
                                                                 tracer=tracer)
        lat_u, scaled_u, outputs_u, probes_u, _ = run_passes(prepared, passes=passes)
        write_spans(OUT_DIR / f"spans-{args.workload}-s{args.seed}.csv", tracer.spans)
        # Memory pass: the jobs that reach a peak-measured function, once each.
        mem_jobs = sorted({span[4] for span in tracer.spans if span[0] in PEAK_GROUPS})
        with Tracer(peak=True) as mem:
            lat_m, _, outputs_m, _, _ = run_passes([prepared[j] for j in mem_jobs],
                                                   passes=1, tracer=mem)
        outputs_m = [(mem_jobs[i], out) for i, out in outputs_m]
        failed = count_failures(job_list, fields, outputs + outputs_t + outputs_u + outputs_m,
                                recorded)
        failed += sum(1 for a, b in zip(outputs_u, outputs_t) if a != b)
        lat = lat + lat_t + lat_u + lat_m
        metrics = layer_metrics(tracer.spans, passes)
        scale = PROBE_NOMINAL_S / statistics.median(probes_t)
        for name, unit in metric_units("per_layer").items():
            if unit == "s":
                metrics[name] *= scale
            elif unit == "1/s":
                metrics[name] /= scale
        metrics["trace.span_share"] = metrics.pop("_self_total_s") * passes / sum(lat_t)
        metrics["trace.overhead_share"] = sum(scaled_t) / sum(scaled_u) - 1
        metrics["host.probe_ms"] = statistics.median(probes + probes_t + probes_u) * 1000
        metrics.update({f"{g}.peak_alloc_mb": mb for g, mb in mem.peak_mb.items()})
        metrics.update(_micro_field_ns(args.workload))
        metrics.update(_probe_first_ops(args))
        units = metric_units("per_layer")
        note = (f"{passes} passes untraced, {passes} traced, {passes} untraced, "
                f"{len(mem_jobs)} jobs for memory, {len(tracer.spans)} spans")
    return {
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "note": note,
    }


def metric_units(section: str) -> dict:
    """Metric names and units of a BENCHMARK.json section, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "first-op"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _fix_mmap_threshold()
    try:
        _import_library()
        from perfbench import jobs

        if args.workload not in jobs.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; pick one of {jobs.WORKLOADS}")
        if args.probe == "setup":
            setup(args.workload)
            print("ready", flush=True)
            return 0
        if args.probe == "first-op":
            print(json.dumps(_first_ops()))
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
        try:
            result = run(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    note = result.pop("note")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {note}; "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"fail_share={result['failed'] / result['attempted']:.4g} (ratio)")
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
