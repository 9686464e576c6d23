"""Run every workload on several seeds and record the spread of each metric.

    python3 perfbench/baseline.py [--seeds 1,2,...,10]

Each end-to-end metric gets the median and quartiles of its values over the
seeds and the spread (q3 - q1) / median that BENCHMARK.json's bounds are
checked against.  One traced run per workload (on the first seed) gives the
per-layer table.  Runs go one at a time, each in its own interpreter.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "git_sha": sha,
        "cpus": os.cpu_count(),
        "memory_gb": round(mem / 2**30, 1),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {**_machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
           "end_to_end": {}, "per_layer": {}}
    for workload in names:
        runs = [_run(workload, s, spec["run_seconds"], 0) for s in seeds]
        table = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"{workload:14s} {name:12s} median={med:10.4f} "
                  f"spread={(q3 - q1) / med:6.3f} bound={bounds[name]}", flush=True)
        out["end_to_end"][workload] = table
        traced = _run(workload, seeds[0], spec["run_seconds"], 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    path = Path(__file__).parent / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
