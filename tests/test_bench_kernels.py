"""The benchmark's kernel jobs that hand flats to geom match their references.

perfbench/run.py checks every kernel job against perfbench/reference.py,
which rebuilds the field arithmetic in numpy and calls nothing here.  The
lines, planes, energy and vc_random jobs pass Line2, Plane3 and
plane_through_one lists to count_incidences, count_solutions and
neighborhood_system, so this replays the smallest job of each of those kinds
in kernels-prime, kernels-ext and vc-search (smallest by the product of its
input sizes), and a reader that miscounts them fails here first.  It reads
perfbench/ and changes nothing there; suites-cli is replayed by
test_bench_digests.py.
"""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import jobs  # noqa: E402

from fqincidence.ffield import make_field  # noqa: E402

KINDS = ("lines", "planes", "energy", "vc_random")
INPUTS = ("points", "lines", "planes", "a_set", "normals")
SEED = 1


def _smallest(workload: str) -> dict:
    """The smallest job of each kind in KINDS of one pass of workload."""
    out = {}
    for job in jobs.make_jobs(workload, SEED):
        if job["kind"] in KINDS:
            size = math.prod(len(job[key]) for key in INPUTS if key in job)
            if job["kind"] not in out or size < out[job["kind"]][0]:
                out[job["kind"]] = (size, job)
    return {kind: job for kind, (_, job) in out.items()}


CASES = [(workload, kind, job)
         for workload in ("kernels-prime", "kernels-ext", "vc-search")
         for kind, job in sorted(_smallest(workload).items())]


def test_every_kind_is_replayed():
    assert {kind for _, kind, _ in CASES} == set(KINDS)


@pytest.mark.parametrize("workload,kind,job", CASES,
                         ids=[f"{w}-{k}-GF{j['field'][0]}^{j['field'][1]}" for w, k, j in CASES])
def test_kernel_job_matches_its_reference(workload, kind, job, tmp_path):
    fs = make_field(*job["field"])
    call, canon = jobs.materialize(job, {tuple(job["field"]): fs}, tmp_path)
    assert canon(call()) == jobs.expected_output(job, fs, {}, {})
