"""The benchmark's kernel jobs match their references.

perfbench/run.py checks every kernel job against perfbench/reference.py,
which rebuilds the field arithmetic in numpy and calls nothing here, and the
exhaustive vc-plane suite against its digest in perfbench/expected.json.
This replays the smallest job (by the product of its input sizes) of each
kind in each of kernels-prime, kernels-ext and vc-search: the counts that
take Line2, Plane3 and plane_through_one lists (lines, planes, energy,
vc_random), the reports that apps builds from point sets (dot, distance,
traces, regular) and the vc-plane suite, so an input reader or report part
that goes wrong fails here first.  The kinds come from the job lists
themselves, so a new kind fails test_every_kind_is_replayed until it is in
CASES.  The full_* kinds count the whole space at q = 16 and are checked
against the closed forms of perfbench/reference.py.  It reads perfbench/
and changes nothing there; suites-cli is replayed by test_bench_digests.py.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import jobs  # noqa: E402

from fqincidence.ffield import make_field  # noqa: E402

WORKLOADS = ("kernels-prime", "kernels-ext", "vc-search")
INPUTS = ("points", "lines", "planes", "a_set", "normals", "E", "F", "U", "Up")
SEED = 1
RECORDED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _smallest(workload: str) -> dict:
    """The smallest job of each kind of one pass of workload."""
    out = {}
    for job in jobs.make_jobs(workload, SEED):
        size = math.prod(len(job[key]) for key in INPUTS if key in job)
        if job["kind"] not in out or size < out[job["kind"]][0]:
            out[job["kind"]] = (size, job)
    return {kind: job for kind, (_, job) in out.items()}


CASES = [(workload, kind, job)
         for workload in WORKLOADS for kind, job in sorted(_smallest(workload).items())]


def test_every_kind_is_replayed():
    kinds = {job["kind"] for workload in WORKLOADS for job in jobs.make_jobs(workload, SEED)}
    assert {kind for _, kind, _ in CASES} == kinds


@pytest.mark.parametrize("workload,kind,job", CASES,
                         ids=[f"{w}-{k}-GF{j['field'][0]}^{j['field'][1]}" for w, k, j in CASES])
def test_kernel_job_matches_its_reference(workload, kind, job, tmp_path):
    fs = make_field(*job["field"])
    call, canon = jobs.materialize(job, {tuple(job["field"]): fs}, tmp_path)
    assert canon(call()) == jobs.expected_output(job, fs, {}, RECORDED)
