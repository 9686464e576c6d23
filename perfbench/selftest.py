"""Checks on the benchmark itself (not part of the library's test suite).

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fqincidence import geom  # noqa: E402
from perfbench import jobs, reference, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _slice(workload, count, skip=(), kinds=None):
    fields = run.setup(workload)
    job_list = [j for j in jobs.make_jobs(workload, 5)
                if not any(s in j.get("key", "") for s in skip)
                and (kinds is None or j["kind"] in kinds)][:count]
    for i, job in enumerate(job_list):
        job["id"] = i
    return fields, job_list


def _run_cli(*args):
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=300)
    return res.returncode, res.stdout.strip().splitlines()


class JobListTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        for workload in jobs.WORKLOADS:
            a = json.dumps(jobs.make_jobs(workload, 7), sort_keys=True).encode()
            b = json.dumps(jobs.make_jobs(workload, 7), sort_keys=True).encode()
            c = json.dumps(jobs.make_jobs(workload, 8), sort_keys=True).encode()
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(jobs.WORKLOADS))


class PrintedMetricsTest(unittest.TestCase):
    def _check(self, trace, section):
        rc, lines = _run_cli("--workload", "kernels-prime", "--seed", "3",
                             "--seconds", "0.5", "--trace", str(trace))
        self.assertEqual(rc, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[section]])
        for m in SPEC[section]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_names(self):
        self._check(0, "end_to_end")

    def test_per_layer_names(self):
        self._check(1, "per_layer")

    def test_missing_library_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "perfbench").mkdir()
            (Path(tmp) / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
            for f in (ROOT / "perfbench").iterdir():
                if f.is_file():
                    (Path(tmp) / "perfbench" / f.name).write_bytes(f.read_bytes())
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "kernels-prime",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


class TracingTest(unittest.TestCase):
    def test_traced_outputs_equal_untraced(self):
        for workload, count, skip in (("kernels-prime", 8, ()),
                                      ("suites-cli", 12, ("q3mod4",))):
            fields, job_list = _slice(workload, count, skip)
            with tempfile.TemporaryDirectory() as tmp:
                prepared = [jobs.materialize(j, fields, Path(tmp)) for j in job_list]
                _, _, plain, _, _ = run.run_passes(prepared, passes=1)
                original = geom.count_incidences
                with Tracer() as tracer:
                    _, _, traced, _, _ = run.run_passes(prepared, passes=1, tracer=tracer)
            self.assertEqual(plain, traced, workload)
            self.assertIs(geom.count_incidences, original)
            self.assertTrue(tracer.spans, workload)
            self.assertEqual(run.count_failures(job_list, fields, traced, RECORDED), 0)

    def test_from_import_copies_are_traced(self):
        from fqincidence import cli, harness, reductions

        with Tracer():
            for mod in (geom, harness, reductions, cli):
                self.assertTrue(hasattr(mod.count_incidences, "__wrapped__"), mod.__name__)


class ReferenceBitesTest(unittest.TestCase):
    def test_corrupted_reference_counts_failures(self):
        fields, job_list = _slice("kernels-prime", 8, kinds=("planes", "energy"))
        prepared = [jobs.materialize(j, fields, Path(".")) for j in job_list]
        _, _, outputs, _, _ = run.run_passes(prepared, passes=1)
        self.assertEqual(run.count_failures(job_list, fields, outputs, RECORDED), 0)
        saved = reference.count_planes
        reference.count_planes = lambda rf, pts, planes: saved(rf, pts, planes) + 1
        try:
            failed = run.count_failures(job_list, fields, outputs, RECORDED)
        finally:
            reference.count_planes = saved
        planes_jobs = sum(1 for j in job_list if j["kind"] == "planes")
        self.assertGreater(planes_jobs, 0)
        self.assertEqual(failed, planes_jobs)

    def test_corrupted_digest_counts_failures(self):
        fields, job_list = _slice("suites-cli", 6, ("q3mod4",))
        with tempfile.TemporaryDirectory() as tmp:
            prepared = [jobs.materialize(j, fields, Path(tmp)) for j in job_list]
            _, _, outputs, _, _ = run.run_passes(prepared, passes=1)
        bad = dict(RECORDED)
        bad[job_list[0]["key"]] = [0, "0" * 32]
        self.assertEqual(run.count_failures(job_list, fields, outputs, bad), 1)


if __name__ == "__main__":
    unittest.main()
