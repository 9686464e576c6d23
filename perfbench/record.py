"""Record the digests in expected.json from the library as it stands.

    python3 perfbench/record.py

The CLI outputs of suites-cli (CSV without elapsed_ms, preset files,
reader stdout, exit codes) and the rows of the exhaustive vc-plane suites
have no independent closed form, so they are pinned to the outputs of the
commit that recorded them.  Re-record only when an output is meant to
change, and say so in the change that does it.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fqincidence import make_field  # noqa: E402
from perfbench import jobs  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=out_dir))
    recorded = {}
    try:
        for p, n in jobs.VC_EXHAUSTIVE:
            fields = {(p, n): make_field(p, n)}
            call, canon = jobs.materialize({"kind": "vc_suite", "field": [p, n]}, fields, workdir)
            failures, vc_ok, rows = canon(call())
            if failures or not vc_ok:
                raise SystemExit(f"vc-plane at q = {p ** n} fails its own checks")
            recorded[f"vc-plane/q{p ** n}"] = rows
        for seed in jobs.CLI_SEED_GRID:
            for unit in jobs.cli_units(lambda: seed):
                for job in unit:
                    call, canon = jobs.materialize(job, {}, workdir)
                    rc, dig = canon(call())
                    if rc == 1:
                        raise SystemExit(f"{job['key']} exits 1")
                    recorded[job["key"]] = [rc, dig]
            print(f"seed {seed}: {len(recorded)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).parent / "expected.json"
    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(recorded.items()))
    path.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(recorded)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
