"""Every suites-cli output of the benchmark matches its recorded digest.

The benchmark rejects a run whose outputs differ from perfbench/expected.json;
this replays each suites-cli job (every suite, preset and file reader through
cli.main at q = 7, 9, 11), once per preset seed in CLI_SEED_GRID, so such a
difference fails here first.  It reads perfbench/ and changes nothing there.
The exhaustive vc-plane digest belongs to a vc_suite job and stays with the
benchmark.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import jobs  # noqa: E402

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def test_suites_cli_outputs_match_expected(tmp_path):
    seen, wrong = set(), []
    for seed in jobs.CLI_SEED_GRID:
        workdir = tmp_path / f"s{seed}"
        workdir.mkdir()
        for unit in jobs.cli_units(lambda: seed):
            for job in unit:
                if job["key"] in seen:
                    continue
                seen.add(job["key"])
                call, canon = jobs.materialize(job, {}, workdir)
                if list(canon(call())) != EXPECTED.get(job["key"]):
                    wrong.append(job["key"])
    assert not wrong, f"outputs differ from perfbench/expected.json: {wrong}"
    assert seen == {key for key in EXPECTED if key.split("/")[0] != "vc-plane"}
