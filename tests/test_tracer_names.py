"""Every function the benchmark tracer wraps by name still exists.

perfbench/tracing.py looks its functions up with getattr when a run asks for
spans (--trace 1); a helper renamed or deleted here would otherwise only
fail that run.  This reads the tracer's table and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _groups() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


@pytest.mark.parametrize("module,names", sorted(_groups().items()))
def test_traced_names_resolve(module, names):
    mod = importlib.import_module(f"fqincidence.{module}")
    missing = [name for name in names if not callable(getattr(mod, name, None))]
    assert not missing, f"fqincidence.{module} lacks {missing}"
