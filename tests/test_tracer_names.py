"""Every function the benchmark tracer wraps by name still exists.

perfbench/tracing.py looks its functions up with getattr when a run asks for
spans (--trace 1); a helper renamed or deleted here would otherwise only
fail that run.  Every traced kernel that takes field input must also have
a row in the OUT_OF_RANGE table of test_apps, so that a new entry point is
checked for the inputs field_array refuses.  This reads the tracer's table
and changes nothing.
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


# traced functions that take no caller points, coordinates or coefficients
NO_FIELD_INPUT = {"all_planes_through_one", "vc_dimension", "shatter_function"}


@pytest.mark.parametrize("module", ["geom", "apps", "reductions", "setsys"])
def test_traced_kernels_have_an_out_of_range_row(module):
    from test_apps import OUT_OF_RANGE

    covered = {key.split("-")[0] for key in OUT_OF_RANGE}
    missing = sorted(set(_groups()[module]) - covered - NO_FIELD_INPUT)
    assert not missing, f"no OUT_OF_RANGE row in tests/test_apps.py for {missing}"
