"""Every function the benchmark tracer wraps by name still exists.

perfbench/tracing.py looks its functions up with getattr when a run asks for
spans (--trace 1); a helper renamed or deleted here would otherwise only
fail that run, and so would a renamed parameter that an info hook of the
tracer's _INFO table reads by name.  Every traced kernel that takes field
input must also have a row in the OUT_OF_RANGE table of test_apps, so that
a new entry point is checked for the inputs field_array refuses.  This
reads the tracer's tables and changes nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _groups() -> dict:
    return _tracing().GROUPS


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


class _Arg:
    """Stands in for any argument an info hook reads: empty, a field of
    prime order, a set system with no members."""

    n, q, family = 1, 2, ()

    def __len__(self):
        return 0


class _Bound(dict):
    """Bound arguments, one _Arg per parameter name, that record the names
    an info hook reads."""

    def __init__(self, names):
        super().__init__((name, _Arg()) for name in names)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("name", sorted(_tracing()._INFO))
def test_info_hooks_read_parameters_their_functions_take(name):
    # an info hook reads the call's arguments by name (count_incidences:
    # points and flats), so a renamed parameter would fail only --trace 1
    tracing = _tracing()
    module = next(m for m, names in tracing.GROUPS.items() if name in names)
    params = inspect.signature(getattr(importlib.import_module(f"fqincidence.{module}"), name)).parameters
    bound = _Bound(params)
    try:
        tracing._INFO[name](bound)
    except KeyError as missing:
        pytest.fail(f"fqincidence.{module}.{name} takes no parameter {missing}")
    assert bound.read, f"the info hook of {name} reads none of its parameters"
