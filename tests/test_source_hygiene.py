"""Source hygiene of src/fqincidence, read with ast (no linter is needed).

Six checks: every private module-level function, class or constant is
referenced somewhere in src/ outside its own definition, every name a module
imports is used in that module (a package's __all__ counts as a use), no
module-level function or class name is defined in two modules, no module
but geom names geom's size rules or the kernels they choose between, so
only geom chooses a side of a count, no module but geom indexes the
normals of a Flats, so lines are built and read in slope form by geom's
slope_lines and line_coeffs alone, and no function but harness._draw calls
rng.sample, so every random subset is drawn, sorted and refused by one rule.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "fqincidence"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _references(tree):
    """Every name read, attribute taken or name imported in tree, with repeats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_module_names_are_referenced(path):
    everywhere = Counter(name for p in MODULES for name in _references(_tree(p)))
    unused = [name for name, node in _private_definitions(_tree(path))
              if everywhere[name] == Counter(_references(node))[name]]
    assert not unused, f"{path.name}: {unused} are never referenced in src/"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imported_names_are_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # a package re-exports what __all__ names
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    assert imported <= used, f"{path.name} imports {sorted(imported - used)} unused"


def test_function_and_class_names_are_defined_in_one_module():
    modules = {}
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                modules.setdefault(node.name, []).append(path.name)
    twice = {name: where for name, where in modules.items() if len(where) > 1}
    assert not twice, f"defined in more than one module: {twice}"


# geom's side rules and the kernels they choose between
GEOM_SIDES = {"spectrum_pays", "x_join_pays", "plane_field", "plane_groups", "flat_counts"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geom.py"],
                         ids=lambda p: p.name)
def test_only_geom_chooses_a_side_of_a_count(path):
    named = GEOM_SIDES.intersection(_references(_tree(path)))
    assert not named, f"{path.name} names {sorted(named)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geom.py"],
                         ids=lambda p: p.name)
def test_only_geom_indexes_flat_normals(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
             and node.value.attr == "normals"]
    assert not lines, f"{path.name} subscripts .normals at lines {lines}"


def test_only_harness_draw_calls_sample():
    sites = []
    for path in MODULES:
        tree = _tree(path)
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sample"):
                inner = max((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                sites.append((path.name, inner and inner.name, node.lineno))
    assert [site[:2] for site in sites] == [("harness.py", "_draw")], sites
