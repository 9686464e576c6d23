"""The README's examples and lists agree with the code.

Three checks: the python example runs and prints what its comments say (a
trailing "..." marks a prefix); the "Suites:" and "Presets:" lists name
harness.SUITE_NAMES and harness.PRESET_NAMES, in order; and the command-line
block names exactly the subcommands of cli.build_parser(), each shown with
flags of its own.
"""

import contextlib
import io
import re
from pathlib import Path

from fqincidence import cli, harness

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang: str, after: str = "") -> str:
    """The first fenced block of lang after the heading or text after."""
    start = README.index(after)
    return re.search(rf"^```{lang}\n(.*?)^```", README[start:], re.S | re.M).group(1)


def test_python_example_prints_its_comments():
    code = _block("python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert expected and len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want


def test_suite_and_preset_lists_match_the_harness():
    suites, presets = re.search(r"^Suites:(.*?)Presets:(.*?)\(", README, re.S | re.M).groups()
    assert tuple(re.findall(r"`([^`]+)`", suites)) == harness.SUITE_NAMES
    assert tuple(re.findall(r"`([^`]+)`", presets)) == harness.PRESET_NAMES


def test_command_line_block_matches_the_parser():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    shown: dict[str, set] = {}
    for line in _block("", "## Command line").splitlines():
        prog, name, *rest = line.split()
        assert prog == "fqincidence"
        shown.setdefault(name, set()).update(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    assert sorted(shown) == sorted(commands)
    for name, flags in shown.items():
        options = {s for action in commands[name]._actions for s in action.option_strings}
        assert flags <= options, (name, flags - options)
