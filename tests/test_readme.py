"""The code README documents runs as written."""

import functools
import importlib
import math
import os
import re

from streamgate import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_use_snippet_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1].split("\n## ", 1)[0]
    snippets = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(snippets) == 1
    exec(compile(snippets[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    for line in printed:
        assert math.isfinite(float(line.split()[0])) and float(line.split()[0]) > 0


def test_flag_lists_name_exactly_the_cli_options():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    lists = text.split("Scene and model flags:", 1)[1].split("`streamgate <command> --help`", 1)[0]
    assert "Gate flags:" in lists and "Experiment flags:" in lists
    assert set(re.findall(r"--([a-z][a-z-]*)", lists)) == set(cli._OPTIONS)


def _module_table():
    """(module name, contents) per row of the README's module table."""
    with open(README, encoding="utf-8") as fh:
        table = fh.read().split("| module | contents |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(streamgate\.\w+)` \| (.*) \|$", table, re.M)


def test_module_table_names_only_what_its_modules_define():
    # A call (`name(`) or a class (`CamelCase`, `Class.attr`) in backticks
    # must resolve in the module of its row, so a rename or deletion fails here.
    rows = _module_table()
    assert [module for module, _ in rows] == [
        "streamgate.linalg", "streamgate.gating", "streamgate.decoder", "streamgate.world",
        "streamgate.evaluation", "streamgate.cli", "streamgate.oracle",
    ]
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]+)`", contents):
            name = re.match(r"(\w+(?:\.\w+)*)\(|([A-Z]\w*(?:\.\w+)*)$", span)
            if name is None:
                continue
            path = (name.group(1) or name.group(2)).split(".")
            try:
                functools.reduce(getattr, path, module)
            except AttributeError:
                missing.append(f"{module_name}: {span}")
    assert not missing
