"""The code README documents runs as written."""

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
