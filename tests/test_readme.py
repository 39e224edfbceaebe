"""The code README documents runs as written."""

import functools
import importlib
import math
import os
import re
import shlex

import pytest

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


# The benchmark section's claim figures, re-derived from fresh runs of the
# commands it names, compared at the precision the README prints.


def _run_named(section, command, directory):
    """Run the section's `streamgate <command> ...` with its --out in `directory`; the file's lines."""
    argv = shlex.split(re.search(rf"`streamgate ({command} [^`]*)`", section).group(1))
    at = argv.index("--out") + 1
    argv[at] = os.path.join(directory, argv[at])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    with open(argv[at], encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.fixture(scope="module")
def claims(tmp_path_factory):
    """The README's benchmark section, and the output lines of the ablate and degrade runs it names."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## The benchmark", 1)[1].split("\n## ", 1)[0]
    directory = tmp_path_factory.mktemp("claims")
    return section, {command: _run_named(section, command, directory) for command in ("ablate", "degrade")}


def _summaries(lines):
    """strategy -> its `# summary` record's fields."""
    records = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines if line.startswith("# summary ")]
    return {record["strategy"]: record for record in records}


def _rows(lines):
    """The data rows, as dicts keyed by the CSV header."""
    data = [line.split(",") for line in lines if not line.startswith("#")]
    return [dict(zip(data[0], row)) for row in data[1:]]


def _as_printed(value, printed):
    return f"{float(value):.{len(printed.split('.')[1])}f}"


def test_ablation_table_matches_a_fresh_ablate_run(claims):
    section, outputs = claims
    rows = _rows(outputs["ablate"])
    final = {(row["strategy"], row["seed"]): float(row["final_error"]) for row in rows}
    seeds = sorted({seed for _, seed in final})
    assert f"{len(seeds)} seeds)" in section
    assert {row["frames"] for row in rows} == {re.search(r"after (\d+) frames", section).group(1)}

    def wins(lower, higher):
        return sum(final[lower, seed] < final[higher, seed] for seed in seeds), len(seeds)

    summaries = _summaries(outputs["ablate"])
    table = section.split("| strategy | median final error |", 1)[1].split("\n\n", 1)[0]
    printed = re.findall(r"^\| (\w+)[^|]*\| (\d+\.\d+) \| (?:(\d+) of (\d+) )?\|$", table, re.M)
    assert sorted(name for name, *_ in printed) == sorted(summaries)
    for name, median, won, total in printed:
        assert _as_printed(summaries[name]["median_final_error"], median) == median, name
        counted = ("", "") if name == "fused" else tuple(map(str, wins("fused", name)))
        assert (won, total) == counted, name
    sentence = re.search(r"Temporal-only ends below spatial-only on (\d+) of (\d+) seeds", section)
    assert tuple(map(int, sentence.groups())) == wins("temporal", "spatial")


def test_growth_ratios_match_a_fresh_degrade_run(claims):
    section, outputs = claims
    lengths = sorted({int(row["length"]) for row in _rows(outputs["degrade"])})
    span = re.search(r"from (\d+) to (\d+)\s+frames", section).groups()
    assert tuple(map(int, span)) == (lengths[0], lengths[-1])
    summaries = _summaries(outputs["degrade"])
    printed = re.findall(r"the (\w+) strategy's (?:final error )?by (\d+\.\d+)", section)
    assert sorted(name for name, _ in printed) == sorted(summaries)
    for name, ratio in printed:
        assert _as_printed(summaries[name]["growth_ratio"], ratio) == ratio, name
