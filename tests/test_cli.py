import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamgate
from streamgate import cli, linalg
from streamgate.cli import RunConfig, fmt_real, main, parse_config
from streamgate.errors import ConfigError

SMALL = [
    "--scene-regions", "4",
    "--frame-tokens", "2",
    "--obs-channels", "8",
    "--channels", "8",
    "--layers", "2",
    "--frames", "5",
    "--seeds", "0,1",
]


def small(*flags):
    """SMALL with each `flag, value` pair of `flags` set: a flag may be given once."""
    values = dict(zip(SMALL[::2], SMALL[1::2]))
    values.update(zip(flags[::2], flags[1::2]))
    return [item for pair in values.items() for item in pair]


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


# --- parsing ---------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert run_cli([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


# The state holds one token per region, so no option sets its token count.
@pytest.mark.parametrize("flag", ["no-such-flag", "state-tokens"])
def test_unknown_flag_rejected(capsys, flag):
    assert run_cli(["ablate", f"--{flag}", "1", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --{flag} 1" in err


def test_tau_zero_rejected_naming_key(capsys):
    assert run_cli(["run", "--tau", "0", "--out", "x.csv"]) == 2
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seeds", "model-seed"])
def test_negative_seed_rejected_naming_key(capsys, key):
    assert run_cli(["run", f"--{key}", "-1", "--out", "x.csv"]) == 2
    assert key in capsys.readouterr().err


def test_non_numeric_value_rejected_naming_key(capsys):
    assert run_cli(["run", "--frames", "abc", "--out", "x.csv"]) == 2
    assert "frames" in capsys.readouterr().err


def test_out_required_for_writing_commands(capsys):
    assert run_cli(["ablate"]) == 2
    assert "out" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", [["fused", "--strategy", "fused"], ["uniform,fused,uniform"]])
def test_repeated_strategy_rejected_naming_key(capsys, strategy):
    assert run_cli(["ablate", "--strategy", *strategy, "--out", "x.csv"]) == 2
    assert "strategy" in capsys.readouterr().err


def test_repeated_seed_rejected_naming_key(capsys):
    assert run_cli(["ablate", "--seeds", "0,0", "--out", "x.csv"]) == 2
    assert "seeds: repeated value in [0, 0]" in capsys.readouterr().err


def test_degrade_lengths_must_be_sorted(capsys):
    assert run_cli(["degrade", "--lengths", "50,40", "--out", "x.csv"]) == 2
    assert "lengths" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["degrade", "run"])
def test_lengths_must_be_at_least_one(capsys, command):
    # the bound is in the --lengths parser, so it holds for every command
    assert run_cli([command, "--lengths", "0,5", "--out", "x.csv"]) == 2
    assert "lengths: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["drift-rate", "noise-sigma"])
@pytest.mark.parametrize("raw", ["1e39", "-0.5"])
def test_a_rate_outside_float32_range_is_rejected_naming_its_key(capsys, key, raw):
    bound = f">= 0 and <= float32's maximum {np.finfo(np.float32).max.item()!r}"
    assert parse_config(["run", f"--{key}", repr(np.finfo(np.float32).max.item()), "--out", "x.csv"])
    assert run_cli(["run", f"--{key}", raw, "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == f"error: {key}: must be {bound}, got {float(raw)}\n"


_F32_MAX = repr(np.finfo(np.float32).max.item())
_GATE_BOUND = f"> 0 and <= float32's maximum {_F32_MAX}"


# Each named refusal of bad input, given as (argv, config file text or
# None, message): status 2 and exactly one `error:` line.
@pytest.mark.parametrize("argv, config, message", [
    (["run", "--tau", "abc"], None, "tau: expected a number, got 'abc'"),
    (["run", "--tau", "nan"], None, "tau: must be finite, got 'nan'"),
    (["ablate", "--seeds", ","], None, "seeds: expected a comma-separated list"),
    (["run"], "tau 2.0\n", "config: line 1 is not key=value: 'tau 2.0'"),
    (["run", "--schedule", "sliding", "--frame-tokens", "20"], None,
     "frame-tokens: window cannot exceed scene-regions, got 20 > 16"),
    (["ablate", "--strategy", "fused"], None, "strategy: ablate needs at least 2 strategies"),
    (["sweep-tau", "--strategy", "uniform"], None, "strategy: sweep-tau runs only fused, not uniform"),
    (["sweep-tau", "--strategy", "fused,temporal"], None,
     "strategy: sweep-tau runs only fused, not fused,temporal"),
    (["degrade", "--lengths", "50"], None, "lengths: need at least 2 entries, got [50]"),
    (["run", "--tau", "1e39"], None, f"tau: must be {_GATE_BOUND}, got 1e+39"),
    (["run", "--eps-mean", "1e39"], None, f"eps-mean: must be {_GATE_BOUND}, got 1e+39"),
    (["run", "--spat-gain", "1e39"], None, f"spat-gain: must be {_GATE_BOUND}, got 1e+39"),
    (["sweep-tau", "--taus", "1,1e39"], None, f"taus: must be {_GATE_BOUND}, got 1e+39"),
    (["run", "--spat-bias=-1e39"], None,
     f"spat-bias: must be of magnitude <= float32's maximum {_F32_MAX}, got -1e+39"),
    (["run"], "spat-bias=1e39\n", f"spat-bias: must be of magnitude <= float32's maximum {_F32_MAX}, got 1e+39"),
    # A list splits only at commas: items separated by spaces are one value.
    (["ablate", "--frames", "1", "--seeds", "0 1 2"], None, "seeds: expected an integer, got '0 1 2'"),
    (["ablate", "--frames", "1"], "seeds=0 1 2\n", "seeds: expected an integer, got '0 1 2'"),
    (["sweep-tau", "--frames", "1", "--seeds", "0", "--taus", "0.5 1"], None,
     "taus: expected a number, got '0.5 1'"),
    (["sweep-tau", "--frames", "1", "--seeds", "0"], "taus=0.5 1\n", "taus: expected a number, got '0.5 1'"),
    (["degrade", "--seeds", "0", "--lengths", "2,5 50"], None, "lengths: expected an integer, got '5 50'"),
    (["degrade", "--seeds", "0"], "lengths=2,5 50\n", "lengths: expected an integer, got '5 50'"),
    (["ablate", "--strategy", "uni form"], None,
     "strategy: must be one of ['fused', 'spatial', 'temporal', 'uniform'], got 'uni form'"),
    (["ablate"], "strategy=uni form\n",
     "strategy: must be one of ['fused', 'spatial', 'temporal', 'uniform'], got 'uni form'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_named_error_exits_2_with_one_error_line(tmp_path, capsys, argv, config, message):
    argv = [*argv, "--out", str(tmp_path / "x.csv")]
    if config is not None:
        conf = tmp_path / "exp.conf"
        conf.write_text(config)
        argv += ["--config", str(conf)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_out_path_under_a_regular_file_exits_1_with_one_io_error_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert run_cli(["run", *SMALL, "--out", str(tmp_path / "file" / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1


def test_sweep_tau_rejects_nonpositive(capsys):
    assert run_cli(["sweep-tau", "--taus", "1.0,0", "--out", "x.csv"]) == 2
    assert "taus" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("tau=2.0\nnoise-sigma=0.1\n")
    cfg = parse_config(["run", "--config", str(conf), "--out", "x.csv"])
    assert cfg.tau == 2.0 and cfg.noise_sigma == 0.1
    cfg = parse_config(["run", "--config", str(conf), "--tau", "1.5", "--out", "x.csv"])
    assert cfg.tau == 1.5 and cfg.noise_sigma == 0.1


@pytest.mark.parametrize("key", ["taw", "state-tokens"])
def test_config_file_unknown_key_rejected(tmp_path, key):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{key}=2\n")
    with pytest.raises(ConfigError, match=rf"^config: unknown key '{key}' \(line 1\)$"):
        parse_config(["run", "--config", str(conf), "--out", "x.csv"])


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "empty-path"])
def test_an_unreadable_config_file_exits_2_naming_it(tmp_path, capsys, case):
    conf = tmp_path / "exp.conf"
    if case == "directory":
        conf.mkdir()
    elif case == "not-utf8":
        conf.write_bytes(b"tau=2.0\n# \xff\n")
    path = "" if case == "empty-path" else str(conf)
    assert run_cli(["run", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: cannot read {path!r}: ") and err.count("\n") == 1


# Every option takes one value per source, --strategy too: a list is one
# comma-separated value. A repeat in the config file names the key and
# both lines.
_DEFAULT = parse_config(["ablate", "--out", "x.csv"])
_VALUES = {key: cli._fmt_value(getattr(_DEFAULT, opt.field)) for key, opt in cli._OPTIONS.items()}


def _flag_argv(key, times):
    argv = ["ablate", *[item for _ in range(times) for item in (f"--{key}", _VALUES[key])]]
    return argv if key == "out" else [*argv, "--out", "x.csv"]


@pytest.mark.parametrize("key", sorted(cli._OPTIONS))
def test_a_repeated_flag_is_rejected_naming_its_key(capsys, key):
    parse_config(_flag_argv(key, 1))
    assert run_cli(_flag_argv(key, 2)) == 2
    assert capsys.readouterr().err == f"error: {key}: given 2 times, at most once allowed\n"


@pytest.mark.parametrize("key", sorted(cli._OPTIONS))
def test_a_key_repeated_in_the_config_file_is_rejected_naming_its_lines(tmp_path, key):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{key}={_VALUES[key]}\n")
    parse_config(["ablate", "--config", str(conf), "--out", "x.csv"])
    conf.write_text(f"{key}={_VALUES[key]}\n# again\n{key}={_VALUES[key]}\n")
    with pytest.raises(ConfigError, match=rf"^config: key '{key}' repeated \(lines 1 and 3\)$"):
        parse_config(["ablate", "--config", str(conf), "--out", "x.csv"])


def test_a_repeated_config_flag_is_rejected(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("tau=2.0\n")
    assert run_cli(["run", "--config", str(conf), "--config", str(conf), "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "error: config: given 2 times, at most once allowed\n"


def test_each_parse_of_the_one_parser_is_unaffected_by_the_one_before(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run_cli(["ablate", "--tau", "2.0", "--tau", "2.0", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "error: tau: given 2 times, at most once allowed\n"
    assert parse_config(["ablate", "--tau", "2.0", "--out", "x.csv"]) == RunConfig("ablate", tau=2.0, out="x.csv")
    conf = tmp_path / "exp.conf"
    conf.write_text("tau=2.0\n")
    cfg = parse_config(["run", "--config", str(conf), "--strategy", "uniform", "--out", "x.csv"])
    assert (cfg.tau, cfg.strategies) == (2.0, ("uniform",))
    assert parse_config(["run", "--out", "x.csv"]) == RunConfig(
        "run", strategies=("fused",), seeds=(0,), out="x.csv"
    )


# A config file comes only from --config: the process environment, whatever
# it holds, leaves the config and the output bytes as they are.
def test_the_environment_does_not_reach_a_run(tmp_path, monkeypatch):
    out = tmp_path / "run.csv"
    argv = ["run", *small("--frames", "3"), "--out", str(out)]
    monkeypatch.delenv("STREAMGATE_CONFIG", raising=False)
    unset = parse_config(argv)
    assert run_cli(argv) == 0
    written = out.read_bytes()
    conf = tmp_path / "env.conf"
    conf.write_text("frames=7\ntau=2.0\n")
    monkeypatch.setenv("STREAMGATE_CONFIG", str(conf))
    assert parse_config(argv) == unset
    assert run_cli(argv) == 0
    assert out.read_bytes() == written


# argparse reads a negative number in exponent notation as a flag, so on
# the command line such a value takes the --key=value form; the config
# file reads it as written.
def test_a_negative_exponent_value_takes_the_key_value_form(tmp_path, capsys):
    assert run_cli(["run", "--spat-bias", "-1e3", "--out", "x.csv"]) == 2
    assert "argument --spat-bias: expected one argument" in capsys.readouterr().err
    assert parse_config(["run", "--spat-bias", "-2", "--out", "x.csv"]).spat_bias == -2.0
    assert parse_config(["run", "--spat-bias=-1e3", "--out", "x.csv"]).spat_bias == -1000.0
    conf = tmp_path / "exp.conf"
    conf.write_text("spat-bias=-1e3\n")
    assert parse_config(["run", "--config", str(conf), "--out", "x.csv"]).spat_bias == -1000.0


def test_strategy_flag_takes_one_comma_list(capsys):
    cfg = parse_config(["ablate", "--strategy", "uniform,temporal", "--out", "x.csv"])
    assert cfg.strategies == ("uniform", "temporal")
    cfg = parse_config(["ablate", "--strategy", " uniform, fused ", "--out", "x.csv"])
    assert cfg.strategies == ("uniform", "fused")
    assert run_cli(["ablate", "--strategy", "bogus", "--out", "x.csv"]) == 2
    assert run_cli(["ablate", "--strategy", "uniform", "--strategy", "fused", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.endswith("error: strategy: given 2 times, at most once allowed\n")


def test_run_header_records_the_one_seed_and_strategy_it_ran(tmp_path):
    out = tmp_path / "run.csv"
    argv = ["run", *small("--frames", "3", "--seeds", "1,0"), "--strategy", "uniform,fused",
            "--out", str(out)]
    cfg = parse_config(argv)
    assert (cfg.seeds, cfg.strategies) == ((1,), ("uniform",))
    assert run_cli(argv) == 0
    lines = out.read_text().splitlines()
    assert "# config strategies=uniform" in lines and "# config seeds=1" in lines
    assert lines[-1].startswith("# summary strategy=uniform frames=3 ")


# Each writing command, run on a non-default strategy or seed choice where it
# takes one. Its header's strategies are those its rows and summary name, and
# its seeds those of the streams it ran (ablate's rows name them too).
HEADER_RUNS = {
    "run": ["--strategy", "uniform,fused", "--seeds", "1,0"],
    "ablate": ["--strategy", "fused,uniform", "--seeds", "2,0"],
    "degrade": ["--lengths", "2,3", "--seeds", "1,2"],
    "sweep-tau": ["--taus", "0.5,1.0", "--seeds", "1"],
}


@pytest.mark.parametrize("command", sorted(HEADER_RUNS))
def test_header_names_exactly_the_strategies_and_seeds_the_output_holds(tmp_path, monkeypatch, command):
    from streamgate import evaluation

    streamed = []
    stream = evaluation.seeded_stream
    spy = lambda world, seed: streamed.append(seed) or stream(world, seed)
    monkeypatch.setattr(evaluation, "seeded_stream", spy)
    monkeypatch.setattr(cli, "seeded_stream", spy)
    out = tmp_path / "o.jsonl"
    argv = [command, *small("--frames", "3", "--format", "jsonl", *HEADER_RUNS[command])]
    assert run_cli([*argv, "--out", str(out)]) == 0
    config, *records = [json.loads(line) for line in out.read_text().splitlines()]
    held = lambda values: ",".join(map(str, dict.fromkeys(values)))
    assert config["strategies"] == held(r["strategy"] for r in records if "strategy" in r)
    assert config["seeds"] == held(streamed)
    if command == "ablate":
        assert config["seeds"] == held(r["seed"] for r in records if "seed" in r)


def test_command_defaults():
    cfg = parse_config(["run", "--out", "x.csv"])
    assert cfg.strategies == ("fused",)
    assert cfg.seeds == (0,)
    cfg = parse_config(["ablate", "--out", "x.csv"])
    assert cfg.strategies == ("uniform", "temporal", "spatial", "fused")
    assert cfg.seeds == tuple(range(20))
    cfg = parse_config(["degrade", "--out", "x.csv"])
    assert cfg.strategies == ("uniform", "fused")
    assert cfg.lengths == (50, 500)
    cfg = parse_config(["sweep-tau", "--out", "x.csv"])
    assert cfg.strategies == ("fused",)


HELP_DEFAULTS = {
    "scene-regions": "16",
    "obs-channels": "32",
    "dynamic-fraction": "0.0",
    "drift-rate": "0.0",
    "noise-sigma": "0.05",
    "frame-tokens": "4",
    "channels": "32",
    "layers": "4",
    "model-seed": "0",
    "tau": "1.0",
    "eps-mean": "1e-08",
    "spat-gain": "1.0",
    "spat-bias": "0.0",
    "attn-source": "post",
    "schedule": "sliding",
    "period": "10",
    "frames": "300",
    "lengths": "50,500",
    "taus": "0.5,1.0,2.0",
    "strategy": "uniform,temporal,spatial,fused",
    "seeds": ",".join(map(str, range(20))),
    "out": None,
    "format": "csv",
    "dump-stream": None,
}
COMMAND_HELP_DEFAULTS = {
    "run": {"strategy": "fused", "seeds": "0"},
    "ablate": {},
    "degrade": {"strategy": "uniform,fused"},
    "sweep-tau": {"strategy": "fused"},
    "oracle-check": {},
}


@pytest.mark.parametrize("command", sorted(COMMAND_HELP_DEFAULTS))
def test_help_lists_every_option_with_command_default(capsys, command):
    assert run_cli([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split("options:")[-1].split())
    entries = dict(re.findall(r"--([a-z-]+) \S+ (.*?)(?= --[a-z]|$)", text))
    assert set(entries) - {"help", "config"} == set(HELP_DEFAULTS)
    for key, default in {**HELP_DEFAULTS, **COMMAND_HELP_DEFAULTS[command]}.items():
        if default is None:
            assert "(default" not in entries[key]
        else:
            assert entries[key].endswith(f"(default {default})"), (key, entries[key])


# --- real formatting --------------------------------------------------------


def test_fmt_real_nine_significant_digits():
    assert fmt_real(0.25) == "0.250000000"
    assert fmt_real(12345.6789) == "12345.6789"
    assert fmt_real(0.0) == "0.000000000"
    assert fmt_real(-0.5986876601) == "-0.598687660"
    assert fmt_real(1e-5) == "0.0000100000000"
    # Below 1e-31 and 1e-40, where capped decimals lost digits and then printed zero.
    assert fmt_real(-2.5e-35) == "-0." + "0" * 34 + "250000000"
    assert fmt_real(1.401298464324817e-45) == "0." + "0" * 44 + "140129846"  # float32's smallest


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e9, 1e9, exclude_min=True, exclude_max=True).filter(bool))
@example(1.401298464324817e-45)
@example(3.3e-32)
def test_fmt_real_reads_back_within_nine_significant_digits(v):
    assert abs(float(fmt_real(v)) - v) <= 5e-9 * abs(v)


# --- execution --------------------------------------------------------------


def test_run_writes_csv_with_config_and_schema(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run_cli(["run", *SMALL, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    config_lines = [l for l in lines if l.startswith("# config ")]
    assert any("command=run" in l for l in config_lines)
    assert any("tau=1.00000000" in l for l in config_lines)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "t,frame_error,mask_mean,mask_min,mask_max"
    rows = [l for l in lines[header_idx + 1:] if not l.startswith("#")]
    assert len(rows) == 5
    assert any(l.startswith("# summary ") for l in lines)


def test_run_config_keys_in_order(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(["run", *SMALL, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    keys = [l[len("# config "):].split("=")[0] for l in lines if l.startswith("# config ")]
    assert keys == [
        "command", "regions", "obs_channels", "dynamic_fraction", "drift_rate",
        "noise_sigma", "frame_tokens", "channels", "layers",
        "model_seed", "tau", "eps_mean", "spat_gain", "spat_bias", "attn_source",
        "schedule", "period", "frames", "lengths", "taus", "strategies", "seeds",
        "out", "fmt", "dump_stream",
    ]


def test_ablate_golden_schema(tmp_path):
    out = tmp_path / "ablate.csv"
    assert run_cli(["ablate", *SMALL, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "strategy,seed,frames,final_error,mean_mask"
    rows = [l for l in lines[header_idx + 1:] if not l.startswith("#")]
    assert len(rows) == 4 * 2  # strategies x seeds
    assert rows[0].split(",")[0] == "uniform"
    summaries = [l for l in lines if l.startswith("# summary ")]
    assert len(summaries) == 4
    assert "median_final_error=" in summaries[0] and "iqr_final_error=" in summaries[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", *SMALL],
        ["ablate", *SMALL],
        ["degrade", *SMALL, "--lengths", "3,6"],
        ["sweep-tau", *SMALL, "--taus", "0.5,1.0"],
    ],
)
def test_commands_byte_identical_across_reruns(tmp_path, argv):
    out = tmp_path / "a.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    first = out.read_bytes()
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == first


# SHA-256 of the output files of small configs. Their rows and summaries were
# recorded from the code before the experiments became reductions over one
# session grid. The files embed their own (relative) paths in the config header, so each command runs
# in a fresh directory. A change in any byte means a change in behaviour.
PINNED = {
    "run": (
        ["run", *small("--frames", "12"), "--schedule", "revisit", "--period", "3",
         "--drift-rate", "0.05", "--dynamic-fraction", "0.5", "--attn-source", "preabs",
         "--out", "run.csv", "--dump-stream", "trace.txt"],
        {
            "run.csv": "f15acc23a971c4c96ecaab15bbf203f67d7c9a5b67e06d016a05b0308456c198",
            "trace.txt": "1c022d2a233a2180cdee9272b552bdc5a3ab9d850932f21c0a16fdff56d1cccb",
        },
    ),
    "ablate-csv": (
        ["ablate", *SMALL, "--out", "ablate.csv"],
        {"ablate.csv": "e571233f5e3c0283d581e1abbfc3fe89afec4888199d1fcded47c020b72fceb2"},
    ),
    "ablate-jsonl": (
        ["ablate", *small("--seeds", "3,1,2"), "--strategy", "fused,uniform",
         "--format", "jsonl", "--out", "ablate.jsonl"],
        {"ablate.jsonl": "6a05e81ddd2e3309c2288b3a599d7f1f6cdece75690004966ffe62e557f55ee5"},
    ),
    "degrade-repeated-length": (
        ["degrade", *SMALL, "--lengths", "3,3,6", "--out", "degrade.csv"],
        {"degrade.csv": "adf00abec1ae8cdb74bd45770be513dea861d5b860270072efe7ba9bb691f226"},
    ),
    "sweep-tau-repeated-tau": (
        ["sweep-tau", *SMALL, "--taus", "0.5,0.5,2.0", "--out", "tau.csv"],
        {"tau.csv": "256e6969e3f3a41b8faaf3c3611bb655ee5ab5f1f85750854d2eb61f3ebe6f88"},
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_output_files_match_pinned_hashes(tmp_path, monkeypatch, name):
    argv, digests = PINNED[name]
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests


def test_run_generates_its_stream_once_with_or_without_a_dump(tmp_path, monkeypatch):
    from streamgate.world import StreamCursor

    advanced = []
    advance = StreamCursor._advance
    monkeypatch.setattr(StreamCursor, "_advance", lambda self: advanced.append(self.t) or advance(self))
    monkeypatch.chdir(tmp_path)
    argv, digests = PINNED["run"]
    frames = parse_config(argv).frames
    assert argv[-2:] == ["--dump-stream", "trace.txt"] and frames == 12
    assert run_cli(argv) == 0
    assert advanced == list(range(frames))  # the session and the dump read one generation
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests
    rows = [l for l in (tmp_path / "run.csv").read_text().splitlines() if not l.startswith("#")]

    advanced.clear()
    assert run_cli(argv[:-2]) == 0
    assert advanced == list(range(frames))
    assert rows == [l for l in (tmp_path / "run.csv").read_text().splitlines() if not l.startswith("#")]


def test_degrade_emits_growth_ratio_summary(tmp_path):
    out = tmp_path / "deg.csv"
    assert run_cli(["degrade", *SMALL, "--lengths", "3,6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "strategy,length,median_final_error"
    assert sum("growth_ratio=" in l for l in lines) == 2


def test_sweep_tau_schema(tmp_path):
    out = tmp_path / "tau.csv"
    assert run_cli(["sweep-tau", *SMALL, "--taus", "0.5,1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "tau,median_final_error"
    rows = [l for l in lines[header_idx + 1:] if not l.startswith("#")]
    assert len(rows) == 2


def test_jsonl_output_carries_same_records(tmp_path):
    out = tmp_path / "run.jsonl"
    assert run_cli(["run", *SMALL, "--format", "jsonl", "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records[0]["record"] == "config"
    assert records[0]["command"] == "run"
    rows = [r for r in records if r["record"] == "row"]
    assert len(rows) == 5
    assert set(rows[0]) == {"record", "t", "frame_error", "mask_mean", "mask_min", "mask_max"}
    assert records[-1]["record"] == "summary"


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(["run", *SMALL, "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_run_can_dump_stream_trace(tmp_path):
    from streamgate.world import load_stream

    out = tmp_path / "run.csv"
    trace = tmp_path / "trace.txt"
    code = run_cli(["run", *SMALL, "--out", str(out), "--dump-stream", str(trace)])
    assert code == 0
    steps = load_stream(trace, obs_channels=8)
    assert len(steps) == 5
    assert steps[0].t == 1 and steps[-1].t == 5


@pytest.mark.parametrize("trace", ["same.csv", "./same.csv", "sub/../same.csv", "link.csv"])
def test_out_and_dump_stream_may_not_name_one_file(tmp_path, monkeypatch, capsys, trace):
    # The output would overwrite the trace written just before it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.csv").symlink_to("same.csv")
    assert run_cli(["run", *SMALL, "--out", "same.csv", "--dump-stream", trace]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dump-stream: ") and " out" in err
    assert os.listdir(tmp_path) == ["link.csv"]


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"run"}))
def test_dump_stream_is_refused_by_every_command_but_run(tmp_path, monkeypatch, capsys, command):
    # Only run writes a trace; elsewhere the path would be recorded and nothing written.
    monkeypatch.chdir(tmp_path)
    argv = [command, *small("--frames", "3", "--seeds", "0"), "--out", "o.csv", "--dump-stream", "t.txt"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: dump-stream: only run writes a stream trace, not {command}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_outputs_get_the_umask_mode(tmp_path, umask, mode):
    out = tmp_path / "run.csv"
    trace = tmp_path / "trace.txt"
    old = os.umask(umask)
    try:
        assert run_cli(["run", *SMALL, "--out", str(out), "--dump-stream", str(trace)]) == 0
        assert run_cli(["run", *SMALL, "--out", str(out)]) == 0  # replacing a file too
    finally:
        os.umask(old)
    assert oct(out.stat().st_mode & 0o777) == oct(mode)
    assert oct(trace.stat().st_mode & 0o777) == oct(mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "trace.txt"]


# A StateError ends the run with one error line and status 1, no traceback
# and no output file; a ConfigError keeps status 2.
def test_a_state_error_is_one_error_line_with_status_1(tmp_path, capsys):
    out = tmp_path / "o.csv"
    argv = ["run", "--schedule", "full", "--frame-tokens", "4", "--dynamic-fraction", "0.5",
            "--drift-rate", "1e25", "--frames", "30", "--out", str(out)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: decode_step: non-finite candidate")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_oracle_check_passes(capsys):
    assert run_cli(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "oracle-check:" in out
    assert "FAIL" not in out


def test_oracle_check_writes_the_failing_row_of_a_kernel_returning_inf(tmp_path, capsys, monkeypatch):
    kernel = linalg.rowwise_max
    monkeypatch.setattr(linalg, "rowwise_max", lambda m: np.full_like(kernel(m), np.inf))
    out = tmp_path / "o.csv"
    assert run_cli(["oracle-check", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "rowwise_max: 1000 instances, max_rel_err=inf FAIL" in printed
    assert printed.endswith("oracle-check: 15/16 operations pass\n")
    rows = out.read_text().splitlines()
    assert "rowwise_max,1000,inf,false" in rows
    assert "# summary operations=16 failed=1" in rows


@pytest.mark.parametrize("x, text", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")])
def test_a_non_finite_real_is_written_as_inf_or_nan_and_reads_back(x, text):
    assert fmt_real(x) == text
    back = json.loads(json.dumps(cli._json_value(float(x))))
    assert back == x or (math.isnan(back) and math.isnan(x))


def test_console_script_entry_point(tmp_path):
    # the child process imports the same package as this one, installed or not
    package_root = os.path.dirname(os.path.dirname(streamgate.__file__))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "streamgate.cli", "run", *SMALL, "--out", str(tmp_path / "o.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "o.csv").exists()
