"""Command-line entry point.

Subcommands: run | ablate | degrade | sweep-tau | oracle-check. Options can
come from flags, from a flat key=value config file (--config, or the
STREAMGATE_CONFIG environment variable), or from defaults, with flags
taking precedence over the file and the file over defaults. Unknown keys
are rejected, as is a key given twice in one source (only --strategy
repeats, as a flag), and every constraint violation names the offending
key.

_OPTIONS maps each option key to its RunConfig field, a parser that also
enforces the key's own bound, and its help text; COMMANDS maps each
subcommand to what it computes and how it departs from the defaults.

Output files are written atomically (temp file, then rename), embed the
full effective config as header records, and are byte-identical across
reruns of the same config. Reals are serialized with 9 significant digits
in fixed notation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

from .decoder import make_weights
from .errors import ConfigError, StreamGateError
from .evaluation import (
    WorldSpec,
    degradation_curve,
    run_ablation,
    run_session,
    seeded_stream,
    tau_sweep,
)
from .gating import AttnSource, GateConfig, Strategy
from .linalg import F32_MAX
from .oracle import run_oracle_suite
from .world import CoverageSchedule, ScheduleKind, _StreamTape, atomic_write, dump_stream

ENV_CONFIG = "STREAMGATE_CONFIG"

_WORLD = WorldSpec()
_GATE = GateConfig()
_MODEL = inspect.signature(make_weights).parameters

_ATTN_SOURCES = tuple(a.value for a in AttnSource)
_SCHEDULES = tuple(k.value for k in ScheduleKind)
_STRATEGIES = tuple(s.value for s in Strategy)
_FORMATS = ("csv", "jsonl")


@dataclass
class RunConfig:
    """Fully validated effective configuration of one CLI invocation."""

    command: str
    regions: int = _WORLD.regions
    obs_channels: int = _WORLD.obs_channels
    dynamic_fraction: float = _WORLD.dynamic_fraction
    drift_rate: float = _WORLD.drift_rate
    noise_sigma: float = _WORLD.noise_sigma
    state_tokens: int | None = None  # None: one state token per region
    frame_tokens: int = _WORLD.schedule.window
    channels: int = _MODEL["channels"].default
    layers: int = _MODEL["n_layers"].default
    model_seed: int = _MODEL["seed"].default
    tau: float = _GATE.tau
    eps_mean: float = _GATE.eps_mean
    spat_gain: float = _GATE.spat_gain
    spat_bias: float = _GATE.spat_bias
    attn_source: str = _GATE.attn_source.value
    schedule: str = _WORLD.schedule.kind.value
    period: int = _WORLD.schedule.period
    frames: int = 300
    lengths: tuple[int, ...] = (50, 500)
    taus: tuple[float, ...] = (0.5, 1.0, 2.0)
    strategies: tuple[str, ...] = ("uniform", "temporal", "spatial", "fused")
    seeds: tuple[int, ...] = tuple(range(20))
    out: str = ""
    fmt: str = "csv"
    dump_stream: str = ""

    def __post_init__(self) -> None:
        if self.state_tokens is None:
            self.state_tokens = self.regions


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_real(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return v


def _bounded(parse, bound: str, ok: Callable[[float], bool]):
    """`parse`, then reject a value outside `bound` naming the key."""

    def parser(key: str, raw: str):
        v = parse(key, raw)
        if not ok(v):
            raise ConfigError(f"{key}: must be {bound}, got {v}")
        return v

    return parser


_COUNT = _bounded(_parse_int, ">= 1", lambda v: v >= 1)
_SEED = _bounded(_parse_int, ">= 0", lambda v: v >= 0)
# The bounds GateConfig checks on the gate knobs, and world on a scene's
# drift rate and a cursor's noise sigma.
_POSITIVE = _bounded(_parse_real, f"> 0 and <= float32's maximum {F32_MAX!r}", lambda v: 0 < v <= F32_MAX)
_REAL32 = _bounded(_parse_real, f"of magnitude <= float32's maximum {F32_MAX!r}", lambda v: abs(v) <= F32_MAX)
_RATE = _bounded(_parse_real, f">= 0 and <= float32's maximum {F32_MAX!r}", lambda v: 0 <= v <= F32_MAX)
_FRACTION = _bounded(_parse_real, "in [0, 1]", lambda v: 0 <= v <= 1)


def _choice(values):
    """Parser accepting exactly one of `values`."""
    names = sorted(values)

    def parser(key: str, raw: str) -> str:
        if raw not in names:
            raise ConfigError(f"{key}: must be one of {names}, got {raw!r}")
        return raw

    return parser


def _list(item, unique: bool = False):
    """Parser for a comma-separated list of `item` values."""

    def parser(key: str, raw: str) -> tuple:
        values = tuple(item(key, s) for s in raw.replace(" ", "").split(",") if s)
        if not values:
            raise ConfigError(f"{key}: expected a comma-separated list")
        if unique and len(set(values)) < len(values):
            raise ConfigError(f"{key}: repeated value in {list(values)}")
        return values

    return parser


def _text(key: str, raw: str) -> str:
    return raw


def _metavar(names) -> str:
    return "{" + "|".join(names) + "}"


@dataclass(frozen=True)
class _Option:
    field: str
    parse: Callable[[str, str], object]
    help: str
    metavar: str = "V"
    repeatable: bool = False


_OPTIONS: dict[str, _Option] = {
    "scene-regions": _Option("regions", _COUNT, "ground-truth regions R"),
    "obs-channels": _Option("obs_channels", _COUNT, "observation channels"),
    "dynamic-fraction": _Option("dynamic_fraction", _FRACTION, "fraction of regions that drift"),
    "drift-rate": _Option("drift_rate", _RATE, "per-step drift of dynamic regions"),
    "noise-sigma": _Option("noise_sigma", _RATE, "observation noise std"),
    "state-tokens": _Option(
        "state_tokens", _COUNT, "state tokens N; must equal scene-regions (default scene-regions)"
    ),
    "frame-tokens": _Option("frame_tokens", _COUNT, "frame tokens K = sliding-window width"),
    "channels": _Option("channels", _COUNT, "feature channels C"),
    "layers": _Option("layers", _COUNT, "decoder layers L"),
    "model-seed": _Option("model_seed", _SEED, "decoder weight seed"),
    "tau": _Option("tau", _POSITIVE, "temporal gate threshold"),
    "eps-mean": _Option("eps_mean", _POSITIVE, "mean-delta guard of the temporal gate"),
    "spat-gain": _Option("spat_gain", _POSITIVE, "spatial gate gain"),
    "spat-bias": _Option("spat_bias", _REAL32, "spatial gate bias"),
    "attn-source": _Option(
        "attn_source", _choice(_ATTN_SOURCES), "attention the spatial gate reads",
        _metavar(_ATTN_SOURCES),
    ),
    "schedule": _Option("schedule", _choice(_SCHEDULES), "coverage schedule", _metavar(_SCHEDULES)),
    "period": _Option("period", _COUNT, "revisit period in frames"),
    "frames": _Option("frames", _COUNT, "frames per session"),
    "lengths": _Option("lengths", _list(_COUNT), "comma list of stream lengths for degrade"),
    "taus": _Option("taus", _list(_POSITIVE), "comma list of thresholds for sweep-tau"),
    "strategy": _Option(
        "strategies",
        _list(_choice(_STRATEGIES), unique=True),
        "update strategy (repeatable or comma-separated)",
        _metavar(_STRATEGIES),
        repeatable=True,
    ),
    "seeds": _Option("seeds", _list(_SEED, unique=True), "comma list of experiment seeds"),
    "out": _Option("out", _text, "output file path (required by every command but oracle-check)"),
    "format": _Option("fmt", _choice(_FORMATS), "output format", _metavar(_FORMATS)),
    "dump-stream": _Option("dump_stream", _text, "also write the run's stream trace to this path"),
}

_REPEATABLE = {key for key, opt in _OPTIONS.items() if opt.repeatable}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def fmt_real(x: float) -> str:
    """Fixed-notation decimal with 9 significant digits; `inf`, `-inf` or `nan` if not finite."""
    v = float(x)
    if not math.isfinite(v):
        return repr(v)
    if v == 0.0:
        return "0.000000000"
    decimals = max(9 - 1 - math.floor(math.log10(abs(v))), 0)
    return f"{v:.{decimals}f}"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_real(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _json_value(v):
    if isinstance(v, float):
        return float(fmt_real(v))
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return v


def _config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    return [(f.name, _fmt_value(getattr(cfg, f.name))) for f in fields(cfg)]


def write_csv(path, cfg, header, rows, summary) -> None:
    """CSV with `# config` header records and a `# summary` block."""
    lines = [f"# config {k}={v}" for k, v in _config_items(cfg)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt_value(row[h]) for h in header))
    for record in summary:
        pairs = " ".join(f"{k}={_fmt_value(v)}" for k, v in record.items())
        lines.append(f"# summary {pairs}")
    atomic_write(path, (line + "\n" for line in lines))


def write_jsonl(path, cfg, header, rows, summary) -> None:
    """JSON-lines carrying the same records as the CSV writer."""
    records = [{"record": "config", **dict(_config_items(cfg))}]
    records.extend({"record": "row", **{h: _json_value(r[h]) for h in header}} for r in rows)
    records.extend({"record": "summary", **{k: _json_value(v) for k, v in s.items()}} for s in summary)
    atomic_write(path, (json.dumps(r, ensure_ascii=True) + "\n" for r in records))


def _gate_config(cfg: RunConfig) -> GateConfig:
    return GateConfig(
        tau=cfg.tau,
        eps_mean=cfg.eps_mean,
        spat_gain=cfg.spat_gain,
        spat_bias=cfg.spat_bias,
        attn_source=AttnSource(cfg.attn_source),
    )


def _world_spec(cfg: RunConfig) -> WorldSpec:
    return WorldSpec(
        regions=cfg.regions,
        obs_channels=cfg.obs_channels,
        dynamic_fraction=cfg.dynamic_fraction,
        drift_rate=cfg.drift_rate,
        noise_sigma=cfg.noise_sigma,
        schedule=CoverageSchedule(
            kind=ScheduleKind(cfg.schedule), window=cfg.frame_tokens, period=cfg.period
        ),
    )


def _experiment(cfg: RunConfig):
    """(world, weights, gate config, strategies) of a validated config."""
    weights = make_weights(
        n_layers=cfg.layers,
        channels=cfg.channels,
        obs_channels=cfg.obs_channels,
        seed=cfg.model_seed,
    )
    strategies = [Strategy(s) for s in cfg.strategies]
    return _world_spec(cfg), weights, _gate_config(cfg), strategies


def _rows(header: list[str], values) -> list[dict]:
    return [dict(zip(header, v)) for v in values]


def _run(cfg: RunConfig):
    world, weights, gate_cfg, strategies = _experiment(cfg)
    stream = seeded_stream(world, cfg.seeds[0])
    # A dump writes the steps the session recorded; a run without one keeps no tape.
    tape = _StreamTape(stream) if cfg.dump_stream else None
    session = tape.cursor() if tape else stream
    result = run_session(session, weights, gate_cfg, strategies[0], cfg.frames)
    if tape:
        dump_stream(cfg.dump_stream, tape.steps)
    header = ["t", "frame_error", "mask_mean", "mask_min", "mask_max"]
    frames = zip(result.per_frame_error, result.mask_stats)
    rows = _rows(header, ((t, e, *stats) for t, (e, stats) in enumerate(frames, start=1)))
    summary = [
        {
            "strategy": result.strategy.value,
            "frames": result.frames,
            "final_error": result.final_error,
        }
    ]
    return header, rows, summary


def _ablate(cfg: RunConfig):
    world, weights, gate_cfg, strategies = _experiment(cfg)
    table = run_ablation(world, weights, gate_cfg, strategies, cfg.frames, list(cfg.seeds))
    header = ["strategy", "seed", "frames", "final_error", "mean_mask"]
    rows = _rows(
        header,
        ((r.strategy.value, r.seed, r.frames, r.final_error, r.mean_mask) for r in table.rows),
    )
    summary = [
        {
            "strategy": s.strategy.value,
            "median_final_error": s.median_final_error,
            "iqr_final_error": s.iqr_final_error,
        }
        for s in table.summary
    ]
    return header, rows, summary


def _degrade(cfg: RunConfig):
    world, weights, gate_cfg, strategies = _experiment(cfg)
    report = degradation_curve(
        world, weights, gate_cfg, strategies, list(cfg.lengths), list(cfg.seeds)
    )
    header = ["strategy", "length", "median_final_error"]
    rows = _rows(
        header,
        (
            (s.value, n, e)
            for s in strategies
            for n, e in zip(report.lengths, report.errors_by_strategy[s])
        ),
    )
    summary = [
        {"strategy": s.value, "growth_ratio": report.growth_ratio[s]} for s in strategies
    ]
    return header, rows, summary


def _sweep_tau(cfg: RunConfig):
    world, weights, gate_cfg, _ = _experiment(cfg)
    table = tau_sweep(world, weights, gate_cfg, list(cfg.taus), cfg.frames, list(cfg.seeds))
    header = ["tau", "median_final_error"]
    summary = [{"strategy": "fused", "taus": len(table)}]
    return header, _rows(header, table), summary


def _oracle_check(cfg: RunConfig):
    reports = run_oracle_suite()
    failed = sum(not r.passed for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.op}: {r.instances} instances, max_rel_err={r.max_rel_err:.3e} {status}")
    print(f"oracle-check: {len(reports) - failed}/{len(reports)} operations pass")
    header = ["op", "instances", "max_rel_err", "passed"]
    rows = _rows(header, ((r.op, r.instances, r.max_rel_err, r.passed) for r in reports))
    return header, rows, [{"operations": len(reports), "failed": failed}]


@dataclass(frozen=True)
class _Command:
    """A subcommand. Unless `writes` is false it requires --out and reports
    the write; a summary record with a nonzero `failed` count exits 1."""

    help: str
    compute: Callable[[RunConfig], tuple[list, list, list]]
    writes: bool = True
    defaults: dict = field(default_factory=dict)


COMMANDS: dict[str, _Command] = {
    "run": _Command(
        "single streaming session", _run, defaults={"strategies": ("fused",), "seeds": (0,)}
    ),
    "ablate": _Command("strategy ablation grid", _ablate),
    "degrade": _Command(
        "error growth vs stream length", _degrade, defaults={"strategies": ("uniform", "fused")}
    ),
    "sweep-tau": _Command("temporal threshold sweep", _sweep_tau),
    "oracle-check": _Command("brute-force equivalence suite", _oracle_check, writes=False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamgate",
        description="Streaming adaptive state-update experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    base = {f.name: f.default for f in fields(RunConfig)}
    for name, command in COMMANDS.items():
        defaults = {**base, **command.defaults}
        options = sub.add_parser(name, help=command.help)
        # Every flag collects its occurrences; parse_config rejects a repeat
        # of any but a repeatable one. Each help shows the command's default.
        options.add_argument("--config", action="append", default=[],
                             help="flat key=value config file")
        for key, opt in _OPTIONS.items():
            default = defaults[opt.field]
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            shown = "" if default in (None, "") else f" (default {default})"
            options.add_argument(f"--{key}", dest=key, default=argparse.SUPPRESS, action="append",
                                 metavar=opt.metavar, help=opt.help + shown)
    return parser


# Built once: a parse leaves nothing behind in the parser, only in its namespace.
_PARSER = _build_parser()


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not key=value: {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"config: unknown key {key!r} (line {lineno})")
        if key in first_line:
            raise ConfigError(f"config: key {key!r} repeated (lines {first_line[key]} and {lineno})")
        first_line[key] = lineno
        values[key] = raw.strip()
    return values


def _validate(cfg: RunConfig) -> None:
    """Rules that tie options together; each key's own bound is in its parser."""
    if cfg.state_tokens != cfg.regions:
        raise ConfigError(
            "state-tokens: must equal scene-regions (one state token per "
            f"region), got {cfg.state_tokens} vs {cfg.regions}"
        )
    if cfg.schedule != "full" and cfg.frame_tokens > cfg.regions:
        raise ConfigError(
            f"frame-tokens: window cannot exceed scene-regions, got "
            f"{cfg.frame_tokens} > {cfg.regions}"
        )
    if cfg.command == "ablate" and len(cfg.strategies) < 2:
        raise ConfigError("strategy: ablate needs at least 2 strategies")
    if cfg.command == "degrade":
        if len(cfg.lengths) < 2:
            raise ConfigError(f"lengths: need at least 2 entries, got {list(cfg.lengths)}")
        if any(b < a for a, b in zip(cfg.lengths, cfg.lengths[1:])):
            raise ConfigError(f"lengths: must be sorted ascending, got {list(cfg.lengths)}")
    if COMMANDS[cfg.command].writes and not cfg.out:
        raise ConfigError("out: an output path is required for this command")
    if cfg.dump_stream and cfg.command != "run":
        raise ConfigError(f"dump-stream: only run writes a stream trace, not {cfg.command}")
    if cfg.out and cfg.dump_stream and os.path.realpath(cfg.out) == os.path.realpath(cfg.dump_stream):
        raise ConfigError(f"dump-stream: names the same file as out, {cfg.dump_stream!r}")


def parse_config(argv=None) -> RunConfig:
    """Parse flags plus optional config file into a validated RunConfig."""
    given = vars(_PARSER.parse_args(argv))
    command = given.pop("command")
    for key, raw in given.items():
        if len(raw) > 1 and key not in _REPEATABLE:
            raise ConfigError(f"{key}: given {len(raw)} times, at most once allowed")
    config_path = "".join(given.pop("config")) or os.environ.get(ENV_CONFIG)  # at most one path

    merged = dict(COMMANDS[command].defaults)
    sources = [_read_config_file(config_path)] if config_path else []
    flags = {key: ",".join(raw) for key, raw in given.items()}  # a repeatable flag's values join
    for values in (*sources, flags):
        for key, raw in values.items():
            option = _OPTIONS[key]
            merged[option.field] = option.parse(key, raw)
    if command == "run":  # one session: the header records the seed and strategy it ran
        merged["seeds"], merged["strategies"] = merged["seeds"][:1], merged["strategies"][:1]

    cfg = RunConfig(command=command, **merged)
    _validate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def execute(cfg: RunConfig) -> int:
    """Run a validated config's command; returns the process exit status."""
    command = COMMANDS[cfg.command]
    header, rows, summary = command.compute(cfg)
    if cfg.out:
        writer = write_csv if cfg.fmt == "csv" else write_jsonl
        writer(cfg.out, cfg, header, rows, summary)
    if command.writes:
        print(f"wrote {cfg.out}")
    return 1 if any(s.get("failed") for s in summary) else 0


def main(argv=None) -> None:
    try:
        status = execute(parse_config(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except StreamGateError as exc:  # a StateError: the run's values left float32's range
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    raise SystemExit(status)


if __name__ == "__main__":
    main()
