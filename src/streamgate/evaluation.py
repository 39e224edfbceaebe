"""End-to-end streaming sessions and forgetting/retention metrics.

A session iterates encode -> decode -> gated state update over a synthetic
stream and scores the per-token readout against the scene's current
ground-truth codes, both living in feature space (truth is mapped through
the same fixed encoder projection). Because the toy readout has arbitrary
scale, a per-frame least-squares scalar alignment is applied before the
error is taken; the per-frame error is the mean over regions of the
aligned L2 distance.

The initial persistent state is the encoder projection of the region codes
plus a seeded Gaussian perturbation: one token per region, already bound
to its region the way a pretrained model's state tokens are, but with
deliberately wrong content so that early observations measurably correct
it. Retention is then visible as slow error growth for out-of-view
regions, and forgetting as fast growth.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import DecoderWeights, decode_step, encode_frame, readout
from .errors import ConfigError, StateError, check_int, check_items, check_type
from .gating import GateConfig, Strategy, gate_step
from .linalg import F32, _check_finite, _quiet, matmul
from .world import CoverageSchedule, Scene, StreamCursor, _StreamTape, generate_scene

_INIT_ROLE = 3
_SCENE_ROLE = 10
_STREAM_ROLE = 11

# Magnitudes of the region-code prior and of its corruption in the initial
# state; the noise leaves a measurable fraction of the initial token
# content wrong so early observations visibly correct it.
INIT_PRIOR_SCALE = 1.0
INIT_NOISE_SCALE = 0.3


@dataclass(frozen=True)
class WorldSpec:
    """Scene and stream parameters shared by a batch of sessions."""

    regions: int = 16
    obs_channels: int = 32
    dynamic_fraction: float = 0.0
    drift_rate: float = 0.0
    noise_sigma: float = 0.05
    schedule: CoverageSchedule = field(default_factory=CoverageSchedule)


@dataclass(eq=False)
class SessionResult:
    """Per-frame traces of one streaming session.

    `per_frame_error` and the rows of `region_errors` hold the scored
    frames only, in frame order: every frame by default, or the frames
    `run_session` was asked to score (always including the last, whose
    error is `final_error`). `mask_stats` and `visible` hold every frame.
    """

    strategy: Strategy
    per_frame_error: list[float]
    final_error: float
    mask_stats: list[tuple[float, float, float]]
    frames: int
    region_errors: np.ndarray
    visible: list[tuple[int, ...]]
    final_state: np.ndarray


@dataclass(frozen=True)
class AblationRow:
    strategy: Strategy
    seed: int
    frames: int
    final_error: float
    mean_mask: float


@dataclass(frozen=True)
class AblationSummary:
    strategy: Strategy
    median_final_error: float
    iqr_final_error: float


@dataclass(frozen=True)
class AblationResult:
    rows: list[AblationRow]
    summary: list[AblationSummary]


@dataclass(frozen=True)
class DegradationReport:
    """Median final error per (strategy, stream length), plus growth ratios.

    growth_ratio maps each strategy to final error at the longest length
    divided by final error at the shortest.
    """

    lengths: list[int]
    errors_by_strategy: dict[Strategy, list[float]]
    growth_ratio: dict[Strategy, float]


def _child_seed(seed: int, role: int) -> int:
    """Derive an independent child seed for one role of an experiment."""
    return int(np.random.SeedSequence((int(seed), int(role))).generate_state(1)[0])


def experiment_seeds(seed: int) -> tuple[int, int]:
    """Independent (scene_seed, stream_seed) pair for one experiment seed."""
    seed = check_int("experiment seed", seed)
    return _child_seed(seed, _SCENE_ROLE), _child_seed(seed, _STREAM_ROLE)


@_quiet
def initial_state(scene: Scene, weights: DecoderWeights) -> np.ndarray:
    """One state token per region: encoded region code plus seeded noise.

    A non-finite encoder, or a state made non-finite by a float32 overflow
    of the finite codes' projection, raises a StateError naming the cause.
    """
    check_type("scene", scene, Scene)
    check_type("weights", weights, DecoderWeights)
    channels, expected = scene.region_codes.shape[1], weights.encoder.shape[0]
    if channels != expected:
        raise ConfigError(
            f"scene has {channels} observation channels, encoder expects {expected}"
        )
    prior = matmul(scene.region_codes, weights.encoder)
    rng = np.random.default_rng(
        np.random.SeedSequence((int(scene.seed), 0, _INIT_ROLE))
    )
    noise = rng.standard_normal(prior.shape).astype(F32)
    state = F32(INIT_PRIOR_SCALE) * prior + F32(INIT_NOISE_SCALE) * noise
    _check_finite(state, "initial_state: the scene's region codes and the encoder overflow float32",
                  (("weights.encoder", weights.encoder),), "initial_state: non-finite {}")
    return state


@_quiet
def run_session(
    stream: StreamCursor,
    weights: DecoderWeights,
    cfg: GateConfig,
    strategy: Strategy,
    frames: int,
    *,
    scored: Iterable[int] | None = None,
) -> SessionResult:
    """Stream `frames` observations of `stream` through one gated session.

    `stream` is a StreamCursor at frame 0, and the session's scene is its
    scene. A cursor past frame 0, or a stream, weights, cfg or strategy of
    the wrong type, raises a ConfigError naming it before frame 1.

    `scored` lists the 1-based frames whose error is computed; None scores
    every frame. Repeats collapse and the last frame is always scored. An
    unscored frame still steps the stream, decodes, gates and records its
    mask, but skips the readout and the alignment against the truth, so
    the scored frames' errors are the same bits either way.
    """
    check_type("stream", stream, StreamCursor)
    check_type("weights", weights, DecoderWeights)
    check_type("cfg", cfg, GateConfig)
    check_type("strategy", strategy, Strategy)
    if stream.t != 0:
        raise ConfigError(f"stream must be a cursor at frame 0, got one at frame {stream.t}")
    frames = check_int("frames", frames, 1)
    scored = _scored_frames(scored, frames)
    score = set(scored)
    scene = stream.scene
    state = initial_state(scene, weights)
    prev_candidate = prev_frame = None

    per_frame_error: list[float] = []
    masks = np.empty((frames, state.shape[0]), dtype=F32)
    region_errors = np.zeros((len(scored), scene.regions), dtype=np.float64)
    visible: list[tuple[int, ...]] = []

    for i in range(frames):
        step = stream.step()
        frame = encode_frame(step.observation, weights)
        out = decode_step(frame, state, weights, cfg.attn_source)
        state, mask = gate_step(out.candidate, state, frame, out.trace, cfg, strategy,
                                prev_candidate=prev_candidate, prev_frame=prev_frame)
        prev_candidate, prev_frame = out.candidate, frame
        masks[i] = mask.values
        visible.append(step.visible_regions)
        if i + 1 not in score:
            continue

        estimate = readout(out.candidate, weights).astype(np.float64)
        truth = matmul(step.truth_snapshot, weights.encoder).astype(np.float64)
        scale = float(np.add.reduce(estimate * truth, axis=None)) / (
            float(np.add.reduce(estimate * estimate, axis=None)) + 1e-12
        )
        errs = np.sqrt(np.add.reduce((scale * estimate - truth) ** 2, axis=1))
        region_errors[len(per_frame_error)] = errs
        per_frame_error.append(float(np.add.reduce(errs) / errs.shape[0]))

    mask_stats = list(zip(
        (np.add.reduce(masks, axis=1) / F32(masks.shape[1])).tolist(),
        np.minimum.reduce(masks, axis=1).tolist(),
        np.maximum.reduce(masks, axis=1).tolist(),
    ))
    return SessionResult(
        strategy=strategy,
        per_frame_error=per_frame_error,
        final_error=per_frame_error[-1],
        mask_stats=mask_stats,
        frames=frames,
        region_errors=region_errors,
        visible=visible,
        final_state=state,
    )


def _scored_frames(scored, frames: int):
    """The distinct frames to score, ascending and ending at `frames`."""
    if scored is None:
        return range(1, frames + 1)
    check_items("scored", scored, "a collection of frame numbers", ordered=False)
    return sorted({check_int("scored frame", t, 1, frames) for t in scored} | {frames})


def seeded_stream(world: WorldSpec, seed: int) -> StreamCursor:
    """A fresh cursor on the scene and stream that experiment `seed` derives."""
    check_type("world", world, WorldSpec)
    scene_seed, stream_seed = experiment_seeds(seed)
    scene = generate_scene(
        world.regions,
        world.obs_channels,
        world.dynamic_fraction,
        world.drift_rate,
        seed=scene_seed,
    )
    return StreamCursor(scene, world.schedule, world.noise_sigma, stream_seed)


def _session_grid(
    op: str,
    world: WorldSpec,
    weights: DecoderWeights,
    sessions: list[tuple[GateConfig, Strategy]],
    lengths: list[int],
    seeds: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Run each distinct (gate config, strategy) session once per seed, seed-major.

    The sessions of one seed share its scene and stream, so the grid
    generates `seeded_stream(world, seed)` once per seed and runs that
    seed's sessions one after another through `run_session`, each on its
    own cursor replaying the seed's recorded steps; they are dropped
    before the next seed's. A session's first n frames do not depend on
    how long it runs, so each session runs once, to the longest of
    `lengths`, and scores only the frames in `lengths`. Returns the error
    at each length (repeats included) as a (sessions, seeds, len(lengths))
    float64 array and each session's mean mask over all its frames as a
    (sessions, seeds) array. An empty or repeated session or seed list,
    which would run no session or the same session twice, raises a
    ConfigError naming `op` (a repeated session as a repeated strategy);
    an item of the wrong type raises one naming it.
    """
    if not sessions:
        raise ConfigError(f"{op} needs at least 1 strategy")
    if not seeds:
        raise ConfigError(f"{op} needs at least 1 seed")
    for cfg, strategy in sessions:
        check_type("cfg", cfg, GateConfig)
        check_type("strategy", strategy, Strategy)
    seeds = [check_int("experiment seed", seed) for seed in seeds]
    if len(set(sessions)) < len(sessions):
        raise ConfigError(f"{op}: repeated strategy in {[s.value for _, s in sessions]}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{op}: repeated seed in {seeds}")
    errors = np.empty((len(sessions), len(seeds), len(lengths)))
    mean_masks = np.empty((len(sessions), len(seeds)))
    for k, seed in enumerate(seeds):
        tape = _StreamTape(seeded_stream(world, seed))
        for b, (cfg, strategy) in enumerate(sessions):
            result = run_session(tape.cursor(), weights, cfg, strategy, max(lengths), scored=lengths)
            # run_session has checked `lengths` and scored each distinct one, ascending.
            by_length = dict(zip(sorted(set(lengths)), result.per_frame_error))
            errors[b, k] = [by_length[n] for n in lengths]
            mean_masks[b, k] = np.mean([m[0] for m in result.mask_stats])
        del tape  # one seed's tape alive at a time
    return errors, mean_masks


def run_ablation(
    world: WorldSpec,
    weights: DecoderWeights,
    cfg: GateConfig,
    strategies: list[Strategy],
    frames: int,
    seeds: list[int],
) -> AblationResult:
    """One session per (strategy, seed) on shared scenes and streams."""
    strategies = list(check_items("strategies", strategies, "a sequence of strategies"))
    seeds = list(check_items("seeds", seeds, "a sequence of experiment seeds"))
    if len(strategies) < 2:
        raise ConfigError("run_ablation needs at least 2 strategies")
    sessions = [(cfg, s) for s in strategies]
    errors, masks = _session_grid("run_ablation", world, weights, sessions, [frames], seeds)
    finals = errors[:, :, 0]
    rows = [
        AblationRow(strategy, seed, frames, float(finals[s, k]), float(masks[s, k]))
        for s, strategy in enumerate(strategies)
        for k, seed in enumerate(seeds)
    ]
    summary = [
        AblationSummary(
            strategy,
            float(np.median(finals[s])),
            float(np.percentile(finals[s], 75) - np.percentile(finals[s], 25)),
        )
        for s, strategy in enumerate(strategies)
    ]
    return AblationResult(rows=rows, summary=summary)


def degradation_curve(
    world: WorldSpec,
    weights: DecoderWeights,
    cfg: GateConfig,
    strategies: list[Strategy],
    lengths: list[int],
    seeds: list[int],
) -> DegradationReport:
    """Median final error per strategy as the stream length grows.

    Each (strategy, seed) session runs once, at the longest length, and
    scores only the frames at the requested lengths.
    """
    strategies = list(check_items("strategies", strategies, "a sequence of strategies"))
    lengths = [check_int("lengths entry", n, 1) for n in check_items(
        "lengths", lengths, "a sequence of stream lengths")]
    seeds = list(check_items("seeds", seeds, "a sequence of experiment seeds"))
    if len(lengths) < 2:
        raise ConfigError("degradation_curve needs at least 2 lengths")
    if any(b < a for a, b in zip(lengths, lengths[1:])):
        raise ConfigError(f"lengths must be sorted ascending, got {lengths}")
    sessions = [(cfg, s) for s in strategies]
    curves, _ = _session_grid("degradation_curve", world, weights, sessions, lengths, seeds)
    errors = {
        strategy: [float(np.median(curves[s, :, j])) for j in range(len(lengths))]
        for s, strategy in enumerate(strategies)
    }
    ratios = {s: e[-1] / e[0] if e[0] > 0 else math.inf for s, e in errors.items()}
    return DegradationReport(
        lengths=lengths, errors_by_strategy=errors, growth_ratio=ratios
    )


def tau_sweep(
    world: WorldSpec,
    weights: DecoderWeights,
    cfg: GateConfig,
    taus: list[float],
    frames: int,
    seeds: list[int],
) -> list[tuple[float, float]]:
    """Median fused-strategy final error for each temporal threshold.

    A repeated threshold runs its sessions once and repeats its row.
    """
    taus = list(check_items("taus", taus, "a sequence of temporal thresholds"))
    seeds = list(check_items("seeds", seeds, "a sequence of experiment seeds"))
    if not taus:
        raise ConfigError("tau_sweep needs at least 1 tau value")
    check_type("cfg", cfg, GateConfig)
    cfgs = [replace(cfg, tau=tau) for tau in taus]
    distinct = list(dict.fromkeys(cfgs))
    sessions = [(c, Strategy.FUSED) for c in distinct]
    errors, _ = _session_grid("tau_sweep", world, weights, sessions, [frames], seeds)
    return [(c.tau, float(np.median(errors[distinct.index(c), :, 0]))) for c in cfgs]
