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
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import DecoderWeights, decode_step, encode_frame, readout
from .errors import ConfigError
from .gating import GateConfig, Strategy, gate_step
from .linalg import F32, matmul
from .world import CoverageSchedule, Scene, StreamCursor, check_seed, generate_scene

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
    """Per-frame traces of one streaming session."""

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


def child_seed(seed: int, role: int) -> int:
    """Derive an independent child seed for one role of an experiment."""
    return int(np.random.SeedSequence((int(seed), int(role))).generate_state(1)[0])


def experiment_seeds(seed: int) -> tuple[int, int]:
    """Independent (scene_seed, stream_seed) pair for one experiment seed."""
    seed = check_seed("experiment seed", seed)
    return child_seed(seed, _SCENE_ROLE), child_seed(seed, _STREAM_ROLE)


def initial_state(scene: Scene, weights: DecoderWeights) -> np.ndarray:
    """One state token per region: encoded region code plus seeded noise."""
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
    return F32(INIT_PRIOR_SCALE) * prior + F32(INIT_NOISE_SCALE) * noise


def run_session(
    scene: Scene,
    schedule: CoverageSchedule,
    weights: DecoderWeights,
    cfg: GateConfig,
    strategy: Strategy,
    frames: int,
    noise_sigma: float,
    stream_seed: int,
) -> SessionResult:
    """Stream `frames` observations through one gated session."""
    if frames < 1:
        raise ConfigError(f"frames must be >= 1, got {frames}")
    cursor = StreamCursor(scene, schedule, noise_sigma, stream_seed)
    state = initial_state(scene, weights)
    prev_candidate = None
    prev_frame = None

    per_frame_error: list[float] = []
    masks = np.empty((frames, state.shape[0]), dtype=F32)
    region_errors = np.zeros((frames, scene.regions), dtype=np.float64)
    visible: list[tuple[int, ...]] = []
    # A scene that cannot drift keeps its codes: its truth is projected once.
    drifts = scene.drifts
    truth = None

    for i in range(frames):
        step = cursor.step()
        frame = encode_frame(step.observation, weights)
        out = decode_step(frame, state, weights, cfg.attn_source)
        state, mask = gate_step(
            out.candidate,
            state,
            frame,
            out.trace,
            cfg,
            strategy,
            prev_candidate=prev_candidate,
            prev_frame=prev_frame,
        )
        prev_candidate = out.candidate
        prev_frame = frame

        estimate = readout(out.candidate, weights).astype(np.float64)
        if truth is None or drifts:
            truth = matmul(step.truth_snapshot, weights.encoder).astype(np.float64)
        scale = float(np.add.reduce(estimate * truth, axis=None)) / (
            float(np.add.reduce(estimate * estimate, axis=None)) + 1e-12
        )
        errs = np.sqrt(np.add.reduce((scale * estimate - truth) ** 2, axis=1))
        region_errors[i] = errs
        per_frame_error.append(float(np.add.reduce(errs) / errs.shape[0]))
        masks[i] = mask.values
        visible.append(step.visible_regions)

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


def seeded_scene(world: WorldSpec, seed: int) -> tuple[Scene, int]:
    """The scene and the stream seed that experiment `seed` derives."""
    scene_seed, stream_seed = experiment_seeds(seed)
    scene = generate_scene(
        world.regions,
        world.obs_channels,
        world.dynamic_fraction,
        world.drift_rate,
        seed=scene_seed,
    )
    return scene, stream_seed


def session_for_seed(
    world: WorldSpec,
    weights: DecoderWeights,
    cfg: GateConfig,
    strategy: Strategy,
    frames: int,
    seed: int,
) -> SessionResult:
    """Run one session on the scene and stream derived from `seed`."""
    scene, stream_seed = seeded_scene(world, seed)
    return run_session(
        scene,
        world.schedule,
        weights,
        cfg,
        strategy,
        frames,
        world.noise_sigma,
        stream_seed=stream_seed,
    )


def _require_distinct(op: str, name: str, values) -> None:
    """Reject a repeated entry, which would run the same sessions twice."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{op}: repeated {name} in {list(values)}")


def run_ablation(
    world: WorldSpec,
    weights: DecoderWeights,
    cfg: GateConfig,
    strategies: list[Strategy],
    frames: int,
    seeds: list[int],
) -> AblationResult:
    """One session per (strategy, seed) on shared scenes and streams."""
    if len(strategies) < 2:
        raise ConfigError("run_ablation needs at least 2 strategies")
    if not seeds:
        raise ConfigError("run_ablation needs at least 1 seed")
    _require_distinct("run_ablation", "strategy", [s.value for s in strategies])
    _require_distinct("run_ablation", "seed", seeds)
    rows: list[AblationRow] = []
    finals: dict[Strategy, list[float]] = {s: [] for s in strategies}
    for strategy in strategies:
        for seed in seeds:
            result = session_for_seed(world, weights, cfg, strategy, frames, seed)
            mean_mask = float(np.mean([s[0] for s in result.mask_stats]))
            rows.append(
                AblationRow(
                    strategy=strategy,
                    seed=seed,
                    frames=frames,
                    final_error=result.final_error,
                    mean_mask=mean_mask,
                )
            )
            finals[strategy].append(result.final_error)
    summary = [
        AblationSummary(
            strategy=s,
            median_final_error=float(np.median(finals[s])),
            iqr_final_error=float(
                np.percentile(finals[s], 75) - np.percentile(finals[s], 25)
            ),
        )
        for s in strategies
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

    A session's first n frames do not depend on how long it runs, so each
    (strategy, seed) session runs once, at the longest length, and the
    shorter lengths read their final error off its per-frame errors.
    """
    if len(lengths) < 2:
        raise ConfigError("degradation_curve needs at least 2 lengths")
    if any(b < a for a, b in zip(lengths, lengths[1:])):
        raise ConfigError(f"lengths must be sorted ascending, got {lengths}")
    if lengths[0] < 1:
        raise ConfigError(f"lengths must be >= 1, got {lengths}")
    if not strategies:
        raise ConfigError("degradation_curve needs at least 1 strategy")
    if not seeds:
        raise ConfigError("degradation_curve needs at least 1 seed")
    _require_distinct("degradation_curve", "strategy", [s.value for s in strategies])
    _require_distinct("degradation_curve", "seed", seeds)
    errors: dict[Strategy, list[float]] = {}
    for strategy in strategies:
        curves = [
            session_for_seed(world, weights, cfg, strategy, lengths[-1], seed).per_frame_error
            for seed in seeds
        ]
        errors[strategy] = [
            float(np.median([curve[n - 1] for curve in curves])) for n in lengths
        ]
    ratios = {}
    for strategy in strategies:
        first, last = errors[strategy][0], errors[strategy][-1]
        ratios[strategy] = last / first if first > 0 else math.inf
    return DegradationReport(
        lengths=list(lengths), errors_by_strategy=errors, growth_ratio=ratios
    )


def tau_sweep(
    world: WorldSpec,
    weights: DecoderWeights,
    cfg: GateConfig,
    taus: list[float],
    frames: int,
    seeds: list[int],
) -> list[tuple[float, float]]:
    """Median fused-strategy final error for each temporal threshold."""
    if not taus:
        raise ConfigError("tau_sweep needs at least 1 tau value")
    if not seeds:
        raise ConfigError("tau_sweep needs at least 1 seed")
    _require_distinct("tau_sweep", "seed", seeds)
    out = []
    for tau_cfg in [replace(cfg, tau=tau) for tau in taus]:
        finals = [
            session_for_seed(
                world, weights, tau_cfg, Strategy.FUSED, frames, seed
            ).final_error
            for seed in seeds
        ]
        out.append((float(tau_cfg.tau), float(np.median(finals))))
    return out
