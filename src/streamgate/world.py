"""Synthetic scenes and observation streams for memory benchmarks.

A scene is a set of latent region codes. A stream shows some regions each
frame (per a coverage schedule) as noisy observation rows; partial coverage
is what lets full-replacement state updates forget regions that are
currently out of view. Dynamic regions drift over time, so retention and
adaptation can be stressed independently.

Every step is a pure function of (scene seed, schedule, frame index, noise
seed): drift and noise draws come from per-frame child seeds, so streams
are bit-reproducible and individual steps can be regenerated at random.
"""

from __future__ import annotations

import enum
import math
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linalg import F32, as_matrix

_DRIFT_ROLE = 1
_NOISE_ROLE = 2


class ScheduleKind(enum.Enum):
    FULL = "full"
    SLIDING_WINDOW = "sliding"
    REVISIT = "revisit"


@dataclass(frozen=True)
class Scene:
    """Ground-truth latent codes plus which regions drift."""

    region_codes: np.ndarray
    dynamic_regions: frozenset[int]
    drift_rate: float
    seed: int

    def __post_init__(self) -> None:
        codes = as_matrix(self.region_codes, "region_codes")
        if codes.shape[0] < 1:
            raise ConfigError("scene needs at least one region")
        if self.drift_rate < 0:
            raise ConfigError(f"drift_rate must be >= 0, got {self.drift_rate}")
        bad = [i for i in self.dynamic_regions if not 0 <= i < codes.shape[0]]
        if bad:
            raise ConfigError(f"dynamic region indices out of range: {bad}")
        object.__setattr__(self, "region_codes", codes)
        object.__setattr__(self, "dynamic_regions", frozenset(self.dynamic_regions))

    @property
    def regions(self) -> int:
        return self.region_codes.shape[0]

    @property
    def obs_channels(self) -> int:
        return self.region_codes.shape[1]

    @property
    def drifts(self) -> bool:
        """Whether any region code changes over a stream."""
        return bool(self.dynamic_regions) and self.drift_rate > 0


@dataclass(frozen=True)
class CoverageSchedule:
    """Which regions each frame observes.

    FULL shows every region every frame. SLIDING_WINDOW shows a contiguous
    block of `window` regions that advances by one region per frame,
    wrapping around. REVISIT behaves like the sliding window but shows the
    whole scene every `period`-th frame; its observations always carry one
    row per region (rows of currently invisible regions hold sensor noise
    only) so the frame-token count stays fixed across the stream.
    """

    kind: ScheduleKind = ScheduleKind.SLIDING_WINDOW
    window: int = 4
    period: int = 10

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")


@dataclass(frozen=True)
class StreamStep:
    """One frame of a stream.

    observation rows follow visible_regions order for FULL and
    SLIDING_WINDOW schedules; REVISIT observations have one row per region
    in region order. truth_snapshot holds all current (post-drift) codes.
    """

    t: int
    observation: np.ndarray
    visible_regions: tuple[int, ...]
    truth_snapshot: np.ndarray


def generate_scene(
    regions: int,
    obs_channels: int,
    dynamic_fraction: float = 0.0,
    drift_rate: float = 0.0,
    seed: int = 0,
) -> Scene:
    """Seeded Gaussian-direction region codes, floor(fraction * R) dynamic.

    Codes are drawn Gaussian and rescaled to a common norm of
    sqrt(obs_channels): random directions, equal energy per region, so no
    region is structurally too faint to observe.
    """
    if regions < 1:
        raise ConfigError(f"regions must be >= 1, got {regions}")
    if obs_channels < 1:
        raise ConfigError(f"obs_channels must be >= 1, got {obs_channels}")
    if not 0.0 <= dynamic_fraction <= 1.0:
        raise ConfigError(
            f"dynamic_fraction must be in [0, 1], got {dynamic_fraction}"
        )
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0)))
    raw = rng.standard_normal((regions, obs_channels))
    norms = np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    codes = (math.sqrt(obs_channels) * raw / norms).astype(F32)
    n_dynamic = math.floor(dynamic_fraction * regions)
    dynamic = rng.choice(regions, size=n_dynamic, replace=False)
    return Scene(
        region_codes=codes,
        dynamic_regions=frozenset(int(i) for i in dynamic),
        drift_rate=float(drift_rate),
        seed=int(seed),
    )


def _step_rng(seed: int, t: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(t), role)))


def _visible_regions(schedule: CoverageSchedule, t: int, regions: int) -> tuple[int, ...]:
    if schedule.kind is ScheduleKind.FULL:
        return tuple(range(regions))
    if schedule.kind is ScheduleKind.REVISIT and t % schedule.period == 0:
        return tuple(range(regions))
    window = min(schedule.window, regions)
    start = (t - 1) % regions
    return tuple((start + i) % regions for i in range(window))


@dataclass
class StreamCursor:
    """Sequential stream generator; O(1) work per step.

    Mutable only through step(); distinct cursors over the same inputs
    yield bit-identical sequences.
    """

    scene: Scene
    schedule: CoverageSchedule
    noise_sigma: float
    seed: int
    _codes: np.ndarray = field(init=False, repr=False)
    _drifts: bool = field(init=False, repr=False)
    _t: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        self._codes = self.scene.region_codes.copy()
        self._drifts = self.scene.drifts

    @property
    def t(self) -> int:
        return self._t

    def step(self) -> StreamStep:
        self._t += 1
        t = self._t
        scene = self.scene
        if self._drifts:
            idx = sorted(scene.dynamic_regions)
            drift = _step_rng(self.seed, t, _DRIFT_ROLE).standard_normal(
                (len(idx), scene.obs_channels)
            )
            self._codes[idx] += F32(scene.drift_rate) * drift.astype(F32)
        visible = _visible_regions(self.schedule, t, scene.regions)
        noise_rng = _step_rng(self.seed, t, _NOISE_ROLE)
        sigma = F32(self.noise_sigma)
        if self.schedule.kind is ScheduleKind.REVISIT:
            rows = scene.regions
            noise = noise_rng.standard_normal((rows, scene.obs_channels)).astype(F32)
            observation = sigma * noise
            vis = list(visible)
            observation[vis] += self._codes[vis]
        else:
            rows = len(visible)
            noise = noise_rng.standard_normal((rows, scene.obs_channels)).astype(F32)
            observation = self._codes[list(visible)] + sigma * noise
        return StreamStep(
            t=t,
            observation=observation,
            visible_regions=visible,
            truth_snapshot=self._codes.copy(),
        )


def step_stream(
    scene: Scene,
    schedule: CoverageSchedule,
    t: int,
    noise_sigma: float,
    seed: int,
) -> StreamStep:
    """Regenerate the stream step at frame t (t >= 1); costs O(t)."""
    if t < 1:
        raise ConfigError(f"t must be >= 1, got {t}")
    cursor = StreamCursor(scene, schedule, noise_sigma, seed)
    for _ in range(t - 1):
        cursor.step()
    return cursor.step()


def atomic_write(path, chunks) -> None:
    """Write the text chunks to path through a temp file and a rename.

    Until the rename, an existing file at path stays as it was; a failure
    on the way removes the temp file and re-raises. The file gets mode
    0o666 less the umask, as a file made by open() would.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:  # a fresh random name, created exclusively; the kernel applies the umask
        tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_stream(path, steps) -> None:
    """Write steps as one line each: t;rows;visible;observation;truth.

    The write is atomic: if it fails part-way, an existing file at path
    stays intact and no temp file is left behind.
    """
    atomic_write(path, (_stream_line(s) for s in steps))


def _stream_line(s: StreamStep) -> str:
    fields = (
        str(s.t),
        str(s.observation.shape[0]),
        ",".join(str(i) for i in s.visible_regions),
        ",".join(repr(float(v)) for v in s.observation.ravel()),
        ",".join(repr(float(v)) for v in s.truth_snapshot.ravel()),
    )
    return ";".join(fields) + "\n"


def load_stream(path, obs_channels: int) -> list[StreamStep]:
    """Read back a trace written by dump_stream (float32-exact).

    A malformed line raises ConfigError naming its 1-based line number.
    """
    steps = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                t_s, rows_s, vis_s, obs_s, truth_s = line.split(";")
                obs = np.array(
                    [F32(v) for v in obs_s.split(",")], dtype=F32
                ).reshape(int(rows_s), obs_channels)
                truth_vals = np.array([F32(v) for v in truth_s.split(",")], dtype=F32)
                step = StreamStep(
                    t=int(t_s),
                    observation=obs,
                    visible_regions=tuple(int(i) for i in vis_s.split(",")) if vis_s else (),
                    truth_snapshot=truth_vals.reshape(-1, obs_channels),
                )
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: malformed step ({exc})") from None
            steps.append(step)
    return steps
