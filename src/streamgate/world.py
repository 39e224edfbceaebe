"""Synthetic scenes and observation streams for memory benchmarks.

A scene is a set of latent region codes. A stream shows some regions each
frame (per a coverage schedule) as noisy observation rows; partial coverage
is what lets full-replacement state updates forget regions that are
currently out of view. Dynamic regions drift over time, so retention and
adaptation can be stressed independently.

Every step is a pure function of (scene seed, schedule, frame index, noise
seed): frame t's drift and noise draws come from
PCG64(SeedSequence((stream seed, t, role))), so streams are
bit-reproducible and any frame's draws can be regenerated on their own.
A cursor hashes those seed sequences for a block of frames at a time,
with numpy's algorithm vectorized over the block.
"""

from __future__ import annotations

import copy
import enum
import math
import os
import secrets
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, StateError, check_int, check_items, check_real, check_type
from .linalg import F32, F32_MAX, _check_finite, as_matrix

_DRIFT_ROLE = 1
_NOISE_ROLE = 2

# Frames whose seed words a cursor hashes at once: the first block at
# construction, each later one in the step that leaves the block before.
_SEED_BLOCK = 256

# numpy.random.SeedSequence's hash constants (pool size 4).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class ScheduleKind(enum.Enum):
    FULL = "full"
    SLIDING_WINDOW = "sliding"
    REVISIT = "revisit"


@dataclass(frozen=True, eq=False)
class Scene:
    """Ground-truth latent codes plus which regions drift."""

    region_codes: np.ndarray
    dynamic_regions: frozenset[int]
    drift_rate: float
    seed: int

    def __post_init__(self) -> None:
        codes = as_matrix(self.region_codes, "region_codes")
        if not np.isfinite(codes).all():
            raise ConfigError("region_codes must be finite")
        object.__setattr__(self, "drift_rate", check_real("drift_rate", self.drift_rate, 0, F32_MAX))
        seed = check_int("scene seed", self.seed)
        check_items(
            "dynamic_regions", self.dynamic_regions, "a collection of region indices", ordered=False
        )
        dynamic = frozenset(
            check_int("dynamic region", i, 0, codes.shape[0] - 1) for i in self.dynamic_regions
        )
        object.__setattr__(self, "region_codes", codes)
        object.__setattr__(self, "dynamic_regions", dynamic)
        object.__setattr__(self, "seed", seed)

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
        check_type("kind", self.kind, ScheduleKind)
        object.__setattr__(self, "window", check_int("window", self.window, 1))
        object.__setattr__(self, "period", check_int("period", self.period, 1))


@dataclass(frozen=True, eq=False)
class StreamStep:
    """One frame of a stream.

    observation rows follow visible_regions order for FULL and
    SLIDING_WINDOW schedules; REVISIT observations have one row per region
    in region order. truth_snapshot holds all current (post-drift) codes;
    a scene that cannot drift hands every step of a cursor the same
    read-only array.
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
    regions = check_int("regions", regions, 1)
    obs_channels = check_int("obs_channels", obs_channels, 1)
    dynamic_fraction = check_real("dynamic_fraction", dynamic_fraction, 0, 1)
    seed = check_int("scene seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    raw = rng.standard_normal((regions, obs_channels))
    norms = np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    codes = (math.sqrt(obs_channels) * raw / norms).astype(F32)
    n_dynamic = math.floor(dynamic_fraction * regions)
    dynamic = rng.choice(regions, size=n_dynamic, replace=False)
    return Scene(
        region_codes=codes,
        dynamic_regions=frozenset(int(i) for i in dynamic),
        drift_rate=drift_rate,
        seed=seed,
    )


def _seed_words(seed: int, t0: int, n: int, roles: tuple[int, ...]) -> np.ndarray:
    """SeedSequence((seed, t, role)).generate_state(4, np.uint64) for a block of frames.

    Returns an (n, len(roles), 4) uint64 array whose [i, r] row is that
    state for t = t0 + i and roles[r]. This is numpy's SeedSequence
    algorithm, with each (t, role) pair as one lane of uint32 arrays; the
    hash constants advance the same way in every lane, so they stay
    Python ints. Needs seed >= 0, 0 <= t0 and t0 + n <= 2**32 (t is one
    entropy word) and roles below 2**32.
    """
    if t0 + n > 1 << 32:
        raise ValueError(f"frame index {t0 + n - 1} does not fit one 32-bit word")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    size = len(words) + 2
    # The entropy, padded with zero words to the pool size: numpy hashes
    # zeros into a pool longer than the entropy.
    entropy = np.zeros((n, len(roles), max(size, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :, : len(words)] = words
    entropy[:, :, len(words)] = np.arange(t0, t0 + n, dtype=np.uint32)[:, np.newaxis]
    entropy[:, :, len(words) + 1] = roles
    entropy = entropy.reshape(n * len(roles), -1)

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, size):  # entropy longer than the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((entropy.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # Two uint32 words make one uint64 word, low word first.
    state = state.astype(np.uint64)
    out = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
    return out.reshape(n, len(roles), -1)


class _HashedSeed(ISeedSequence):
    """A seed sequence whose state was hashed ahead by _seed_words.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) and
    nothing else; this one hands back the precomputed row.
    """

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray) -> None:
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self._row


def _rng(row: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_HashedSeed(row)))


def _visible_regions(schedule: CoverageSchedule, t: int, regions: int) -> tuple[int, ...]:
    if schedule.kind is ScheduleKind.FULL or (
        schedule.kind is ScheduleKind.REVISIT and t % schedule.period == 0
    ):
        return tuple(range(regions))
    window = min(schedule.window, regions)
    start = (t - 1) % regions
    return tuple((start + i) % regions for i in range(window))


@dataclass(eq=False)
class StreamCursor:
    """Sequential stream generator; O(1) amortized work per step.

    Mutable only through step(); distinct cursors over the same inputs
    yield bit-identical sequences. Frame t's draws for a role come from
    PCG64(SeedSequence((seed, t, role))); the seed sequences are hashed
    _SEED_BLOCK frames at a time, for the roles the scene uses.
    """

    scene: Scene
    schedule: CoverageSchedule
    noise_sigma: float
    seed: int
    _codes: np.ndarray = field(init=False, repr=False)
    _drifts: bool = field(init=False, repr=False)
    _dynamic: np.ndarray = field(init=False, repr=False)
    _drift_rate: np.float32 = field(init=False, repr=False)
    _sigma: np.float32 = field(init=False, repr=False)
    _roles: tuple[int, ...] = field(init=False, repr=False)
    _words: np.ndarray = field(init=False, repr=False)
    _block_t0: int = field(init=False, repr=False, default=1)
    _t: int = field(init=False, default=0)
    _tape: _StreamTape | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        check_type("scene", self.scene, Scene)
        check_type("schedule", self.schedule, CoverageSchedule)
        self.noise_sigma = check_real("noise_sigma", self.noise_sigma, 0, F32_MAX)
        self.seed = check_int("stream seed", self.seed)
        scene = self.scene
        self._codes = scene.region_codes.copy()
        self._drifts = scene.drifts
        if not self._drifts:  # every step's truth_snapshot
            self._codes.flags.writeable = False
        self._dynamic = np.array(sorted(scene.dynamic_regions), dtype=np.intp)
        self._drift_rate = F32(scene.drift_rate)
        self._sigma = F32(self.noise_sigma)
        self._roles = (_DRIFT_ROLE, _NOISE_ROLE) if self._drifts else (_NOISE_ROLE,)
        self._words = _seed_words(self.seed, 1, _SEED_BLOCK, self._roles)

    @property
    def t(self) -> int:
        return self._t

    def step(self) -> StreamStep:
        if self._tape is not None:
            self._t += 1
            return self._tape._recorded(self._t)
        return self._advance()

    def _advance(self) -> StreamStep:
        """Generate the next frame; a StateError names a frame whose values, in view or not, overflow float32."""
        self._t += 1
        t = self._t
        i = t - self._block_t0
        if i == _SEED_BLOCK:
            self._words = _seed_words(self.seed, t, _SEED_BLOCK, self._roles)
            self._block_t0, i = t, 0
        words = self._words[i]
        regions, channels = self._codes.shape
        visible = _visible_regions(self.schedule, t, regions)
        vis = list(visible)
        # REVISIT keeps a row per region, and its invisible rows hold noise only.
        revisit = self.schedule.kind is ScheduleKind.REVISIT
        noise = _rng(words[-1]).standard_normal((regions if revisit else len(vis), channels))
        with np.errstate(over="ignore", invalid="ignore"):
            if self._drifts:
                drift = _rng(words[0]).standard_normal((len(self._dynamic), channels))
                self._codes[self._dynamic] += self._drift_rate * drift.astype(F32)
                _check_finite(self._codes,
                              f"StreamCursor.step: frame {t}: the drifting region codes overflow float32")
            observation = self._sigma * noise.astype(F32)
            observation[vis if revisit else slice(None)] += self._codes[vis]
            _check_finite(observation, f"StreamCursor.step: frame {t}: the observation overflows float32")
        return StreamStep(
            t=t,
            observation=observation,
            visible_regions=visible,
            truth_snapshot=self._codes.copy() if self._drifts else self._codes,
        )


class _StreamTape:
    """The steps of one stream, generated once and replayed by any number of cursors.

    The tape takes over `stream`, a fresh generating StreamCursor from
    `seeded_stream`, the way itertools.tee takes over its iterator: the
    caller steps it no further. It records the cursor's steps in `steps`
    as the tape's cursors first reach them, so sessions that share a scene
    and a stream generate it once, bit-identical to a fresh cursor. The
    recorded steps are read-only, and the tape keeps every one until it
    is dropped.
    """

    def __init__(self, stream: StreamCursor) -> None:
        self._source = stream
        self.steps: list[StreamStep] = []

    def cursor(self) -> StreamCursor:
        """A fresh StreamCursor at frame 0 whose steps are this tape's."""
        # The copy carries the source's validated inputs; its generator state goes unused.
        cursor = copy.copy(self._source)
        cursor._t, cursor._tape = 0, self
        return cursor

    def _recorded(self, t: int) -> StreamStep:
        """Step t, generated first if no cursor has reached it yet.

        Cursors advance one step at a time, so t is at most one past the
        recorded steps.
        """
        if t > len(self.steps):
            step = self._source._advance()
            step.observation.flags.writeable = False
            step.truth_snapshot.flags.writeable = False
            self.steps.append(step)
        return self.steps[t - 1]


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
    stays intact and no temp file is left behind. `steps` is read as the
    file is written, so an item that is not a StreamStep is named there.
    """
    check_items("steps", steps, "an iterable of StreamSteps")
    atomic_write(path, (_stream_line(s) for s in steps))


def _stream_line(s: StreamStep) -> str:
    check_type("steps entry", s, StreamStep)
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

    A malformed line raises ConfigError naming its 1-based line number: a
    non-ASCII byte, a non-finite value, a frame index below 1, a row count
    that is not the observation's, or a visible index outside the truth's
    regions included.
    """
    obs_channels = check_int("obs_channels", obs_channels, 1)
    steps = []
    # An out-of-range value parses to inf, which the finiteness check names.
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip()
                if not line:
                    continue
                t_s, rows_s, vis_s, obs_s, truth_s = line.split(";")
                t, rows = int(t_s), int(rows_s)
                if t < 1:
                    raise ValueError(f"frame index {t} < 1")
                if rows < 1:  # reshape would infer a count of -1
                    raise ValueError(f"row count {rows} < 1")
                obs = np.array(
                    [F32(v) for v in obs_s.split(",")], dtype=F32
                ).reshape(rows, obs_channels)
                truth_vals = np.array([F32(v) for v in truth_s.split(",")], dtype=F32)
                if not (np.isfinite(obs).all() and np.isfinite(truth_vals).all()):
                    raise ValueError("non-finite value")
                truth = truth_vals.reshape(-1, obs_channels)
                visible = tuple(int(i) for i in vis_s.split(",")) if vis_s else ()
                for i in visible:
                    if not 0 <= i < truth.shape[0]:
                        raise ValueError(f"visible region {i} outside 0..{truth.shape[0] - 1}")
                step = StreamStep(
                    t=t,
                    observation=obs,
                    visible_regions=visible,
                    truth_snapshot=truth,
                )
            except ValueError as exc:  # UnicodeDecodeError is one too
                raise ConfigError(f"{path}: line {lineno}: malformed step ({exc})") from None
            steps.append(step)
    return steps
