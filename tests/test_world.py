import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgate.errors import ConfigError
from streamgate.evaluation import experiment_seeds
from streamgate.world import (
    _SEED_BLOCK,
    CoverageSchedule,
    Scene,
    ScheduleKind,
    StreamCursor,
    StreamTape,
    _seed_words,
    dump_stream,
    generate_scene,
    load_stream,
)

F32 = np.float32


def _steps(scene, schedule, frames, noise_sigma, seed):
    cursor = StreamCursor(scene, schedule, noise_sigma, seed)
    return [cursor.step() for _ in range(frames)]


def test_generate_scene_dynamic_fraction_boundaries():
    assert generate_scene(8, 4, 0.0, 0.1, seed=1).dynamic_regions == frozenset()
    assert generate_scene(8, 4, 1.0, 0.1, seed=1).dynamic_regions == frozenset(range(8))


def test_generate_scene_deterministic():
    a = generate_scene(8, 4, 0.5, 0.1, seed=7)
    b = generate_scene(8, 4, 0.5, 0.1, seed=7)
    assert a.region_codes.tobytes() == b.region_codes.tobytes()
    assert a.dynamic_regions == b.dynamic_regions


def test_generate_scene_code_norms_fixed():
    scene = generate_scene(6, 9, 0.0, 0.0, seed=2)
    np.testing.assert_allclose(
        np.linalg.norm(scene.region_codes, axis=1), np.full(6, 3.0), rtol=1e-5
    )


def test_generate_scene_validation():
    with pytest.raises(ConfigError):
        generate_scene(0, 4)
    with pytest.raises(ConfigError):
        generate_scene(4, 0)
    with pytest.raises(ConfigError):
        generate_scene(4, 4, dynamic_fraction=1.5)
    with pytest.raises(ConfigError):
        generate_scene(4, 4, drift_rate=-0.1)


@pytest.mark.parametrize("drift_rate", [math.nan, math.inf, -math.inf])
def test_non_finite_drift_rate_rejected_naming_the_field(drift_rate):
    with pytest.raises(ConfigError, match="drift_rate"):
        generate_scene(4, 4, 0.5, drift_rate, seed=1)
    codes = np.ones((2, 3), dtype=F32)
    with pytest.raises(ConfigError, match="drift_rate"):
        Scene(codes, frozenset({0}), drift_rate, seed=0)


@pytest.mark.parametrize("region", [0.5, True, -1, 2])
def test_scene_rejects_a_dynamic_region_that_is_not_a_region_index(region):
    # 0.5 and True would otherwise be cast to region 0 or 1 by the cursor.
    with pytest.raises(ConfigError, match="dynamic region must be an integer in 0..1"):
        Scene(np.ones((2, 3), dtype=F32), frozenset({region}), 0.1, 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scene_rejects_non_finite_region_codes_naming_the_field(value):
    # Its cursor would otherwise emit inf or NaN observations.
    codes = np.ones((2, 3), dtype=F32)
    codes[1, 2] = value
    with pytest.raises(ConfigError, match="region_codes must be finite"):
        Scene(codes, frozenset(), 0.0, 0)


def test_scene_stores_dynamic_regions_as_ints():
    scene = Scene(np.ones((3, 3), dtype=F32), frozenset({np.int64(2), 0}), 0.1, 0)
    assert scene.dynamic_regions == {0, 2}
    assert all(type(i) is int for i in scene.dynamic_regions)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_bad_seeds_rejected_naming_the_field(seed):
    with pytest.raises(ConfigError, match="scene seed"):
        generate_scene(4, 4, seed=seed)
    with pytest.raises(ConfigError, match="scene seed"):
        Scene(np.ones((2, 3), dtype=F32), frozenset(), 0.0, seed=seed)
    scene = generate_scene(4, 3, 0.0, 0.0, seed=12)
    with pytest.raises(ConfigError, match="stream seed"):
        StreamCursor(scene, CoverageSchedule(), 0.1, seed)
    with pytest.raises(ConfigError, match="experiment seed"):
        experiment_seeds(seed)


def test_numpy_integer_seeds_accepted_as_ints():
    scene = generate_scene(4, 3, 0.5, 0.1, seed=np.int64(12))
    assert type(scene.seed) is int and scene.seed == 12
    cursor = StreamCursor(scene, CoverageSchedule(), 0.1, np.uint32(7))
    assert type(cursor.seed) is int and cursor.seed == 7
    assert experiment_seeds(np.int64(3)) == experiment_seeds(3)


def test_coverage_schedule_validation():
    with pytest.raises(ConfigError):
        CoverageSchedule(window=0)
    with pytest.raises(ConfigError):
        CoverageSchedule(period=0)


@pytest.mark.parametrize("make, name", [
    (lambda: CoverageSchedule(window=2.5), "window"),
    (lambda: CoverageSchedule(period=True), "period"),
    (lambda: generate_scene(2.5, 4), "regions"),
    (lambda: generate_scene(4, "4"), "obs_channels"),
], ids=["window-float", "period-bool", "regions-float", "obs_channels-str"])
def test_non_integer_counts_rejected_naming_the_field(make, name):
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= 1"):
        make()


def test_full_schedule_sees_everything():
    scene = generate_scene(5, 3, 0.0, 0.0, seed=3)
    step = _steps(scene, CoverageSchedule(kind=ScheduleKind.FULL), 4, 0.1, seed=0)[-1]
    assert step.visible_regions == tuple(range(5))
    assert step.observation.shape == (5, 3)


def test_noiseless_static_full_observation_equals_codes():
    scene = generate_scene(5, 3, 0.0, 0.0, seed=4)
    step = _steps(scene, CoverageSchedule(kind=ScheduleKind.FULL), 7, 0.0, seed=0)[-1]
    assert step.observation.tobytes() == scene.region_codes.tobytes()
    assert step.truth_snapshot.tobytes() == scene.region_codes.tobytes()


def test_sliding_window_wraps_and_covers():
    # any R consecutive frames collectively visit every region
    scene = generate_scene(6, 3, 0.0, 0.0, seed=5)
    sched = CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=2)
    steps = _steps(scene, sched, 14, 0.0, seed=0)
    for t0 in (1, 4, 9):
        seen = set()
        for step in steps[t0 - 1: t0 + 5]:
            assert len(step.visible_regions) == 2
            assert step.observation.shape == (2, 3)
            seen.update(step.visible_regions)
        assert seen == set(range(6))


def test_sliding_window_staleness_is_periodic():
    # a fixed region is visible exactly when (t-1) mod R falls in its window span
    regions, window = 8, 3
    scene = generate_scene(regions, 3, 0.0, 0.0, seed=6)
    sched = CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=window)
    target = 5
    visible_ts = [
        step.t for step in _steps(scene, sched, 2 * regions, 0.0, seed=0)
        if target in step.visible_regions
    ]
    expected = [
        t for t in range(1, 2 * regions + 1)
        if ((target - (t - 1)) % regions) < window
    ]
    assert visible_ts == expected
    assert [b - a for a, b in zip(visible_ts, visible_ts[1:])].count(regions - window + 1) == 1


def _textbook_stream(scene, schedule, noise_sigma, seed, frames):
    """The stream rebuilt frame by frame from default_rng(SeedSequence((seed, t, role)))."""
    codes = scene.region_codes.copy()
    dynamic = sorted(scene.dynamic_regions)
    regions, channels = scene.region_codes.shape
    for t in range(1, frames + 1):
        if scene.drifts:
            rng = np.random.default_rng(np.random.SeedSequence((seed, t, 1)))
            drift = rng.standard_normal((len(dynamic), channels)).astype(F32)
            codes[dynamic] += F32(scene.drift_rate) * drift
        if schedule.kind is ScheduleKind.FULL or (
            schedule.kind is ScheduleKind.REVISIT and t % schedule.period == 0
        ):
            visible = list(range(regions))
        else:
            visible = [(t - 1 + i) % regions for i in range(min(schedule.window, regions))]
        rng = np.random.default_rng(np.random.SeedSequence((seed, t, 2)))
        if schedule.kind is ScheduleKind.REVISIT:
            observation = F32(noise_sigma) * rng.standard_normal((regions, channels)).astype(F32)
            observation[visible] += codes[visible]
        else:
            noise = rng.standard_normal((len(visible), channels)).astype(F32)
            observation = codes[visible] + F32(noise_sigma) * noise
        yield t, observation, tuple(visible), codes.copy()


@pytest.mark.parametrize("kind", list(ScheduleKind))
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_stream_cursor_matches_textbook_numpy_seeding_bitwise(kind, seed):
    frames = 600  # crosses two seed-block edges
    scene = generate_scene(8, 4, 0.5, 0.1, seed=24)
    sched = CoverageSchedule(kind=kind, window=3, period=7)
    got = _steps(scene, sched, frames, 0.2, seed)
    want = list(_textbook_stream(scene, sched, 0.2, seed, frames))
    assert len(got) == len(want) == frames
    for step, (t, observation, visible, truth) in zip(got, want):
        assert step.t == t
        assert step.visible_regions == visible
        assert step.observation.tobytes() == observation.tobytes()
        assert step.truth_snapshot.tobytes() == truth.tobytes()


@pytest.mark.parametrize("seed", [0, 9, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 2**100 + 5])
@pytest.mark.parametrize("roles", [(2,), (1, 2)])
def test_seed_words_match_numpy_seed_sequence_at_block_edges(seed, roles):
    for t0 in (1, _SEED_BLOCK + 1, 2**32 - _SEED_BLOCK):
        words = _seed_words(seed, t0, _SEED_BLOCK, roles)
        assert words.shape == (_SEED_BLOCK, len(roles), 4) and words.dtype == np.uint64
        for i in (0, 1, _SEED_BLOCK - 1):
            for r, role in enumerate(roles):
                want = np.random.SeedSequence((seed, t0 + i, role)).generate_state(4, np.uint64)
                assert words[i, r].tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        _seed_words(seed, 2**32 - _SEED_BLOCK + 1, _SEED_BLOCK, roles)


def test_streams_bit_identical_across_runs():
    scene = generate_scene(6, 4, 0.5, 0.2, seed=10)
    sched = CoverageSchedule(kind=ScheduleKind.REVISIT, window=2, period=4)
    c1 = StreamCursor(scene, sched, 0.3, seed=11)
    c2 = StreamCursor(scene, sched, 0.3, seed=11)
    for _ in range(6):
        s1, s2 = c1.step(), c2.step()
        assert s1.observation.tobytes() == s2.observation.tobytes()
        assert s1.truth_snapshot.tobytes() == s2.truth_snapshot.tobytes()


@pytest.mark.parametrize("noise_sigma", [-0.1, math.nan, math.inf])
def test_stream_cursor_rejects_bad_noise_sigma_naming_the_field(noise_sigma):
    scene = generate_scene(4, 3, 0.0, 0.0, seed=12)
    with pytest.raises(ConfigError, match="noise_sigma"):
        StreamCursor(scene, CoverageSchedule(), noise_sigma, seed=0)


def test_revisit_schedule_full_coverage_every_period():
    scene = generate_scene(6, 3, 0.0, 0.0, seed=13)
    sched = CoverageSchedule(kind=ScheduleKind.REVISIT, window=2, period=3)
    for t, step in enumerate(_steps(scene, sched, 9, 0.0, seed=0), start=1):
        # fixed token grid: one row per region on every frame
        assert step.observation.shape == (6, 3)
        if t % 3 == 0:
            assert step.visible_regions == tuple(range(6))
            assert step.observation.tobytes() == scene.region_codes.tobytes()
        else:
            assert len(step.visible_regions) == 2
            for r in step.visible_regions:
                np.testing.assert_array_equal(step.observation[r], scene.region_codes[r])
            invisible = [i for i in range(6) if i not in step.visible_regions]
            np.testing.assert_array_equal(
                step.observation[invisible], np.zeros((len(invisible), 3), dtype=F32)
            )


def test_static_regions_constant_dynamic_regions_drift():
    scene = generate_scene(6, 4, 0.5, 0.3, seed=14)
    static = sorted(set(range(6)) - scene.dynamic_regions)
    dynamic = sorted(scene.dynamic_regions)
    cursor = StreamCursor(scene, CoverageSchedule(kind=ScheduleKind.FULL), 0.0, seed=15)
    snaps = [cursor.step().truth_snapshot for _ in range(5)]
    for snap in snaps:
        np.testing.assert_array_equal(snap[static], scene.region_codes[static])
    assert snaps[0][dynamic].tobytes() != snaps[-1][dynamic].tobytes()


def test_zero_drift_rate_keeps_dynamic_regions_constant():
    scene = generate_scene(6, 4, 0.5, 0.0, seed=16)
    cursor = StreamCursor(scene, CoverageSchedule(kind=ScheduleKind.FULL), 0.0, seed=17)
    for _ in range(4):
        assert cursor.step().truth_snapshot.tobytes() == scene.region_codes.tobytes()


def test_stream_trace_roundtrip(tmp_path):
    scene = generate_scene(5, 4, 0.4, 0.2, seed=18)
    sched = CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=3)
    cursor = StreamCursor(scene, sched, 0.2, seed=19)
    steps = [cursor.step() for _ in range(6)]
    path = tmp_path / "trace.txt"
    dump_stream(path, steps)
    loaded = load_stream(path, obs_channels=4)
    assert len(loaded) == 6
    for orig, back in zip(steps, loaded):
        assert back.t == orig.t
        assert back.visible_regions == orig.visible_regions
        assert back.observation.tobytes() == orig.observation.tobytes()
        assert back.truth_snapshot.tobytes() == orig.truth_snapshot.tobytes()


def test_dump_stream_failing_part_way_keeps_the_old_file(tmp_path):
    scene = generate_scene(3, 4, 0.0, 0.0, seed=22)
    cursor = StreamCursor(scene, CoverageSchedule(kind=ScheduleKind.FULL), 0.1, seed=23)
    path = tmp_path / "trace.txt"
    path.write_text("old\n")

    def steps():
        yield cursor.step()
        yield cursor.step()
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        dump_stream(path, steps())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.txt"]


def _dumped_lines(tmp_path):
    scene = generate_scene(3, 4, 0.0, 0.0, seed=20)
    cursor = StreamCursor(scene, CoverageSchedule(kind=ScheduleKind.FULL), 0.1, seed=21)
    path = tmp_path / "trace.txt"
    dump_stream(path, [cursor.step() for _ in range(3)])
    return path, path.read_text().splitlines()


def test_load_stream_names_a_short_line(tmp_path):
    path, lines = _dumped_lines(tmp_path)
    lines[1] = ";".join(lines[1].split(";")[:3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="line 2: malformed step"):
        load_stream(path, obs_channels=4)


def test_load_stream_names_a_wrong_value_count(tmp_path):
    path, lines = _dumped_lines(tmp_path)
    fields = lines[2].split(";")
    fields[3] = fields[3].rsplit(",", 1)[0]
    lines[2] = ";".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="line 3: malformed step"):
        load_stream(path, obs_channels=4)


def test_load_stream_names_a_non_ascii_byte(tmp_path):
    path, lines = _dumped_lines(tmp_path)
    data = [line.encode("ascii") for line in lines]
    data[2] = data[2].replace(b",", b"\xe9", 1)
    path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(ConfigError, match="line 3: malformed step"):
        load_stream(path, obs_channels=4)


@pytest.mark.parametrize(
    "field, value",
    [(3, "nan"), (3, "inf"), (3, "1e39"), (4, "-inf"), (4, "nan")],
    ids=["nan-observation", "inf-observation", "overflowing-observation", "-inf-truth", "nan-truth"],
)
def test_load_stream_names_a_non_finite_value(tmp_path, field, value):
    path, lines = _dumped_lines(tmp_path)
    fields = lines[1].split(";")
    fields[field] = ",".join([value] + fields[field].split(",")[1:])
    lines[1] = ";".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"line 2: malformed step \(non-finite value\)"):
            load_stream(path, obs_channels=4)


# _dumped_lines writes 3 regions under the FULL schedule: each line reads
# t;3;0,1,2;<12 values>;<12 values>. Each case loaded silently before.
@pytest.mark.parametrize(
    "field, value, cause",
    [
        (1, "-1", "row count -1 < 1"),
        (0, "-7", "frame index -7 < 1"),
        (0, "0", "frame index 0 < 1"),
        (2, "0,1,9", "visible region 9 outside 0..2"),
        (2, "-1", "visible region -1 outside 0..2"),
    ],
    ids=["rows-minus-one", "negative-t", "zero-t", "visible-past-the-truth", "negative-visible"],
)
def test_load_stream_names_a_bad_count_or_index(tmp_path, field, value, cause):
    path, lines = _dumped_lines(tmp_path)
    fields = lines[1].split(";")
    fields[field] = value
    lines[1] = ";".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"line 2: malformed step \({cause}\)"):
        load_stream(path, obs_channels=4)


# One corruption per kind of malformed line, each a function of its fields.
_CORRUPTIONS = {
    "short": lambda f: f[:3],
    "long": lambda f: f + ["1"],
    "rows": lambda f: [f[0], str(int(f[1]) + 1)] + f[2:],
    "rows-minus-one": lambda f: [f[0], "-1"] + f[2:],
    "t": lambda f: ["0"] + f[1:],
    "t-not-an-integer": lambda f: ["1.5"] + f[1:],
    "visible": lambda f: f[:2] + ["3"] + f[3:],
    "value-count": lambda f: f[:3] + [f[3].rsplit(",", 1)[0]] + f[4:],
    "non-finite": lambda f: f[:4] + ["nan" + f[4][f[4].index(","):]],
    "non-numeric": lambda f: f[:3] + ["x" + f[3][f[3].index(","):]] + f[4:],
}


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(1, 6), bad=st.data(), kind=st.sampled_from(sorted(_CORRUPTIONS)))
def test_load_stream_names_the_line_of_any_malformed_step(tmp_path_factory, frames, bad, kind):
    scene = generate_scene(3, 4, 0.0, 0.0, seed=20)
    cursor = StreamCursor(scene, CoverageSchedule(kind=ScheduleKind.FULL), 0.1, seed=21)
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    dump_stream(path, [cursor.step() for _ in range(frames)])
    lines = path.read_text().splitlines()
    lineno = bad.draw(st.integers(1, frames))
    lines[lineno - 1] = ";".join(_CORRUPTIONS[kind](lines[lineno - 1].split(";")))
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f": line {lineno}: malformed step"):
            load_stream(path, obs_channels=4)


def _same_step(a, b):
    return (a.t, a.visible_regions, a.observation.tobytes(), a.truth_snapshot.tobytes()) == (
        b.t, b.visible_regions, b.observation.tobytes(), b.truth_snapshot.tobytes()
    )


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(list(ScheduleKind)),
    window=st.integers(1, 6),
    drift_rate=st.sampled_from([0.0, 0.05, 0.3]),
    short=st.integers(1, 300),
    extra=st.integers(1, 40),
)
def test_tape_cursors_replay_a_fresh_cursor_past_the_recorded_end(kind, window, drift_rate, short, extra):
    # A shorter session records a prefix; a longer one after it replays that
    # prefix and records the rest, across a seed-block edge when short > 256.
    scene = generate_scene(5, 3, 0.4, drift_rate, seed=31)
    sched = CoverageSchedule(kind=kind, window=window, period=4)
    want = _steps(scene, sched, short + extra, 0.2, seed=32)
    tape = StreamTape(StreamCursor(scene, sched, 0.2, 32))
    first, second = tape.cursor(), tape.cursor()
    assert first.t == second.t == 0
    replayed = [first.step() for _ in range(short)]
    assert all(_same_step(a, b) for a, b in zip(replayed, want))
    for t, w in enumerate(want, start=1):
        step = second.step()
        assert second.t == t and _same_step(step, w)
        if t <= short:
            assert step is replayed[t - 1]


def test_stream_tape_takes_only_a_fresh_generating_cursor_naming_stream():
    # A tape's cursor shares its source's codes, which a drifting tape advances.
    scene = generate_scene(4, 3, 0.5, 0.1, seed=37)
    stepped = StreamCursor(scene, CoverageSchedule(), 0.1, 38)
    stepped.step()
    tape_cursor = StreamTape(StreamCursor(scene, CoverageSchedule(), 0.1, 38)).cursor()
    for stream, cause in ((stepped, "a cursor at frame 0"), (tape_cursor, "a generating cursor")):
        with pytest.raises(ConfigError, match=f"stream must be {cause}"):
            StreamTape(stream)


@pytest.mark.parametrize("drift_rate", [0.0, 0.1])
def test_tape_steps_are_read_only(drift_rate):
    scene = generate_scene(5, 3, 0.4, drift_rate, seed=33)
    schedule = CoverageSchedule(kind=ScheduleKind.REVISIT, period=2)
    cursor = StreamTape(StreamCursor(scene, schedule, 0.1, 34)).cursor()
    for step in [cursor.step() for _ in range(4)]:
        for array in (step.observation, step.truth_snapshot):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


def test_static_truth_is_one_read_only_array_drifting_truth_a_copy_per_step():
    static = _steps(generate_scene(5, 3, 0.4, 0.0, seed=35), CoverageSchedule(), 3, 0.1, seed=36)
    assert static[0].truth_snapshot is static[2].truth_snapshot
    assert not static[0].truth_snapshot.flags.writeable
    drifting = _steps(generate_scene(5, 3, 0.4, 0.1, seed=35), CoverageSchedule(), 3, 0.1, seed=36)
    assert drifting[0].truth_snapshot is not drifting[2].truth_snapshot
    assert drifting[0].truth_snapshot.tobytes() != drifting[2].truth_snapshot.tobytes()
