import numpy as np
import pytest

from streamgate.errors import ConfigError
from streamgate.world import (
    CoverageSchedule,
    ScheduleKind,
    StreamCursor,
    dump_stream,
    generate_scene,
    load_stream,
    step_stream,
)

F32 = np.float32


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


def test_coverage_schedule_validation():
    with pytest.raises(ConfigError):
        CoverageSchedule(window=0)
    with pytest.raises(ConfigError):
        CoverageSchedule(period=0)


def test_full_schedule_sees_everything():
    scene = generate_scene(5, 3, 0.0, 0.0, seed=3)
    step = step_stream(scene, CoverageSchedule(kind=ScheduleKind.FULL), 4, 0.1, seed=0)
    assert step.visible_regions == tuple(range(5))
    assert step.observation.shape == (5, 3)


def test_noiseless_static_full_observation_equals_codes():
    scene = generate_scene(5, 3, 0.0, 0.0, seed=4)
    step = step_stream(scene, CoverageSchedule(kind=ScheduleKind.FULL), 7, 0.0, seed=0)
    assert step.observation.tobytes() == scene.region_codes.tobytes()
    assert step.truth_snapshot.tobytes() == scene.region_codes.tobytes()


def test_sliding_window_wraps_and_covers():
    # any R consecutive frames collectively visit every region
    scene = generate_scene(6, 3, 0.0, 0.0, seed=5)
    sched = CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=2)
    for t0 in (1, 4, 9):
        seen = set()
        for t in range(t0, t0 + 6):
            step = step_stream(scene, sched, t, 0.0, seed=0)
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
        t for t in range(1, 2 * regions + 1)
        if target in step_stream(scene, sched, t, 0.0, seed=0).visible_regions
    ]
    expected = [
        t for t in range(1, 2 * regions + 1)
        if ((target - (t - 1)) % regions) < window
    ]
    assert visible_ts == expected
    assert [b - a for a, b in zip(visible_ts, visible_ts[1:])].count(regions - window + 1) == 1


def test_stream_cursor_matches_step_stream_bitwise():
    scene = generate_scene(6, 4, 0.5, 0.2, seed=8)
    sched = CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=3)
    cursor = StreamCursor(scene, sched, 0.1, seed=9)
    for t in range(1, 8):
        via_cursor = cursor.step()
        via_fn = step_stream(scene, sched, t, 0.1, seed=9)
        assert via_cursor.observation.tobytes() == via_fn.observation.tobytes()
        assert via_cursor.truth_snapshot.tobytes() == via_fn.truth_snapshot.tobytes()
        assert via_cursor.visible_regions == via_fn.visible_regions


def test_streams_bit_identical_across_runs():
    scene = generate_scene(6, 4, 0.5, 0.2, seed=10)
    sched = CoverageSchedule(kind=ScheduleKind.REVISIT, window=2, period=4)
    c1 = StreamCursor(scene, sched, 0.3, seed=11)
    c2 = StreamCursor(scene, sched, 0.3, seed=11)
    for _ in range(6):
        s1, s2 = c1.step(), c2.step()
        assert s1.observation.tobytes() == s2.observation.tobytes()
        assert s1.truth_snapshot.tobytes() == s2.truth_snapshot.tobytes()


def test_step_stream_validation():
    scene = generate_scene(4, 3, 0.0, 0.0, seed=12)
    with pytest.raises(ConfigError):
        step_stream(scene, CoverageSchedule(), 0, 0.1, seed=0)
    with pytest.raises(ConfigError):
        StreamCursor(scene, CoverageSchedule(), -0.1, seed=0)


def test_revisit_schedule_full_coverage_every_period():
    scene = generate_scene(6, 3, 0.0, 0.0, seed=13)
    sched = CoverageSchedule(kind=ScheduleKind.REVISIT, window=2, period=3)
    for t in range(1, 10):
        step = step_stream(scene, sched, t, 0.0, seed=0)
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
