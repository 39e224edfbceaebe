import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamgate import evaluation
from streamgate.decoder import decode_step, encode_frame, make_weights, readout
from streamgate.errors import ConfigError, StateError
from streamgate.evaluation import (
    WorldSpec,
    degradation_curve,
    experiment_seeds,
    initial_state,
    run_ablation,
    run_session,
    seeded_stream,
    tau_sweep,
)
from streamgate.gating import (
    AttentionTrace,
    AttnSource,
    GateConfig,
    Strategy,
    UpdateMask,
    gate_step,
)
from streamgate.world import CoverageSchedule, ScheduleKind, StreamCursor, _StreamTape, generate_scene

SMALL_WORLD = WorldSpec(
    regions=6,
    obs_channels=8,
    noise_sigma=0.05,
    schedule=CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=2),
)


def small_weights():
    return make_weights(n_layers=2, channels=8, obs_channels=8, seed=0)


def small_session(strategy, frames=10, seed=0, cfg=None):
    return run_session(
        seeded_stream(SMALL_WORLD, seed), small_weights(), cfg or GateConfig(), strategy, frames
    )


def test_single_frame_identical_across_strategies():
    results = [small_session(s, frames=1) for s in Strategy]
    first = results[0]
    for r in results[1:]:
        assert r.per_frame_error == first.per_frame_error
        assert r.final_state.tobytes() == first.final_state.tobytes()
        assert r.mask_stats == first.mask_stats


def test_session_deterministic():
    a = small_session(Strategy.FUSED, frames=12, seed=3)
    b = small_session(Strategy.FUSED, frames=12, seed=3)
    assert a.per_frame_error == b.per_frame_error
    assert a.final_state.tobytes() == b.final_state.tobytes()


def test_uniform_session_independent_of_gate_config():
    base = small_session(Strategy.UNIFORM, frames=12, cfg=GateConfig())
    wild = small_session(
        Strategy.UNIFORM,
        frames=12,
        cfg=GateConfig(tau=7.3, eps_mean=0.5, spat_gain=9.0, spat_bias=-4.0),
    )
    assert base.per_frame_error == wild.per_frame_error
    assert base.final_state.tobytes() == wild.final_state.tobytes()


def test_session_result_structure():
    frames = 9
    r = small_session(Strategy.FUSED, frames=frames)
    assert r.frames == frames
    assert len(r.per_frame_error) == frames
    assert all(e >= 0 for e in r.per_frame_error)
    assert r.final_error == r.per_frame_error[-1]
    assert r.region_errors.shape == (frames, SMALL_WORLD.regions)
    for mean, lo, hi in r.mask_stats:
        assert 0.0 <= lo <= mean <= hi <= 1.0


def test_run_session_validation():
    scene = generate_scene(6, 8, 0.0, 0.0, seed=1)
    stream = StreamCursor(scene, SMALL_WORLD.schedule, 0.05, 1)
    with pytest.raises(ConfigError):
        run_session(stream, small_weights(), GateConfig(), Strategy.FUSED, 0)


@pytest.mark.parametrize("frames", [2.5, True, "3", 0])
def test_run_session_rejects_bad_frames_naming_the_argument(frames):
    with pytest.raises(ConfigError, match="frames"):
        run_session(seeded_stream(SMALL_WORLD, 0), small_weights(), GateConfig(), Strategy.FUSED, frames)


def test_run_session_rejects_a_stepped_stream_naming_it():
    scene = generate_scene(6, 8, 0.0, 0.0, seed=1)
    tape = _StreamTape(StreamCursor(scene, SMALL_WORLD.schedule, 0.05, 1))
    args = (small_weights(), GateConfig(), Strategy.FUSED, 3)
    run_session(tape.cursor(), *args)
    for stream in (StreamCursor(scene, SMALL_WORLD.schedule, 0.05, 1), tape.cursor()):
        stream.step()
        with pytest.raises(ConfigError, match="stream must be a cursor at frame 0"):
            run_session(stream, *args)


def _replayed_scores(scene, schedule, weights, cfg, strategy, frames, noise_sigma, seed):
    """Per-frame errors, scored against the truth projected on every frame,
    and mask stats, both in their textbook numpy form."""
    cursor = StreamCursor(scene, schedule, noise_sigma, seed)
    state, prev_candidate, prev_frame = initial_state(scene, weights), None, None
    errors, mask_stats = [], []
    for _ in range(frames):
        step = cursor.step()
        frame = encode_frame(step.observation, weights)
        out = decode_step(frame, state, weights, cfg.attn_source)
        state, mask = gate_step(
            out.candidate, state, frame, out.trace, cfg, strategy,
            prev_candidate=prev_candidate, prev_frame=prev_frame,
        )
        prev_candidate, prev_frame = out.candidate, frame
        estimate = readout(out.candidate, weights).astype(np.float64)
        truth = (step.truth_snapshot @ weights.encoder).astype(np.float64)
        scale = float((estimate * truth).sum()) / (float((estimate * estimate).sum()) + 1e-12)
        errors.append(float(np.sqrt(((scale * estimate - truth) ** 2).sum(axis=1)).mean()))
        m = mask.values
        mask_stats.append((float(m.mean()), float(m.min()), float(m.max())))
    return errors, mask_stats


@pytest.mark.parametrize("dynamic_fraction, drift_rate, drifts", [(0.5, 0.1, True), (0.5, 0.0, False)])
def test_run_session_scores_against_current_truth(dynamic_fraction, drift_rate, drifts):
    scene = generate_scene(6, 8, dynamic_fraction, drift_rate, seed=5)
    assert scene.drifts is drifts
    schedule = CoverageSchedule(kind=ScheduleKind.FULL, window=6)
    weights, cfg = small_weights(), GateConfig()
    result = run_session(StreamCursor(scene, schedule, 0.05, 9), weights, cfg, Strategy.FUSED, 12)
    replayed = _replayed_scores(scene, schedule, weights, cfg, Strategy.FUSED, 12, 0.05, 9)
    assert (result.per_frame_error, result.mask_stats) == replayed


def test_initial_state_one_token_per_region():
    scene = generate_scene(6, 8, 0.0, 0.0, seed=2)
    state = initial_state(scene, small_weights())
    assert state.shape == (6, 8)
    assert state.dtype == np.float32
    assert initial_state(scene, small_weights()).tobytes() == state.tobytes()


def test_initial_state_rejects_channel_mismatch():
    scene = generate_scene(6, 5, 0.0, 0.0, seed=2)
    with pytest.raises(ConfigError, match="5 observation channels, encoder expects 8"):
        initial_state(scene, small_weights())


def test_run_ablation_requires_two_strategies():
    with pytest.raises(ConfigError):
        run_ablation(SMALL_WORLD, small_weights(), GateConfig(), [Strategy.FUSED], 5, [0])


def test_run_ablation_structure_and_determinism():
    strategies = [Strategy.UNIFORM, Strategy.FUSED]
    a = run_ablation(SMALL_WORLD, small_weights(), GateConfig(), strategies, 8, [0, 1, 2])
    b = run_ablation(SMALL_WORLD, small_weights(), GateConfig(), strategies, 8, [0, 1, 2])
    assert [(r.strategy, r.seed, r.final_error) for r in a.rows] == [
        (r.strategy, r.seed, r.final_error) for r in b.rows
    ]
    assert len(a.rows) == 6
    assert [s.strategy for s in a.summary] == strategies
    for row in a.rows:
        assert row.frames == 8
        assert 0.0 <= row.mean_mask <= 1.0
    for summ in a.summary:
        assert summ.iqr_final_error >= 0.0


def test_degradation_curve_validation():
    w = small_weights()
    with pytest.raises(ConfigError):
        degradation_curve(SMALL_WORLD, w, GateConfig(), [Strategy.FUSED], [10], [0])
    with pytest.raises(ConfigError):
        degradation_curve(SMALL_WORLD, w, GateConfig(), [Strategy.FUSED], [30, 10], [0])
    with pytest.raises(ConfigError, match="^degradation_curve needs at least 1 strategy$"):
        degradation_curve(SMALL_WORLD, w, GateConfig(), [], [2, 3], [0])


def test_ablation_and_degradation_reject_repeated_strategies():
    w = small_weights()
    repeated = [Strategy.FUSED, Strategy.UNIFORM, Strategy.FUSED]
    with pytest.raises(ConfigError, match="repeated"):
        run_ablation(SMALL_WORLD, w, GateConfig(), repeated, 3, [0])
    with pytest.raises(ConfigError, match="repeated"):
        degradation_curve(SMALL_WORLD, w, GateConfig(), repeated, [2, 3], [0])


def test_experiments_reject_repeated_seeds():
    w = small_weights()
    strategies = [Strategy.UNIFORM, Strategy.FUSED]
    with pytest.raises(ConfigError, match=r"run_ablation: repeated seed in \[0, 1, 0\]"):
        run_ablation(SMALL_WORLD, w, GateConfig(), strategies, 3, [0, 1, 0])
    with pytest.raises(ConfigError, match="degradation_curve: repeated seed"):
        degradation_curve(SMALL_WORLD, w, GateConfig(), strategies, [2, 3], [4, 4])
    with pytest.raises(ConfigError, match="tau_sweep: repeated seed"):
        tau_sweep(SMALL_WORLD, w, GateConfig(), [1.0], 3, [2, 2])


def test_degradation_curve_rejects_empty_seeds():
    with pytest.raises(ConfigError, match="degradation_curve needs at least 1 seed"):
        degradation_curve(SMALL_WORLD, small_weights(), GateConfig(), [Strategy.FUSED], [2, 3], [])


def test_tau_sweep_rejects_empty_seeds():
    with pytest.raises(ConfigError, match="tau_sweep needs at least 1 seed"):
        tau_sweep(SMALL_WORLD, small_weights(), GateConfig(), [1.0], 3, [])


def test_degradation_curve_equals_separately_run_sessions():
    strategies = [Strategy.UNIFORM, Strategy.FUSED]
    lengths, seeds = [1, 4, 4, 9], [0, 1, 2]
    report = degradation_curve(
        SMALL_WORLD, small_weights(), GateConfig(), strategies, lengths, seeds
    )
    for strategy in strategies:
        separate = [
            float(np.median([small_session(strategy, n, seed).final_error for seed in seeds]))
            for n in lengths
        ]
        assert report.errors_by_strategy[strategy] == separate


def test_run_ablation_equals_separately_run_sessions():
    strategies = [Strategy.FUSED, Strategy.UNIFORM, Strategy.SPATIAL_ONLY]
    seeds, frames = [2, 0, 5], 7
    table = run_ablation(SMALL_WORLD, small_weights(), GateConfig(), strategies, frames, seeds)
    separate = []
    for strategy in strategies:
        for seed in seeds:
            result = small_session(strategy, frames, seed)
            mean_mask = float(np.mean([m[0] for m in result.mask_stats]))
            separate.append((strategy, seed, frames, result.final_error, mean_mask))
    assert [(r.strategy, r.seed, r.frames, r.final_error, r.mean_mask) for r in table.rows] == separate
    for summary, strategy in zip(table.summary, strategies):
        finals = [row[3] for row in separate if row[0] is strategy]
        assert summary.strategy is strategy
        assert summary.median_final_error == float(np.median(finals))
        assert summary.iqr_final_error == float(
            np.percentile(finals, 75) - np.percentile(finals, 25)
        )


def test_tau_sweep_equals_separately_run_sessions():
    taus, seeds, frames = [0.5, 2.0, 0.5], [1, 3], 6
    rows = tau_sweep(SMALL_WORLD, small_weights(), GateConfig(spat_gain=2.0), taus, frames, seeds)
    separate = []
    for tau in taus:
        cfg = GateConfig(tau=tau, spat_gain=2.0)
        finals = [small_session(Strategy.FUSED, frames, seed, cfg).final_error for seed in seeds]
        separate.append((tau, float(np.median(finals))))
    assert rows == separate


def test_degradation_curve_equal_lengths_ratio_one():
    report = degradation_curve(
        SMALL_WORLD,
        small_weights(),
        GateConfig(),
        [Strategy.UNIFORM, Strategy.FUSED],
        [10, 10],
        [0, 1],
    )
    assert report.growth_ratio[Strategy.UNIFORM] == 1.0
    assert report.growth_ratio[Strategy.FUSED] == 1.0


def test_degradation_curve_structure():
    report = degradation_curve(
        SMALL_WORLD,
        small_weights(),
        GateConfig(),
        [Strategy.UNIFORM, Strategy.FUSED],
        [5, 15],
        [0, 1],
    )
    assert report.lengths == [5, 15]
    for strat in (Strategy.UNIFORM, Strategy.FUSED):
        assert len(report.errors_by_strategy[strat]) == 2
        assert report.growth_ratio[strat] >= 0.0


@pytest.mark.parametrize("lengths", [[0, 4], [1.5, 3], [2, True]])
def test_degradation_curve_rejects_bad_lengths_naming_them(lengths):
    with pytest.raises(ConfigError, match="lengths entry must be an integer >= 1"):
        degradation_curve(SMALL_WORLD, small_weights(), GateConfig(), [Strategy.FUSED], lengths, [0])


def test_tau_sweep_validation_and_determinism():
    w = small_weights()
    with pytest.raises(ConfigError):
        tau_sweep(SMALL_WORLD, w, GateConfig(), [1.0, -1.0], 5, [0])
    with pytest.raises(ConfigError, match="^tau_sweep needs at least 1 tau value$"):
        tau_sweep(SMALL_WORLD, w, GateConfig(), [], 5, [0])
    rows = tau_sweep(SMALL_WORLD, w, GateConfig(), [1.0, 1.0], 6, [0, 1])
    assert rows[0][1] == rows[1][1]


def test_tau_saturation_freezes_state():
    # at tau=50 the temporal mask is ~0 after frame 1; committed state stays
    # at the first write, so the error matches a frozen-state session
    world = WorldSpec()
    weights = make_weights(4, 32, 32, seed=0)
    frozen_cfg = GateConfig(tau=50.0)
    r = run_session(seeded_stream(world, 0), weights, frozen_cfg, Strategy.FUSED, 40)
    assert all(m[2] < 1e-6 for m in r.mask_stats[1:])  # max mask ~ 0 after frame 1

    # manual frozen recurrence: state committed only at frame 1
    from streamgate.decoder import decode_step, encode_frame
    from streamgate.world import StreamCursor

    scene_seed, stream_seed = experiment_seeds(0)
    scene = generate_scene(16, 32, 0.0, 0.0, seed=scene_seed)
    cursor = StreamCursor(scene, world.schedule, world.noise_sigma, stream_seed)
    state = initial_state(scene, weights)
    for t in range(40):
        step = cursor.step()
        frame = encode_frame(step.observation, weights)
        out = decode_step(frame, state, weights)
        if t == 0:
            state = out.candidate
    np.testing.assert_allclose(r.final_state, state, atol=1e-4)


def test_full_noiseless_fused_error_declines():
    # regression envelope: error strictly improves overall and per-frame
    # increases stay inside the recorded bound
    weights = make_weights(4, 32, 32, seed=0)
    cfg = GateConfig()
    worst = 0.0
    for s in range(20):
        scene_seed, stream_seed = experiment_seeds(s)
        scene = generate_scene(16, 32, 0.0, 0.0, seed=scene_seed)
        stream = StreamCursor(scene, CoverageSchedule(kind=ScheduleKind.FULL), 0.0, stream_seed)
        r = run_session(stream, weights, cfg, Strategy.FUSED, 60)
        e = np.array(r.per_frame_error)
        worst = max(worst, float(np.max(e[2:] - e[1:-1])))
        assert e[-1] < e[0]
    assert worst <= 0.01


def test_forgetting_mechanism_staleness_contrast():
    # sliding-window static noiseless stream: under uniform updates, regions
    # that have been out of view for >= 8 frames carry clearly more error
    # than just-refreshed ones (pooled medians per seed); under the fused
    # gate a region's error while invisible stays within the recorded factor
    # of its error at last visit (floor 0.1 absorbs near-zero bases).
    weights = make_weights(4, 32, 32, seed=0)
    cfg = GateConfig()
    sched = CoverageSchedule(kind=ScheduleKind.SLIDING_WINDOW, window=4)

    def staleness(visible, regions, frames):
        out = np.full((frames, regions), np.inf)
        last = {}
        for t in range(frames):
            for i in visible[t]:
                last[i] = t
            for i in range(regions):
                out[t, i] = t - last[i] if i in last else np.inf
        return out

    worst_factor = 0.0
    for s in range(20):
        scene_seed, stream_seed = experiment_seeds(s)
        scene = generate_scene(16, 32, 0.0, 0.0, seed=scene_seed)
        ru = run_session(StreamCursor(scene, sched, 0.0, stream_seed), weights, cfg, Strategy.UNIFORM, 300)
        st = staleness(ru.visible, 16, 300)
        fresh, very_stale = [], []
        for t in range(17, 300):
            fresh.extend(ru.region_errors[t][st[t] == 0].tolist())
            very_stale.extend(ru.region_errors[t][st[t] >= 8].tolist())
        assert np.median(very_stale) > np.median(fresh)

        rf = run_session(StreamCursor(scene, sched, 0.0, stream_seed), weights, cfg, Strategy.FUSED, 300)
        last_err = {}
        for t in range(300):
            vis = set(rf.visible[t])
            for i in range(16):
                if i in vis:
                    last_err[i] = rf.region_errors[t][i]
                elif i in last_err:
                    worst_factor = max(
                        worst_factor, rf.region_errors[t][i] / max(last_err[i], 0.1)
                    )
    assert worst_factor <= 5.0


def test_array_holders_compare_and_hash_by_identity():
    scene = generate_scene(6, 8, 0.5, 0.1, seed=2)
    schedule = CoverageSchedule(kind=ScheduleKind.FULL)
    makers = [
        lambda: make_weights(1, 4),
        lambda: generate_scene(6, 8, 0.5, 0.1, seed=2),
        lambda: StreamCursor(scene, schedule, 0.05, 1),
        lambda: StreamCursor(scene, schedule, 0.05, 1).step(),
        lambda: UpdateMask(np.ones(3), Strategy.FUSED),
        lambda: AttentionTrace(np.ones((2, 3, 4), dtype=np.float32)),
        lambda: small_session(Strategy.FUSED, frames=2),
        lambda: decode_step(np.ones((2, 4)), np.ones((3, 4)), make_weights(1, 4)),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
    # Value objects without arrays keep value equality.
    assert GateConfig(tau=2.0) == GateConfig(tau=2.0)
    assert CoverageSchedule(window=3) == CoverageSchedule(window=3)
    assert WorldSpec(regions=5) == WorldSpec(regions=5)
    assert hash(CoverageSchedule(window=3)) == hash(CoverageSchedule(window=3))


def test_child_seed_is_private():
    # Only experiment_seeds derives child seeds, after it has checked the seed.
    assert not hasattr(evaluation, "child_seed")


@pytest.mark.parametrize("dynamic_fraction, drift_rate", [(0.0, 0.0), (0.5, 0.1)])
def test_scoring_some_frames_changes_nothing_else(dynamic_fraction, drift_rate):
    scene = generate_scene(6, 8, dynamic_fraction, drift_rate, seed=4)

    def session(scored=None):
        stream = StreamCursor(scene, SMALL_WORLD.schedule, 0.05, 2)
        return run_session(stream, small_weights(), GateConfig(), Strategy.FUSED, 15, scored=scored)

    full = session()
    # Repeats collapse, order does not matter, and the last frame is always scored.
    for scored in ([1, 7, 15], [3, 9], [5, 5, 2], [], np.array([15, 4])):
        part = session(scored)
        frames = sorted(set(int(t) for t in scored) | {15})
        assert part.per_frame_error == [full.per_frame_error[t - 1] for t in frames]
        assert part.region_errors.tobytes() == full.region_errors[np.array(frames) - 1].tobytes()
        assert part.final_error == full.final_error
        assert part.mask_stats == full.mask_stats
        assert part.visible == full.visible
        assert part.final_state.tobytes() == full.final_state.tobytes()
        assert part.frames == full.frames


@pytest.mark.parametrize("scored", [[0], [7], [-1], [2.0], [True], ["3"], "3", 5, [None]])
def test_run_session_rejects_bad_scored_frames_naming_the_argument(scored):
    with pytest.raises(ConfigError, match="scored"):
        run_session(
            seeded_stream(SMALL_WORLD, 0), small_weights(), GateConfig(), Strategy.FUSED, 6,
            scored=scored,
        )


def _counting(monkeypatch, name):
    calls = []
    original = getattr(evaluation, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("scored"))
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, name, counted)
    return calls


def test_grids_run_each_session_once_and_read_only_their_lengths(monkeypatch):
    sessions = _counting(monkeypatch, "run_session")
    readouts = _counting(monkeypatch, "readout")
    strategies, seeds = [Strategy.FUSED, Strategy.UNIFORM, Strategy.TEMPORAL_ONLY], [2, 0]
    run_ablation(SMALL_WORLD, small_weights(), GateConfig(), strategies, 7, seeds)
    assert sessions == [[7]] * 6
    assert len(readouts) == 6

    sessions.clear()
    readouts.clear()
    lengths = [1, 4, 4, 9]
    degradation_curve(SMALL_WORLD, small_weights(), GateConfig(), strategies[:2], lengths, seeds)
    assert sessions == [lengths] * 4
    assert len(readouts) == 3 * 4

    sessions.clear()
    readouts.clear()
    tau_sweep(SMALL_WORLD, small_weights(), GateConfig(), [0.5, 2.0, 0.5], 5, seeds)
    assert sessions == [[5]] * 6
    assert len(readouts) == 6


_GRID_WORLDS = {
    "sliding": SMALL_WORLD,
    "revisit": WorldSpec(
        regions=6, obs_channels=8, schedule=CoverageSchedule(ScheduleKind.REVISIT, 2, 3)
    ),
    "full-drift": WorldSpec(
        regions=6, obs_channels=8, dynamic_fraction=0.5, drift_rate=0.05,
        schedule=CoverageSchedule(ScheduleKind.FULL),
    ),
}


@pytest.mark.parametrize("world", list(_GRID_WORLDS.values()), ids=list(_GRID_WORLDS))
def test_seeded_stream_equals_a_cursor_built_from_experiment_seeds(world):
    for seed in (0, 5):
        scene_seed, stream_seed = experiment_seeds(seed)
        scene = generate_scene(
            world.regions, world.obs_channels, world.dynamic_fraction, world.drift_rate, seed=scene_seed
        )
        want = StreamCursor(scene, world.schedule, world.noise_sigma, stream_seed)
        got = seeded_stream(world, seed)
        assert got.t == 0 and got.seed == stream_seed and got.scene.seed == scene_seed
        assert got.scene.region_codes.tobytes() == scene.region_codes.tobytes()
        assert got.scene.dynamic_regions == scene.dynamic_regions
        for _ in range(12):
            a, b = got.step(), want.step()
            assert (a.t, a.visible_regions) == (b.t, b.visible_regions)
            assert a.observation.tobytes() == b.observation.tobytes()
            assert a.truth_snapshot.tobytes() == b.truth_snapshot.tobytes()


@st.composite
def _grid_worlds(draw):
    kind = draw(st.sampled_from(list(ScheduleKind)))
    return WorldSpec(
        regions=draw(st.integers(1, 6)),
        obs_channels=draw(st.integers(1, 8)),
        dynamic_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        drift_rate=draw(st.sampled_from([0.0, 0.05, 0.3])),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])),
        schedule=CoverageSchedule(kind, draw(st.integers(1, 6)), draw(st.integers(1, 4))),
    )


# The grid runs a seed's sessions on one generation of its stream; each
# session must read the bits it would read on a stream of its own.
@settings(max_examples=30, deadline=None)
@given(
    world=_grid_worlds(),
    sources=st.lists(st.sampled_from(list(AttnSource)), min_size=1, unique=True),
    strategies=st.lists(st.sampled_from(list(Strategy)), min_size=1, unique=True),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    seeds=st.lists(st.integers(0, 99), min_size=1, max_size=2, unique=True),
)
@example(world=_GRID_WORLDS["sliding"], sources=list(AttnSource), strategies=list(Strategy),
         lengths=[3, 11, 3], seeds=[4, 1])
@example(world=_GRID_WORLDS["revisit"], sources=list(AttnSource), strategies=list(Strategy),
         lengths=[3, 11, 3], seeds=[4, 1])
@example(world=_GRID_WORLDS["full-drift"], sources=list(AttnSource), strategies=list(Strategy),
         lengths=[3, 11, 3], seeds=[4, 1])
def test_session_grid_equals_sessions_on_their_own_streams(world, sources, strategies, lengths, seeds):
    weights = make_weights(n_layers=2, channels=8, obs_channels=world.obs_channels)
    cfgs = [GateConfig(attn_source=source) for source in sources]
    errors, masks = evaluation._session_grid("grid", world, weights, cfgs, strategies, lengths, seeds)
    for c, s, k in np.ndindex(masks.shape):
        alone = run_session(
            seeded_stream(world, seeds[k]), weights, cfgs[c], strategies[s], max(lengths), scored=lengths
        )
        by_length = dict(zip(sorted(set(lengths)), alone.per_frame_error))
        assert errors[c, s, k].tolist() == [by_length[n] for n in lengths]
        assert masks[c, s, k] == np.mean([m[0] for m in alone.mask_stats])


def test_session_grid_calls_run_session_once_per_session_seed_major(monkeypatch):
    calls, advanced = [], []
    original, advance = evaluation.run_session, StreamCursor._advance

    def recorded(stream, weights, cfg, strategy, *args, **kwargs):
        assert stream.t == 0
        calls.append((cfg, strategy, stream.seed))
        return original(stream, weights, cfg, strategy, *args, **kwargs)

    monkeypatch.setattr(evaluation, "run_session", recorded)
    monkeypatch.setattr(StreamCursor, "_advance", lambda self: advanced.append(self.seed) or advance(self))
    cfgs = [GateConfig(tau=0.5), GateConfig(tau=2.0)]
    strategies, lengths, seeds = [Strategy.UNIFORM, Strategy.FUSED], [4, 9, 2], [3, 0, 7]
    evaluation._session_grid("grid", SMALL_WORLD, small_weights(), cfgs, strategies, lengths, seeds)
    stream_seeds = [experiment_seeds(seed)[1] for seed in seeds]
    # Each seed's stream is generated once, to the longest length ...
    assert sorted(advanced) == sorted(stream_seeds * max(lengths))
    # ... and each (config, strategy, seed) session runs once ...
    ran = sorted((cfgs.index(c), strategies.index(s), stream_seeds.index(k)) for c, s, k in calls)
    assert ran == list(np.ndindex(len(cfgs), len(strategies), len(seeds)))
    # ... with all sessions of one seed consecutive, in seed order.
    assert [k for k, _ in itertools.groupby(call[2] for call in calls)] == stream_seeds


# Region codes drifting by 1e19 or more per frame overflow the decoder's
# float32 attention scores within 40 frames, and near float32's maximum the
# codes themselves overflow. Either way every strategy's session raises a
# named StateError, under warnings-as-errors, rather than a raw
# RuntimeWarning from the softmax's inf - inf or the stream's drift: from
# decode_step, from the stream step that overflows, naming its cause, or
# from a gate whose finite inputs overflow first, naming the overflow.
@settings(max_examples=30, deadline=None)
@example(strategy=Strategy.FUSED, exponent=39.0, noise_sigma=0.0, seed=0)  # the codes overflow on frame 1
@example(strategy=Strategy.SPATIAL_ONLY, exponent=19.0, noise_sigma=0.0, seed=2564)  # the frames' cosine overflows
@example(strategy=Strategy.TEMPORAL_ONLY, exponent=20.0, noise_sigma=0.0, seed=2564)  # the candidates' difference
@given(strategy=st.sampled_from(list(Strategy)), exponent=st.floats(19, 39),
       noise_sigma=st.sampled_from([0.0, 0.05, 1.0]), seed=st.integers(0, 2**16))
def test_a_session_whose_values_overflow_float32_raises_state_error(strategy, exponent, noise_sigma, seed):
    drift_rate = min(10.0 ** exponent, float(np.finfo(np.float32).max))
    scene = generate_scene(4, 8, 0.5, drift_rate, seed=seed)
    stream = StreamCursor(scene, CoverageSchedule(ScheduleKind.FULL), noise_sigma, seed)
    weights = make_weights(n_layers=2, channels=8, obs_channels=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=r"^(decode_step: non-finite |StreamCursor\.step: frame "
                           r"\d+: (the drifting region codes overflow|the observation overflows) float32$"
                           r"|gate_step: the (difference of candidate and prev_candidate overflows float32 in the "
                           r"temporal|cosine of frame and prev_frame overflows float32 in the spatial) gate$)"):
            run_session(stream, weights, GateConfig(), strategy, 40)
