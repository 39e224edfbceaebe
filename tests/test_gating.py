import warnings

import numpy as np
import pytest

from streamgate.errors import ConfigError, StateError
from streamgate.gating import (
    AttentionTrace,
    GateConfig,
    MaskKind,
    Strategy,
    UpdateMask,
    aggregate_attention,
    apply_update,
    feature_divergence,
    fuse_masks,
    gate_step,
    spatial_mask,
    temporal_mask,
    uniform_mask,
)

F32 = np.float32


def ones_mask(n, kind):
    return UpdateMask(np.ones(n, dtype=F32), kind)


# --- config and container validation -------------------------------------


@pytest.mark.parametrize("kwargs", [{"tau": 0.0}, {"tau": -1.0}, {"eps_mean": 0.0}, {"spat_gain": 0.0}])
def test_gate_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        GateConfig(**kwargs)


def test_attention_trace_rejects_empty_and_ragged():
    with pytest.raises(ConfigError):
        AttentionTrace(())
    with pytest.raises(ConfigError):
        AttentionTrace((np.zeros((2, 3), dtype=F32), np.zeros((2, 4), dtype=F32)))


def test_attention_trace_layer_count():
    trace = AttentionTrace((np.zeros((2, 3), dtype=F32),) * 4)
    assert trace.layer_count == 4


# --- temporal mask --------------------------------------------------------


def test_temporal_mask_zero_delta_fallback():
    curr = np.ones((3, 4), dtype=F32)
    mask = temporal_mask(curr, curr.copy(), GateConfig())
    np.testing.assert_allclose(mask.values, [0.5, 0.5, 0.5])
    assert mask.kind is MaskKind.TEMPORAL


def test_temporal_mask_hand_computed():
    # per-token delta norms [1, 3]; mean 2; normalized [0.5, 1.5]; tau=1
    curr = np.array([[1.0, 0.0], [0.0, 3.0]], dtype=F32)
    prev = np.zeros((2, 2), dtype=F32)
    mask = temporal_mask(curr, prev, GateConfig())
    np.testing.assert_allclose(mask.values, [0.3775406688, 0.6224593312], atol=1e-6)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_temporal_mask_scale_invariance(c):
    # the difference itself is scaled (zero base keeps c*delta exact in f32)
    rng = np.random.default_rng(7)
    delta = rng.standard_normal((5, 6)).astype(F32)
    zero = np.zeros_like(delta)
    base = temporal_mask(delta, zero, GateConfig())
    scaled = temporal_mask(F32(c) * delta, zero, GateConfig())
    np.testing.assert_allclose(scaled.values, base.values, atol=1e-5)


def test_temporal_mask_mean_normalization():
    rng = np.random.default_rng(8)
    prev = rng.standard_normal((6, 5)).astype(F32)
    curr = prev + rng.standard_normal((6, 5)).astype(F32)
    deltas = np.sqrt(((curr - prev) ** 2).sum(axis=1))
    normalized = deltas / deltas.mean()
    assert abs(normalized.mean() - 1.0) < 1e-5


def test_temporal_mask_monotonicity():
    # raising one token's delta never lowers its own mask or raises others'
    def build(norms):
        curr = np.zeros((len(norms), 2), dtype=F32)
        curr[:, 0] = norms
        return temporal_mask(curr, np.zeros_like(curr), GateConfig()).values

    base = build([1.0, 2.0, 3.0])
    bumped = build([1.0, 2.0, 4.0])
    assert bumped[2] >= base[2]
    assert (bumped[:2] <= base[:2] + 1e-7).all()


def test_temporal_mask_shape_mismatch():
    with pytest.raises(ConfigError):
        temporal_mask(np.zeros((2, 2)), np.zeros((3, 2)), GateConfig())


@pytest.mark.parametrize("side", ["curr", "prev"])
def test_temporal_mask_rejects_non_finite_candidate(side):
    arrays = {"curr": np.ones((2, 3), dtype=F32), "prev": np.zeros((2, 3), dtype=F32)}
    arrays[side][0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="non-finite"):
            temporal_mask(arrays["curr"], arrays["prev"], GateConfig())


# --- feature divergence ----------------------------------------------------


def test_feature_divergence_cases():
    frame = np.random.default_rng(3).standard_normal((4, 5)).astype(F32)
    np.testing.assert_allclose(feature_divergence(frame, frame.copy()), np.zeros(4), atol=1e-6)
    np.testing.assert_allclose(feature_divergence(frame, -frame), np.full(4, 2.0), atol=1e-6)
    np.testing.assert_allclose(
        feature_divergence([[1.0, 0.0]], [[0.0, 1.0]]), [1.0], atol=1e-6
    )


def test_feature_divergence_range_and_mismatch():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 3)).astype(F32)
    b = rng.standard_normal((6, 3)).astype(F32)
    d = feature_divergence(a, b)
    assert (d >= 0).all() and (d <= 2).all()
    with pytest.raises(ConfigError):
        feature_divergence(a, b[:4])


# --- attention aggregation --------------------------------------------------


def test_aggregate_attention_single_layer_abs():
    layer = np.array([[-1.0, 2.0]], dtype=F32)
    out = aggregate_attention(AttentionTrace((layer,)))
    np.testing.assert_allclose(out, [[1.0, 2.0]])


def test_aggregate_attention_hand_computed():
    trace = AttentionTrace((np.array([[0.0]], dtype=F32), np.array([[2.0]], dtype=F32)))
    np.testing.assert_allclose(aggregate_attention(trace), [[1.0]])


def test_aggregate_attention_mixed_sign_nonnegative():
    rng = np.random.default_rng(5)
    layers = tuple(rng.standard_normal((3, 4)).astype(F32) for _ in range(3))
    assert (aggregate_attention(AttentionTrace(layers)) >= 0).all()


# --- spatial mask -------------------------------------------------------------


def test_spatial_mask_zero_divergence():
    attn = np.abs(np.random.default_rng(6).standard_normal((4, 3))).astype(F32)
    mask = spatial_mask(attn, np.zeros(3, dtype=F32), GateConfig())
    np.testing.assert_allclose(mask.values, np.full(4, 0.5))
    assert mask.kind is MaskKind.SPATIAL


def test_spatial_mask_hand_computed():
    mask = spatial_mask([[0.2, 0.8]], [2.0, 0.0], GateConfig())
    np.testing.assert_allclose(mask.values, [0.5986876601], atol=1e-6)


def test_spatial_mask_default_range():
    rng = np.random.default_rng(11)
    attn = np.abs(rng.standard_normal((5, 4))).astype(F32)
    div = (2 * rng.random(4)).astype(F32)
    values = spatial_mask(attn, div, GateConfig()).values
    assert (values >= 0.5).all() and (values < 1.0).all()


def test_spatial_mask_permutation_invariance():
    rng = np.random.default_rng(12)
    attn = np.abs(rng.standard_normal((5, 6))).astype(F32)
    div = rng.random(6).astype(F32)
    perm = rng.permutation(6)
    base = spatial_mask(attn, div, GateConfig()).values
    permuted = spatial_mask(attn[:, perm], div[perm], GateConfig()).values
    np.testing.assert_array_equal(base, permuted)


def test_spatial_mask_validation():
    with pytest.raises(ConfigError):
        spatial_mask(np.zeros((2, 3)), np.zeros(4), GateConfig())
    with pytest.raises(ConfigError):
        spatial_mask(np.array([[-0.1, 0.2]]), np.zeros(2), GateConfig())


# --- fusion --------------------------------------------------------------------


def test_fuse_masks_identity_element():
    tm = UpdateMask(np.array([0.2, 0.7], dtype=F32), MaskKind.TEMPORAL)
    sm = ones_mask(2, MaskKind.SPATIAL)
    fused = fuse_masks(tm, sm)
    np.testing.assert_array_equal(fused.values, tm.values)
    assert fused.kind is MaskKind.FUSED


def test_fuse_masks_annihilator_and_product():
    tm = UpdateMask(np.array([0.0, 0.5], dtype=F32), MaskKind.TEMPORAL)
    sm = UpdateMask(np.array([0.9, 0.6], dtype=F32), MaskKind.SPATIAL)
    np.testing.assert_allclose(fuse_masks(tm, sm).values, [0.0, 0.3], atol=1e-7)


def test_fuse_masks_dominance():
    rng = np.random.default_rng(13)
    tm = UpdateMask(rng.random(8).astype(F32), MaskKind.TEMPORAL)
    sm = UpdateMask(rng.random(8).astype(F32), MaskKind.SPATIAL)
    fused = fuse_masks(tm, sm).values
    assert (fused <= np.minimum(tm.values, sm.values) + 1e-7).all()


def test_fuse_masks_kind_and_length_mismatch():
    tm = ones_mask(2, MaskKind.TEMPORAL)
    sm = ones_mask(2, MaskKind.SPATIAL)
    with pytest.raises(ConfigError):
        fuse_masks(sm, sm)
    with pytest.raises(ConfigError):
        fuse_masks(tm, ones_mask(3, MaskKind.SPATIAL))


# --- state update ----------------------------------------------------------------


def test_apply_update_all_ones_returns_candidate():
    rng = np.random.default_rng(14)
    cand = rng.standard_normal((4, 5)).astype(F32)
    prev = rng.standard_normal((4, 5)).astype(F32)
    out = apply_update(cand, prev, uniform_mask(4))
    assert out.tobytes() == cand.tobytes()


def test_apply_update_all_zeros_keeps_state():
    rng = np.random.default_rng(15)
    cand = rng.standard_normal((4, 5)).astype(F32)
    prev = rng.standard_normal((4, 5)).astype(F32)
    zeros = UpdateMask(np.zeros(4, dtype=F32), MaskKind.FUSED)
    assert apply_update(cand, prev, zeros).tobytes() == prev.tobytes()


def test_apply_update_midpoint():
    cand = np.full((2, 2), 4.0, dtype=F32)
    prev = np.zeros((2, 2), dtype=F32)
    half = UpdateMask(np.full(2, 0.5, dtype=F32), MaskKind.FUSED)
    np.testing.assert_allclose(apply_update(cand, prev, half), np.full((2, 2), 2.0))


def test_apply_update_convexity():
    rng = np.random.default_rng(16)
    for _ in range(30):
        cand = rng.standard_normal((5, 4)).astype(F32)
        prev = rng.standard_normal((5, 4)).astype(F32)
        mask = UpdateMask(rng.random(5).astype(F32), MaskKind.FUSED)
        out = apply_update(cand, prev, mask)
        assert (out >= np.minimum(cand, prev)).all()
        assert (out <= np.maximum(cand, prev)).all()


def test_apply_update_validation():
    with pytest.raises(ConfigError):
        apply_update(np.zeros((2, 2)), np.zeros((3, 2)), uniform_mask(2))
    with pytest.raises(ConfigError):
        apply_update(np.zeros((2, 2)), np.zeros((2, 2)), uniform_mask(3))
    bad = UpdateMask(np.array([0.5, 1.5], dtype=F32), MaskKind.FUSED)
    with pytest.raises(ConfigError):
        apply_update(np.zeros((2, 2)), np.zeros((2, 2)), bad)


def test_apply_update_rejects_nan_mask():
    nan_mask = UpdateMask(np.array([np.nan, 0.5], dtype=F32), MaskKind.FUSED)
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        apply_update(2 * np.ones((2, 3), dtype=F32), np.ones((2, 3), dtype=F32), nan_mask)


# --- uniform mask ------------------------------------------------------------------


def test_uniform_mask_basics():
    mask = uniform_mask(3)
    np.testing.assert_array_equal(mask.values, [1.0, 1.0, 1.0])
    assert mask.kind is MaskKind.UNIFORM
    with pytest.raises(ConfigError):
        uniform_mask(0)


def test_uniform_mask_rejected_by_fuse():
    with pytest.raises(ConfigError):
        fuse_masks(uniform_mask(2), ones_mask(2, MaskKind.SPATIAL))
    with pytest.raises(ConfigError):
        fuse_masks(ones_mask(2, MaskKind.TEMPORAL), uniform_mask(2))


# --- gate_step ----------------------------------------------------------------------


def _gate_inputs(seed=0, n=4, k=3, c=5, layers=2):
    rng = np.random.default_rng(seed)
    return {
        "candidate": rng.standard_normal((n, c)).astype(F32),
        "prev_candidate": rng.standard_normal((n, c)).astype(F32),
        "prev_state": rng.standard_normal((n, c)).astype(F32),
        "frame": rng.standard_normal((k, c)).astype(F32),
        "prev_frame": rng.standard_normal((k, c)).astype(F32),
        "trace": AttentionTrace(tuple(np.abs(rng.standard_normal((n, k))).astype(F32) for _ in range(layers))),
    }


@pytest.mark.parametrize("strategy", list(Strategy))
def test_gate_step_cold_start_writes_candidate(strategy):
    d = _gate_inputs()
    state, mask = gate_step(
        d["candidate"], d["prev_state"], d["frame"], d["trace"], GateConfig(), strategy
    )
    assert mask.kind is MaskKind.UNIFORM
    assert state.tobytes() == d["candidate"].tobytes()


def test_gate_step_uniform_is_direct_replacement():
    d = _gate_inputs(seed=2)
    state, mask = gate_step(
        d["candidate"],
        d["prev_state"],
        d["frame"],
        d["trace"],
        GateConfig(),
        Strategy.UNIFORM,
        prev_candidate=d["prev_candidate"],
        prev_frame=d["prev_frame"],
    )
    assert state.tobytes() == d["candidate"].tobytes()
    assert mask.kind is MaskKind.UNIFORM


def test_gate_step_fused_fallback_quarter():
    # identical consecutive frames and candidates: temporal 0.5, spatial 0.5
    d = _gate_inputs(seed=3)
    state, mask = gate_step(
        d["candidate"],
        d["prev_state"],
        d["frame"],
        d["trace"],
        GateConfig(),
        Strategy.FUSED,
        prev_candidate=d["candidate"].copy(),
        prev_frame=d["frame"].copy(),
    )
    np.testing.assert_allclose(mask.values, np.full(4, 0.25), atol=1e-6)
    assert mask.kind is MaskKind.FUSED


def test_gate_step_partial_buffers_raise_state_error():
    d = _gate_inputs(seed=4)
    with pytest.raises(StateError):
        gate_step(
            d["candidate"],
            d["prev_state"],
            d["frame"],
            d["trace"],
            GateConfig(),
            Strategy.FUSED,
            prev_candidate=d["prev_candidate"],
        )
    with pytest.raises(StateError):
        gate_step(
            d["candidate"],
            d["prev_state"],
            d["frame"],
            d["trace"],
            GateConfig(),
            Strategy.FUSED,
            prev_frame=d["prev_frame"],
        )


@pytest.mark.parametrize("strategy", [Strategy.TEMPORAL_ONLY, Strategy.SPATIAL_ONLY, Strategy.FUSED])
def test_gate_step_masks_bounded_and_convex(strategy):
    for seed in range(5):
        d = _gate_inputs(seed=seed)
        state, mask = gate_step(
            d["candidate"],
            d["prev_state"],
            d["frame"],
            d["trace"],
            GateConfig(),
            strategy,
            prev_candidate=d["prev_candidate"],
            prev_frame=d["prev_frame"],
        )
        assert (mask.values >= 0).all() and (mask.values <= 1).all()
        assert (state >= np.minimum(d["candidate"], d["prev_state"])).all()
        assert (state <= np.maximum(d["candidate"], d["prev_state"])).all()


def test_gate_step_fused_is_product_of_routes():
    d = _gate_inputs(seed=6)
    common = dict(
        cfg=GateConfig(),
        prev_candidate=d["prev_candidate"],
        prev_frame=d["prev_frame"],
    )
    _, tm = gate_step(
        d["candidate"], d["prev_state"], d["frame"], d["trace"],
        common["cfg"], Strategy.TEMPORAL_ONLY,
        prev_candidate=common["prev_candidate"], prev_frame=common["prev_frame"],
    )
    _, sm = gate_step(
        d["candidate"], d["prev_state"], d["frame"], d["trace"],
        common["cfg"], Strategy.SPATIAL_ONLY,
        prev_candidate=common["prev_candidate"], prev_frame=common["prev_frame"],
    )
    _, fused = gate_step(
        d["candidate"], d["prev_state"], d["frame"], d["trace"],
        common["cfg"], Strategy.FUSED,
        prev_candidate=common["prev_candidate"], prev_frame=common["prev_frame"],
    )
    np.testing.assert_allclose(fused.values, tm.values * sm.values, atol=1e-6)
    assert (fused.values <= np.minimum(tm.values, sm.values) + 1e-7).all()
