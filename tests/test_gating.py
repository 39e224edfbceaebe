import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgate.decoder import decode_step, encode_frame, make_weights
from streamgate.errors import ConfigError, StateError
from streamgate.linalg import rowwise_cosine, sigmoid
from streamgate.gating import (
    AttentionTrace,
    AttnSource,
    GateConfig,
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


@pytest.mark.parametrize("kwargs", [
    {"tau": 0.0}, {"tau": -1.0}, {"eps_mean": 0.0}, {"spat_gain": 0.0},
])
def test_gate_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError, match=f"{next(iter(kwargs))} must be > 0"):
        GateConfig(**kwargs)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["tau", "eps_mean", "spat_gain", "spat_bias"])
def test_gate_config_rejects_non_finite_reals_naming_the_field(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        GateConfig(**{name: value})


# The gates cast each knob to float32 (or compare a float32 mean with it), so
# one beyond float32's range would read inf there; float32's maximum is kept.
@pytest.mark.parametrize("name, value", [
    ("tau", 1e39), ("eps_mean", 1e39), ("spat_gain", 1e39), ("spat_bias", 1e39), ("spat_bias", -1e39),
])
def test_gate_config_rejects_a_knob_beyond_float32_range_naming_it(name, value):
    top = np.finfo(F32).max.item()
    assert getattr(GateConfig(**{name: top}), name) == top
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} must be in [{-top}, {top}], got {value}')}$"):
        GateConfig(**{name: value})


def test_attention_trace_rejects_empty_and_ragged():
    with pytest.raises(ConfigError):
        AttentionTrace(())
    with pytest.raises(ConfigError):
        AttentionTrace((np.zeros((2, 3), dtype=F32), np.zeros((2, 4), dtype=F32)))


@pytest.mark.parametrize("layers, cause", [
    ((), r"\(L, N, K\) array, got ndim=1"),
    ([], r"\(L, N, K\) array, got ndim=1"),
    (np.zeros((0, 2, 3), dtype=F32), "attention trace must not be empty"),
    ((np.zeros((2, 3), dtype=F32), np.zeros((2, 4), dtype=F32)), "must be a rectangular numeric array, got tuple"),
    ((np.zeros((2, 3), dtype=F32), np.zeros((3, 3), dtype=F32)), "must be a rectangular numeric array, got tuple"),
    (np.zeros((2, 3), dtype=F32), r"\(L, N, K\) array, got ndim=2"),
    (np.zeros((1, 2, 3, 4), dtype=F32), r"\(L, N, K\) array, got ndim=4"),
    ((np.zeros(3, dtype=F32),), r"\(L, N, K\) array, got ndim=2"),
])
def test_attention_trace_rejects_naming_the_cause(layers, cause):
    with pytest.raises(ConfigError, match=cause):
        AttentionTrace(layers)


def test_attention_trace_from_tuple_equals_from_array():
    rng = np.random.default_rng(31)
    for n_layers in (1, 2, 4, 7):
        stacked = rng.standard_normal((n_layers, 5, 3)).astype(F32)
        from_tuple = AttentionTrace(tuple(stacked.copy()))
        from_array = AttentionTrace(stacked)
        from_lists = AttentionTrace([m.astype(np.float64).tolist() for m in stacked])
        for trace in (from_tuple, from_array, from_lists):
            assert isinstance(trace.layers, np.ndarray) and trace.layers.dtype == F32
            assert trace.layers.shape == (n_layers, 5, 3)
            assert trace.layers.tobytes() == stacked.tobytes()
            assert [m.shape for m in trace.layers] == [(5, 3)] * n_layers
    assert AttentionTrace(stacked.astype(np.float64)).layers.tobytes() == stacked.tobytes()


# --- temporal mask --------------------------------------------------------


def test_temporal_mask_zero_delta_fallback():
    curr = np.ones((3, 4), dtype=F32)
    mask = temporal_mask(curr, curr.copy(), GateConfig())
    np.testing.assert_allclose(mask.values, [0.5, 0.5, 0.5])
    assert mask.kind is Strategy.TEMPORAL_ONLY


def test_temporal_mask_compares_its_mean_with_eps_mean_in_float64():
    # Deltas [2m, 2m, 0, 0] average to exactly m in float32. float32(1e-8)
    # lies below 1e-8, so a mean of float32(1e-8) takes the all-ones
    # fallback (mask 0.5 at tau 1), which a float32 comparison would miss;
    # the next float32 above lies above 1e-8 and normalizes to [2, 2, 0, 0].
    at_eps = F32(1e-8)
    assert float(at_eps) < 1e-8
    for mean, want in [(at_eps, [0.5] * 4), (np.nextafter(at_eps, F32(1)), sigmoid(np.array([1, 1, -1, -1], F32)))]:
        curr = np.zeros((4, 3), dtype=F32)
        curr[:2, 0] = F32(2) * mean
        assert np.add.reduce(np.sqrt(np.add.reduce(curr * curr, axis=1))) / F32(4) == mean
        mask = temporal_mask(curr, np.zeros_like(curr), GateConfig(eps_mean=1e-8))
        assert mask.values.tobytes() == np.asarray(want, dtype=F32).tobytes()


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


def test_temporal_mask_bit_identical_to_textbook_mean():
    rng = np.random.default_rng(8)
    cfg = GateConfig(tau=0.7)
    for scale in (1.0, 100.0, 1e4):
        curr = (scale * rng.standard_normal((16, 32))).astype(F32)
        prev = (scale * rng.standard_normal((16, 32))).astype(F32)
        delta = np.sqrt(((curr - prev) * (curr - prev)).sum(axis=1))
        want = sigmoid(delta / F32(float(delta.mean())) - F32(cfg.tau))
        got = temporal_mask(curr, prev, cfg).values
        assert got.tobytes() == want.tobytes()


def test_temporal_mask_shape_mismatch():
    with pytest.raises(ConfigError):
        temporal_mask(np.zeros((2, 2)), np.zeros((3, 2)), GateConfig())


def test_temporal_mask_requires_a_token():
    empty = np.zeros((0, 4), dtype=F32)
    with pytest.raises(ConfigError, match=r"^curr must not be empty, got shape \(0, 4\)$"):
        temporal_mask(empty, empty, GateConfig())


@pytest.mark.parametrize("sides", [("curr",), ("prev",), ("curr", "prev")], ids=["curr", "prev", "both"])
def test_temporal_mask_rejects_non_finite_candidate(sides):
    # Matching infinities in both make inf - inf, which must not warn first.
    arrays = {"curr": np.ones((2, 3), dtype=F32), "prev": np.zeros((2, 3), dtype=F32)}
    for side in sides:
        arrays[side][0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=f"^temporal_mask: non-finite {sides[0]} in the temporal gate$"):
            temporal_mask(arrays["curr"], arrays["prev"], GateConfig())


# Candidate pairs the temporal gate refuses, with the cause it names for a
# pair whose names are {0} and {1}. A finite pair overflows float32 where
# its difference does (±3e38), or where the squares of the difference's
# norm do, which makes the mean delta inf although the difference is finite.
_CANDIDATE_PAIRS = {
    "difference-overflows": (np.full((4, 5), 3e38, dtype=F32), np.full((4, 5), -3e38, dtype=F32),
                             "the difference of {0} and {1} overflows float32"),
    "mean-delta-overflows": (np.full((4, 5), 1e20, dtype=F32), np.zeros((4, 5), dtype=F32),
                             "the difference of {0} and {1} overflows float32"),
    "nan-prev": (np.ones((4, 5), dtype=F32), np.where(np.eye(4, 5) > 0, np.nan, 1).astype(F32),
                 "non-finite {1}"),
}


@pytest.mark.parametrize("strategy", [None, Strategy.TEMPORAL_ONLY, Strategy.FUSED],
                         ids=["temporal_mask", "gate_step-temporal", "gate_step-fused"])
@pytest.mark.parametrize("case", list(_CANDIDATE_PAIRS))
def test_temporal_gate_names_a_refused_candidate_pair(case, strategy):
    curr, prev, cause = _CANDIDATE_PAIRS[case]
    op, names = ("gate_step", ("candidate", "prev_candidate")) if strategy else ("temporal_mask", ("curr", "prev"))
    d = _gate_inputs(seed=14, n=4, c=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=f"^{op}: {cause.format(*names)} in the temporal gate$"):
            if strategy is None:
                temporal_mask(curr, prev, GateConfig())
            else:
                gate_step(curr, d["prev_state"], d["frame"], d["trace"], GateConfig(), strategy,
                          prev_candidate=prev, prev_frame=d["prev_frame"])


# --- feature divergence ----------------------------------------------------


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["curr", "prev"])
def test_feature_divergence_names_a_non_finite_input(side, value):
    # An infinite entry makes its row's cosine inf / inf, which must not warn first.
    rng = np.random.default_rng(4)
    arrays = {name: rng.standard_normal((3, 5)).astype(F32) for name in ("curr", "prev")}
    arrays[side][1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=f"feature_divergence: non-finite {side}"):
            feature_divergence(arrays["curr"], arrays["prev"])


def test_feature_divergence_cases():
    frame = np.random.default_rng(3).standard_normal((4, 5)).astype(F32)
    np.testing.assert_allclose(feature_divergence(frame, frame.copy()), np.zeros(4), atol=1e-6)
    np.testing.assert_allclose(feature_divergence(frame, -frame), np.full(4, 2.0), atol=1e-6)
    np.testing.assert_allclose(
        feature_divergence([[1.0, 0.0]], [[0.0, 1.0]]), [1.0], atol=1e-6
    )


# Finite frames whose squares or norm product overflow float32: the cosine
# would read NaN where both rows are huge, and 0 where one is huge and the
# other tiny (the true divergence of those parallel rows is 0).
_OVERFLOWING = {
    "both-huge": (np.full((2, 3), 1e20, dtype=F32), np.full((2, 3), 1e20, dtype=F32)),
    "huge-and-tiny": (np.array([[1e20, 1e20]], dtype=F32), np.array([[1e-19, 1e-19]], dtype=F32)),
}


@pytest.mark.parametrize("case", list(_OVERFLOWING))
def test_feature_divergence_names_an_overflowing_cosine(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="feature_divergence: the cosine of curr and prev overflows float32"):
            feature_divergence(*_OVERFLOWING[case])


def test_feature_divergence_keeps_large_rows_whose_products_stay_finite():
    # Each row's norm product is about 3e38, below the float32 maximum, but
    # their sum overflows: the divergence is computed as before, silently.
    rows = np.full((4, 3), 1e19, dtype=F32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        divergence = feature_divergence(rows, rows.copy())
    want = np.float32(1.0) - rowwise_cosine(rows, rows)
    assert divergence.tobytes() == want.tobytes()


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


def test_aggregate_attention_bit_identical_to_stacked_mean():
    rng = np.random.default_rng(6)
    for n_layers in range(1, 7):
        layers = [rng.standard_normal((5, 7)).astype(F32) for _ in range(n_layers)]
        layers[0][1, 2] = 1e4
        layers[-1][3] = rng.choice(np.array([-1e4, -100.0, 100.0, 1e4], dtype=F32), size=7)
        layers[n_layers // 2][4, 6] = np.nan
        want = np.stack([np.abs(m) for m in layers], axis=0).mean(axis=0)
        got = aggregate_attention(AttentionTrace(tuple(layers)))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_aggregate_attention_bit_identical_to_left_fold():
    rng = np.random.default_rng(9)
    for n_layers in range(1, 8):
        for n, k in ((1, 1), (4, 3), (16, 16), (5, 33)):
            layers = (rng.standard_normal((n_layers, n, k)) * 10.0 ** rng.integers(-3, 5, size=(n_layers, 1, 1))).astype(F32)
            layers[0, 0, 0] = 1e4
            layers[-1, -1, -1] = -1e-4
            total = np.abs(layers[0])
            for m in layers[1:]:
                total = total + np.abs(m)
            want = total / F32(n_layers)
            got = aggregate_attention(AttentionTrace(layers))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# --- spatial mask -------------------------------------------------------------


def test_spatial_mask_zero_divergence():
    attn = np.abs(np.random.default_rng(6).standard_normal((4, 3))).astype(F32)
    mask = spatial_mask(attn, np.zeros(3, dtype=F32), GateConfig())
    np.testing.assert_allclose(mask.values, np.full(4, 0.5))
    assert mask.kind is Strategy.SPATIAL_ONLY


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
    with pytest.raises(ConfigError, match=r"^attn must not be empty, got shape \(2, 0\)$"):
        spatial_mask(np.zeros((2, 0)), np.zeros(0), GateConfig())
    # feature_divergence yields [0, 2]; a negative divergence is refused, so a
    # +inf attention entry cannot hide in a -inf product that max-pooling drops.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for attn, divergence in [([[np.inf, 0.5]], [-1.0, 1.0]), ([[0.5, 0.5]], [0.3, -1e-3])]:
            with pytest.raises(ConfigError, match="^spatial_mask requires nonnegative divergence$"):
                spatial_mask(attn, divergence, GateConfig())


# --- fusion --------------------------------------------------------------------


def test_fuse_masks_identity_element():
    tm = UpdateMask(np.array([0.2, 0.7], dtype=F32), Strategy.TEMPORAL_ONLY)
    sm = ones_mask(2, Strategy.SPATIAL_ONLY)
    fused = fuse_masks(tm, sm)
    np.testing.assert_array_equal(fused.values, tm.values)
    assert fused.kind is Strategy.FUSED


def test_fuse_masks_annihilator_and_product():
    tm = UpdateMask(np.array([0.0, 0.5], dtype=F32), Strategy.TEMPORAL_ONLY)
    sm = UpdateMask(np.array([0.9, 0.6], dtype=F32), Strategy.SPATIAL_ONLY)
    np.testing.assert_allclose(fuse_masks(tm, sm).values, [0.0, 0.3], atol=1e-7)


def test_fuse_masks_dominance():
    rng = np.random.default_rng(13)
    tm = UpdateMask(rng.random(8).astype(F32), Strategy.TEMPORAL_ONLY)
    sm = UpdateMask(rng.random(8).astype(F32), Strategy.SPATIAL_ONLY)
    fused = fuse_masks(tm, sm).values
    assert (fused <= np.minimum(tm.values, sm.values) + 1e-7).all()


def test_fuse_masks_kind_and_length_mismatch():
    tm = ones_mask(2, Strategy.TEMPORAL_ONLY)
    sm = ones_mask(2, Strategy.SPATIAL_ONLY)
    with pytest.raises(ConfigError, match="^fuse_masks expected a temporal mask, got kind=spatial$"):
        fuse_masks(sm, sm)
    with pytest.raises(ConfigError, match="^fuse_masks spatial has 3 entries, expected 2$"):
        fuse_masks(tm, ones_mask(3, Strategy.SPATIAL_ONLY))
    # A mask entry outside [0, 1], or a NaN, on either side is no blend weight.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1.8, -0.1, np.nan):
            values = np.array([bad, 0.5], dtype=F32)
            for pair in ((UpdateMask(values, Strategy.TEMPORAL_ONLY), sm),
                         (tm, UpdateMask(values, Strategy.SPATIAL_ONLY))):
                with pytest.raises(ConfigError, match=r"^fuse_masks mask values must lie in \[0, 1\]$"):
                    fuse_masks(*pair)


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
    zeros = UpdateMask(np.zeros(4, dtype=F32), Strategy.FUSED)
    assert apply_update(cand, prev, zeros).tobytes() == prev.tobytes()


def test_apply_update_midpoint():
    cand = np.full((2, 2), 4.0, dtype=F32)
    prev = np.zeros((2, 2), dtype=F32)
    half = UpdateMask(np.full(2, 0.5, dtype=F32), Strategy.FUSED)
    np.testing.assert_allclose(apply_update(cand, prev, half), np.full((2, 2), 2.0))


def test_apply_update_convexity():
    rng = np.random.default_rng(16)
    for _ in range(30):
        cand = rng.standard_normal((5, 4)).astype(F32)
        prev = rng.standard_normal((5, 4)).astype(F32)
        mask = UpdateMask(rng.random(5).astype(F32), Strategy.FUSED)
        out = apply_update(cand, prev, mask)
        assert (out >= np.minimum(cand, prev)).all()
        assert (out <= np.maximum(cand, prev)).all()


def test_apply_update_bit_identical_to_clip():
    rng = np.random.default_rng(17)
    extremes = np.array([-1e4, -100.0, -0.0, 0.0, 100.0, 1e4], dtype=F32)
    for cand, prev in (
        (rng.standard_normal((16, 32)).astype(F32), rng.standard_normal((16, 32)).astype(F32)),
        (rng.choice(extremes, size=(8, 6)), rng.choice(extremes, size=(8, 6))),
    ):
        w = rng.random(cand.shape[0]).astype(F32)
        w[:2] = (0.0, 1.0)
        col = w[:, np.newaxis]
        raw = col * cand + (F32(1.0) - col) * prev
        want = np.clip(raw, np.minimum(cand, prev), np.maximum(cand, prev))
        got = apply_update(cand, prev, UpdateMask(w, Strategy.FUSED))
        assert got.tobytes() == want.tobytes()


def test_apply_update_validation():
    with pytest.raises(ConfigError):
        apply_update(np.zeros((2, 2)), np.zeros((3, 2)), uniform_mask(2))
    with pytest.raises(ConfigError):
        apply_update(np.zeros((2, 2)), np.zeros((2, 2)), uniform_mask(3))
    bad = UpdateMask(np.array([0.5, 1.5], dtype=F32), Strategy.FUSED)
    with pytest.raises(ConfigError):
        apply_update(np.zeros((2, 2)), np.zeros((2, 2)), bad)


def test_apply_update_rejects_nan_mask():
    nan_mask = UpdateMask(np.array([np.nan, 0.5], dtype=F32), Strategy.FUSED)
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        apply_update(2 * np.ones((2, 3), dtype=F32), np.ones((2, 3), dtype=F32), nan_mask)


# --- uniform mask ------------------------------------------------------------------


def test_uniform_mask_basics():
    mask = uniform_mask(3)
    np.testing.assert_array_equal(mask.values, [1.0, 1.0, 1.0])
    assert mask.kind is Strategy.UNIFORM
    with pytest.raises(ConfigError):
        uniform_mask(0)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_uniform_mask_rejects_a_non_integer_length_naming_n(n):
    with pytest.raises(ConfigError, match="n must be an integer >= 1"):
        uniform_mask(n)


def test_uniform_mask_rejected_by_fuse():
    with pytest.raises(ConfigError):
        fuse_masks(uniform_mask(2), ones_mask(2, Strategy.SPATIAL_ONLY))
    with pytest.raises(ConfigError):
        fuse_masks(ones_mask(2, Strategy.TEMPORAL_ONLY), uniform_mask(2))


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


# The gate-less route: every strategy on a stream's first frame, and UNIFORM
# on any frame, commits an all-ones UNIFORM mask, so the candidate in full.
@pytest.mark.parametrize(
    "strategy, first_frame",
    [(s, True) for s in Strategy] + [(Strategy.UNIFORM, False)],
)
def test_gate_step_gate_less_route_writes_candidate(strategy, first_frame):
    d = _gate_inputs(seed=0 if first_frame else 2)
    buffers = {} if first_frame else dict(prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])
    state, mask = gate_step(
        d["candidate"], d["prev_state"], d["frame"], d["trace"], GateConfig(), strategy, **buffers
    )
    assert mask.kind is Strategy.UNIFORM
    assert mask.values.tobytes() == np.ones(4, dtype=F32).tobytes()
    expected = apply_update(d["candidate"], d["prev_state"], uniform_mask(4))
    assert state.tobytes() == expected.tobytes() == d["candidate"].tobytes()


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
    assert mask.kind is Strategy.FUSED


# Each gate input pair is checked for shape in one place: the message names
# the operation whose formula needs the pair, and a wrong-rank argument is
# named as the caller passed it.
@pytest.mark.parametrize(
    "strategy, arg, message",
    [
        (Strategy.UNIFORM, "candidate", r"apply_update shape mismatch: \(3, 5\) vs \(4, 5\)"),
        (Strategy.UNIFORM, "prev_state", r"apply_update shape mismatch: \(4, 5\) vs \(3, 5\)"),
        (Strategy.TEMPORAL_ONLY, "prev_candidate",
         r"temporal_mask shape mismatch: \(4, 5\) vs \(3, 5\)"),
        (Strategy.SPATIAL_ONLY, "frame", r"feature_divergence shape mismatch: \(2, 5\) vs \(3, 5\)"),
        (Strategy.SPATIAL_ONLY, "prev_frame",
         r"feature_divergence shape mismatch: \(3, 5\) vs \(2, 5\)"),
    ],
)
def test_gate_step_names_each_mismatched_pair(strategy, arg, message):
    d = _gate_inputs(seed=8)

    def gate(**changed):
        inputs = {**d, **changed}
        return gate_step(
            inputs["candidate"], inputs["prev_state"], inputs["frame"], inputs["trace"],
            GateConfig(), strategy,
            prev_candidate=inputs["prev_candidate"], prev_frame=inputs["prev_frame"],
        )

    with pytest.raises(ConfigError, match=message):
        gate(**{arg: d[arg][1:]})
    with pytest.raises(ConfigError, match=f"^{arg} must be 2-D, got ndim=1$"):
        gate(**{arg: d[arg][0]})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a, b: temporal_mask(a, b, GateConfig()), "temporal_mask"),
        (feature_divergence, "feature_divergence"),
        (lambda a, b: apply_update(a, b, uniform_mask(2)), "apply_update"),
    ],
    ids=["temporal_mask", "feature_divergence", "apply_update"],
)
def test_gate_components_name_a_mismatched_pair(call, message):
    a, b = np.ones((2, 3)), np.ones((2, 4))
    with pytest.raises(ConfigError, match=rf"^{message} shape mismatch: \(2, 3\) vs \(2, 4\)$"):
        call(a, b)


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


@pytest.mark.parametrize("strategy", [Strategy.UNIFORM, Strategy.SPATIAL_ONLY])
def test_gate_step_rejects_non_finite_state(strategy):
    d = _gate_inputs(seed=7)
    d["candidate"][1, 2] = np.nan
    with pytest.raises(StateError, match="non-finite blended state"):
        gate_step(
            d["candidate"],
            d["prev_state"],
            d["frame"],
            d["trace"],
            GateConfig(),
            strategy,
            prev_candidate=d["prev_candidate"],
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


# gate_step validates its inputs once and runs the same formula cores as the
# public components; its state, mask values and kind must equal composing
# those components, on decoder traces of either attention source.


def _composed(candidate, prev_state, frame, trace, cfg, strategy, prev_candidate, prev_frame):
    if prev_candidate is None or strategy is Strategy.UNIFORM:
        mask = uniform_mask(candidate.shape[0])
    else:
        tm = sm = None
        if strategy in (Strategy.TEMPORAL_ONLY, Strategy.FUSED):
            tm = temporal_mask(candidate, prev_candidate, cfg)
        if strategy in (Strategy.SPATIAL_ONLY, Strategy.FUSED):
            divergence = feature_divergence(frame, prev_frame)
            sm = spatial_mask(aggregate_attention(trace), divergence, cfg)
        mask = fuse_masks(tm, sm) if strategy is Strategy.FUSED else (tm if tm is not None else sm)
    return apply_update(candidate, prev_state, mask), mask


def _decoded_frames(attn_source, seed, n=6, k=5, c=8, layers=3, frames=4):
    w = make_weights(layers, c, c, seed=seed)
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((n, c)).astype(F32)
    outs = []
    for _ in range(frames):
        frame = rng.standard_normal((k, c)).astype(F32)
        outs.append((frame, decode_step(frame, state, w, attn_source)))
    return state, outs


@pytest.mark.parametrize("attn_source", list(AttnSource))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_gate_step_equals_composed_components(strategy, attn_source):
    cfg = GateConfig(tau=0.8, spat_gain=3.0, spat_bias=-0.5, attn_source=attn_source)
    for seed in range(3):
        state, outs = _decoded_frames(attn_source, seed)
        prev_candidate = prev_frame = None
        for frame, out in outs:
            args = (out.candidate, state, frame, out.trace, cfg, strategy)
            got_state, got_mask = gate_step(*args, prev_candidate=prev_candidate, prev_frame=prev_frame)
            want_state, want_mask = _composed(*args, prev_candidate, prev_frame)
            assert got_state.tobytes() == want_state.tobytes()
            assert got_mask.values.tobytes() == want_mask.values.tobytes()
            assert got_mask.kind is want_mask.kind
            state, prev_candidate, prev_frame = got_state, out.candidate, frame


@pytest.mark.parametrize("strategy", list(Strategy))
def test_gate_step_names_a_non_finite_observation(strategy):
    w = make_weights(2, 8, 8, seed=3)
    rng = np.random.default_rng(3)
    state = rng.standard_normal((4, 8)).astype(F32)
    obs = [rng.standard_normal((3, 8)).astype(F32) for _ in range(2)]
    frames = [encode_frame(o, w) for o in obs]
    obs[1][1, 2] = np.nan
    frames[1][1] = np.nan  # its encoding, as a caller's own encoder may hand it over
    first = decode_step(frames[0], state, w)
    state, _ = gate_step(first.candidate, state, frames[0], first.trace, GateConfig(), strategy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="^encode_frame: non-finite observation$"):
            encode_frame(obs[1], w)
        # This decoder names the non-finite frame itself; a caller's own
        # decoder may hand gate_step an all-NaN candidate instead.
        with pytest.raises(StateError, match="^decode_step: non-finite frame$"):
            decode_step(frames[1], state, w)
        candidate = np.full_like(first.candidate, np.nan)
        with pytest.raises(StateError, match="non-finite") as exc:
            gate_step(candidate, state, frames[1], first.trace, GateConfig(), strategy,
                      prev_candidate=first.candidate, prev_frame=frames[0])
    if strategy is Strategy.SPATIAL_ONLY:
        assert "non-finite frame" in str(exc.value)


def test_gate_step_names_non_finite_attention():
    d = _gate_inputs(seed=8)
    layers = d["trace"].layers.copy()
    layers[0, 1, 1] = np.nan
    with pytest.raises(StateError, match="non-finite attention"):
        gate_step(d["candidate"], d["prev_state"], d["frame"], AttentionTrace(layers), GateConfig(),
                  Strategy.SPATIAL_ONLY, prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])


# A non-finite input to a gated step is named by the first check it reaches:
# the temporal gate (fused only) sees the candidate, the spatial gate the
# frames and the trace, and the committed blend the candidate and prev_state.
_SPATIAL_MESSAGE = "gate_step: non-finite frame in the spatial gate"
_PREV_FRAME_MESSAGE = "gate_step: non-finite prev_frame in the spatial gate"
_ATTENTION_MESSAGE = "gate_step: non-finite attention in the spatial gate"
_TEMPORAL_MESSAGE = "gate_step: non-finite candidate in the temporal gate"
_BLEND_MESSAGE = "apply_update: non-finite blended state"


@pytest.mark.parametrize("attn_source", list(AttnSource))
@pytest.mark.parametrize("strategy", [Strategy.SPATIAL_ONLY, Strategy.FUSED])
@pytest.mark.parametrize(
    "name, value, spatial_message, fused_message",
    [
        pytest.param("frame", np.nan, _SPATIAL_MESSAGE, _SPATIAL_MESSAGE, id="nan-frame"),
        pytest.param("prev_frame", np.nan, _PREV_FRAME_MESSAGE, _PREV_FRAME_MESSAGE, id="nan-prev_frame"),
        pytest.param("frame", np.inf, _SPATIAL_MESSAGE, _SPATIAL_MESSAGE, id="inf-frame"),
        pytest.param("frame", -np.inf, _SPATIAL_MESSAGE, _SPATIAL_MESSAGE, id="-inf-frame"),
        pytest.param("prev_frame", np.inf, _PREV_FRAME_MESSAGE, _PREV_FRAME_MESSAGE, id="inf-prev_frame"),
        pytest.param("trace", np.nan, _ATTENTION_MESSAGE, _ATTENTION_MESSAGE, id="nan-trace"),
        pytest.param("trace", np.inf, _ATTENTION_MESSAGE, _ATTENTION_MESSAGE, id="inf-trace"),
        pytest.param("candidate", np.inf, _BLEND_MESSAGE, _TEMPORAL_MESSAGE, id="inf-candidate"),
        pytest.param("candidate", -np.inf, _BLEND_MESSAGE, _TEMPORAL_MESSAGE, id="-inf-candidate"),
        pytest.param("candidate", np.nan, _BLEND_MESSAGE, _TEMPORAL_MESSAGE, id="nan-candidate"),
        pytest.param("prev_state", np.inf, _BLEND_MESSAGE, _BLEND_MESSAGE, id="inf-prev_state"),
    ],
)
def test_gate_step_names_the_non_finite_input(attn_source, strategy, name, value, spatial_message, fused_message):
    state, outs = _decoded_frames(attn_source, seed=5, frames=2)
    (prev_frame, prev_out), (frame, out) = outs
    arrays = {
        "candidate": out.candidate.copy(),
        "prev_state": state.copy(),
        "frame": frame.copy(),
        "prev_frame": prev_frame.copy(),
        "trace": out.trace.layers[0].copy(),
    }
    arrays[name][1, 2] = value
    trace = AttentionTrace(np.concatenate((arrays["trace"][np.newaxis], out.trace.layers[1:])))
    message = spatial_message if strategy is Strategy.SPATIAL_ONLY else fused_message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=message):
            gate_step(arrays["candidate"], arrays["prev_state"], arrays["frame"], trace,
                      GateConfig(attn_source=attn_source), strategy,
                      prev_candidate=prev_out.candidate, prev_frame=arrays["prev_frame"])


@pytest.mark.parametrize("strategy", [Strategy.SPATIAL_ONLY, Strategy.FUSED])
@pytest.mark.parametrize("case", list(_OVERFLOWING))
def test_gate_step_names_an_overflowing_cosine(case, strategy):
    frame, prev_frame = _OVERFLOWING[case]
    d = _gate_inputs(seed=13, k=frame.shape[0], c=frame.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="gate_step: the cosine of frame and prev_frame overflows float32"):
            gate_step(d["candidate"], d["prev_state"], frame, d["trace"], GateConfig(), strategy,
                      prev_candidate=d["prev_candidate"], prev_frame=prev_frame)


# The mean of four finite 3e38 layers passes float32, so the attention the
# spatial gate reads holds inf. That is named as non-finite attention, where
# frame token 0's divergence is exactly 0 (its row repeats prev_frame's, a
# row whose cosine with itself is exactly 1, and 0 * inf is NaN) and where
# every divergence is above 0 (the product is inf).
@pytest.mark.parametrize("strategy", [Strategy.SPATIAL_ONLY, Strategy.FUSED])
@pytest.mark.parametrize("zero_divergence", [True, False], ids=["zero-divergence", "positive-divergence"])
def test_gate_step_names_a_layer_mean_past_float32(strategy, zero_divergence):
    d = _gate_inputs(seed=16, layers=4)
    layers = d["trace"].layers.copy()
    layers[:, :, 0] = 3e38
    if zero_divergence:
        d["frame"][0] = d["prev_frame"][0] = [2, 0, 0, 0, 0]
    assert (feature_divergence(d["frame"], d["prev_frame"]) == 0).tolist() == [zero_divergence, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=f"^{_ATTENTION_MESSAGE}$"):
            gate_step(d["candidate"], d["prev_state"], d["frame"], AttentionTrace(layers), GateConfig(), strategy,
                      prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])


@pytest.mark.parametrize(
    "attn, divergence, message",
    [
        pytest.param(np.full((2, 2), np.nan), np.ones(2), "spatial_mask: non-finite attention", id="nan-attention"),
        pytest.param([[0.5, np.inf]], [1.0, 1.0], "spatial_mask: non-finite attention", id="inf-attention"),
        pytest.param([[0.5, 0.5]], [np.nan, 1.0], "spatial_mask: non-finite divergence", id="nan-divergence"),
        pytest.param([[0.5, 0.5]], [1.0, np.inf], "spatial_mask: non-finite divergence", id="inf-divergence"),
        pytest.param([[0.5]], [-np.inf], "spatial_mask: non-finite divergence", id="-inf-divergence"),
        # 0 * inf at a frame token whose divergence, or whose attention, is exactly 0.
        pytest.param([[np.inf, 0.5]], [0.0, 1.0], "spatial_mask: non-finite attention",
                     id="inf-attention-at-zero-divergence"),
        pytest.param([[0.5, 0.0]], [1.0, -np.inf], "spatial_mask: non-finite divergence",
                     id="-inf-divergence-at-zero-attention"),
    ],
)
def test_spatial_mask_names_a_non_finite_input(attn, divergence, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=message):
            spatial_mask(attn, divergence, GateConfig())


def test_spatial_mask_saturates_where_finite_inputs_overflow():
    # 3e38 * 2 overflows float32, so a pooled activation is inf although
    # every input is finite: the sigmoid saturates, as it does for a large
    # finite argument, and nothing is raised.
    big = np.finfo(F32).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = spatial_mask([[big, 0.5], [0.5, 0.5]], [2.0, 1.0], GateConfig())
    assert mask.values[0] == np.nextafter(F32(1.0), F32(0.0))
    assert mask.values[1] == sigmoid(F32([1.0]))[0]


# A uniform mask blends 0 * prev_state, which is 0 * inf here. Every
# strategy commits uniformly on its first frame, and UNIFORM on every frame.
@pytest.mark.parametrize(
    "strategy, first_frame",
    [(s, True) for s in Strategy] + [(Strategy.UNIFORM, False)],
)
def test_uniform_commit_names_an_infinite_prev_state(strategy, first_frame):
    d = _gate_inputs(seed=11)
    d["prev_state"][1, 2] = np.inf
    buffers = {} if first_frame else dict(prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=_BLEND_MESSAGE):
            gate_step(d["candidate"], d["prev_state"], d["frame"], d["trace"], GateConfig(), strategy,
                      **buffers)


def test_apply_update_names_an_infinite_prev_state_under_a_uniform_mask():
    rng = np.random.default_rng(12)
    candidate, prev_state = rng.standard_normal((2, 4, 5)).astype(F32)
    prev_state[2, 3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=_BLEND_MESSAGE):
            apply_update(candidate, prev_state, uniform_mask(4))


@pytest.mark.parametrize("strategy", [Strategy.SPATIAL_ONLY, Strategy.FUSED])
@pytest.mark.parametrize("n, k", [(3, 3), (4, 2)])
def test_gate_step_rejects_a_trace_of_the_wrong_shape(strategy, n, k):
    d = _gate_inputs(seed=9)
    trace = AttentionTrace(np.ones((2, n, k), dtype=F32))
    with pytest.raises(ConfigError, match="attention trace is"):
        gate_step(d["candidate"], d["prev_state"], d["frame"], trace, GateConfig(), strategy,
                  prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])


@pytest.mark.parametrize("strategy", [Strategy.TEMPORAL_ONLY, Strategy.SPATIAL_ONLY, Strategy.FUSED])
def test_gate_step_requires_a_state_token(strategy):
    empty = np.zeros((0, 5), dtype=F32)
    frame = np.ones((3, 5), dtype=F32)
    trace = AttentionTrace(np.zeros((1, 1, 3), dtype=F32))
    with pytest.raises(ConfigError, match=r"^candidate must not be empty, got shape \(0, 5\)$"):
        gate_step(empty, empty, frame, trace, GateConfig(), strategy,
                  prev_candidate=empty, prev_frame=frame)


# The gate cores compute their sigmoid arguments into arrays they own and
# overwrite those in place; no caller's array may change, and a saturated
# sigmoid must stay silent under pyproject's filter, which makes every warning an error.


def _snapshot(arrays):
    return {name: a.tobytes() for name, a in arrays.items()}


@pytest.mark.parametrize("attn_source", list(AttnSource))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_gate_step_leaves_its_inputs_unchanged(strategy, attn_source):
    cfg = GateConfig(tau=0.8, spat_gain=3.0, spat_bias=-0.5, attn_source=attn_source)
    state, outs = _decoded_frames(attn_source, seed=4)
    prev_candidate = prev_frame = None
    for frame, out in outs:
        inputs = {"candidate": out.candidate, "prev_state": state, "frame": frame,
                  "trace.layers": out.trace.layers}
        if prev_candidate is not None:
            inputs.update(prev_candidate=prev_candidate, prev_frame=prev_frame)
        before = _snapshot(inputs)
        new_state, _ = gate_step(out.candidate, state, frame, out.trace, cfg, strategy,
                                 prev_candidate=prev_candidate, prev_frame=prev_frame)
        assert _snapshot(inputs) == before
        state, prev_candidate, prev_frame = new_state, out.candidate, frame


@pytest.mark.parametrize("spat_bias", [-1e30, 1e30])
@pytest.mark.parametrize("strategy", [Strategy.TEMPORAL_ONLY, Strategy.SPATIAL_ONLY, Strategy.FUSED])
def test_gate_step_saturated_sigmoids_raise_no_warning(strategy, spat_bias):
    # tau = 1e30 drives every temporal argument to -1e30, whose exp overflows;
    # spat_bias drives every spatial argument to +-1e30.
    d = _gate_inputs(seed=10)
    cfg = GateConfig(tau=1e30, spat_bias=spat_bias)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, mask = gate_step(d["candidate"], d["prev_state"], d["frame"], d["trace"], cfg, strategy,
                                prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])
    assert np.isfinite(state).all()
    assert (mask.values >= 0).all() and (mask.values < 1).all()


# --- non-finite input at the gate boundary, as properties -------------------
# Every input a gate reads is checked; a NaN or infinity anywhere in one raises
# StateError, and no RuntimeWarning escapes first.

_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 6))

# The inputs each strategy's gated step reads, besides candidate and prev_state.
_READS = {
    Strategy.UNIFORM: (),
    Strategy.TEMPORAL_ONLY: ("prev_candidate",),
    Strategy.SPATIAL_ONLY: ("frame", "prev_frame", "trace"),
    Strategy.FUSED: ("prev_candidate", "frame", "prev_frame", "trace"),
}


def _poison(array, data, value):
    """A copy of array with one entry, drawn by data, set to value."""
    array = np.array(array, dtype=F32)
    array[tuple(data.draw(st.integers(0, n - 1)) for n in array.shape)] = value
    return array


def _raises_state_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="non-finite"):
            call()


@settings(max_examples=40, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**16), side=st.sampled_from(["curr", "prev"]),
       value=_NON_FINITE, data=st.data())
def test_temporal_mask_and_feature_divergence_reject_any_non_finite_entry(shape, seed, side, value, data):
    n, _, c = shape
    rng = np.random.default_rng(seed)
    arrays = {"curr": rng.standard_normal((n, c)), "prev": rng.standard_normal((n, c))}
    arrays[side] = _poison(arrays[side], data, value)
    _raises_state_error(lambda: temporal_mask(arrays["curr"], arrays["prev"], GateConfig()))
    _raises_state_error(lambda: feature_divergence(arrays["curr"], arrays["prev"]))


@settings(max_examples=40, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**16), side=st.sampled_from(["attn", "divergence"]),
       data=st.data())
def test_spatial_mask_rejects_any_non_finite_entry(shape, seed, side, data):
    n, k, _ = shape
    rng = np.random.default_rng(seed)
    arrays = {"attn": np.abs(rng.standard_normal((n, k))), "divergence": 2 * rng.random(k)}
    # -inf attention is negative, which the ConfigError for negative attention names first.
    value = data.draw(st.sampled_from([np.nan, np.inf]) if side == "attn" else _NON_FINITE)
    arrays[side] = _poison(arrays[side], data, value)
    _raises_state_error(lambda: spatial_mask(arrays["attn"], arrays["divergence"], GateConfig()))


@settings(max_examples=40, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**16), side=st.sampled_from(["candidate", "prev_state"]),
       value=_NON_FINITE, data=st.data())
def test_apply_update_rejects_any_non_finite_entry(shape, seed, side, value, data):
    n, _, c = shape
    rng = np.random.default_rng(seed)
    arrays = {"candidate": rng.standard_normal((n, c)), "prev_state": rng.standard_normal((n, c))}
    arrays[side] = _poison(arrays[side], data, value)
    mask = UpdateMask(data.draw(st.sampled_from([np.zeros(n), np.ones(n), rng.random(n)])), Strategy.FUSED)
    _raises_state_error(lambda: apply_update(arrays["candidate"], arrays["prev_state"], mask))


@settings(max_examples=80, deadline=None)
@given(strategy=st.sampled_from(list(Strategy)), shape=_SHAPES, layers=st.integers(1, 3),
       seed=st.integers(0, 2**16), value=_NON_FINITE, data=st.data())
def test_gate_step_rejects_any_non_finite_input_it_reads(strategy, shape, layers, seed, value, data):
    n, k, c = shape
    d = _gate_inputs(seed=seed, n=n, k=k, c=c, layers=layers)
    d["trace"] = d["trace"].layers
    name = data.draw(st.sampled_from(("candidate", "prev_state") + _READS[strategy]))
    d[name] = _poison(d[name], data, value)
    _raises_state_error(lambda: gate_step(
        d["candidate"], d["prev_state"], d["frame"], AttentionTrace(d["trace"]), GateConfig(), strategy,
        prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"],
    ))


# gate_step checks every argument before it picks a route, so a malformed
# or mismatched one is named on every strategy's route and on the first
# frame alike, whether or not the route reads it.
_MALFORMED = st.sampled_from([[[1.0, 2.0], [3.0]], "garbage", [["a", "b"]], {"a": 1}])


@settings(max_examples=120, deadline=None)
@given(strategy=st.sampled_from(list(Strategy)), first_frame=st.booleans(), shape=_SHAPES,
       seed=st.integers(0, 2**16), malformed=st.booleans(), data=st.data())
def test_gate_step_names_any_bad_argument_on_every_route(strategy, first_frame, shape, seed, malformed, data):
    n, k, c = shape
    d = _gate_inputs(seed=seed, n=n, k=k, c=c)
    if first_frame:
        d["prev_candidate"] = d["prev_frame"] = None
    buffers = () if first_frame else ("prev_candidate", "prev_frame")
    arg = data.draw(st.sampled_from(("candidate", "prev_state", "frame", *buffers, "trace")))
    if arg == "trace" and malformed:
        d[arg] = data.draw(st.sampled_from([d["trace"].layers, "not a trace", None]))
        pattern = r"^trace must be an AttentionTrace, got "
    elif arg == "trace":
        d[arg] = AttentionTrace(np.ones((2, n + 1, k), dtype=F32))
        pattern = r"\btrace\b"
    elif malformed:
        d[arg] = data.draw(_MALFORMED)
        pattern = rf"^{arg} must be a rectangular numeric array, got "
    else:  # one token more than its partner, or than the trace on a first frame
        d[arg] = np.ones((d[arg].shape[0] + 1, c), dtype=F32)
        pattern = rf"\b{arg}\b"
    with pytest.raises(ConfigError, match=pattern):
        gate_step(d["candidate"], d["prev_state"], d["frame"], d["trace"], GateConfig(), strategy,
                  prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])
