import dataclasses
import warnings

import numpy as np
import pytest

from streamgate.decoder import (
    DecoderWeights,
    decode_step,
    encode_frame,
    make_weights,
    readout,
)
from streamgate.errors import ConfigError, StateError
from streamgate.gating import AttnSource
from streamgate.linalg import matmul, row_softmax, sigmoid
from streamgate import oracle
import streamgate.decoder as decoder_mod

F32 = np.float32


def identity_weights(channels=2, n_layers=1):
    eye = np.eye(channels, dtype=F32)
    return DecoderWeights(
        query=(eye,) * n_layers,
        key=(eye,) * n_layers,
        value=(eye,) * n_layers,
        readout=eye,
        encoder=eye,
    )


def test_make_weights_deterministic():
    a = make_weights(3, 16, 8, seed=42)
    b = make_weights(3, 16, 8, seed=42)
    for ma, mb in zip(a.query, b.query):
        assert ma.tobytes() == mb.tobytes()
    assert a.encoder.tobytes() == b.encoder.tobytes()
    c = make_weights(3, 16, 8, seed=43)
    assert a.encoder.tobytes() != c.encoder.tobytes()


def test_make_weights_shapes_and_validation():
    w = make_weights(2, 8, 6, seed=0)
    assert w.n_layers == 2 and w.channels == 8 and w.obs_channels == 6
    assert all(m.shape == (8, 8) for m in (*w.query, *w.key, *w.value))
    assert w.readout.shape == (8, 8) and w.encoder.shape == (6, 8)
    with pytest.raises(ConfigError):
        make_weights(0, 8)
    with pytest.raises(ConfigError):
        make_weights(2, 0)


@pytest.mark.parametrize("kwargs, name", [
    ({"n_layers": 2.5}, "n_layers"),
    ({"channels": 8.0}, "channels"),
    ({"obs_channels": True}, "obs_channels"),
    ({"seed": -1}, "model seed"),
    ({"seed": 1.5}, "model seed"),
])
def test_make_weights_rejects_bad_integers_naming_the_field(kwargs, name):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        make_weights(**kwargs)


def test_make_weights_accepts_numpy_integers():
    a = make_weights(np.int64(2), np.int32(8), np.uint8(6), seed=np.uint32(3))
    b = make_weights(2, 8, 6, seed=3)
    assert a.key_value.tobytes() == b.key_value.tobytes()
    assert a.encoder.tobytes() == b.encoder.tobytes()


def test_make_weights_encoder_preserves_norms():
    w = make_weights(2, 32, 32, seed=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 32)).astype(F32)
    np.testing.assert_allclose(
        np.linalg.norm(x @ w.encoder, axis=1), np.linalg.norm(x, axis=1), rtol=1e-4
    )


def test_decoder_weights_validation():
    eye = np.eye(2, dtype=F32)
    with pytest.raises(ConfigError):
        DecoderWeights(query=(), key=(), value=(), readout=eye, encoder=eye)
    with pytest.raises(ConfigError):
        DecoderWeights(query=(eye,), key=(eye, eye), value=(eye,), readout=eye, encoder=eye)
    with pytest.raises(ConfigError):
        DecoderWeights(query=(eye,), key=(eye,), value=(eye,), readout=np.eye(3, dtype=F32), encoder=eye)


@pytest.mark.parametrize("bad", [5, None, 2.5])
@pytest.mark.parametrize("field", ["query", "key", "value"])
def test_decoder_weights_name_a_field_that_is_not_a_sequence(field, bad):
    with pytest.raises(ConfigError, match=rf"^{field} must be a sequence of per-layer matrices, got "):
        dataclasses.replace(make_weights(2, 4), **{field: bad})


def test_encode_frame_linearity_and_determinism():
    w = make_weights(2, 8, 6, seed=5)
    zero = encode_frame(np.zeros((4, 6), dtype=F32), w)
    np.testing.assert_array_equal(zero, np.zeros((4, 8), dtype=F32))
    rng = np.random.default_rng(2)
    obs = rng.standard_normal((4, 6)).astype(F32)
    once = encode_frame(obs, w)
    assert once.tobytes() == encode_frame(obs, w).tobytes()
    np.testing.assert_allclose(encode_frame(2 * obs, w), 2 * once, rtol=1e-6)


def test_encode_frame_channel_mismatch():
    w = make_weights(2, 8, 6, seed=5)
    with pytest.raises(ConfigError):
        encode_frame(np.zeros((4, 5), dtype=F32), w)


def test_decode_step_single_key_attention_is_one():
    w = identity_weights(channels=2)
    out = decode_step(np.ones((1, 2), dtype=F32), np.ones((3, 2), dtype=F32), w)
    np.testing.assert_array_equal(out.trace.layers[0], np.ones((3, 1), dtype=F32))


def test_decode_step_attention_rows_sum_to_one():
    w = make_weights(3, 8, 8, seed=9)
    rng = np.random.default_rng(3)
    frame = rng.standard_normal((5, 8)).astype(F32)
    state = rng.standard_normal((4, 8)).astype(F32)
    out = decode_step(frame, state, w)
    assert out.trace.layers.shape[0] == 3
    for layer in out.trace.layers:
        assert (layer >= 0).all()
        np.testing.assert_allclose(layer.sum(axis=1), np.ones(4), atol=1e-5)


def test_decode_step_frozen_scalar_example():
    # L=1, N=1, K=2, C=2, identity weights; expected values computed with
    # the scalar oracle (scores [2sqrt2, sqrt2], gate almost closed).
    w = identity_weights(channels=2)
    out = decode_step([[2.0, 0.0], [0.0, 2.0]], [[2.0, 1.0]], w)
    np.testing.assert_allclose(
        out.trace.layers[0], [[0.804429682507, 0.195570317493]], atol=1e-5
    )
    np.testing.assert_allclose(
        out.candidate, [[1.999999965384, 0.999999946116]], atol=1e-5
    )


def test_decode_step_candidate_shape_matches_state():
    w = make_weights(2, 8, 8, seed=4)
    rng = np.random.default_rng(4)
    out = decode_step(
        rng.standard_normal((6, 8)).astype(F32),
        rng.standard_normal((5, 8)).astype(F32),
        w,
    )
    assert out.candidate.shape == (5, 8)


def test_decode_step_deterministic():
    w = make_weights(2, 8, 8, seed=6)
    rng = np.random.default_rng(5)
    frame = rng.standard_normal((3, 8)).astype(F32)
    state = rng.standard_normal((4, 8)).astype(F32)
    assert decode_step(frame, state, w).candidate.tobytes() == decode_step(frame, state, w).candidate.tobytes()


def test_decode_step_channel_mismatch():
    w = make_weights(2, 8, 8, seed=6)
    with pytest.raises(ConfigError):
        decode_step(np.zeros((3, 7), dtype=F32), np.zeros((4, 8), dtype=F32), w)


def test_decode_step_requires_a_frame_token():
    w = make_weights(2, 8, 8, seed=6)
    with pytest.raises(ConfigError, match="at least one frame token"):
        decode_step(np.zeros((0, 8), dtype=F32), np.zeros((4, 8), dtype=F32), w)


def test_decode_step_requires_a_state_token():
    with pytest.raises(ConfigError, match="at least one state token"):
        decode_step(np.ones((3, 8)), np.zeros((0, 8)), make_weights(2, 8, 8))


def _textbook_mix_tokens(state):
    mean = state.mean(axis=0)
    mean_norm = float(np.sqrt((mean * mean).sum()))
    if mean_norm == 0.0:
        return state.copy()
    orig = np.sqrt((state * state).sum(axis=1, keepdims=True))
    target = (mean / F32(mean_norm))[np.newaxis, :] * orig
    mixed = state + F32(decoder_mod.MIX_RATE) * (target - state)
    new = np.sqrt((mixed * mixed).sum(axis=1, keepdims=True))
    return mixed * (orig / np.where(new > 0, new, F32(1.0)))


def test_mix_tokens_bit_identical_to_textbook_form():
    rng = np.random.default_rng(31)
    with_nan = rng.standard_normal((5, 8)).astype(F32)
    with_nan[2, 3] = np.nan
    with_zero_rows = rng.standard_normal((6, 4)).astype(F32)
    with_zero_rows[[0, 5]] = 0.0
    balanced = rng.standard_normal((1, 6)).astype(F32)
    states = [
        rng.standard_normal((1, 3)).astype(F32),
        rng.standard_normal((16, 32)).astype(F32),
        rng.choice(np.array([-1e4, -100.0, 100.0, 1e4], dtype=F32), size=(7, 5)),
        with_nan,
        with_zero_rows,
        np.concatenate([balanced, -balanced]),
    ]
    for state in states:
        got, want = decoder_mod._mix_tokens(state), _textbook_mix_tokens(state)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_decode_step_pre_softmax_trace_carries_raw_scores():
    w = make_weights(1, 8, 8, seed=7)
    rng = np.random.default_rng(6)
    frame = rng.standard_normal((5, 8)).astype(F32)
    state = rng.standard_normal((4, 8)).astype(F32)
    post = decode_step(frame, state, w, AttnSource.POST_SOFTMAX)
    pre = decode_step(frame, state, w, AttnSource.PRE_SOFTMAX_ABS)
    assert (pre.trace.layers[0] < 0).any()
    assert (post.trace.layers[0] >= 0).all()
    # same candidate either way; the source only changes what is traced
    assert post.candidate.tobytes() == pre.candidate.tobytes()


def test_readout_identity_zero_and_determinism():
    w = identity_weights(channels=4)
    rng = np.random.default_rng(7)
    cand = rng.standard_normal((3, 4)).astype(F32)
    np.testing.assert_array_equal(readout(cand, w), cand)
    np.testing.assert_array_equal(
        readout(np.zeros((3, 4), dtype=F32), w), np.zeros((3, 4), dtype=F32)
    )
    w2 = make_weights(1, 8, 8, seed=11)
    cand2 = rng.standard_normal((3, 8)).astype(F32)
    assert readout(cand2, w2).tobytes() == readout(cand2, w2).tobytes()
    with pytest.raises(ConfigError):
        readout(np.zeros((3, 7), dtype=F32), w2)


def test_decode_step_matches_scalar_oracle_small_instances():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n, k, c, n_layers = (int(rng.integers(1, 4)) for _ in range(4))
        mats = lambda: tuple(rng.standard_normal((c, c)).astype(F32) for _ in range(n_layers))
        query, key, value = mats(), mats(), mats()
        w = DecoderWeights(
            query=query, key=key, value=value,
            readout=np.eye(c, dtype=F32), encoder=np.eye(c, dtype=F32),
        )
        frame = rng.standard_normal((k, c)).astype(F32)
        state = rng.standard_normal((n, c)).astype(F32)
        out = decode_step(frame, state, w)
        expected, attn = oracle.o_decode_step(
            frame.tolist(), state.tolist(),
            [m.tolist() for m in query], [m.tolist() for m in key], [m.tolist() for m in value],
            decoder_mod.RESIDUAL_RATE, decoder_mod.GATE_BIAS, decoder_mod.GATE_GAIN,
            decoder_mod.MIX_RATE,
        )
        np.testing.assert_allclose(out.candidate, expected, rtol=1e-4, atol=1e-5)
        for got, exp in zip(out.trace.layers, attn):
            np.testing.assert_allclose(got, exp, rtol=1e-4, atol=1e-5)


# decode_step projects the frame through every layer's key and value by one
# matmul over the stacked weights and reduces each layer's score rows once;
# both must equal the per-layer form bit for bit.


def _random_weights(rng, n_layers, c):
    mats = lambda: tuple(rng.standard_normal((c, c)).astype(F32) for _ in range(n_layers))
    eye = np.eye(c, dtype=F32)
    return DecoderWeights(query=mats(), key=mats(), value=mats(), readout=eye, encoder=eye)


def test_stacked_projection_bit_identical_to_per_layer():
    rng = np.random.default_rng(77)
    for n_layers in (1, 2, 4, 7):
        for c in (5, 8, 32, 64):
            w = _random_weights(rng, n_layers, c)
            assert w.key_value.shape == (2 * n_layers, c, c) and w.key_value.dtype == F32
            for k in (1, 2, 7, 16, 33):
                frame = rng.standard_normal((k, c)).astype(F32)
                kv = matmul(frame, w.key_value)
                for layer in range(n_layers):
                    assert kv[layer].tobytes() == (frame @ w.key[layer]).tobytes()
                    assert kv[n_layers + layer].tobytes() == (frame @ w.value[layer]).tobytes()


def _per_layer_decode(frame, state, w, attn_source):
    tokens = decoder_mod._mix_tokens(state)
    scale = F32(1.0 / np.sqrt(w.channels))
    traced = []
    for wq, wk, wv in zip(w.query, w.key, w.value):
        scores = matmul(matmul(tokens, wq), matmul(frame, wk).T) * scale
        attn = row_softmax(scores)
        traced.append(scores if attn_source is AttnSource.PRE_SOFTMAX_ABS else attn)
        gate = sigmoid(F32(decoder_mod.GATE_GAIN) * (scores.max(axis=1) - F32(decoder_mod.GATE_BIAS)))
        retrieved = matmul(attn, matmul(frame, wv))
        tokens = tokens + F32(decoder_mod.RESIDUAL_RATE) * gate[:, np.newaxis] * (retrieved - tokens)
    return tokens, traced


@pytest.mark.parametrize("attn_source", list(AttnSource))
def test_decode_step_bit_identical_to_per_layer_form(attn_source):
    rng = np.random.default_rng(78)
    for n_layers, n, k, c in ((1, 1, 1, 5), (2, 3, 7, 8), (4, 16, 16, 32), (7, 5, 33, 12)):
        for w in (_random_weights(rng, n_layers, c), make_weights(n_layers, c, c, seed=n)):
            frame = rng.standard_normal((k, c)).astype(F32)
            state = rng.standard_normal((n, c)).astype(F32)
            out = decode_step(frame, state, w, attn_source)
            tokens, traced = _per_layer_decode(frame, state, w, attn_source)
            assert out.candidate.tobytes() == tokens.tobytes()
            layers = out.trace.layers
            assert isinstance(layers, np.ndarray) and layers.shape == (n_layers, n, k)
            assert layers.dtype == F32
            assert [m.tobytes() for m in layers] == [m.tobytes() for m in traced]


# decode_step scales, gates and updates arrays it owns in place, under one
# errstate: its inputs must come back unchanged, and a gate whose exp
# overflows must stay silent and equal the per-layer form.


@pytest.mark.parametrize("attn_source", list(AttnSource))
def test_decode_step_leaves_frame_and_state_unchanged(attn_source):
    rng = np.random.default_rng(79)
    w = make_weights(3, 8, 8, seed=5)
    frame = rng.standard_normal((5, 8)).astype(F32)
    state = rng.standard_normal((4, 8)).astype(F32)
    before = frame.tobytes(), state.tobytes()
    decode_step(frame, state, w, attn_source)
    assert (frame.tobytes(), state.tobytes()) == before


@pytest.mark.parametrize("attn_source", list(AttnSource))
def test_decode_step_saturated_gate_raises_no_warning(attn_source):
    # Every state token points along u and every frame token against it, so
    # each score is 10 * -10 / sqrt(4) = -50 and the gate argument
    # GATE_GAIN * (max score - GATE_BIAS) is -120: exp(120) overflows float32.
    u = np.array([1.0, 0.0, 0.0, 0.0], dtype=F32)
    state = np.stack([10.0 * u] * 3)
    frame = np.stack([-10.0 * u] * 2)
    w = identity_weights(channels=4, n_layers=2)
    scores = decode_step(frame, state, w, AttnSource.PRE_SOFTMAX_ABS).trace.layers
    assert (F32(decoder_mod.GATE_GAIN) * (scores.max(axis=-1) - F32(decoder_mod.GATE_BIAS)) < -88).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = decode_step(frame, state, w, attn_source)
    tokens, traced = _per_layer_decode(frame, state, w, attn_source)
    assert out.candidate.tobytes() == tokens.tobytes()
    assert [m.tobytes() for m in out.trace.layers] == [m.tobytes() for m in traced]


# A candidate that is not finite is named by decode_step, whether an input
# was not finite or finite inputs overflowed float32 (inf - inf in the
# softmax), and no RuntimeWarning escapes first.
@pytest.mark.parametrize("attn_source", list(AttnSource))
@pytest.mark.parametrize("side, value, message", [
    ("frame", np.nan, "non-finite frame"),
    ("frame", np.inf, "non-finite frame"),
    ("state", -np.inf, "non-finite state"),
    ("frame", 1e20, "non-finite candidate: the finite frame and state overflow float32"),
    ("state", 1e20, "non-finite candidate: the finite frame and state overflow float32"),
])
def test_decode_step_names_a_non_finite_candidate(side, value, message, attn_source):
    rng = np.random.default_rng(83)
    arrays = {"frame": rng.standard_normal((3, 8)).astype(F32),
              "state": rng.standard_normal((4, 8)).astype(F32)}
    arrays[side][1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=f"^decode_step: {message}$"):
            decode_step(arrays["frame"], arrays["state"], make_weights(2, 8, 8, seed=4), attn_source)
