"""Minimal deterministic recurrent cross-attention decoder.

Stands in for a full pretrained encoder/decoder stack: a fixed linear
encoder projects observations into feature space, and each decoder layer
lets the persistent-state tokens attend over the frame tokens (queries
from state, keys/values from frame, scaled dot-product softmax). The
per-layer attention maps are exposed for the spatial gate.

The per-layer token update is a relevance-gated leaky residual,

    tokens += RESIDUAL_RATE * gate * (attention @ values - tokens),

where gate = sigmoid(GATE_GAIN * (max_score - GATE_BIAS)) per token. A
trained decoder learns to leave disengaged tokens alone; the gate is the
training-free stand-in for that selectivity, and the leaky form keeps
activations bounded (a plain accumulating residual grows token norms
without bound, saturating both the attention and any scale-aligned
readout).

Before the cross-attention layers, each decode pass rotates every state
token slightly toward the shared token-mean direction (norm-preserving,
so token energy is conserved). This stands in for the state
self-attention of a real recurrent decoder and is the reason repeated
re-encoding is lossy: a token whose region is not being observed cannot
be re-anchored, so whatever fraction of the proposal the update commits,
that fraction of the token's distinctive content has been smeared away.
Full replacement therefore forgets unobserved regions at the mixing
rate, which is precisely the failure mode the adaptive gates are meant
to mitigate.

Because nothing here is trained, the generated weights are also chosen so
content addressing works out of the box: query and key share one random
projection per layer (independent random Q/K destroy the inner-product
structure attention needs), and the value/readout maps are identity so
state tokens hold, and are read out in, the encoder's feature basis.
Hand-constructed weights with arbitrary matrices remain fully supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StateError, check_int, check_items, check_type
from .gating import AttentionTrace, AttnSource
from .linalg import F32, _check_finite, _quiet, as_matrix, matmul, row_softmax, sigmoid_neg_inplace

# Fraction of the gap between a token and its retrieved value closed per
# layer, plus the score level below which a token counts as disengaged and
# the steepness of that cutoff. GATE_BIAS sits above the spurious-match
# score band so no token can be captured by a lookalike region, yet below
# the self-match band so observed tokens keep updating.
RESIDUAL_RATE = 0.15
GATE_BIAS = 10.0
GATE_GAIN = 2.0

# Variance gain of generated query/key projections; sharpens attention so
# a token whose content matches a frame row dominates its softmax row.
SCORE_GAIN = 2.0

# Relative size of the random part of generated query/key projections.
# Near-identity projections keep spurious token/frame score correlations
# small (a fully random projection adds score noise comparable to the
# content signal) while still giving each layer a distinct attention map.
QK_JITTER = 0.1

# Per-pass rotation of each state token toward the token-mean direction;
# the lossy re-encoding channel described in the module docstring.
MIX_RATE = 0.03

# float32 copies of the rates above, built once rather than on every layer.
_RESIDUAL_RATE32 = F32(RESIDUAL_RATE)
_GATE_BIAS32 = F32(GATE_BIAS)
_GATE_GAIN32 = F32(GATE_GAIN)
_MIX_RATE32 = F32(MIX_RATE)


@dataclass(frozen=True, eq=False)
class DecoderWeights:
    """Immutable projection matrices for an L-layer decoder.

    query/key/value hold one C x C matrix per layer; readout is C x C;
    encoder maps observation channels to feature channels (C_obs x C).
    key_value is derived: the L key projections, then the L value
    projections, stacked into one (2L, C, C) array so that a frame is
    projected by a single matmul.
    """

    query: tuple[np.ndarray, ...]
    key: tuple[np.ndarray, ...]
    value: tuple[np.ndarray, ...]
    readout: np.ndarray
    encoder: np.ndarray
    seed: int = 0
    key_value: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        query, key, value = (
            tuple(as_matrix(m, name) for m in check_items(
                name, getattr(self, name), "a sequence of per-layer matrices"))
            for name in ("query", "key", "value")
        )
        if not query:
            raise ConfigError("decoder needs at least one layer")
        if not (len(query) == len(key) == len(value)):
            raise ConfigError("query/key/value layer counts differ")
        c = query[0].shape[1]
        for m in (*query, *key, *value):
            if m.shape != (c, c):
                raise ConfigError(f"projection must be {c}x{c}, got {m.shape}")
        readout = as_matrix(self.readout, "readout")
        if readout.shape != (c, c):
            raise ConfigError(f"readout must be {c}x{c}, got {readout.shape}")
        encoder = as_matrix(self.encoder, "encoder")
        if encoder.shape[1] != c:
            raise ConfigError(
                f"encoder must have {c} output channels, got {encoder.shape[1]}"
            )
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "readout", readout)
        object.__setattr__(self, "encoder", encoder)
        object.__setattr__(self, "key_value", np.stack((*key, *value)))

    @property
    def n_layers(self) -> int:
        return len(self.query)

    @property
    def channels(self) -> int:
        return self.query[0].shape[1]

    @property
    def obs_channels(self) -> int:
        return self.encoder.shape[0]


@dataclass(frozen=True, eq=False)
class DecodeOutput:
    """Candidate state plus the per-layer attention trace."""

    candidate: np.ndarray
    trace: AttentionTrace


def make_weights(
    n_layers: int = 4,
    channels: int = 32,
    obs_channels: int | None = None,
    seed: int = 0,
) -> DecoderWeights:
    """Generate deterministic decoder weights from a seed.

    The encoder projection is a random semi-orthogonal matrix (QR of a
    Gaussian draw), which preserves inner products exactly rather than
    just in expectation; per-layer query projections are sqrt(SCORE_GAIN)
    times a jittered identity so generated attention is sharp and nearly
    free of spurious correlations; key shares the query projection and
    value/readout are identity (see the module docstring for why a
    training-free decoder needs this).
    """
    n_layers = check_int("n_layers", n_layers, 1)
    channels = check_int("channels", channels, 1)
    obs_channels = channels if obs_channels is None else check_int("obs_channels", obs_channels, 1)
    seed = check_int("model seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7E)))
    eye = np.eye(channels, dtype=F32)
    q_gain = math.sqrt(SCORE_GAIN)
    jitter_scale = QK_JITTER / math.sqrt(channels)
    query = tuple(
        (
            q_gain * (eye + jitter_scale * rng.standard_normal((channels, channels)))
        ).astype(F32)
        for _ in range(n_layers)
    )
    encoder = _semi_orthogonal(rng, obs_channels, channels)
    return DecoderWeights(
        query=query,
        key=query,
        value=tuple(eye for _ in range(n_layers)),
        readout=eye,
        encoder=encoder,
        seed=seed,
    )


@_quiet
def encode_frame(observation, weights: DecoderWeights) -> np.ndarray:
    """Project a K x C_obs observation to K x C frame tokens.

    A non-finite observation or encoder, or a frame made non-finite by a
    float32 overflow of the finite product, raises a StateError naming the
    cause, with no RuntimeWarning first.
    """
    check_type("weights", weights, DecoderWeights)
    observation = as_matrix(observation, "observation")
    if observation.shape[1] != weights.obs_channels:
        raise ConfigError(
            f"observation has {observation.shape[1]} channels, encoder "
            f"expects {weights.obs_channels}"
        )
    return _project(observation, weights.encoder,
                    "encode_frame: non-finite frame: the finite observation and encoder overflow float32",
                    ("observation", "weights.encoder"), "encode_frame: non-finite {}")


@_quiet
def decode_step(
    frame,
    state,
    weights: DecoderWeights,
    attn_source: AttnSource = AttnSource.POST_SOFTMAX,
) -> DecodeOutput:
    """Run one recurrent decode: state tokens attend over frame tokens.

    First each token is rotated by MIX_RATE toward the token-mean
    direction (at its own norm, rescaled back to that norm afterwards).
    Then per layer: scores = (state @ Wq)(frame @ Wk)^T / sqrt(C),
    attention = row_softmax(scores), gate = sigmoid(GATE_GAIN *
    (rowmax(scores) - GATE_BIAS)), and tokens += RESIDUAL_RATE * gate *
    (attention @ (frame @ Wv) - tokens). The frame is projected through
    every layer's Wk and Wv by one matmul, every layer's transposed keys
    are read from one swapaxes view of it, and each layer reduces its
    score rows once, to an (N, 1) column of maxima that the softmax, the
    gate and the residual scale broadcast directly. The maxima are
    np.fmax's, the faster reduction: they are np.maximum's but for the sign
    of a zero, which neither exp nor GATE_BIAS - rowmax reads, and where a
    row holds a NaN, whose softmax row, and so the candidate, is NaN either
    way. The gate's sigmoid
    argument is computed already negated, GATE_GAIN * (GATE_BIAS -
    rowmax(scores)), which is exact. The trace is one (L, N, K) array of
    attention probabilities, which the softmax writes into directly, or of
    the raw scaled scores when attn_source is PRE_SOFTMAX_ABS. The layers
    scale, gate and update arrays they own in place, with the same
    operations in the same order as the formulas above. The body is the
    private `_decode`, which reduces along the last axes and treats any
    leading axes of frame and state as a batch of sessions; decode_step
    takes one session's 2-D arrays. The gate's exp saturates without a
    warning, and a candidate made non-finite by a non-finite frame or state,
    or by a float32 overflow (scores beyond float32's range make the softmax
    compute inf - inf), raises a StateError naming the cause. Frame and
    state are left unchanged.
    """
    check_type("weights", weights, DecoderWeights)
    check_type("attn_source", attn_source, AttnSource)
    frame = as_matrix(frame, "frame")
    state = as_matrix(state, "state")
    c = weights.channels
    if frame.shape[1] != c or state.shape[1] != c:
        raise ConfigError(
            f"frame/state channel mismatch: frame {frame.shape}, state "
            f"{state.shape}, weights expect {c} channels"
        )
    candidate, traced = _decode(frame, state, weights, attn_source is AttnSource.PRE_SOFTMAX_ABS)
    return DecodeOutput(candidate=candidate, trace=AttentionTrace(traced))


def _decode(frame: np.ndarray, state: np.ndarray, weights: DecoderWeights,
            pre_softmax: bool) -> tuple[np.ndarray, np.ndarray]:
    """decode_step's (candidate, trace).

    Any leading axes of frame and state are a batch of sessions. The layer
    axis leads the key/value projections and the trace, (L, ..., N, K), so
    that each layer is one integer index into them, as in one session's.
    """
    n_layers = len(weights.query)
    scale = F32(1.0 / math.sqrt(weights.channels))
    traced = np.empty((n_layers,) + state.shape[:-1] + frame.shape[-2:-1], dtype=F32)
    tokens = _mix_tokens(state)
    key_value = weights.key_value
    kv = matmul(frame, key_value.reshape(key_value.shape[:1] + (1,) * (frame.ndim - 2) + key_value.shape[1:]))
    keys_t = kv[:n_layers].swapaxes(-1, -2)
    for layer, wq in enumerate(weights.query):
        scores = matmul(matmul(tokens, wq), keys_t[layer])
        scores *= scale
        score_max = np.fmax.reduce(scores, axis=-1, keepdims=True)
        if pre_softmax:
            traced[layer] = scores
        attn = row_softmax(scores, score_max, out=scores if pre_softmax else traced[layer])
        np.subtract(_GATE_BIAS32, score_max, out=score_max)
        score_max *= _GATE_GAIN32
        gate = sigmoid_neg_inplace(score_max)
        gate *= _RESIDUAL_RATE32
        retrieved = matmul(attn, kv[n_layers + layer])
        retrieved -= tokens
        retrieved *= gate
        tokens += retrieved
    _check_finite(tokens, "decode_step: non-finite candidate: the finite frame and state overflow float32",
                  (("frame", frame), ("state", state)), "decode_step: non-finite {}")
    return tokens, traced


def _semi_orthogonal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random rows x cols matrix with orthonormal rows (or columns if tall)."""
    if rows <= cols:
        q, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
        return np.ascontiguousarray(q[:, :rows].T.astype(F32))
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return np.ascontiguousarray(q[:, :cols].astype(F32))


def _mix_tokens(state: np.ndarray) -> np.ndarray:
    """Norm-preserving rotation of each token toward the mean direction.

    The temporaries are updated in place, with the operations of
    mixed = state + MIX_RATE * (mean / |mean| * |state_i| - state) and
    mixed * (|state_i| / |mixed_i|) on the same operands. A state whose
    token mean has zero norm comes back as a copy; any leading axes are a
    batch of states, each selected on its own, with no 0 / 0 computed.
    """
    mean = np.add.reduce(state, axis=-2, keepdims=True)
    mean /= F32(state.shape[-2])
    mean_norm = np.sqrt(np.add.reduce(mean * mean, axis=-1, keepdims=True))
    moves = mean_norm != 0
    np.divide(mean, mean_norm, out=mean, where=moves)
    orig = np.add.reduce(state * state, axis=-1, keepdims=True)
    np.sqrt(orig, out=orig)
    mixed = mean * orig
    mixed -= state
    mixed *= _MIX_RATE32
    mixed += state
    new = np.add.reduce(mixed * mixed, axis=-1, keepdims=True)
    np.sqrt(new, out=new)
    np.divide(orig, new, out=orig, where=new > 0)
    return np.multiply(mixed, orig, out=state.copy(), where=moves)


@_quiet
def readout(candidate, weights: DecoderWeights) -> np.ndarray:
    """Linear per-token estimate from the candidate state (N x C).

    A non-finite candidate or readout matrix, or an estimate made non-finite
    by a float32 overflow of the finite product, raises a StateError naming
    the cause, with no RuntimeWarning first.
    """
    check_type("weights", weights, DecoderWeights)
    candidate = as_matrix(candidate, "candidate")
    if candidate.shape[1] != weights.channels:
        raise ConfigError(
            f"candidate has {candidate.shape[1]} channels, readout expects "
            f"{weights.channels}"
        )
    return _project(candidate, weights.readout,
                    "readout: non-finite estimate: the finite candidate and readout overflow float32",
                    ("candidate", "weights.readout"), "readout: non-finite {}")


def _project(x: np.ndarray, matrix: np.ndarray, overflow: str, names: tuple[str, str], nonfinite: str) -> np.ndarray:
    """x @ matrix, checked as `_check_finite` checks, x and matrix given `names`."""
    product = matmul(x, matrix)
    _check_finite(product, overflow, ((names[0], x), (names[1], matrix)), nonfinite)
    return product
