"""Adaptive per-token update gates for a streaming persistent state.

The persistent state is an N x C token matrix carried across frames. Each
frame the decoder proposes a candidate state; the gates below decide, token
by token, how much of the candidate to commit:

* temporal gate   -- mean-normalized per-token change between consecutive
                     candidate states, pushed through a thresholded sigmoid.
                     Tokens that barely move are preserved; tokens that move
                     a lot absorb the new observation.
* spatial gate    -- layer-averaged cross-attention times per-frame-token
                     feature divergence, max-pooled over frame tokens, then
                     a sigmoid. Tokens attending strongly to changing
                     observations update; tokens tied to stable or
                     irrelevant content are preserved.
* fused gate      -- elementwise product of the two, so a token updates only
                     when both signals agree.

The committed state is the per-token convex combination
``mask * candidate + (1 - mask) * previous``. The uniform (all-ones) mask
reproduces plain full-replacement recurrence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError, check_int, check_real, check_type
from .linalg import (
    F32,
    F32_MAX,
    _as_f32,
    _check_finite,
    as_matrix,
    as_vector,
    col_broadcast_mul,
    cosine_denominator,
    rowwise_cosine,
    rowwise_l2,
    rowwise_max,
    sigmoid_neg_inplace,
)

_ONE = F32(1.0)


class AttnSource(enum.Enum):
    """Which decoder quantity the attention trace records.

    POST_SOFTMAX traces are nonnegative attention probabilities.
    PRE_SOFTMAX_ABS traces carry raw (possibly signed) scaled scores; the
    absolute value is applied at aggregation time.
    """

    POST_SOFTMAX = "post"
    PRE_SOFTMAX_ABS = "preabs"


class Strategy(enum.Enum):
    UNIFORM = "uniform"
    TEMPORAL_ONLY = "temporal"
    SPATIAL_ONLY = "spatial"
    FUSED = "fused"


@dataclass(frozen=True)
class GateConfig:
    """Knobs of the gating mechanism.

    tau is the temporal threshold: normalized deltas sit around 1, so the
    default gates at "above-average change". eps_mean guards the
    normalizing division when all deltas vanish. spat_gain / spat_bias
    rescale the pooled spatial activation before its sigmoid (defaults
    implement the plain form, which confines the spatial gate to
    [0.5, 1) on nonnegative input). The gates use all four as float32, so
    each must lie within float32's range.
    """

    tau: float = 1.0
    eps_mean: float = 1e-8
    spat_gain: float = 1.0
    spat_bias: float = 0.0
    attn_source: AttnSource = AttnSource.POST_SOFTMAX

    def __post_init__(self) -> None:
        check_type("attn_source", self.attn_source, AttnSource)
        for name in ("tau", "eps_mean", "spat_gain", "spat_bias"):
            value = check_real(name, getattr(self, name), -F32_MAX, F32_MAX)
            if name != "spat_bias" and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class UpdateMask:
    """Per-token gate in [0, 1] plus the strategy whose route produced it."""

    values: np.ndarray
    kind: Strategy

    def __post_init__(self) -> None:
        check_type("kind", self.kind, Strategy)
        object.__setattr__(self, "values", as_vector(self.values, "mask"))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class AttentionTrace:
    """Cross-attention magnitudes of every decoder layer, as one (L, N, K) array.

    Accepts anything numpy reads as that array, a sequence of L equal-shape
    N x K matrices included. Iterating over `layers` yields the N x K
    matrices.
    """

    layers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", _as_f32(self.layers, "attention trace", 3, "an (L, N, K) array"))


# The public gate components below validate their arguments and call one
# private core per formula; gate_step validates its own arguments once and
# calls the same cores, which trust their inputs. The cores compute their
# sigmoid arguments already negated, into arrays they own, and apply
# sigmoid_neg_inplace to them. They run under their caller's
# np.errstate(over="ignore", invalid="ignore"), one per public call and one
# per gate_step: a saturating sigmoid stays silent, and the NaN of a
# non-finite input (inf - inf, inf / inf, 0 * inf) reaches a named StateError.


def _matching(op: str, a: np.ndarray, b, name: str, a_name: str = "") -> np.ndarray:
    """Coerce `b` to a matrix shaped like `a`; a mismatch names `op`, and the pair given `a_name`."""
    b = as_matrix(b, name)
    if a.shape != b.shape:
        pair = f" ({a_name} vs {name})" if a_name else ""
        raise ConfigError(f"{op} shape mismatch: {a.shape} vs {b.shape}{pair}")
    return b


def temporal_mask(curr, prev, cfg: GateConfig) -> UpdateMask:
    """Gate from mean-normalized per-token candidate deltas.

    delta[i] = |curr_i - prev_i|_2, normalized by its mean over tokens
    (falling back to all-ones when the mean is below cfg.eps_mean), then
    mask[i] = sigmoid(normalized_delta[i] - tau). A non-finite curr or prev,
    or a finite pair whose difference overflows float32, raises StateError naming it.
    """
    check_type("cfg", cfg, GateConfig)
    curr = as_matrix(curr, "curr")
    prev = _matching("temporal_mask", curr, prev, "prev")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _temporal(curr, prev, cfg, "temporal_mask", ("curr", "prev"))
    return UpdateMask(values, Strategy.TEMPORAL_ONLY)


def _temporal(curr: np.ndarray, prev: np.ndarray, cfg: GateConfig, op: str, names) -> np.ndarray:
    """The temporal gate's values; `names` are the candidates' in op's StateError."""
    delta = rowwise_l2(curr - prev)
    total = np.add.reduce(delta)  # the mean's numerator: a sum that overflows is named too
    _check_finite(
        total, f"{op}: the difference of {names[0]} and {names[1]} overflows float32 in the temporal gate",
        zip(names, (curr, prev)), f"{op}: non-finite {{}} in the temporal gate")
    mu = float(total / F32(delta.shape[0]))
    if mu >= cfg.eps_mean:
        delta /= F32(mu)
    else:
        delta = np.ones_like(delta)
    return sigmoid_neg_inplace(np.subtract(F32(cfg.tau), delta, out=delta))


def feature_divergence(curr, prev) -> np.ndarray:
    """Per-frame-token dissimilarity: 1 - cosine of consecutive frames.

    A non-finite entry raises StateError naming its frame; so do finite
    rows too large for float32 to take their cosine, naming the overflow.
    """
    curr = as_matrix(curr, "curr")
    prev = _matching("feature_divergence", curr, prev, "prev")
    with np.errstate(over="ignore", invalid="ignore"):
        return _divergence(curr, prev, "feature_divergence", ("curr", "prev"))


def _divergence(curr: np.ndarray, prev: np.ndarray, op: str, names) -> np.ndarray:
    """1 - cosine of consecutive frames; `names` are theirs in op's StateError.

    A non-finite entry makes its row's norm product non-finite, and so do
    finite rows whose squares or norm product overflow float32, where the
    cosine would read NaN or a wrong 0; either is named.
    """
    denom = cosine_denominator(curr, prev)
    _check_finite(denom, f"{op}: the cosine of {names[0]} and {names[1]} overflows float32 in the spatial gate",
                  zip(names, (curr, prev)), f"{op}: non-finite {{}} in the spatial gate")
    return _ONE - rowwise_cosine(curr, prev, denom)


def aggregate_attention(trace: AttentionTrace) -> np.ndarray:
    """Elementwise mean of absolute per-layer attention matrices.

    The reduction over the layer axis adds the layers left to right, then
    the sum is divided by their count.
    """
    check_type("trace", trace, AttentionTrace)
    return _aggregate(trace.layers)


def _aggregate(layers: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.abs(layers), axis=0) / F32(layers.shape[0])


def spatial_mask(attn, divergence, cfg: GateConfig) -> UpdateMask:
    """Gate from attention-weighted divergence, max-pooled over frame tokens.

    raw[i] = max_k attn[i, k] * divergence[k];
    mask[i] = sigmoid(spat_gain * raw[i] + spat_bias). A non-finite
    attention or divergence entry raises StateError naming that input, a
    negative one ConfigError.
    """
    check_type("cfg", cfg, GateConfig)
    attn = as_matrix(attn, "attn")
    divergence = as_vector(divergence, "divergence")
    if attn.shape[1] != divergence.shape[0]:
        raise ConfigError(
            f"spatial_mask dimension mismatch: attention is {attn.shape}, "
            f"divergence has {divergence.shape[0]} entries"
        )
    if np.minimum.reduce(attn, axis=None) < 0:
        raise ConfigError("spatial_mask requires nonnegative attention")
    # Checked here because max-pooling drops a -inf product.
    if not np.isfinite(divergence).all():
        raise StateError("spatial_mask: non-finite divergence in the spatial gate")
    if np.minimum.reduce(divergence) < 0:
        raise ConfigError("spatial_mask requires nonnegative divergence")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _spatial(attn, divergence, cfg, "spatial_mask", attn)
    return UpdateMask(values, Strategy.SPATIAL_ONLY)


def _spatial(attn: np.ndarray, divergence: np.ndarray, cfg: GateConfig, op: str, attention) -> np.ndarray:
    """The spatial gate's values from a finite divergence; attn came from `attention`.

    A non-finite `attention` entry is named in a StateError; where a product of
    finite entries overflows, the sigmoid saturates as for any large argument.
    """
    raw = rowwise_max(col_broadcast_mul(attn, divergence))
    _check_finite(raw, None, (("attention", attention),), f"{op}: non-finite {{}} in the spatial gate")
    np.multiply(F32(-cfg.spat_gain), raw, out=raw)
    raw -= F32(cfg.spat_bias)
    return sigmoid_neg_inplace(raw)


def fuse_masks(temporal: UpdateMask, spatial: UpdateMask) -> UpdateMask:
    """Elementwise product of a temporal and a spatial mask."""
    check_type("temporal", temporal, UpdateMask)
    check_type("spatial", spatial, UpdateMask)
    if temporal.kind is not Strategy.TEMPORAL_ONLY:
        raise ConfigError(f"expected a temporal mask, got kind={temporal.kind.value}")
    if spatial.kind is not Strategy.SPATIAL_ONLY:
        raise ConfigError(f"expected a spatial mask, got kind={spatial.kind.value}")
    if len(temporal) != len(spatial):
        raise ConfigError(
            f"fuse_masks length mismatch: {len(temporal)} vs {len(spatial)}"
        )
    return UpdateMask(temporal.values * spatial.values, Strategy.FUSED)


def apply_update(candidate, prev_state, mask: UpdateMask) -> np.ndarray:
    """Commit the candidate per token: mask*candidate + (1-mask)*previous.

    Each output coordinate is clamped to the closed interval spanned by the
    two inputs, so the convex-combination postcondition holds exactly in
    float32. A non-finite blended state raises StateError, whatever mask
    produced it.
    """
    check_type("mask", mask, UpdateMask)
    candidate = as_matrix(candidate, "candidate")
    prev_state = _matching("apply_update", candidate, prev_state, "prev_state")
    m = mask.values
    if m.shape[0] != candidate.shape[0]:
        raise ConfigError(
            f"apply_update mask length {m.shape[0]} != token count "
            f"{candidate.shape[0]}"
        )
    if not (np.minimum.reduce(m) >= 0 and np.maximum.reduce(m) <= 1):  # a NaN entry fails this too
        raise ConfigError("apply_update mask values must lie in [0, 1]")
    with np.errstate(over="ignore", invalid="ignore"):
        return _commit(candidate, prev_state, m)


def _commit(candidate: np.ndarray, prev_state: np.ndarray, m: np.ndarray) -> np.ndarray:
    w = m[:, np.newaxis]
    raw = w * candidate + (_ONE - w) * prev_state
    lo = np.minimum(candidate, prev_state)
    hi = np.maximum(candidate, prev_state)
    state = np.minimum(np.maximum(raw, lo), hi)
    _check_finite(state, "apply_update: non-finite blended state")
    return state


def uniform_mask(n: int) -> UpdateMask:
    """All-ones mask of length n (full-replacement recurrence)."""
    return UpdateMask(np.ones(check_int("n", n, 1), dtype=F32), Strategy.UNIFORM)


# Which gates each strategy runs, (temporal, spatial); its mask is their product, all ones for none.
_ROUTES = {
    Strategy.UNIFORM: (False, False),
    Strategy.TEMPORAL_ONLY: (True, False),
    Strategy.SPATIAL_ONLY: (False, True),
    Strategy.FUSED: (True, True),
}


def gate_step(
    candidate,
    prev_state,
    frame,
    trace: AttentionTrace,
    cfg: GateConfig,
    strategy: Strategy,
    *,
    prev_candidate=None,
    prev_frame=None,
) -> tuple[np.ndarray, UpdateMask]:
    """One full gated state update; returns (new_state, mask_used).

    On the first frame of a stream both buffers are absent and the UNIFORM
    route is taken regardless of strategy, so the initial observation is
    written in full. Supplying exactly one of the two buffers means the
    caller's session bookkeeping is broken and raises StateError, as do a
    non-finite input the strategy reads and a float32 overflow of the candidates'
    difference or of the frames' cosine. Every argument is validated once, here, before the
    route is chosen; the result equals composing temporal_mask, feature_divergence,
    aggregate_attention, spatial_mask, fuse_masks and apply_update.
    """
    candidate = as_matrix(candidate, "candidate")
    prev_state = _matching("apply_update", candidate, prev_state, "prev_state", "candidate")
    if (prev_candidate is None) != (prev_frame is None):
        raise StateError(
            "prev_candidate and prev_frame must both be absent (first frame) "
            "or both be present"
        )
    frame = as_matrix(frame, "frame")
    if prev_candidate is not None:
        prev_candidate = _matching("temporal_mask", candidate, prev_candidate, "prev_candidate", "candidate")
        prev_frame = _matching("feature_divergence", frame, prev_frame, "prev_frame", "frame")
    n, k = candidate.shape[0], frame.shape[0]
    check_type("trace", trace, AttentionTrace)
    check_type("cfg", cfg, GateConfig)
    check_type("strategy", strategy, Strategy)
    if trace.layers.shape[1:] != (n, k):
        raise ConfigError(f"gate_step: attention trace is {trace.layers.shape[1]} x {trace.layers.shape[2]}, "
                          f"expected {n} state tokens (candidate) x {k} frame tokens (frame)")
    route = Strategy.UNIFORM if prev_candidate is None else strategy
    temporal, spatial = _ROUTES[route]
    with np.errstate(over="ignore", invalid="ignore"):
        values = (_temporal(candidate, prev_candidate, cfg, "gate_step", ("candidate", "prev_candidate"))
                  if temporal else np.ones(n, dtype=F32))
        if spatial:
            divergence = _divergence(frame, prev_frame, "gate_step", ("frame", "prev_frame"))
            values = values * _spatial(_aggregate(trace.layers), divergence, cfg, "gate_step", trace.layers)
        mask = UpdateMask(values, route)
        return _commit(candidate, prev_state, mask.values), mask
