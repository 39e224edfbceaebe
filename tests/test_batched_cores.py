"""A stack of B sessions through a private per-frame core gives the bits of B single-session calls.

The decoder's and the gates' cores, and the row kernels beneath them,
reduce along their last axes and treat any leading axis as a batch; an
attention trace keeps its layer axis first, (L, B, N, K). Every
session of a stack below has a kind, so that each per-session select is
taken both ways within one stack: a token mean of zero norm (the state is
left as it is), candidates that do not move, that move less than eps_mean
on average, or whose mean move is exactly float32(eps_mean) (the temporal
gate falls back to all ones), and plain random sessions. The cores are
called outside any np.errstate, so a select that divided 0 by 0 would fail
under the suite's warnings-as-errors.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamgate import decoder, gating, linalg
from streamgate.decoder import make_weights

F32 = np.float32
N, K, C, L = 8, 3, 8, 2
EPS_MEAN = 1e-8
KINDS = ("zero_mean", "still", "tiny", "at_eps", "plain")
WEIGHTS = make_weights(L, C, seed=5)


def _session(rng, kind):
    """One session's inputs to every core; `kind` picks its special case."""
    state = rng.standard_normal((N, C)).astype(F32)
    if kind == "zero_mean":
        state[1::2] = -state[::2]
    prev = rng.standard_normal((N, C)).astype(F32)
    if kind == "still":
        curr = prev.copy()
    elif kind == "tiny":
        prev *= F32(1e-10)
        curr = prev + F32(1e-12) * rng.standard_normal((N, C)).astype(F32)
    elif kind == "at_eps":
        # Two moves of N/2 * eps and N - 2 of none: exact in float32, mean exactly float32(eps).
        prev = np.zeros((N, C), dtype=F32)
        curr = prev.copy()
        curr[:2, 0] = F32(N // 2) * F32(EPS_MEAN)
    else:
        curr = prev + rng.standard_normal((N, C)).astype(F32)
    return {
        "frame": rng.standard_normal((K, C)).astype(F32),
        "prev_frame": rng.standard_normal((K, C)).astype(F32),
        "state": state,
        "curr": curr,
        "prev": prev,
        "layers": rng.standard_normal((L, N, K)).astype(F32),
        "attn": rng.uniform(0, 1, (N, K)).astype(F32),
        "divergence": rng.uniform(0, 2, K).astype(F32),
        "mask": rng.uniform(0, 1, N).astype(F32),
        "tau": F32(rng.uniform(0.25, 2)),
        "spat_gain": F32(rng.uniform(0.5, 3)),
        "spat_bias": F32(rng.uniform(-2, 2)),
    }


def _same(batched, per_b, axis=0):
    want = np.stack(per_b, axis)
    assert batched.dtype == want.dtype and batched.shape == want.shape
    assert batched.tobytes() == want.tobytes()


@pytest.mark.parametrize("b", [1, 3, 80])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
@example(seed=1)
@example(seed=2)
@example(seed=3)
@example(seed=4)
def test_batched_cores_equal_per_session_calls_bit_for_bit(b, seed):
    rng = np.random.default_rng(seed)
    kinds = [KINDS[(seed + i) % len(KINDS)] for i in range(b)]
    sessions = [_session(rng, kind) for kind in kinds]
    for kind, s in zip(kinds, sessions):  # each special session takes its select's other side
        if kind == "zero_mean":
            assert decoder._mix_tokens(s["state"]).tobytes() == s["state"].tobytes()
        mean = np.add.reduce(linalg.rowwise_l2(s["curr"] - s["prev"])) / F32(N)
        if kind == "tiny":
            assert 0 < mean < EPS_MEAN
        if kind == "at_eps":
            assert mean == F32(EPS_MEAN) and float(mean) < EPS_MEAN
        if kind in ("still", "tiny", "at_eps"):
            values = gating._temporal(s["curr"], s["prev"], s["tau"], EPS_MEAN, "op", ("curr", "prev"))
            assert (values == values[0]).all()
    stack = {name: np.stack([s[name] for s in sessions]) for name in sessions[0]}
    column = {name: stack[name][:, np.newaxis] for name in ("tau", "spat_gain", "spat_bias")}

    # linalg's row kernels
    for kernel, args in [
        (linalg.row_softmax, ("layers",)),
        (linalg.rowwise_l2, ("state",)),
        (linalg.rowwise_cosine, ("frame", "prev_frame")),
        (linalg.cosine_denominator, ("frame", "prev_frame")),
        (linalg.col_broadcast_mul, ("attn", "divergence")),
        (linalg.rowwise_max, ("attn",)),
    ]:
        _same(kernel(*(stack[a] for a in args)), [kernel(*(s[a] for a in args)) for s in sessions])

    # the decoder
    _same(decoder._mix_tokens(stack["state"]), [decoder._mix_tokens(s["state"]) for s in sessions])
    for pre_softmax in (False, True):
        tokens, traced = decoder._decode(stack["frame"], stack["state"], WEIGHTS, pre_softmax)
        per_b = [decoder._decode(s["frame"], s["state"], WEIGHTS, pre_softmax) for s in sessions]
        _same(tokens, [p[0] for p in per_b])
        _same(traced, [p[1] for p in per_b], axis=1)  # the layer axis leads the trace

    # the gates, with per-session tau, spat_gain and spat_bias columns against scalar calls
    names = ("curr", "prev")
    _same(gating._temporal(stack["curr"], stack["prev"], column["tau"], EPS_MEAN, "op", names),
          [gating._temporal(s["curr"], s["prev"], s["tau"], EPS_MEAN, "op", names) for s in sessions])
    _same(gating._divergence(stack["frame"], stack["prev_frame"], "op", names),
          [gating._divergence(s["frame"], s["prev_frame"], "op", names) for s in sessions])
    layers = np.stack([s["layers"] for s in sessions], axis=1)
    _same(gating._aggregate(layers), [gating._aggregate(s["layers"]) for s in sessions])
    _same(gating._spatial(stack["attn"], stack["divergence"], column["spat_gain"], column["spat_bias"],
                          "op"),
          [gating._spatial(s["attn"], s["divergence"], s["spat_gain"], s["spat_bias"], "op")
           for s in sessions])
    _same(gating._commit(stack["curr"], stack["prev"], stack["mask"]),
          [gating._commit(s["curr"], s["prev"], s["mask"]) for s in sessions])
