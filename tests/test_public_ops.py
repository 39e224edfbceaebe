"""Each public per-frame operation validates and coerces its own inputs.

The linalg kernels below them take float32 arrays as given, so a public
operation must give bit-identical results whether it is handed float64
nested lists or float32 arrays, and must name the argument numpy cannot
read as an array.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgate.decoder import decode_step, encode_frame, make_weights, readout
from streamgate.errors import ConfigError
from streamgate.linalg import as_matrix, as_vector
from streamgate.world import Scene
from streamgate.gating import (
    AttentionTrace,
    GateConfig,
    Strategy,
    UpdateMask,
    apply_update,
    feature_divergence,
    gate_step,
    spatial_mask,
    temporal_mask,
)

N, K, C, OBS = 4, 3, 8, 6
WEIGHTS = make_weights(n_layers=2, channels=C, obs_channels=OBS, seed=3)
CFG = GateConfig()

_rng = np.random.default_rng(21)
DATA = {
    "observation": _rng.standard_normal((K, OBS)),
    "frame": _rng.standard_normal((K, C)),
    "prev_frame": _rng.standard_normal((K, C)),
    "state": _rng.standard_normal((N, C)),
    "candidate": _rng.standard_normal((N, C)),
    "prev_candidate": _rng.standard_normal((N, C)),
    "prev_state": _rng.standard_normal((N, C)),
    "attn": np.abs(_rng.standard_normal((N, K))),
    "attn2": np.abs(_rng.standard_normal((N, K))),
    "divergence": 2 * _rng.random(K),
    "mask": _rng.random(N),
}


def _decoded(d):
    out = decode_step(d["frame"], d["state"], WEIGHTS)
    return [out.candidate, *out.trace.layers]


def _gated(d, strategy):
    state, mask = gate_step(
        d["candidate"],
        d["prev_state"],
        d["frame"],
        AttentionTrace((d["attn"], d["attn2"])),
        CFG,
        strategy,
        prev_candidate=d["prev_candidate"],
        prev_frame=d["prev_frame"],
    )
    return [state, mask.values]


OPS = {
    "encode_frame": lambda d: [encode_frame(d["observation"], WEIGHTS)],
    "decode_step": _decoded,
    "readout": lambda d: [readout(d["candidate"], WEIGHTS)],
    "temporal_mask": lambda d: [temporal_mask(d["candidate"], d["prev_candidate"], CFG).values],
    "feature_divergence": lambda d: [feature_divergence(d["frame"], d["prev_frame"])],
    "spatial_mask": lambda d: [spatial_mask(d["attn"], d["divergence"], CFG).values],
    "apply_update": lambda d: [
        apply_update(d["candidate"], d["prev_state"], UpdateMask(d["mask"], Strategy.FUSED))
    ],
    **{f"gate_step-{s.value}": (lambda d, s=s: _gated(d, s)) for s in Strategy},
}


@pytest.mark.parametrize("op", list(OPS))
def test_public_op_bit_identical_on_float64_lists_and_float32_arrays(op):
    from_lists = OPS[op]({k: v.tolist() for k, v in DATA.items()})
    from_arrays = OPS[op]({k: v.astype(np.float32) for k, v in DATA.items()})
    assert all(out.dtype == np.float32 for out in from_lists + from_arrays)
    assert [out.tobytes() for out in from_lists] == [out.tobytes() for out in from_arrays]


# --- ragged and non-numeric input -----------------------------------------

D32 = {k: v.astype(np.float32) for k, v in DATA.items()}


def _gate(**changed):
    d = {**D32, "trace": (D32["attn"], D32["attn2"]), **changed}
    return gate_step(d["candidate"], d["prev_state"], d["frame"], AttentionTrace(d["trace"]), CFG,
                     Strategy.FUSED, prev_candidate=d["prev_candidate"], prev_frame=d["prev_frame"])


# Every public array argument: the name its ConfigError gives, and a call
# that passes the value as that argument and valid values as the others.
ARGUMENTS = {
    "as_matrix": ("matrix", as_matrix),
    "as_vector": ("vector", as_vector),
    "temporal_mask.curr": ("curr", lambda x: temporal_mask(x, D32["prev_candidate"], CFG)),
    "temporal_mask.prev": ("prev", lambda x: temporal_mask(D32["candidate"], x, CFG)),
    "feature_divergence.curr": ("curr", lambda x: feature_divergence(x, D32["prev_frame"])),
    "feature_divergence.prev": ("prev", lambda x: feature_divergence(D32["frame"], x)),
    "spatial_mask.attn": ("attn", lambda x: spatial_mask(x, D32["divergence"], CFG)),
    "spatial_mask.divergence": ("divergence", lambda x: spatial_mask(D32["attn"], x, CFG)),
    "apply_update.candidate": ("candidate", lambda x: apply_update(
        x, D32["prev_state"], UpdateMask(D32["mask"], Strategy.FUSED))),
    "apply_update.prev_state": ("prev_state", lambda x: apply_update(
        D32["candidate"], x, UpdateMask(D32["mask"], Strategy.FUSED))),
    "UpdateMask.values": ("mask", lambda x: UpdateMask(x, Strategy.FUSED)),
    "AttentionTrace.layers": ("attention trace", AttentionTrace),
    **{f"gate_step.{name}": (name, lambda x, name=name: _gate(**{name: x}))
       for name in ("candidate", "prev_state", "frame", "prev_candidate", "prev_frame")},
    "encode_frame.observation": ("observation", lambda x: encode_frame(x, WEIGHTS)),
    "decode_step.frame": ("frame", lambda x: decode_step(x, D32["state"], WEIGHTS)),
    "decode_step.state": ("state", lambda x: decode_step(D32["frame"], x, WEIGHTS)),
    "readout.candidate": ("candidate", lambda x: readout(x, WEIGHTS)),
    **{f"DecoderWeights.{name}": (name, lambda x, name=name: dataclasses.replace(WEIGHTS, **{name: (x,)}))
       for name in ("query", "key", "value")},
    **{f"DecoderWeights.{name}": (name, lambda x, name=name: dataclasses.replace(WEIGHTS, **{name: x}))
       for name in ("readout", "encoder")},
    "Scene.region_codes": ("region_codes", lambda x: Scene(x, frozenset(), 0.0, 0)),
}

_REAL = st.floats(-2.0, 2.0, width=32)


def _ragged():
    """Nested lists whose rows, or whose matrices, disagree on length."""
    def ragged(rows):
        return len({len(r) for r in rows}) > 1

    rows = st.lists(st.lists(_REAL, min_size=1, max_size=4), min_size=2, max_size=4).filter(ragged)
    matrices = st.lists(st.lists(st.lists(_REAL, min_size=1, max_size=3), min_size=1, max_size=3),
                        min_size=2, max_size=3).filter(lambda ms: ragged(ms) or ragged(sum(ms, [])))
    mixed = st.tuples(_REAL, st.lists(_REAL, min_size=1, max_size=3)).map(list)
    return st.one_of(rows, matrices, mixed)


@st.composite
def _non_numeric(draw):
    """A rectangular nested list of rank 1 to 3 with one leaf numpy cannot read as a real."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    values = draw(st.lists(_REAL, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    leaves = [float(v) for v in values]
    leaves[draw(st.integers(0, len(leaves) - 1))] = draw(
        st.sampled_from(["abc", "", "1,5", 1j, object(), {}, {"a": 1.0}]))
    nested = leaves
    for n in reversed(shape[1:]):
        nested = [nested[i:i + n] for i in range(0, len(nested), n)]
    return nested


@settings(max_examples=200, deadline=None)
@given(argument=st.sampled_from(sorted(ARGUMENTS)), value=st.one_of(_ragged(), _non_numeric()))
def test_ragged_or_non_numeric_input_raises_config_error_naming_the_argument(argument, value):
    name, call = ARGUMENTS[argument]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be a rectangular numeric array"):
        call(value)
