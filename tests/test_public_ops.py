"""Each public per-frame operation validates and coerces its own inputs.

The linalg kernels below them take float32 arrays as given, so a public
operation must give bit-identical results whether it is handed float64
nested lists or float32 arrays.
"""

import numpy as np
import pytest

from streamgate.decoder import decode_step, encode_frame, make_weights, readout
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
