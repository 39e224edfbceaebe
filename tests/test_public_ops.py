"""Each public operation validates and coerces its own inputs.

The linalg kernels below them take float32 arrays as given, so a public
operation must give bit-identical results whether it is handed float64
nested lists or float32 arrays, and must name the argument numpy cannot
read as an array, any other argument of the wrong type, and a collection
argument that is not a collection.
"""

import dataclasses
import inspect
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamgate import decoder, evaluation, gating, linalg, world
from streamgate.decoder import DecoderWeights, decode_step, encode_frame, make_weights, readout
from streamgate.errors import ConfigError, StateError, StreamGateError
from streamgate.evaluation import (
    WorldSpec,
    degradation_curve,
    initial_state,
    run_ablation,
    run_session,
    seeded_stream,
    tau_sweep,
)
from streamgate.linalg import F32_MAX, as_matrix, as_vector, sigmoid
from streamgate.world import (
    CoverageSchedule,
    ScheduleKind,
    Scene,
    StreamCursor,
    dump_stream,
    generate_scene,
    load_stream,
)
from streamgate.gating import (
    AttentionTrace,
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


# --- non-finite input and float32 overflow outside a session -------------

# Weights 16 times the generated ones, so that finite 1e38 inputs overflow.
LOUD = dataclasses.replace(WEIGHTS, encoder=16 * WEIGHTS.encoder, readout=16 * WEIGHTS.readout)


@pytest.mark.parametrize("op, argument, value, message", [
    ("encode_frame", "observation", np.nan, "non-finite observation"),
    ("encode_frame", "observation", -np.inf, "non-finite observation"),
    ("encode_frame", "weights.encoder", np.inf, "non-finite weights.encoder"),
    ("encode_frame", "observation", 1e38,
     "non-finite frame: the finite observation and encoder overflow float32"),
    ("readout", "candidate", np.nan, "non-finite candidate"),
    ("readout", "candidate", np.inf, "non-finite candidate"),
    ("readout", "weights.readout", -np.inf, "non-finite weights.readout"),
    ("readout", "candidate", 1e38, "non-finite estimate: the finite candidate and readout overflow float32"),
])
def test_encode_frame_and_readout_name_a_non_finite_result_without_a_warning(op, argument, value, message):
    fn, name = {"encode_frame": (encode_frame, "observation"), "readout": (readout, "candidate")}[op]
    x = DATA[name].astype(np.float32)
    if argument == name:
        x[1] = value
        weights = LOUD if np.isfinite(value) else WEIGHTS
    else:
        field = argument.split(".")[1]
        matrix = getattr(WEIGHTS, field).copy()
        matrix[0, 0] = value
        weights = dataclasses.replace(WEIGHTS, **{field: matrix})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match=f"^{op}: {re.escape(message)}$"):
            fn(x, weights)


# --- every public operation under warnings-as-errors -----------------------

def _with(name, value, row=0):
    """DATA[name] as float32, with one row set to `value`."""
    x = DATA[name].astype(np.float32)
    x[row] = value
    return x


def _trace_file(tmp_path, value):
    """A one-step dump_stream file whose first observation entry is `value`."""
    path = tmp_path / "trace.txt"
    rest = ",".join(["0.5"] * (OBS - 1))
    path.write_text(f"1;1;0;{value},{rest};{rest},0.5\n")
    return path


def _scene(value):
    return Scene(np.full((N, OBS), value, dtype=np.float32), frozenset(range(N)), F32_MAX, 0)


def _boundary_gate(trace_value):
    """A fused gate_step whose trace column 0 is `trace_value` and whose frame row 0 repeats prev_frame's."""
    layers = np.stack((DATA["attn"], DATA["attn2"])).astype(np.float32)
    layers[:, :, 0] = trace_value
    frame = _with("frame", DATA["prev_frame"][0])
    return gate_step(DATA["candidate"], DATA["prev_state"], frame, AttentionTrace(layers), CFG, Strategy.FUSED,
                     prev_candidate=DATA["prev_candidate"], prev_frame=DATA["prev_frame"])


def _session(scene, weights):
    return run_session(StreamCursor(scene, CoverageSchedule(ScheduleKind.FULL), 0.0, 0), weights, CFG,
                       Strategy.FUSED, 2)


_NAN_ENCODER = WEIGHTS.encoder.copy()
_NAN_ENCODER[0, 0] = np.nan
NAN_WEIGHTS = dataclasses.replace(WEIGHTS, encoder=_NAN_ENCODER)
_MASK = UpdateMask(DATA["mask"], Strategy.FUSED)
_FUSE = r"^fuse_masks mask values must lie in \[0, 1\]$"
_INITIAL = r"^initial_state: the scene's region codes and the encoder overflow float32$"

# Every public operation that computes on arrays, called with an input that
# overflows float32 and with one that holds a NaN: (call, the StreamGateError
# it raises and a pattern of its message), or (call, None, None) where the
# operation returns its inf or NaN. Each call takes a directory for files.
BOUNDARY = {
    "encode_frame": (
        (lambda tmp: encode_frame(_with("observation", 1e38), LOUD), StateError,
         r"^encode_frame: non-finite frame: the finite observation and encoder overflow float32$"),
        (lambda tmp: encode_frame(_with("observation", np.nan), WEIGHTS), StateError,
         r"^encode_frame: non-finite observation$"),
    ),
    "decode_step": (
        (lambda tmp: decode_step(DATA["frame"], _with("state", 1e38), WEIGHTS), StateError,
         r"^decode_step: non-finite candidate: the finite frame and state overflow float32$"),
        (lambda tmp: decode_step(_with("frame", np.nan), DATA["state"], WEIGHTS), StateError,
         r"^decode_step: non-finite frame$"),
    ),
    "readout": (
        (lambda tmp: readout(_with("candidate", 1e38), LOUD), StateError,
         r"^readout: non-finite estimate: the finite candidate and readout overflow float32$"),
        (lambda tmp: readout(_with("candidate", np.nan), WEIGHTS), StateError, r"^readout: non-finite candidate$"),
    ),
    "temporal_mask": (
        (lambda tmp: temporal_mask(_with("candidate", 3e38), _with("prev_candidate", -3e38), CFG), StateError,
         r"^temporal_mask: the difference of curr and prev overflows float32 in the temporal gate$"),
        (lambda tmp: temporal_mask(_with("candidate", np.nan), DATA["prev_candidate"], CFG), StateError,
         r"^temporal_mask: non-finite curr in the temporal gate$"),
    ),
    "feature_divergence": (
        (lambda tmp: feature_divergence(_with("frame", 3e38), DATA["prev_frame"]), StateError,
         r"^feature_divergence: the cosine of curr and prev overflows float32 in the spatial gate$"),
        (lambda tmp: feature_divergence(DATA["frame"], _with("prev_frame", np.nan)), StateError,
         r"^feature_divergence: non-finite prev in the spatial gate$"),
    ),
    "aggregate_attention": (
        (lambda tmp: aggregate_attention(AttentionTrace(np.full((3, N, K), 3e38))), None, None),
        (lambda tmp: aggregate_attention(AttentionTrace((_with("attn", np.nan), DATA["attn2"]))), None, None),
    ),
    "spatial_mask": (
        (lambda tmp: spatial_mask(np.full((N, K), 3e38), DATA["divergence"], CFG), None, None),
        (lambda tmp: spatial_mask(_with("attn", np.nan), DATA["divergence"], CFG), StateError,
         r"^spatial_mask: non-finite attention in the spatial gate$"),
    ),
    "fuse_masks": (
        (lambda tmp: fuse_masks(UpdateMask(np.full(N, 3e38), Strategy.TEMPORAL_ONLY),
                                UpdateMask(np.full(N, 3e38), Strategy.SPATIAL_ONLY)), ConfigError, _FUSE),
        (lambda tmp: fuse_masks(UpdateMask(_with("mask", np.nan), Strategy.TEMPORAL_ONLY),
                                UpdateMask(DATA["mask"], Strategy.SPATIAL_ONLY)), ConfigError, _FUSE),
    ),
    "apply_update": (
        (lambda tmp: apply_update(np.full((N, C), F32_MAX), np.full((N, C), F32_MAX), _MASK), None, None),
        (lambda tmp: apply_update(_with("candidate", np.nan), DATA["prev_state"], _MASK), StateError,
         r"^apply_update: non-finite blended state$"),
    ),
    "gate_step": (
        (lambda tmp: _boundary_gate(3e38), StateError, r"^gate_step: non-finite attention in the spatial gate$"),
        (lambda tmp: _boundary_gate(np.nan), StateError, r"^gate_step: non-finite attention in the spatial gate$"),
    ),
    "StreamCursor.step": (
        (lambda tmp: StreamCursor(_scene(3e38), CoverageSchedule(ScheduleKind.FULL), 0.0, 0).step(), StateError,
         r"^StreamCursor\.step: frame 1: the drifting region codes overflow float32$"),
        (lambda tmp: StreamCursor(_scene(np.nan), CoverageSchedule(), 0.0, 0).step(), ConfigError,
         r"^region_codes must be finite$"),
    ),
    "load_stream": (
        (lambda tmp: load_stream(_trace_file(tmp, "1e39"), OBS), ConfigError,
         r": line 1: malformed step \(non-finite value\)$"),
        (lambda tmp: load_stream(_trace_file(tmp, "nan"), OBS), ConfigError,
         r": line 1: malformed step \(non-finite value\)$"),
    ),
    "initial_state": (
        (lambda tmp: initial_state(_scene(1e38), LOUD), StateError, _INITIAL),
        (lambda tmp: initial_state(_scene(1.0), NAN_WEIGHTS), StateError, r"^initial_state: non-finite weights\.encoder$"),
    ),
    "run_session": (
        (lambda tmp: _session(_scene(1e38), LOUD), StateError, _INITIAL),
        (lambda tmp: _session(_scene(1.0), NAN_WEIGHTS), StateError, r"^initial_state: non-finite weights\.encoder$"),
    ),
    "sigmoid": (
        (lambda tmp: sigmoid(np.full(N, -1e38, dtype=np.float32)), None, None),
        (lambda tmp: sigmoid(_with("mask", np.nan)), None, None),
    ),
}


@pytest.mark.parametrize("op, case", [(op, case) for op in BOUNDARY for case in ("overflow", "nan")])
def test_every_public_operation_names_a_float_fault_or_returns_without_a_warning(op, case, tmp_path):
    call, error, pattern = BOUNDARY[op][case == "nan"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            call(tmp_path)
        else:
            with pytest.raises(StreamGateError, match=pattern) as raised:
                call(tmp_path)
            assert type(raised.value) is error


def _quiet_operations():
    """The name of every function, or method of a class, that these modules define under linalg._quiet."""
    for module in (decoder, gating, world, evaluation, linalg):
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if inspect.isclass(value) else [("", value)]
            for attr, f in members:
                # numpy's errstate decorator leaves __wrapped__ on its wrapper, and the errstate in its closure.
                closure = getattr(f, "__closure__", None) or ()
                if hasattr(f, "__wrapped__") and any(c.cell_contents is linalg._quiet for c in closure):
                    yield f"{name}.{attr}" if attr else name


def test_the_float_fault_table_holds_every_operation_under_the_shared_errstate():
    assert set(_quiet_operations()) == set(BOUNDARY)


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


# --- empty input --------------------------------------------------------------

# The rank of each array argument that is not a matrix.
_RANKS = {"as_vector": 1, "spatial_mask.divergence": 1, "UpdateMask.values": 1, "AttentionTrace.layers": 3}


def _zero_channel_decode(x):
    """decode_step with a decoder whose every projection is `x`; a 0 x 0 `x` has no channels."""
    weights = DecoderWeights((x,), (x,), (x,), x, np.zeros((OBS, 0), dtype=np.float32))
    return decode_step(np.zeros((K, 0), dtype=np.float32), np.zeros((N, 0), dtype=np.float32), weights)


def _empty_cases():
    """Each array argument with each of its axes, in turn, of length zero."""
    for argument in sorted(ARGUMENTS):
        shape = (2, 3, 4)[:_RANKS.get(argument, 2)]
        for axis in range(len(shape)):
            empty = shape[:axis] + (0,) + shape[axis + 1:]
            yield pytest.param(*ARGUMENTS[argument], empty, id=f"{argument}-{empty}")
    yield pytest.param("query", _zero_channel_decode, (0, 0), id="decode_step.zero-channel-weights")


@pytest.mark.parametrize("name, call, shape", list(_empty_cases()))
def test_an_empty_array_argument_raises_config_error_naming_it(name, call, shape):
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must not be empty, got shape {re.escape(str(shape))}$"):
        call(np.zeros(shape, dtype=np.float32))


# --- non-array arguments of the wrong type ---------------------------------

WORLD = WorldSpec(regions=N, obs_channels=OBS, schedule=CoverageSchedule(window=2))
SCENE = generate_scene(N, OBS, seed=1)
TRACE = AttentionTrace((D32["attn"], D32["attn2"]))
TEMPORAL = temporal_mask(D32["candidate"], D32["prev_candidate"], CFG)
SPATIAL = spatial_mask(D32["attn"], D32["divergence"], CFG)


def _typed_gate(first, trace=TRACE, cfg=CFG, strategy=Strategy.FUSED):
    prev = {} if first else {"prev_candidate": D32["prev_candidate"], "prev_frame": D32["prev_frame"]}
    return gate_step(D32["candidate"], D32["prev_state"], D32["frame"], trace, cfg, strategy, **prev)


_GATE_ROUTES = {"first": (True, Strategy.FUSED), **{s.value: (False, s) for s in Strategy}}

# Every public non-array argument: the name its ConfigError gives, and a
# call that passes the value as that argument and valid values as the
# others. gate_step checks each on every route, the first frame included.
TYPED = {
    "GateConfig.attn_source": ("attn_source", lambda x: GateConfig(attn_source=x)),
    **{f"GateConfig.{name}": (name, lambda x, name=name: GateConfig(**{name: x}))
       for name in ("tau", "eps_mean", "spat_gain", "spat_bias")},
    "UpdateMask.kind": ("kind", lambda x: UpdateMask(D32["mask"], x)),
    "temporal_mask.cfg": ("cfg", lambda x: temporal_mask(D32["candidate"], D32["prev_candidate"], x)),
    "spatial_mask.cfg": ("cfg", lambda x: spatial_mask(D32["attn"], D32["divergence"], x)),
    "aggregate_attention.trace": ("trace", aggregate_attention),
    "fuse_masks.temporal": ("temporal", lambda x: fuse_masks(x, SPATIAL)),
    "fuse_masks.spatial": ("spatial", lambda x: fuse_masks(TEMPORAL, x)),
    "apply_update.mask": ("mask", lambda x: apply_update(D32["candidate"], D32["prev_state"], x)),
    **{f"gate_step.{name}-{route}": (name, lambda x, name=name, route=route: _typed_gate(
        _GATE_ROUTES[route][0], **{"strategy": _GATE_ROUTES[route][1], name: x}))
       for name in ("trace", "cfg") for route in _GATE_ROUTES},
    "gate_step.strategy-first": ("strategy", lambda x: _typed_gate(True, strategy=x)),
    "gate_step.strategy": ("strategy", lambda x: _typed_gate(False, strategy=x)),
    "encode_frame.weights": ("weights", lambda x: encode_frame(D32["observation"], x)),
    "decode_step.weights": ("weights", lambda x: decode_step(D32["frame"], D32["state"], x)),
    "decode_step.attn_source": ("attn_source", lambda x: decode_step(D32["frame"], D32["state"], WEIGHTS, x)),
    "readout.weights": ("weights", lambda x: readout(D32["candidate"], x)),
    "CoverageSchedule.kind": ("kind", lambda x: CoverageSchedule(kind=x)),
    "Scene.drift_rate": ("drift_rate", lambda x: Scene(SCENE.region_codes, frozenset(), x, 0)),
    "generate_scene.dynamic_fraction": ("dynamic_fraction", lambda x: generate_scene(N, OBS, x)),
    "generate_scene.drift_rate": ("drift_rate", lambda x: generate_scene(N, OBS, 0.5, x)),
    "StreamCursor.scene": ("scene", lambda x: StreamCursor(x, WORLD.schedule, 0.05, 0)),
    "StreamCursor.schedule": ("schedule", lambda x: StreamCursor(SCENE, x, 0.05, 0)),
    "StreamCursor.noise_sigma": ("noise_sigma", lambda x: StreamCursor(SCENE, WORLD.schedule, x, 0)),
    "initial_state.scene": ("scene", lambda x: initial_state(x, WEIGHTS)),
    "initial_state.weights": ("weights", lambda x: initial_state(SCENE, x)),
    "seeded_stream.world": ("world", lambda x: seeded_stream(x, 0)),
    "run_session.stream": ("stream", lambda x: run_session(x, WEIGHTS, CFG, Strategy.FUSED, 2)),
    "run_session.weights": ("weights", lambda x: run_session(
        seeded_stream(WORLD, 0), x, CFG, Strategy.FUSED, 2)),
    "run_session.cfg": ("cfg", lambda x: run_session(seeded_stream(WORLD, 0), WEIGHTS, x, Strategy.FUSED, 2)),
    "run_session.strategy": ("strategy", lambda x: run_session(seeded_stream(WORLD, 0), WEIGHTS, CFG, x, 2)),
    "run_ablation.world": ("world", lambda x: run_ablation(x, WEIGHTS, CFG, list(Strategy), 2, [0])),
    "run_ablation.weights": ("weights", lambda x: run_ablation(WORLD, x, CFG, list(Strategy), 2, [0])),
    "run_ablation.cfg": ("cfg", lambda x: run_ablation(WORLD, WEIGHTS, x, list(Strategy), 2, [0])),
    "run_ablation.strategies": ("strategy", lambda x: run_ablation(
        WORLD, WEIGHTS, CFG, [Strategy.UNIFORM, x], 2, [0])),
    "degradation_curve.cfg": ("cfg", lambda x: degradation_curve(
        WORLD, WEIGHTS, x, [Strategy.FUSED], [1, 2], [0])),
    "tau_sweep.cfg": ("cfg", lambda x: tau_sweep(WORLD, WEIGHTS, x, [1.0], 2, [0])),
}

# Values of no argument's type: strings that name a member of an enum are
# not coerced to it, and a bool is not read as a number.
WRONG = [None, "preabs", "fused", "full", "bogus", [[1.0]], D32["candidate"], {}, object(), True]


@settings(max_examples=300, deadline=None)
@given(argument=st.sampled_from(sorted(TYPED)), value=st.sampled_from(WRONG))
@example(argument="GateConfig.attn_source", value="preabs")  # silently read post-softmax attention
@example(argument="decode_step.attn_source", value="preabs")
@example(argument="gate_step.strategy-first", value="bogus")  # silently returned a uniform mask
@example(argument="CoverageSchedule.kind", value="full")  # silently ran a sliding window
def test_an_argument_of_the_wrong_type_raises_config_error_naming_it(argument, value):
    name, call = TYPED[argument]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an? [A-Z]"):
        call(value)


# --- real-valued arguments ---------------------------------------------------

REAL = ["GateConfig.tau", "GateConfig.eps_mean", "GateConfig.spat_gain", "GateConfig.spat_bias",
        "Scene.drift_rate", "generate_scene.dynamic_fraction", "generate_scene.drift_rate",
        "StreamCursor.noise_sigma"]


# float(10**400) raises OverflowError: the check counts such an int as
# infinite. The property above samples its pairs; this covers each one.
@pytest.mark.parametrize("value, refusal", [
    (True, "a Real, got bool"), (10**400, "finite, got inf"), (-10**400, "finite, got -inf"),
], ids=["True", "+10**400", "-10**400"])
@pytest.mark.parametrize("argument", REAL)
def test_a_real_argument_refuses_a_bool_and_an_int_beyond_float_range_naming_it(argument, value, refusal):
    name, call = TYPED[argument]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be {refusal}$"):
        call(value)


# A checked field holds what its check returned: a float or an int, not
# the numpy scalar or the int it was given.
STORED = {
    **{f"GateConfig.{name}": (lambda name=name: getattr(GateConfig(**{name: 2}), name), float, 2.0)
       for name in ("tau", "eps_mean", "spat_gain", "spat_bias")},
    "Scene.drift_rate": (lambda: Scene(SCENE.region_codes, frozenset(), np.float32(0.5), 0).drift_rate,
                         float, 0.5),
    "generate_scene.drift_rate": (lambda: generate_scene(N, OBS, 0.5, 1).drift_rate, float, 1.0),
    "StreamCursor.noise_sigma": (lambda: StreamCursor(SCENE, WORLD.schedule, np.float32(0.5), 0).noise_sigma,
                                 float, 0.5),
    **{f"CoverageSchedule.{name}": (lambda name=name: getattr(CoverageSchedule(**{name: np.int64(3)}), name),
                                    int, 3) for name in ("window", "period")},
}


@pytest.mark.parametrize("field", sorted(STORED))
def test_a_checked_field_stores_the_value_its_check_returned(field):
    read, cls, value = STORED[field]
    stored = read()
    assert type(stored) is cls and stored == value


# --- collection arguments that are not collections -------------------------

STEP = StreamCursor(SCENE, WORLD.schedule, 0.05, 0).step()
LAYER = tuple(map(tuple, WEIGHTS.query[0].tolist()))

# Every public collection argument: the name its ConfigError gives, a call
# that passes the value as that argument and valid values as the others,
# and a set of valid items where the argument's order becomes the
# output's (None where a set is allowed).
COLLECTIONS = {
    **{f"DecoderWeights.{name}": (name, lambda x, name=name: dataclasses.replace(WEIGHTS, **{name: x}),
                                  {LAYER}) for name in ("query", "key", "value")},
    "run_session.scored": ("scored", lambda x: run_session(
        seeded_stream(WORLD, 0), WEIGHTS, CFG, Strategy.FUSED, 2, scored=x), None),
    "Scene.dynamic_regions": ("dynamic_regions", lambda x: Scene(SCENE.region_codes, x, 0.0, 0), None),
    "run_ablation.strategies": ("strategies", lambda x: run_ablation(WORLD, WEIGHTS, CFG, x, 2, [0]),
                                set(Strategy)),
    "run_ablation.seeds": ("seeds", lambda x: run_ablation(WORLD, WEIGHTS, CFG, list(Strategy), 2, x),
                           {0, 1}),
    "degradation_curve.strategies": ("strategies", lambda x: degradation_curve(
        WORLD, WEIGHTS, CFG, x, [1, 2], [0]), set(Strategy)),
    "degradation_curve.lengths": ("lengths", lambda x: degradation_curve(
        WORLD, WEIGHTS, CFG, [Strategy.FUSED], x, [0]), {1, 2}),
    "degradation_curve.seeds": ("seeds", lambda x: degradation_curve(
        WORLD, WEIGHTS, CFG, [Strategy.FUSED], [1, 2], x), {0, 1}),
    "tau_sweep.taus": ("taus", lambda x: tau_sweep(WORLD, WEIGHTS, CFG, x, 2, [0]), {0.5, 1.0}),
    "tau_sweep.seeds": ("seeds", lambda x: tau_sweep(WORLD, WEIGHTS, CFG, [1.0], 2, x), {0, 1}),
    "dump_stream.steps": ("steps", lambda x: dump_stream("trace.txt", x), {STEP}),
}

# Bare values, a 0-d array, and strings and bytes, whose characters would
# otherwise be read as items.
NOT_COLLECTIONS = [5, 2.5, Strategy.FUSED, STEP, np.array(3), "fused", "01", "", b"01"]


@pytest.mark.parametrize("value", NOT_COLLECTIONS, ids=lambda v: repr(v)[:16])
@pytest.mark.parametrize("argument", sorted(COLLECTIONS))
def test_a_collection_argument_that_is_not_one_raises_config_error_naming_it(
        argument, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name, call, _ = COLLECTIONS[argument]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an? .+, got {type(value).__name__}$"):
        call(value)
    assert os.listdir(tmp_path) == []  # refused before any file is opened


@pytest.mark.parametrize("argument", sorted(a for a, (_, _, items) in COLLECTIONS.items() if items))
def test_a_set_where_order_matters_raises_config_error_naming_the_argument(argument, tmp_path, monkeypatch):
    # A set of enum members iterates in an order set by the hash seed, so
    # the rows it ordered would differ from one process to the next.
    monkeypatch.chdir(tmp_path)
    name, call, items = COLLECTIONS[argument]
    for value in (items, frozenset(items)):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be .*, got {type(value).__name__}$"):
            call(value)
    assert os.listdir(tmp_path) == []


def test_a_set_is_read_where_order_does_not_matter():
    scene = Scene(SCENE.region_codes, {2, 0}, 0.5, 0)
    assert scene.dynamic_regions == frozenset({0, 2})
    as_set = run_session(seeded_stream(WORLD, 0), WEIGHTS, CFG, Strategy.FUSED, 4, scored={3, 1})
    as_list = run_session(seeded_stream(WORLD, 0), WEIGHTS, CFG, Strategy.FUSED, 4, scored=[1, 3])
    assert as_set.per_frame_error == as_list.per_frame_error


@pytest.mark.parametrize("grid", ["run_ablation", "degradation_curve", "tau_sweep"])
def test_an_unhashable_seed_is_named(grid):
    with pytest.raises(ConfigError, match=r"^experiment seed must be an integer >= 0, got \[0\]$"):
        COLLECTIONS[f"{grid}.seeds"][1]([[0]])


def test_a_grid_reads_iterators_as_it_reads_lists():
    assert (run_ablation(WORLD, WEIGHTS, CFG, iter(Strategy), 2, iter([0, 1]))
            == run_ablation(WORLD, WEIGHTS, CFG, list(Strategy), 2, [0, 1]))
    assert (degradation_curve(WORLD, WEIGHTS, CFG, iter(Strategy), iter([1, 3]), iter([0]))
            == degradation_curve(WORLD, WEIGHTS, CFG, list(Strategy), [1, 3], [0]))
    assert (tau_sweep(WORLD, WEIGHTS, CFG, iter([0.5, 1.0]), 2, iter([0, 1]))
            == tau_sweep(WORLD, WEIGHTS, CFG, [0.5, 1.0], 2, [0, 1]))
