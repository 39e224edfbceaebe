"""Training-free temporal-spatial adaptive state updates for streaming
recurrent inference, plus a synthetic benchmark that makes catastrophic
forgetting measurable at desk scale.
"""

from .decoder import (
    DecodeOutput,
    DecoderWeights,
    decode_step,
    encode_frame,
    make_weights,
    readout,
)
from .errors import ConfigError, StateError, StreamGateError
from .evaluation import (
    AblationResult,
    DegradationReport,
    SessionResult,
    WorldSpec,
    degradation_curve,
    initial_state,
    run_ablation,
    run_session,
    seeded_stream,
    tau_sweep,
)
from .gating import (
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
from .world import (
    CoverageSchedule,
    Scene,
    ScheduleKind,
    StreamCursor,
    StreamStep,
    StreamTape,
    dump_stream,
    generate_scene,
    load_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult",
    "AttentionTrace",
    "AttnSource",
    "ConfigError",
    "CoverageSchedule",
    "DecodeOutput",
    "DecoderWeights",
    "DegradationReport",
    "GateConfig",
    "Scene",
    "ScheduleKind",
    "SessionResult",
    "StateError",
    "Strategy",
    "StreamCursor",
    "StreamGateError",
    "StreamStep",
    "StreamTape",
    "UpdateMask",
    "WorldSpec",
    "aggregate_attention",
    "apply_update",
    "decode_step",
    "degradation_curve",
    "dump_stream",
    "encode_frame",
    "feature_divergence",
    "fuse_masks",
    "gate_step",
    "generate_scene",
    "initial_state",
    "load_stream",
    "make_weights",
    "readout",
    "run_ablation",
    "run_session",
    "seeded_stream",
    "spatial_mask",
    "tau_sweep",
    "temporal_mask",
    "uniform_mask",
]
