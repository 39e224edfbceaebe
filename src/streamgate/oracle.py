"""Naive scalar reference implementations and the equivalence suite.

Everything in this module is deliberately written with plain Python loops
over lists of floats (no numpy), so it stays an independent route against
which the array kernels and gating operations are checked. The suite in
run_oracle_suite draws seeded random small instances (dims <= 8), runs
both routes, and reports the worst relative deviation per operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import decoder, gating, linalg
from .decoder import DecoderWeights, decode_step
from .errors import check_int, check_real
from .gating import AttentionTrace, GateConfig, Strategy

DEFAULT_TOL = 1e-5
DEFAULT_INSTANCES = 1000

Rows = list[list[float]]


def _exp(x: float) -> float:
    return math.exp(max(-500.0, min(500.0, x)))


def o_matmul(a: Rows, b: Rows) -> Rows:
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = 0.0
            for k in range(len(b)):
                acc += a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def o_row_softmax(m: Rows) -> Rows:
    out = []
    for row in m:
        mx = max(row)
        exps = [_exp(x - mx) for x in row]
        total = sum(exps)
        out.append([e / total for e in exps])
    return out


def o_rowwise_l2(m: Rows) -> list[float]:
    return [math.sqrt(sum(x * x for x in row)) for row in m]


def o_rowwise_cosine(a: Rows, b: Rows) -> list[float]:
    out = []
    for ra, rb in zip(a, b):
        dot = sum(x * y for x, y in zip(ra, rb))
        na = math.sqrt(sum(x * x for x in ra))
        nb = math.sqrt(sum(y * y for y in rb))
        cos = dot / (na * nb + linalg.EPS_COS)
        out.append(max(-1.0, min(1.0, cos)))
    return out


def o_sigmoid(v: list[float]) -> list[float]:
    return [1.0 / (1.0 + _exp(-x)) for x in v]


def o_col_broadcast_mul(m: Rows, v: list[float]) -> Rows:
    return [[x * s for x, s in zip(row, v)] for row in m]


def o_rowwise_max(m: Rows) -> list[float]:
    return [max(row) for row in m]


def o_temporal_mask(curr: Rows, prev: Rows, tau: float, eps_mean: float) -> list[float]:
    deltas = o_rowwise_l2([[c - p for c, p in zip(rc, rp)] for rc, rp in zip(curr, prev)])
    mu = sum(deltas) / len(deltas)
    if mu >= eps_mean:
        normalized = [d / mu for d in deltas]
    else:
        normalized = [1.0] * len(deltas)
    return o_sigmoid([d - tau for d in normalized])


def o_feature_divergence(curr: Rows, prev: Rows) -> list[float]:
    return [1.0 - c for c in o_rowwise_cosine(curr, prev)]


def o_aggregate_attention(layers: list[Rows]) -> Rows:
    n, k = len(layers[0]), len(layers[0][0])
    out = [[0.0] * k for _ in range(n)]
    for layer in layers:
        for i in range(n):
            for j in range(k):
                out[i][j] += abs(layer[i][j])
    return [[x / len(layers) for x in row] for row in out]


def o_spatial_mask(attn: Rows, divergence: list[float], gain: float, bias: float) -> list[float]:
    raw = [max(a * d for a, d in zip(row, divergence)) for row in attn]
    return o_sigmoid([gain * r + bias for r in raw])


def o_fuse_masks(temporal: list[float], spatial: list[float]) -> list[float]:
    return [t * s for t, s in zip(temporal, spatial)]


def o_apply_update(candidate: Rows, prev_state: Rows, mask: list[float]) -> Rows:
    return [
        [m * c + (1.0 - m) * p for c, p in zip(rc, rp)]
        for m, rc, rp in zip(mask, candidate, prev_state)
    ]


def o_uniform_mask(n: int) -> list[float]:
    return [1.0] * n


def o_gate_step(
    candidate: Rows,
    prev_candidate: Rows,
    prev_state: Rows,
    frame: Rows,
    prev_frame: Rows,
    layers: list[Rows],
    tau: float,
    eps_mean: float,
    gain: float,
    bias: float,
    strategy: str,
) -> tuple[Rows, list[float]]:
    strategy = Strategy(strategy).value  # an unknown name raises ValueError
    mask = o_uniform_mask(len(candidate))
    if strategy in ("temporal", "fused"):
        mask = o_temporal_mask(candidate, prev_candidate, tau, eps_mean)
    if strategy in ("spatial", "fused"):
        attn = o_aggregate_attention(layers)
        mask = o_fuse_masks(mask, o_spatial_mask(attn, o_feature_divergence(frame, prev_frame), gain, bias))
    return o_apply_update(candidate, prev_state, mask), mask


def o_decode_step(
    frame: Rows,
    state: Rows,
    query: list[Rows],
    key: list[Rows],
    value: list[Rows],
    residual_rate: float,
    gate_bias: float,
    gate_gain: float,
    mix_rate: float,
) -> tuple[Rows, list[Rows]]:
    """Scalar decode: returns (candidate, attention per layer)."""
    c = len(state[0])
    n = len(state)
    scale = 1.0 / math.sqrt(c)
    means = [sum(state[i][j] for i in range(n)) / n for j in range(c)]
    mean_norm = math.sqrt(sum(m * m for m in means))
    tokens = []
    if mean_norm == 0.0:
        tokens = [row[:] for row in state]
    else:
        mean_dir = [m / mean_norm for m in means]
        for row in state:
            orig = math.sqrt(sum(x * x for x in row))
            target = [d * orig for d in mean_dir]
            mixed = [x + mix_rate * (tg - x) for x, tg in zip(row, target)]
            new = math.sqrt(sum(x * x for x in mixed))
            factor = orig / new if new > 0 else orig
            tokens.append([x * factor for x in mixed])
    attn_layers = []
    for wq, wk, wv in zip(query, key, value):
        q = o_matmul(tokens, wq)
        k = o_matmul(frame, wk)
        scores = [[scale * sum(qi * ki for qi, ki in zip(qr, kr)) for kr in k] for qr in q]
        attn = o_row_softmax(scores)
        attn_layers.append(attn)
        gates = o_sigmoid([gate_gain * (max(row) - gate_bias) for row in scores])
        retrieved = o_matmul(attn, o_matmul(frame, wv))
        tokens = [
            [t + residual_rate * g * (r - t) for t, r in zip(tr, rr)]
            for g, tr, rr in zip(gates, tokens, retrieved)
        ]
    return tokens, attn_layers


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    op: str
    instances: int
    max_rel_err: float
    passed: bool


def _rel_err(actual, expected) -> float:
    """Worst |actual - expected| / max(1, |expected|) over all entries; inf where one is NaN."""
    a = np.asarray(actual, dtype=np.float64).ravel()
    e = np.asarray(expected, dtype=np.float64).ravel()
    if a.shape != e.shape:
        return math.inf
    denom = np.maximum(1.0, np.abs(e))
    err = float(np.max(np.abs(a - e) / denom)) if a.size else 0.0
    return math.inf if math.isnan(err) else err  # max(0.0, nan) would drop a NaN


def _mat(rng, rows, cols, scale=1.0):
    return (scale * rng.standard_normal((rows, cols))).astype(linalg.F32)


def _gate_inputs(rng):
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    c = int(rng.integers(1, 9))
    n_layers = int(rng.integers(1, 4))
    candidate = _mat(rng, n, c)
    prev_candidate = _mat(rng, n, c)
    prev_state = _mat(rng, n, c)
    frame = _mat(rng, k, c)
    prev_frame = _mat(rng, k, c)
    layers = [np.abs(_mat(rng, n, k)) for _ in range(n_layers)]
    cfg = GateConfig(
        tau=float(rng.uniform(0.2, 3.0)),
        spat_gain=float(rng.uniform(0.2, 3.0)),
        spat_bias=float(rng.uniform(-1.0, 1.0)),
    )
    return candidate, prev_candidate, prev_state, frame, prev_frame, layers, cfg


def run_oracle_suite(
    instances: int = DEFAULT_INSTANCES, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[OracleReport]:
    """Check every exported operation against its scalar oracle.

    Each operation is exercised on `instances` fresh seeded random small
    inputs (all dims <= 8, layer count <= 3); `instances` >= 1, `seed` >= 0,
    `tol` >= 0. An operation fails where its worst deviation exceeds `tol`.
    """
    instances = check_int("instances", instances, 1)
    seed = check_int("oracle seed", seed)
    tol = check_real("tol", tol, 0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    errs: dict[str, float] = {}

    def record(name: str, err: float) -> None:
        errs[name] = max(errs.get(name, 0.0), err)

    strategies = [s.value for s in Strategy]
    for _ in range(instances):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))

        a = _mat(rng, n, k)
        b = _mat(rng, k, c)
        record("matmul", _rel_err(linalg.matmul(a, b), o_matmul(a.tolist(), b.tolist())))

        m = _mat(rng, n, k, scale=3.0)
        record("row_softmax", _rel_err(linalg.row_softmax(m), o_row_softmax(m.tolist())))
        record("rowwise_l2", _rel_err(linalg.rowwise_l2(m), o_rowwise_l2(m.tolist())))
        record("rowwise_max", _rel_err(linalg.rowwise_max(m), o_rowwise_max(m.tolist())))

        m2 = _mat(rng, n, k)
        record(
            "rowwise_cosine",
            _rel_err(linalg.rowwise_cosine(m, m2), o_rowwise_cosine(m.tolist(), m2.tolist())),
        )

        v = _mat(rng, 1, n, scale=4.0)[0]
        record("sigmoid", _rel_err(linalg.sigmoid(v), o_sigmoid(v.tolist())))

        vk = _mat(rng, 1, k)[0]
        record(
            "col_broadcast_mul",
            _rel_err(linalg.col_broadcast_mul(m, vk), o_col_broadcast_mul(m.tolist(), vk.tolist())),
        )

        cand, prev_cand, prev_state, frame, prev_frame, layers, cfg = _gate_inputs(rng)
        tm = gating.temporal_mask(cand, prev_cand, cfg)
        record(
            "temporal_mask",
            _rel_err(tm.values, o_temporal_mask(cand.tolist(), prev_cand.tolist(), cfg.tau, cfg.eps_mean)),
        )
        div = gating.feature_divergence(frame, prev_frame)
        record(
            "feature_divergence",
            _rel_err(div, o_feature_divergence(frame.tolist(), prev_frame.tolist())),
        )
        signed_layers = [_mat(rng, n, k) for _ in range(len(layers))]
        record(
            "aggregate_attention",
            _rel_err(
                gating.aggregate_attention(AttentionTrace(tuple(signed_layers))),
                o_aggregate_attention([m.tolist() for m in signed_layers]),
            ),
        )
        trace = AttentionTrace(tuple(layers))
        attn = gating.aggregate_attention(trace)
        sm = gating.spatial_mask(attn, div, cfg)
        record(
            "spatial_mask",
            _rel_err(sm.values, o_spatial_mask(attn.tolist(), div.tolist(), cfg.spat_gain, cfg.spat_bias)),
        )
        fused = gating.fuse_masks(tm, sm)
        record(
            "fuse_masks",
            _rel_err(fused.values, o_fuse_masks(tm.values.tolist(), sm.values.tolist())),
        )
        record(
            "apply_update",
            _rel_err(
                gating.apply_update(cand, prev_state, fused),
                o_apply_update(cand.tolist(), prev_state.tolist(), fused.values.tolist()),
            ),
        )
        record(
            "uniform_mask",
            _rel_err(gating.uniform_mask(n).values, o_uniform_mask(n)),
        )

        strategy = strategies[int(rng.integers(0, len(strategies)))]
        got_state, got_mask = gating.gate_step(
            cand,
            prev_state,
            frame,
            trace,
            cfg,
            Strategy(strategy),
            prev_candidate=prev_cand,
            prev_frame=prev_frame,
        )
        exp_state, exp_mask = o_gate_step(
            cand.tolist(),
            prev_cand.tolist(),
            prev_state.tolist(),
            frame.tolist(),
            prev_frame.tolist(),
            [m.tolist() for m in layers],
            cfg.tau,
            cfg.eps_mean,
            cfg.spat_gain,
            cfg.spat_bias,
            strategy,
        )
        record(
            "gate_step",
            max(_rel_err(got_state, exp_state), _rel_err(got_mask.values, exp_mask)),
        )

        dn = int(rng.integers(1, 4))
        dk = int(rng.integers(1, 4))
        dc = int(rng.integers(1, 4))
        dl = int(rng.integers(1, 4))
        query = [_mat(rng, dc, dc) for _ in range(dl)]
        key = [_mat(rng, dc, dc) for _ in range(dl)]
        value = [_mat(rng, dc, dc) for _ in range(dl)]
        weights = DecoderWeights(
            query=tuple(query),
            key=tuple(key),
            value=tuple(value),
            readout=np.eye(dc, dtype=linalg.F32),
            encoder=np.eye(dc, dtype=linalg.F32),
        )
        dstate = _mat(rng, dn, dc)
        dframe = _mat(rng, dk, dc)
        out = decode_step(dframe, dstate, weights)
        exp_cand, exp_attn = o_decode_step(
            dframe.tolist(),
            dstate.tolist(),
            [w.tolist() for w in query],
            [w.tolist() for w in key],
            [w.tolist() for w in value],
            decoder.RESIDUAL_RATE,
            decoder.GATE_BIAS,
            decoder.GATE_GAIN,
            decoder.MIX_RATE,
        )
        err = _rel_err(out.candidate, exp_cand)
        for got_layer, exp_layer in zip(out.trace.layers, exp_attn):
            err = max(err, _rel_err(got_layer, exp_layer))
        record("decode_step", err)

    return [
        OracleReport(op=name, instances=instances, max_rel_err=err, passed=err <= tol)
        for name, err in errs.items()
    ]
