"""Output checks that do not copy the program's current output.

Every check returns a list of failure messages; an empty list means the
output passed. The checks rest on properties the method guarantees (row
counts, mask ranges, the convex update, the paper's orderings) and on a
float64 recomputation written here, independently of the program: the
summary statistics of the grid commands and the gate equations of one
frame.
"""

from __future__ import annotations

import math

import numpy as np

# float32 kernels against the float64 equations below: masks are O(1) and
# pass through a sigmoid of slope <= 1/4, so a few float32 ulps of the
# inputs stay far below 1e-5; the committed state adds one float32 rounding
# of values of order 1-10.
MASK_TOL = 1e-5
STATE_RTOL = 1e-5

# Summary records carry 9 significant digits, so a statistic recomputed
# here from the 9-digit rows differs from the program's full-precision
# figure by a few parts in 1e9 at most.
SUMMARY_RTOL = 1e-7

ABLATE_STRATEGIES = ("uniform", "temporal", "spatial", "fused")
DEGRADE_STRATEGIES = ("uniform", "fused")

# The paper's claims, as thresholds on the default scene's medians.
MIN_UNIFORM_OVER_FUSED = 2.5
MIN_GROWTH_RATIO = 2.0


def parse_cli_csv(text: str) -> tuple[list[dict], list[dict]]:
    """Split a streamgate CSV into (rows, summary records); config records are skipped."""
    summary: list[dict] = []
    header: list[str] | None = None
    rows: list[dict] = []
    for line in text.splitlines():
        if line.startswith("# config "):
            continue
        if line.startswith("# summary "):
            summary.append(dict(p.split("=", 1) for p in line[len("# summary "):].split()))
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return rows, summary


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SUMMARY_RTOL, abs_tol=1e-12)


def check_ablate(text: str, seeds: list[int], frames: int) -> list[str]:
    """Rows, ranges, summaries and the paper's orderings of an ablate file."""
    rows, summary = parse_cli_csv(text)
    fails: list[str] = []
    keys = [(r.get("strategy"), r.get("seed")) for r in rows]
    expected = {(s, str(seed)) for s in ABLATE_STRATEGIES for seed in seeds}
    if len(keys) != len(expected) or set(keys) != expected:
        return [f"ablate: expected one row per strategy x seed ({len(expected)}), got {len(keys)}"]
    finals: dict[str, list[float]] = {s: [] for s in ABLATE_STRATEGIES}
    for r in rows:
        err, mask = float(r["final_error"]), float(r["mean_mask"])
        if not (math.isfinite(err) and err > 0):
            fails.append(f"ablate: final_error {r['final_error']} of {r['strategy']}/{r['seed']} is not finite and > 0")
        if not 0.0 <= mask <= 1.0:
            fails.append(f"ablate: mean_mask {r['mean_mask']} outside [0, 1]")
        if r["strategy"] == "uniform" and mask != 1.0:
            fails.append(f"ablate: uniform mean_mask is {r['mean_mask']}, not exactly 1")
        if int(r["frames"]) != frames:
            fails.append(f"ablate: frames {r['frames']} != {frames}")
        finals[r["strategy"]].append(err)
    med = {s: float(np.median(np.asarray(v, dtype=np.float64))) for s, v in finals.items()}
    by_strategy = {rec.get("strategy"): rec for rec in summary}
    for s in ABLATE_STRATEGIES:
        rec = by_strategy.get(s)
        if rec is None:
            fails.append(f"ablate: no summary record for {s}")
            continue
        v = np.asarray(finals[s], dtype=np.float64)
        iqr = float(np.percentile(v, 75) - np.percentile(v, 25))
        if not _close(float(rec["median_final_error"]), med[s]):
            fails.append(f"ablate: summary median of {s} {rec['median_final_error']} != recomputed {med[s]:.9g}")
        if not _close(float(rec["iqr_final_error"]), iqr):
            fails.append(f"ablate: summary IQR of {s} {rec['iqr_final_error']} != recomputed {iqr:.9g}")
    if len(summary) != len(ABLATE_STRATEGIES):
        fails.append(f"ablate: {len(summary)} summary records, expected {len(ABLATE_STRATEGIES)}")
    u, t, sp, f = med["uniform"], med["temporal"], med["spatial"], med["fused"]
    if not (f < t <= u):
        fails.append(f"ablate: expected fused < temporal <= uniform, got {f:.4f}, {t:.4f}, {u:.4f}")
    if not (f < sp <= u):
        fails.append(f"ablate: expected fused < spatial <= uniform, got {f:.4f}, {sp:.4f}, {u:.4f}")
    if not u >= MIN_UNIFORM_OVER_FUSED * f:
        fails.append(f"ablate: uniform/fused median ratio {u / f:.3f} < {MIN_UNIFORM_OVER_FUSED}")
    return fails


def check_degrade(text: str, lengths: list[int]) -> list[str]:
    """Rows, summaries and the long-sequence claim of a degrade file."""
    rows, summary = parse_cli_csv(text)
    expected = {(s, str(n)) for s in DEGRADE_STRATEGIES for n in lengths}
    keys = [(r.get("strategy"), r.get("length")) for r in rows]
    if len(keys) != len(expected) or set(keys) != expected:
        return [f"degrade: expected one row per strategy x length ({len(expected)}), got {len(keys)}"]
    fails: list[str] = []
    err = {(r["strategy"], int(r["length"])): float(r["median_final_error"]) for r in rows}
    if not all(math.isfinite(v) and v > 0 for v in err.values()):
        fails.append("degrade: a median final error is not finite and > 0")
        return fails
    growth = {s: err[(s, lengths[-1])] / err[(s, lengths[0])] for s in DEGRADE_STRATEGIES}
    by_strategy = {rec.get("strategy"): rec for rec in summary}
    for s in DEGRADE_STRATEGIES:
        rec = by_strategy.get(s)
        # The program divides full-precision medians; the rows carry 9 digits.
        if rec is None or not math.isclose(float(rec["growth_ratio"]), growth[s], rel_tol=1e-6):
            fails.append(f"degrade: summary growth_ratio of {s} disagrees with rows ({growth[s]:.9g})")
    if not growth["fused"] < growth["uniform"]:
        fails.append(f"degrade: fused growth {growth['fused']:.4f} not below uniform {growth['uniform']:.4f}")
    if not growth["uniform"] >= MIN_GROWTH_RATIO * growth["fused"]:
        fails.append(
            f"degrade: uniform/fused growth ratio {growth['uniform'] / growth['fused']:.3f} < {MIN_GROWTH_RATIO}"
        )
    return fails


def check_frame(mask, candidate, prev_state, new_state, first: bool) -> list[str]:
    """Invariants of one gated update: mask range, cold start, convexity."""
    fails: list[str] = []
    m = np.asarray(mask)
    if not (np.all(m >= 0) and np.all(m <= 1)):
        fails.append("frame: mask outside [0, 1]")
    if first and not np.all(m == 1):
        fails.append("frame: first-frame mask is not all ones")
    s = np.asarray(new_state)
    if not np.all(np.isfinite(s)):
        fails.append("frame: committed state is not finite")
    lo = np.minimum(candidate, prev_state)
    hi = np.maximum(candidate, prev_state)
    if not (np.all(s >= lo) and np.all(s <= hi)):
        fails.append("frame: committed state outside [candidate, previous]")
    return fails


def reference_fused_update(
    candidate, prev_candidate, prev_state, frame, prev_frame, attention_layers,
    *, tau: float, eps_mean: float, spat_gain: float, spat_bias: float, eps_cos: float,
    absolute: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """float64 temporal, spatial and fused gates plus the convex update.

    Returns (fused mask, committed state) for one non-first frame.
    """
    c = np.asarray(candidate, dtype=np.float64)
    pc = np.asarray(prev_candidate, dtype=np.float64)
    delta = np.sqrt(((c - pc) ** 2).sum(axis=1))
    mu = delta.mean()
    normalized = delta / mu if mu >= eps_mean else np.ones_like(delta)
    temporal = 1.0 / (1.0 + np.exp(-(normalized - tau)))

    f = np.asarray(frame, dtype=np.float64)
    pf = np.asarray(prev_frame, dtype=np.float64)
    cos = (f * pf).sum(axis=1) / (
        np.sqrt((f * f).sum(axis=1)) * np.sqrt((pf * pf).sum(axis=1)) + eps_cos
    )
    divergence = 1.0 - np.clip(cos, -1.0, 1.0)
    layers = [np.asarray(a, dtype=np.float64) for a in attention_layers]
    attn = np.mean([np.abs(a) if absolute else a for a in layers], axis=0)
    raw = (attn * divergence[np.newaxis, :]).max(axis=1)
    spatial = 1.0 / (1.0 + np.exp(-(spat_gain * raw + spat_bias)))

    fused = temporal * spatial
    p = np.asarray(prev_state, dtype=np.float64)
    return fused, fused[:, np.newaxis] * c + (1.0 - fused[:, np.newaxis]) * p


def check_against_reference(mask, new_state, ref_mask, ref_state) -> list[str]:
    """Compare the program's float32 gate output with the float64 equations."""
    fails: list[str] = []
    mask_err = float(np.max(np.abs(np.asarray(mask, dtype=np.float64) - ref_mask)))
    if not mask_err <= MASK_TOL:
        fails.append(f"frame: fused mask differs from float64 reference by {mask_err:.3g}")
    s = np.asarray(new_state, dtype=np.float64)
    if not np.all(np.abs(s - ref_state) <= STATE_RTOL * (1.0 + np.abs(ref_state))):
        fails.append("frame: committed state differs from float64 reference")
    return fails
