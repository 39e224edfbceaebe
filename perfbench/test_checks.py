"""The benchmark's checks pass real output and reject corrupted output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import array
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, count_calls  # noqa: E402

from streamgate import (  # noqa: E402
    GateConfig,
    Strategy,
    cli,
    decode_step,
    encode_frame,
    gate_step,
    generate_scene,
    initial_state,
    make_weights,
)
from streamgate.linalg import EPS_COS  # noqa: E402
from streamgate.world import CoverageSchedule, ScheduleKind, StreamCursor  # noqa: E402

SEEDS = [0, 1, 2, 3]
MEDIANS = {"uniform": 3.2, "temporal": 0.85, "spatial": 1.6, "fused": 0.78}


def write(tmp_path, argv, header, rows, summary) -> str:
    path = str(tmp_path / "out.csv")
    cfg = cli.parse_config([*argv, "--out", path])
    cli.write_csv(path, cfg, header, rows, summary)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def ablate_text(tmp_path, medians=MEDIANS, drop=0, uniform_mask=1.0, first_error=None) -> str:
    """An ablate file written by the CLI's writer; first_error replaces one row's text."""
    rows = []
    for s, m in medians.items():
        for k, seed in enumerate(SEEDS):
            rows.append({"strategy": s, "seed": seed, "frames": 300,
                         "final_error": m * (1 + 0.01 * (k - 1.5)),
                         "mean_mask": uniform_mask if s == "uniform" else 0.4})
    rows = rows[drop:]
    summary = []
    for s in medians:
        finals = [r["final_error"] for r in rows if r["strategy"] == s]
        summary.append({"strategy": s, "median_final_error": float(np.median(finals)),
                        "iqr_final_error": float(np.percentile(finals, 75) - np.percentile(finals, 25))})
    argv = ["ablate", "--seeds", ",".join(map(str, SEEDS))]
    text = write(tmp_path, argv, ["strategy", "seed", "frames", "final_error", "mean_mask"], rows, summary)
    if first_error is None:
        return text
    row = next(line for line in text.splitlines() if line.startswith("uniform,0,"))
    fields = row.split(",")
    fields[3] = first_error
    return text.replace(row, ",".join(fields))


def test_ablate_accepts_wellformed_output(tmp_path):
    assert checks.check_ablate(ablate_text(tmp_path), SEEDS, 300) == []


@pytest.mark.parametrize(
    "corruption",
    [
        {"drop": 1},
        {"uniform_mask": 0.999},
        {"first_error": "nan"},
        {"first_error": "0.000000000"},
        {"first_error": "inf"},
        {"medians": {**MEDIANS, "uniform": MEDIANS["fused"], "fused": MEDIANS["uniform"]}},
        {"medians": {**MEDIANS, "temporal": 0.7}},
        {"medians": {**MEDIANS, "spatial": 3.5}},
        {"medians": {**MEDIANS, "uniform": 1.9}},
    ],
    ids=["missing-row", "uniform-mask", "nan-error", "zero-error", "inf-error", "swapped-medians",
         "temporal-below-fused", "spatial-above-uniform", "uniform-below-2.5x-fused"],
)
def test_ablate_rejects_corruption(tmp_path, corruption):
    assert checks.check_ablate(ablate_text(tmp_path, **corruption), SEEDS, 300)


def test_ablate_rejects_duplicate_rows_and_wrong_summary(tmp_path):
    text = ablate_text(tmp_path)
    lines = text.splitlines()
    row = next(line for line in lines if line.startswith("fused,0,"))
    assert checks.check_ablate(text.replace(row, row + "\n" + row), SEEDS, 300)
    summary = next(line for line in lines if line.startswith("# summary strategy=fused"))
    bad = summary.replace("median_final_error=0.", "median_final_error=1.")
    assert checks.check_ablate(text.replace(summary, bad), SEEDS, 300)


def degrade_text(tmp_path, errors) -> str:
    rows = [{"strategy": s, "length": n, "median_final_error": e}
            for (s, n), e in errors.items()]
    summary = [{"strategy": s, "growth_ratio": errors[(s, 500)] / errors[(s, 50)]}
               for s in ("uniform", "fused")]
    argv = ["degrade", "--lengths", "50,500", "--seeds", "0,1"]
    return write(tmp_path, argv, ["strategy", "length", "median_final_error"], rows, summary)


GOOD_DEGRADE = {("uniform", 50): 1.4, ("uniform", 500): 3.3, ("fused", 50): 0.77, ("fused", 500): 0.78}


def test_degrade_accepts_and_rejects(tmp_path):
    assert checks.check_degrade(degrade_text(tmp_path, GOOD_DEGRADE), [50, 500]) == []
    swapped = {("uniform", 50): 0.77, ("uniform", 500): 0.78, ("fused", 50): 1.4, ("fused", 500): 3.3}
    assert checks.check_degrade(degrade_text(tmp_path, swapped), [50, 500])
    weak = {**GOOD_DEGRADE, ("uniform", 500): 2.6}  # growth 1.86 vs 1.01: ratio below 2
    assert checks.check_degrade(degrade_text(tmp_path, weak), [50, 500])
    text = degrade_text(tmp_path, GOOD_DEGRADE)
    assert checks.check_degrade(text.replace("growth_ratio=2.", "growth_ratio=3."), [50, 500])


@pytest.fixture(scope="module")
def fused_frame():
    """Two consecutive frames of a drifting full-coverage fused session."""
    weights = make_weights()
    scene = generate_scene(16, 32, 0.5, 0.05, seed=7)
    cursor = StreamCursor(scene, CoverageSchedule(ScheduleKind.FULL, 16), 0.05, 11)
    cfg = GateConfig()
    state = initial_state(scene, weights)
    prev = None
    for _ in range(2):
        frame = encode_frame(cursor.step().observation, weights)
        out = decode_step(frame, state, weights)
        kwargs = {} if prev is None else {"prev_candidate": prev[0], "prev_frame": prev[1]}
        new_state, mask = gate_step(out.candidate, state, frame, out.trace, cfg, Strategy.FUSED, **kwargs)
        record = dict(mask=mask.values, candidate=out.candidate, prev_state=state, new_state=new_state,
                      frame=frame, trace=out.trace, prev=prev)
        prev, state = (out.candidate, frame), new_state
    return record


def test_frame_checks_accept_real_update_and_reject_corruption(fused_frame):
    f = fused_frame
    assert checks.check_frame(f["mask"], f["candidate"], f["prev_state"], f["new_state"], first=False) == []
    for bad in (1.5, -0.1, np.nan):
        mask = f["mask"].copy()
        mask[3] = bad
        assert checks.check_frame(mask, f["candidate"], f["prev_state"], f["new_state"], first=False)
    assert checks.check_frame(f["mask"], f["candidate"], f["prev_state"], f["new_state"], first=True)
    gap = np.abs(f["candidate"] - f["prev_state"]).max()
    for delta in (2 * gap, np.nan):
        state = f["new_state"].copy()
        state[0, 0] += delta
        assert checks.check_frame(f["mask"], f["candidate"], f["prev_state"], state, first=False)


def reference(f, **overrides):
    cfg = GateConfig()
    args = dict(tau=cfg.tau, eps_mean=cfg.eps_mean, spat_gain=cfg.spat_gain, spat_bias=cfg.spat_bias,
                eps_cos=EPS_COS, absolute=False)
    args.update(overrides)
    return checks.reference_fused_update(f["candidate"], f["prev"][0], f["prev_state"], f["frame"],
                                         f["prev"][1], f["trace"].layers, **args)


def test_float64_reference_agrees_and_catches_perturbation(fused_frame):
    f = fused_frame
    ref_mask, ref_state = reference(f)
    assert checks.check_against_reference(f["mask"], f["new_state"], ref_mask, ref_state) == []
    state = f["new_state"].copy()
    state[5] *= 1.001
    assert checks.check_against_reference(f["mask"], state, ref_mask, ref_state)
    mask = f["mask"].copy()
    mask[0] += 1e-3
    assert checks.check_against_reference(mask, f["new_state"], ref_mask, ref_state)
    # A gate computed with another threshold is caught by the reference too.
    other_mask, other_state = reference(f, tau=1.5)
    assert checks.check_against_reference(f["mask"], f["new_state"], other_mask, other_state)


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))

    def session():
        tracer.begin_frame()
        leaf()
        leaf()

    tracer.begin_session()
    tracer.wrap("session", session)()
    names = [s[0] for s in tracer.spans]
    assert names == ["session", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {0}
    per_frame, self_per_frame = tracer.session_split_us("session", "leaf")
    assert 0 <= self_per_frame[0] < per_frame[0]
    _, counts = count_calls(lambda: checks.parse_cli_csv("a\n1\n"))
    assert counts == {}


def _unreadable_output(workload):
    def execute(cfg):
        with open(workload.out, "w", encoding="utf-8") as fh:
            fh.write("not a table\n")
        print(f"wrote {workload.out}")
        return 0

    return execute


def _raising(cfg):
    raise RuntimeError("broken command")


@pytest.mark.parametrize("make_execute", [_unreadable_output, lambda workload: _raising])
def test_grid_operation_with_bad_output_fails_and_run_is_not_correct(tmp_path, make_execute):
    workload = worker.GridWorkload("ablate-grid", 0, str(tmp_path))
    op = workload.op(execute=make_execute(workload))
    assert (op.attempted, op.failed) == (1, 1)
    tally = worker._tally([op], [])
    assert (tally["correct"], tally["failed"]) == (False, 1)


def test_frame_latency_is_median_over_operations_of_their_percentile():
    samples = [np.array(x, dtype=np.float64) * 1e3 for x in ([1, 2, 3, 100], [10, 20, 30, 40, 50], [5, 6, 7])]
    assert worker._latency_us(samples, 50) == pytest.approx(6.0)
    assert worker._latency_us(samples, 100) == pytest.approx(50.0)


def test_frames_at_reference_divide_each_frame_by_the_slice_after_it():
    n, ref = worker.GAUGE_EVERY, worker.GAUGE_REFERENCE_NS
    frames = array.array("q", [1000] * (2 * n + 3))
    op = worker.Op(0.0, 0.0, 1, 0, frame_ns=frames, gauge_ns=array.array("q", [2 * ref, ref // 2]))
    at_ref, factor = worker.frames_at_reference(op)
    assert list(at_ref) == [500.0] * n + [2000.0] * (n + 3)  # frames past the last slice take the last
    assert factor == pytest.approx(1000 * len(frames) / at_ref.sum())
    bare = worker.Op(0.0, 0.0, 1, 0, frame_ns=array.array("q", [7, 9]))
    at_ref, factor = worker.frames_at_reference(bare)
    assert list(at_ref) == [7.0, 9.0] and factor == 1.0


def test_host_gauge_slices_every_nth_frame_outside_the_frame_samples():
    gauge = worker.HostGauge()
    took = [gauge.tick() for _ in range(3 * worker.GAUGE_EVERY)]
    assert [i for i, t in enumerate(took) if t] == [worker.GAUGE_EVERY * k - 1 for k in (1, 2, 3)]
    slices, wall_ns = gauge.take()
    assert len(slices) == 3 and min(slices) > 0 and wall_ns > 0
    assert len(gauge.take()[0]) == 0

    with worker.FrameClock(worker.HostGauge()) as clock:
        cursor = StreamCursor(generate_scene(4, 8, 0.0, 0.0, seed=0),
                              CoverageSchedule(ScheduleKind.FULL, 4), 0.0, 0)
        for _ in range(2 * worker.GAUGE_EVERY + 1):
            cursor.step()
        slices, _ = clock.gauge.take()
    assert len(clock.samples) == 2 * worker.GAUGE_EVERY and len(slices) == 2
    # A slice of GAUGE_CALLS kernel calls is far longer than a bare stream step.
    assert max(clock.samples) < min(slices)
