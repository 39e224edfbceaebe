"""The benchmark worker still runs against this package.

perfbench/worker.py imports names from streamgate and drives its
per-frame calls; a change that breaks either makes the benchmark exit
before it measures anything. These tests run the worker the way
perfbench/run.py does, in a subprocess, so such a break fails here.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from streamgate import CoverageSchedule, GateConfig, ScheduleKind, Strategy, StreamCursor, cli, evaluation, make_weights
from streamgate.evaluation import WorldSpec, degradation_curve, run_ablation, tau_sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
sys.path.insert(0, os.path.dirname(WORKER))

import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def _refuse(constant):
    raise ValueError(f"the worker printed {constant}, which is not strict JSON")


def _worker(tmp_path, *args):
    """The worker's stdout records, parsed as strict JSON: a NaN or an infinity fails."""
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    result = subprocess.run(
        [sys.executable, WORKER, *args, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line, parse_constant=_refuse) for line in result.stdout.splitlines() if line.strip()]


def test_stream_worker_runs_one_checked_session(tmp_path):
    records = _worker(tmp_path, "--workload", "stream-drift", "--seed", "0", "--seconds", "0.1")
    assert records[0] == {"event": "ready"}
    result = records[-1]
    assert result["event"] == "result"
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["ops"] == 1 and result["attempted"] == 1200


def test_traced_stream_worker_ends_in_a_strict_finite_result(tmp_path):
    # A per-layer median over no spans would print NaN, and the result line would not be strict JSON.
    result = _worker(tmp_path, "--workload", "stream-drift", "--seed", "0", "--seconds", "0.1", "--trace", "1")[-1]
    assert result["event"] == "result"
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    assert {name: result["metrics"][name] for name in names if not math.isfinite(result["metrics"][name])} == {}


@pytest.mark.parametrize("workload", ["ablate-grid", "degrade-long"])
def test_grid_worker_sets_up(tmp_path, workload):
    records = _worker(tmp_path, "--workload", workload, "--seed", "0", "--seconds", "0.1", "--setup-only")
    assert records == [{"event": "ready"}]


def test_grid_probe_samples_every_frame_but_the_first_of_each_session():
    # The grid probe times the span between two consecutive StreamCursor.step
    # calls of one cursor, so it holds only while a session steps its own
    # cursor once per frame.
    weights, cfg = make_weights(n_layers=2), GateConfig()
    strategies, seeds, frames = [Strategy.UNIFORM, Strategy.FUSED], [0, 1], 40
    with worker.FrameClock(worker.HostGauge()) as clock:
        run_ablation(WorldSpec(), weights, cfg, strategies, frames, seeds)
    assert len(clock.samples) == len(strategies) * len(seeds) * (frames - 1)
    with worker.FrameClock(worker.HostGauge()) as clock:
        degradation_curve(WorldSpec(), weights, cfg, strategies, [5, frames], seeds)
    assert len(clock.samples) == len(strategies) * len(seeds) * (frames - 1)
    # Sessions that replay their seed's stream tape step their own cursors too.
    taus = [0.5, 1.0, 2.0]
    with worker.FrameClock(worker.HostGauge()) as clock:
        tau_sweep(WorldSpec(), weights, cfg, taus, frames, seeds)
    assert len(clock.samples) == len(taus) * len(seeds) * (frames - 1)
    drifting_revisit = WorldSpec(dynamic_fraction=0.5, drift_rate=0.05,
                                 schedule=CoverageSchedule(ScheduleKind.REVISIT, 4, 5))
    with worker.FrameClock(worker.HostGauge()) as clock:
        run_ablation(drifting_revisit, weights, cfg, strategies, frames, seeds)
    assert len(clock.samples) == len(strategies) * len(seeds) * (frames - 1)


def test_traced_grid_spans_every_frame_of_every_session():
    # The traced grid run wraps run_session, StreamCursor.step and the
    # per-frame calls by name, as GridWorkload.traced does, and divides each
    # session's time by its world.step spans.
    tracer = Tracer()
    layers = worker.TracedLayers(tracer)
    session = tracer.wrap("session", evaluation.run_session)

    def run_session(*args, **kwargs):
        tracer.begin_session()
        return session(*args, **kwargs)

    strategies, seeds, frames = [Strategy.UNIFORM, Strategy.FUSED], [0, 1], 5
    with worker.patched(
        (evaluation, "run_session", run_session),
        (StreamCursor, "step", layers.step),
        (evaluation, "encode_frame", layers.encode),
        (evaluation, "decode_step", layers.decode),
        (evaluation, "gate_step", layers.gate),
        (evaluation, "readout", layers.readout),
        (cli, "write_csv", tracer.wrap("cli.write", cli.write_csv)),
    ):
        run_ablation(WorldSpec(), make_weights(n_layers=2), GateConfig(), strategies, frames, seeds)
    sessions = [i for i, span in enumerate(tracer.spans) if span[0] == "session"]
    assert len(sessions) == len(strategies) * len(seeds)
    for name in ("world.step", "decoder.encode", "decoder.decode", "gating.gate"):
        for i in sessions:
            held = [span for span in tracer.spans if span[0] == name and span[3] == i]
            assert [span[5] for span in held] == list(range(frames)), name
    assert all(span[3] in sessions for span in tracer.spans if span[0] != "session")
    per_frame, self_per_frame = tracer.session_split_us("session", "world.step")
    assert len(per_frame) == len(self_per_frame) == len(sessions)
    assert all(math.isfinite(x) and x > 0 for x in per_frame + self_per_frame)
