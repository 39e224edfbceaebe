"""One benchmark workload, run in a fresh process started by run.py.

The process sets up (imports, decoder weights and, for the stream, the
scene and initial state), prints {"event": "ready"}, and unless
--setup-only runs the workload and prints one {"event": "result", ...}
line. stdout carries only these JSON lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
from tracing import Tracer, count_calls

import streamgate
from streamgate import (
    AttnSource,
    Strategy,
    StreamCursor,
    cli,
    decode_step,
    encode_frame,
    evaluation,
    gate_step,
    gating,
    generate_scene,
    initial_state,
    make_weights,
    readout,
)

GRID_SEEDS = 20  # experiment seeds per grid: --seed n uses 20n .. 20n+19
ABLATE_FRAMES = 300
DEGRADE_LENGTHS = (50, 500)
STREAM_FRAMES = 1200  # > 1000 so p99 of one session has 12 samples beyond it
# Frame latencies are read on the process CPU clock: on a shared host the
# scheduler runs other tenants' work in bursts of 3-21 ms, which would set
# a wall-clock p99 on their own. The program is single-threaded compute.
STREAM_DRIFT_RATE = "0.05"
GATE_SAMPLE_EVERY = 8  # traced run: replay the gate components on every 8th call
REFERENCE_EVERY = 25  # stream: float64 recomputation on every 25th frame
GAUGE_EVERY = 25  # frames between two host-gauge slices
GAUGE_CALLS = 2  # gauge kernel calls per slice, about 0.4 ms of CPU time
# The gauge slice, in CPU ns, that counts as host factor 1.0: a round
# figure near the median slice on the reference host (see README), so that
# figures at reference speed read close to the raw ones there.
GAUGE_REFERENCE_NS = 375_000


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


class HostGauge:
    """The host's current speed, read from a fixed kernel between frames.

    The host's speed swings by 30% and more, over tens of milliseconds as
    well as minutes, and the program's frames slow with it. After every
    GAUGE_EVERY frames the gauge times GAUGE_CALLS calls of a kernel of its
    own: a 4-layer float32 attention step over 16 x 32 tokens, the same
    kind of work as a decode step, written here and never calling the
    program. A slice over GAUGE_REFERENCE_NS is the host factor of the
    frames just before it (see frames_at_reference). The kernel is the same
    in every version of the program, so a change to the program cannot
    move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20261018)
        self.tokens = rng.standard_normal((16, 32)).astype(np.float32)
        self.frame = rng.standard_normal((16, 32)).astype(np.float32)
        self.weights = [rng.standard_normal((32, 32)).astype(np.float32) / np.float32(6.0) for _ in range(12)]
        self.slices = array.array("q")  # CPU ns per slice
        self.wall_ns = 0  # wall time spent in slices, to subtract from timed spans
        self._frames = 0

    def kernel(self) -> np.ndarray:
        x, f, w = self.tokens, self.frame, self.weights
        for layer in range(4):
            wq, wk, wv = w[3 * layer: 3 * layer + 3]
            scores = (x @ wq) @ (f @ wk).T * np.float32(0.17677669)  # 1 / sqrt(32)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            gate = 1.0 / (1.0 + np.exp(-scores.max(axis=1)))
            x = x + np.float32(0.5) * gate[:, np.newaxis] * (attn @ (f @ wv) - x)
        return x

    def tick(self) -> bool:
        """Count one frame; take a slice on every GAUGE_EVERY-th and return whether it did."""
        self._frames += 1
        if self._frames % GAUGE_EVERY:
            return False
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        for _ in range(GAUGE_CALLS):
            self.kernel()
        c1 = time.process_time_ns()
        self.slices.append(c1 - c0)
        self.wall_ns += time.perf_counter_ns() - w0
        return True

    def take(self) -> tuple[array.array, int]:
        """The slices and their wall time since the last take; counts frames afresh."""
        taken = (self.slices, self.wall_ns)
        self.slices, self.wall_ns, self._frames = array.array("q"), 0, 0
        return taken


@dataclass
class Op:
    """One timed operation: its wall time, the operations it attempted and how many failed."""

    wall_s: float
    elapsed_s: float
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    frame_ns: array.array = field(default_factory=lambda: array.array("q"))  # per-frame CPU times
    gauge_ns: array.array = field(default_factory=lambda: array.array("q"))  # host-gauge slices


class FrameClock:
    """Per-frame samples of a grid: the CPU time between two consecutive steps of one stream.

    Installed on StreamCursor.step for the untraced grid runs; one sample
    covers a frame's stream step, encode, decode, gate, readout and
    scoring. It costs one clock read per frame. The host gauge ticks once
    per sample, and a gauge slice falls outside every sample.
    """

    def __init__(self, gauge: HostGauge) -> None:
        self.samples = array.array("q")
        self.gauge = gauge
        self._original = StreamCursor.step
        self._cursor = None
        self._last = 0

    def __enter__(self) -> "FrameClock":
        original, clock, gauge = self._original, time.process_time_ns, self.gauge

        def step(cursor):
            now = clock()
            if cursor is self._cursor:
                self.samples.append(now - self._last)
                if gauge.tick():
                    now = clock()
            self._cursor, self._last = cursor, now
            return original(cursor)

        StreamCursor.step = step
        return self

    def __exit__(self, *exc) -> None:
        StreamCursor.step = self._original
        self._cursor = None


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set attributes: each replacement is (owner, name, value)."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


class TracedLayers:
    """Span-recording wrappers around the public per-frame calls."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.gate_samples: list[tuple] = []
        self._gate_calls = 0
        raw_step = tracer.wrap("world.step", StreamCursor.step)

        def step(cursor):
            tracer.begin_frame()
            return raw_step(cursor)

        traced_gate = tracer.wrap("gating.gate", gate_step)

        def gate(candidate, prev_state, frame, trace, cfg, strategy, *, prev_candidate=None, prev_frame=None):
            out = traced_gate(candidate, prev_state, frame, trace, cfg, strategy,
                              prev_candidate=prev_candidate, prev_frame=prev_frame)
            if self._gate_calls % GATE_SAMPLE_EVERY == 0:
                self.gate_samples.append(
                    (candidate, prev_state, frame, trace, cfg, strategy, prev_candidate, prev_frame, out)
                )
            self._gate_calls += 1
            return out

        self.step = step
        self.encode = tracer.wrap("decoder.encode", encode_frame)
        self.decode = tracer.wrap("decoder.decode", decode_step)
        self.gate = gate
        self.readout = tracer.wrap("decoder.readout", readout)

    def replay_gate_components(self) -> int:
        """Time the gate's components one by one on the sampled calls.

        Returns how many sampled calls the components did not reproduce
        bit for bit.
        """
        tracer, clock = self.tracer, time.perf_counter_ns
        mismatches = 0
        for cand, prev_state, frame, trace, cfg, strategy, prev_c, prev_f, (state, mask) in self.gate_samples:
            if prev_c is None or strategy is Strategy.UNIFORM:
                m = gating.uniform_mask(cand.shape[0])
            else:
                tm = sm = None
                if strategy in (Strategy.TEMPORAL_ONLY, Strategy.FUSED):
                    a = clock()
                    tm = gating.temporal_mask(cand, prev_c, cfg)
                    tracer.record("gating.temporal", a, clock())
                if strategy in (Strategy.SPATIAL_ONLY, Strategy.FUSED):
                    a = clock()
                    divergence = gating.feature_divergence(frame, prev_f)
                    sm = gating.spatial_mask(gating.aggregate_attention(trace), divergence, cfg)
                    tracer.record("gating.spatial", a, clock())
                if strategy is Strategy.FUSED:
                    a = clock()
                    m = gating.fuse_masks(tm, sm)
                    tracer.record("gating.fuse", a, clock())
                else:
                    m = tm if tm is not None else sm
            a = clock()
            s = gating.apply_update(cand, prev_state, m)
            tracer.record("gating.apply", a, clock())
            if not (np.array_equal(s, state) and np.array_equal(m.values, mask.values) and m.kind is mask.kind):
                mismatches += 1
        return mismatches


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


class GridWorkload:
    """ablate-grid or degrade-long, driven through parse_config + execute."""

    def __init__(self, name: str, seed: int, out_dir: str) -> None:
        make_weights()  # set-up covers the weights; execute() builds its own per command
        self.seeds = list(range(GRID_SEEDS * seed, GRID_SEEDS * (seed + 1)))
        self.out = os.path.join(out_dir, f"{name}.csv")
        seed_list = ",".join(str(s) for s in self.seeds)
        if name == "ablate-grid":
            self.argv = ["ablate", "--seeds", seed_list, "--out", self.out]
            self.frames = len(checks.ABLATE_STRATEGIES) * GRID_SEEDS * ABLATE_FRAMES
            self.check = lambda text: checks.check_ablate(text, self.seeds, ABLATE_FRAMES)
        else:
            lengths = ",".join(str(n) for n in DEGRADE_LENGTHS)
            self.argv = ["degrade", "--lengths", lengths, "--strategy", "uniform,fused",
                         "--seeds", seed_list, "--out", self.out]
            self.frames = len(checks.DEGRADE_STRATEGIES) * GRID_SEEDS * sum(DEGRADE_LENGTHS)
            self.check = lambda text: checks.check_degrade(text, list(DEGRADE_LENGTHS))
        self.first_output: str | None = None
        self.problems: list[str] = []

    def _invoke(self, parse, execute) -> tuple[int, str]:
        cfg = parse(self.argv)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = execute(cfg)
        return status, printed.getvalue()

    def _verify(self, status: int, printed: str) -> list[str]:
        if status != 0 or printed != f"wrote {self.out}\n":
            return [f"cli: exit status {status}, printed {printed!r}"]
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        failures = self.check(text)
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            failures.append("cli: output differs from the first run of the same command")
        return failures

    def op(self, parse=None, execute=None) -> Op:
        start = time.perf_counter()
        try:
            status, printed = self._invoke(parse or cli.parse_config, execute or cli.execute)
            wall = time.perf_counter() - start
            failures = self._verify(status, printed)
        except Exception as exc:  # raising, or output the checks cannot read, fails the operation
            traceback.print_exc()
            wall, failures = time.perf_counter() - start, [f"cli: raised {exc!r}"]
        return Op(wall, time.perf_counter() - start, 1, int(bool(failures)), failures)

    def untraced(self, seconds: float) -> list[Op]:
        with FrameClock(HostGauge()) as frame_clock:

            def one() -> Op:
                op = self.op()
                op.frame_ns, frame_clock.samples = frame_clock.samples, array.array("q")
                op.gauge_ns, gauge_wall_ns = frame_clock.gauge.take()
                op.wall_s -= gauge_wall_ns / 1e9
                return op

            return run_for(one, seconds)

    def traced(self, tracer: Tracer, seconds: float) -> tuple[list[Op], TracedLayers, dict]:
        layers = TracedLayers(tracer)
        session = tracer.wrap("session", evaluation.run_session)

        def run_session(*args, **kwargs):
            tracer.begin_session()
            return session(*args, **kwargs)

        parse = tracer.wrap("cli.parse", cli.parse_config)
        execute = tracer.wrap("cli.execute", cli.execute)
        with patched(
            (evaluation, "run_session", run_session),
            (StreamCursor, "step", layers.step),
            (evaluation, "encode_frame", layers.encode),
            (evaluation, "decode_step", layers.decode),
            (evaluation, "gate_step", layers.gate),
            (evaluation, "readout", layers.readout),
            (cli, "write_csv", tracer.wrap("cli.write", cli.write_csv)),
        ):
            ops = run_for(lambda: self.op(parse, execute), seconds)
        extra = {
            "cli.parse_ms": _median(tracer.durations_us("cli.parse")) / 1e3,
            "cli.write_ms": _median(tracer.durations_us("cli.write")) / 1e3,
            "cli.out_bytes": os.path.getsize(self.out),
        }
        return ops, layers, extra

    def profiled(self) -> tuple[dict[str, int], int]:
        (status, printed), counts = count_calls(lambda: self._invoke(cli.parse_config, cli.execute))
        try:
            self.problems += self._verify(status, printed)
        except Exception as exc:
            self.problems.append(f"cli: checks raised {exc!r} on the profiled output")
        return counts, self.frames


class StreamWorkload:
    """stream-drift: one fused session streamed through the per-frame calls."""

    def __init__(self, seed: int, out_dir: str) -> None:
        self.out = os.path.join(out_dir, "stream-drift.csv")
        start = time.perf_counter()
        cfg = cli.parse_config([
            "run", "--schedule", "full", "--frame-tokens", "16",
            "--dynamic-fraction", "0.5", "--drift-rate", STREAM_DRIFT_RATE,
            "--frames", str(STREAM_FRAMES), "--seeds", str(seed), "--out", self.out,
        ])
        self.parse_ms = (time.perf_counter() - start) * 1e3
        self.cfg = cfg
        self.weights = make_weights(n_layers=cfg.layers, channels=cfg.channels,
                                    obs_channels=cfg.obs_channels, seed=cfg.model_seed)
        # The world spec and gate config that execute() builds for `run`, and
        # the scene and stream that evaluation.session_for_seed derives from
        # the seed; the session itself is streamed here frame by frame.
        self.world = cli._world_spec(cfg)
        self.gate_cfg = cli._gate_config(cfg)
        scene_seed, self.stream_seed = evaluation.experiment_seeds(seed)
        w = self.world
        self.scene = generate_scene(w.regions, w.obs_channels, w.dynamic_fraction, w.drift_rate, seed=scene_seed)
        self.state0 = initial_state(self.scene, self.weights)
        self.frames = cfg.frames
        self.final_state: np.ndarray | None = None
        self.problems: list[str] = []
        self.mask_log: list[dict] = []
        self.plain = (StreamCursor.step, encode_frame, decode_step, gate_step, readout)

    def _check(self, i, mask, out, state, new_state, estimate, prev_c, frame, prev_f) -> list[str]:
        m = mask.values
        fails = checks.check_frame(m, out.candidate, state, new_state, first=i == 0)
        if not np.all(np.isfinite(estimate)):
            fails.append("frame: readout is not finite")
        if i % REFERENCE_EVERY == 1:
            g = self.gate_cfg
            ref_mask, ref_state = checks.reference_fused_update(
                out.candidate, prev_c, state, frame, prev_f, out.trace.layers,
                tau=g.tau, eps_mean=g.eps_mean, spat_gain=g.spat_gain, spat_bias=g.spat_bias,
                eps_cos=streamgate.linalg.EPS_COS,
                absolute=g.attn_source is AttnSource.PRE_SOFTMAX_ABS,
            )
            fails += checks.check_against_reference(m, new_state, ref_mask, ref_state)
        self.mask_log.append({"t": i + 1, "mask_mean": float(m.mean()),
                              "mask_min": float(m.min()), "mask_max": float(m.max())})
        return fails

    def _stream(self, fns, tracer: Tracer | None, checking: bool, gauge: HostGauge | None = None):
        step, encode, decode, gate, read = fns
        weights, gate_cfg, source = self.weights, self.gate_cfg, self.gate_cfg.attn_source
        cursor = StreamCursor(self.scene, self.world.schedule, self.world.noise_sigma, self.stream_seed)
        state, prev_c, prev_f = self.state0, None, None
        clock, cpu = time.perf_counter_ns, time.process_time_ns
        latencies = array.array("q")
        wall_ns = failed = 0
        failures: list[str] = []
        self.mask_log = []
        for i in range(self.frames):
            t0 = clock()
            obs = step(cursor)
            c1 = cpu()
            frame = encode(obs.observation, weights)
            out = decode(frame, state, weights, source)
            new_state, mask = gate(out.candidate, state, frame, out.trace, gate_cfg, Strategy.FUSED,
                                   prev_candidate=prev_c, prev_frame=prev_f)
            estimate = read(out.candidate, weights)
            c2 = cpu()
            t2 = clock()
            latencies.append(c2 - c1)
            wall_ns += t2 - t0
            if checking:
                fails = self._check(i, mask, out, state, new_state, estimate, prev_c, frame, prev_f)
                if tracer is not None:
                    tracer.record("check", t2, clock())
                if fails:
                    failed += 1
                    failures += fails[:1]
            if gauge is not None:
                gauge.tick()
            state, prev_c, prev_f = new_state, out.candidate, frame
        if self.final_state is None:
            self.final_state = state
        elif not np.array_equal(state, self.final_state):
            failed += 1
            failures.append("stream: final state differs from the first session of the run")
        return wall_ns, latencies, failed, failures

    def op(self, fns=None, tracer: Tracer | None = None, gauge: HostGauge | None = None) -> Op:
        start = time.perf_counter()
        try:
            if tracer is None:
                wall_ns, latencies, failed, failures = self._stream(fns or self.plain, None, True, gauge)
            else:
                tracer.begin_session()
                wall_ns, latencies, failed, failures = tracer.wrap("session", self._stream)(fns, tracer, True)
        except Exception:  # a session that raises counts all its frames as failed; the run goes on
            traceback.print_exc()
            if gauge is not None:
                gauge.take()  # its slices belong to no frame samples
            elapsed = time.perf_counter() - start
            return Op(elapsed, elapsed, self.frames, self.frames, ["stream: raised"])
        elapsed = time.perf_counter() - start
        gauge_ns = gauge.take()[0] if gauge is not None else array.array("q")
        return Op(wall_ns / 1e9, elapsed, self.frames, failed, failures, latencies, gauge_ns)

    def untraced(self, seconds: float) -> list[Op]:
        gauge = HostGauge()
        return run_for(lambda: self.op(gauge=gauge), seconds)

    def traced(self, tracer: Tracer, seconds: float) -> tuple[list[Op], TracedLayers, dict]:
        layers = TracedLayers(tracer)
        fns = (layers.step, layers.encode, layers.decode, layers.gate, layers.readout)
        ops = run_for(lambda: self.op(fns, tracer), seconds)
        header = ["t", "mask_mean", "mask_min", "mask_max"]
        summary = [{"strategy": "fused", "frames": self.frames}]
        tracer.wrap("cli.write", cli.write_csv)(self.out, self.cfg, header, self.mask_log, summary)
        extra = {
            "cli.parse_ms": self.parse_ms,
            "cli.write_ms": _median(tracer.durations_us("cli.write")) / 1e3,
            "cli.out_bytes": os.path.getsize(self.out),
        }
        return ops, layers, extra

    def profiled(self) -> tuple[dict[str, int], int]:
        (_, _, failed, failures), counts = count_calls(lambda: self._stream(self.plain, None, False))
        self.problems += failures
        return counts, self.frames


def run_for(op, seconds: float) -> list[Op]:
    """Run op() at least once, and again while another typical op fits in `seconds`."""
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        ops.append(op())
        typical = _median([o.elapsed_s for o in ops])
        if time.perf_counter() - start + typical > seconds:
            return ops


def frames_at_reference(op: Op) -> tuple[np.ndarray, float]:
    """The operation's frame samples at reference host speed, and its host factor.

    Frame j was followed by gauge slice j // GAUGE_EVERY (frames after
    the last slice take the last one), and is divided by that slice's
    factor. The operation's host factor is its raw frame time over its
    frame time at reference speed. Without slices the factor is 1.
    """
    raw = np.frombuffer(op.frame_ns, dtype=np.int64).astype(np.float64)
    if not len(op.gauge_ns) or not len(raw):
        return raw, 1.0
    factors = np.frombuffer(op.gauge_ns, dtype=np.int64) / GAUGE_REFERENCE_NS
    at_ref = raw / factors[np.minimum(np.arange(len(raw)) // GAUGE_EVERY, len(factors) - 1)]
    return at_ref, float(raw.sum() / at_ref.sum())


def _latency_us(samples: list[np.ndarray], q: float) -> float:
    """Median over operations of each operation's q-th percentile of its frame samples (ns).

    A grid operation's samples cover all its strategies, so a change to
    any one strategy's frames moves the figure. On the stream one
    operation is one 1,200-frame session.
    """
    per_op = [np.percentile(s, q) for s in samples if len(s)]
    return _median(per_op) / 1e3 if per_op else float("nan")


def _tally(ops: list[Op], problems: list[str]) -> dict:
    """Operations attempted and failed; the run is correct only if no check failed."""
    failures = problems + [f for o in ops for f in o.failures]
    for f in failures[:5]:
        print(f"check failed: {f}", file=sys.stderr)
    failed = sum(o.failed for o in ops)
    return {"correct": not problems and failed == 0,
            "attempted": sum(o.attempted for o in ops), "failed": failed}


def untraced_result(workload, seconds: float) -> dict:
    ops = workload.untraced(seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    at_ref, factors = zip(*[frames_at_reference(o) for o in ops])
    raw = [np.frombuffer(o.frame_ns, dtype=np.int64) for o in ops]
    return {
        **_tally(ops, workload.problems),
        "ops": len(ops),
        "wall_s": _median([o.wall_s / f for o, f in zip(ops, factors)]),
        "peak_rss_mb": rss_kb / 1024.0,
        "frame_samples": sum(len(o.frame_ns) for o in ops),
        "frame_latency_p50_us": _latency_us(at_ref, 50),
        "frame_latency_p99_us": _latency_us(at_ref, 99),
        "raw": {
            "host_factor": _median(factors),
            "gauge_slices": sum(len(o.gauge_ns) for o in ops),
            "wall_s": _median([o.wall_s for o in ops]),
            "frame_latency_p50_us": _latency_us(raw, 50),
            "frame_latency_p99_us": _latency_us(raw, 99),
        },
    }


def traced_result(workload, seconds: float, spans_path: str) -> dict:
    plain_ops = workload.untraced(seconds / 2)
    tracer = Tracer()
    traced_ops, layers, extra = workload.traced(tracer, seconds / 2)
    mismatches = tracer.wrap("probe", layers.replay_gate_components)()
    if mismatches:
        workload.problems.append(f"gate components differ from gate_step on {mismatches} sampled calls")
    counts, profiled_frames = workload.profiled()
    tracer.write(spans_path)

    per_frame, self_per_frame = tracer.session_split_us("session", "world.step")
    decode_calls, rest = divmod(tracer.count("decoder.decode"), len(traced_ops))
    if rest:
        workload.problems.append("decode calls differ between traced operations")
    metrics = {
        name: _median(tracer.durations_us(span))
        for name, span in (
            ("world.step_us", "world.step"),
            ("decoder.encode_us", "decoder.encode"),
            ("decoder.decode_us", "decoder.decode"),
            ("decoder.readout_us", "decoder.readout"),
            ("gating.gate_us", "gating.gate"),
            ("gating.temporal_us", "gating.temporal"),
            ("gating.spatial_us", "gating.spatial"),
            ("gating.fuse_us", "gating.fuse"),
            ("gating.apply_us", "gating.apply"),
        )
    }
    metrics["decoder.decode_calls"] = decode_calls
    metrics["evaluation.session_us_per_frame"] = _median(per_frame)
    metrics["evaluation.self_us_per_frame"] = _median(self_per_frame)
    for mod in ("linalg", "decoder", "gating", "world", "numpy"):
        metrics[f"{mod}.calls_per_frame"] = counts.get(mod, 0) / profiled_frames
    metrics["linalg.coercions_per_frame"] = counts.get("coercions", 0) / profiled_frames
    metrics.update(extra)
    metrics["trace.overhead_s"] = (
        _median([o.wall_s for o in traced_ops]) - _median([o.wall_s for o in plain_ops])
    )
    return {**_tally(plain_ops + traced_ops, workload.problems), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("ablate-grid", "degrade-long", "stream-drift"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.workload == "stream-drift":
        workload = StreamWorkload(args.seed, args.out_dir)
    else:
        workload = GridWorkload(args.workload, args.seed, args.out_dir)
    emit({"event": "ready"})
    if args.setup_only:
        return 0
    if args.trace:
        spans = os.path.join(args.out_dir, f"{args.workload}-spans.jsonl")
        result = traced_result(workload, args.seconds, spans)
    else:
        result = untraced_result(workload, args.seconds)
    emit({"event": "result", **result})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
