"""Benchmark of streamgate: one workload per run, measured in fresh processes.

    python3 perfbench/run.py --workload ablate-grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. The workload runs in its own
single-threaded process (BLAS and OpenMP threads set to 1) that imports
the package from ./src. With --trace 0 the run starts SETUP_SAMPLES
processes that only set up, half before and half after the measuring
one, so setup_s is a median over set-ups spread across the run; the
measuring process runs the workload for --seconds, and the run prints the
end-to-end metrics. With --trace 1 it
prints the per-layer metrics of a traced run instead and writes the spans
to .perfbench-out/. Metric names and units come from BENCHMARK.json. The
last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("ablate-grid", "degrade-long", "stream-drift")
SETUP_SAMPLES = 8  # set-up-only processes per run, plus the measuring one
RUN_LIMIT_S = 170.0  # every process of a run is killed past this point
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its result record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--out-dir", OUT_DIR]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if status != 0 or json.loads(ready or "{}").get("event") != "ready":
        raise ChildError(f"worker {' '.join(args)} exited with status {status}")
    lines = [json.loads(line) for line in rest.splitlines() if line.strip()]
    return ready_s, (lines[-1] if lines else None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "streamgate", "__init__.py")):
        print(f"error: no streamgate sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setup_only = common + ["--trace", "0", "--setup-only"]
    half = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        setups = [run_child(setup_only, deadline)[0] for _ in range(half)]
        ready_s, result = run_child(common + ["--trace", str(args.trace)], deadline)
        setups.append(ready_s)
        setups += [run_child(setup_only, deadline)[0] for _ in range(half)]
    except (ChildError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result is None or result.get("event") != "result":
        print("error: the worker printed no result", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = {name: result["metrics"][name] for name in units}
        print(f"spans: {os.path.join(OUT_DIR, args.workload + '-spans.jsonl')}")
    else:
        result["setup_s"] = statistics.median(setups)
        metrics = {name: result[name] for name in units}
        raw = result["raw"]
        print(f"{args.workload}: {result['ops']} operations, {result['frame_samples']} frame samples, "
              f"{len(setups)} set-ups, {raw['gauge_slices']} gauge slices")
        print(f"host factor = {raw['host_factor']:.4f}; raw, before dividing by the host factors: "
              f"wall_s = {raw['wall_s']:.6g} s, frame_latency_p50_us = {raw['frame_latency_p50_us']:.6g} us, "
              f"frame_latency_p99_us = {raw['frame_latency_p99_us']:.6g} us")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
