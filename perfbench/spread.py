"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 perfbench/spread.py --runs 10 --seed-base 100 --label set-a
    python3 perfbench/spread.py --compare .perfbench-out/spread-set-a.json .perfbench-out/spread-set-b.json

Run i uses seed seed-base + i and visits the workloads in an order rotated
by that seed, so no workload always runs first or last, and sets with
seed bases that differ modulo the number of workloads start on different
workloads. For every end-to-end
metric of every workload it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json. --compare prints how far each median of the
second set lies from the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def collect(bench: dict, runs: int, seed_base: int) -> dict:
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(runs):
        seed = seed_base + i
        order = workloads[seed % len(workloads):] + workloads[:seed % len(workloads)]
        for workload in order:
            out = run_once(bench, workload, seed)
            results[workload].append(out)
            print(f"run {i} {workload}: " + " ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in out["metrics"].items()
            ) + f" failed={out['failed']}/{out['attempted']}", flush=True)
    report = {}
    for workload, outs in results.items():
        report[workload] = {
            "failed_share": [o["failed"] / o["attempted"] for o in outs],
            "correct": all(o["correct"] for o in outs),
            "metrics": {
                m["name"]: summarize([o["metrics"][m["name"]]["value"] for o in outs])
                for m in bench["end_to_end"]
            },
        }
    return report


def print_report(bench: dict, report: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, rec in report.items():
        print(f"{workload}: correct={rec['correct']} failed shares={sorted(set(rec['failed_share']))}")
        for name, s in rec["metrics"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (above a third of the bound)"
            print(f"  {name:22s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f} bound {bounds[name]}{flag}")


def compare(bench: dict, first: dict, second: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in first:
        for name in first[workload]["metrics"]:
            a = first[workload]["metrics"][name]["median"]
            b = second[workload]["metrics"][name]["median"]
            shift = (b - a) / a
            flag = "" if abs(shift) <= bounds[name] else "  (beyond the bound)"
            print(f"{workload:13s} {name:22s} {a:<12.6g} -> {b:<12.6g} shift {shift:+.3f} bound {bounds[name]}{flag}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--label", default="latest")
    p.add_argument("--compare", nargs=2, metavar="SPREAD_JSON")
    args = p.parse_args(argv)
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        compare(bench, *sets)
        return 0
    report = collect(bench, args.runs, args.seed_base)
    print_report(bench, report)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spread-{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
