"""The benchmark worker still runs against this package.

perfbench/worker.py imports names from streamgate and drives its
per-frame calls; a change that breaks either makes the benchmark exit
before it measures anything. These tests run the worker the way
perfbench/run.py does, in a subprocess, so such a break fails here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def _worker(tmp_path, *args):
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
    return [json.loads(line) for line in result.stdout.splitlines() if line.strip()]


def test_stream_worker_runs_one_checked_session(tmp_path):
    records = _worker(tmp_path, "--workload", "stream-drift", "--seed", "0", "--seconds", "0.1")
    assert records[0] == {"event": "ready"}
    result = records[-1]
    assert result["event"] == "result"
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["ops"] == 1 and result["attempted"] == 1200


@pytest.mark.parametrize("workload", ["ablate-grid", "degrade-long"])
def test_grid_worker_sets_up(tmp_path, workload):
    records = _worker(tmp_path, "--workload", workload, "--seed", "0", "--seconds", "0.1", "--setup-only")
    assert records == [{"event": "ready"}]
