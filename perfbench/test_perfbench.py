"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# A layer each workload must exercise, so its traced run is not all zeros.
EXERCISED = {
    "euler-batch": "sde.pathwise_convergence.self_s",
    "one-path": "sde.loewner_flow.s",
    "mc-martingale": "sde.mc_martingale.self_s",
    "exact-algebra": "ns_algebra.VermaModule.apply.s",
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(EXERCISED)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_tiny_traced_run(workload):
    res = _result(_bench("--workload", workload, "--trace", "1", "--tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics[EXERCISED[workload]]["value"] > 0


def test_tiny_untraced_run():
    res = _result(_bench("--workload", "one-path", "--trace", "0", "--tiny"))
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "one-path", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "op.x", 0.0, 10.0, None, "x"),
        (1, "a", 1.0, 6.0, 0, "x"),
        (2, "b", 2.0, 3.0, 1, "x"),
        (3, "a", 3.5, 4.5, 1, "x"),  # recursive call inside a
    ]
    out = summarize(spans)
    assert out["op.x"]["self_s"] == pytest.approx(5.0)
    assert out["a"]["s"] == pytest.approx(5.0)
    assert out["a"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert out["a"]["calls"] == 2
    assert out["b"]["self_s"] == pytest.approx(1.0)
