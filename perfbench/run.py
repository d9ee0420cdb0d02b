"""Benchmark of supersle: four workloads, each pass in a fresh interpreter.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload euler-batch --seed 1 --seconds 20 --trace 0

The metric names and units come from ``BENCHMARK.json`` at the root.  With
``--trace 0`` the run repeats untraced passes of the workload for
``--seconds`` seconds and reports the medians of the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics: span times and counts from the traced passes, the exact
work counts, and ``trace_overhead_frac`` (traced over untraced run time,
minus 1).  Set-up time is sampled at least ``MIN_SETUPS`` times, with extra
set-up-only interpreters when the workload's passes are fewer.

Every pass checks every operation's result; all passes of a run use the
same seed, so the files the CLI writes must have identical digests in each.
The last line of standard output is the JSON result.  Diagnostics, including
the environment block (versions, nproc, OpenBLAS build and threads, thread
variables, none of which the benchmark sets), go to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 2     # passes per run, so the output digests can be compared
MIN_SETUPS = 5     # set-up samples per run
PASS_TIMEOUT = 150.0


class BenchError(RuntimeError):
    pass


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_pass(workload, seed, work_dir, index, trace, tiny, setup_only=False):
    """One fresh interpreter; returns its record plus ``setup_s``."""
    tmp = os.path.join(work_dir, f"pass{index}")
    os.mkdir(tmp)
    result = os.path.join(work_dir, f"pass{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "workpass.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--tmp", tmp, "--result", result]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT)
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["t_ready"] - t_spawn
    record["traced"] = bool(trace)
    return record


def _layer_value(name, record, overhead):
    if name == "trace_overhead_frac":
        return overhead
    if name in record["work"]:
        return record["work"][name]
    if name in record["counts"]:
        return record["counts"][name]
    span, _, field = name.rpartition(".")
    if field not in ("s", "self_s", "calls") or not span:
        raise BenchError(f"per-layer metric {name!r} has no source")
    return record["layers"].get(span, {}).get(field, 0)


def _largest_self(record) -> str:
    layers = {k: v["self_s"] for k, v in record["layers"].items()
              if not k.startswith("op.")}
    return max(layers, key=layers.get) if layers else ""


def measure(spec, workload, seed, seconds, trace, tiny) -> dict:
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(ROOT, "src")], check=True,
                       stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT)
        index = itertools.count()
        passes = []
        t0 = time.monotonic()
        while (len(passes) < MIN_PASSES * (1 + trace)
               or time.monotonic() - t0 < seconds):
            traced = int(trace and len(passes) % 2 == 1)
            passes.append(_run_pass(workload, seed, work_dir, next(index),
                                    traced, tiny))
        setups = [p["setup_s"] for p in passes if not p["traced"]]
        while len(setups) < MIN_SETUPS:
            probe = _run_pass(workload, seed, work_dir, next(index), 0, tiny,
                              setup_only=True)
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    deterministic = all(p["digests"] == passes[0]["digests"] for p in passes)

    def median(key, group):
        return statistics.median(p[key] for p in group)

    diagnostics = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "traced_passes": len(traced), "setup_samples": len(setups),
        "pass_run_s": [round(p["run_s"], 4) for p in passes],
        "setup_s": [round(x, 4) for x in setups],
        "deterministic_outputs": deterministic,
        "output_files": len(passes[0]["digests"]),
        "failures": [f for p in passes for f in p["failures"].items()],
        "env": passes[0]["env"],
    }
    if trace:
        overhead = median("run_s", traced) / median("run_s", plain) - 1.0
        values = {}
        for m in spec["per_layer"]:
            values[m["name"]] = statistics.median(
                _layer_value(m["name"], p, overhead) for p in traced)
        metrics = spec["per_layer"]
        diagnostics["largest_self_time"] = sorted(
            {_largest_self(p) for p in traced})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": median("run_s", plain),
            "cpu_s": median("cpu_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
        metrics = spec["end_to_end"]
    print(json.dumps(diagnostics, indent=1, default=str), file=sys.stderr)
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def main(argv=None) -> int:
    spec = _load_spec()
    ap = argparse.ArgumentParser(
        description="Run one supersle benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "supersle",
                                       "__init__.py")):
        print(f"error: no supersle sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        result = measure(spec, args.workload, args.seed, args.seconds,
                         args.trace, args.tiny)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
