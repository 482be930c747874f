"""The benchmark's own test.

    python3 -m pytest plmbench/test_plmbench.py

Runs the command named in BENCHMARK.json from the root of the checkout, and
checks that it is repeatable: for one seed the prefix's certificate lengths,
solved share, output digest and every layer count repeat exactly, and the
layer self-times add up to the traced phase within the tracing overhead.
Also checks that the metrics match BENCHMARK.json and that the command fails
without printing a result when the program's source is absent.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT, seconds=0):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(lines[-2])["environment"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return env, result["metrics"]


def _is_count(name, unit):
    return unit == "count" or name.endswith(".calls")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_counts_repeat(workload):
    runs = [_result(_run(workload, 3, 0)) for _ in range(2)]
    (env1, m1), (env2, m2) = runs
    assert set(m1) == {m["name"] for m in SPEC["end_to_end"]}
    assert env1["prefix_digest"] == env2["prefix_digest"]
    assert env1["backend"] and env1["python"] and env1["nproc"] >= 1 and env1["seed"] == 3
    assert env1["reference_loop_ms"] > 0 and env1["measured_task_p50_ms"] > 0
    for name in ("cert_moves", "solved_frac"):
        assert m1[name]["value"] == m2[name]["value"], name
    for name, metric in m1.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_and_self_times_add_up(workload):
    runs = [_result(_run(workload, 3, 1)) for _ in range(2)]
    (env1, m1), (env2, m2) = runs
    assert set(m1) == {m["name"] for m in SPEC["per_layer"]}
    assert env1["prefix_digest"] == env2["prefix_digest"]
    for name, metric in m1.items():
        if _is_count(name, metric["unit"]):
            assert metric["value"] == m2[name]["value"], name
    for m in (m1, m2):
        phase = m["trace.phase_s"]["value"]
        untraced = phase / m["trace.overhead_ratio"]["value"]
        overhead = max(phase - untraced, 0.0)
        assert abs(phase - m["trace.self_sum_s"]["value"]) <= overhead + 1e-3


def test_fails_without_the_program():
    bare = HERE / ".work" / ("bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(WORKLOADS[0], 1, 0, cwd=bare, seconds=1)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
