"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/selftest.py        (from the checkout root)

The file name keeps it out of the default test collection: the repeat test
runs every workload's traced invocation twice (about two minutes).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def traced_counts(workload):
    """Counts of one --trace 1 run; every metric that is not a time."""
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1])["correct"]
    path = os.path.join(ROOT, ".perfbench_work", "results",
                        f"{workload}-seed{SEED}-trace1.json")
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_deterministic_counts_repeat(workload):
    """Factorizations per evaluation, Newton iterations per position, inner
    evaluations per outer evaluation, clamped rows and accepted/rejected
    steps (with every other count) match exactly between two traced runs."""
    first = traced_counts(workload)
    second = traced_counts(workload)
    assert first == second
    assert first["fem.factorizations"] > 0


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "robust-linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert r.returncode != 0
    assert r.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [["fem.newton", 0.0, 10.0, -1, {"iterations": 3}],
             ["fem.factor", 1.0, 4.0, 0, None],
             ["fem.trisolve", 4.0, 5.0, 0, None],
             ["laws.respond", 6.0, 8.0, 0, None],
             ["laws.iron", 6.5, 7.5, 3, None]]
    m = layer_metrics({"t_start": 0.0, "t_end": 12.0, "spans": spans}, 2)
    assert m["fem.self_s"] == pytest.approx(10.0 - 6.0 + 3.0 + 1.0)
    assert m["laws.self_s"] == pytest.approx(2.0)
    assert m["laws.iron_s"] == pytest.approx(1.0)
    assert m["other.self_s"] == pytest.approx(2.0)
    assert m["fem.newton.iterations"] == 3
    assert m["fem.factorizations_per_eval"] == 0.5
