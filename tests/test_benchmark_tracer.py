"""The benchmark still finds what it uses of rtopt: every function its
tracer wraps, and every name its robust-linear output check calls."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from rtopt.machine import MachineProblem, Scenario

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_sources():
    # perfbench/tracer.py patches named functions of every layer; a rename
    # or removal in src/ breaks the traced benchmark run
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "from tracer import Tracer, install\n"
            "install(Tracer())\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_robust_linear_oracle_matches_the_objective(toy_mesh, linear_spec,
                                                    phase_set, monkeypatch):
    # the robust-linear output check scores the reported worst case with
    # perfbench/workloads.py::linear_phase_objective; a removed or renamed
    # name it calls would make every robust-linear run read as incorrect
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    q_hat = np.array([np.deg2rad(-60.0)])
    problem = MachineProblem(toy_mesh, linear_spec,
                             Scenario(name="ANG", n_positions=3, q_hat=q_hat))
    design = np.random.default_rng(5).random(
        len(problem.design_elements)) > 0.5
    oracle = workloads.linear_phase_objective(problem, design)
    for q in (phase_set.lower, phase_set.upper, q_hat):
        value, _ = problem.objective(design, q)
        assert abs(oracle(q) - value) <= workloads.ORACLE_RTOL * abs(value)
