"""The benchmark still finds what it uses of rtopt: every function its
tracer wraps, every name its robust-linear output check calls, and the
solve calls its launcher marks; and every workload passes its output check."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtopt.cli import main
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
                                                    phase_set,
                                                    perfbench_workloads):
    # the robust-linear output check scores the reported worst case with
    # perfbench/workloads.py::linear_phase_objective; a removed or renamed
    # name it calls would make every robust-linear run read as incorrect
    workloads = perfbench_workloads
    q_hat = np.array([np.deg2rad(-60.0)])
    problem = MachineProblem(toy_mesh, linear_spec,
                             Scenario(name="ANG", n_positions=3, q_hat=q_hat))
    design = np.random.default_rng(5).random(
        len(problem.design_elements)) > 0.5
    oracle = workloads.linear_phase_objective(problem, design)
    for q in (phase_set.lower, phase_set.upper, q_hat):
        value, _ = problem.objective(design, q)
        assert abs(oracle(q) - value) <= workloads.ORACLE_RTOL * abs(value)


def launch(tmp_path, mode, *cli_args):
    """Run perfbench/launch.py on one CLI command; its exit code and marks."""
    marks = tmp_path / "marks.json"
    marks.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "RTOPT_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), mode,
         str(marks), *cli_args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120)
    return done, json.loads(marks.read_text())


def test_launcher_marks_the_solve_of_every_command(tmp_path):
    # perfbench/launch.py times the solve by patching the entry points the
    # CLI calls; a command that reached its solve another way would leave a
    # mark unset, and every benchmark run would read as failed
    text = (ROOT / "configs" / "toy.cfg").read_text()
    for old, new in (("exterior_target_nodes = 4000", "exterior_target_nodes = 500"),
                     ("n_t = 13", "n_t = 4"),
                     ("max_iterations = 40", "max_iterations = 1"),
                     ("directory = runs/toy", "directory = out")):
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "tiny.cfg").write_text(text)

    done, marks = launch(tmp_path, "plain", "precompute-td", "tiny.cfg")
    assert done.returncode == 0, done.stderr
    assert marks["solve_start"] is not None and marks["solve_end"] is not None
    for mode in ("nominal", "robust"):
        done, marks = launch(tmp_path, "setup", "optimize", "tiny.cfg",
                             "--mode", mode)
        assert done.returncode == 0, done.stderr
        assert marks["solve_start"] is not None


BENCHMARK_WORKLOADS = ("nominal-nonlinear", "robust-linear", "tables-knee")


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_output_checks_pass(tmp_path, perfbench_workloads, name):
    # a benchmark run whose artifacts fail perfbench/workloads.py::Checker
    # reads as incorrect; run each workload's command at seed 1 in process
    workloads = perfbench_workloads
    assert set(workloads.WORKLOADS) == set(BENCHMARK_WORKLOADS)
    workload = workloads.WORKLOADS[name]
    path, outdir = str(tmp_path / "run.cfg"), str(tmp_path / "out")
    workload.write_config(path, 1, outdir)
    if workload.needs_tables:
        assert main(["precompute-td", path]) == 0
    assert main(workload.cli_args(path)) in (0, 4)
    assert workloads.missing_artifacts(workload, outdir) == []
    outcome = workloads.read_outcome(workload, outdir)
    assert workloads.Checker(workload, path).check(outdir, outcome) == []


# Newton records of each workload's command at seed 1, solve by solve:
# (iterations, rejected trials, warm start); a change to the tangent's
# assembly or to F(0) that moved a Newton path would show here
WORKLOAD_NEWTON = {
    "nominal-nonlinear": [(14, 20, False)] + [
        (its, 0, True) for its in (7, 7, 11, 6, 9)],
    "robust-linear": [],
    "tables-knee": [
        (its, 0, n % 9 > 0) for n, its in enumerate(
            (11, 4, 3, 4, 4, 3, 3, 4, 3, 4, 2, 1, 3, 2, 2, 3, 2, 2))],
}


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_workload_newton_records_pinned(tmp_path, monkeypatch,
                                        perfbench_workloads, name):
    from rtopt import machine, topderiv

    workload = perfbench_workloads.WORKLOADS[name]
    path = str(tmp_path / "run.cfg")
    workload.write_config(path, 1, str(tmp_path / "out"))
    if workload.needs_tables:
        assert main(["precompute-td", path]) == 0
    infos = []
    for module in (machine, topderiv):
        def spy(*args, solve=module.newton_solve, **kwargs):
            u, info = solve(*args, **kwargs)
            infos.append(info)
            return u, info
        monkeypatch.setattr(module, "newton_solve", spy)
    assert main(workload.cli_args(path)) in (0, 4)
    assert [(i.iterations, i.rejected, i.warm)
            for i in infos] == WORKLOAD_NEWTON[name]
    # one residual at the start of each solve and one per trial step: the
    # F(0) of a warm start costs none
    assert [i.evaluations for i in infos] == [
        1 + its + rejected for its, rejected, _ in WORKLOAD_NEWTON[name]]
