"""Acceptance criteria, one test per criterion with a visible PASS/FAIL line.

Each test prints exactly one "[criterion NN] name: PASS/FAIL" line through
the captured-output bypass so the verdicts show up in any pytest run, then
asserts the same condition.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from rtopt import robust
from rtopt.audit import tdcheck_rows
from rtopt.config import load_config
from rtopt.laws import NU0, NU_F
from rtopt.levelset import (LevelSetOptions, NominalEvaluator,
                            check_optimality, optimize_nominal)
from rtopt.machine import MachineProblem, MaterialSpec, Scenario
from rtopt.mesh import build_machine_mesh
from rtopt.robust import (IntervalSet, ParameterObjective, inner_maximize,
                          optimize_robust)
from rtopt.topderiv import (ExteriorConfig, ExteriorProblem,
                            laws_for_direction, precompute_tables)
from closed_forms import linear_corrector, truncated_corrector
from smoother_integrals import elementwise_integral, mass_matrix, nodal_integral

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

I2A_SLOPE = 2.0 * NU_F * (NU0 - NU_F) / (NU0 + NU_F)
A2I_SLOPE = -2.0 * NU0 * (NU0 - NU_F) / (NU0 + NU_F)


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def element_means(problem, psi):
    return psi[problem.design_mesh.triangles].mean(axis=1)


@pytest.fixture(scope="module")
def toy_nominal(toy_problem, linear_tables):
    t0 = time.perf_counter()
    res = optimize_nominal(toy_problem, linear_tables["iron_to_air"],
                           linear_tables["air_to_iron"],
                           np.ones(len(toy_problem.design_nodes)),
                           LevelSetOptions(max_iterations=40))
    res.elapsed = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def toy_robust(toy_problem, linear_tables, phase_set):
    t0 = time.perf_counter()
    res = optimize_robust(toy_problem, linear_tables["iron_to_air"],
                          linear_tables["air_to_iron"], phase_set,
                          np.ones(len(toy_problem.design_nodes)),
                          LevelSetOptions(max_iterations=40))
    res.elapsed = time.perf_counter() - t0
    return res


def test_criterion_01_exterior_oracle(capsys):
    t0 = time.perf_counter()
    prob = ExteriorProblem(ExteriorConfig())          # 60k nodes, radius 128
    law_in, law_out = laws_for_direction(
        "air_to_iron", MaterialSpec(iron_linear=True), knee=2.2)
    U = np.array([1.5, 0.0])
    k, _ = prob.solve_corrector(U, law_in, law_out)

    mass = mass_matrix(prob.space)
    ref = truncated_corrector(prob.mesh.vertices, prob.config.radius, U,
                              NU_F, NU0)
    err = k - ref
    rel_global = np.sqrt(err @ (mass @ err)) / np.sqrt(ref @ (mass @ ref))

    # near field against the unbounded closed form, away from the ring
    lumped = np.asarray(mass.sum(axis=1)).ravel()
    near = np.hypot(*prob.mesh.vertices.T) <= prob.config.radius / 8.0
    ref_free = linear_corrector(prob.mesh.vertices, U, NU_F, NU0)
    e2 = (k - ref_free)[near]
    rel_near = np.sqrt(lumped[near] @ e2**2) / np.sqrt(
        lumped[near] @ ref_free[near]**2)

    elapsed = time.perf_counter() - t0
    ok = rel_global <= 2e-2 and rel_near <= 2e-2 and elapsed <= 120.0
    report(capsys, 1, "exterior corrector vs closed form", ok)


def test_criterion_02_linear_slopes(capsys, linear_tables):
    ok = True
    for name, slope in (("iron_to_air", I2A_SLOPE), ("air_to_iron", A2I_SLOPE)):
        tab = linear_tables[name]
        rel = np.abs(tab.f_par[1:, 0] / (slope * tab.t[1:]) - 1.0)
        ok = ok and rel.max() <= 2e-2
        ok = ok and np.abs(tab.f_perp).max() <= 2e-2 * np.abs(tab.f_par).max()
    report(capsys, 2, "linear sensitivity slopes", ok)


def test_criterion_03_disc_flip_quotients(capsys, linear_tables):
    t0 = time.perf_counter()
    cfg = load_config(os.path.join(CONFIG_DIR, "audit3k.cfg"))
    mesh = build_machine_mesh(cfg.geometry)
    problem = MachineProblem(mesh, cfg.materials, cfg.scenario, cfg.solver)
    design = np.ones(len(problem.design_elements), dtype=bool)
    rows = tdcheck_rows(problem, design, linear_tables, cfg.seed, n_samples=5)
    elapsed = time.perf_counter() - t0

    ok = len(rows) == 15 and elapsed <= 600.0
    for i in range(5):
        rels = [rows[3 * i + j][-1] for j in range(3)]
        ok = ok and rels[0] > rels[1] > rels[2]
        ok = ok and rels[2] <= 0.10
    report(capsys, 3, "disc-flip quotient convergence", ok)


def test_criterion_04_parameter_gradients(capsys, toy_mesh):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    cases = [
        Scenario(name="ANG", n_positions=1,
                 q_hat=np.array([np.deg2rad(-60.0)])),
        Scenario(name="SCAL", n_positions=1, q_hat=np.array([2.2])),
    ]
    worst = 0.0
    for scen in cases:
        problem = MachineProblem(toy_mesh, MaterialSpec(), scen)
        design = rng.random(len(problem.design_elements)) > 0.5
        q_hat = scen.q_hat
        grad = problem.grad_q(problem.states(design, q_hat))
        for i in range(len(q_hat)):
            h = 1e-6 * max(1.0, abs(q_hat[i]))
            qp, qm = q_hat.copy(), q_hat.copy()
            qp[i] += h
            qm[i] -= h
            fd = (problem.objective(design, qp)[0]
                  - problem.objective(design, qm)[0]) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed <= 120.0
    report(capsys, 4, "parameter gradient vs finite differences", ok)


def test_criterion_05_descent_invariants(capsys):
    cfg = load_config(os.path.join(CONFIG_DIR, "yoke.cfg"))
    mesh = build_machine_mesh(cfg.geometry)
    problem = MachineProblem(mesh, cfg.materials, cfg.scenario, cfg.solver,
                             smoothing_eps=cfg.smoothing_eps)
    tables = precompute_tables(cfg.materials, ExteriorProblem(cfg.exterior),
                               cfg.table_q_range())
    geometry = problem.smoother()
    norms = []
    res = optimize_nominal(problem, tables["iron_to_air"],
                           tables["air_to_iron"],
                           cfg.psi0(len(problem.design_nodes)), cfg.levelset,
                           snapshot=lambda k, psi: norms.append(
                               geometry.norm(psi)))
    unit_sphere = np.max(np.abs(np.array(norms) - 1.0)) <= 1e-10
    accepted = [r.value for r in res.trace if r.accepted]
    decreasing = bool(np.all(np.diff(accepted) < 0))

    design = problem.design_from_levelset(res.psi)
    g_elem = NominalEvaluator(problem, tables["iron_to_air"],
                              tables["air_to_iron"]).field(design).sensitivity
    rep = check_optimality(element_means(problem, res.psi), g_elem)
    signs = res.status != "converged" or rep.agree_fraction >= 0.99

    ok = unit_sphere and decreasing and signs and res.status == "converged"
    report(capsys, 5, "descent invariants and optimality signs", ok)


def test_criterion_06_smoother_integrals(capsys, toy_problem, linear_tables):
    design = np.ones(len(toy_problem.design_elements), dtype=bool)
    g_elem = NominalEvaluator(toy_problem, linear_tables["iron_to_air"],
                              linear_tables["air_to_iron"]).field(
                                  design).sensitivity
    sm = toy_problem.smoother()
    g_nodal = sm.smooth(g_elem)
    lhs = nodal_integral(sm, g_nodal)
    rhs = elementwise_integral(sm, g_elem)
    preserved = abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)
    flat = sm.smooth(np.ones(len(toy_problem.design_elements)))
    constant = np.max(np.abs(flat - 1.0)) <= 1e-13
    report(capsys, 6, "smoother integral preservation", preserved and constant)


class ScalarFamily:
    """f(x, q) = cos x - (q - 0.3 sin x)^2, ascent oracle in q at fixed x."""

    def __init__(self, x):
        self.x = float(x)
        self.n_evaluations = 0

    def a(self):
        return 0.3 * np.sin(self.x)

    def value(self, q):
        self.n_evaluations += 1
        return float(np.cos(self.x) - (q[0] - self.a()) ** 2)

    def value_grad(self, q):
        return self.value(q), np.array([-2.0 * (q[0] - self.a())])


def test_criterion_07_frozen_worstcase_gradient(capsys, monkeypatch):
    monkeypatch.setattr(robust, "STEP_TOL", 1e-8)
    worst = 0.0
    for lo, hi in ((-1.0, 1.0), (-1.0, 0.1)):
        uset = IntervalSet([lo], [hi])

        def maximize(x):
            obj = ScalarFamily(x)
            return inner_maximize(obj, uset, uset.start_points())

        for x in (-1.2, -0.5, 0.7, 1.1):
            wc = maximize(x)
            q_star = wc.q_star[0]
            # max-function derivative frozen at the maximizer
            grad = (-np.sin(x)
                    + 2.0 * (q_star - 0.3 * np.sin(x)) * 0.3 * np.cos(x))
            h = 1e-4
            fd = (maximize(x + h).value - maximize(x - h).value) / (2 * h)
            worst = max(worst, abs(grad - fd) / max(abs(fd), 1e-30))
    report(capsys, 7, "frozen worst-case gradient", worst <= 1e-4)


def test_criterion_08_robust_grid_worst(capsys, toy_problem, phase_set,
                                        toy_nominal, toy_robust):
    t0 = time.perf_counter()
    designs = {"nominal": toy_problem.design_from_levelset(toy_nominal.psi),
               "robust": toy_problem.design_from_levelset(toy_robust.psi)}
    worst = {}
    for name, design in designs.items():
        vals = [toy_problem.objective(design, q)[0]
                for q in phase_set.grid(31)]
        worst[name] = max(vals)
    elapsed = (time.perf_counter() - t0 + toy_nominal.elapsed
               + toy_robust.elapsed)
    ok = (worst["robust"] <= worst["nominal"]
          + 5e-3 * abs(worst["nominal"])) and elapsed <= 900.0
    report(capsys, 8, "robust beats nominal at grid worst case", ok)


def test_criterion_09_singleton_reproduces_nominal(capsys, toy_problem,
                                                   linear_tables, toy_nominal):
    res = optimize_robust(toy_problem, linear_tables["iron_to_air"],
                          linear_tables["air_to_iron"],
                          IntervalSet(toy_problem.scenario.q_hat,
                                      toy_problem.scenario.q_hat),
                          np.ones(len(toy_problem.design_nodes)),
                          LevelSetOptions(max_iterations=40))

    def rows(result):
        out = []
        for line in result.trace_csv().splitlines()[1:]:
            f = line.split(",")
            del f[5]                                   # wall clock
            out.append(",".join(f))
        return out

    ok = (rows(res) == rows(toy_nominal)
          and res.status == toy_nominal.status
          and res.value == toy_nominal.value
          and np.array_equal(res.psi, toy_nominal.psi))
    report(capsys, 9, "singleton uncertainty reproduces nominal", ok)


def test_criterion_10_inner_maximizer_vs_grid(capsys, toy_problem, phase_set):
    design = np.ones(len(toy_problem.design_elements), dtype=bool)
    obj = ParameterObjective(toy_problem, design)
    starts = list(phase_set.start_points())
    starts.append(toy_problem.scenario.q_hat.copy())
    res = inner_maximize(obj, phase_set, starts)
    grid_max = max(obj.value(q) for q in phase_set.grid(31))
    ok = res.value >= grid_max - 5e-3 * abs(grid_max)
    ok = ok and phase_set.contains(res.q_star)
    report(capsys, 10, "inner maximizer vs grid sweep", ok)
