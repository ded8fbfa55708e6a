"""Machine problem assembly: sources, torque probe, states, design mapping."""
from __future__ import annotations

import numpy as np
import pytest

from rtopt import machine
from rtopt.errors import ConfigurationError, UsageError
from rtopt.fem import newton_summary
from rtopt.laws import MU0
from rtopt.machine import (COILS, POLE_PAIRS, MachineProblem, MaterialSpec,
                           Scenario, TorqueProbe)


def test_phase_advance_matches_position_advance(toy_problem):
    # the sources depend on alpha and phase only through p*alpha + phase
    delta = 0.07
    q = np.array([0.31])
    a = toy_problem.source_density(0.25 + delta, q)
    b = toy_problem.source_density(0.25, q + POLE_PAIRS * delta)
    assert np.allclose(a, b, atol=1e-9 * toy_problem.spec.j_peak)


def test_three_phase_currents_balance(toy_problem):
    mesh = toy_problem.mesh
    q = np.array([0.13])
    for alpha in (0.0, 0.11, 0.26):
        j = toy_problem.source_density(alpha, q)
        total = 0.0
        for name, _, sign in COILS:
            e = mesh.elements_in(name)[0]
            total += j[e] / sign
        assert abs(total) <= 1e-9 * toy_problem.spec.j_peak


def test_torque_constant_potential_is_zero(toy_problem):
    # constant u has zero flux; only curl-coefficient roundoff survives
    u = np.full(toy_problem.mesh.n_nodes, 3.7)
    assert abs(toy_problem.torque(u)) <= 1e-15


def test_torque_linear_potential_analytic(toy_problem):
    # u = c*x has the exact element flux (0, -c); the probe integral reduces
    # to (r^2/mu0) * (2pi/sector) * c^2 * int sin(t)cos(t) dt = 2 c^2 r^2/mu0
    c = 0.8
    u = c * toy_problem.mesh.vertices[:, 0]
    r = toy_problem.torque_probe.radius
    expected = 2.0 * c**2 * r**2 / MU0
    assert toy_problem.torque(u) == pytest.approx(expected, rel=1e-4)


def test_torque_gradient_matches_fd(toy_problem):
    rng = np.random.default_rng(5)
    u = 1e-3 * rng.standard_normal(toy_problem.mesh.n_nodes)
    d = rng.standard_normal(toy_problem.mesh.n_nodes)
    probe = toy_problem.torque_probe
    space = toy_problem.space
    g = probe.torque_gradient(space, u)
    eps = 1e-6
    fd = (probe.torque(space, u + eps * d)
          - probe.torque(space, u - eps * d)) / (2 * eps)
    assert float(g @ d) == pytest.approx(fd, rel=1e-8)


def test_torque_probe_radius_must_stay_in_gap(toy_mesh):
    with pytest.raises(ConfigurationError):
        TorqueProbe(toy_mesh, 0.06, 64)
    with pytest.raises(ConfigurationError):
        TorqueProbe(toy_mesh, 0.0505, 4)


def test_frozen_alpha_collapses_positions(toy_mesh, linear_spec):
    q_hat = np.array([np.deg2rad(-60.0)])
    kw = dict(q_hat=q_hat.copy(), frozen_alpha=0.1)
    one = MachineProblem(toy_mesh, linear_spec,
                         Scenario(name="ANG", n_positions=1, **kw))
    three = MachineProblem(toy_mesh, linear_spec,
                           Scenario(name="ANG", n_positions=3, **kw))
    design = np.ones(len(one.design_elements), dtype=bool)
    j1, _ = one.objective(design)
    j3, _ = three.objective(design)
    assert j1 == pytest.approx(j3, rel=1e-10)
    assert np.all(three.alphas() == 0.1)


def test_linear_objective_scales_quadratically(toy_mesh):
    # without remanence the state is linear in j_peak, torque quadratic
    q_hat = np.array([np.deg2rad(-60.0)])
    design = None
    vals = []
    for scale in (1.0, 2.0):
        spec = MaterialSpec(iron_linear=True, b_r=0.0, j_peak=scale * 23.7e6)
        prob = MachineProblem(toy_mesh, spec,
                              Scenario(name="ANG", n_positions=1,
                                       q_hat=q_hat.copy()))
        design = np.ones(len(prob.design_elements), dtype=bool)
        vals.append(prob.objective(design)[0])
    assert vals[1] == pytest.approx(4.0 * vals[0], rel=1e-9)


def test_design_from_levelset_rule(toy_problem):
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(len(toy_problem.design_nodes))
    design = toy_problem.design_from_levelset(psi)
    # independent recompute of the centroid rule
    full = np.zeros(toy_problem.mesh.n_nodes)
    full[toy_problem.design_nodes] = psi
    tri = toy_problem.mesh.triangles[toy_problem.design_elements]
    assert np.array_equal(design, full[tri].mean(axis=1) > 0.0)
    assert np.all(toy_problem.design_from_levelset(np.ones_like(psi)))
    assert not np.any(toy_problem.design_from_levelset(-np.ones_like(psi)))


def test_argument_validation(toy_problem):
    with pytest.raises(UsageError):
        toy_problem.objective(np.ones(5, dtype=bool))
    design = np.ones(len(toy_problem.design_elements), dtype=bool)
    with pytest.raises(UsageError):
        toy_problem.objective(design, q=np.zeros(2))
    with pytest.raises(UsageError):
        toy_problem.design_from_levelset(np.ones(3))


def test_knee_plumbing(toy_mesh, toy_problem):
    # phase binding leaves every design element at the material knee
    knees = toy_problem.knee_for_elements(toy_problem.scenario.q_hat)
    assert np.all(knees == toy_problem.spec.k_f)

    scal = MachineProblem(
        toy_mesh, MaterialSpec(),
        Scenario(name="SCAL", n_positions=1, q_hat=np.array([2.2])))
    assert np.all(scal.knee_for_elements(np.array([2.0])) == 2.0)
    # air flips score against the nominal knee regardless of the q argument
    assert np.all(scal.knee_for_elements(np.array([2.0]), air_nominal=True)
                  == 2.2)


@pytest.mark.parametrize("name", ["SCAL", "DIST"])
def test_linear_iron_knee_gradient_matches_fd(toy_mesh, linear_spec, name):
    # the linear iron law has no knee, so J is flat in every knee parameter
    n_q = Scenario(name=name).n_q
    problem = MachineProblem(toy_mesh, linear_spec,
                             Scenario(name=name, n_positions=1,
                                      q_hat=np.full(n_q, 2.2)))
    design = np.ones(len(problem.design_elements), dtype=bool)
    q_hat = problem.scenario.q_hat
    grad = problem.grad_q(design, q_hat)
    fd = np.empty(n_q)
    for i in range(n_q):
        h = 1e-6 * abs(q_hat[i])
        qp, qm = q_hat.copy(), q_hat.copy()
        qp[i] += h
        qm[i] -= h
        fd[i] = (problem.objective(design, qp)[0]
                 - problem.objective(design, qm)[0]) / (2 * h)
    scale = abs(problem.objective(design, q_hat)[0])
    assert np.all(np.abs(grad - fd) <= 1e-9 * scale)
    assert np.all(grad == 0.0)


def test_dist_knee_gradient_matches_fd(toy_mesh):
    # one knee per rotor block plus the stator's, each read by its own
    # elements only; air elements of a mixed design read none
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(name="DIST", n_positions=1,
                                      q_hat=np.full(9, 2.2)))
    rng = np.random.default_rng(5)
    design = rng.random(len(problem.design_elements)) > 0.5
    q = 2.2 + 0.1 * rng.uniform(-1.0, 1.0, 9)
    grad = problem.grad_q(design, q)
    fd = np.empty(9)
    for i in range(9):
        h = 1e-6 * q[i]
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fd[i] = (problem.objective(design, qp)[0]
                 - problem.objective(design, qm)[0]) / (2 * h)
    assert np.all(np.abs(grad - fd) <= 1e-4 * np.abs(grad).max())


def test_warm_started_positions_match_cold_solves(toy_mesh, monkeypatch):
    solves = []
    newton_solve = machine.newton_solve

    def spy(*args, **kwargs):
        u, info = newton_solve(*args, **kwargs)
        solves.append((kwargs["u0"] is not None, info))
        return u, info

    monkeypatch.setattr(machine, "newton_solve", spy)
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(name="NOM", n_positions=3))
    design = np.ones(len(problem.design_elements), dtype=bool)
    warm = problem.states(design)
    chained, solves[:] = solves[:], []
    cold = [problem.solve_position(design, None, n)[0] for n in range(3)]
    assert [started for started, _ in chained] == [False, True, True]

    tol = problem.solver.newton_tol
    for uw, uc, (_, iw), (_, ic) in zip(warm, cold, chained, solves):
        assert iw.tolerance == ic.tolerance           # same reference F(0)
        assert np.linalg.norm(uw - uc) <= 10 * tol * np.linalg.norm(uc)
    assert (sum(i.iterations for _, i in chained)
            < sum(i.iterations for _, i in solves))
    # the problem keeps every solve's record, in order
    infos = [i for _, i in chained + solves]
    assert all(a is b for a, b in zip(problem.newton_log, infos, strict=True))
    its = [i.iterations for i in infos]
    assert newton_summary(problem.newton_log) == {
        "solves": 6, "iterations": sum(its), "max_iterations": max(its),
        "rejected_trials": sum(i.rejected for i in infos)}

    # linear iron converges in one step from any start: no chaining
    solves.clear()
    linear = MachineProblem(toy_mesh, MaterialSpec(iron_linear=True),
                            Scenario(name="NOM", n_positions=3))
    linear.states(design)
    assert [started for started, _ in solves] == [False] * 3
