"""Machine problem assembly: sources, torque probe, states, design mapping."""
from __future__ import annotations

import numpy as np
import pytest

from rtopt import laws, machine
from rtopt.errors import ConfigurationError, UsageError
from rtopt.fem import adjoint_solve, newton_summary
from rtopt.laws import K_F, MU0
from rtopt.machine import (POLE_PAIRS, ROTOR_BLOCKS, MachineProblem,
                           MaterialSpec, Scenario, TorqueProbe)
from rtopt.mesh import COILS


def test_phase_advance_matches_position_advance(toy_problem):
    # the sources depend on alpha and phase only through p*alpha + phase
    delta = 0.07
    q = np.array([0.31])
    a = toy_problem.source_density(0.25 + delta, q)
    b = toy_problem.source_density(0.25, q + POLE_PAIRS * delta)
    assert np.allclose(a, b, atol=1e-9 * machine.J_PEAK)


def test_three_phase_currents_balance(toy_problem):
    mesh = toy_problem.mesh
    q = np.array([0.13])
    for alpha in (0.0, 0.11, 0.26):
        j = toy_problem.source_density(alpha, q)
        total = 0.0
        for name, _, _, sign in COILS:
            e = mesh.elements_in(name)[0]
            total += j[e] / sign
        assert abs(total) <= 1e-9 * machine.J_PEAK


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
    g = probe.torque_gradient(u)
    eps = 1e-6
    fd = (probe.torque(u + eps * d) - probe.torque(u - eps * d)) / (2 * eps)
    assert float(g @ d) == pytest.approx(fd, rel=1e-8)


def test_torque_probe_radius_must_stay_in_gap(toy_problem):
    with pytest.raises(ConfigurationError):
        TorqueProbe(toy_problem.space, 0.06, 64)
    with pytest.raises(ConfigurationError):
        TorqueProbe(toy_problem.space, 0.0505, 4)


SOURCE_CASES = {
    "ANG": Scenario(name="ANG", n_positions=3, q_hat=np.array([0.31])),
    "SCAL": Scenario(name="SCAL", n_positions=3, q_hat=np.array([2.2])),
    "DIST": Scenario(name="DIST", n_positions=3,
                     q_hat=np.full(ROTOR_BLOCKS + 1, K_F)),
}


@pytest.mark.parametrize("case", sorted(SOURCE_CASES))
def test_sources_match_the_trigonometric_form(toy_mesh, monkeypatch, case):
    # the winding's two fixed patterns reproduce J_PEAK sign sin(th + offset)
    # per slot, and the Newton load its assembled load vector
    scen = SOURCE_CASES[case]
    problem = MachineProblem(toy_mesh, MaterialSpec(), scen)
    loads = []

    def spy(space, dofmap, respond, load, *args, **kwargs):
        loads.append(load)
        return newton_solve(space, dofmap, respond, load, *args, **kwargs)

    newton_solve = machine.newton_solve
    monkeypatch.setattr(machine, "newton_solve", spy)
    problem.states(np.ones(len(problem.design_elements), dtype=bool))
    phase = scen.q_hat[0] if scen.binding == "phase" else machine.PHI0
    for alpha, load in zip(problem.alphas(), loads, strict=True):
        want = np.zeros(toy_mesh.n_elements)
        for name, _, offset, sign in COILS:
            want[toy_mesh.elements_in(name)] = machine.J_PEAK * sign * np.sin(
                POLE_PAIRS * alpha + phase + offset)
        got = problem.source_density(alpha, scen.q_hat)
        assert np.abs(got - want).max() <= 1e-13 * machine.J_PEAK
        want_load = problem.space.load_vector(want)
        assert (np.abs(load - want_load).max()
                <= 1e-13 * np.abs(want_load).max())


def test_remanence_is_the_turned_pattern(toy_mesh):
    # each magnet holds B_R e_phi, the unit vector turned by its phi, at
    # every rotor position, and every other row +0.0; the zero-flux field
    # of the state solves is nu (0 - rem), +0.0 off the magnets
    problem = MachineProblem(toy_mesh, MaterialSpec(), Scenario(n_positions=3))
    want = np.zeros((toy_mesh.n_elements, 2))
    for name, phi in zip(("magnet1", "magnet2"), machine.MAGNET_PHI):
        want[toy_mesh.elements_in(name)] = laws.B_R * np.array(
            [np.cos(phi), np.sin(phi)])
    for got, ref in ((problem._rem, want),
                     (problem._h0, problem._nu[:, None] * (0.0 - want))):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert not np.signbit(problem._h0[want == 0.0]).any()


def reference_torque(problem, u):
    """Torque, its gradient and the sum of |w B_r B_t| over the samples, as
    TorqueProbe formed them from the element flux: the samples located in
    the gap by barycentric coordinates, B_r and B_t by einsum, the gradient
    scattered by np.add.at."""
    mesh, space, probe = problem.mesh, problem.space, problem.torque_probe
    theta = np.linspace(0.0, machine.SECTOR, len(probe.weights))
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    gap = mesh.elements_in("air_gap")
    a, b, c = (mesh.vertices[mesh.triangles[gap, i]] for i in range(3))
    m1, m2 = b - a, c - a
    det = m1[:, 0] * m2[:, 1] - m1[:, 1] * m2[:, 0]
    dp = probe.radius * normals[:, None, :] - a[None]
    l1 = (dp[..., 0] * m2[:, 1] - dp[..., 1] * m2[:, 0]) / det
    l2 = (m1[:, 0] * dp[..., 1] - m1[:, 1] * dp[..., 0]) / det
    inside = (l1 >= -1e-9) & (l2 >= -1e-9) & (l1 + l2 <= 1 + 1e-9)
    elements = gap[inside.argmax(axis=1)]
    B = space.element_curl(u)[elements]
    br = np.einsum("sd,sd->s", B, normals)
    bt = np.einsum("sd,sd->s", B, tangents)
    curls = space.curls[elements]
    cn = np.einsum("sid,sd->si", curls, normals)
    ct = np.einsum("sid,sd->si", curls, tangents)
    contrib = probe.weights[:, None] * (cn * bt[:, None] + ct * br[:, None])
    grad = np.zeros(mesh.n_nodes)
    np.add.at(grad, mesh.triangles[elements].ravel(), contrib.ravel())
    terms = probe.weights * br * bt
    return float(np.dot(probe.weights, br * bt)), grad, np.abs(terms).sum()


def test_torque_matches_the_element_flux_form(toy_problem):
    problem, probe = toy_problem, toy_problem.torque_probe
    design = np.ones(len(problem.design_elements), dtype=bool)
    rng = np.random.default_rng(9)
    states = problem.states(design, PHASE + 0.4) + [
        1e-3 * rng.standard_normal(problem.mesh.n_nodes) for _ in range(3)]
    for u in states:
        # the samples' terms cancel to a torque up to 75 times smaller
        want, want_grad, scale = reference_torque(problem, u)
        assert abs(problem.torque(u) - want) <= 1e-13 * scale
        grad = probe.torque_gradient(u)
        assert np.abs(grad - want_grad).max() <= 1e-13 * np.abs(want_grad).max()
    # a batch of states as columns is the single calls, bitwise
    batch = probe.torque_gradient(np.column_stack(states))
    assert batch.shape == (problem.mesh.n_nodes, len(states))
    for k, u in enumerate(states):
        assert np.array_equal(batch[:, k], probe.torque_gradient(u))


def test_linear_objective_scales_quadratically(toy_mesh, monkeypatch):
    # without remanence the state is linear in J_PEAK, torque quadratic
    q_hat = np.array([np.deg2rad(-60.0)])
    design = None
    vals = []
    monkeypatch.setattr(laws, "B_R", 0.0)
    for scale in (1.0, 2.0):
        monkeypatch.setattr(machine, "J_PEAK", scale * 23.7e6)
        prob = MachineProblem(toy_mesh, MaterialSpec(iron_linear=True),
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
    assert np.all(knees == K_F)

    scal = MachineProblem(
        toy_mesh, MaterialSpec(),
        Scenario(name="SCAL", n_positions=1, q_hat=np.array([2.2])))
    assert np.all(scal.knee_for_elements(np.array([2.0])) == 2.0)
    # air flips score against the nominal knee, q_hat
    assert np.all(scal.knee_for_elements(scal.scenario.q_hat) == 2.2)


PHASE = np.array([np.deg2rad(-60.0)])
LINEAR_CASES = {
    "default": (Scenario(n_positions=3), None),
    "ANG": (Scenario(name="ANG", n_positions=3, q_hat=PHASE), PHASE + 0.2),
    "SCAL": (Scenario(name="SCAL", n_positions=3, q_hat=np.array([2.2])),
             np.array([2.0])),
}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_basis_matches_newton(toy_mesh, linear_spec, case):
    # Newton stays the oracle: every position solved on its own, from zero
    scen, q = LINEAR_CASES[case]
    problem = MachineProblem(toy_mesh, linear_spec, scen)
    design = np.random.default_rng(3).random(len(problem.design_elements)) > 0.5
    states = problem.states(design, q)
    adjoints = problem.adjoints(design, q, states)
    assert problem.newton_log == [] and problem.bases_built == 1
    space, dofmap = problem.space, problem.dofmap
    respond = problem.respond_factory(design, problem._q_array(q))
    for n in range(len(states)):
        u, _ = problem.solve_position(design, q, n)
        assert np.linalg.norm(states[n] - u) <= 1e-10 * np.linalg.norm(u)
        rhs = problem.torque_probe.torque_gradient(u) / len(states)
        p = adjoint_solve(space, dofmap, respond, u, rhs)
        assert np.linalg.norm(adjoints[n] - p) <= 1e-10 * np.linalg.norm(p)


def test_linear_phase_gradient_matches_fd(toy_mesh, linear_spec):
    problem = MachineProblem(toy_mesh, linear_spec,
                             Scenario(name="ANG", n_positions=3, q_hat=PHASE))
    design = np.random.default_rng(4).random(len(problem.design_elements)) > 0.5
    q = PHASE + 0.15
    grad = problem.grad_q(design, q)
    h = 1e-6
    fd = (problem.objective(design, q + h)[0]
          - problem.objective(design, q - h)[0]) / (2 * h)
    assert abs(grad[0] - fd) <= 1e-7 * abs(fd)
    assert problem.bases_built == 1             # every q shares one basis


@pytest.mark.parametrize("name, n_q", [("SCAL", 1), ("DIST", ROTOR_BLOCKS + 1)],
                         ids=["SCAL", "DIST"])
def test_linear_iron_knee_gradient_matches_fd(toy_mesh, linear_spec, name, n_q):
    # the linear iron law has no knee, so J is flat in every knee parameter
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


@pytest.mark.parametrize("name,q_hat", [
    ("ANG", [np.deg2rad(-60.0)]),
    ("SCAL", [2.0]),
    ("DIST", np.linspace(1.9, 2.5, 9))])
def test_warm_start_tolerance_is_the_residual_at_zero(toy_mesh, monkeypatch,
                                                      name, q_hat):
    # solve_position hands newton_solve respond's field at zero flux, so a
    # warm start's F(0), and with it its tolerance, is bitwise that of a
    # residual evaluated at zero
    calls = []
    newton_solve = machine.newton_solve

    def spy(space, dofmap, respond, load, h0, **kwargs):
        u, info = newton_solve(space, dofmap, respond, load, h0, **kwargs)
        calls.append((respond, load, h0, kwargs["tol"], info))
        return u, info

    monkeypatch.setattr(machine, "newton_solve", spy)
    problem = MachineProblem(toy_mesh, MaterialSpec(), Scenario(
        name=name, n_positions=3, q_hat=np.asarray(q_hat)))
    design = np.random.default_rng(23).random(len(problem.design_elements)) < 0.6
    problem.states(design)
    assert [info.warm for *_, info in calls] == [False, True, True]
    space, dofmap = problem.space, problem.dofmap
    for respond, load, h0, tol, info in calls:
        h = respond(np.zeros((toy_mesh.n_elements, 2)))[0]
        assert np.array_equal(h0, h)
        f0 = (dofmap.reduce_vector(space.flux_divergence(h))
              - dofmap.reduce_vector(load))
        assert info.tolerance == tol * max(float(np.linalg.norm(f0)), 1e-300)


def test_warm_started_positions_match_cold_solves(toy_mesh, monkeypatch):
    solves = []
    newton_solve = machine.newton_solve

    def spy(*args, **kwargs):
        u, info = newton_solve(*args, **kwargs)
        solves.append((kwargs["u0"] is not None, info))
        return u, info

    monkeypatch.setattr(machine, "newton_solve", spy)
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(n_positions=3))
    design = np.ones(len(problem.design_elements), dtype=bool)
    warm = problem.states(design)
    chained, solves[:] = solves[:], []
    cold = [problem.solve_position(design, None, n)[0] for n in range(3)]
    assert [started for started, _ in chained] == [False, True, True]
    assert [i.warm for _, i in chained + solves] == [False, True, True] + [False] * 3

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
        "rejected_trials": sum(i.rejected for i in infos), "warm_starts": 2,
        "residuals": sum(i.evaluations for i in infos)}
    # one residual at the start, warm or cold (F(0) of a warm start comes
    # from h0), and one per trial step
    for info in infos:
        assert info.evaluations == 1 + info.iterations + info.rejected

    # linear iron combines one basis per design: no Newton solve at all
    solves.clear()
    linear = MachineProblem(toy_mesh, MaterialSpec(iron_linear=True),
                            Scenario(n_positions=3))
    linear.states(design)
    assert solves == [] and linear.newton_log == []
    assert linear.bases_built == 1


@pytest.mark.parametrize("name,q_hat", [
    ("SCAL", [2.0]),
    ("DIST", np.linspace(1.9, 2.5, 9))])
def test_chained_positions_share_the_adjoint_factor(toy_mesh, factor_calls,
                                                    monkeypatch, name, q_hat):
    # position n + 1's Newton starts at u_n and factors K(u_n) first, the
    # matrix of position n's adjoint: that adjoint is solved there, bitwise
    # as with a fresh factor, and only the last position's is factored again
    n_pos = 4
    problem = MachineProblem(toy_mesh, MaterialSpec(), Scenario(
        name=name, n_positions=n_pos, q_hat=np.asarray(q_hat)))
    rng = np.random.default_rng(23)
    design = rng.random(len(problem.design_elements)) < 0.6
    q = problem.scenario.q_hat
    space, dofmap = problem.space, problem.dofmap

    def fresh(states, q):
        """Every adjoint through adjoint_solve, each factored afresh."""
        out = []
        respond = problem.respond_factory(design, q)
        for u in states:
            rhs = problem.torque_probe.torque_gradient(u) / n_pos
            out.append(adjoint_solve(space, dofmap, respond, u, rhs))
        return out

    def solved(states, q):
        """problem.adjoints and the factorizations it made."""
        calls = len(factor_calls)
        adjoints = problem.adjoints(design, q, states)
        return adjoints, len(factor_calls) - calls

    states = problem.states(design)
    newton = sum(i.iterations for i in problem.newton_log)
    assert len(factor_calls) == problem.factorizations == newton
    adjoints, made = solved(states, q)
    assert made == 1 and problem.factorizations == newton + 1
    reference = fresh(states, q)
    assert all(np.array_equal(p, r) for p, r in zip(adjoints, reference))

    # started at its own converged states, every solve converges at step 0
    # and factors nothing, so every adjoint is factored, to the same bits
    again = problem.states(design, starts=states)
    assert [i.iterations for i in problem.newton_log[-n_pos:]] == [0] * n_pos
    adjoints, made = solved(again, q)
    assert made == n_pos
    assert all(np.array_equal(p, r) for p, r in zip(adjoints, reference))

    # started at another q's states, no position chains to the one before
    q2 = q * 1.02
    near = problem.states(design, q2, starts=states)
    adjoints, made = solved(near, q2)
    assert made == n_pos
    assert all(np.array_equal(p, r) for p, r in zip(adjoints, fresh(near, q2)))
    # the shared adjoints hold for the design and q they were solved at
    # only: states of another q or design are refused, factoring nothing
    calls = len(factor_calls)
    for other_design, other_q in ((design, q2), (~design, q)):
        with pytest.raises(UsageError, match="not solved at this design and q"):
            problem.adjoints(other_design, other_q, states)
    assert len(factor_calls) == calls

    # positions at one angle: each chained start has converged already and
    # factors nothing, so its predecessor's adjoint is factored afresh
    monkeypatch.setattr(problem, "alphas", lambda: np.full(n_pos, 0.1))
    same = problem.states(design)
    chained = problem.newton_log[-n_pos + 1:]
    assert [i.iterations for i in chained] == [0] * (n_pos - 1)
    adjoints, made = solved(same, q)
    assert made == n_pos
    assert all(np.array_equal(p, r) for p, r in zip(adjoints, fresh(same, q)))


@pytest.mark.parametrize("iron_linear", [True, False], ids=["linear", "saturating"])
def test_states_are_the_record_of_their_adjoints(toy_mesh, factor_calls,
                                                 iron_linear):
    # adjoints fills the adjoints of the states they were solved from, in
    # place; a second call and grad_q after it factor nothing
    problem = MachineProblem(toy_mesh, MaterialSpec(iron_linear=iron_linear),
                             Scenario(name="ANG", n_positions=3, q_hat=PHASE))
    design = np.random.default_rng(9).random(len(problem.design_elements)) > 0.4
    q = PHASE + 0.1
    states = problem.states(design, q)
    # linear iron fills them at once, Newton all but the last position's
    assert [p is None for p in states.adjoints] == [False] * 2 + [not iron_linear]
    adjoints = problem.adjoints(design, q, states)
    assert adjoints is states.adjoints
    assert all(p is not None for p in adjoints)
    calls = len(factor_calls)
    assert problem.adjoints(design, q, states) is states.adjoints
    problem.grad_q(design, q, states)
    assert len(factor_calls) == calls


@pytest.mark.parametrize("iron_linear", [True, False], ids=["linear", "saturating"])
def test_objective_solves_each_adjoint_once(toy_mesh, linear_tables,
                                            factor_calls, monkeypatch,
                                            iron_linear):
    # within one ParameterObjective, the gradient at q and the field at q
    # read one set of adjoints: saturating iron factors only the last
    # position's, which no chained Newton step solved; linear iron none
    from rtopt.robust import ParameterObjective, robust_td_field

    solved = []
    adjoint_solve_raw = machine.adjoint_solve

    def spy(*args, **kwargs):
        solved.append(args[3])
        return adjoint_solve_raw(*args, **kwargs)

    monkeypatch.setattr(machine, "adjoint_solve", spy)
    problem = MachineProblem(toy_mesh, MaterialSpec(iron_linear=iron_linear),
                             Scenario(name="ANG", n_positions=3, q_hat=PHASE))
    design = np.random.default_rng(10).random(len(problem.design_elements)) > 0.4
    objective = ParameterObjective(problem, design)
    objective.value(PHASE)
    calls = len(factor_calls)
    objective.value_grad(PHASE)
    robust_td_field(problem, design, linear_tables["iron_to_air"],
                    linear_tables["air_to_iron"], PHASE, objective.states(PHASE))
    states = objective.states(PHASE)
    assert all(p is not None for p in states.adjoints)
    assert [id(u) for u in solved] == ([] if iron_linear else [id(states[-1])])
    assert len(factor_calls) - calls == len(solved)
