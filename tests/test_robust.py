"""Uncertainty sets, projected-gradient inner loop, worst-case evaluator."""
from __future__ import annotations

import numpy as np
import pytest

from rtopt import machine
from rtopt.errors import ConfigurationError, SolverError, UsageError
from rtopt.fem import newton_summary
from rtopt.levelset import LevelSetOptions, NominalEvaluator, optimize_nominal
from rtopt.machine import MachineProblem, MaterialSpec, Scenario
from rtopt.robust import (GAMMA, MEMO_LIMIT, TAU_MAX, TAU_MIN, BallSet,
                          InnerParams, IntervalSet, ParameterObjective,
                          RobustEvaluator, inner_maximize)
from rtopt.topderiv import ExteriorConfig, ExteriorProblem, precompute_tables


def test_interval_basics():
    s = IntervalSet([np.deg2rad(-9.0)], [np.deg2rad(21.0)])
    assert s.dim == 1 and s.lower[0] < s.upper[0]
    q = s.project(np.array([np.deg2rad(30.0)]))
    assert q[0] == pytest.approx(np.deg2rad(21.0))
    assert s.contains(q)
    assert not s.contains(np.array([np.deg2rad(-10.0)]))
    g = s.grid(31)
    assert g.shape == (31, 1)
    assert g[0, 0] == np.deg2rad(-9.0) and g[-1, 0] == np.deg2rad(21.0)
    lo, hi = s.start_points()
    lo[0] = 99.0                                  # copies, not views
    assert s.lower[0] == np.deg2rad(-9.0)


def test_interval_validation():
    with pytest.raises(ConfigurationError):
        IntervalSet([1.0], [0.5])
    with pytest.raises(ConfigurationError):
        IntervalSet([0.0, 1.0], [2.0])
    with pytest.raises(ConfigurationError):
        IntervalSet([np.inf], [np.inf])
    with pytest.raises(UsageError):
        IntervalSet([0.0, 0.0], [1.0, 1.0]).grid(5)


def test_singleton_set():
    s = IntervalSet(2.2, 2.2)
    assert s.lower[0] == s.upper[0] == 2.2
    assert s.project(np.array([9.0]))[0] == 2.2
    a, b = s.start_points()
    assert np.array_equal(a, b)


def test_ellipsoid_isotropic_projection():
    s = BallSet([0.0, 0.0], 1.0)
    assert s.dim == 2
    p = s.project(np.array([3.0, 4.0]))
    assert np.allclose(p, [0.6, 0.8], atol=1e-12)
    inside = np.array([0.2, -0.1])
    assert np.array_equal(s.project(inside), inside)
    assert s.project(inside) is not inside
    assert s.contains(p, 1e-9)
    assert not s.contains(np.array([0.8, 0.8]))
    # the ascent from the centre finds the worst case (see the oracle test)
    (start,) = s.start_points()
    assert np.array_equal(start, s.center)
    start[0] = 99.0                               # a copy, not a view
    assert s.center[0] == 0.0

    center = np.array([1.0, -2.0])
    s = BallSet(center, 0.5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = center + 3.0 * rng.standard_normal(2)
        p = s.project(q)
        assert s.contains(p, 1e-9)
        # idempotent and non-expansive, as a Euclidean projection must be
        assert np.allclose(s.project(p), p, atol=1e-12)
        q2 = center + 3.0 * rng.standard_normal(2)
        lhs = np.linalg.norm(s.project(q) - s.project(q2))
        assert lhs <= np.linalg.norm(q - q2) * (1 + 1e-12) + 1e-12


class Quad1D:
    """f(q) = 1 - (q - 0.3)^2 on the line, counted evaluations."""

    def __init__(self):
        self.n_evaluations = 0

    def value(self, q):
        self.n_evaluations += 1
        return 1.0 - float((q[0] - 0.3) ** 2)

    def value_grad(self, q):
        return self.value(q), np.array([-2.0 * (q[0] - 0.3)])


class Linear1D:
    def __init__(self):
        self.n_evaluations = 0

    def value(self, q):
        self.n_evaluations += 1
        return 2.0 * float(q[0])

    def value_grad(self, q):
        return self.value(q), np.array([2.0])


def test_inner_maximize_interior_optimum():
    uset = IntervalSet([0.0], [1.0])
    res = inner_maximize(Quad1D(), uset, uset.start_points())
    assert abs(res.q_star[0] - 0.3) <= 1e-3
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert uset.contains(res.q_star)


def test_inner_maximize_boundary_optimum():
    uset = IntervalSet([0.0], [1.0])
    res = inner_maximize(Linear1D(), uset, uset.start_points())
    assert res.q_star[0] == 1.0
    assert res.value == 2.0


def test_inner_maximize_dedups_starts():
    uset = IntervalSet([0.0], [1.0])
    a = Quad1D()
    inner_maximize(a, uset, [np.array([0.0]), np.array([0.0]),
                             np.array([1.0])])
    b = Quad1D()
    inner_maximize(b, uset, [np.array([0.0]), np.array([1.0])])
    assert a.n_evaluations == b.n_evaluations


class RecordingQuad1D(Quad1D):
    """Quad1D that logs every point where its gradient is asked."""

    def __init__(self):
        super().__init__()
        self.points = []

    def value_grad(self, q):
        self.points.append(float(q[0]))
        return super().value_grad(q)


def test_inner_maximize_sufficient_increase_audit():
    # the ascent asks for the gradient at its start and after every accepted
    # step, so consecutive gradient points are accepted steps q -> trial.
    # The set is symmetric about the maximizer 0.3, so the first trial from
    # either end (tau = 1 reflects q about 0.3) lands inside it and no trial
    # is projected: tau = move / gradient
    params = InnerParams()
    uset = IntervalSet([-0.2], [0.8])
    steps = 0
    for start in uset.start_points():
        f = RecordingQuad1D()
        inner_maximize(f, uset, [start], params)
        for q, trial in zip(f.points, f.points[1:]):
            assert uset.lower[0] < trial < uset.upper[0]
            move = trial - q
            tau = move / (-2.0 * (q - 0.3))
            assert TAU_MIN <= tau <= TAU_MAX
            gain = f.value([trial]) - f.value([q])
            assert gain >= (GAMMA / tau) * move ** 2 - 1e-15
            steps += 1
    assert steps >= 2


class Broken:
    """An objective whose every solve fails, recording where it was asked."""

    def __init__(self):
        self.n_evaluations = 0
        self.calls = []

    def value(self, q):
        self.calls.append(np.asarray(q, dtype=float).copy())
        raise SolverError("state solve diverged")

    value_grad = value


def test_inner_maximize_all_starts_fail():
    with pytest.raises(SolverError):
        inner_maximize(Broken(), IntervalSet([0.0], [1.0]),
                       [np.array([0.5])])


def _tried_after_a_worst_case(problem, tables, uset):
    """Points a failing objective is asked at, once the evaluator has found
    the worst case of another design: the set alone picks the starts."""
    rob = RobustEvaluator(problem, tables["iron_to_air"],
                          tables["air_to_iron"], uset)
    design = np.ones(len(problem.design_elements), dtype=bool)
    rob.worst_case(ParameterObjective(problem, design))
    broken = Broken()
    with pytest.raises(SolverError, match="all inner-maximization starts"):
        rob.worst_case(broken)
    return [q.tobytes() for q in broken.calls]


def test_worst_case_tries_each_start_once(toy_problem, linear_tables,
                                          phase_set):
    # the interval's two ends, each asked once
    tried = _tried_after_a_worst_case(toy_problem, linear_tables, phase_set)
    assert tried == [q.tobytes() for q in phase_set.start_points()]


def test_ball_worst_case_tries_the_centre_once(toy_problem, linear_tables):
    ball = BallSet(toy_problem.scenario.q_hat, np.deg2rad(10.0))
    tried = _tried_after_a_worst_case(toy_problem, linear_tables, ball)
    assert tried == [ball.center.tobytes()]


def test_inner_params_validation():
    with pytest.raises(ConfigurationError):
        inner_maximize(Quad1D(), IntervalSet([0.0], [1.0]),
                       [np.array([0.5])], InnerParams(step_tol=0.0))
    with pytest.raises(ConfigurationError):
        InnerParams(max_iterations=0)


def test_parameter_objective_memo(toy_problem):
    rng = np.random.default_rng(14)
    design = rng.random(len(toy_problem.design_elements)) > 0.5
    obj = ParameterObjective(toy_problem, design)
    q = np.array([np.deg2rad(-55.0)])
    v1 = obj.value(q)
    v2 = obj.value(q.copy())
    assert v1 == v2 and obj.n_evaluations == 1
    v3, g = obj.value_grad(q)
    assert v3 == v1 and obj.n_evaluations == 1
    assert g.shape == (1,)
    obj.value(np.array([np.deg2rad(-50.0)]))
    assert obj.n_evaluations == 2


def test_parameter_objective_memo_evicts_oldest_q(toy_problem):
    # the memo holds the MEMO_LIMIT most recently solved q
    design = np.ones(len(toy_problem.design_elements), dtype=bool)
    obj = ParameterObjective(toy_problem, design)
    qs = np.deg2rad(np.linspace(-75.0, -45.0, MEMO_LIMIT + 1))[:, None]
    for q in qs:
        obj.value(q)
    assert obj.n_evaluations == MEMO_LIMIT + 1
    obj.value(qs[0])
    assert obj.n_evaluations == MEMO_LIMIT + 2
    obj.value(qs[-1])
    assert obj.n_evaluations == MEMO_LIMIT + 2


def test_new_q_starts_from_nearest_solved_q(toy_mesh, monkeypatch):
    # saturating iron: each position of a new q starts Newton from the state
    # of the nearest q already solved, and converges to the cold solution
    starts = []
    newton_solve = machine.newton_solve

    def spy(*args, **kwargs):
        starts.append(kwargs["u0"])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(machine, "newton_solve", spy)
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(name="DIST", n_positions=2,
                                      q_hat=np.full(9, 2.2)))
    design = np.random.default_rng(6).random(len(problem.design_elements)) > 0.5
    obj = ParameterObjective(problem, design)
    far, near, new = np.full(9, 2.5), np.full(9, 2.2), np.full(9, 2.25)
    obj.value(far)
    obj.value(near)
    del starts[:]
    warm = obj.solution_pack(new)[0]
    assert all(u0 is u for u0, u in zip(starts, obj.solution_pack(near)[0],
                                        strict=True))
    del starts[:]
    cold = problem.states(design, new)
    assert starts[0] is None
    tol = problem.solver.newton_tol
    for uw, uc in zip(warm, cold):
        assert np.linalg.norm(uw - uc) <= 10 * tol * np.linalg.norm(uc)


def test_new_design_starts_from_previous_design(toy_mesh, monkeypatch):
    # position 0 of a new design starts at the previous design's position 0
    # of the nearest q, positions 1... chain; once the design has solved a q
    # of its own, that q's states win
    starts = []
    newton_solve = machine.newton_solve

    def spy(*args, **kwargs):
        starts.append(kwargs["u0"])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(machine, "newton_solve", spy)
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(name="DIST", n_positions=2,
                                      q_hat=np.full(9, 2.2)))
    rng = np.random.default_rng(8)
    n = len(problem.design_elements)
    old = ParameterObjective(problem, rng.random(n) > 0.5)
    far, near, new = np.full(9, 2.5), np.full(9, 2.2), np.full(9, 2.25)
    old.value(far)
    old.value(near)
    previous = old.position0()
    assert np.array_equal([q for q, _ in previous], [far, near])
    obj = ParameterObjective(problem, rng.random(n) > 0.5, previous)
    del starts[:]
    states = obj.solution_pack(new)[0]
    assert starts[0] is previous[1][1][0]
    assert starts[1] is states[0]
    del starts[:]
    obj.value(far)
    assert starts[0] is states[0] and starts[1] is states[1]


@pytest.fixture(scope="module")
def saturating_tables():
    return precompute_tables(MaterialSpec(), ExteriorProblem(ExteriorConfig(
        radius=64.0, target_nodes=1500, t_max=5.0, n_t=6)))


def test_descent_warm_start_keeps_cold_path(toy_mesh, saturating_tables,
                                            monkeypatch):
    # each new design starts Newton from the previous design's states: the
    # same trials are accepted and rejected as with cold first positions,
    # and J ends within the Newton tolerance
    def run():
        problem = MachineProblem(toy_mesh, MaterialSpec(),
                                 Scenario(name="NOM", n_positions=2))
        psi0 = np.random.default_rng(0).standard_normal(
            len(problem.design_nodes))
        result = optimize_nominal(problem, saturating_tables["iron_to_air"],
                                  saturating_tables["air_to_iron"], psi0,
                                  LevelSetOptions(max_iterations=4))
        return result, newton_summary(problem.newton_log), problem.solver

    warm, warm_counts, solver = run()
    monkeypatch.setattr(ParameterObjective, "position0", lambda self: [])
    cold, cold_counts, _ = run()
    accepted = [row.accepted for row in warm.trace]
    assert warm.iterations >= 3 and not all(accepted)
    assert accepted == [row.accepted for row in cold.trace]
    tol = 10 * solver.newton_tol
    assert abs(warm.value - cold.value) <= tol * abs(cold.value)
    # only the first design's position 0 starts from zero
    assert warm_counts["solves"] == cold_counts["solves"] == 2 * warm.evaluations
    assert warm_counts["warm_starts"] == warm_counts["solves"] - 1
    assert cold_counts["warm_starts"] == warm.evaluations
    assert warm_counts["rejected_trials"] < cold_counts["rejected_trials"]


def test_objective_keeps_no_design_history(toy_mesh, saturating_tables):
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(name="NOM", n_positions=2))
    rng = np.random.default_rng(5)
    design = rng.random(len(problem.design_elements)) > 0.5
    value, states = problem.objective(design)
    ev = NominalEvaluator(problem, saturating_tables["iron_to_air"],
                          saturating_tables["air_to_iron"])
    for _ in range(2):
        ev.field(rng.random(len(problem.design_elements)) > 0.5)
    again, states_again = problem.objective(design)
    assert again == value
    assert all(np.array_equal(a, b) for a, b in zip(states, states_again,
                                                    strict=True))


def test_ball_worst_case_matches_axis_multistart(toy_mesh, saturating_tables):
    # a ball offers its centre q_hat alone: the ascent from it finds the
    # maximizer that ascents from the 2 * dim axis points and q_hat find,
    # with at most a fifth of the calls. Every ascent stops
    # once a step moves q by less than step_tol, so the oracle's own ascents
    # disagree in J; that spread bounds the J gap.
    ball = BallSet(np.full(9, 2.2), 0.3)
    problem = MachineProblem(toy_mesh, MaterialSpec(),
                             Scenario(name="DIST", n_positions=1,
                                      q_hat=ball.center.copy()))
    ev = RobustEvaluator(problem, saturating_tables["iron_to_air"],
                         saturating_tables["air_to_iron"], ball)
    params = ev.inner_params
    axes = ball.radius * np.eye(ball.dim)
    oracle_starts = [*(ball.center + axes), *(ball.center - axes), ball.center]
    rng = np.random.default_rng(3)
    n = len(problem.design_elements)
    designs = [np.ones(n, dtype=bool)] + [rng.random(n) > f for f in (0.15, 0.5)]
    for design in designs:
        objective = ParameterObjective(problem, design)
        q = ev.worst_case(objective)
        value = objective.value(q)
        oracle = ParameterObjective(problem, design)
        ends = [inner_maximize(oracle, ball, [s], params) for s in oracle_starts]
        best = max(ends, key=lambda wc: wc.value)
        spread = best.value - min(wc.value for wc in ends)
        assert np.linalg.norm(q - best.q_star) <= params.step_tol
        assert best.value - value <= max(spread, 1e-8 * abs(value))
        assert 5 * objective.n_evaluations <= oracle.n_evaluations


def test_singleton_robust_matches_nominal(toy_problem, linear_tables):
    rng = np.random.default_rng(21)
    psi = rng.standard_normal(len(toy_problem.design_nodes))
    psi /= np.linalg.norm(psi)
    i2a = linear_tables["iron_to_air"]
    a2i = linear_tables["air_to_iron"]
    nom = NominalEvaluator(toy_problem, i2a, a2i)(psi)
    q_hat = toy_problem.scenario.q_hat
    rob = RobustEvaluator(toy_problem, i2a, a2i, IntervalSet(q_hat, q_hat))(psi)
    assert rob.value == nom.value
    assert np.array_equal(rob.sensitivity, nom.sensitivity)
    assert np.array_equal(rob.q_star, nom.q_star)


def test_robust_evaluator_rejects_outside_nominal(toy_problem, linear_tables):
    bad = IntervalSet([0.0], [0.1])
    with pytest.raises(ConfigurationError):
        RobustEvaluator(toy_problem, linear_tables["iron_to_air"],
                        linear_tables["air_to_iron"], bad)


@pytest.fixture
def solve_calls(monkeypatch):
    """Parameter vectors of every MachineProblem objective and adjoint call."""
    calls = {"objective": [], "adjoints": []}
    for name in calls:
        raw = getattr(MachineProblem, name)

        def counted(self, design, q=None, *args, _raw=raw, _name=name,
                    **kwargs):
            calls[_name].append(np.asarray(q, dtype=float).copy())
            return _raw(self, design, q, *args, **kwargs)

        monkeypatch.setattr(MachineProblem, name, counted)
    return calls


def test_nominal_evaluation_solves_once(toy_problem, linear_tables,
                                        solve_calls):
    psi = np.ones(len(toy_problem.design_nodes))
    ev = NominalEvaluator(toy_problem, linear_tables["iron_to_air"],
                          linear_tables["air_to_iron"])(psi)
    assert len(solve_calls["objective"]) == 1
    assert len(solve_calls["adjoints"]) == 1
    assert np.array_equal(ev.q_star, toy_problem.scenario.q_hat)


def test_robust_evaluation_solves_each_q_once(toy_problem, linear_tables,
                                              phase_set, solve_calls):
    objectives = []

    class Recording(RobustEvaluator):
        def worst_case(self, objective):
            objectives.append(objective)
            return super().worst_case(objective)

    psi = np.ones(len(toy_problem.design_nodes))
    Recording(toy_problem, linear_tables["iron_to_air"],
              linear_tables["air_to_iron"], phase_set)(psi)
    (objective,) = objectives
    qs = [q.tobytes() for q in solve_calls["objective"]]
    assert objective.n_evaluations > 1
    assert len(qs) == objective.n_evaluations
    assert len(set(qs)) == len(qs)
