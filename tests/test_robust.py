"""Uncertainty sets, projected-gradient inner loop, worst-case evaluator."""
from __future__ import annotations

import numpy as np
import pytest

from rtopt.errors import ConfigurationError, SolverError, UsageError
from rtopt.levelset import NominalEvaluator
from rtopt.machine import MachineProblem
from rtopt.robust import (BallSet, InnerParams, IntervalSet,
                          ParameterObjective, RobustEvaluator, inner_maximize)


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
    starts = s.start_points()
    assert np.array_equal(np.stack(starts),
                          [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

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


def test_inner_maximize_sufficient_increase_audit():
    params = InnerParams()
    uset = IntervalSet([0.0], [1.0])
    res = inner_maximize(Quad1D(), uset, uset.start_points(), params)
    assert res.accepted_steps
    for q_from, q_to, gain, tau in res.accepted_steps:
        move = float((q_to - q_from) @ (q_to - q_from))
        assert gain >= (params.gamma / tau) * move - 1e-15


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


def test_worst_case_tries_each_start_once(toy_problem, linear_tables,
                                          phase_set):
    rob = RobustEvaluator(toy_problem, linear_tables["iron_to_air"],
                          linear_tables["air_to_iron"], phase_set)
    broken = Broken()
    with pytest.raises(SolverError, match="all inner-maximization starts"):
        rob.worst_case(broken)
    # the set's two ends and the nominal q, each asked once
    tried = [q.tobytes() for q in broken.calls]
    assert len(tried) == len(set(tried)) == 3


def test_inner_params_validation():
    with pytest.raises(ConfigurationError):
        inner_maximize(Quad1D(), IntervalSet([0.0], [1.0]),
                       [np.array([0.5])], InnerParams(gamma=0.9))
    with pytest.raises(ConfigurationError):
        InnerParams(tau_min=0.5, tau_max=0.1).validate()


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
    assert ev.inner_iterations == 0
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
