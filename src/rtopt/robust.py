"""Worst-case robust optimization over a convex parameter set.

The uncertainty set is an interval (the load angle of ANG, the shared knee
of SCAL) or a Euclidean ball around the nominal knees (DIST). The outer
loop and the evaluator are the nominal ones; the only difference is where
q comes from: each iterate first maximizes the objective over the set with
a projected-gradient ascent (multi-start, warm-started from the previous
worst case), and the sensitivity field is the one of the plain objective
frozen at the maximizer. For a locally Lipschitz max-function with a unique
maximizer that frozen gradient is the generalized gradient, so no
subdifferential machinery is needed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError, UsageError
from .levelset import NominalEvaluator, drive

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# uncertainty sets

class IntervalSet:
    """Axis-aligned box {q : lower <= q <= upper}."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ConfigurationError("interval bounds must be equal-length vectors")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ConfigurationError("interval bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ConfigurationError("interval lower bound exceeds upper bound")

    @property
    def dim(self):
        return len(self.lower)

    def project(self, q):
        q = np.asarray(q, dtype=float)
        return np.clip(q, self.lower, self.upper)

    def contains(self, q, tol=1e-12):
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.lower - tol) and np.all(q <= self.upper + tol))

    def start_points(self):
        return [self.lower.copy(), self.upper.copy()]

    def grid(self, n):
        """Per-dimension uniform grid; only meaningful for one dimension."""
        if self.dim != 1:
            raise UsageError("grid sweeps are defined for one-dimensional sets")
        return np.linspace(self.lower[0], self.upper[0], n)[:, None]


class BallSet:
    """Euclidean ball {q : |q - center| <= radius}."""

    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)

    @property
    def dim(self):
        return len(self.center)

    def project(self, q):
        q = np.asarray(q, dtype=float)
        d = q - self.center
        r = np.linalg.norm(d)
        if r <= self.radius:
            return q.copy()
        return self.center + d * (self.radius / r)

    def contains(self, q, tol=1e-12):
        d = np.asarray(q, dtype=float) - self.center
        return bool(np.linalg.norm(d) <= self.radius * (1.0 + tol))

    def start_points(self):
        steps = self.radius * np.eye(self.dim)
        return ([self.center + e for e in steps]
                + [self.center - e for e in steps])


# ---------------------------------------------------------------------------
# inner maximization

@dataclass(frozen=True)
class InnerParams:
    """Projected-gradient ascent controls (benchmark parameter table)."""

    step_tol: float = 1e-3
    tau_min: float = 1e-3
    tau_max: float = 1.0
    tau_shrink: float = 0.5
    tau_grow: float = 1.5
    gamma: float = 0.1
    max_iterations: int = 100

    def validate(self):
        if not 0.0 < self.gamma < 0.5:
            raise ConfigurationError("sufficient-increase constant must be in (0, 1/2)")
        if not 0 < self.tau_min <= self.tau_max:
            raise ConfigurationError("need 0 < tau_min <= tau_max")


@dataclass
class WorstCaseResult:
    q_star: np.ndarray
    value: float
    iterations: int
    n_evaluations: int
    accepted_steps: list = field(default_factory=list)


def _ascend(objective, uset, q0, params):
    """One projected-gradient trajectory from q0; returns (q, value, iters, steps)."""
    q = uset.project(np.asarray(q0, dtype=float))
    value, grad = objective.value_grad(q)
    tau = params.tau_max
    steps = []
    for it in range(params.max_iterations):
        accepted = False
        while True:
            trial = uset.project(q + tau * grad)
            move = trial - q
            move_sq = float(move @ move)
            trial_value = objective.value(trial)
            if trial_value - value >= (params.gamma / tau) * move_sq:
                accepted = True
                break
            if tau <= params.tau_min * (1.0 + 1e-12):
                break
            tau = max(tau * params.tau_shrink, params.tau_min)
        if not accepted:
            return q, value, it, steps
        steps.append((q.copy(), trial.copy(), trial_value - value, tau))
        q = trial
        value = trial_value
        if np.sqrt(move_sq) < params.step_tol:
            return q, value, it + 1, steps
        _, grad = objective.value_grad(q)
        tau = min(tau * params.tau_grow, params.tau_max)
    return q, value, params.max_iterations, steps


def inner_maximize(objective, uset, starts, params=None):
    """Best projected-gradient ascent result over the given starting points.

    objective provides value(q) and value_grad(q); failures of a single
    start are logged and skipped, all starts failing is an error.
    """
    params = params or InnerParams()
    params.validate()
    dedup = []
    for s in starts:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not any(np.array_equal(s, t) for t in dedup):
            dedup.append(s)
    best = None
    total_iters = 0
    failures = []
    for idx, q0 in enumerate(dedup):
        try:
            q, value, iters, steps = _ascend(objective, uset, q0, params)
        except SolverError as e:
            log.warning("inner ascent from start %d failed: %s", idx, e)
            failures.append(e)
            continue
        total_iters += iters
        if best is None or value > best.value:
            best = WorstCaseResult(q, value, iters, objective.n_evaluations,
                                   steps)
    if best is None:
        raise SolverError("all inner-maximization starts failed") from failures[-1]
    if not uset.contains(best.q_star, 1e-12):
        raise SolverError("inner maximizer left the uncertainty set")
    best.iterations = total_iters
    best.n_evaluations = objective.n_evaluations
    return best


# ---------------------------------------------------------------------------
# machine adapter

MEMO_LIMIT = 32


class ParameterObjective:
    """J(design, q) with lazy adjoint-based gradients and a per-q memo.

    The memo is the only store of states and adjoints: every evaluator opens
    one objective per design and takes its solutions from here.
    """

    def __init__(self, problem, design):
        self.problem = problem
        self.design = np.asarray(design, dtype=bool)
        self._memo = {}
        self._order = []
        self.n_evaluations = 0

    def _entry(self, q):
        key = np.asarray(q, dtype=float).tobytes()
        if key not in self._memo:
            value, states = self.problem.objective(self.design, q)
            self.n_evaluations += 1
            self._memo[key] = {"q": np.asarray(q, dtype=float), "value": value,
                               "states": states, "adjoints": None, "grad": None}
            self._order.append(key)
            if len(self._order) > MEMO_LIMIT:
                old = self._order.pop(0)
                del self._memo[old]
        return self._memo[key]

    def value(self, q):
        return self._entry(q)["value"]

    def value_grad(self, q):
        e = self._entry(q)
        if e["grad"] is None:
            e["adjoints"] = self.problem.adjoints(self.design, e["q"], e["states"])
            e["grad"] = self.problem.grad_q(self.design, e["q"], e["states"],
                                            e["adjoints"])
        return e["value"], e["grad"]

    def solution_pack(self, q):
        """States and adjoints at q, solved if not already cached."""
        e = self._entry(q)
        if e["adjoints"] is None:
            e["adjoints"] = self.problem.adjoints(self.design, e["q"], e["states"])
        return e["states"], e["adjoints"]


def robust_td_field(problem, design, iron_to_air, air_to_iron, q_star,
                    states, adjoints):
    """Sensitivity field of the plain objective frozen at the worst case.

    Iron elements read the knee from q_star. Air elements evaluate the flip
    with the nominal knee: the perturbation nucleates fresh iron whose
    saturation parameter is not covered by the worst-case vector.
    """
    from .topderiv import generalized_td_field

    U, P = problem.td_inputs(states, adjoints)
    if iron_to_air.has_knee_axis or air_to_iron.has_knee_axis:
        knee_iron = problem.knee_for_elements(q_star, air_nominal=False)
        knee_air = problem.knee_for_elements(q_star, air_nominal=True)
    else:
        knee_iron = knee_air = None
    return generalized_td_field(iron_to_air, air_to_iron, U, P, design,
                                knee_iron, knee_air)


class RobustEvaluator(NominalEvaluator):
    """Worst-case value and frozen-gradient sensitivity for the descent loop."""

    def __init__(self, problem, iron_to_air, air_to_iron, uset,
                 inner_params=None):
        super().__init__(problem, iron_to_air, air_to_iron)
        self.uset = uset
        self.inner_params = inner_params or InnerParams()
        if not uset.contains(self.q, 1e-9):
            raise ConfigurationError(
                "nominal parameter vector lies outside the uncertainty set")
        self.previous = None

    # own entry: a tracer wrapping both classes' __call__ must not nest spans
    __call__ = NominalEvaluator.__call__

    def starts(self):
        pts = list(self.uset.start_points())
        pts.append(self.q.copy())
        if self.previous is not None:
            pts.append(self.previous.copy())
        return pts

    def worst_case(self, objective):
        wc = inner_maximize(objective, self.uset, self.starts(),
                            self.inner_params)
        self.previous = wc.q_star.copy()
        return wc.q_star, wc.iterations


def optimize_robust(problem, iron_to_air, air_to_iron, uset, psi0=None,
                    options=None, inner_params=None, snapshot=None):
    """Level-set descent on the worst-case objective."""
    if psi0 is None:
        psi0 = np.ones(len(problem.design_nodes))
    ev = RobustEvaluator(problem, iron_to_air, air_to_iron, uset, inner_params)
    return drive(ev, psi0, problem.smoother(), options, snapshot)
