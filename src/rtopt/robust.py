"""Worst-case robust optimization over a convex parameter set.

Every scenario has an uncertainty set around its nominal q_hat: an
interval (the load angle of ANG, the shared knee of SCAL) or a Euclidean
ball around the nominal knees (DIST). Nominal mode scores each design at
q_hat alone. Robust mode runs the same outer loop and evaluator; the only
difference is where q comes from: each iterate first maximizes the
objective over the set with a projected-gradient ascent from the set's own
start points (an interval's two ends, a ball's centre), stopped by the
fixed rules TAU_*, GAMMA, STEP_TOL and MAX_ITERATIONS, and the sensitivity
field is the one of the plain objective frozen at the maximizer. For a
locally Lipschitz max-function with a unique maximizer that frozen
gradient is the generalized gradient, so no subdifferential machinery is
needed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
        if not (np.all(np.isfinite(self.center)) and 0.0 < self.radius < np.inf):
            raise ConfigurationError("ball center must be finite, its radius positive")

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
        """The centre alone (q_hat in every config): the first trial from it,
        project(center + grad), is the linearized worst case (Diehl, Bock &
        Kostina, 2006). Axis starts found the same maximizer at 20 times the
        cost (the oracle of tests/test_robust.py)."""
        return [self.center.copy()]


# ---------------------------------------------------------------------------
# inner maximization

# ascent step tau: its range, its factors after a refused / an accepted trial,
# and GAMMA of the test J(trial) - J(q) >= (GAMMA / tau) |trial - q|^2
TAU_MIN, TAU_MAX, TAU_SHRINK, TAU_GROW, GAMMA = 1e-3, 1.0, 0.5, 1.5, 0.1
# the ascent stops after a step that moves q by less than STEP_TOL, after
# MAX_ITERATIONS steps, or at tau = TAU_MIN without a sufficient increase
STEP_TOL, MAX_ITERATIONS = 1e-3, 100


@dataclass
class WorstCaseResult:
    q_star: np.ndarray
    value: float
    iterations: int
    n_evaluations: int


def _ascend(objective, uset, q0):
    """One projected-gradient trajectory from q0; returns (q, value, iters)."""
    q = uset.project(np.asarray(q0, dtype=float))
    value, grad = objective.value_grad(q)
    tau = TAU_MAX
    for it in range(MAX_ITERATIONS):
        accepted = False
        while True:
            trial = uset.project(q + tau * grad)
            move = trial - q
            move_sq = float(move @ move)
            trial_value = objective.value(trial)
            if trial_value - value >= (GAMMA / tau) * move_sq:
                accepted = True
                break
            if tau <= TAU_MIN * (1.0 + 1e-12):
                break
            tau = max(tau * TAU_SHRINK, TAU_MIN)
        if not accepted:
            return q, value, it
        q = trial
        value = trial_value
        if np.sqrt(move_sq) < STEP_TOL:
            return q, value, it + 1
        _, grad = objective.value_grad(q)
        tau = min(tau * TAU_GROW, TAU_MAX)
    return q, value, MAX_ITERATIONS


def inner_maximize(objective, uset, starts):
    """Best projected-gradient ascent result over the given starting points.

    objective provides value(q) and value_grad(q); failures of a single
    start are logged and skipped, all starts failing is an error.
    """
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
            q, value, iters = _ascend(objective, uset, q0)
        except SolverError as e:
            log.warning("inner ascent from start %d failed: %s", idx, e)
            failures.append(e)
            continue
        total_iters += iters
        if best is None or value > best.value:
            best = WorstCaseResult(q, value, iters, objective.n_evaluations)
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

    Every evaluator opens one objective per design and takes its states from
    here: the memo keeps each q's PositionStates, the record of that solved
    (design, q) with its value, its adjoints and its gradient in q. previous
    holds (q, [state at position 0]) pairs of an earlier design (`position0`
    of its objective), where Newton starts until this design has solved a q
    of its own.
    """

    def __init__(self, problem, design, previous=()):
        self.problem = problem
        self.design = np.asarray(design, dtype=bool)
        self.previous = previous
        self._memo = {}
        self.n_evaluations = 0

    def _entry(self, q):
        key = np.asarray(q, dtype=float).tobytes()
        if key not in self._memo:
            # nonlinear Newton starts each position at the nearest q this
            # design solved, else position 0 at the previous design's nearest
            pool = [(r.q, r) for r in self._memo.values()] or self.previous
            _, starts = min(pool, default=(None, ()),
                            key=lambda p: np.linalg.norm(p[0] - q))
            self._memo[key] = self.problem.objective(self.design, q, starts)[1]
            self.n_evaluations += 1
            if len(self._memo) > MEMO_LIMIT:
                del self._memo[next(iter(self._memo))]
        return self._memo[key]

    def value(self, q):
        return self._entry(q).value

    def position0(self):
        """(q, [state at position 0]) of every memoized q, in solve order."""
        return [(r.q, r[:1]) for r in self._memo.values()]

    def value_grad(self, q):
        record = self._entry(q)
        if record.grad is None:
            record.grad = self.problem.grad_q(record)
        return record.value, record.grad

    def states(self, q):
        """The PositionStates at q, solved if not already memoized."""
        return self._entry(q)


def robust_td_field(problem, iron_to_air, air_to_iron, states):
    """Sensitivity field of the plain objective at the design and q of a
    PositionStates (in robust runs, the worst case).

    Iron elements read the knee from that q. Air elements evaluate the flip
    with the nominal knee: the perturbation nucleates fresh iron whose
    saturation parameter is not covered by the worst-case vector. A one-knee
    table (ANG) reads both only to count clamps.
    """
    from .topderiv import generalized_td_field

    U, P = problem.td_inputs(states)
    return generalized_td_field(
        iron_to_air, air_to_iron, U, P, states.design,
        problem.knee_for_elements(states.q),
        problem.knee_for_elements(problem.scenario.q_hat))


class RobustEvaluator(NominalEvaluator):
    """Worst-case value and frozen-gradient sensitivity for the descent loop."""

    def __init__(self, problem, iron_to_air, air_to_iron, uset):
        super().__init__(problem, iron_to_air, air_to_iron)
        self.uset = uset
        if not uset.contains(self.q, 1e-9):
            raise ConfigurationError(
                "nominal parameter vector lies outside the uncertainty set")

    # own entry: a tracer wrapping both classes' __call__ must not nest spans
    __call__ = NominalEvaluator.__call__

    def worst_case(self, objective):
        return inner_maximize(objective, self.uset,
                              self.uset.start_points()).q_star


def optimize_robust(problem, iron_to_air, air_to_iron, uset, psi0=None,
                    options=None, snapshot=None):
    """Level-set descent on the worst-case objective."""
    if psi0 is None:
        psi0 = np.ones(len(problem.design_nodes))
    ev = RobustEvaluator(problem, iron_to_air, air_to_iron, uset)
    return drive(ev, psi0, problem.smoother(), options, snapshot)
