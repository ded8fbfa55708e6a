"""Level-set design representation and the fixed-point descent loop.

The design is the sign of a nodal field psi on the design region, kept on
the unit sphere of the region's mass-matrix L2 norm. A locally optimal
design makes psi proportional to the (smoothed) sensitivity field, so the
update rotates psi toward the normalized field by spherical interpolation,
with a step-halving line search that only accepts strict objective decrease.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, FormatError, FormatReader, UsageError,
                     check_counts)

LEVELSET_FORMAT = "RTOLS1"

STATUS_CONVERGED = "converged"
STATUS_STALLED = "stalled"
STATUS_MAX_ITERATIONS = "max_iterations"

STEP_GROW, STEP_SHRINK = 1.5, 0.5
# the descent converges once the angle between psi and the field is below this
ANGLE_TOL = np.radians(2.0)


@dataclass(frozen=True)
class LevelSetOptions:
    """Loop controls (benchmark parameter table). The step fraction starts
    at step_init, grows by STEP_GROW up to 1 after each accepted step and
    shrinks by STEP_SHRINK down to step_min."""

    max_iterations: int = 100
    step_init: float = 0.5
    step_min: float = 0.05

    def __post_init__(self):
        if not 0 < self.step_min <= self.step_init <= 1.0:
            raise ConfigurationError("need 0 < step_min <= step_init <= 1")
        check_counts(max_iterations=self.max_iterations)
        if not self.max_iterations >= 1:
            raise ConfigurationError("max_iterations must be at least 1")


def normalize(psi, geometry, what="level-set field"):
    """Scale to unit mass-norm; a zero or non-finite `what` has no direction."""
    n = geometry.norm(psi)
    if n <= 0.0 or not np.isfinite(n):
        raise UsageError(f"cannot normalize a zero or non-finite {what}")
    return psi / n


def angle_between(psi, g, geometry):
    """Angle between a unit psi and an arbitrary nonzero field g."""
    ng = geometry.norm(g)
    if ng <= 0.0 or not np.isfinite(ng):
        raise UsageError("sensitivity field is identically zero")
    c = geometry.inner(psi, g) / ng
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def slerp_update(psi, g_hat, s, theta):
    """Rotate psi toward the unit field g_hat by the fraction s of theta."""
    if not 0.0 < s <= 1.0:
        raise UsageError("slerp fraction must lie in (0, 1]")
    if theta == 0.0:
        return psi.copy()
    if theta >= np.pi - 1e-14:
        raise UsageError("antipodal fields: slerp direction undefined")
    st = np.sin(theta)
    return (np.sin((1.0 - s) * theta) * psi + np.sin(s * theta) * g_hat) / st


@dataclass
class OptimalityReport:
    agree_fraction: float
    checked: int
    skipped: int

    @property
    def ok(self):
        return self.checked == 0 or self.agree_fraction == 1.0


def check_optimality(psi_elem, g_elem, dead_band=1e-8):
    """Sign agreement between the design field and the sensitivity, elementwise.

    Elements with |psi| inside the dead band sit on the interface and are not
    counted either way.
    """
    psi_elem = np.asarray(psi_elem, dtype=float)
    g_elem = np.asarray(g_elem, dtype=float)
    active = np.abs(psi_elem) > dead_band
    agree = np.sign(psi_elem[active]) == np.sign(g_elem[active])
    checked = int(active.sum())
    frac = float(agree.mean()) if checked else 1.0
    return OptimalityReport(frac, checked, int((~active).sum()))


@dataclass
class Evaluation:
    """One objective-and-sensitivity evaluation at a level-set iterate."""

    value: float
    sensitivity: np.ndarray
    q_star: np.ndarray          # the parameter scored at


@dataclass
class TraceRow:
    k: int
    value: float
    theta_deg: float
    step: float
    accepted: bool
    wall_seconds: float
    q_star: np.ndarray

    def as_csv(self):
        q = ";".join(repr(float(v)) for v in np.atleast_1d(self.q_star))
        return (f"{self.k},{float(self.value)!r},{float(self.theta_deg)!r},"
                f"{float(self.step)!r},{int(self.accepted)},"
                f"{self.wall_seconds:.3f},{q}")


TRACE_HEADER = "k,J,theta_deg,s,accepted,wall_seconds,q_star"


@dataclass
class LevelSetResult:
    psi: np.ndarray
    value: float
    status: str
    iterations: int
    q_star: np.ndarray                    # of the last accepted evaluation
    trace: list[TraceRow] = field(default_factory=list)
    evaluations: int = 0

    def trace_csv(self):
        lines = [TRACE_HEADER]
        lines.extend(row.as_csv() for row in self.trace)
        return "\n".join(lines) + "\n"


def drive(evaluator, psi0, geometry, options=None, snapshot=None):
    """Fixed-point descent on the level-set sphere.

    evaluator(psi) returns an Evaluation whose sensitivity is a nodal field
    over the same dofs as psi, and evaluator.design_key(psi) is equal for
    fields of one design; geometry supplies the mass inner product and
    norm of those fields (the design region's ScreenedSmoother). Steps are
    accepted only on strict decrease of the value; the step fraction
    persists across iterations, growing after each accepted step and
    shrinking on rejection down to step_min.
    """
    opts = options or LevelSetOptions()
    t0 = time.perf_counter()

    psi = normalize(np.asarray(psi0, dtype=float), geometry)
    ev = evaluator(psi)
    n_eval = 1
    g_hat = normalize(ev.sensitivity, geometry, "sensitivity field")
    theta = angle_between(psi, g_hat, geometry)
    s = opts.step_init
    trace = [TraceRow(0, ev.value, np.degrees(theta), s, True,
                      time.perf_counter() - t0, ev.q_star)]
    if snapshot is not None:
        snapshot(0, psi)

    k = 0
    key = evaluator.design_key(psi)
    status = STATUS_MAX_ITERATIONS
    while True:
        drift = abs(geometry.norm(psi) - 1.0)
        if drift > 1e-10:
            psi = normalize(psi, geometry)
        if theta < ANGLE_TOL:
            status = STATUS_CONVERGED
            break
        if k >= opts.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        trial = slerp_update(psi, g_hat, s, theta)
        if evaluator.design_key(trial) == key:
            # no element changes material: the objective cannot move, so
            # realign psi inside the design's equivalence class for free
            psi = normalize(trial, geometry)
            theta = angle_between(psi, g_hat, geometry)
            continue
        trial_ev = evaluator(trial)
        n_eval += 1
        if trial_ev.value < ev.value:
            k += 1
            psi, ev = trial, trial_ev
            g_hat = normalize(ev.sensitivity, geometry, "sensitivity field")
            theta = angle_between(psi, g_hat, geometry)
            key = evaluator.design_key(psi)
            trace.append(TraceRow(k, ev.value, np.degrees(theta), s, True,
                                  time.perf_counter() - t0, ev.q_star))
            if snapshot is not None:
                snapshot(k, psi)
            s = min(s * STEP_GROW, 1.0)
        else:
            trace.append(TraceRow(k, trial_ev.value, np.degrees(theta), s,
                                  False, time.perf_counter() - t0,
                                  trial_ev.q_star))
            if s <= opts.step_min * (1.0 + 1e-12):
                status = STATUS_STALLED
                break
            s = max(s * STEP_SHRINK, opts.step_min)

    return LevelSetResult(psi, ev.value, status, k, ev.q_star, trace, n_eval)


class NominalEvaluator:
    """Objective and smoothed sensitivity of the machine problem at fixed q.

    A nominal run is the worst-case evaluation with the parameter pinned:
    worst_case returns the fixed q, and RobustEvaluator overrides it with
    the inner maximization. Each design opens one robust.ParameterObjective,
    the per-q memo of the states MachineProblem returns with their
    adjoints, and the field is the plain objective's sensitivity frozen at
    the chosen q. The position-0 states of the last design evaluated are
    where the next design's Newton starts.
    """

    def __init__(self, problem, iron_to_air, air_to_iron):
        self.problem = problem
        self.iron_to_air = iron_to_air
        self.air_to_iron = air_to_iron
        self.q = np.asarray(problem.scenario.q_hat, dtype=float)
        self._position0 = []

    def worst_case(self, objective):
        """Parameter the design is scored at."""
        return self.q

    def design_key(self, psi):
        return self.problem.design_from_levelset(psi).tobytes()

    def field(self, design):
        """Evaluation of a design whose sensitivity is the raw element field."""
        from . import robust

        objective = robust.ParameterObjective(self.problem, design,
                                              self._position0)
        record = objective.states(self.worst_case(objective))
        self._position0 = objective.position0()
        g_elem = robust.robust_td_field(self.problem, self.iron_to_air,
                                        self.air_to_iron, record)
        return Evaluation(record.value, g_elem, record.q.copy())

    def __call__(self, psi):
        ev = self.field(self.problem.design_from_levelset(psi))
        ev.sensitivity = self.problem.smoother().smooth(ev.sensitivity)
        return ev


def optimize_nominal(problem, iron_to_air, air_to_iron, psi0=None,
                     options=None, snapshot=None):
    """Descent loop on the machine objective with parameters at nominal."""
    if psi0 is None:
        psi0 = np.ones(len(problem.design_nodes))
    ev = NominalEvaluator(problem, iron_to_air, air_to_iron)
    return drive(ev, psi0, problem.smoother(), options, snapshot)


# ---------------------------------------------------------------------------
# persistence

def save_levelset(psi, node_ids, mesh_fingerprint, path, iteration=0,
                  value=None):
    psi = np.asarray(psi, dtype=float)
    ids = np.asarray(node_ids, dtype=np.int64)
    if psi.ndim != 1 or psi.shape != ids.shape:
        raise UsageError(f"{psi.size} level-set values for {ids.size} node ids")
    if not np.all(np.isfinite(psi)):
        raise UsageError("non-finite level-set values")
    value = "nan" if value is None else repr(float(value))
    rows = "".join([f"{i} {v!r}\n" for i, v in zip(ids.tolist(), psi.tolist())])
    with open(path, "w") as f:
        f.write(f"{LEVELSET_FORMAT}\nmesh {mesh_fingerprint}\niteration "
                f"{iteration}\nvalue {value}\nnodes {len(psi)}\n{rows}")


def load_levelset(path, expect_fingerprint=None):
    with FormatReader(path, LEVELSET_FORMAT) as f:
        fingerprint = f.header("mesh")[0]
        if expect_fingerprint is not None and fingerprint != expect_fingerprint:
            raise UsageError(
                f"level-set file {path} was written for mesh {fingerprint}, "
                f"not the configured mesh {expect_fingerprint}")
        iteration = int(f.header("iteration")[0])
        value = float(f.header("value")[0])
        rows = f.rows(int(f.header("nodes")[0]))
        if not f.at_end():
            raise ValueError("rows the 'nodes' count does not announce")
        node_ids = np.array([int(i) for i, _ in rows], dtype=int)
        psi = np.array([float(v) for _, v in rows])
    if not np.all(np.isfinite(psi)):
        raise FormatError(f"{path}: non-finite level-set values")
    return psi, node_ids, {"fingerprint": fingerprint, "iteration": iteration,
                           "value": value}
