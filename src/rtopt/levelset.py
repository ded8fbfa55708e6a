"""Level-set design representation and the fixed-point descent loop.

The design is the sign of a nodal field psi on the design region, kept on
the unit sphere of the region's mass-matrix L2 norm. A locally optimal
design makes psi proportional to the (smoothed) sensitivity field, so the
update rotates psi toward the normalized field by spherical interpolation,
with a step-halving line search that only accepts strict objective decrease.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, UsageError, read_format_lines

LEVELSET_FORMAT = "RTOLS1"

STATUS_CONVERGED = "converged"
STATUS_STALLED = "stalled"
STATUS_MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class LevelSetOptions:
    """Loop controls; defaults follow the benchmark parameter table."""

    max_iterations: int = 100
    angle_tol_deg: float = 2.0
    step_init: float = 0.5
    step_min: float = 0.05
    step_max: float = 1.0
    step_shrink: float = 0.5
    step_grow: float = 1.5

    def validate(self):
        from .errors import ConfigurationError
        if not (0 < self.step_min <= self.step_init <= self.step_max <= 1.0):
            raise ConfigurationError(
                "need 0 < step_min <= step_init <= step_max <= 1")
        if not (0 < self.step_shrink < 1 < self.step_grow):
            raise ConfigurationError("need step_shrink < 1 < step_grow")
        if self.angle_tol_deg <= 0:
            raise ConfigurationError("angle tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")


def normalize(psi, geometry):
    """Scale to unit mass-norm; a zero field has no direction."""
    n = geometry.norm(psi)
    if n <= 0.0 or not np.isfinite(n):
        raise UsageError("cannot normalize a zero level-set field")
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
    q_star: np.ndarray | None = None
    inner_iterations: int = 0


@dataclass
class TraceRow:
    k: int
    value: float
    theta_deg: float
    step: float
    accepted: bool
    wall_seconds: float
    q_star: np.ndarray | None

    def as_csv(self):
        q = ("" if self.q_star is None
             else ";".join(repr(float(v)) for v in np.atleast_1d(self.q_star)))
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
    over the same dofs as psi; geometry supplies the mass inner product and
    norm of those fields (the design region's ScreenedSmoother). Steps are
    accepted only on strict decrease of the value; the step fraction
    persists across iterations, growing after each accepted step and
    shrinking on rejection down to step_min.
    """
    opts = options or LevelSetOptions()
    opts.validate()
    t0 = time.perf_counter()
    design_key = getattr(evaluator, "design_key", None)

    psi = normalize(np.asarray(psi0, dtype=float), geometry)
    ev = evaluator(psi)
    n_eval = 1
    g_hat = normalize(ev.sensitivity, geometry)
    theta = angle_between(psi, g_hat, geometry)
    s = opts.step_init
    trace = [TraceRow(0, ev.value, np.degrees(theta), s, True,
                      time.perf_counter() - t0, ev.q_star)]
    if snapshot is not None:
        snapshot(0, psi)

    tol = np.radians(opts.angle_tol_deg)
    k = 0
    key = design_key(psi) if design_key is not None else None
    status = STATUS_MAX_ITERATIONS
    while True:
        drift = abs(geometry.norm(psi) - 1.0)
        if drift > 1e-10:
            psi = normalize(psi, geometry)
        if theta < tol:
            status = STATUS_CONVERGED
            break
        if k >= opts.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        trial = slerp_update(psi, g_hat, s, theta)
        if design_key is not None and design_key(trial) == key:
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
            g_hat = normalize(ev.sensitivity, geometry)
            theta = angle_between(psi, g_hat, geometry)
            if design_key is not None:
                key = design_key(psi)
            trace.append(TraceRow(k, ev.value, np.degrees(theta), s, True,
                                  time.perf_counter() - t0, ev.q_star))
            if snapshot is not None:
                snapshot(k, psi)
            s = min(s * opts.step_grow, opts.step_max)
        else:
            trace.append(TraceRow(k, trial_ev.value, np.degrees(theta), s,
                                  False, time.perf_counter() - t0,
                                  trial_ev.q_star))
            if s <= opts.step_min * (1.0 + 1e-12):
                status = STATUS_STALLED
                break
            s = max(s * opts.step_shrink, opts.step_min)

    return LevelSetResult(psi, ev.value, status, k, ev.q_star, trace, n_eval)


class NominalEvaluator:
    """Objective and smoothed sensitivity of the machine problem at fixed q.

    A nominal run is the worst-case evaluation with the parameter pinned:
    worst_case returns the fixed q without inner iterations, and
    RobustEvaluator overrides it with the inner maximization. Each design
    opens one robust.ParameterObjective, the only memo of states and
    adjoints, and the field is the plain objective's sensitivity frozen at
    the chosen q.
    """

    def __init__(self, problem, iron_to_air, air_to_iron, q=None):
        self.problem = problem
        self.iron_to_air = iron_to_air
        self.air_to_iron = air_to_iron
        self.q = problem._q_array(q)

    def worst_case(self, objective):
        """Parameter the design is scored at, and the inner iterations spent."""
        return self.q, 0

    def design_key(self, psi):
        return self.problem.design_from_levelset(psi).tobytes()

    def field(self, design):
        """Evaluation of a design whose sensitivity is the raw element field."""
        from . import robust

        objective = robust.ParameterObjective(self.problem, design)
        q, iterations = self.worst_case(objective)
        value = objective.value(q)
        states, adjoints = objective.solution_pack(q)
        g_elem = robust.robust_td_field(self.problem, design, self.iron_to_air,
                                        self.air_to_iron, q, states, adjoints)
        return Evaluation(value, g_elem, q_star=q.copy(),
                          inner_iterations=iterations)

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
    buf = io.StringIO()
    buf.write(f"{LEVELSET_FORMAT}\n")
    buf.write(f"mesh {mesh_fingerprint}\n")
    buf.write(f"iteration {iteration}\n")
    buf.write(f"value {'nan' if value is None else repr(float(value))}\n")
    buf.write(f"nodes {len(psi)}\n")
    for nid, v in zip(node_ids, psi):
        buf.write(f"{int(nid)} {float(v)!r}\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def load_levelset(path, expect_fingerprint=None):
    lines = read_format_lines(path, LEVELSET_FORMAT)
    try:
        fingerprint = lines[1].split()[1]
        if expect_fingerprint is not None and fingerprint != expect_fingerprint:
            raise UsageError(
                f"level-set file {path} was written for mesh {fingerprint}, "
                f"not the configured mesh {expect_fingerprint}")
        iteration = int(lines[2].split()[1])
        value = float(lines[3].split()[1])
        n = int(lines[4].split()[1])
        if not 0 <= n <= len(lines) - 5:
            raise ValueError(f"{n} nodes announced")
        node_ids = np.empty(n, dtype=int)
        psi = np.empty(n)
        for i in range(n):
            a, b = lines[5 + i].split()
            node_ids[i] = int(a)
            psi[i] = float(b)
    except (IndexError, ValueError) as exc:
        raise FormatError(
            f"{path}: truncated or malformed {LEVELSET_FORMAT} file") from exc
    if not np.all(np.isfinite(psi)):
        raise FormatError(f"{path}: non-finite level-set values")
    return psi, node_ids, {"fingerprint": fingerprint, "iteration": iteration,
                           "value": value}
