"""The benchmark machine problem on one 45-degree pole.

Couples the sector mesh, the constitutive laws, the three-phase winding and
the permanent magnets into the torque objective

    J(design, q) = -(1/N) * sum_n T(u^n),

where u^n solves the magnetostatic problem at rotor position alpha_n and T is
the Maxwell stress torque averaged over the whole air-gap annulus (Arkkio's
method). Rotor motion is frozen: positions only advance the electrical angle
of the phase currents, and the magnets keep one remanence R at every position.
Sources and torque are maps built once per problem: the currents at
th = p*alpha + phase are sin(th) J_1 + cos(th) J_2 (per slot J_PEAK * sign
times cos and sin of its offset), loaded as sin(th) L_1 + cos(th) L_2; and
T(u) = s . (Y u^2 - X u^2) / 2 + c . (X u Y u), X and Y the flux components
on the gap elements, s and c their weights. Nonlinear iron solves each
position by damped Newton on these loads; linear iron combines one basis of
them per design (one factorization, two solves) for every position, q and
adjoint.

`states` returns a PositionStates, the one record of a solved (design, q):
copies of that design and q, its states, its objective value and its
adjoints. `adjoints`, `td_inputs` and `grad_q` take the record alone, so
they read the design and q it was solved at and solve no state. The tangent
depends on the flux, not on the rotor angle, so position n + 1's Newton
started at u_n factors K(u_n) at its first step, bitwise the matrix of
position n's adjoint: `states` solves it there (linear iron fills all from
the basis), `adjoints` the rest in place.

The parameter vector q carries scenario uncertainty: the load angle of the
currents ("phase" binding), one shared iron saturation knee ("knee" binding),
or one knee per rotor block plus one for the stator ("knee_regions", with
ROTOR_BLOCKS + 1 entries). MachineProblem decides once, in `knee_index`,
which entry of q each element's knee reads; every iron row is evaluated by
the iron law of `MaterialSpec` with those per-element knees. Air and magnet
rows are linear, h = nu (B - remanence).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import laws
from .errors import ConfigurationError, SolverError, UsageError, check_counts
from .fem import (Csr, DofMap, P1Space, ScreenedSmoother, adjoint_solve,
                  factor_tangent, newton_solve)
from .laws import MU0
from .mesh import COILS, POLE_PAIRS, R_DESIGN, R_GAP_OUTER, R_SHAFT, SECTOR

log = logging.getLogger(__name__)

POSITION_SWEEP = np.deg2rad(15.0)

# load angle of the currents wherever q does not carry it (ANG's default q_hat)
PHI0 = np.deg2rad(6.0)

# DIST knee blocks of the design region: 4 angular x 2 radial
ROTOR_BLOCKS = 8

# what each scenario's parameter vector q binds
BINDINGS = {"ANG": "phase", "SCAL": "knee", "DIST": "knee_regions"}

# remanence directions of magnet1 and magnet2
MAGNET_PHI = (np.deg2rad(30.0), np.deg2rad(15.0))

# peak current density of the winding (A/m^2)
J_PEAK = 23.7e6

# damped Newton iteration cap per state solve
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class MaterialSpec:
    """Saturating or linear iron; the material constants are module data."""

    iron_linear: bool = False

    def iron_law(self, knee=None):
        """The machine's iron law, with its knee at K_F or knee."""
        return laws.iron_law(laws.NU_F, laws.K_F if knee is None else knee,
                             laws.N_F, self.iron_linear)

    def law_fingerprint(self):
        """Digest of the iron/air law pair a sensitivity table depends on;
        the table's knee axis says at which knees it was sampled."""
        import hashlib

        txt = (f"nu0={laws.NU0!r};nu_f={laws.NU_F!r};n_f={laws.N_F};"
               f"linear={self.iron_linear}")
        return hashlib.sha256(txt.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """What varies across a run: rotor positions and the uncertain parameter."""

    name: str = "ANG"
    n_positions: int = 11
    q_hat: np.ndarray = field(default_factory=lambda: np.array([PHI0]))
    # the magnets never turn with the rotor; kept as a constant because the
    # benchmark's superposition oracle reads it
    co_rotate_magnets = False

    @property
    def binding(self):
        return BINDINGS[self.name]

    @property
    def n_q(self):
        return ROTOR_BLOCKS + 1 if self.name == "DIST" else 1

    def __post_init__(self):
        if self.name not in BINDINGS:
            raise ConfigurationError(f"unknown scenario {self.name!r}")
        check_counts(n_positions=self.n_positions)
        if not self.n_positions >= 1:
            raise ConfigurationError("scenario needs at least one rotor position")
        q = np.asarray(self.q_hat, dtype=float)
        if q.shape != (self.n_q,):
            raise ConfigurationError(
                f"scenario {self.name} expects a nominal q of length {self.n_q}, "
                f"got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ConfigurationError(f"scenario {self.name} nominal q must be finite")


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.newton_tol < np.inf:
            raise ConfigurationError("newton controls out of range")


# Dunavant's 6-point rule on a triangle, exact to degree 4: barycentric
# points and weights
QUAD_POINTS = np.array([
    p for a in (0.44594849091596488632, 0.09157621350977074346)
    for p in ([a, a, 1 - 2 * a], [a, 1 - 2 * a, a], [1 - 2 * a, a, a])])
QUAD_WEIGHTS = np.repeat([0.22338158967801146570, 0.10995174365532186764], 3)


class TorqueProbe:
    """Maxwell stress torque averaged over the air gap (Arkkio's method).

    T = (2 pi / SECTOR) / (mu0 (R_GAP_OUTER - R_DESIGN)) * sum_e int_e r B_r B_t
    over the air_gap elements, for the full machine (A. Arkkio, Acta
    Polytechnica Scandinavica EE 59, 1987). B is constant per element and
    B_r B_t = sin(2 phi) (B_y^2 - B_x^2) / 2 + cos(2 phi) B_x B_y, so with the
    gap rows X u, Y u of the curl and the weights s, c of r sin 2phi and
    r cos 2phi, integrated once, T(u) = s . (Y u^2 - X u^2) / 2 + c . (X u Y u).
    """

    def __init__(self, space):
        mesh = space.mesh
        gap = mesh.elements_in("air_gap")
        pts = QUAD_POINTS @ mesh.vertices[mesh.triangles[gap]]     # (g, 6, 2)
        x, y = pts[..., 0], pts[..., 1]
        r = np.hypot(x, y)
        scale = space.areas[gap] * (2 * np.pi / SECTOR)
        scale /= MU0 * (R_GAP_OUTER - R_DESIGN)
        self.s = scale * ((2 * x * y / r) @ QUAD_WEIGHTS)
        self.c = scale * (((x * x - y * y) / r) @ QUAD_WEIGHTS)
        rows = np.repeat(np.arange(len(gap)), 3)
        nodes = mesh.triangles[gap].ravel()
        self.bx, self.by = (
            Csr.from_triplets(space.curls[gap, :, d].ravel(), rows, nodes,
                              (len(gap), mesh.n_nodes)) for d in (0, 1))

    def torque(self, u):
        bx, by = self.bx @ u, self.by @ u
        return float(self.s @ (0.5 * (by * by - bx * bx)) + self.c @ (bx * by))

    def torque_gradient(self, u):
        """d torque / d nodal u, X^T (c Y u - s X u) + Y^T (s Y u + c X u),
        for one state (n,) or for k states as the columns of u (n, k)."""
        bx, by = self.bx @ u, self.by @ u
        s, c = self.s, self.c
        if np.ndim(u) == 2:
            s, c = s[:, None], c[:, None]
        return self.bx.rmatmul(c * by - s * bx) + self.by.rmatmul(s * by + c * bx)


class PositionStates(list):
    """The record of one solved (design, q): copies of design and q, the
    states of `MachineProblem.states`, one per rotor position, their value
    J(design, q), their adjoints (adjoints[n] is position n's, or None until
    `MachineProblem.adjoints` solves it) and grad, dJ/dq once
    `robust.ParameterObjective` has asked `grad_q` for it."""

    def __init__(self, design, q, n_positions):
        super().__init__()
        self.design = np.array(design, dtype=bool)
        self.q = np.array(q, dtype=float)
        self.value = self.grad = None
        self.adjoints = [None] * n_positions


class MachineProblem:
    """State solves, objective, adjoints and sensitivities for one mesh."""

    def __init__(self, mesh, materials=None, scenario=None, solver=None,
                 smoothing_eps=None):
        self.mesh = mesh
        self.spec = materials or MaterialSpec()
        self.scenario = scenario or Scenario()
        self.solver = solver or SolverOptions()
        self.space = P1Space(mesh)
        self.dofmap = DofMap(mesh)
        self.newton_log = []        # NewtonInfo of every state solve, in order
        self._basis = None          # (design key, states, adjoints)
        self.bases_built = 0        # one factorization each
        self.factorizations = 0     # Newton steps, adjoints, bases, smoother
        self.objective_evaluations = 0

        m = mesh.n_elements
        rid = mesh.region_id
        self.design_elements = mesh.elements_in("design")
        if len(self.design_elements) == 0:
            raise ConfigurationError("mesh has no design region")
        # the design region as a mesh of its own, constraining no node
        self.design_nodes, tri = np.unique(mesh.triangles[self.design_elements],
                                           return_inverse=True)
        empty = np.zeros(0, dtype=np.int32)
        self.design_mesh = replace(
            mesh, vertices=mesh.vertices[self.design_nodes], triangles=tri.reshape(-1, 3),
            region_id=rid[self.design_elements], pair_master=empty, pair_slave=empty,
            dirichlet_nodes=empty)

        self._stator = mesh.elements_in("stator_iron")
        # the winding: currents sin(th) J_1 + cos(th) J_2 and their loads
        self._currents = np.zeros((2, m))
        for name, _, offset, sign in COILS:
            self._currents[:, mesh.elements_in(name)] = (
                sign * J_PEAK * np.array([np.cos(offset), np.sin(offset)]))[:, None]
        self._coil_loads = [self.space.load_vector(j) for j in self._currents]

        # air and magnet rows, h = nu (B - rem), with one remanence rem at
        # every rotor position
        self._nu = np.full(m, laws.NU0)
        self._rem = np.zeros((m, 2))
        for name, phi in zip(("magnet1", "magnet2"), MAGNET_PHI):
            elems = mesh.elements_in(name)
            self._nu[elems] = laws.NU_M
            self._rem[elems] = laws.B_R * np.array([np.cos(phi), np.sin(phi)])
        # respond(0) of every state solve: the iron law gives 0 at zero flux
        # and iron carries no remanence, so nu (0 - rem) holds on every row
        # (0.0 - rem, not -rem, keeps +0.0 where rem is zero)
        self._h0 = self._nu[:, None] * (0.0 - self._rem)

        cen = mesh.centroids()[self.design_elements]
        ang = np.minimum((np.arctan2(cen[:, 1], cen[:, 0]) / (SECTOR / 4)).astype(int),
                         3)
        rad = (np.hypot(cen[:, 0], cen[:, 1]) >= 0.5 * (R_SHAFT + R_DESIGN)).astype(int)
        self.design_block = (2 * ang + rad).astype(np.int64)

        # entry of q that each element's saturation knee reads; -1 keeps K_F
        self.knee_index = np.full(m, -1, dtype=np.int64)
        if self.scenario.binding == "knee":
            self.knee_index[self._stator] = 0
            self.knee_index[self.design_elements] = 0
        elif self.scenario.binding == "knee_regions":
            self.knee_index[self._stator] = ROTOR_BLOCKS
            self.knee_index[self.design_elements] = self.design_block

        self.torque_probe = TorqueProbe(self.space)

        areas = self.space.areas[self.design_elements]
        self.design_h = float(np.sqrt(2.0 * areas.mean()))
        self.smoothing_eps = (smoothing_eps if smoothing_eps is not None
                              else (2.0 * self.design_h) ** 2)
        self._smoother = None

    # -- positions and sources ------------------------------------------------

    def alphas(self):
        n = self.scenario.n_positions
        return POSITION_SWEEP * np.arange(1, n + 1) / n

    def _phase(self, q):
        if self.scenario.binding == "phase":
            return float(np.asarray(q, dtype=float)[0])
        return PHI0

    def _winding(self, alpha, q, pair):
        """sin(th) pair[0] + cos(th) pair[1] at th = p alpha + phase."""
        th = POLE_PAIRS * alpha + self._phase(q)
        return np.sin(th) * pair[0] + np.cos(th) * pair[1]

    def source_density(self, alpha, q):
        """Element-wise current density at one rotor position."""
        return self._winding(alpha, q, self._currents)

    # -- materials ------------------------------------------------------------

    def _knee_values(self, q):
        """Per-element saturation knees: q where `knee_index` binds, else K_F."""
        kf = np.full(self.mesh.n_elements, laws.K_F)
        bound = self.knee_index >= 0
        kf[bound] = np.asarray(q)[self.knee_index[bound]]
        return kf

    def _iron_elements(self, design):
        design = np.asarray(design, dtype=bool)
        if design.shape != (len(self.design_elements),):
            raise UsageError("design array does not match the design region")
        return np.concatenate([self._stator, self.design_elements[design]])

    def respond_factory(self, design, q, alpha=None):
        """Material response closure respond(B) -> (h, dh) for assembly: nu,
        remanence and dh of the linear rows are fixed here, and each call
        evaluates the iron law on the iron rows only. No material depends on
        the rotor position; alpha is accepted and ignored because the
        benchmark's superposition oracle passes it."""
        iron = self._iron_elements(design)
        kf = self._knee_values(q)[iron]
        iron_law = self.spec.iron_law()
        nu, rem = self._nu, self._rem
        dh_lin = nu[:, None, None] * np.eye(2)

        def respond(B):
            h = nu[:, None] * (B - rem)
            dh = dh_lin.copy()
            h[iron], dh[iron] = iron_law.response(B[iron], kf)
            return h, dh

        return respond

    # -- state, objective, adjoint --------------------------------------------

    def _q_array(self, q):
        q = self.scenario.q_hat if q is None else q
        q = np.asarray(q, dtype=float)
        if q.shape != (self.scenario.n_q,):
            raise UsageError(f"parameter vector must have length {self.scenario.n_q}")
        return q

    def solve_position(self, design, q, n, u0=None, factors=None):
        """Newton's state at position n, from u0 if given; factors is
        newton_solve's."""
        alpha = self.alphas()[n]
        q = self._q_array(q)
        respond = self.respond_factory(design, q)
        load = self._winding(alpha, q, self._coil_loads)
        u, info = newton_solve(self.space, self.dofmap, respond, load, self._h0,
                               u0=u0, tol=self.solver.newton_tol,
                               max_iter=NEWTON_MAX_ITER, factors=factors)
        self.newton_log.append(info)
        self.factorizations += info.iterations
        return u, info

    def _linear_basis(self, design):
        """Linear-iron states and adjoints: loads of the remanence, L_1, L_2."""
        space, dofmap = self.space, self.dofmap
        # the magnet load is minus the flux divergence of h(B = 0) = -nu rem
        loads = ([space.flux_divergence(self._nu[:, None] * self._rem)]
                 + self._coil_loads)
        respond = self.respond_factory(design, self.scenario.q_hat)
        _, dh = respond(np.zeros((self.mesh.n_elements, 2)))
        try:
            factor = factor_tangent(space, dofmap, dh)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular tangent system of the linear-iron basis") from exc
        states = dofmap.expand(factor.solve(dofmap.reduce_vector(
            np.column_stack(loads))))
        rhs = dofmap.reduce_vector(self.torque_probe.torque_gradient(states))
        self.bases_built += 1
        self.factorizations += 1
        return states.T, dofmap.expand(factor.solve(rhs)).T

    def _from_basis(self, design, q):
        """Basis states and adjoints combined at every position, with the
        magnets' weight 1 and the weights of `_winding`."""
        key = np.asarray(design, dtype=bool).tobytes()
        if self._basis is None or self._basis[0] != key:
            self._basis = (key,) + self._linear_basis(design)
        theta = POLE_PAIRS * self.alphas() + self._phase(q)
        weights = np.column_stack([np.ones_like(theta), np.sin(theta),
                                   np.cos(theta)])
        return (weights @ self._basis[1],
                weights @ self._basis[2] / self.scenario.n_positions)

    def states(self, design, q=None, starts=()):
        """The PositionStates of every rotor position, in order, valued: the
        design's basis combined, adjoints too (linear iron), or Newton from
        starts[n] (a nearby state) where given, else from the previous
        position's state, whose adjoint the first step's factor solves."""
        q = self._q_array(q)
        out = PositionStates(design, q, self.scenario.n_positions)
        if self.spec.iron_linear:
            out[:], out.adjoints[:] = self._from_basis(design, q)
        else:
            for n in range(self.scenario.n_positions):
                chained = n >= len(starts) and n > 0
                u0 = starts[n] if n < len(starts) else (out[-1] if chained else None)
                factors = self._chained(out, n - 1) if chained else None
                out.append(self.solve_position(design, q, n, u0, factors)[0])
        out.value = float(-np.mean([self.torque(u) for u in out]))
        return out

    def _chained(self, states, n):
        """factors of a Newton solve started at states[n]: its first call,
        of K(states[n]), also solves position n's adjoint."""
        def factors(dh):
            factor = factor_tangent(self.space, self.dofmap, dh)
            if states.adjoints[n] is None:
                rhs = (self.torque_probe.torque_gradient(states[n])
                       / self.scenario.n_positions)
                states.adjoints[n] = self.dofmap.expand(
                    factor.solve(self.dofmap.reduce_vector(rhs)))
            return factor

        return factors

    def torque(self, u):
        return self.torque_probe.torque(u)

    def objective(self, design, q=None, starts=()):
        """Objective value and the PositionStates that produced it."""
        self.objective_evaluations += 1
        states = self.states(design, q, starts)
        return states.value, states

    def adjoints(self, states):
        """The adjoint of every position of a PositionStates: its adjoints,
        each missing one solved in place at the record's design and q."""
        missing = [n for n, p in enumerate(states.adjoints) if p is None]
        respond = self.respond_factory(states.design, states.q) if missing else None
        for n in missing:
            u = states[n]
            rhs = self.torque_probe.torque_gradient(u) / self.scenario.n_positions
            states.adjoints[n] = adjoint_solve(self.space, self.dofmap, respond,
                                               u, rhs)
            self.factorizations += 1
        return states.adjoints

    def td_inputs(self, states):
        """Flux U and adjoint flux P on design elements, shapes (N, m_d, 2)."""
        U = np.stack([self.space.element_curl(u)[self.design_elements]
                      for u in states])
        P = np.stack([self.space.element_curl(p)[self.design_elements]
                      for p in self.adjoints(states)])
        return U, P

    # -- parameter gradient ----------------------------------------------------

    def grad_q(self, states):
        """Gradient of J in the parameter vector at a PositionStates."""
        q = states.q
        binding = self.scenario.binding
        if binding != "phase" and self.spec.iron_linear:
            # the linear iron law has no knee, so no state depends on q
            return np.zeros(self.scenario.n_q)
        adjoints = self.adjoints(states)
        grad = np.zeros(self.scenario.n_q)

        if binding == "phase":
            # d load / d phase = cos(th) L_1 - sin(th) L_2
            l1, l2 = self._coil_loads
            for th, p in zip(POLE_PAIRS * self.alphas() + q[0], adjoints):
                grad[0] -= np.cos(th) * (l1 @ p) - np.sin(th) * (l2 @ p)
            return grad

        # knee bindings: d h / d k on bound iron elements, dotted with the
        # adjoint flux; air design elements read no knee
        bound = self.knee_index >= 0
        bound[self.design_elements[~states.design]] = False
        active = np.flatnonzero(bound)
        if len(active) == 0:
            log.warning("knee binding has no iron elements; gradient is zero")
            return grad
        kf = self._knee_values(q)[active]
        areas = self.space.areas[active]
        c = laws.NU_F - laws.NU0
        for u, p in zip(states, adjoints):
            Bu = self.space.element_curl(u)[active]
            Bp = self.space.element_curl(p)[active]
            s = np.linalg.norm(Bu, axis=-1)
            dg = laws.iron_knee_factor_dk(kf, s, laws.N_F)
            w = areas * c * dg * np.einsum("ed,ed->e", Bu, Bp)
            np.add.at(grad, self.knee_index[active], w)
        return grad

    # -- design helpers ---------------------------------------------------------

    def design_from_levelset(self, psi):
        """Element material from nodal psi: iron where the centroid value > 0."""
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (len(self.design_nodes),):
            raise UsageError("level set vector does not match the design nodes")
        return psi[self.design_mesh.triangles].mean(axis=1) > 0.0

    def smoother(self):
        """The design region's screened smoother, built on first use."""
        if self._smoother is None:
            self._smoother = ScreenedSmoother(self.design_mesh, self.smoothing_eps)
            self.factorizations += 1
        return self._smoother

    def knee_for_elements(self, q):
        """Per-design-element knee from q."""
        return self._knee_values(self._q_array(q))[self.design_elements]
