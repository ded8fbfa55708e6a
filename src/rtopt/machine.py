"""The benchmark machine problem on one 45-degree pole.

Couples the sector mesh, the constitutive laws, the three-phase winding and
the permanent magnets into the torque objective

    J(design, q) = -(1/N) * sum_n T(u^n),

where u^n solves the magnetostatic problem at rotor position alpha_n and T is
the Maxwell stress torque evaluated on a circle inside the air gap. Rotor
motion is frozen: positions only advance the electrical angle of the phase
currents (and optionally co-rotate the magnet remanence directions).
Nonlinear iron solves each position by damped Newton. Linear iron combines
one basis per design (one factorization, two solves) for every position, q
and adjoint.

The parameter vector q carries scenario uncertainty: the load angle of the
currents ("phase" binding), one shared iron saturation knee ("knee" binding),
or one knee per rotor block plus one for the stator ("knee_regions", with
ROTOR_BLOCKS + 1 entries). MachineProblem decides once, in `knee_index`,
which entry of q each element's knee reads; every iron row is evaluated by
the iron law of `MaterialSpec` with those per-element knees. Air and magnet
rows are linear, h = nu (B - remanence), fixed once per response closure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import laws
from .errors import ConfigurationError, SolverError, UsageError
from .fem import (DofMap, P1Space, ScreenedSmoother, adjoint_solve,
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
    co_rotate_magnets: bool = False

    @property
    def binding(self):
        return BINDINGS[self.name]

    @property
    def n_q(self):
        return ROTOR_BLOCKS + 1 if self.name == "DIST" else 1

    def __post_init__(self):
        if self.name not in BINDINGS:
            raise ConfigurationError(f"unknown scenario {self.name!r}")
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
        if not self.newton_tol > 0:
            raise ConfigurationError("newton controls out of range")


class TorqueProbe:
    """Maxwell stress torque on a circle through the air gap.

    T = (r^2 / mu0) * integral of B_r * B_t dtheta over the full machine,
    evaluated with trapezoid samples over the meshed sector and multiplied by
    the number of sectors. B is the element-wise constant P1 flux density.
    """

    def __init__(self, mesh, radius, n_points):
        self.radius = float(radius)
        if n_points < 8:
            raise ConfigurationError("torque probe needs at least 8 sample points")
        theta = np.linspace(0.0, SECTOR, n_points)
        pts = self.radius * np.column_stack([np.cos(theta), np.sin(theta)])

        gap = mesh.elements_in("air_gap")
        if len(gap) == 0:
            raise ConfigurationError("mesh has no air_gap region for the torque probe")
        tri = mesh.triangles[gap]
        a = mesh.vertices[tri[:, 0]]
        m1 = mesh.vertices[tri[:, 1]] - a
        m2 = mesh.vertices[tri[:, 2]] - a
        det = m1[:, 0] * m2[:, 1] - m1[:, 1] * m2[:, 0]
        # barycentric coordinates of every sample in every gap element
        dp = pts[:, None, :] - a[None, :, :]
        l1 = (dp[..., 0] * m2[None, :, 1] - dp[..., 1] * m2[None, :, 0]) / det
        l2 = (m1[None, :, 0] * dp[..., 1] - m1[None, :, 1] * dp[..., 0]) / det
        inside = (l1 >= -1e-9) & (l2 >= -1e-9) & (l1 + l2 <= 1 + 1e-9)
        if not inside.any(axis=1).all():
            raise ConfigurationError(
                "torque circle leaves the meshed air gap; adjust radius")
        owner = inside.argmax(axis=1)
        self.elements = gap[owner]

        weights = np.full(n_points, SECTOR / (n_points - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        # full-machine prefactor: (r^2/mu0) and sector multiplicity
        self.weights = weights * (self.radius**2 / MU0) * (2 * np.pi / SECTOR)
        self.normals = np.column_stack([np.cos(theta), np.sin(theta)])
        self.tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
        self._tri_nodes = mesh.triangles[self.elements]

    def sample_flux(self, space, u):
        """Radial and tangential flux density at the samples."""
        B = space.element_curl(u)[self.elements]
        return (np.einsum("sd,sd->s", B, self.normals),
                np.einsum("sd,sd->s", B, self.tangents))

    def torque(self, space, u):
        br, bt = self.sample_flux(space, u)
        return float(np.dot(self.weights, br * bt))

    def torque_gradient(self, space, u):
        """d torque / d nodal u as a full-length vector."""
        br, bt = self.sample_flux(space, u)
        curls = space.curls[self.elements]                     # (s, 3, 2)
        cn = np.einsum("sid,sd->si", curls, self.normals)
        ct = np.einsum("sid,sd->si", curls, self.tangents)
        contrib = self.weights[:, None] * (cn * bt[:, None] + ct * br[:, None])
        out = np.zeros(space.n_nodes)
        np.add.at(out, self._tri_nodes.ravel(), contrib.ravel())
        return out


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
        self._magnet1 = mesh.elements_in("magnet1")
        self._magnet2 = mesh.elements_in("magnet2")
        self._coils = [(mesh.elements_in(name), off, sign)
                       for name, _, off, sign in COILS]

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

        self.torque_probe = TorqueProbe(mesh, 0.5 * (R_DESIGN + R_GAP_OUTER),
                                        max(64, 4 * mesh.meta["m_ang"]))

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

    def _coil_density(self, angle, phase, wave=np.sin):
        """Element-wise J_PEAK * wave(angle + coil offset + phase) in the coils."""
        out = np.zeros(self.mesh.n_elements)
        for elems, offset, sign in self._coils:
            out[elems] = sign * J_PEAK * wave(angle + offset + phase)
        return out

    def source_density(self, alpha, q):
        """Element-wise current density at one rotor position."""
        return self._coil_density(POLE_PAIRS * alpha, self._phase(q))

    # -- materials ------------------------------------------------------------

    def _knee_values(self, q):
        """Per-element saturation knees: q where `knee_index` binds, else K_F."""
        kf = np.full(self.mesh.n_elements, laws.K_F)
        bound = self.knee_index >= 0
        kf[bound] = np.asarray(q)[self.knee_index[bound]]
        return kf

    def _remanence(self, alpha):
        rem = np.zeros((self.mesh.n_elements, 2))
        shift = alpha if self.scenario.co_rotate_magnets else 0.0
        for elems, phi in zip((self._magnet1, self._magnet2), MAGNET_PHI):
            rem[elems] = laws.B_R * np.array(
                [np.cos(phi + shift), np.sin(phi + shift)])
        return rem

    def _iron_elements(self, design):
        design = np.asarray(design, dtype=bool)
        if design.shape != (len(self.design_elements),):
            raise UsageError("design array does not match the design region")
        return np.concatenate([self._stator, self.design_elements[design]])

    def respond_factory(self, design, q, alpha):
        """Material response closure respond(B) -> (h, dh) for assembly: nu,
        remanence and dh of the linear rows are fixed here, and each call
        evaluates the iron law on the iron rows only."""
        iron = self._iron_elements(design)
        kf = self._knee_values(q)[iron]
        iron_law = self.spec.iron_law()
        nu = np.full(self.mesh.n_elements, laws.NU0)
        nu[self._magnet1] = nu[self._magnet2] = laws.NU_M
        rem = self._remanence(alpha)
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

    def solve_position(self, design, q, n, u0=None):
        alpha = self.alphas()[n]
        q = self._q_array(q)
        respond = self.respond_factory(design, q, alpha)
        load = self.space.load_vector(self.source_density(alpha, q))
        u, info = newton_solve(self.space, self.dofmap, respond, load, u0=u0,
                               tol=self.solver.newton_tol,
                               max_iter=NEWTON_MAX_ITER)
        self.newton_log.append(info)
        return u, info

    def _linear_basis(self, design):
        """Linear-iron states and adjoints: magnet rows R_0 (and R_90), J_s, J_c."""
        space, dofmap, q = self.space, self.dofmap, self.scenario.q_hat
        zero = np.zeros((self.mesh.n_elements, 2))
        turns = (0.0, np.pi / 2) if self.scenario.co_rotate_magnets else (0.0,)
        hs = [self.respond_factory(design, q, a)(zero) for a in turns]
        # magnet loads are minus the flux divergence of h(B = 0)
        loads = [-space.flux_divergence(h) for h, _ in hs] + [
            space.load_vector(self._coil_density(0.0, 0.0, wave))
            for wave in (np.cos, np.sin)]
        try:
            factor = factor_tangent(space, dofmap, hs[0][1])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular tangent system of the linear-iron basis") from exc
        states = dofmap.expand(factor.solve(dofmap.reduce_vector(
            np.column_stack(loads)))).T
        rhs = dofmap.reduce_vector(np.column_stack(
            [self.torque_probe.torque_gradient(space, u) for u in states]))
        self.bases_built += 1
        return states, dofmap.expand(factor.solve(rhs)).T

    def _from_basis(self, design, q, row):
        """Basis states (row 0) or adjoints (row 1) combined at every position.

        Currents at th = p*alpha + phase are sin(th) J_s + cos(th) J_c, and
        co-rotating remanence is cos(alpha) R_0 + sin(alpha) R_90."""
        key = np.asarray(design, dtype=bool).tobytes()
        if self._basis is None or self._basis[0] != key:
            self._basis = (key,) + self._linear_basis(design)
        alphas = self.alphas()
        theta = POLE_PAIRS * alphas + self._phase(q)
        magnets = ([np.cos(alphas), np.sin(alphas)]
                   if self.scenario.co_rotate_magnets else [np.ones_like(alphas)])
        weights = np.column_stack(magnets + [np.sin(theta), np.cos(theta)])
        return list(weights @ self._basis[1 + row])

    def states(self, design, q=None, starts=()):
        """States at every rotor position, in order: the design's basis
        combined (linear iron), or Newton from starts[n] (a nearby state)
        where given, else from the previous position's state."""
        q = self._q_array(q)
        if self.spec.iron_linear:
            return self._from_basis(design, q, 0)
        out = []
        for n in range(self.scenario.n_positions):
            u0 = starts[n] if n < len(starts) else (out[-1] if out else None)
            out.append(self.solve_position(design, q, n, u0)[0])
        return out

    def torque(self, u):
        return self.torque_probe.torque(self.space, u)

    def objective(self, design, q=None, starts=()):
        """Objective value and the per-position states that produced it."""
        self.objective_evaluations += 1
        states = self.states(design, q, starts)
        torques = np.array([self.torque(u) for u in states])
        return float(-np.mean(torques)), states

    def adjoints(self, design, q=None, states=None):
        q = self._q_array(q)
        n_pos = self.scenario.n_positions
        if self.spec.iron_linear:
            return [p / n_pos for p in self._from_basis(design, q, 1)]
        states = self.states(design, q) if states is None else states
        alphas = self.alphas()
        out = []
        for n, u in enumerate(states):
            respond = self.respond_factory(design, q, alphas[n])
            rhs = self.torque_probe.torque_gradient(self.space, u) / n_pos
            out.append(adjoint_solve(self.space, self.dofmap, respond, u, rhs))
        return out

    def td_inputs(self, states, adjoints):
        """Flux U and adjoint flux P on design elements, shapes (N, m_d, 2)."""
        U = np.stack([self.space.element_curl(u)[self.design_elements]
                      for u in states])
        P = np.stack([self.space.element_curl(p)[self.design_elements]
                      for p in adjoints])
        return U, P

    # -- parameter gradient ----------------------------------------------------

    def grad_q(self, design, q=None, states=None, adjoints=None):
        """Gradient of J with respect to the scenario parameter vector."""
        q = self._q_array(q)
        binding = self.scenario.binding
        if binding != "phase" and self.spec.iron_linear:
            # the linear iron law has no knee, so no state depends on q
            return np.zeros(self.scenario.n_q)
        states = self.states(design, q) if states is None else states
        adjoints = self.adjoints(design, q, states) if adjoints is None else adjoints
        alphas = self.alphas()
        grad = np.zeros(self.scenario.n_q)

        if binding == "phase":
            for n, p in enumerate(adjoints):
                dj = self._coil_density(POLE_PAIRS * alphas[n], q[0], np.cos)
                grad[0] -= float(self.space.load_vector(dj) @ p)
            return grad

        # knee bindings: d h / d k on bound iron elements, dotted with the
        # adjoint flux; air design elements read no knee
        bound = self.knee_index >= 0
        bound[self.design_elements[~np.asarray(design, dtype=bool)]] = False
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
        return self._smoother

    def knee_for_elements(self, q):
        """Per-design-element knee from q."""
        return self._knee_values(self._q_array(q))[self.design_elements]
