"""The benchmark machine problem on one 45-degree pole.

Couples the sector mesh, the constitutive laws, the three-phase winding and
the permanent magnets into the torque objective

    J(design, q) = -(1/N) * sum_n T(u^n),

where u^n solves the magnetostatic problem at rotor position alpha_n and T is
the Maxwell stress torque evaluated on a circle inside the air gap. Rotor
motion is frozen: positions only advance the electrical angle of the phase
currents (and optionally co-rotate the magnet remanence directions).

The parameter vector q carries scenario uncertainty: the load angle of the
currents ("phase" binding), one shared iron saturation knee ("knee" binding),
or one knee per rotor block plus one for the stator ("knee_regions", with
ROTOR_BLOCKS + 1 entries). MachineProblem decides once, in `knee_index`,
which entry of q each element's knee reads; every iron row is evaluated by
the iron law of `MaterialSpec` with those per-element knees.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import laws
from .errors import ConfigurationError, UsageError
from .fem import (DofMap, P1Space, ScreenedSmoother, TangentCache,
                  adjoint_solve, newton_solve)
from .laws import MU0

log = logging.getLogger(__name__)

POSITION_SWEEP = np.deg2rad(15.0)

# phase offsets and slot signs of the three winding regions
COILS = (("coil_A", 0.0, +1.0), ("coil_B", 2 * np.pi / 3, -1.0),
         ("coil_C", 4 * np.pi / 3, +1.0))

POLE_PAIRS = 4

# DIST knee blocks of the design region: 4 angular x 2 radial
ROTOR_BLOCKS = 8


@dataclass(frozen=True)
class MaterialSpec:
    """Material constants of the benchmark machine."""

    nu0: float = laws.NU0
    nu_f: float = laws.NU_F
    k_f: float = laws.K_F
    n_f: int = laws.N_F
    iron_linear: bool = False
    nu_m: float = laws.NU_M
    b_r: float = laws.B_R
    magnet_phi1: float = np.deg2rad(30.0)
    magnet_phi2: float = np.deg2rad(15.0)
    j_peak: float = 23.7e6
    phi0: float = np.deg2rad(6.0)

    def iron_law(self, knee=None):
        """The iron law of these constants, with its knee at k_f or knee."""
        return laws.iron_law(self.nu0, self.nu_f,
                             self.k_f if knee is None else knee, self.n_f,
                             self.iron_linear)

    def law_fingerprint(self, knee_mode):
        """Digest of the iron/air law pair a sensitivity table depends on."""
        import hashlib

        txt = (f"nu0={self.nu0!r};nu_f={self.nu_f!r};n_f={self.n_f};"
               f"linear={self.iron_linear};knee={knee_mode}")
        return hashlib.sha256(txt.encode()).hexdigest()[:16]

    def knee_mode(self, scenario):
        if scenario.binding in ("knee", "knee_regions"):
            return "q-axis"
        return f"fixed:{self.k_f!r}"


@dataclass(frozen=True)
class Scenario:
    """What varies across a run: rotor positions and the uncertain parameter."""

    name: str = "NOM"
    n_positions: int = 11
    q_hat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    co_rotate_magnets: bool = False
    frozen_alpha: float | None = None

    @property
    def binding(self):
        return {"NOM": None, "ANG": "phase", "SCAL": "knee",
                "DIST": "knee_regions"}[self.name]

    @property
    def n_q(self):
        return {"NOM": 0, "ANG": 1, "SCAL": 1,
                "DIST": ROTOR_BLOCKS + 1}[self.name]

    def validate(self):
        if self.name not in ("NOM", "ANG", "SCAL", "DIST"):
            raise ConfigurationError(f"unknown scenario {self.name!r}")
        if self.n_positions < 1:
            raise ConfigurationError("scenario needs at least one rotor position")
        q = np.asarray(self.q_hat, dtype=float)
        if q.shape != (self.n_q,):
            raise ConfigurationError(
                f"scenario {self.name} expects a nominal q of length {self.n_q}, "
                f"got shape {q.shape}")


@dataclass
class SolverOptions:
    newton_tol: float = 1e-8
    newton_max_iter: int = 50


class TorqueProbe:
    """Maxwell stress torque on a circle through the air gap.

    T = (r^2 / mu0) * integral of B_r * B_t dtheta over the full machine,
    evaluated with trapezoid samples over the meshed sector and multiplied by
    the number of sectors. B is the element-wise constant P1 flux density.
    """

    def __init__(self, mesh, radius, n_points):
        self.radius = float(radius)
        sector = mesh.meta["sector"]
        if n_points < 8:
            raise ConfigurationError("torque probe needs at least 8 sample points")
        theta = np.linspace(0.0, sector, n_points)
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

        weights = np.full(n_points, sector / (n_points - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        # full-machine prefactor: (r^2/mu0) and sector multiplicity
        self.weights = weights * (self.radius**2 / MU0) * (2 * np.pi / sector)
        self.normals = np.column_stack([np.cos(theta), np.sin(theta)])
        self.tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
        self._tri_nodes = mesh.triangles[self.elements]

    def sample_flux(self, space, u):
        return space.element_curl(u)[self.elements]

    def torque(self, space, u):
        B = self.sample_flux(space, u)
        br = np.einsum("sd,sd->s", B, self.normals)
        bt = np.einsum("sd,sd->s", B, self.tangents)
        return float(np.dot(self.weights, br * bt))

    def torque_gradient(self, space, u):
        """d torque / d nodal u as a full-length vector."""
        B = self.sample_flux(space, u)
        br = np.einsum("sd,sd->s", B, self.normals)
        bt = np.einsum("sd,sd->s", B, self.tangents)
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
        self.scenario.validate()
        self.solver = solver or SolverOptions()
        self.space = P1Space(mesh)
        self.dofmap = DofMap(mesh)
        # one factored tangent shared by every state solve and adjoint
        self.tangents = TangentCache(self.space, self.dofmap)
        self.newton_log = []        # NewtonInfo of every state solve, in order

        m = mesh.n_elements
        rid = mesh.region_id
        names = mesh.region_names
        idx = {name: names.index(name) for name in names}
        self.design_elements = mesh.elements_in("design")
        if len(self.design_elements) == 0:
            raise ConfigurationError("mesh has no design region")
        self.design_nodes = np.unique(mesh.triangles[self.design_elements].ravel())
        self._node_local = np.full(mesh.n_nodes, -1, dtype=np.int64)
        self._node_local[self.design_nodes] = np.arange(len(self.design_nodes))

        always_air = np.isin(rid, [idx[n] for n in
                                   ("shaft", "air_gap", "coil_A", "coil_B", "coil_C")])
        self._always_air = np.flatnonzero(always_air)
        self._stator = mesh.elements_in("stator_iron")
        self._magnet1 = mesh.elements_in("magnet1")
        self._magnet2 = mesh.elements_in("magnet2")
        self._coils = [(mesh.elements_in(name), off, sign) for name, off, sign in COILS]

        cen = mesh.centroids()[self.design_elements]
        sector = mesh.meta["sector"]
        r_in = mesh.meta["r_shaft"]
        r_out = mesh.meta["r_design"]
        ang = np.minimum((np.arctan2(cen[:, 1], cen[:, 0]) / (sector / 4)).astype(int),
                         3)
        rad = (np.hypot(cen[:, 0], cen[:, 1]) >= 0.5 * (r_in + r_out)).astype(int)
        self.design_block = (2 * ang + rad).astype(np.int64)

        # entry of q that each element's saturation knee reads; -1 keeps k_f
        self.knee_index = np.full(m, -1, dtype=np.int64)
        if self.scenario.binding == "knee":
            self.knee_index[self._stator] = 0
            self.knee_index[self.design_elements] = 0
        elif self.scenario.binding == "knee_regions":
            self.knee_index[self._stator] = ROTOR_BLOCKS
            self.knee_index[self.design_elements] = self.design_block

        self.torque_probe = TorqueProbe(
            mesh, 0.5 * (r_out + mesh.meta["r_gap_outer"]),
            max(64, 4 * mesh.meta["m_ang"]))

        areas = self.space.areas[self.design_elements]
        self.design_h = float(np.sqrt(2.0 * areas.mean()))
        self.smoothing_eps = (smoothing_eps if smoothing_eps is not None
                              else (2.0 * self.design_h) ** 2)
        self._smoother = None

    # -- positions and sources ------------------------------------------------

    def alphas(self):
        n = self.scenario.n_positions
        if self.scenario.frozen_alpha is not None:
            return np.full(n, float(self.scenario.frozen_alpha))
        return POSITION_SWEEP * np.arange(1, n + 1) / n

    def _phase(self, q):
        if self.scenario.binding == "phase":
            return float(np.asarray(q, dtype=float)[0])
        return self.spec.phi0

    def source_density(self, alpha, q):
        """Element-wise current density at one rotor position."""
        out = np.zeros(self.mesh.n_elements)
        phase = self._phase(q)
        for elems, offset, sign in self._coils:
            out[elems] = sign * self.spec.j_peak * np.sin(
                POLE_PAIRS * alpha + offset + phase)
        return out

    def _source_density_dphase(self, alpha, q):
        out = np.zeros(self.mesh.n_elements)
        phase = self._phase(q)
        for elems, offset, sign in self._coils:
            out[elems] = sign * self.spec.j_peak * np.cos(
                POLE_PAIRS * alpha + offset + phase)
        return out

    # -- materials ------------------------------------------------------------

    def _knee_values(self, q):
        """Per-element saturation knees: q where `knee_index` binds, else k_f."""
        kf = np.full(self.mesh.n_elements, self.spec.k_f)
        bound = self.knee_index >= 0
        kf[bound] = np.asarray(q)[self.knee_index[bound]]
        return kf

    def _remanence(self, alpha):
        rem = np.zeros((self.mesh.n_elements, 2))
        shift = alpha if self.scenario.co_rotate_magnets else 0.0
        for elems, phi in ((self._magnet1, self.spec.magnet_phi1),
                           (self._magnet2, self.spec.magnet_phi2)):
            rem[elems] = self.spec.b_r * np.array(
                [np.cos(phi + shift), np.sin(phi + shift)])
        return rem

    def _element_sets(self, design):
        design = np.asarray(design, dtype=bool)
        if design.shape != (len(self.design_elements),):
            raise UsageError("design array does not match the design region")
        iron = np.concatenate([self._stator, self.design_elements[design]])
        air = np.concatenate([self._always_air, self.design_elements[~design]])
        return iron, air

    def respond_factory(self, design, q, alpha):
        """Material response closure respond(B) -> (h, dh) for assembly."""
        iron, air = self._element_sets(design)
        magnets = np.concatenate([self._magnet1, self._magnet2])
        kf = self._knee_values(q)[iron]
        rem = self._remanence(alpha)[magnets]
        spec = self.spec
        iron_law = spec.iron_law()
        eye = np.eye(2)

        def respond(B):
            h = np.empty_like(B)
            dh = np.empty(B.shape + (2,))
            h[air] = spec.nu0 * B[air]
            dh[air] = spec.nu0 * eye
            h[magnets] = spec.nu_m * (B[magnets] - rem)
            dh[magnets] = spec.nu_m * eye
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
                               max_iter=self.solver.newton_max_iter,
                               cache=self.tangents)
        self.newton_log.append(info)
        return u, info

    def states(self, design, q=None):
        """States at every rotor position, in order.

        With nonlinear iron each position's Newton starts from the previous
        position's state; linear iron converges in one step from any start.
        """
        q = self._q_array(q)
        out = []
        for n in range(self.scenario.n_positions):
            u0 = out[-1] if out and not self.spec.iron_linear else None
            out.append(self.solve_position(design, q, n, u0)[0])
        return out

    def torque(self, u):
        return self.torque_probe.torque(self.space, u)

    def objective(self, design, q=None):
        """Objective value and the per-position states that produced it."""
        states = self.states(design, q)
        torques = np.array([self.torque(u) for u in states])
        return float(-np.mean(torques)), states

    def adjoints(self, design, q=None, states=None):
        q = self._q_array(q)
        states = self.states(design, q) if states is None else states
        alphas = self.alphas()
        n_pos = self.scenario.n_positions
        out = []
        for n, u in enumerate(states):
            respond = self.respond_factory(design, q, alphas[n])
            rhs = self.torque_probe.torque_gradient(self.space, u) / n_pos
            out.append(adjoint_solve(self.space, self.dofmap, respond, u, rhs,
                                     cache=self.tangents))
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
        if binding is None:
            log.warning("grad_q called on a scenario without parameter bindings")
            return np.zeros(0)
        if binding != "phase" and self.spec.iron_linear:
            # the linear iron law has no knee, so no state depends on q
            return np.zeros(self.scenario.n_q)
        states = self.states(design, q) if states is None else states
        adjoints = self.adjoints(design, q, states) if adjoints is None else adjoints
        alphas = self.alphas()
        grad = np.zeros(self.scenario.n_q)

        if binding == "phase":
            for n, p in enumerate(adjoints):
                dj = self._source_density_dphase(alphas[n], q)
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
        c = self.spec.nu_f - self.spec.nu0
        for u, p in zip(states, adjoints):
            Bu = self.space.element_curl(u)[active]
            Bp = self.space.element_curl(p)[active]
            s = np.linalg.norm(Bu, axis=-1)
            dg = laws.iron_knee_factor_dk(kf, s, self.spec.n_f)
            w = areas * c * dg * np.einsum("ed,ed->e", Bu, Bp)
            np.add.at(grad, self.knee_index[active], w)
        return grad

    # -- design helpers ---------------------------------------------------------

    def design_from_levelset(self, psi):
        """Element material from nodal psi: iron where the centroid value > 0."""
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (len(self.design_nodes),):
            raise UsageError("level set vector does not match the design nodes")
        tri = self._node_local[self.mesh.triangles[self.design_elements]]
        return psi[tri].mean(axis=1) > 0.0

    def smoother(self):
        """The design region's screened smoother, built on first use."""
        if self._smoother is None:
            self._smoother = ScreenedSmoother(self.space, self.design_elements,
                                              self.smoothing_eps)
        return self._smoother

    def knee_for_elements(self, q, air_nominal=False):
        """Per-design-element knee from q (or the nominal q for air flips)."""
        q = self.scenario.q_hat if air_nominal else self._q_array(q)
        return self._knee_values(q)[self.design_elements]
