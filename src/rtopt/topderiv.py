"""Topological sensitivities via an exterior corrector problem.

Flipping the material inside a vanishing disk perturbs the objective at rate

    dJ(z) = lim (J(perturbed) - J(unperturbed)) / |disk|,

and that rate only depends on the local flux U = curl u(z), the adjoint flux
P = curl p(z) and the two constitutive laws that trade places. It is computed
offline by solving, on a large truncated disk with a unit inclusion, the
corrector equation

    int (h(curl k + U) - h(U)) . curl v + int_inclusion (h_in(U) - h_out(U)) . curl v = 0

for far fields U = t e_x on a grid of magnitudes t (and saturation knees q
when the iron law is parameter-bound), then condensing each solve into the
response pair (f_par, f_perp). Online evaluation rotates the tabulated pair
to the local flux direction:  value = f_par * (P . e_U) + f_perp * (P . e_U_perp).

Both laws are isotropic and the disk mesh is mirror symmetric, so for
U = t e_x the corrector is odd in y, k(x, -y) = -k(x, y). The dof reduction
makes each lower-half node an antiperiodic slave of its mirror and the x axis
Dirichlet, so every tangent is factored at half the full disk's size, while
Newton and the response pair see the full-length k. Far fields off e_x are
refused: the table is rotated online and never needs one.

Tables persist as RTOTD1 files tied to a law fingerprint.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigurationError, FormatError, UsageError, read_format_lines
from .fem import DofMap, P1Space, TangentCache, newton_solve
from .laws import air_law
from .mesh import disk_mirror, graded_disk_mesh

log = logging.getLogger(__name__)

TABLE_FORMAT = "RTOTD1"
DIRECTIONS = ("iron_to_air", "air_to_iron")

# Newton controls of every corrector solve
CORRECTOR_TOL = 1e-10
CORRECTOR_MAX_ITER = 80


@dataclass(frozen=True)
class ExteriorConfig:
    """Discretization of the offline corrector solves."""

    radius: float = 128.0
    target_nodes: int = 60000
    t_max: float = 5.0
    n_t: int = 50
    n_q: int = 10

    def validate(self):
        if self.radius <= 2.0:
            raise ConfigurationError("exterior truncation radius must exceed 2")
        if self.n_t < 2:
            raise ConfigurationError("need at least two flux magnitudes (n_t >= 2)")
        if self.n_q < 1:
            raise ConfigurationError("need at least one knee sample (n_q >= 1)")
        if self.t_max <= 0:
            raise ConfigurationError("t_max must be positive")


class ExteriorProblem:
    """Truncated corrector domain: unit inclusion, Dirichlet far boundary."""

    def __init__(self, config=None):
        self.config = config or ExteriorConfig()
        self.config.validate()
        self.mesh = graded_disk_mesh(self.config.radius, self.config.target_nodes)
        self.space = P1Space(self.mesh)
        # lower-half nodes are slaves (sign -1) of their mirrors; the nodes
        # on the x axis are their own mirrors and vanish
        mirror = disk_mirror(self.mesh)
        node = np.arange(self.mesh.n_nodes)
        dirichlet = np.union1d(self.mesh.dirichlet_nodes, node[mirror == node])
        pair = (mirror > node) & ~np.isin(node, dirichlet)
        self.dofmap = DofMap(replace(self.mesh, pair_master=node[pair],
                                     pair_slave=mirror[pair],
                                     dirichlet_nodes=dirichlet))
        self.inclusion = self.mesh.elements_in("inclusion")
        self.exterior = self.mesh.elements_in("exterior")
        self.inclusion_area = float(self.space.areas[self.inclusion].sum())
        # one factored tangent shared by every corrector solve; with linear
        # iron each flip direction then costs one factorization for all t
        self.tangents = TangentCache(self.space, self.dofmap)
        self.newton_log = []        # NewtonInfo of every corrector solve, in order

    def solve_corrector(self, U, law_in, law_out):
        """Corrector k for far-field flux U = (t, 0) and the two laws."""
        U = np.asarray(U, dtype=float)
        if U[1] != 0.0:
            raise UsageError("corrector far field must lie along e_x: "
                             "the unknowns assume k odd in y")
        inc, ext = self.inclusion, self.exterior
        h_in_U = law_in.h(U)
        h_out_U = law_out.h(U)
        jump = h_in_U - h_out_U

        def respond(Bk):
            b = Bk + U
            h = np.empty_like(Bk)
            dh = np.empty(Bk.shape + (2,))
            h_in, dh[inc] = law_in.response(b[inc])
            h_out, dh[ext] = law_out.response(b[ext])
            h[inc] = h_in - h_in_U + jump
            h[ext] = h_out - h_out_U
            return h, dh

        load = np.zeros(self.space.n_nodes)
        k, info = newton_solve(self.space, self.dofmap, respond, load,
                               tol=CORRECTOR_TOL, max_iter=CORRECTOR_MAX_ITER,
                               cache=self.tangents)
        self.newton_log.append(info)
        return k, info

    def response_pair(self, k, U, law_in, law_out):
        """Condense one corrector solve into the (f_par, f_perp) pair.

        The pair collects the quadratic remainder over the whole domain, the
        law-jump term over the inclusion, and the direct jump h_in(U)-h_out(U),
        all normalized by the discrete inclusion area.
        """
        U = np.asarray(U, dtype=float)
        Bk = self.space.element_curl(k)
        inc = self.inclusion
        areas = self.space.areas

        h_in_U, dh_in_U = law_in.response(U)
        h_out_U, dh_out_U = law_out.response(U)

        b = Bk + U
        rem = np.empty_like(Bk)
        rem[inc] = law_in.h(b[inc]) - h_in_U - Bk[inc] @ dh_in_U.T
        ext = self.exterior
        rem[ext] = law_out.h(b[ext]) - h_out_U - Bk[ext] @ dh_out_U.T
        total = (areas[:, None] * rem).sum(axis=0)
        total += (areas[inc, None] * (Bk[inc] @ (dh_in_U - dh_out_U).T)).sum(axis=0)
        total /= self.inclusion_area
        total += h_in_U - h_out_U
        return float(total[0]), float(total[1])


def laws_for_direction(direction, materials, knee):
    """Inclusion and exterior laws for one flip direction at one iron knee."""
    air = air_law(materials.nu0)
    iron = materials.iron_law(knee)
    if direction == "iron_to_air":
        return air, iron
    if direction == "air_to_iron":
        return iron, air
    raise UsageError(f"unknown direction {direction!r}")


@dataclass
class TDTable:
    """Sampled topological response of one flip direction.

    f_par/f_perp have shape (n_t,) without a knee axis or (n_t, n_q) with
    one. Interpolation is monotone piecewise-cubic in t and linear in q;
    queries outside the sampled box are clamped (with a warning).
    """

    direction: str
    t: np.ndarray
    f_par: np.ndarray
    f_perp: np.ndarray
    law_fingerprint: str
    q: np.ndarray | None = None
    meta: dict | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.f_par = np.asarray(self.f_par, dtype=float)
        self.f_perp = np.asarray(self.f_perp, dtype=float)
        if self.q is not None:
            self.q = np.asarray(self.q, dtype=float)
        if self.direction not in DIRECTIONS:
            raise UsageError(f"unknown direction {self.direction!r}")
        self._par_interp = self._build(self.f_par)
        self._perp_interp = self._build(self.f_perp)
        self._clamp_warned = False

    def _build(self, values):
        if self.q is None:
            return [PchipInterpolator(self.t, values, extrapolate=True)]
        return [PchipInterpolator(self.t, values[:, j], extrapolate=True)
                for j in range(values.shape[1])]

    @property
    def has_knee_axis(self):
        return self.q is not None

    def _warn_clamp(self, what):
        if not self._clamp_warned:
            log.warning("sensitivity table query clamped (%s outside sampled range)",
                        what)
            self._clamp_warned = True

    def _columns(self, tq, qq):
        """Interpolated (par, perp) at clamped magnitudes tq and knees qq."""
        if self.q is None or len(self.q) == 1:
            return self._par_interp[0](tq), self._perp_interp[0](tq)
        j = np.clip(np.searchsorted(self.q, qq), 1, len(self.q) - 1)
        w = (qq - self.q[j - 1]) / (self.q[j] - self.q[j - 1])
        par = np.empty_like(tq)
        perp = np.empty_like(tq)
        for col in np.unique(j):
            m = j == col
            par[m] = ((1 - w[m]) * self._par_interp[col - 1](tq[m])
                      + w[m] * self._par_interp[col](tq[m]))
            perp[m] = ((1 - w[m]) * self._perp_interp[col - 1](tq[m])
                       + w[m] * self._perp_interp[col](tq[m]))
        return par, perp

    def evaluate(self, U, P, knee=None):
        """Sensitivity values for flux rows U and adjoint rows P, shape (m,).

        knee is a per-row saturation parameter; required when the table has a
        knee axis bound to the scenario parameters.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        t = np.linalg.norm(U, axis=-1)
        out = np.zeros(len(t))
        hit = t > 0.0
        if not hit.any():
            return out
        tq = t[hit]
        if np.any(tq > self.t[-1] + 1e-12):
            self._warn_clamp("flux magnitude")
        tq = np.clip(tq, self.t[0], self.t[-1])
        if self.q is not None:
            if knee is None:
                raise UsageError("table has a knee axis; per-element knees required")
            qq = np.broadcast_to(np.asarray(knee, dtype=float), t.shape)[hit]
            if np.any(qq < self.q[0] - 1e-12) or np.any(qq > self.q[-1] + 1e-12):
                self._warn_clamp("knee")
            qq = np.clip(qq, self.q[0], self.q[-1])
        else:
            qq = None
        par, perp = self._columns(tq, qq)
        e_par = U[hit] / t[hit][:, None]
        e_perp = np.column_stack([-e_par[:, 1], e_par[:, 0]])
        out[hit] = (par * np.einsum("md,md->m", P[hit], e_par)
                    + perp * np.einsum("md,md->m", P[hit], e_perp))
        return out


def sample_table(materials, direction, exterior_config=None, q_range=None,
                 problem=None):
    """Sample one direction's table by repeated cold-start corrector solves.

    materials carries the iron/air constants (a machine MaterialSpec). With
    q_range=(lo, hi) the iron knee sweeps n_q uniform samples and the table
    gains a knee axis; otherwise the nominal knee is used throughout.
    """
    cfg = exterior_config or ExteriorConfig()
    cfg.validate()
    prob = problem or ExteriorProblem(cfg)
    t_vals = np.linspace(0.0, cfg.t_max, cfg.n_t)
    knees = (np.linspace(q_range[0], q_range[1], cfg.n_q)
             if q_range is not None else np.array([materials.k_f]))
    knee_mode = "q-axis" if q_range is not None else f"fixed:{materials.k_f!r}"

    f_par = np.zeros((cfg.n_t, len(knees)))
    f_perp = np.zeros((cfg.n_t, len(knees)))
    for jq, knee in enumerate(knees):
        law_in, law_out = laws_for_direction(direction, materials, knee)
        for it, t in enumerate(t_vals):
            if t == 0.0:
                continue
            U = np.array([t, 0.0])
            k, _ = prob.solve_corrector(U, law_in, law_out)
            f_par[it, jq], f_perp[it, jq] = prob.response_pair(
                k, U, law_in, law_out)

    meta = {"radius": cfg.radius, "mesh_nodes": prob.mesh.n_nodes,
            "target_nodes": cfg.target_nodes}
    if q_range is None:
        return TDTable(direction, t_vals, f_par[:, 0], f_perp[:, 0],
                       materials.law_fingerprint(knee_mode), meta=meta)
    return TDTable(direction, t_vals, f_par, f_perp,
                   materials.law_fingerprint(knee_mode), q=knees, meta=meta)


def precompute_tables(materials, exterior_config=None, q_range=None,
                      problem=None):
    """Both flip directions with one shared exterior discretization."""
    cfg = exterior_config or ExteriorConfig()
    prob = problem or ExteriorProblem(cfg)
    return {d: sample_table(materials, d, cfg, q_range, problem=prob)
            for d in DIRECTIONS}


def generalized_td_field(iron_to_air, air_to_iron, U, P, design_iron,
                         knee_iron=None, knee_air=None):
    """Signed per-element sensitivity driving the level-set update.

    Iron elements carry the iron-to-air rate, air elements minus the
    air-to-iron rate, summed over all rotor positions. U and P have shape
    (N, m, 2); knees are per-element rows used when tables carry a knee axis.
    """
    design_iron = np.asarray(design_iron, dtype=bool)
    n_pos, m, _ = np.asarray(U).shape
    out = np.zeros(m)
    for table, mask, knee, sign in (
            (iron_to_air, design_iron, knee_iron, +1.0),
            (air_to_iron, ~design_iron, knee_air, -1.0)):
        if not mask.any():
            continue
        k = None if knee is None else np.asarray(knee)[mask]
        for n in range(n_pos):
            out[mask] += sign * table.evaluate(U[n][mask], P[n][mask], k)
    return out


# ---------------------------------------------------------------------------
# persistence

def save_table(table, path):
    buf = io.StringIO()
    buf.write(f"{TABLE_FORMAT}\n")
    buf.write(f"direction {table.direction}\n")
    buf.write(f"fingerprint {table.law_fingerprint}\n")
    meta = table.meta or {}
    buf.write(f"radius {float(meta.get('radius', 0.0))!r}\n")
    buf.write(f"mesh_nodes {meta.get('mesh_nodes', 0)}\n")
    buf.write(f"t {len(table.t)}\n")
    for v in table.t:
        buf.write(f"{float(v)!r}\n")
    if table.q is None:
        buf.write("q 0\n")
    else:
        buf.write(f"q {len(table.q)}\n")
        for v in table.q:
            buf.write(f"{float(v)!r}\n")
    cols = 1 if table.q is None else len(table.q)
    for name, arr in (("f_par", table.f_par), ("f_perp", table.f_perp)):
        buf.write(f"{name} {len(table.t)} {cols}\n")
        rows = arr.reshape(len(table.t), cols)
        for row in rows:
            buf.write(" ".join(repr(float(v)) for v in row) + "\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def load_table(path):
    lines = read_format_lines(path, TABLE_FORMAT)
    pos = 1

    def header(keyword):
        nonlocal pos
        parts = lines[pos].split()
        if parts[0] != keyword:
            raise FormatError(f"{path}: expected '{keyword}' at line {pos + 1}")
        pos += 1
        return parts[1:]

    def column(n):
        nonlocal pos
        arr = np.array([float(lines[pos + i]) for i in range(n)])
        pos += n
        return arr

    def block(name):
        nonlocal pos
        rows, cols = (int(v) for v in header(name))
        arr = np.array([[float(v) for v in lines[pos + i].split()]
                        for i in range(rows)])
        if arr.shape != (rows, cols):
            raise ValueError(f"'{name}' block is not {rows} x {cols}")
        pos += rows
        return arr if cols > 1 else arr.ravel()

    try:
        direction = header("direction")[0]
        if direction not in DIRECTIONS:
            raise FormatError(f"{path}: unknown direction {direction!r}")
        fingerprint = header("fingerprint")[0]
        radius = float(header("radius")[0])
        mesh_nodes = int(header("mesh_nodes")[0])
        t = column(int(header("t")[0]))
        n_q = int(header("q")[0])
        q = column(n_q) if n_q else None
        f_par = block("f_par")
        f_perp = block("f_perp")
        values = (t, f_par, f_perp) if q is None else (t, q, f_par, f_perp)
        if not all(np.all(np.isfinite(v)) for v in values):
            raise FormatError(f"{path}: non-finite table values")
        # the interpolants refuse axes and blocks that do not match
        return TDTable(direction, t, f_par, f_perp, fingerprint, q=q,
                       meta={"radius": radius, "mesh_nodes": mesh_nodes})
    except (IndexError, ValueError) as exc:
        raise FormatError(
            f"{path}: truncated or malformed {TABLE_FORMAT} file") from exc


def check_table_compatibility(table, materials, scenario):
    """Refuse tables whose laws do not match the run configuration."""
    expected = materials.law_fingerprint(materials.knee_mode(scenario))
    if table.law_fingerprint != expected:
        raise UsageError(
            "sensitivity table law fingerprint "
            f"{table.law_fingerprint} does not match the configured laws "
            f"({expected}); re-run the precompute step")
    if scenario.binding in ("knee", "knee_regions") and not table.has_knee_axis:
        raise UsageError(
            "scenario varies the saturation knee but the table has no knee axis")
