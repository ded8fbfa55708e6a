"""Topological sensitivities via an exterior corrector problem.

Flipping the material inside a vanishing disk perturbs the objective at rate

    dJ(z) = lim (J(perturbed) - J(unperturbed)) / |disk|,

and that rate only depends on the local flux U = curl u(z), the adjoint flux
P = curl p(z) and the two constitutive laws that trade places. It is computed
offline by solving, on a large truncated disk with a unit inclusion, the
corrector equation

    int (h(curl k + U) - h(U)) . curl v + int_inclusion (h_in(U) - h_out(U)) . curl v = 0

for far fields U = t e_x on a grid of magnitudes t and saturation knees q
(K_F alone where no scenario varies the knee), then condensing each solve
into the response pair (f_par, f_perp). Online evaluation rotates the pair
to the local flux direction:  value = f_par * (P . e_U) + f_perp * (P . e_U_perp).

Both laws are isotropic and the disk mesh is mirror symmetric, so for
U = t e_x the corrector is odd in y, k(x, -y) = -k(x, y). The dof reduction
makes each lower-half node an antiperiodic slave of its mirror and the x axis
Dirichlet, so every tangent is factored at half the full disk's size, while
Newton and the response pair see the full-length k. Far fields off e_x are
refused: the table is rotated online and never needs one.

Tables persist as RTOTD2 files tied to a law fingerprint.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, FormatError, UsageError, read_format_lines
from .fem import DofMap, P1Space, newton_solve
from .laws import K_F, air_law
from .mesh import disk_mirror, graded_disk_mesh

log = logging.getLogger(__name__)

TABLE_FORMAT = "RTOTD2"
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

    def __post_init__(self):
        if not self.radius > 2.0:
            raise ConfigurationError("exterior truncation radius must exceed 2")
        if not np.isfinite(self.radius):
            raise ConfigurationError("exterior truncation radius must be finite")
        if not self.n_t >= 2:
            raise ConfigurationError("need at least two flux magnitudes (n_t >= 2)")
        if not self.t_max > 0:
            raise ConfigurationError("t_max must be positive")


class ExteriorProblem:
    """Truncated corrector domain: unit inclusion, Dirichlet far boundary."""

    def __init__(self, config=None):
        self.config = config or ExteriorConfig()
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
        # graded_disk_mesh numbers the elements ring by ring from the centre,
        # so the inclusion is the first block and the exterior the rest
        n_inc = len(self.mesh.elements_in("inclusion"))
        self.inclusion = slice(0, n_inc)
        self.exterior = slice(n_inc, self.mesh.n_elements)
        self.inclusion_area = float(self.space.areas[self.inclusion].sum())
        self.newton_log = []        # NewtonInfo of every corrector solve, in order

    def solve_corrector(self, U, law_in, law_out, u0=None):
        """Corrector k for far-field flux U = (t, 0) and the two laws, by
        Newton from u0 (a nearby sample's corrector) or from zero."""
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
        k, info = newton_solve(self.space, self.dofmap, respond, load, u0=u0,
                               tol=CORRECTOR_TOL, max_iter=CORRECTOR_MAX_ITER)
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
    air = air_law()
    iron = materials.iron_law(knee)
    if direction == "iron_to_air":
        return air, iron
    if direction == "air_to_iron":
        return iron, air
    raise UsageError(f"unknown direction {direction!r}")


def _pchip_coefficients(x, y):
    """Monotone cubic (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5(2),
    1984) through the columns of y (n, k) over x, as power-basis coefficients
    (4, k * (n - 1)): scipy's PchipInterpolator in its order of operations."""
    h = np.diff(x)[:, None]
    m = (y[1:] - y[:-1]) / h
    d = np.concatenate([m, m])          # two samples: the secant at both ends
    if len(x) > 2:
        # weighted harmonic mean inside, zero where the secants change sign
        # or vanish; a one-sided three-point rule at both ends
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        e = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(
            (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0)), 3.0 * m0, e))
        d = np.concatenate([e[:1], inner, e[1:]])
    c = (d[:-1] + d[1:] - 2 * m) / h
    # y + 0.0: scipy's sum starts from 0.0, which turns -0.0 into 0.0
    c = np.stack([c / h, (m - d[:-1]) / h - c, d[:-1], y[:-1] + 0.0])
    return c.transpose(0, 2, 1).reshape(4, -1)


@dataclass
class TDTable:
    """Sampled topological response of one flip direction.

    f_par/f_perp have shape (n_t, n_q) over the flux magnitudes t and the
    strictly increasing knees q; a fixed-knee table has the one knee K_F.
    Interpolation is monotone piecewise-cubic in t (PCHIP, bitwise
    equal to scipy's) and linear in q; queries outside the sampled box are
    clamped, counted and warned once.
    """

    direction: str
    t: np.ndarray
    f_par: np.ndarray
    f_perp: np.ndarray
    law_fingerprint: str
    q: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        self.t, self.q, self.f_par, self.f_perp = (
            np.asarray(a, dtype=float) for a in (self.t, self.q, self.f_par, self.f_perp))
        if self.direction not in DIRECTIONS:
            raise UsageError(f"unknown direction {self.direction!r}")
        for name, axis, least in (("t", self.t, 2), ("knee", self.q, 1)):
            if axis.ndim != 1 or len(axis) < least or np.any(np.diff(axis) <= 0.0):
                raise ValueError(f"{name} axis needs at least {least} strictly "
                                 "increasing samples")
        shape = (len(self.t), len(self.q))
        if self.f_par.shape != shape or self.f_perp.shape != shape:
            raise ValueError(f"table blocks do not have shape {shape}")
        # one PCHIP over the stacked columns: f_par of every knee sample,
        # then f_perp of every knee sample
        self._coef = _pchip_coefficients(
            self.t, np.column_stack([self.f_par, self.f_perp]))
        self._clamp_warned = False
        self.clamped_rows = 0       # queried rows clamped so far

    def _clip(self, x, axis, what):
        """x clipped to the sampled axis, and the mask of the rows clamped."""
        outside = (x < axis[0] - 1e-12) | (x > axis[-1] + 1e-12)
        if outside.any() and not self._clamp_warned:
            log.warning("sensitivity table query clamped (%s outside sampled range)",
                        what)
            self._clamp_warned = True
        return np.clip(x, axis[0], axis[-1]), outside

    def evaluate(self, U, P, knee):
        """Sensitivity values for flux rows U and adjoint rows P, shape (m,).

        knee is the per-row saturation knee (a scalar broadcasts), clamped to
        the knee axis like t; a one-knee table reads it only for that clamp.
        A knee that is not finite (NaN, inf or None) raises ValueError.
        """
        knee = np.asarray(knee, dtype=float)
        if not np.isfinite(knee).all():
            raise ValueError("sensitivity table knee must be finite")
        ux, uy = np.atleast_2d(np.asarray(U, dtype=float)).T
        px, py = np.atleast_2d(np.asarray(P, dtype=float)).T
        t = np.sqrt(ux * ux + uy * uy)
        out = np.zeros(len(t))
        hit = t > 0.0
        if not hit.any():
            return out
        t_hit = t[hit]
        tq, clamped = self._clip(t_hit, self.t, "flux magnitude")
        qq, outside = self._clip(
            np.broadcast_to(knee, t.shape)[hit],
            self.q, "knee")
        self.clamped_rows += int((clamped | outside).sum())
        # interval i with t[i] <= tq < t[i + 1], the last one closed
        n, n_c = len(self.t), len(self.q)
        i = np.searchsorted(self.t[1:-1], tq, side="right")
        if n_c == 1:
            cols = np.array([[0], [1]])
        else:
            # linear in the knee between the bracketing columns j - 1 and j
            j = np.clip(np.searchsorted(self.q, qq), 1, n_c - 1)
            w = (qq - self.q[j - 1]) / (self.q[j] - self.q[j - 1])
            cols = np.stack([j - 1, j, n_c + j - 1, n_c + j])
        # y0 + d0 s + c1 s^2 + c0 s^3, summed and powered as scipy does
        at = cols * (n - 1) + i
        s = tq - self.t[i]
        z = s * s
        vals = self._coef[3].take(at)
        for c, power in zip(self._coef[2::-1], (s, z, z * s)):
            vals += c.take(at) * power
        if n_c == 1:
            par, perp = vals
        else:
            par = (1 - w) * vals[0] + w * vals[1]
            perp = (1 - w) * vals[2] + w * vals[3]
        # P . e_U and P . e_U_perp (e_U turned by +90 degrees) as P . U / t
        # and U x P / t, exact for an adjoint along the flux
        out[hit] = (par * ((px * ux + py * uy)[hit] / t_hit)
                    + perp * ((ux * py - uy * px)[hit] / t_hit))
        return out


def sample_table(materials, direction, problem, q_range=None):
    """Sample one direction's table by corrector solves on an ExteriorProblem.

    materials chooses saturating or linear iron (a machine MaterialSpec),
    and problem.config the t axis. With q_range=(lo, hi) the knee axis holds
    n_q uniform samples of the iron knee; without it, the one knee K_F.
    Saturating iron solves every (t, knee) sample, each continued from its
    nearest solved sample (Deuflhard, Newton Methods for Nonlinear Problems,
    2004, ch. 5): the same t at the previous knee, or the previous t at the
    first knee. Linear laws make the corrector and its response pair linear
    in t and free of the knee, so one solve at t = 1 gives every entry as t
    times that pair.
    """
    cfg = problem.config
    t_vals = np.linspace(0.0, cfg.t_max, cfg.n_t)
    knees = (np.linspace(q_range[0], q_range[1], cfg.n_q)
             if q_range is not None else np.array([K_F]))

    def pair(t, knee, u0=None):
        law_in, law_out = laws_for_direction(direction, materials, knee)
        U = np.array([t, 0.0])
        k, _ = problem.solve_corrector(U, law_in, law_out, u0)
        return problem.response_pair(k, U, law_in, law_out), k

    f_par = np.zeros((cfg.n_t, len(knees)))
    f_perp = np.zeros((cfg.n_t, len(knees)))
    if materials.iron_linear:
        (unit_par, unit_perp), _ = pair(1.0, K_F)
        f_par[1:] = t_vals[1:, None] * unit_par
        f_perp[1:] = t_vals[1:, None] * unit_perp
    else:
        # column[it]: the last corrector solved at t_vals[it]; t_vals[0] = 0
        # has no response, so only the first sample starts from zero
        column = [None] * cfg.n_t
        for jq, knee in enumerate(knees):
            for it in range(1, cfg.n_t):
                u0 = column[it] if jq else column[it - 1]
                (f_par[it, jq], f_perp[it, jq]), column[it] = pair(
                    t_vals[it], knee, u0)

    meta = {"radius": cfg.radius, "mesh_nodes": problem.mesh.n_nodes,
            "target_nodes": cfg.target_nodes}
    return TDTable(direction, t_vals, f_par, f_perp,
                   materials.law_fingerprint(), q=knees, meta=meta)


def precompute_tables(materials, problem, q_range=None):
    """Both flip directions on one ExteriorProblem."""
    return {d: sample_table(materials, d, problem, q_range)
            for d in DIRECTIONS}


def generalized_td_field(iron_to_air, air_to_iron, U, P, design_iron,
                         knee_iron, knee_air):
    """Signed per-element sensitivity driving the level-set update.

    Iron elements carry the iron-to-air rate, air elements minus the
    air-to-iron rate, summed over all rotor positions. U and P have shape
    (N, m, 2); knee_iron and knee_air are per-element knees, looked up on
    each table's knee axis. Each direction is one lookup over the rows of
    every position.
    """
    design_iron = np.asarray(design_iron, dtype=bool)
    U, P = np.asarray(U), np.asarray(P)
    n_pos, m, _ = U.shape
    out = np.zeros(m)
    for table, mask, knee, sign in (
            (iron_to_air, design_iron, knee_iron, +1.0),
            (air_to_iron, ~design_iron, knee_air, -1.0)):
        if not mask.any():
            continue
        values = table.evaluate(U[:, mask].reshape(-1, 2),
                                P[:, mask].reshape(-1, 2),
                                np.tile(np.asarray(knee)[mask], n_pos))
        for v in values.reshape(n_pos, -1):
            out[mask] += sign * v
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
    for name, axis in (("t", table.t), ("q", table.q)):
        buf.write(f"{name} {len(axis)}\n")
        for v in axis:
            buf.write(f"{float(v)!r}\n")
    for name, arr in (("f_par", table.f_par), ("f_perp", table.f_perp)):
        buf.write(f"{name} {len(table.t)} {len(table.q)}\n")
        for row in arr:
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

    def column(keyword):
        nonlocal pos
        n = int(header(keyword)[0])
        if n < 0:
            raise ValueError(f"negative '{keyword}' count")
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
        return arr

    try:
        direction = header("direction")[0]
        if direction not in DIRECTIONS:
            raise FormatError(f"{path}: unknown direction {direction!r}")
        fingerprint = header("fingerprint")[0]
        radius = float(header("radius")[0])
        mesh_nodes = int(header("mesh_nodes")[0])
        t = column("t")
        q = column("q")
        f_par = block("f_par")
        f_perp = block("f_perp")
        if pos != len(lines):
            raise FormatError(f"{path}: lines after the 'f_perp' block")
        if not all(np.all(np.isfinite(v)) for v in (t, q, f_par, f_perp)):
            raise FormatError(f"{path}: non-finite table values")
        # TDTable refuses axes and blocks that do not match
        return TDTable(direction, t, f_par, f_perp, fingerprint, q=q,
                       meta={"radius": radius, "mesh_nodes": mesh_nodes})
    except (IndexError, ValueError) as exc:
        raise FormatError(
            f"{path}: truncated or malformed {TABLE_FORMAT} file") from exc


def check_table_compatibility(table, materials, scenario):
    """Refuse a table sampled for other laws, or at one knee when the
    scenario varies the knee. Whether the knee axis spans the run's knees
    depends on the uncertainty set; `cli._load_tables` checks that."""
    expected = materials.law_fingerprint()
    if table.law_fingerprint != expected:
        raise UsageError(
            "sensitivity table law fingerprint "
            f"{table.law_fingerprint} does not match the configured laws "
            f"({expected}); re-run the precompute step")
    if scenario.binding != "phase" and len(table.q) < 2:
        raise UsageError("scenario varies the saturation knee but the table "
                         "holds one knee sample; re-run precompute-td")
