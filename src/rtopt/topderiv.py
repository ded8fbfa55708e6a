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

Both laws are isotropic and the disk is symmetric about the x axis, so for
U = t e_x the corrector is odd in y, k(x, -y) = -k(x, y), and vanishes on
the axis. It is solved on the upper half disk with the axis Dirichlet, so
the laws, residuals, tangents and the response pair run over half the full
disk's elements and every tangent is factored at half its size. The
integrands of f_par are even in y, so the half disk gives f_par over half the
inclusion area; those of f_perp are odd, so f_perp is zero by symmetry. Far
fields off e_x are refused: the table is rotated online and never needs one.

A linear law's Jacobian never changes. Let p be the first reduced unknown an
element of a nonlinear law touches (all of them if both laws are linear).
Column j of a Cholesky factor reads columns 0..j of the matrix only, so the
first p columns of L, and the update they leave on the next bandwidth
columns, are exactly those of every tangent of the two laws:
ExteriorProblem.factors keeps them from the first factorization
(fem.KeptColumnsCholesky), and later Newton steps factor the rest. On the
4k, 8k and 60k-node meshes the reverse Cuthill-McKee order starts at the
outer boundary, so air_to_iron keeps its air exterior's columns (2,339 of
3,960 at 8k, 16,999 of 29,625 at 60k), and iron_to_air, whose saturating
exterior touches unknown 0, factors every tangent whole. On the 2k, 15k
and 30k-node meshes the order starts in the inclusion and the roles swap.

Tables persist as RTOTD2 files tied to a law fingerprint.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, FormatError, FormatReader, UsageError,
                     check_counts)
from .fem import DofMap, KeptColumnsCholesky, P1Space, newton_solve
from .laws import K_F, air_law
from .mesh import graded_disk_mesh

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
        check_counts(target_nodes=self.target_nodes, n_t=self.n_t, n_q=self.n_q)
        if not self.n_t >= 2:
            raise ConfigurationError("need at least two flux magnitudes (n_t >= 2)")
        if not 0 < self.t_max < np.inf:
            raise ConfigurationError("t_max must be positive and finite")


class ExteriorProblem:
    """Upper half of the truncated corrector domain: unit inclusion,
    Dirichlet far arc and x axis (the corrector is odd in y)."""

    def __init__(self, config=None):
        self.config = config or ExteriorConfig()
        self.mesh = graded_disk_mesh(self.config.radius, self.config.target_nodes)
        self.space = P1Space(self.mesh)
        self.dofmap = DofMap(self.mesh)
        # graded_disk_mesh numbers the elements ring by ring from the centre,
        # so the inclusion is the first block and the exterior the rest
        n_inc = len(self.mesh.elements_in("inclusion"))
        self.inclusion = slice(0, n_inc)
        self.exterior = slice(n_inc, self.mesh.n_elements)
        self.inclusion_area = float(self.space.areas[self.inclusion].sum())
        self.newton_log = []        # NewtonInfo of every corrector solve, in order
        self._kept = None           # (linear laws, their factor source)

    def factors(self, law_in, law_out):
        """The KeptColumnsCholesky of these laws' tangents, or None (factor
        each whole) if a nonlinear law's elements touch unknown 0. It reads
        the linear laws only, so it serves every t and knee of a direction;
        only the last one made is kept."""
        regions = ((self.inclusion, law_in), (self.exterior, law_out))
        key = tuple(law if law.is_linear else None for _, law in regions)
        if self._kept is None or self._kept[0] != key:
            start = min((self.dofmap.first_unknown(self.mesh.triangles[rows])
                         for rows, law in regions if not law.is_linear),
                        default=self.dofmap.n_reduced)
            self._kept = (key, KeptColumnsCholesky(self.space, self.dofmap, start)
                          if start else None)
        return self._kept[1]

    def solve_corrector(self, U, law_in, law_out, u0=None):
        """Corrector k for far-field flux U = (t, 0) and the two laws, by
        Newton from u0 (a nearby sample's corrector) or from zero."""
        U = np.asarray(U, dtype=float)
        if U[1] != 0.0:
            raise UsageError("corrector far field must lie along e_x: "
                             "the unknowns assume k odd in y")
        inc, ext = self.inclusion, self.exterior
        # U as a one-row array, evaluated as the rows are: a lone (2,) vector
        # takes numpy's scalar path, whose powers may round otherwise, and
        # respond(0) must be the law jump exactly
        (h_in_U,), _ = law_in.response(U[None])
        (h_out_U,), _ = law_out.response(U[None])
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

        # respond(0) is the law jump on the inclusion rows and zero elsewhere
        h0 = np.zeros((self.mesh.n_elements, 2))
        h0[inc] = jump
        load = np.zeros(self.space.n_nodes)
        k, info = newton_solve(self.space, self.dofmap, respond, load, h0, u0=u0,
                               tol=CORRECTOR_TOL, max_iter=CORRECTOR_MAX_ITER,
                               factors=self.factors(law_in, law_out))
        self.newton_log.append(info)
        return k, info

    def response_pair(self, k, U, law_in, law_out):
        """Condense one corrector solve into the (f_par, f_perp) pair.

        f_par collects the quadratic remainder over the whole domain, the
        law-jump term over the inclusion, and the direct jump h_in(U)-h_out(U),
        all normalized by the discrete inclusion area: x components, even in
        y, so the half disk gives them. f_perp is 0.0 by symmetry.
        """
        U = np.asarray(U, dtype=float)
        Bk = self.space.element_curl(k)
        inc, ext = self.inclusion, self.exterior
        areas = self.space.areas

        # U as one row, as in solve_corrector; row 0 of dh(U) gives the x
        # component of dh(U) Bk
        (h_in_U,), (dh_in_U,) = law_in.response(U[None])
        (h_out_U,), (dh_out_U,) = law_out.response(U[None])

        b = Bk + U
        rem = np.empty(len(Bk))
        rem[inc] = law_in.h(b[inc])[:, 0] - h_in_U[0] - Bk[inc] @ dh_in_U[0]
        rem[ext] = law_out.h(b[ext])[:, 0] - h_out_U[0] - Bk[ext] @ dh_out_U[0]
        total = (areas * rem).sum()
        total += (areas[inc] * (Bk[inc] @ (dh_in_U - dh_out_U)[0])).sum()
        return float(total / self.inclusion_area + h_in_U[0] - h_out_U[0]), 0.0


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
        self.t, self.q, self.f_par, self.f_perp = arrays = [
            np.asarray(a, dtype=float) for a in (self.t, self.q, self.f_par, self.f_perp)]
        if self.direction not in DIRECTIONS:
            raise UsageError(f"unknown direction {self.direction!r}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise UsageError("non-finite table values sampled to t_max "
                             f"{float(np.max(self.t))!r}")
        for name, axis, least in (("t", self.t, 2), ("knee", self.q, 1)):
            if axis.ndim != 1 or len(axis) < least or np.any(np.diff(axis) <= 0.0):
                raise ValueError(f"{name} axis needs at least {least} strictly "
                                 "increasing samples")
        shape = (len(self.t), len(self.q))
        if self.f_par.shape != shape or self.f_perp.shape != shape:
            raise ValueError(f"table blocks do not have shape {shape}")
        # one PCHIP over the stacked columns: f_par of every knee sample,
        # then f_perp of every knee sample; t samples too close for the
        # values (a subnormal spacing) overflow it
        with np.errstate(over="ignore", invalid="ignore"):
            self._coef = _pchip_coefficients(
                self.t, np.column_stack([self.f_par, self.f_perp]))
        if not np.isfinite(self._coef).all():
            raise UsageError("non-finite table interpolation of the t samples "
                             f"to t_max {float(self.t[-1])!r}")
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
    with FormatReader(path, TABLE_FORMAT) as f:
        direction = f.header("direction")[0]
        if direction not in DIRECTIONS:
            raise FormatError(f"{path}: unknown direction {direction!r}")
        fingerprint = f.header("fingerprint")[0]
        radius = float(f.header("radius")[0])
        mesh_nodes = int(f.header("mesh_nodes")[0])
        t, q = (np.array([float(v) for (v,) in f.rows(int(f.header(name)[0]))])
                for name in ("t", "q"))
        blocks = []
        for name in ("f_par", "f_perp"):
            n, cols = (int(v) for v in f.header(name))
            blocks.append(np.array([[float(v) for v in row] for row in f.rows(n)]))
            if blocks[-1].shape != (n, cols):
                raise ValueError(f"'{name}' block is not {n} x {cols}")
        if not f.at_end():
            raise FormatError(f"{path}: lines after the 'f_perp' block")
        if not all(np.all(np.isfinite(v)) for v in (t, q, *blocks)):
            raise FormatError(f"{path}: non-finite table values")
        # TDTable refuses axes and blocks that do not match, and an
        # interpolation that overflows
        try:
            return TDTable(direction, t, *blocks, fingerprint, q=q,
                           meta={"radius": radius, "mesh_nodes": mesh_nodes})
        except UsageError as exc:
            raise FormatError(f"{path}: {exc}") from exc


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
