"""Numerical audits: parameter sweep, adjoint gradient against central
differences, disc-flip quotients against the tables, closed-form slopes.
Each returns rows of plain Python values, one tuple per CSV line."""
from __future__ import annotations

import logging

import numpy as np

from .errors import ConfigurationError, SolverError
from .levelset import NominalEvaluator
from .machine import MachineProblem
from .mesh import refine_disc_patch

log = logging.getLogger(__name__)

HEADERS = {
    "sweep": "q,objective,mean_torque",
    "fdcheck": "component,q,adjoint,central_fd,rel_error",
    "tdcheck": ("element,material,eps,disc_area,n_disc_elements,"
                "fd_quotient,td_reference,rel_error"),
}


def sweep_rows(problem, design, uset):
    """(q, objective, mean torque) at each point of a 31-point interval grid."""
    if uset is None or not hasattr(uset, "grid"):
        raise ConfigurationError(
            "sweep audit needs a scenario with interval uncertainty")
    rows = []
    for q in uset.grid(31):
        value, _ = problem.objective(design, q)
        rows.append((float(q[0]), float(value), float(-value)))
    return rows


def fdcheck_rows(problem, design):
    """Adjoint gradient against central differences, one row per component.

    Rows are (component, q, adjoint, central difference, relative error),
    all at the scenario's nominal parameter vector.
    """
    if problem.scenario.binding is None:
        raise ConfigurationError(
            "fdcheck needs a scenario with parameter bindings")
    q_hat = np.asarray(problem.scenario.q_hat, dtype=float)
    grad = problem.grad_q(design, q_hat)
    rows = []
    for i in range(len(q_hat)):
        step = np.zeros_like(q_hat)
        step[i] = 1e-6 * max(1.0, abs(q_hat[i]))
        jp, _ = problem.objective(design, q_hat + step)
        jm, _ = problem.objective(design, q_hat - step)
        fd = (jp - jm) / (2 * step[i])
        rel = abs(grad[i] - fd) / max(abs(fd), 1e-30)
        rows.append((i, float(q_hat[i]), float(grad[i]), float(fd),
                     float(rel)))
    return rows


def tdcheck_candidates(problem, design, g, cavity):
    """Design elements suited to a disc perturbation check.

    Geometric clearance keeps the remeshed cavity inside the design region
    and away from the antiperiodic rays; the field filters keep to spots
    where the sensitivity density is resolved at the disc scale (the
    topological-derivative limit presumes locally smooth fields).
    """
    mesh = problem.mesh
    h = problem.design_h
    cen = mesh.centroids()[problem.design_elements]
    areas = problem.space.areas[problem.design_elements]
    other = np.setdiff1d(np.arange(mesh.n_elements), problem.design_elements)
    # the carve removes any triangle with a vertex inside the cavity, so
    # clearance is measured to the vertices of non-design triangles
    other_verts = mesh.vertices[np.unique(mesh.triangles[other].ravel())]
    sector = mesh.meta["sector"]
    rr = np.hypot(cen[:, 0], cen[:, 1])
    tt = np.arctan2(cen[:, 1], cen[:, 0])
    need = cavity + h

    ok = []
    for e in range(len(cen)):
        if min(rr[e] * np.sin(tt[e]), rr[e] * np.sin(sector - tt[e])) <= need:
            continue
        gap = np.hypot(*(other_verts - cen[e]).T).min()
        if gap <= need:
            continue
        near = np.hypot(*(cen - cen[e]).T) <= 4.0 * h
        if not np.all(design[near] == design[e]):
            continue
        w = areas[near]
        mean = float((g[near] * w).sum() / w.sum())
        coherence = abs(mean) / float((np.abs(g[near]) * w).sum() / w.sum())
        spread = (g[near].max() - g[near].min()) / max(abs(mean), 1e-30)
        ok.append((e, coherence, spread))
    picked = [e for e, c, s in ok if c > 0.9 and s < 1.0]
    if len(picked) >= 5:
        return np.asarray(picked)
    log.warning("few well-conditioned elements; relaxing the field filter")
    ok.sort(key=lambda t: t[2])
    return np.asarray([e for e, _, _ in ok])


def tdcheck_rows(problem, design, tables, seed, n_samples=5):
    """Disc-flip FD quotients vs the sensitivity tables, one row per radius.

    Each probe rebuilds the mesh so a disc of the exact radius exists as a
    union of elements (with graded rings past the rim), flips it, and
    compares (J_eps - J)/(pi eps^2) against the disc average of the raw
    sensitivity field on that same mesh.
    """
    def raw_field(prob, design):
        ev = NominalEvaluator(prob, tables["iron_to_air"],
                              tables["air_to_iron"]).field(design)
        return ev.value, ev.sensitivity

    h = problem.design_h
    cavity = 7.0 * h
    _, g = raw_field(problem, design)
    candidates = tdcheck_candidates(problem, design, g, cavity)
    if len(candidates) < n_samples:
        raise ConfigurationError(
            "not enough clear design elements for a disc check; "
            "refine the mesh (larger target_nodes)")
    rng = np.random.default_rng(seed)
    picks = rng.choice(candidates, size=n_samples, replace=False)

    cen = problem.mesh.centroids()[problem.design_elements]
    rows = []
    for e in picks:
        material = bool(design[e])
        sign = 1.0 if material else -1.0
        for eps in (4 * h, 2 * h, h):
            mesh2, disc, kept = refine_disc_patch(problem.mesh, cen[e], eps,
                                                  cavity=cavity)
            prob2 = MachineProblem(mesh2, problem.spec, problem.scenario,
                                   problem.solver)
            # kept design elements precede the patch in the new ordering
            kept = kept[problem.design_elements]
            n_patch = len(prob2.design_elements) - int(kept.sum())
            design2 = np.concatenate([design[kept],
                                      np.full(n_patch, material, dtype=bool)])
            base2, g2 = raw_field(prob2, design2)
            dloc = np.searchsorted(prob2.design_elements, disc)
            if not np.array_equal(prob2.design_elements[dloc], disc):
                raise SolverError("disc patch elements lost design region")
            areas2 = prob2.space.areas[disc]
            reference = sign * float((g2[dloc] * areas2).sum()
                                     / areas2.sum())
            trial = design2.copy()
            trial[dloc] = not material
            value, _ = prob2.objective(trial)
            quotient = float((value - base2) / (np.pi * eps ** 2))
            rel = abs(quotient - reference) / max(abs(reference), 1e-30)
            rows.append((int(e), "iron" if material else "air", float(eps),
                         float(areas2.sum()), len(disc), quotient,
                         reference, rel))
    return rows


def linear_slopes(tables, materials):
    """Small-t slope of each linear-iron table against its closed form.

    Rows are (direction, slope, closed-form slope, relative deviation,
    max |f_perp| / max |f_par|), read at the first knee of a knee axis.
    """
    nu0, nu_f = materials.nu0, materials.nu_f
    expected = {
        "iron_to_air": 2.0 * nu_f * (nu0 - nu_f) / (nu0 + nu_f),
        "air_to_iron": -2.0 * nu0 * (nu0 - nu_f) / (nu0 + nu_f),
    }
    rows = []
    for direction, table in tables.items():
        f1 = table.f_par if table.q is None else table.f_par[:, 0]
        f2 = table.f_perp if table.q is None else table.f_perp[:, 0]
        slope = float(f1[1] / table.t[1])
        closed = expected[direction]
        rows.append((direction, slope, closed,
                     abs(slope - closed) / abs(closed),
                     float(np.abs(f2).max() / np.abs(f1).max())))
    return rows
