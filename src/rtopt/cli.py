"""Batch front door: precompute sensitivity tables, optimize, audit, render.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure,
4 stalled optimization. Heavy imports happen inside the command handlers
so a --threads cap can be exported to the BLAS layer first.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

log = logging.getLogger("rtopt.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_STALLED = 4

TABLE_FILES = {"iron_to_air": "iron_to_air.rtotd",
               "air_to_iron": "air_to_iron.rtotd"}


def _apply_thread_cap(n):
    if n is None:
        return
    if n < 1:
        from .errors import ConfigurationError
        raise ConfigurationError("--threads must be at least 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass


def _table_dir(cfg):
    return os.path.join(cfg.output_dir, "tables")


def _load_tables(cfg):
    from .errors import UsageError
    from .topderiv import check_table_compatibility, load_table

    tables = {}
    for direction, fname in TABLE_FILES.items():
        path = os.path.join(_table_dir(cfg), fname)
        if not os.path.exists(path):
            raise UsageError(
                f"missing sensitivity table {path}; run precompute-td first")
        table = load_table(path)
        if table.direction != direction:
            raise UsageError(f"{path}: holds direction {table.direction!r}")
        check_table_compatibility(table, cfg.materials, cfg.scenario)
        tables[direction] = table
    return tables


def _build_problem(cfg):
    from .machine import MachineProblem
    from .mesh import build_machine_mesh

    mesh = build_machine_mesh(cfg.geometry)
    problem = MachineProblem(mesh, cfg.materials, cfg.scenario, cfg.solver,
                             smoothing_eps=cfg.smoothing_eps)
    return mesh, problem


def _design_from_file(cfg, problem, path):
    from .errors import UsageError
    from .levelset import load_levelset

    if not os.path.exists(path):
        raise UsageError(f"design file {path} does not exist")
    psi, node_ids, _ = load_levelset(path, problem.mesh.fingerprint())
    order = {int(n): i for i, n in enumerate(node_ids)}
    perm = [order[int(n)] for n in problem.design_nodes]
    return psi[perm]


# ---------------------------------------------------------------------------
# precompute-td

def cmd_precompute(cfg):
    import numpy as np

    from .fem import newton_summary
    from .topderiv import ExteriorProblem, precompute_tables, save_table

    outdir = _table_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    q_range = cfg.table_q_range()
    log.info("sampling sensitivity tables (radius %g, %d abscissae%s)",
             cfg.exterior.radius, cfg.exterior.n_t,
             "" if q_range is None else f", knee axis {q_range}")
    problem = ExteriorProblem(cfg.exterior)
    tables = precompute_tables(cfg.materials, cfg.exterior, q_range,
                               problem=problem)
    for direction, table in tables.items():
        path = os.path.join(outdir, TABLE_FILES[direction])
        save_table(table, path)
        print(f"wrote {path} (fingerprint {table.law_fingerprint})")
    summary = {"newton": newton_summary(problem.newton_log),
               "mesh_nodes": problem.mesh.n_nodes,
               "reduced_unknowns": problem.dofmap.n_reduced}
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))

    if cfg.materials.iron_linear:
        nu0, nu_f = cfg.materials.nu0, cfg.materials.nu_f
        expected = {
            "iron_to_air": 2.0 * nu_f * (nu0 - nu_f) / (nu0 + nu_f),
            "air_to_iron": -2.0 * nu0 * (nu0 - nu_f) / (nu0 + nu_f),
        }
        worst = 0.0
        for direction, table in tables.items():
            t = table.t
            f1 = table.f_par if table.q is None else table.f_par[:, 0]
            slope = f1[1] / t[1]
            dev = abs(slope - expected[direction]) / abs(expected[direction])
            worst = max(worst, dev)
            f2 = table.f_perp if table.q is None else table.f_perp[:, 0]
            scale = np.abs(f1).max()
            print(f"{direction}: slope {slope:.6g} vs closed form "
                  f"{expected[direction]:.6g} (rel dev {dev:.2e}), "
                  f"max |f2|/scale {np.abs(f2).max() / scale:.2e}")
        print(f"closed-form slope audit: max relative deviation {worst:.2e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize

def _iron_fraction(problem, design):
    areas = problem.space.areas[problem.design_elements]
    return float(areas[design].sum() / areas.sum())


def _write_summary(path, cfg, result, problem, design):
    import numpy as np

    last_q = None
    for row in reversed(result.trace):
        if row.accepted:
            last_q = row.q_star
            break
    if last_q is None:
        worst = []
    else:
        worst = [float(v) for v in np.atleast_1d(last_q)]
    summary = {
        "format": "RTOSUMMARY1",
        "scenario": cfg.scenario.name,
        "status": result.status,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "final_objective": result.value,
        "worst_parameters": worst,
        "iron_fraction": _iron_fraction(problem, design),
        "newton": problem.newton_summary(),
        "trace_rows": len(result.trace),
    }
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def cmd_optimize(cfg, mode):
    from .errors import ConfigurationError, SolverError
    from .levelset import optimize_nominal, save_levelset
    from .render import save_design_svg
    from .robust import optimize_robust

    tables = _load_tables(cfg)
    mesh, problem = _build_problem(cfg)
    rundir = os.path.join(cfg.output_dir, mode)
    os.makedirs(rundir, exist_ok=True)
    psi0 = cfg.psi0(len(problem.design_nodes))
    fingerprint = mesh.fingerprint()

    def snapshot(k, psi):
        if k % cfg.snapshot_interval:
            return
        design = problem.design_from_levelset(psi)
        save_levelset(psi, problem.design_nodes, fingerprint,
                      os.path.join(rundir, "checkpoint.rtols"), iteration=k)
        save_design_svg(os.path.join(rundir, f"design_{k:04d}.svg"), mesh,
                        design, psi, problem.design_nodes,
                        title=f"iteration {k}")

    try:
        if mode == "nominal":
            result = optimize_nominal(problem, tables["iron_to_air"],
                                      tables["air_to_iron"], psi0,
                                      cfg.levelset, snapshot)
        else:
            if cfg.uncertainty is None:
                raise ConfigurationError(
                    "robust mode needs a scenario with an uncertainty set")
            result = optimize_robust(problem, tables["iron_to_air"],
                                     tables["air_to_iron"], cfg.uncertainty,
                                     psi0, cfg.levelset, cfg.inner, snapshot)
    except SolverError:
        log.error("state solver failed; partial artifacts kept in %s", rundir)
        raise

    design = problem.design_from_levelset(result.psi)
    with open(os.path.join(rundir, "trace.csv"), "w") as f:
        f.write(result.trace_csv())
    save_levelset(result.psi, problem.design_nodes, fingerprint,
                  os.path.join(rundir, "final.rtols"),
                  iteration=result.iterations, value=result.value)
    save_design_svg(os.path.join(rundir, "design_final.svg"), mesh, design,
                    result.psi, problem.design_nodes, title="final design")
    summary = _write_summary(os.path.join(rundir, "summary.json"), cfg,
                             result, problem, design)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"artifacts in {rundir}")
    return EXIT_STALLED if result.status == "stalled" else EXIT_OK


# ---------------------------------------------------------------------------
# audits

def _audit_design(cfg, problem, design_path):
    import numpy as np

    if design_path:
        psi = _design_from_file(cfg, problem, design_path)
    else:
        log.info("no --design given; auditing the all-iron design")
        psi = np.ones(len(problem.design_nodes))
    return problem.design_from_levelset(psi)


def _audit_sweep(cfg, problem, design, outdir):
    import numpy as np

    from .errors import ConfigurationError

    uset = cfg.uncertainty
    if uset is None or not hasattr(uset, "grid"):
        raise ConfigurationError(
            "sweep audit needs a scenario with interval uncertainty")
    grid = uset.grid(31)
    rows = []
    for q in grid:
        value, _ = problem.objective(design, q)
        rows.append((float(q[0]), float(value), float(-value)))
    path = os.path.join(outdir, "sweep.csv")
    with open(path, "w") as f:
        f.write("q,objective,mean_torque\n")
        for q, j, t in rows:
            f.write(f"{q!r},{j!r},{t!r}\n")
    worst = max(rows, key=lambda r: r[1])
    print(f"wrote {path}")
    print(f"worst grid point: q={worst[0]!r} objective={worst[1]!r} "
          f"(minimum mean torque {worst[2]!r})")
    return EXIT_OK


def _audit_fdcheck(cfg, problem, design, outdir):
    import numpy as np

    from .errors import ConfigurationError

    if problem.scenario.binding is None:
        raise ConfigurationError(
            "fdcheck needs a scenario with parameter bindings")
    q_hat = problem._q_array(None)
    grad = problem.grad_q(design, q_hat)
    rows = []
    worst = 0.0
    for i in range(len(q_hat)):
        h = 1e-6 * max(1.0, abs(q_hat[i]))
        qp, qm = q_hat.copy(), q_hat.copy()
        qp[i] += h
        qm[i] -= h
        jp, _ = problem.objective(design, qp)
        jm, _ = problem.objective(design, qm)
        fd = (jp - jm) / (2 * h)
        rel = abs(grad[i] - fd) / max(abs(fd), 1e-30)
        worst = max(worst, rel)
        rows.append((i, float(q_hat[i]), float(grad[i]), float(fd), rel))
    path = os.path.join(outdir, "fdcheck.csv")
    with open(path, "w") as f:
        f.write("component,q,adjoint,central_fd,rel_error\n")
        for row in rows:
            f.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]!r}\n")
    print(f"wrote {path}")
    print(f"fdcheck: max relative error {worst:.3e}")
    return EXIT_OK


def tdcheck_candidates(problem, design, g, cavity):
    """Design elements suited to a disc perturbation check.

    Geometric clearance keeps the remeshed cavity inside the design region
    and away from the antiperiodic rays; the field filters keep to spots
    where the sensitivity density is resolved at the disc scale (the
    topological-derivative limit presumes locally smooth fields).
    """
    import numpy as np

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


def tdcheck_rows(cfg, problem, design, tables, n_samples=5):
    """Disc-flip FD quotients vs the sensitivity tables, one row per radius.

    Each probe rebuilds the mesh so a disc of the exact radius exists as a
    union of elements (with graded rings past the rim), flips it, and
    compares (J_eps - J)/(pi eps^2) against the disc average of the raw
    sensitivity field on that same mesh.
    """
    import numpy as np

    from .levelset import NominalEvaluator
    from .machine import MachineProblem
    from .mesh import refine_disc_patch

    def raw_field(prob, design):
        ev = NominalEvaluator(prob, tables["iron_to_air"],
                              tables["air_to_iron"]).field(design)
        return ev.value, ev.sensitivity

    h = problem.design_h
    cavity = 7.0 * h
    _, g = raw_field(problem, design)
    candidates = tdcheck_candidates(problem, design, g, cavity)
    if len(candidates) < n_samples:
        from .errors import ConfigurationError
        raise ConfigurationError(
            "not enough clear design elements for a disc check; "
            "refine the mesh (larger target_nodes)")
    rng = np.random.default_rng(cfg.seed)
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
                from .errors import SolverError
                raise SolverError("disc patch elements lost design region")
            areas2 = prob2.space.areas[disc]
            reference = sign * float((g2[dloc] * areas2).sum()
                                     / areas2.sum())
            trial = design2.copy()
            trial[dloc] = not material
            value, _ = prob2.objective(trial)
            quotient = (value - base2) / (np.pi * eps ** 2)
            rel = abs(quotient - reference) / max(abs(reference), 1e-30)
            rows.append((int(e), "iron" if material else "air", float(eps),
                         float(areas2.sum()), len(disc), quotient,
                         reference, rel))
    return rows


def _audit_tdcheck(cfg, problem, design, outdir, n_samples=5):
    tables = _load_tables(cfg)
    rows = tdcheck_rows(cfg, problem, design, tables, n_samples)
    path = os.path.join(outdir, "tdcheck.csv")
    with open(path, "w") as f:
        f.write("element,material,eps,disc_area,n_disc_elements,"
                "fd_quotient,td_reference,rel_error\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")
    finals = [rows[3 * i + 2][-1] for i in range(n_samples)]
    print(f"wrote {path}")
    print(f"tdcheck: final relative discrepancies "
          f"{', '.join(f'{v:.3f}' for v in finals)}")
    return EXIT_OK


def cmd_audit(cfg, kind, design_path):
    mesh, problem = _build_problem(cfg)
    design = _audit_design(cfg, problem, design_path)
    outdir = os.path.join(cfg.output_dir, "audit")
    os.makedirs(outdir, exist_ok=True)
    if kind == "sweep":
        return _audit_sweep(cfg, problem, design, outdir)
    if kind == "fdcheck":
        return _audit_fdcheck(cfg, problem, design, outdir)
    return _audit_tdcheck(cfg, problem, design, outdir)


# ---------------------------------------------------------------------------
# render

def cmd_render(cfg, design_path, out_path):
    from .errors import UsageError
    from .render import save_design_svg

    if not design_path:
        raise UsageError("render needs --design FILE")
    mesh, problem = _build_problem(cfg)
    psi = _design_from_file(cfg, problem, design_path)
    design = problem.design_from_levelset(psi)
    if not out_path:
        out_path = os.path.splitext(design_path)[0] + ".svg"
    save_design_svg(out_path, mesh, design, psi, problem.design_nodes,
                    title=os.path.basename(design_path))
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rtopt",
        description="Robust topology optimization of a machine iron layout")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap numeric worker threads")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute-td",
                       help="sample sensitivity tables for both directions")
    p.add_argument("config")

    p = sub.add_parser("optimize", help="run the level-set descent")
    p.add_argument("config")
    p.add_argument("--mode", choices=("nominal", "robust"), default="nominal")

    p = sub.add_parser("audit", help="consistency reports as CSV")
    p.add_argument("config")
    p.add_argument("--kind", choices=("sweep", "fdcheck", "tdcheck"),
                   required=True)
    p.add_argument("--design", default=None,
                   help="level-set file to audit (default: all-iron)")

    p = sub.add_parser("render", help="draw a saved design as SVG")
    p.add_argument("config")
    p.add_argument("--design", required=True)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)

    from .errors import ConfigurationError, FormatError, SolverError, UsageError

    try:
        _apply_thread_cap(args.threads)
        from .config import load_config

        cfg = load_config(args.config)
        if args.command == "precompute-td":
            return cmd_precompute(cfg)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.mode)
        if args.command == "audit":
            return cmd_audit(cfg, args.kind, args.design)
        return cmd_render(cfg, args.design, args.out)
    except (ConfigurationError, UsageError, FormatError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except SolverError as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
