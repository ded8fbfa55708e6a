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

# descent iterations between checkpoint snapshots
SNAPSHOT_INTERVAL = 10


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
    from .laws import K_F
    from .topderiv import check_table_compatibility, load_table

    tables = {}
    lo, hi = cfg.table_q_range() or (K_F, K_F)
    for direction, fname in TABLE_FILES.items():
        path = os.path.join(_table_dir(cfg), fname)
        if not os.path.exists(path):
            raise UsageError(
                f"missing sensitivity table {path}; run precompute-td first")
        table = load_table(path)
        try:
            if table.direction != direction:
                raise UsageError(f"holds direction {table.direction!r}")
            check_table_compatibility(table, cfg.materials, cfg.scenario)
            if not table.q[0] <= lo <= hi <= table.q[-1]:
                raise UsageError(
                    f"knee axis {float(table.q[0])!r} to {float(table.q[-1])!r} does "
                    f"not span the run's knees {lo!r} to {hi!r}; re-run precompute-td")
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from None
        tables[direction] = table
    return tables


def _build_problem(cfg):
    from .machine import MachineProblem
    from .mesh import build_machine_mesh

    mesh = build_machine_mesh(cfg.geometry)
    problem = MachineProblem(mesh, cfg.materials, cfg.scenario, cfg.solver,
                             smoothing_eps=cfg.smoothing_eps)
    return mesh, problem


def _design_from_file(problem, path):
    import numpy as np

    from .errors import FormatError, UsageError
    from .levelset import load_levelset

    if not os.path.exists(path):
        raise UsageError(f"design file {path} does not exist")
    psi, node_ids, _ = load_levelset(path, problem.mesh.fingerprint())
    # design_nodes is sorted and distinct: refuses missing, extra, repeated
    order = np.argsort(node_ids)
    if not np.array_equal(node_ids[order], problem.design_nodes):
        raise FormatError(
            f"{path}: node ids are not the design nodes of the configured mesh")
    return psi[order]


# ---------------------------------------------------------------------------
# precompute-td

def cmd_precompute(cfg):
    from .fem import newton_summary
    from .topderiv import ExteriorProblem, precompute_tables, save_table

    outdir = _table_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    q_range = cfg.table_q_range()
    log.info("sampling sensitivity tables (radius %g, %d abscissae%s)",
             cfg.exterior.radius, cfg.exterior.n_t,
             "" if q_range is None else f", knee axis {q_range}")
    problem = ExteriorProblem(cfg.exterior)
    tables = precompute_tables(cfg.materials, problem, q_range)
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
        from .audit import linear_slopes

        rows = linear_slopes(tables)
        for direction, slope, closed, dev in rows:
            print(f"{direction}: slope {slope:.6g} vs closed form "
                  f"{closed:.6g} (rel dev {dev:.2e})")
        print("closed-form slope audit: max relative deviation "
              f"{max(row[3] for row in rows):.2e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize

def _iron_fraction(problem, design):
    areas = problem.space.areas[problem.design_elements]
    return float(areas[design].sum() / areas.sum())


def _write_summary(path, cfg, result, problem, design, tables):
    from .fem import newton_summary

    summary = {
        "format": "RTOSUMMARY1",
        "scenario": cfg.scenario.name,
        "status": result.status,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "final_objective": result.value,
        "worst_parameters": [float(v) for v in result.q_star],
        "iron_fraction": _iron_fraction(problem, design),
        "newton": newton_summary(problem.newton_log),
        "linear_bases": problem.bases_built,
        "factorizations": problem.factorizations,
        "objective_evaluations": problem.objective_evaluations,
        "clamped_rows": sum(t.clamped_rows for t in tables.values()),
        "trace_rows": len(result.trace),
    }
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def cmd_optimize(cfg, mode):
    from .errors import SolverError
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
        if k % SNAPSHOT_INTERVAL:
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
            result = optimize_robust(problem, tables["iron_to_air"],
                                     tables["air_to_iron"], cfg.uncertainty,
                                     psi0, cfg.levelset, snapshot)
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
                             result, problem, design, tables)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"artifacts in {rundir}")
    return EXIT_STALLED if result.status == "stalled" else EXIT_OK


# ---------------------------------------------------------------------------
# audits

def _write_csv(path, header, rows):
    """One CSV line per row: repr for floats, str for everything else."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")
    print(f"wrote {path}")


def cmd_audit(cfg, kind, design_path):
    import numpy as np

    from . import audit

    mesh, problem = _build_problem(cfg)
    if design_path:
        psi = _design_from_file(problem, design_path)
    else:
        log.info("no --design given; auditing the all-iron design")
        psi = np.ones(len(problem.design_nodes))
    design = problem.design_from_levelset(psi)
    outdir = os.path.join(cfg.output_dir, "audit")
    os.makedirs(outdir, exist_ok=True)
    if kind == "sweep":
        rows = audit.sweep_rows(problem, design, cfg.uncertainty)
        q, j, t = max(rows, key=lambda r: r[1])
        line = (f"worst grid point: q={q!r} objective={j!r} "
                f"(minimum mean torque {t!r})")
    elif kind == "fdcheck":
        rows = audit.fdcheck_rows(problem, design)
        line = f"fdcheck: max relative error {max(r[-1] for r in rows):.3e}"
    else:
        rows = audit.tdcheck_rows(problem, design, _load_tables(cfg), cfg.seed)
        eps = min(r[2] for r in rows)
        line = "tdcheck: final relative discrepancies " + ", ".join(
            f"{r[-1]:.3f}" for r in rows if r[2] == eps)
    _write_csv(os.path.join(outdir, f"{kind}.csv"), audit.HEADERS[kind], rows)
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render

def cmd_render(cfg, design_path, out_path):
    from .errors import UsageError
    from .render import save_design_svg

    if not design_path:
        raise UsageError("render needs --design FILE")
    mesh, problem = _build_problem(cfg)
    psi = _design_from_file(problem, design_path)
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
    except (ConfigurationError, UsageError, FormatError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except SolverError as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
