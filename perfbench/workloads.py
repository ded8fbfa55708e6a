"""The three benchmark workloads: generated configs and output checks.

Each workload is one rtopt CLI command on a config generated from the
workload seed. The descent workloads start from ``psi0 = random`` with the
seed as the config's ``seed``; the precompute workload has no random input,
so every seed gives the same tables. Checks run in the benchmark process,
outside every timed interval, on the artifacts the CLI wrote.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_TABLES = os.path.join(HERE, "reference_tables.json")

# relative tolerance of re-evaluating the saved design's objective, per unit
# of the Newton tolerance: Newton solves of one design from other starts
# gave torques up to 9e-10 apart at newton_tol = 1e-8, while flipping two
# design elements moved the objective by 4e-7 or more (README.md)
REEVAL_RTOL_PER_NEWTON_TOL = 10.0
# a grid point may beat the reported worst case by this share (the
# tolerance of acceptance criterion 10 in tests/test_acceptance.py)
SWEEP_RTOL = 5e-3
SWEEP_POINTS = 31
# superposition states against the package's Newton states at q*
ORACLE_RTOL = 1e-6
# table values against the reference, relative to the table's largest value
TABLE_RTOL = 1e-6

NOMINAL_NONLINEAR = """\
# benchmark.cfg geometry with saturating iron, knee-axis tables
[geometry]
target_nodes = 4000

[material]
iron_linear = false

[scenario]
name = SCAL
n_positions = 3

[algorithm]
t_max = 5.0
n_t = 9
n_q = 3
exterior_target_nodes = 2000
max_iterations = 1
step_init = 0.5
step_min = 0.5
psi0 = random
seed = {seed}

[output]
directory = {outdir}
"""

ROBUST_LINEAR = """\
# audit3k geometry, linear iron, phase-angle interval
[geometry]
target_nodes = 3000

[material]
iron_linear = true

[scenario]
name = ANG
n_positions = 5
q_hat_deg = -60
interval_deg = -75, -45

[algorithm]
exterior_target_nodes = 4000
t_max = 12.0
n_t = 13
max_iterations = 1
step_init = 0.5
step_min = 0.5
psi0 = random
seed = {seed}

[output]
directory = {outdir}
"""

TABLES_KNEE = """\
# saturating iron, knee axis over the SCAL interval, 8k-node exterior mesh
[material]
iron_linear = false

[scenario]
name = SCAL

[algorithm]
t_max = 5.0
n_t = 4
n_q = 3
exterior_target_nodes = 8000
seed = {seed}

[output]
directory = {outdir}
"""


@dataclass(frozen=True)
class Workload:
    """One CLI command on a generated config (BENCHMARK.json says why)."""

    name: str
    config: str
    command: tuple          # CLI words after the config path is inserted
    needs_tables: bool      # tables are an untimed, cached input

    def cli_args(self, config_path):
        words = list(self.command)
        return [words[0], config_path] + words[1:]

    def write_config(self, path, seed, outdir):
        with open(path, "w") as f:
            f.write(self.config.format(seed=seed, outdir=outdir))


WORKLOADS = {
    w.name: w for w in (
        Workload("nominal-nonlinear", NOMINAL_NONLINEAR,
                 ("optimize", "--mode", "nominal"), True),
        Workload("robust-linear", ROBUST_LINEAR,
                 ("optimize", "--mode", "robust"), True),
        Workload("tables-knee", TABLES_KNEE, ("precompute-td",), False),
    )
}

OPTIMIZE_ARTIFACTS = ("summary.json", "trace.csv", "final.rtols",
                      "design_final.svg")
TABLE_FILES = ("iron_to_air.rtotd", "air_to_iron.rtotd")


def table_samples(cfg):
    """Corrector solves one precompute makes: both directions, t > 0."""
    n_q = cfg.exterior.n_q if cfg.table_q_range() is not None else 1
    return 2 * n_q * (cfg.exterior.n_t - 1)


def missing_artifacts(workload, outdir):
    if workload.command[0] == "precompute-td":
        names = [os.path.join("tables", f) for f in TABLE_FILES]
    else:
        mode = workload.command[2]
        names = [os.path.join(mode, f) for f in OPTIMIZE_ARTIFACTS]
    return [n for n in names if not os.path.exists(os.path.join(outdir, n))]


def read_outcome(workload, outdir):
    """Summary numbers of one finished optimize run (None for precompute)."""
    if workload.command[0] == "precompute-td":
        return None
    rundir = os.path.join(outdir, workload.command[2])
    with open(os.path.join(rundir, "summary.json")) as f:
        summary = json.load(f)
    with open(os.path.join(rundir, "trace.csv")) as f:
        last = f.read().splitlines()[-1].split(",")
    return {"status": summary["status"],
            "evaluations": int(summary["evaluations"]),
            "final_objective": float(summary["final_objective"]),
            "worst_parameters": summary["worst_parameters"],
            "design_torque": -float(summary["final_objective"]),
            "final_theta_deg": float(last[2])}


class Checker:
    """Output checks of one workload; builds the machine problem once."""

    def __init__(self, workload, config_path):
        from rtopt.config import load_config

        self.workload = workload
        self.cfg = load_config(config_path)
        self._problem = None

    @property
    def problem(self):
        if self._problem is None:
            from rtopt.machine import MachineProblem
            from rtopt.mesh import build_machine_mesh

            cfg = self.cfg
            self._problem = MachineProblem(
                build_machine_mesh(cfg.geometry), cfg.materials, cfg.scenario,
                cfg.solver, smoothing_eps=cfg.smoothing_eps)
        return self._problem

    def check(self, outdir, outcome):
        """Problems found in one run's artifacts; empty when all hold."""
        if self.workload.name == "nominal-nonlinear":
            return self._check_reevaluation(outdir, outcome)
        if self.workload.name == "robust-linear":
            return self._check_sweep(outdir, outcome)
        return self._check_tables(outdir)

    def _final_design(self, outdir, mode):
        import numpy as np

        from rtopt.levelset import load_levelset

        p = self.problem
        psi, node_ids, _ = load_levelset(
            os.path.join(outdir, mode, "final.rtols"), p.mesh.fingerprint())
        order = {int(n): i for i, n in enumerate(node_ids)}
        psi = np.asarray(psi)[[order[int(n)] for n in p.design_nodes]]
        return p.design_from_levelset(psi)

    def _check_reevaluation(self, outdir, outcome):
        design = self._final_design(outdir, "nominal")
        value, _ = self.problem.objective(design)
        ref = outcome["final_objective"]
        rtol = REEVAL_RTOL_PER_NEWTON_TOL * self.cfg.solver.newton_tol
        if abs(value - ref) > rtol * max(1.0, abs(ref)):
            return [f"re-evaluated objective {value!r} != summary {ref!r}"]
        return []

    def _check_sweep(self, outdir, outcome):
        import numpy as np

        design = self._final_design(outdir, "robust")
        reported = outcome["final_objective"]
        q_star = np.asarray(outcome["worst_parameters"], dtype=float)
        objective = linear_phase_objective(self.problem, design)
        errors = []
        at_star = objective(q_star)
        if abs(at_star - reported) > ORACLE_RTOL * max(1.0, abs(reported)):
            errors.append(f"superposition J(q*) {at_star!r} != reported "
                          f"worst case {reported!r}")
        grid = self.cfg.uncertainty.grid(SWEEP_POINTS)
        best = max(objective(q) for q in grid)
        if best > reported + SWEEP_RTOL * abs(best):
            errors.append(f"grid sweep reaches J={best!r}, above the reported "
                          f"worst case {reported!r}")
        return errors

    def _check_tables(self, outdir):
        import numpy as np

        from rtopt.topderiv import check_table_compatibility, load_table

        with open(REFERENCE_TABLES) as f:
            reference = json.load(f)
        errors = []
        for fname in TABLE_FILES:
            direction = fname.split(".")[0]
            table = load_table(os.path.join(outdir, "tables", fname))
            if table.direction != direction:
                errors.append(f"{fname} holds direction {table.direction}")
                continue
            check_table_compatibility(table, self.cfg.materials,
                                      self.cfg.scenario)
            ref = {k: np.asarray(v, dtype=float)
                   for k, v in reference[direction].items()}
            # f_perp vanishes by symmetry (round-off only), so both response
            # columns are measured against the size of f_par
            scales = {"t": ref["t"], "q": ref["q"], "f_par": ref["f_par"],
                      "f_perp": ref["f_par"]}
            for key, scale in scales.items():
                got = np.asarray(getattr(table, key), dtype=float)
                want = ref[key]
                if not np.all(np.isfinite(got)):
                    errors.append(f"{fname}: non-finite {key}")
                elif got.shape != want.shape:
                    errors.append(f"{fname}: {key} shape {got.shape} != "
                                  f"reference {want.shape}")
                else:
                    scale = max(float(np.abs(scale).max()), 1e-300)
                    dev = float(np.abs(got - want).max()) / scale
                    if dev > TABLE_RTOL:
                        errors.append(f"{fname}: {key} deviates {dev:.2e} "
                                      f"from the reference")
        return errors


def linear_phase_objective(problem, design):
    """Exact J(design, q) of a linear-iron, phase-bound problem by superposition.

    With linear iron the tangent K depends on the design only, and the coil
    currents at electrical angle th = p*alpha + q are sin(th) J_s + cos(th)
    J_c. So every state is u_mag + sin(th) u_s + cos(th) u_c: one
    factorization and three solves serve every rotor position and every q.
    This is independent of the descent's Newton path, which makes it an
    outside oracle for the worst case the run reports.
    """
    import numpy as np
    import scipy.sparse.linalg as spla

    from rtopt import fem
    from rtopt.machine import POLE_PAIRS

    scen, spec = problem.scenario, problem.spec
    if not (spec.iron_linear and scen.binding == "phase"
            and not scen.co_rotate_magnets):
        raise ValueError("superposition needs linear iron and a phase binding")
    space, dofmap = problem.space, problem.dofmap
    zero = np.zeros(space.n_nodes)
    respond = problem.respond_factory(design, np.zeros(1), 0.0)
    lu = spla.splu(fem.tangent_at(space, dofmap, respond, zero))
    h0, _ = respond(space.element_curl(zero))
    r_mag = dofmap.reduce_vector(space.flux_divergence(h0))

    def coil_load(th):
        j = problem.source_density(0.0, np.array([th]))
        return dofmap.reduce_vector(space.load_vector(j))

    u_mag = dofmap.expand(lu.solve(-r_mag))
    u_sin = dofmap.expand(lu.solve(coil_load(0.5 * np.pi)))
    u_cos = dofmap.expand(lu.solve(coil_load(0.0)))
    alphas = problem.alphas()

    def objective(q):
        th = POLE_PAIRS * alphas + float(np.asarray(q, dtype=float)[0])
        torques = [problem.torque(u_mag + np.sin(a) * u_sin + np.cos(a) * u_cos)
                   for a in th]
        return float(-np.mean(torques))

    return objective
