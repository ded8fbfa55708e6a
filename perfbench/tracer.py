"""In-memory span recorder that wraps the public functions of every rtopt layer.

The traced run installs these wrappers from outside the package: it replaces
module and class attributes (``rtopt.machine.newton_solve``,
``rtopt.fem.spla.splu``, ``MachineProblem.adjoints``, ...) with thin
wrappers that record one span per call: name, start, end, the index of the
span that was open when the call began, and a few counts read from the
arguments or the return value. Spans stay in memory and are written once,
when the process ends; ``layer_metrics`` turns them into per-layer numbers.

Names imported with ``from .x import f`` are bound in the importing module,
so ``install`` patches them there as well.
"""
from __future__ import annotations

import functools
import json
import time

import numpy as np

LAYERS = ("mesh", "fem", "laws", "machine", "topderiv", "levelset", "robust",
          "io")


class Tracer:
    """Stack of open spans plus the flat list of every span recorded."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, attrs]
        self._stack = []

    def span(self, name, fn, attrs=None):
        """Wrap fn so each call records a span named name.

        attrs(result, args, kwargs) may return a dict of counts to keep with
        the span; it runs after the span closes, outside the timed interval.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(out, args, kwargs)
            return out

        return wrapper

    def dump(self, path, t_start, t_end):
        with open(path, "w") as f:
            json.dump({"t_start": t_start, "t_end": t_end,
                       "spans": self.spans}, f)


class _TracedLU:
    """Stand-in for a SuperLU factor whose solve() calls are recorded."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, item):
        return getattr(self._lu, item)


# --- attribute readers -------------------------------------------------------

def _newton_info(out, args, kwargs):
    return {"iterations": int(out[1].iterations)}


def _lookup_rows(out, args, kwargs):
    """Rows queried and rows clamped by one TDTable.evaluate call.

    Mirrors the clamp tests of TDTable.evaluate: a row is clamped when its
    flux magnitude exceeds the last abscissa or its knee leaves the knee
    axis.
    """
    table, U = args[0], args[1]
    knee = args[3] if len(args) > 3 else kwargs.get("knee")
    t = np.linalg.norm(np.atleast_2d(np.asarray(U, dtype=float)), axis=-1)
    hit = t > 0.0
    clamped = t[hit] > table.t[-1] + 1e-12
    if table.q is not None and knee is not None:
        qq = np.broadcast_to(np.asarray(knee, dtype=float), t.shape)[hit]
        clamped |= (qq < table.q[0] - 1e-12) | (qq > table.q[-1] + 1e-12)
    return {"rows": int(hit.sum()), "clamped": int(clamped.sum())}


def _worst_case(out, args, kwargs):
    return {"iterations": int(out.iterations),
            "objective_evals": int(out.n_evaluations)}


def _drive_result(out, args, kwargs):
    rows = out.trace[1:]
    return {"evaluations": int(out.evaluations),
            "accepted": sum(1 for r in rows if r.accepted),
            "rejected": sum(1 for r in rows if not r.accepted)}


def _mesh_nodes(out, args, kwargs):
    return {"nodes": int(out.n_nodes)}


def install(tracer):
    """Patch every layer of the imported rtopt package."""
    import scipy.sparse.linalg as spla

    from rtopt import (cli, config, fem, laws, levelset, machine, mesh,
                       render, robust, topderiv)

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), attrs))

    def patch_all(sites, attr, name, attrs=None):
        """One wrapper shared by every module that bound the same function."""
        traced = tracer.span(name, getattr(sites[0], attr), attrs)
        for owner in sites:
            setattr(owner, attr, traced)

    # -- fem: Newton, factorization, triangular solves, assembly ------------
    splu = spla.splu

    def factor(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return _TracedLU(lu, tracer.span("fem.trisolve", lu.solve))

    spla.splu = tracer.span("fem.factor", factor)

    def traced_respond(respond):
        return tracer.span("laws.respond", respond)

    newton_raw = fem.newton_solve
    newton_span = tracer.span("fem.newton", newton_raw, _newton_info)

    def newton_solve(space, dofmap, respond, *args, **kwargs):
        return newton_span(space, dofmap, traced_respond(respond), *args,
                           **kwargs)

    adjoint_span = tracer.span("fem.adjoint", fem.adjoint_solve)

    def adjoint_solve(space, dofmap, respond, *args, **kwargs):
        return adjoint_span(space, dofmap, traced_respond(respond), *args,
                            **kwargs)

    for owner in (fem, machine, topderiv):
        owner.newton_solve = newton_solve
    for owner in (fem, machine):
        owner.adjoint_solve = adjoint_solve

    patch(fem.P1Space, "tangent_matrix", "fem.assembly")
    patch(fem.P1Space, "flux_divergence", "fem.flux_div")
    patch(fem.P1Space, "element_curl", "fem.curl")
    patch(fem.DofMap, "reduce_matrix", "fem.reduce")
    patch(fem.ScreenedSmoother, "__init__", "fem.smoother_setup")
    patch(fem.ScreenedSmoother, "smooth", "fem.smooth")

    # -- laws: iron kernels (the machine's respond closure calls these) -----
    for attr in ("iron_knee_factor", "iron_knee_factor_ds_over_s",
                 "iron_knee_factor_dk"):
        patch(laws, attr, "laws.iron")
    h_raw, dh_raw = laws.MaterialLaw.h, laws.MaterialLaw.dh_db
    h_iron = tracer.span("laws.iron", h_raw)
    dh_iron = tracer.span("laws.iron", dh_raw)

    def law_h(self, *args, **kwargs):
        fn = h_iron if self.kind == "iron" else h_raw
        return fn(self, *args, **kwargs)

    def law_dh_db(self, *args, **kwargs):
        fn = dh_iron if self.kind == "iron" else dh_raw
        return fn(self, *args, **kwargs)

    laws.MaterialLaw.h = law_h
    laws.MaterialLaw.dh_db = law_dh_db

    # -- mesh -----------------------------------------------------------------
    patch(mesh, "build_machine_mesh", "mesh.build", _mesh_nodes)
    patch_all((mesh, topderiv), "graded_disk_mesh", "mesh.build", _mesh_nodes)

    # -- machine --------------------------------------------------------------
    cls = machine.MachineProblem
    patch(cls, "__init__", "machine.setup")
    patch(cls, "objective", "machine.objective")
    patch(cls, "states", "machine.states")
    patch(cls, "solve_position", "machine.solve_position")
    patch(cls, "adjoints", "machine.adjoints")
    patch(cls, "td_inputs", "machine.td_inputs")
    patch(cls, "grad_q", "machine.grad_q")

    # -- topderiv -------------------------------------------------------------
    patch(topderiv, "generalized_td_field", "topderiv.field")
    patch(topderiv.TDTable, "evaluate", "topderiv.lookup", _lookup_rows)
    patch(topderiv.ExteriorProblem, "__init__", "topderiv.exterior_setup")
    patch(topderiv.ExteriorProblem, "solve_corrector", "topderiv.corrector")
    patch(topderiv.ExteriorProblem, "response_pair", "topderiv.response")
    patch(topderiv, "sample_table", "topderiv.sample_table")
    patch(topderiv, "precompute_tables", "topderiv.precompute")

    # -- levelset -------------------------------------------------------------
    patch_all((levelset, robust), "drive", "levelset.drive", _drive_result)
    patch(levelset.NominalEvaluator, "__call__", "levelset.evaluator")
    patch(levelset, "optimize_nominal", "levelset.optimize")

    # -- robust ---------------------------------------------------------------
    patch(robust, "inner_maximize", "robust.inner", _worst_case)
    patch(robust, "_ascend", "robust.ascend")
    patch(robust.ParameterObjective, "_entry", "robust.memo_lookup")
    patch(robust.RobustEvaluator, "__call__", "robust.evaluator")
    patch(robust, "robust_td_field", "robust.td_field")
    patch(robust, "optimize_robust", "robust.optimize")

    # -- io: artifact and table files ----------------------------------------
    patch(levelset, "save_levelset", "io.write")
    patch(levelset, "load_levelset", "io.read")
    patch(levelset.LevelSetResult, "trace_csv", "io.write")
    patch(render, "save_design_svg", "io.write")
    patch(topderiv, "save_table", "io.write")
    patch(topderiv, "load_table", "io.read")
    patch(cli, "_write_summary", "io.write")

    # -- config is part of set-up; its span keeps it out of "unattributed" ---
    patch(config, "load_config", "config.load")


# --- per-layer metrics --------------------------------------------------------

def layer_metrics(doc, units):
    """Per-layer counts and times from one dumped span list.

    units is the number of descent evaluations (or table samples) the run
    made, the base of the per-evaluation ratios. A span's self time is its
    duration minus the durations of its direct children (spans nest on one
    thread, so children never overlap); a layer's self time is the sum over
    its spans, and time in no span at all (interpreter start, imports, CLI
    parsing, config) is ``other.self_s``.
    """
    spans = doc["spans"]
    n = len(spans)
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    attrs = [s[4] or {} for s in spans]
    child_time = np.zeros(n)
    has_children = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]
            has_children.setdefault(p, set()).add(names[i])
    self_time = dur - child_time

    def idx(name, parent_name=None):
        return [i for i in range(n) if names[i] == name and (
            parent_name is None
            or (parent[i] >= 0 and names[parent[i]] == parent_name))]

    def total(ids):
        return float(dur[ids].sum()) if ids else 0.0

    def attr_sum(ids, key):
        return int(sum(attrs[i].get(key, 0) for i in ids))

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            self_time[i] for i in range(n) if names[i].split(".")[0] == layer))
    top = [i for i in range(n) if parent[i] < 0]
    m["other.self_s"] = (doc["t_end"] - doc["t_start"]) - total(top) + float(
        sum(self_time[i] for i in range(n) if names[i].startswith("config.")))

    # fem
    factor = idx("fem.factor")
    newton = idx("fem.newton")
    iters = [attrs[i].get("iterations", 0) for i in newton]
    residual = idx("fem.flux_div", "fem.newton")
    residual_parts = (residual + idx("fem.curl", "fem.newton")
                      + idx("laws.respond", "fem.newton"))
    trials = len(residual) - len(newton)
    m.update({
        "fem.factorizations": len(factor),
        "fem.factor_s": total(factor),
        "fem.factorizations_per_eval": ratio(len(factor), units),
        "fem.newton.calls": len(newton),
        "fem.newton.iterations": int(sum(iters)),
        "fem.newton.iters_per_solve": ratio(sum(iters), len(newton)),
        "fem.newton.iters_per_solve_max": int(max(iters, default=0)),
        "fem.newton.self_s": float(self_time[newton].sum()) if newton else 0.0,
        "fem.residual.calls": len(residual),
        "fem.residual_s": total(residual_parts),
        "fem.newton.step_accept_ratio": ratio(sum(iters), trials),
        "fem.assembly.calls": len(idx("fem.assembly")),
        "fem.assembly_s": total(idx("fem.assembly")),
        "fem.reduce_s": total(idx("fem.reduce")),
        "fem.triangular_solves": len(idx("fem.trisolve")),
        "fem.solve_s": total(idx("fem.trisolve")),
        "fem.adjoint.calls": len(idx("fem.adjoint")),
        "fem.adjoint_s": total(idx("fem.adjoint")),
        "fem.smooth.calls": len(idx("fem.smooth")),
        "fem.smooth_s": total(idx("fem.smooth")),
    })

    # machine
    states = idx("machine.states")
    hits = sum(1 for i in states
               if "machine.solve_position" not in has_children.get(i, ()))
    solves = idx("machine.solve_position")
    grad_q = idx("machine.grad_q")
    m.update({
        "machine.objective.calls": len(idx("machine.objective")),
        "machine.state_solves": len(solves),
        "machine.state_cache_hit_ratio": ratio(hits, len(states)),
        "machine.newton_iters_per_position": ratio(
            attr_sum(idx("fem.newton", "machine.solve_position"),
                     "iterations"), len(solves)),
        "machine.adjoints_s": total(idx("machine.adjoints")),
        "machine.td_inputs_s": total(idx("machine.td_inputs")),
        "machine.grad_q.calls": len(grad_q),
        "machine.grad_q_s": total(grad_q),
    })

    # robust
    inner = idx("robust.inner")
    lookups = idx("robust.memo_lookup")
    memo_hits = sum(1 for i in lookups
                    if "machine.objective" not in has_children.get(i, ()))
    inner_evals = attr_sum(inner, "objective_evals")
    m.update({
        "robust.inner.calls": len(inner),
        "robust.inner_s": total(inner),
        "robust.inner.iterations": attr_sum(inner, "iterations"),
        "robust.inner.objective_evals": inner_evals,
        "robust.inner.evals_per_outer": ratio(inner_evals, len(inner)),
        "robust.starts": len(idx("robust.ascend")),
        "robust.memo_hit_ratio": ratio(memo_hits, len(lookups)),
    })

    # topderiv
    lookup = idx("topderiv.lookup")
    rows = attr_sum(lookup, "rows")
    clamped = attr_sum(lookup, "clamped")
    corrector = idx("topderiv.corrector")
    m.update({
        "topderiv.field.calls": len(idx("topderiv.field")),
        "topderiv.field_s": total(idx("topderiv.field")),
        "topderiv.lookup_rows": rows,
        "topderiv.clamped_rows": clamped,
        "topderiv.clamp_ratio": ratio(clamped, rows),
        "topderiv.corrector.calls": len(corrector),
        "topderiv.corrector_s": total(corrector),
        "topderiv.corrector.newton_iterations": attr_sum(
            idx("fem.newton", "topderiv.corrector"), "iterations"),
        "topderiv.response_s": total(idx("topderiv.response")),
    })

    # laws: outermost iron-law spans (MaterialLaw.h calls the kernels)
    iron = [i for i in idx("laws.iron")
            if parent[i] < 0 or names[parent[i]] != "laws.iron"]
    m.update({"laws.iron.calls": len(iron), "laws.iron_s": total(iron)})

    # levelset
    drive = idx("levelset.drive")
    accepted = attr_sum(drive, "accepted")
    rejected = attr_sum(drive, "rejected")
    evaluators = idx("levelset.evaluator") + idx("robust.evaluator")
    m.update({
        "levelset.evaluations": attr_sum(drive, "evaluations"),
        "levelset.accepted": accepted,
        "levelset.rejected": rejected,
        "levelset.accept_ratio": ratio(accepted, accepted + rejected),
        "levelset.eval_s": total(evaluators),
    })

    # mesh and io
    build = idx("mesh.build")
    m.update({
        "mesh.build_s": total(build),
        "mesh.nodes": attr_sum(build, "nodes"),
        "io.write_s": total(idx("io.write")),
        "io.read_s": total(idx("io.read")),
    })
    m["trace.spans"] = n
    return m
