"""End-to-end command driver tests, all in-process through main(argv)."""
from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rtopt
from rtopt import machine
from rtopt.cli import main
from rtopt.config import load_config
from rtopt.errors import SolverError
from rtopt.laws import K_F
from rtopt.levelset import TRACE_HEADER
from rtopt.machine import MachineProblem
from rtopt.mesh import graded_disk_mesh

BASE = """
[geometry]
target_nodes = 1200

[material]
iron_linear = true

[scenario]
name = ANG
n_positions = 1
q_hat_deg = -60
interval_deg = -75, -45

[algorithm]
exterior_radius = 64
exterior_target_nodes = 1500
t_max = 12.0
n_t = 5
max_iterations = 12
seed = 0

[output]
directory = {out}
"""


def write_cfg(path, out_dir, algorithm="", base=None):
    # extra algorithm keys go inside the existing section
    text = (base or BASE).format(out=out_dir)
    if algorithm:
        text = text.replace("seed = 0\n", f"seed = 0\n{algorithm}\n")
    path.write_text(text)
    return str(path)


def scal_base(knee_keys=""):
    # saturating iron, SCAL with knee_keys in place of the ANG keys, one step
    return (BASE.replace("max_iterations = 12", "max_iterations = 1")
            .replace("iron_linear = true", "iron_linear = false")
            .replace("name = ANG", "name = SCAL")
            .replace("q_hat_deg = -60\ninterval_deg = -75, -45\n", knee_keys)
            .replace("t_max = 12.0", "t_max = 5.0"))


def saturating_ang_base():
    # scal_base with the ANG scenario and its phase keys back
    return scal_base("q_hat_deg = -60\ninterval_deg = -75, -45\n").replace(
        "name = SCAL", "name = ANG")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(root / "run.cfg", root / "out")
    return {"root": root, "cfg": cfg, "out": root / "out"}


@pytest.fixture(scope="module")
def tables_ready(ws):
    assert main(["precompute-td", ws["cfg"]]) == 0
    return ws


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["optimize", "x.cfg", "--mode", "bogus"])
    assert e.value.code == 2


def test_missing_config(tmp_path):
    assert main(["precompute-td", str(tmp_path / "nope.cfg")]) == 2


def test_unknown_config_key(tmp_path):
    cfg = write_cfg(tmp_path / "bad.cfg", tmp_path / "o",
                    algorithm="step_sizes = 3")
    assert main(["optimize", cfg]) == 2


def test_rotor_block_count_is_not_a_key(tmp_path, caplog):
    # DIST always binds the eight rotor blocks the design region is cut into
    base = BASE.replace("name = ANG", "name = DIST").replace(
        "q_hat_deg = -60\ninterval_deg = -75, -45", "n_rotor_blocks = 4")
    cfg = write_cfg(tmp_path / "dist.cfg", tmp_path / "o", base=base)
    assert main(["audit", cfg, "--kind", "fdcheck"]) == 2
    assert "unknown key 'n_rotor_blocks'" in caplog.text


def test_unselected_scenario_keys_are_checked(tmp_path, caplog):
    # every key is typed, also one the selected scenario does not read
    cfg = write_cfg(tmp_path / "scal.cfg", tmp_path / "o",
                    base=BASE.replace("name = ANG", "name = SCAL")
                            .replace("interval_deg = -75, -45",
                                     "interval_deg = abc"))
    assert main(["precompute-td", cfg]) == 2
    assert "[scenario] interval_deg" in caplog.text


def test_foreign_scenario_key_exits_2(tmp_path, caplog):
    # ANG reads the phase keys only, so a knee-ball radius exits 2
    cfg = write_cfg(tmp_path / "ang.cfg", tmp_path / "o",
                    base=BASE.replace("interval_deg = -75, -45\n",
                                      "interval_deg = -75, -45\n"
                                      "ellipsoid_radius = 99\n"))
    assert main(["optimize", cfg]) == 2
    assert "ellipsoid_radius is not read by scenario ANG" in caplog.text


def test_invalid_thread_cap(ws):
    assert main(["--threads", "0", "precompute-td", ws["cfg"]]) == 2


def test_thread_cap_exported_before_the_command(tmp_path, monkeypatch):
    # the cap reaches the BLAS environment and threadpoolctl before the
    # config is read, so it holds also for a command that exits 2
    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
    for var in variables:
        monkeypatch.setenv(var, "8")
    limits = []
    monkeypatch.setitem(sys.modules, "threadpoolctl", types.SimpleNamespace(
        threadpool_limits=limits.append))
    assert main(["--threads", "1", "precompute-td",
                 str(tmp_path / "nope.cfg")]) == 2
    assert [os.environ[var] for var in variables] == ["1"] * 4
    assert limits == [1]


def test_single_abscissa_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "one.cfg", tmp_path / "o",
                    base=BASE.replace("n_t = 5", "n_t = 1"))
    assert main(["precompute-td", cfg]) == 2


@pytest.mark.parametrize("line, bad", [
    ("t_max = 12.0", "t_max = nan"),
    ("t_max = 12.0", "t_max = inf"),
    ("interval_deg = -75, -45", "interval_deg = -75, -inf"),
], ids=["nan", "inf", "pair"])
def test_non_finite_number_rejected(tmp_path, caplog, line, bad):
    cfg = write_cfg(tmp_path / "nan.cfg", tmp_path / "o",
                    base=BASE.replace(line, bad))
    assert main(["precompute-td", cfg]) == 2
    assert bad.split(" =")[0] in caplog.text
    assert "finite" in caplog.text


def test_precompute_audit_output(tables_ready, capsys):
    ws = tables_ready
    # rerun is cheap at this size and overwrites in place
    assert main(["precompute-td", ws["cfg"]]) == 0
    out = capsys.readouterr().out
    for fname in ("iron_to_air.rtotd", "air_to_iron.rtotd"):
        assert (ws["out"] / "tables" / fname).exists()
        assert fname in out
    line = [l for l in out.splitlines() if "slope audit" in l]
    assert len(line) == 1
    assert float(line[0].split()[-1]) < 0.05
    # the corrector solves report themselves: linear iron takes one
    # corrector solve of one Newton step per direction, whatever n_t
    with open(ws["out"] / "tables" / "summary.json") as f:
        summary = json.load(f)
    # (a cold start evaluates the residual at zero and at its one trial)
    assert summary["newton"] == {"solves": 2, "iterations": 2,
                                 "max_iterations": 1, "rejected_trials": 0,
                                 "warm_starts": 0, "residuals": 4}
    # the corrector is solved on the upper half disk: every node is an
    # unknown but those on the x axis and on the outer arc
    exterior = load_config(ws["cfg"]).exterior
    x, y = graded_disk_mesh(exterior.radius, exterior.target_nodes).vertices.T
    axis = np.abs(y) <= 1e-12 * exterior.radius
    arc = ~axis & np.isclose(np.hypot(x, y), exterior.radius, rtol=1e-12)
    assert summary["mesh_nodes"] == len(x)
    assert summary["reduced_unknowns"] == len(x) - axis.sum() - arc.sum()
    assert '"reduced_unknowns"' in out
    # ANG samples one column, at the fixed knee K_F
    lines = (ws["out"] / "tables" / "iron_to_air.rtotd").read_text().splitlines()
    assert lines[0] == "RTOTD3"
    head = lines.index("q 1")
    assert float(lines[head + 1]) == K_F
    assert lines[head + 2] == "f_par 5 1"
    assert len(lines) == head + 8          # the f_par block ends the file


def test_optimize_missing_tables(tmp_path):
    cfg = write_cfg(tmp_path / "fresh.cfg", tmp_path / "empty")
    assert main(["optimize", cfg]) == 2


SUMMARY_KEYS = {"clamped_rows", "evaluations", "factorizations",
                "final_objective", "format", "iron_fraction", "iterations",
                "linear_bases", "newton", "objective_evaluations", "scenario",
                "status", "trace_rows", "worst_parameters"}


def read_artifacts(rundir):
    trace = (rundir / "trace.csv").read_text()
    summary = json.loads((rundir / "summary.json").read_text())
    final = (rundir / "final.rtols").read_bytes()
    return trace, summary, final


def strip_wall(trace):
    rows = trace.splitlines()
    out = [rows[0]]
    for row in rows[1:]:
        f = row.split(",")
        del f[5]
        out.append(",".join(f))
    return "\n".join(out)


def test_optimize_nominal_artifacts(tables_ready, capsys):
    ws = tables_ready
    rc = main(["optimize", ws["cfg"], "--mode", "nominal"])
    assert rc in (0, 4)
    rundir = ws["out"] / "nominal"
    trace, summary, final = read_artifacts(rundir)
    assert trace.splitlines()[0] == TRACE_HEADER
    assert len(trace.splitlines()) == summary["trace_rows"] + 1
    assert set(summary) == SUMMARY_KEYS
    assert summary["format"] == "RTOSUMMARY1"
    assert summary["scenario"] == "ANG"
    assert summary["status"] in ("converged", "stalled", "max_iterations")
    assert (rc == 4) == (summary["status"] == "stalled")
    assert 0.0 <= summary["iron_fraction"] <= 1.0
    assert summary["worst_parameters"] == [np.deg2rad(-60.0)]
    # linear iron: no Newton solve, one basis (one factorization) per design
    assert summary["newton"] == {"solves": 0, "iterations": 0,
                                 "max_iterations": 0, "rejected_trials": 0,
                                 "warm_starts": 0, "residuals": 0}
    assert summary["linear_bases"] == summary["evaluations"]
    # the bases and the smoother are all the factorizations
    assert summary["factorizations"] == summary["linear_bases"] + 1
    # nominal: one objective call (at q_hat) per design
    assert summary["objective_evaluations"] == summary["evaluations"]
    assert final.startswith(b"RTOLS1\n")
    svg = (rundir / "design_final.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert (rundir / "design_0000.svg").exists()          # snapshot at k=0
    assert (rundir / "checkpoint.rtols").exists()
    assert json.loads(capsys.readouterr().out.rsplit("artifacts in", 1)[0]) \
        == summary


def test_optimize_rerun_bitwise_identical(tables_ready):
    ws = tables_ready
    rundir = ws["out"] / "nominal"
    first = read_artifacts(rundir)
    assert main(["optimize", ws["cfg"], "--mode", "nominal"]) in (0, 4)
    second = read_artifacts(rundir)
    assert strip_wall(first[0]) == strip_wall(second[0])
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_optimize_robust_artifacts(tables_ready):
    ws = tables_ready
    rc = main(["optimize", ws["cfg"], "--mode", "robust"])
    assert rc in (0, 4)
    trace, summary, _ = read_artifacts(ws["out"] / "robust")
    (q,) = summary["worst_parameters"]
    assert np.deg2rad(-75.0) - 1e-12 <= q <= np.deg2rad(-45.0) + 1e-12
    # the summary reports q* of the design the run ended on, the last
    # accepted iterate
    rows = [row.split(",") for row in trace.splitlines()[1:]]
    last = [r for r in rows if r[4] == "1"][-1]
    assert [float(v) for v in last[6].split(";")] == [q]


def test_summary_counts_clamped_rows(tables_ready, tmp_path):
    # linear iron reaches fluxes beyond the toy tables' t_max = 12
    shutil.copytree(tables_ready["out"] / "tables", tmp_path / "lin" / "tables")
    cfg = write_cfg(tmp_path / "lin.cfg", tmp_path / "lin")
    assert main(["optimize", cfg, "--mode", "nominal"]) in (0, 4)
    summary = json.loads((tmp_path / "lin" / "nominal" / "summary.json")
                         .read_text())
    assert summary["clamped_rows"] > 0
    # saturating iron stays inside t_max = 5 and the knee axis of SCAL
    cfg = write_cfg(tmp_path / "scal.cfg", tmp_path / "scal", base=scal_base(),
                    algorithm="n_q = 3")
    assert main(["precompute-td", cfg]) == 0
    assert main(["optimize", cfg, "--mode", "robust"]) in (0, 4)
    summary = json.loads((tmp_path / "scal" / "robust" / "summary.json")
                         .read_text())
    assert summary["newton"]["solves"] > 0 and summary["linear_bases"] == 0
    assert summary["clamped_rows"] == 0


def test_dist_robust_end_to_end(tmp_path):
    # DIST: nine knees in a ball of the default radius 0.1 * k_f around k_f.
    # The ascent from the ball's centre q_hat finds q*; a single
    # design step takes a few dozen Newton solves, not hundreds
    cfg = write_cfg(tmp_path / "dist.cfg", tmp_path / "dist",
                    base=scal_base().replace("name = SCAL", "name = DIST"),
                    algorithm="n_q = 3")
    assert main(["precompute-td", cfg]) == 0
    assert main(["optimize", cfg, "--mode", "robust"]) in (0, 4)
    summary = json.loads((tmp_path / "dist" / "robust" / "summary.json")
                         .read_text())
    q = np.array(summary["worst_parameters"])
    assert q.shape == (9,)
    assert np.linalg.norm(q - K_F) <= 0.1 * K_F * (1 + 1e-9)
    assert summary["newton"]["solves"] <= 40
    assert summary["objective_evaluations"] >= summary["evaluations"]


def test_tables_must_span_the_knee_interval(tmp_path, caplog):
    # the law fingerprint covers the laws only, not the knees sampled, so
    # tables sampled over a narrower interval clamped every knee query
    # outside it
    out = tmp_path / "out"

    def cfg(name, knee):
        return write_cfg(tmp_path / f"{name}.cfg", out, algorithm="n_q = 3",
                         base=scal_base(f"q_hat_knee = 2.2\ninterval_knee = {knee}\n"))

    assert main(["precompute-td", cfg("narrow", "2.1, 2.3")]) == 0
    caplog.clear()
    assert main(["optimize", cfg("wide", "1.6, 2.8"), "--mode", "robust"]) == 2
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    message = record.getMessage()
    for part in ("iron_to_air.rtotd", "2.1 to 2.3", "1.6 to 2.8",
                 "re-run precompute-td"):
        assert part in message
    assert not (out / "robust").exists()
    assert main(["optimize", cfg("narrow", "2.1, 2.3"), "--mode", "robust"]) in (0, 4)
    summary = json.loads((out / "robust" / "summary.json").read_text())
    assert summary["clamped_rows"] == 0


def test_one_knee_tables_refused_by_knee_scenario(tmp_path, caplog):
    # ANG tables of the same (saturating) laws hold the one knee K_F, which
    # cannot span a knee interval
    out = tmp_path / "out"
    ang = write_cfg(tmp_path / "ang.cfg", out, base=saturating_ang_base())
    assert main(["precompute-td", ang]) == 0
    caplog.clear()
    scal = write_cfg(tmp_path / "scal.cfg", out, base=scal_base(),
                     algorithm="n_q = 3")
    assert main(["optimize", scal]) == 2
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "iron_to_air.rtotd" in record.getMessage()
    assert "one knee sample" in record.getMessage()
    assert not (out / "nominal").exists()


def test_ang_runs_on_knee_axis_tables(tmp_path):
    # tables of the same laws sampled over a knee interval around K_F serve
    # an ANG run, which reads them at K_F
    out = tmp_path / "out"
    scal = write_cfg(tmp_path / "scal.cfg", out, base=scal_base(),
                     algorithm="n_q = 3")
    assert main(["precompute-td", scal]) == 0
    ang = write_cfg(tmp_path / "ang.cfg", out, base=saturating_ang_base())
    for mode in ("nominal", "robust"):
        assert main(["optimize", ang, "--mode", mode]) in (0, 4)
        summary = json.loads((out / mode / "summary.json").read_text())
        assert summary["scenario"] == "ANG" and summary["clamped_rows"] == 0


def test_nominal_factorizations_counted(tmp_path, factor_calls):
    # saturating iron at three positions: each position's Newton started at
    # the previous state factors that state's tangent, and its adjoint is
    # solved there, so an evaluation factors its Newton steps and the last
    # position's adjoint; the smoother factors once per run
    cfg = write_cfg(tmp_path / "scal.cfg", tmp_path / "scal",
                    base=scal_base().replace("n_positions = 1",
                                             "n_positions = 3"),
                    algorithm="n_q = 3")
    assert main(["precompute-td", cfg]) == 0
    del factor_calls[:]
    assert main(["optimize", cfg, "--mode", "nominal"]) in (0, 4)
    summary = json.loads((tmp_path / "scal" / "nominal" / "summary.json")
                         .read_text())
    assert summary["evaluations"] >= 2
    assert summary["newton"]["solves"] == 3 * summary["evaluations"]
    assert summary["factorizations"] == (summary["newton"]["iterations"]
                                         + summary["evaluations"] + 1)
    assert summary["factorizations"] == len(factor_calls)


def test_robust_factorizations_counted(tmp_path, factor_calls):
    # the inner ascent's gradients solve the adjoints no chained Newton
    # step did, and the field reads them from the same states: every
    # factorization is counted once
    cfg = write_cfg(tmp_path / "scal.cfg", tmp_path / "scal",
                    base=scal_base().replace("n_positions = 1",
                                             "n_positions = 3"),
                    algorithm="n_q = 3")
    assert main(["precompute-td", cfg]) == 0
    del factor_calls[:]
    assert main(["optimize", cfg, "--mode", "robust"]) in (0, 4)
    summary = json.loads((tmp_path / "scal" / "robust" / "summary.json")
                         .read_text())
    assert summary["objective_evaluations"] > summary["evaluations"] >= 2
    assert summary["factorizations"] == len(factor_calls)


def test_precompute_refuses_non_finite_tables(tmp_path, caplog):
    # linear responses overflow when sampled to t_max = 1e308: the table
    # refuses them, naming t_max, so precompute exits 2 and writes none
    cfg = write_cfg(tmp_path / "huge.cfg", tmp_path / "o",
                    base=BASE.replace("t_max = 12.0", "t_max = 1e308"))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["precompute-td", cfg]) == 2
    assert "non-finite table values sampled to t_max 1e+308" in caplog.text
    assert list((tmp_path / "o").rglob("*.rtotd")) == []


def test_precompute_refuses_tables_it_cannot_interpolate(tmp_path, caplog):
    # t_max = 1e-320 samples finite responses over a subnormal t spacing,
    # whose PCHIP slopes overflow: precompute exits 2 naming t_max, warns
    # nothing (the suite turns warnings into errors) and writes no table
    cfg = write_cfg(tmp_path / "tiny.cfg", tmp_path / "o",
                    base=BASE.replace("t_max = 12.0", "t_max = 1e-320"))
    assert main(["precompute-td", cfg]) == 2
    assert "non-finite table interpolation of the t samples to t_max 1e-320" \
        in caplog.text
    assert list((tmp_path / "o").rglob("*.rtotd")) == []


def test_nom_scenario_exits_2(tmp_path, caplog):
    # nominal is a mode of every scenario: a config without `name` runs ANG
    # at the machine's load angle, and the old NOM scenario is gone
    cfg = write_cfg(tmp_path / "nom.cfg", tmp_path / "o",
                    base=BASE.replace("name = ANG", "name = NOM")
                            .replace("q_hat_deg = -60", "")
                            .replace("interval_deg = -75, -45", ""))
    assert main(["optimize", cfg]) == 2
    assert "unknown scenario 'NOM'" in caplog.text


def test_corrupt_table_rejected(tables_ready, tmp_path, caplog, knee_axis_faults,
                                t_axis_faults):
    ws = tables_ready
    out2 = tmp_path / "out2"
    (out2 / "tables").mkdir(parents=True)
    for fname in ("iron_to_air.rtotd", "air_to_iron.rtotd"):
        shutil.copy(ws["out"] / "tables" / fname, out2 / "tables" / fname)
    (out2 / "tables" / "iron_to_air.rtotd").write_text("garbage\n")
    cfg = write_cfg(tmp_path / "c.cfg", out2)
    assert main(["optimize", cfg]) == 2
    # knee axes that do not match the blocks or do not strictly increase,
    # t axes of one sample or that do not strictly increase
    text = (ws["out"] / "tables" / "iron_to_air.rtotd").read_text()
    for bad in [*knee_axis_faults(text).values(), *t_axis_faults(text).values()]:
        (out2 / "tables" / "iron_to_air.rtotd").write_text(bad)
        assert main(["optimize", cfg]) == 2
    # RTOTD1 wrote ANG tables without a knee axis, and RTOTD2 an all-zero
    # f_perp block after f_par; their files are refused by their tag,
    # naming the file
    table = out2 / "tables" / "iron_to_air.rtotd"
    n_t = text.split("\nf_par ")[1].split()[0]
    padded = text + f"f_perp {n_t} 1\n" + "0.0\n" * int(n_t)
    for old, bad in (("RTOTD1", text), ("RTOTD2", padded)):
        table.write_text(bad.replace("RTOTD3", old, 1))
        caplog.clear()
        assert main(["optimize", cfg]) == 2
        assert f"{table}: expected a RTOTD3 file" in caplog.text


def test_truncated_table_rejected(tables_ready, tmp_path):
    ws = tables_ready
    out2 = tmp_path / "out2"
    shutil.copytree(ws["out"] / "tables", out2 / "tables")
    table = out2 / "tables" / "air_to_iron.rtotd"
    lines = table.read_text().splitlines()
    table.write_text("\n".join(lines[:len(lines) - 2]) + "\n")
    cfg = write_cfg(tmp_path / "c.cfg", out2)
    assert main(["optimize", cfg]) == 2


def test_law_mismatch_rejected(tables_ready, tmp_path):
    ws = tables_ready
    # nonlinear iron law against tables sampled for the linear one
    cfg = write_cfg(tmp_path / "nl.cfg", ws["out"],
                    base=BASE.replace("iron_linear = true",
                                      "iron_linear = false"))
    assert main(["optimize", cfg]) == 2


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    # nonlinear iron cannot converge in a single Newton step
    monkeypatch.setattr(machine, "NEWTON_MAX_ITER", 1)
    cfg = write_cfg(tmp_path / "hard.cfg", tmp_path / "o",
                    base=BASE.replace("iron_linear = true",
                                      "iron_linear = false"))
    assert main(["audit", cfg, "--kind", "fdcheck"]) == 3


def test_solver_failure_mid_descent_keeps_partial_artifacts(
        tables_ready, tmp_path, monkeypatch, caplog):
    # the state solve of the first trial design fails: exit 3, and the
    # snapshot of iteration 0 stays for inspection
    out2 = tmp_path / "out2"
    shutil.copytree(tables_ready["out"] / "tables", out2 / "tables")
    cfg = write_cfg(tmp_path / "c.cfg", out2)
    states = MachineProblem.states
    designs = set()

    def fail_on_second_design(self, design, *args, **kwargs):
        designs.add(design.tobytes())
        if len(designs) > 1:
            raise SolverError("state solve diverged")
        return states(self, design, *args, **kwargs)

    monkeypatch.setattr(MachineProblem, "states", fail_on_second_design)
    assert main(["optimize", cfg, "--mode", "nominal"]) == 3
    rundir = out2 / "nominal"
    assert f"partial artifacts kept in {rundir}" in caplog.text
    assert sorted(p.name for p in rundir.iterdir()) == ["checkpoint.rtols",
                                                        "design_0000.svg"]


def test_swapped_tables_rejected(tables_ready, tmp_path, caplog):
    # each table file must hold the direction its name says
    tables = tmp_path / "out2" / "tables"
    tables.mkdir(parents=True)
    for src, dst in (("iron_to_air", "air_to_iron"), ("air_to_iron", "iron_to_air")):
        shutil.copy(tables_ready["out"] / "tables" / f"{src}.rtotd",
                    tables / f"{dst}.rtotd")
    cfg = write_cfg(tmp_path / "c.cfg", tmp_path / "out2")
    assert main(["optimize", cfg]) == 2
    assert (f"{tables / 'iron_to_air.rtotd'}: holds direction 'air_to_iron'"
            in caplog.text)


def test_singular_tangent_exit_code(tmp_path, monkeypatch, caplog):
    # a material without stiffness leaves every diagonal pivot zero
    respond_factory = MachineProblem.respond_factory

    def no_stiffness(self, *args):
        respond = respond_factory(self, *args)

        def zero_dh(B):
            h, dh = respond(B)
            return h, np.zeros_like(dh)

        return zero_dh

    monkeypatch.setattr(MachineProblem, "respond_factory", no_stiffness)
    cfg = write_cfg(tmp_path / "run.cfg", tmp_path / "o")
    assert main(["audit", cfg, "--kind", "fdcheck"]) == 3
    # linear iron: the basis factorization refuses it, before any Newton step
    assert "singular tangent system of the linear-iron basis" in caplog.text


def test_audit_sweep(tables_ready, capsys):
    ws = tables_ready
    assert main(["audit", ws["cfg"], "--kind", "sweep"]) == 0
    rows = (ws["out"] / "audit" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "q,objective,mean_torque"
    assert len(rows) == 32
    qs = np.array([float(r.split(",")[0]) for r in rows[1:]])
    assert qs[0] == pytest.approx(np.deg2rad(-75.0))
    assert qs[-1] == pytest.approx(np.deg2rad(-45.0))
    assert "worst grid point" in capsys.readouterr().out


def test_audit_sweep_rejects_nominal_scenario(tmp_path, caplog):
    # the sweep needs an interval; DIST's knee ball has no grid
    cfg = write_cfg(tmp_path / "dist.cfg", tmp_path / "o",
                    base=BASE.replace("name = ANG", "name = DIST")
                            .replace("q_hat_deg = -60", "")
                            .replace("interval_deg = -75, -45", ""))
    assert main(["audit", cfg, "--kind", "sweep"]) == 2
    assert "sweep audit needs a scenario with interval uncertainty" in caplog.text


def test_audit_fdcheck(tables_ready, capsys):
    ws = tables_ready
    assert main(["audit", ws["cfg"], "--kind", "fdcheck"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if "max relative error" in l][0]
    assert float(line.split()[-1]) <= 1e-6
    rows = (ws["out"] / "audit" / "fdcheck.csv").read_text().splitlines()
    assert rows[0] == "component,q,adjoint,central_fd,rel_error"
    assert len(rows) == 2
    for value in rows[1].split(","):
        float(value)                  # plain numbers, not a numpy scalar repr


def test_audit_tdcheck(tables_ready, capsys):
    ws = tables_ready
    assert main(["audit", ws["cfg"], "--kind", "tdcheck"]) == 0
    assert "tdcheck: final relative discrepancies" in capsys.readouterr().out
    rows = (ws["out"] / "audit" / "tdcheck.csv").read_text().splitlines()
    assert rows[0].startswith("element,material,eps,")
    assert len(rows) == 16                                 # 5 probes, 3 radii
    for row in rows[1:]:
        assert row.split(",")[1] in ("'iron'", "'air'", "iron", "air")


def test_audit_missing_design_file(tables_ready, tmp_path):
    ws = tables_ready
    assert main(["audit", ws["cfg"], "--kind", "sweep",
                 "--design", str(tmp_path / "ghost.rtols")]) == 2


def test_render_roundtrip(ws, tmp_path):
    from rtopt.config import load_config
    from rtopt.levelset import save_levelset
    from rtopt.machine import MachineProblem
    from rtopt.mesh import build_machine_mesh

    cfg = load_config(ws["cfg"])
    mesh = build_machine_mesh(cfg.geometry)
    problem = MachineProblem(mesh, cfg.materials, cfg.scenario)
    psi = np.random.default_rng(3).standard_normal(len(problem.design_nodes))
    design = tmp_path / "design.rtols"
    save_levelset(psi, problem.design_nodes, mesh.fingerprint(), design)
    out = tmp_path / "pic.svg"
    assert main(["render", ws["cfg"], "--design", str(design),
                 "--out", str(out)]) == 0
    assert out.read_text().lstrip().startswith("<svg")
    # default output lands next to the design file
    assert main(["render", ws["cfg"], "--design", str(design)]) == 0
    assert design.with_suffix(".svg").exists()
    assert main(["render", ws["cfg"],
                 "--design", str(tmp_path / "none.rtols")]) == 2


@pytest.mark.parametrize("command", ["render", "audit"])
def test_design_node_ids_checked(ws, tmp_path, caplog, command):
    from rtopt.config import load_config
    from rtopt.levelset import save_levelset
    from rtopt.mesh import build_machine_mesh

    cfg = load_config(ws["cfg"])
    mesh = build_machine_mesh(cfg.geometry)
    ids = MachineProblem(mesh, cfg.materials, cfg.scenario).design_nodes
    outside = np.setdiff1d(np.arange(mesh.n_nodes), ids)[0]
    replaced, repeated = ids.copy(), ids.copy()
    replaced[5] = outside
    repeated[5] = ids[6]
    args = {"render": [], "audit": ["--kind", "sweep"]}[command]
    for name, bad in (("replaced", replaced), ("repeated", repeated),
                      ("missing", ids[:-1]),
                      ("extra", np.append(ids, outside))):
        design = tmp_path / f"{name}.rtols"
        save_levelset(np.ones(len(bad)), bad, mesh.fingerprint(), design)
        caplog.clear()
        assert main([command, ws["cfg"], "--design", str(design)] + args) == 2
        assert f"{design}: node ids are not the design nodes" in caplog.text


def test_undecodable_input_exits_2(ws, tmp_path, caplog):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes((ws["root"] / "run.cfg").read_bytes() + b"# \xe9t\xe9\n")
    assert main(["optimize", str(cfg)]) == 2
    design = tmp_path / "latin1.rtols"
    design.write_bytes(b"RTOLS1\nmesh \xff\n")
    assert main(["render", ws["cfg"], "--design", str(design)]) == 2
    assert "not a RTOLS1 text file" in caplog.text


@pytest.mark.parametrize("case", ["svg_in_missing_dir", "design_is_dir",
                                  "output_dir_is_file"])
def test_unopenable_path_exits_2(ws, tmp_path, caplog, case):
    # a path the OS refuses to open is a bad input, not a traceback
    if case == "svg_in_missing_dir":
        from rtopt.config import load_config
        from rtopt.levelset import save_levelset
        from rtopt.mesh import build_machine_mesh

        cfg = load_config(ws["cfg"])
        mesh = build_machine_mesh(cfg.geometry)
        ids = MachineProblem(mesh, cfg.materials, cfg.scenario).design_nodes
        design = tmp_path / "design.rtols"
        save_levelset(np.ones(len(ids)), ids, mesh.fingerprint(), design)
        named = tmp_path / "nodir" / "x.svg"
        argv = ["render", ws["cfg"], "--design", str(design),
                "--out", str(named)]
    elif case == "design_is_dir":
        named = tmp_path / "folder.rtols"
        named.mkdir()
        argv = ["render", ws["cfg"], "--design", str(named)]
    else:
        named = tmp_path / "taken"
        named.write_text("")
        argv = ["precompute-td", write_cfg(tmp_path / "run.cfg", named)]
    caplog.clear()
    assert main(argv) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert str(named) in errors[0]


def test_output_root_env(tmp_path, monkeypatch):
    from rtopt.config import load_config

    cfg = write_cfg(tmp_path / "rel.cfg", "rel/dir")
    monkeypatch.setenv("RTOPT_OUTPUT_ROOT", str(tmp_path / "root"))
    assert load_config(cfg).output_dir == str(tmp_path / "root" / "rel" / "dir")
    monkeypatch.delenv("RTOPT_OUTPUT_ROOT")
    assert load_config(cfg).output_dir == "rel/dir"


def run_python(code):
    """Standard output of a fresh interpreter running code on this rtopt."""
    src = str(Path(rtopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_imports_leave_out_interpolate_and_optimize(tmp_path):
    # what the command handlers load, and a precompute and a robust run:
    # scipy.interpolate alone pulls in scipy.optimize, scipy.special and
    # scipy.spatial, and scipy.linalg and scipy.sparse cost 0.2 s a process;
    # of scipy, only the two compiled modules rtopt.fem calls are loaded, and
    # they are kept out of sys.modules
    cfg = write_cfg(tmp_path / "run.cfg", tmp_path / "out")
    out = run_python(
        "import sys\n"
        "import rtopt.cli, rtopt.config, rtopt.levelset, rtopt.robust\n"
        "import rtopt.topderiv, rtopt.machine, rtopt.mesh, rtopt.render\n"
        f"assert rtopt.cli.main(['precompute-td', {cfg!r}]) == 0\n"
        f"assert rtopt.cli.main(['optimize', {cfg!r}, '--mode', 'robust'])"
        " in (0, 4)\n"
        "print(*sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'), '|',"
        " rtopt.fem._lapack.__name__, rtopt.fem._sparsetools.__name__)\n")
    assert out.splitlines()[-1].split() == [
        "|", "scipy.linalg._flapack", "scipy.sparse._sparsetools"]


def test_cli_runs_leave_out_numpy_ma(tmp_path):
    # a plain np.unique (so np.union1d, and np.isin by sorting) imports
    # numpy.ma, about 15 ms a process; no command needs it
    cfg = write_cfg(tmp_path / "run.cfg", tmp_path / "out")
    out = run_python(
        "import sys\n"
        "import rtopt.cli\n"
        "loaded = []\n"
        f"for argv in (['precompute-td', {cfg!r}], ['optimize', {cfg!r}],\n"
        f"             ['optimize', {cfg!r}, '--mode', 'robust']):\n"
        "    assert rtopt.cli.main(argv) in (0, 4)\n"
        "    loaded.append('numpy.ma' in sys.modules)\n"
        "print(*loaded)\n")
    assert out.splitlines()[-1] == "False False False"
