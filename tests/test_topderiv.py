"""Sensitivity tables: sampling, interpolation, sign conventions, storage."""
from __future__ import annotations

import logging

import numpy as np
import pytest

from rtopt.errors import FormatError, UsageError
from rtopt.fem import DofMap, TangentCache
from rtopt.laws import NU0, NU_F
from rtopt.machine import MaterialSpec, Scenario
from rtopt.topderiv import (DIRECTIONS, ExteriorConfig, ExteriorProblem,
                            TDTable, check_table_compatibility,
                            generalized_td_field, laws_for_direction,
                            load_table, precompute_tables, sample_table,
                            save_table)
from closed_forms import truncated_corrector

I2A_SLOPE = 2.0 * NU_F * (NU0 - NU_F) / (NU0 + NU_F)
A2I_SLOPE = -2.0 * NU0 * (NU0 - NU_F) / (NU0 + NU_F)


def test_linear_law_slopes(linear_tables):
    for name, slope in (("iron_to_air", I2A_SLOPE), ("air_to_iron", A2I_SLOPE)):
        tab = linear_tables[name]
        t = tab.t[1:]
        rel = np.abs(tab.f_par[1:] / (slope * t) - 1.0)
        assert rel.max() <= 1e-2, (name, rel.max())
        assert np.abs(tab.f_perp).max() <= 1e-8 * np.abs(tab.f_par).max()
        assert tab.f_par[0] == 0.0 and tab.f_perp[0] == 0.0


def test_linear_response_proportional_to_flux(linear_tables):
    # same discretization at every t, so the ratios agree to roundoff
    tab = linear_tables["iron_to_air"]
    ratios = tab.f_par[1:] / tab.t[1:]
    assert np.abs(ratios / ratios[0] - 1.0).max() <= 1e-8


def test_corrector_matches_truncated_analytic():
    cfg = ExteriorConfig(target_nodes=4000, t_max=2.0, n_t=2)
    prob = ExteriorProblem(cfg)
    law_in, law_out = laws_for_direction(
        "iron_to_air", MaterialSpec(iron_linear=True), knee=2.2)
    U = np.array([1.5, 0.0])
    k, info = prob.solve_corrector(U, law_in, law_out)
    assert info.iterations <= 1
    # iron_to_air puts the air inclusion inside an iron exterior
    ref = truncated_corrector(prob.mesh.vertices, cfg.radius, U, NU0, NU_F)
    mass = prob.space.mass_matrix()
    err = k - ref
    rel = np.sqrt(err @ (mass @ err)) / np.sqrt(ref @ (mass @ ref))
    assert rel <= 2e-2, rel


def test_linear_tables_factor_once_per_direction(linear_spec, splu_calls):
    cfg = ExteriorConfig(radius=64.0, target_nodes=1500, t_max=12.0, n_t=5)
    tables = precompute_tables(linear_spec, cfg)
    assert len(splu_calls) == 2                 # one tangent per direction

    # a fresh cache for every solve gives the same tables bit for bit, with
    # linear and with saturating iron
    prob = ExteriorProblem(cfg)
    for direction in DIRECTIONS:
        assert_isolated_solves_reproduce(prob, linear_spec, tables[direction])
    assert len(splu_calls) == 2 + 2 * (cfg.n_t - 1)
    spec = MaterialSpec()
    for direction in DIRECTIONS:
        table = sample_table(spec, direction, cfg, problem=prob)
        assert_isolated_solves_reproduce(prob, spec, table)


def assert_isolated_solves_reproduce(prob, spec, table):
    """Every table entry again, each from one solve with a fresh tangent cache."""
    law_in, law_out = laws_for_direction(table.direction, spec, spec.k_f)
    for it in range(1, len(table.t)):
        prob.tangents = TangentCache(prob.space, prob.dofmap)
        U = np.array([table.t[it], 0.0])
        k, _ = prob.solve_corrector(U, law_in, law_out)
        assert prob.response_pair(k, U, law_in, law_out) == (
            table.f_par[it], table.f_perp[it])


def test_odd_reduction_matches_full_disk():
    # U = t e_x makes the corrector odd in y, so the half-disk unknowns give
    # the full-disk solve, Newton path and response pair included
    cfg = ExteriorConfig(radius=64.0, target_nodes=1500)
    prob = ExteriorProblem(cfg)
    full = ExteriorProblem(cfg)
    full.dofmap = DofMap(full.mesh)
    full.tangents = TangentCache(full.space, full.dofmap)
    assert 2 * prob.dofmap.n_reduced <= full.dofmap.n_reduced
    spec = MaterialSpec()
    for direction in DIRECTIONS:
        law_in, law_out = laws_for_direction(direction, spec, spec.k_f)
        for t in (0.5, 2.0, 5.0):
            U = np.array([t, 0.0])
            k, info = prob.solve_corrector(U, law_in, law_out)
            k_ref, info_ref = full.solve_corrector(U, law_in, law_out)
            assert info.iterations == info_ref.iterations
            assert np.abs(k - k_ref).max() <= 1e-10 * np.abs(k_ref).max()
            f_par, f_perp = prob.response_pair(k, U, law_in, law_out)
            ref_par, ref_perp = full.response_pair(k_ref, U, law_in, law_out)
            assert abs(f_par - ref_par) <= 1e-12 * abs(ref_par)
            assert abs(f_perp - ref_perp) <= 1e-12 * abs(ref_par)
    assert len(prob.newton_log) == 6
    with pytest.raises(UsageError):
        prob.solve_corrector(np.array([1.0, 1.0]), law_in, law_out)


def test_evaluate_rotation_invariant(linear_tables):
    tab = linear_tables["air_to_iron"]
    rng = np.random.default_rng(9)
    U = rng.uniform(-1, 1, (40, 2)) * 3.0
    P = rng.standard_normal((40, 2))
    base = tab.evaluate(U, P)
    for theta in (0.3, 2.0, -1.2):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        rot = tab.evaluate(U @ R.T, P @ R.T)
        assert np.allclose(rot, base, rtol=1e-10, atol=1e-10 * np.abs(base).max())


def test_evaluate_linear_in_adjoint(linear_tables):
    tab = linear_tables["iron_to_air"]
    rng = np.random.default_rng(4)
    U = rng.uniform(-1, 1, (25, 2)) * 2.0
    P1 = rng.standard_normal((25, 2))
    P2 = rng.standard_normal((25, 2))
    combo = tab.evaluate(U, 0.7 * P1 - 1.3 * P2)
    parts = 0.7 * tab.evaluate(U, P1) - 1.3 * tab.evaluate(U, P2)
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12 * np.abs(combo).max())


def test_evaluate_zero_flux_rows(linear_tables):
    tab = linear_tables["iron_to_air"]
    U = np.array([[0.0, 0.0], [1.0, 0.0]])
    P = np.ones((2, 2))
    out = tab.evaluate(U, P)
    assert out[0] == 0.0 and out[1] != 0.0


def synthetic_table(f_perp_slope=0.0, q=None):
    t = np.array([0.0, 1.0, 2.0])
    if q is None:
        return TDTable("iron_to_air", t, t.copy(), f_perp_slope * t, "test")
    q = np.asarray(q, dtype=float)
    f_par = np.outer(t, q)
    return TDTable("iron_to_air", t, f_par, np.zeros_like(f_par), "test", q=q)


def test_clamp_warns_once(caplog):
    tab = synthetic_table()
    with caplog.at_level(logging.WARNING, logger="rtopt.topderiv"):
        v = tab.evaluate(np.array([[5.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert v[0] == pytest.approx(2.0)                  # clamped to t_max
        tab.evaluate(np.array([[7.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert sum("clamped" in r.message for r in caplog.records) == 1


def test_knee_axis_bilinear_and_clamped():
    tab = synthetic_table(q=[1.0, 3.0])
    U = np.array([[1.5, 0.0]])
    P = np.array([[1.0, 0.0]])
    # data is t*q, exactly reproduced by pchip-in-t, linear-in-q
    assert tab.evaluate(U, P, knee=2.0)[0] == pytest.approx(3.0, rel=1e-12)
    assert tab.evaluate(U, P, knee=50.0)[0] == pytest.approx(4.5, rel=1e-12)
    with pytest.raises(UsageError):
        tab.evaluate(U, P)


def test_perp_term_is_signed():
    # adjoint aligned with the rotated flux isolates the f_perp column
    tab = synthetic_table(f_perp_slope=1.0)
    phi = 0.9
    t0 = 1.2
    U = t0 * np.array([[np.cos(phi), np.sin(phi)]])
    perp = np.array([[-np.sin(phi), np.cos(phi)]])
    assert tab.evaluate(U, perp)[0] == pytest.approx(t0, rel=1e-12)
    assert tab.evaluate(U, -perp)[0] == pytest.approx(-t0, rel=1e-12)
    # reflecting both vectors across the x axis flips the perp contribution
    mirror = tab.evaluate(U * [1, -1], perp * [1, -1])[0]
    assert mirror == pytest.approx(-t0, rel=1e-12)


def test_table_roundtrip(tmp_path, linear_tables):
    tab = linear_tables["air_to_iron"]
    path = tmp_path / "a2i.rtotd"
    save_table(tab, path)
    back = load_table(path)
    assert back.direction == tab.direction
    assert back.law_fingerprint == tab.law_fingerprint
    assert np.array_equal(back.t, tab.t)
    assert np.array_equal(back.f_par, tab.f_par)
    assert np.array_equal(back.f_perp, tab.f_perp)
    assert back.q is None
    assert back.meta["radius"] == tab.meta["radius"]

    knee_tab = synthetic_table(q=[1.0, 2.0, 3.0])
    save_table(knee_tab, tmp_path / "knee.rtotd")
    back = load_table(tmp_path / "knee.rtotd")
    assert np.array_equal(back.q, knee_tab.q)
    assert np.array_equal(back.f_par, knee_tab.f_par)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.rtotd"
    bad.write_text("RTOMESH1\n")
    with pytest.raises(FormatError):
        load_table(bad)
    bad.write_text("RTOTD1\nfingerprint abc\n")
    with pytest.raises(FormatError):
        load_table(bad)
    bad.write_text("RTOTD1\ndirection sideways\n")
    with pytest.raises(FormatError, match="unknown direction"):
        load_table(bad)


def test_load_rejects_truncated_and_nonfinite(tmp_path):
    path = tmp_path / "knee.rtotd"
    save_table(synthetic_table(q=[1.0, 2.0, 3.0]), path)
    lines = path.read_text().splitlines()
    load_table(path)
    for cut in range(1, len(lines)):
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(FormatError):
            load_table(path)
    # a short block row, then a nan in the first f_par row
    row = lines.index(next(l for l in lines if l.startswith("f_par"))) + 1
    for bad_row in (lines[row].rsplit(" ", 1)[0], "nan " + lines[row].split(" ", 1)[1]):
        path.write_text("\n".join(lines[:row] + [bad_row] + lines[row + 1:]) + "\n")
        with pytest.raises(FormatError):
            load_table(path)


def test_compatibility_refusals(linear_tables, linear_spec):
    tab = linear_tables["iron_to_air"]
    ang = Scenario(name="ANG", n_positions=1,
                   q_hat=np.array([np.deg2rad(-60.0)]))
    check_table_compatibility(tab, linear_spec, ang)
    with pytest.raises(UsageError):
        check_table_compatibility(tab, MaterialSpec(), ang)

    scal = Scenario(name="SCAL", n_positions=1, q_hat=np.array([2.2]))
    spec = MaterialSpec()
    no_knee = TDTable("iron_to_air", np.array([0.0, 1.0]), np.zeros(2),
                      np.zeros(2), spec.law_fingerprint("q-axis"))
    with pytest.raises(UsageError):
        check_table_compatibility(no_knee, spec, scal)


def test_generalized_field_signs():
    t = np.array([0.0, 1.0, 2.0])
    i2a = TDTable("iron_to_air", t, t.copy(), np.zeros(3), "x")
    a2i = TDTable("air_to_iron", t, 2.0 * t, np.zeros(3), "x")
    m = 4
    U = np.zeros((2, m, 2))
    P = np.zeros((2, m, 2))
    U[:, :, 0] = 1.0
    P[:, :, 0] = 1.0
    design = np.array([True, True, False, False])
    g = generalized_td_field(i2a, a2i, U, P, design)
    # iron rows take +f_i2a, air rows -f_a2i, summed over both positions
    assert np.allclose(g, [2.0, 2.0, -4.0, -4.0], rtol=1e-12)
