"""Sensitivity tables: sampling, interpolation, sign conventions, storage."""
from __future__ import annotations

import logging
import re

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from rtopt import topderiv
from rtopt.errors import FormatError, SolverError, UsageError
from rtopt.laws import K_F, NU0, NU_F
from rtopt.machine import MaterialSpec, Scenario
from rtopt.mesh import graded_disk_mesh
from rtopt.topderiv import (DIRECTIONS, ExteriorConfig, ExteriorProblem,
                            TDTable, check_table_compatibility,
                            generalized_td_field, laws_for_direction,
                            load_table, precompute_tables, sample_table,
                            save_table)
from closed_forms import truncated_corrector
from full_disk import mirrored_disk
from smoother_integrals import mass_matrix

I2A_SLOPE = 2.0 * NU_F * (NU0 - NU_F) / (NU0 + NU_F)
A2I_SLOPE = -2.0 * NU0 * (NU0 - NU_F) / (NU0 + NU_F)


def test_linear_law_slopes(linear_tables):
    for name, slope in (("iron_to_air", I2A_SLOPE), ("air_to_iron", A2I_SLOPE)):
        tab = linear_tables[name]
        # an ANG table: one column, sampled at the fixed knee
        assert np.array_equal(tab.q, [K_F])
        assert tab.f_par.shape == tab.f_perp.shape == (len(tab.t), 1)
        t = tab.t[1:]
        rel = np.abs(tab.f_par[1:, 0] / (slope * t) - 1.0)
        assert rel.max() <= 1e-2, (name, rel.max())
        assert np.abs(tab.f_perp).max() <= 1e-8 * np.abs(tab.f_par).max()
        assert tab.f_par[0, 0] == 0.0 and tab.f_perp[0, 0] == 0.0


def test_linear_response_proportional_to_flux(linear_tables):
    # same discretization at every t, so the ratios agree to roundoff
    tab = linear_tables["iron_to_air"]
    ratios = tab.f_par[1:, 0] / tab.t[1:]
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
    mass = mass_matrix(prob.space)
    err = k - ref
    rel = np.sqrt(err @ (mass @ err)) / np.sqrt(ref @ (mass @ ref))
    assert rel <= 2e-2, rel


def test_linear_tables_factor_once_per_direction(linear_spec, factor_calls):
    # one corrector solve at t = 1 per direction serves every t and knee
    for n_t, q_range in ((2, None), (5, None), (5, (1.8, 2.6))):
        cfg = ExteriorConfig(radius=64.0, target_nodes=1500, t_max=12.0,
                             n_t=n_t, n_q=3)
        prob = ExteriorProblem(cfg)
        del factor_calls[:]
        tables = precompute_tables(linear_spec, prob, q_range)
        assert len(factor_calls) == 2             # one tangent per direction
        assert len(prob.newton_log) == 2
        # an isolated Newton solve at each (t, knee) agrees to round-off
        for direction in DIRECTIONS:
            assert_isolated_solves_reproduce(prob, linear_spec,
                                             tables[direction], rtol=1e-10)

    # saturating iron solves every sample, each continued from a solved
    # neighbour: the entries of isolated cold solves up to the tolerance
    spec = MaterialSpec()
    for direction in DIRECTIONS:
        table = sample_table(spec, direction, prob)
        assert_isolated_solves_reproduce(prob, spec, table, rtol=1e-9)


def assert_isolated_solves_reproduce(prob, spec, table, rtol):
    """Every table entry again, each from its own corrector solve, within
    rtol * max|f_par|."""
    f_par, f_perp = table.f_par, table.f_perp
    tol = rtol * np.abs(f_par).max()
    for jq, knee in enumerate(table.q):
        law_in, law_out = laws_for_direction(table.direction, spec, knee)
        for it in range(1, len(table.t)):
            U = np.array([table.t[it], 0.0])
            k, _ = prob.solve_corrector(U, law_in, law_out)
            par, perp = prob.response_pair(k, U, law_in, law_out)
            assert abs(par - f_par[it, jq]) <= tol
            assert abs(perp - f_perp[it, jq]) <= tol


@pytest.mark.parametrize("radius,target_nodes", [
    (2.5, 60), (64.0, 1500), (1000.0, 200), (3.0, 20000), (128.0, 4000),
    (128.0, 8000), (128.0, 60000)])
def test_corrector_regions_are_leading_and_trailing_blocks(radius, target_nodes):
    # graded_disk_mesh numbers the elements ring by ring from the centre, so
    # the inclusion is elements 0 ... n_inc-1 and the exterior the rest; the
    # corrector's two slices rely on it
    prob = ExteriorProblem(ExteriorConfig(radius=radius,
                                          target_nodes=target_nodes))
    mesh = prob.mesh
    inc, ext = mesh.elements_in("inclusion"), mesh.elements_in("exterior")
    assert 0 < len(inc) < mesh.n_elements
    assert np.array_equal(inc, np.arange(len(inc)))
    assert np.array_equal(ext, np.arange(len(inc), mesh.n_elements))
    element = np.arange(mesh.n_elements)
    assert np.array_equal(element[prob.inclusion], inc)
    assert np.array_equal(element[prob.exterior], ext)


SWEEP = ExteriorConfig(radius=64.0, target_nodes=1500, t_max=5.0, n_t=4, n_q=3)


def test_saturating_tables_repeat_bitwise():
    spec = MaterialSpec()
    first, second = (precompute_tables(spec, ExteriorProblem(SWEEP),
                                       (1.8, 2.6)) for _ in range(2))
    for direction in DIRECTIONS:
        for name in ("f_par", "f_perp"):
            assert np.array_equal(getattr(first[direction], name),
                                  getattr(second[direction], name))


def test_knee_sweep_continues_from_solved_neighbours(monkeypatch):
    # each corrector starts from the same t at the previous knee, or from
    # the previous t at the first knee, and needs fewer Newton iterations
    # than cold solves of the same samples
    calls = []
    solve = ExteriorProblem.solve_corrector

    def spy(self, U, law_in, law_out, u0=None):
        k, info = solve(self, U, law_in, law_out, u0)
        calls.append((u0, k))
        return k, info

    monkeypatch.setattr(ExteriorProblem, "solve_corrector", spy)
    spec = MaterialSpec()
    prob = ExteriorProblem(SWEEP)
    table = sample_table(spec, "iron_to_air", prob, (1.8, 2.6))
    n = SWEEP.n_t - 1
    assert len(calls) == n * SWEEP.n_q
    assert calls[0][0] is None
    for c, (u0, _) in enumerate(calls[1:], start=1):
        assert u0 is calls[c - n if c >= n else c - 1][1]
    swept = prob.newton_log[:]
    assert [info.warm for info in swept] == [False] + [True] * (len(calls) - 1)

    del prob.newton_log[:]
    assert_isolated_solves_reproduce(prob, spec, table, rtol=1e-9)
    cold = prob.newton_log
    assert len(cold) == len(swept) and not any(info.warm for info in cold)
    assert (sum(info.iterations for info in swept)
            < sum(info.iterations for info in cold))


def test_kept_columns_reproduce_the_whole_factor_tables(monkeypatch,
                                                      factor_calls):
    # air_to_iron keeps the columns of its air exterior from its first
    # factorization; iron_to_air, whose saturating exterior touches unknown
    # 0, factors every tangent whole as before
    spec = MaterialSpec()
    kept = ExteriorProblem(SWEEP)
    tables = precompute_tables(spec, kept, (1.8, 2.6))
    whole = ExteriorProblem(SWEEP)
    monkeypatch.setattr(whole, "factors", lambda law_in, law_out: None)
    calls = len(factor_calls)
    reference = precompute_tables(spec, whole, (1.8, 2.6))
    assert len(factor_calls) - calls == sum(i.iterations for i in whole.newton_log)

    def counts(log):
        return [(i.iterations, i.rejected, i.evaluations) for i in log]

    assert counts(kept.newton_log) == counts(whole.newton_log)
    iron_to_air = sum(i.iterations for i in kept.newton_log[:len(
        kept.newton_log) // 2])
    assert calls == iron_to_air + 1     # and one whole air_to_iron tangent
    for name in ("f_par", "f_perp"):
        a, b = (getattr(t["iron_to_air"], name) for t in (tables, reference))
        assert np.array_equal(a, b)
        a, b = (getattr(t["air_to_iron"], name) for t in (tables, reference))
        tol = 1e-12 * np.abs(reference["air_to_iron"].f_par).max()
        assert np.abs(a - b).max() <= tol


class _TurningLaw:
    """A saturating law whose Jacobian on a block of rows turns negative
    from its second block evaluation on: Newton's second tangent is not
    positive definite."""

    is_linear = False

    def __init__(self, law):
        self.law, self.blocks = law, 0

    def response(self, b):
        h, dh = self.law.response(b)
        if len(b) > 1:
            self.blocks += 1
            if self.blocks > 1:
                dh = -dh
        return h, dh


def test_kept_columns_refuse_an_indefinite_tangent_at_the_same_step(
        monkeypatch):
    law_in, law_out = laws_for_direction("air_to_iron", MaterialSpec(), K_F)
    steps = []
    for keep in (True, False):
        prob = ExteriorProblem(SWEEP)
        if keep:
            assert prob.factors(law_in, law_out) is not None
        else:
            monkeypatch.setattr(prob, "factors", lambda law_in, law_out: None)
        with pytest.raises(SolverError, match="singular tangent system") as exc:
            prob.solve_corrector([3.0, 0.0], _TurningLaw(law_in), law_out)
        steps.append(exc.value.iterations)
    assert steps == [2, 2]


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_warm_corrector_tolerance_is_the_residual_at_zero(monkeypatch,
                                                          direction):
    # solve_corrector hands newton_solve the law jump on the inclusion as
    # respond's field at zero, so a warm start's tolerance is bitwise that
    # of a residual evaluated at zero; t = 5/3 at the knee K_F is a sample
    # where h(U) of a lone (2,) vector rounds otherwise than of the rows
    calls = []
    newton_solve = topderiv.newton_solve

    def spy(space, dofmap, respond, load, h0, **kwargs):
        k, info = newton_solve(space, dofmap, respond, load, h0, **kwargs)
        calls.append((respond, load, h0, kwargs["tol"], info))
        return k, info

    monkeypatch.setattr(topderiv, "newton_solve", spy)
    prob = ExteriorProblem(SWEEP)
    law_in, law_out = laws_for_direction(direction, MaterialSpec(), K_F)
    k, _ = prob.solve_corrector([1.0, 0.0], law_in, law_out)
    for t in (5.0 / 3.0, 2.5):
        k, _ = prob.solve_corrector([t, 0.0], law_in, law_out, u0=k)
    assert [info.warm for *_, info in calls] == [False, True, True]
    space, dofmap = prob.space, prob.dofmap
    for respond, load, h0, tol, info in calls:
        h = respond(np.zeros((prob.mesh.n_elements, 2)))[0]
        assert np.array_equal(h0, h)
        f0 = (dofmap.reduce_vector(space.flux_divergence(h))
              - dofmap.reduce_vector(load))
        assert info.tolerance == tol * max(float(np.linalg.norm(f0)), 1e-300)


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_response_pair_far_field_is_the_row_form(direction):
    # with k = 0 the quadratic remainder of every row is h(U) - h(U), so the
    # pair is exactly the row-form jump h_in(U) - h_out(U) when the far field
    # is evaluated as the rows are; at t = 5/3, K_F a lone (2,) vector rounds
    # otherwise and leaves its error on every iron row
    prob = ExteriorProblem(SWEEP)
    law_in, law_out = laws_for_direction(direction, MaterialSpec(), K_F)
    U = np.array([5.0 / 3.0, 0.0])
    jump = (law_in.h(U[None]) - law_out.h(U[None]))[0]
    pair = prob.response_pair(np.zeros(prob.mesh.n_nodes), U, law_in, law_out)
    assert pair == (float(jump[0]), float(jump[1]))


def test_law_fingerprints_pinned():
    # saved tables carry these digests and must keep loading; the digest
    # covers the law pair, and each table's knee axis says where it was
    # sampled
    assert MaterialSpec().law_fingerprint() == "fd6ac519b6445fee"
    assert MaterialSpec(iron_linear=True).law_fingerprint() == "7b82cd9a55360ced"


def response_magnitude(prob, k, U, law_in, law_out):
    """Sum of the magnitudes response_pair adds and subtracts, per unit
    inclusion area: |h(b)|, |h(U)| and |dh(U) Bk| of each element's
    remainder, |Bk (dh_in(U) - dh_out(U))| on the inclusion and the jump."""
    Bk = prob.space.element_curl(k)
    areas, inc = prob.space.areas, prob.inclusion
    (h_in, dh_in), (h_out, dh_out) = law_in.response(U), law_out.response(U)
    size = 0.0
    for elements, law, h_U, dh_U in ((inc, law_in, h_in, dh_in),
                                     (prob.exterior, law_out, h_out, dh_out)):
        b = Bk[elements]
        pieces = (np.abs(law.h(b + U)) + np.abs(h_U)
                  + np.abs(b @ dh_U.T))
        size += areas[elements] @ pieces
    size += areas[inc] @ np.abs(Bk[inc] @ (dh_in - dh_out).T)
    return size / prob.inclusion_area + np.abs(h_in - h_out)


def transverse_response(prob, k, U, law_in, law_out):
    """The y components of response_pair's sums: f_perp, which the half
    disk leaves at zero because its integrands are odd in y."""
    Bk = prob.space.element_curl(k)
    areas, inc = prob.space.areas, prob.inclusion
    (h_in, dh_in), (h_out, dh_out) = law_in.response(U), law_out.response(U)
    total = 0.0
    for elements, law, h_U, dh_U in ((inc, law_in, h_in, dh_in),
                                     (prob.exterior, law_out, h_out, dh_out)):
        b = Bk[elements]
        total += areas[elements] @ (law.h(b + U) - h_U - b @ dh_U.T)[:, 1]
    total += areas[inc] @ (Bk[inc] @ (dh_in - dh_out).T)[:, 1]
    return total / prob.inclusion_area + (h_in - h_out)[1]


def test_odd_reduction_matches_full_disk(monkeypatch):
    # U = t e_x makes the corrector odd in y, so the half disk gives the
    # full-disk solve, Newton path and f_par, and the full disk's f_perp
    # vanishes
    cfg = ExteriorConfig(radius=64.0, target_nodes=1500)
    prob = ExteriorProblem(cfg)
    half = graded_disk_mesh
    monkeypatch.setattr(topderiv, "graded_disk_mesh",
                        lambda *args: mirrored_disk(half(*args))[0])
    full = ExteriorProblem(cfg)
    n = prob.mesh.n_nodes
    assert np.array_equal(full.mesh.vertices[:n], prob.mesh.vertices)
    assert 2 * prob.dofmap.n_reduced <= full.dofmap.n_reduced
    spec = MaterialSpec()
    for direction in DIRECTIONS:
        law_in, law_out = laws_for_direction(direction, spec, K_F)
        for t in (0.5, 2.0, 5.0):
            U = np.array([t, 0.0])
            k, info = prob.solve_corrector(U, law_in, law_out)
            k_ref, info_ref = full.solve_corrector(U, law_in, law_out)
            assert info.iterations == info_ref.iterations
            assert np.abs(k - k_ref[:n]).max() <= 1e-10 * np.abs(k_ref).max()
            f_par, f_perp = prob.response_pair(k, U, law_in, law_out)
            ref_par, _ = full.response_pair(k_ref, U, law_in, law_out)
            # k and k_ref agree to round-off, so the pairs differ by the
            # rounding of response_pair itself: each remainder subtracts
            # pieces of size |h(b)|, |h(U)| and |dh(U) Bk|, and the sum over
            # the mesh cancels them down to f_par (202 from 2.4e6 at
            # iron_to_air, t = 0.5). Each rounding is at most eps times a
            # piece, so the gap is a few eps times their sum (measured:
            # under 0.2 eps).
            size = response_magnitude(full, k_ref, U, law_in, law_out)
            assert abs(f_par - ref_par) <= 2 * np.finfo(float).eps * size[0]
            # the transverse response is odd in y: zero on the half disk,
            # round-off on the full one
            assert f_perp == 0.0
            ref_perp = transverse_response(full, k_ref, U, law_in, law_out)
            assert abs(ref_perp) <= 1e-12 * abs(ref_par)
    assert len(prob.newton_log) == 6
    with pytest.raises(UsageError):
        prob.solve_corrector(np.array([1.0, 1.0]), law_in, law_out)


@pytest.mark.parametrize("target_nodes, kept", [(4000, 1146), (8000, 2339)])
def test_air_to_iron_keeps_its_exterior_columns(target_nodes, kept):
    # the reverse Cuthill-McKee order of the 4k and 8k half disks starts at
    # the outer arc, so air_to_iron keeps its air exterior's factor columns
    # and iron_to_air, whose saturating exterior touches unknown 0, none
    prob = ExteriorProblem(ExteriorConfig(radius=128.0,
                                          target_nodes=target_nodes))
    spec = MaterialSpec()
    factors = prob.factors(*laws_for_direction("air_to_iron", spec, K_F))
    assert factors.start == kept
    assert prob.factors(*laws_for_direction("iron_to_air", spec, K_F)) is None


def test_evaluate_rotation_invariant(linear_tables):
    tab = linear_tables["air_to_iron"]
    rng = np.random.default_rng(9)
    U = rng.uniform(-1, 1, (40, 2)) * 3.0
    P = rng.standard_normal((40, 2))
    base = tab.evaluate(U, P, K_F)
    for theta in (0.3, 2.0, -1.2):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        rot = tab.evaluate(U @ R.T, P @ R.T, K_F)
        assert np.allclose(rot, base, rtol=1e-10, atol=1e-10 * np.abs(base).max())


def test_evaluate_linear_in_adjoint(linear_tables):
    tab = linear_tables["iron_to_air"]
    rng = np.random.default_rng(4)
    U = rng.uniform(-1, 1, (25, 2)) * 2.0
    P1 = rng.standard_normal((25, 2))
    P2 = rng.standard_normal((25, 2))
    combo = tab.evaluate(U, 0.7 * P1 - 1.3 * P2, K_F)
    parts = 0.7 * tab.evaluate(U, P1, K_F) - 1.3 * tab.evaluate(U, P2, K_F)
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12 * np.abs(combo).max())


@pytest.mark.parametrize("knees", [None, np.array([1.8, 2.2, 2.6])])
def test_evaluate_matches_unit_vector_projection(knees):
    # evaluate projects with P . U / t and U x P / t; the projection on the
    # unit vectors e_U = U / t and e_U_perp agrees to round-off. None is the
    # one knee K_F, as for sample_table
    knees = np.array([K_F]) if knees is None else knees
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 3.0, 7)
    shape = (len(t), len(knees))
    tab = TDTable("iron_to_air", t, rng.standard_normal(shape),
                  rng.standard_normal(shape), "test", q=knees)
    U = rng.uniform(-2.0, 2.0, (200, 2))
    P = rng.standard_normal((200, 2))
    r = np.linalg.norm(U, axis=1)
    knee = rng.uniform(knees[0], knees[-1], 200)
    if len(knees) == 1:
        par, perp = (PchipInterpolator(t, f[:, 0])(r)
                     for f in (tab.f_par, tab.f_perp))
    else:
        j = np.clip(np.searchsorted(knees, knee), 1, len(knees) - 1)
        w = (knee - knees[j - 1]) / (knees[j] - knees[j - 1])
        rows = np.arange(200)
        par, perp = ((1 - w) * PchipInterpolator(t, f)(r)[rows, j - 1]
                     + w * PchipInterpolator(t, f)(r)[rows, j]
                     for f in (tab.f_par, tab.f_perp))
    e_par = U / r[:, None]
    e_perp = np.column_stack([-e_par[:, 1], e_par[:, 0]])
    along = par * np.einsum("md,md->m", P, e_par)
    across = perp * np.einsum("md,md->m", P, e_perp)
    got = tab.evaluate(U, P, knee)
    assert np.all(np.abs(got - (along + across))
                  <= 1e-14 * (np.abs(along) + np.abs(across)))


def test_evaluate_zero_flux_rows(linear_tables):
    tab = linear_tables["iron_to_air"]
    U = np.array([[0.0, 0.0], [1.0, 0.0]])
    P = np.ones((2, 2))
    out = tab.evaluate(U, P, K_F)
    assert out[0] == 0.0 and out[1] != 0.0


def synthetic_table(f_perp_slope=0.0, q=None):
    """f_par = t at the one knee K_F, or t * q over the knee axis q."""
    t = np.array([0.0, 1.0, 2.0])
    if q is None:
        return TDTable("iron_to_air", t, t[:, None], f_perp_slope * t[:, None],
                       "test", q=[K_F])
    q = np.asarray(q, dtype=float)
    f_par = np.outer(t, q)
    return TDTable("iron_to_air", t, f_par, np.zeros_like(f_par), "test", q=q)


def test_clamp_warns_once(caplog):
    tab = synthetic_table()
    with caplog.at_level(logging.WARNING, logger="rtopt.topderiv"):
        v = tab.evaluate(np.array([[5.0, 0.0]]), np.array([[1.0, 0.0]]), K_F)
        assert v[0] == pytest.approx(2.0)                  # clamped to t_max
        tab.evaluate(np.array([[7.0, 0.0]]), np.array([[1.0, 0.0]]), K_F)
    assert sum("clamped" in r.message for r in caplog.records) == 1


@pytest.mark.parametrize("field", ["t", "q", "f_par", "f_perp"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_table_refuses_non_finite_values(field, bad):
    # a table with an inf or NaN entry is refused where it is made, so no
    # file of one is ever written
    arrays = {"t": np.array([0.0, 1.0, 2.0]), "q": np.array([K_F]),
              "f_par": np.array([[0.0], [1.0], [2.0]]),
              "f_perp": np.zeros((3, 1))}
    arrays[field] = arrays[field].copy()
    arrays[field][-1, ...] = bad
    with pytest.raises(UsageError, match="non-finite table values"):
        TDTable("iron_to_air", arrays["t"], arrays["f_par"], arrays["f_perp"],
                "test", q=arrays["q"])


def test_table_refuses_an_interpolation_that_overflows(tmp_path):
    # finite samples over a subnormal t spacing: the PCHIP slopes overflow,
    # so the table is refused where it is made, without a RuntimeWarning
    t = np.linspace(0.0, 1e-320, 5)
    f = np.arange(5.0)[:, None]
    with pytest.raises(UsageError, match="non-finite table interpolation of "
                                         "the t samples to t_max 1e-320"):
        TDTable("iron_to_air", t, f, f, "test", q=[K_F])
    # and a file of such samples is a FormatError naming the file
    path = tmp_path / "tiny.rtotd"
    save_table(synthetic_table(), path)
    text = path.read_text()
    for old, new in zip(("1.0", "2.0"), ("5e-324", "1e-323")):
        text = text.replace(f"\n{old}\n", f"\n{new}\n", 1)
    path.write_text(text)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: non-finite "
                                          "table interpolation"):
        load_table(path)


def test_clamp_below_first_sample_counted(caplog):
    t = np.array([1.0, 2.0, 3.0])
    tab = TDTable("iron_to_air", t, t[:, None], np.zeros((3, 1)), "test", q=[K_F])
    U = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 0.25]])
    with caplog.at_level(logging.WARNING, logger="rtopt.topderiv"):
        v = tab.evaluate(U, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), K_F)
    assert v == pytest.approx([1.0, 2.0, 1.0])          # clamped to t[0]
    assert tab.clamped_rows == 2
    assert sum("clamped" in r.message for r in caplog.records) == 1


def scipy_lookup(tab, tq, knee):
    """(par, perp) at flux magnitudes tq by scipy's PCHIP over the stacked
    columns, blended linearly between the bracketing knee samples."""
    vals = PchipInterpolator(tab.t, np.column_stack([tab.f_par, tab.f_perp]))(
        np.clip(tq, tab.t[0], tab.t[-1]))
    n_c = vals.shape[1] // 2
    if n_c == 1:
        return vals.T
    qq = np.clip(knee, tab.q[0], tab.q[-1])
    j = np.clip(np.searchsorted(tab.q, qq), 1, n_c - 1)
    w = (qq - tab.q[j - 1]) / (tab.q[j] - tab.q[j - 1])
    row = np.arange(len(tq))
    return [(1 - w) * vals[row, c + j - 1] + w * vals[row, c + j] for c in (0, n_c)]


def assert_lookup_matches_scipy(tab, tq, knee):
    # flux along e_x: an adjoint along e_x reads f_par, one along e_y f_perp
    U = np.column_stack([tq, np.zeros_like(tq)])
    par, perp = scipy_lookup(tab, tq, knee)
    for P, ref in (([1.0, 0.0], par), ([0.0, 1.0], perp)):
        assert np.array_equal(tab.evaluate(U, np.tile(P, (len(tq), 1)), knee), ref)


def knots_and_neighbours(x, rng, n=200):
    """x, the floats next to it on both sides, and random points beyond both
    ends; magnitudes whose square underflows read as zero flux and go."""
    lo, hi = x[0], x[-1]
    tq = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                         rng.uniform(lo - 0.1 * (hi - lo), hi * 1.1, n)])
    return tq[tq > 1e-100]


@pytest.mark.parametrize("n_t", [2, 3, 9, 50])
def test_lookup_bitwise_equal_to_scipy(n_t):
    rng = np.random.default_rng(n_t)
    for even, q in ((True, [K_F]), (False, [K_F]), (True, [1.0, 1.6, 3.0]),
                    (False, [1.0, 1.6, 3.0])):
        q = np.array(q)
        t = (np.linspace(0.0, 5.0, n_t) if even
             else 0.3 + np.cumsum(rng.uniform(0.05, 1.0, n_t)))
        shape = (n_t, len(q))
        # sign-changing secants, and zero secants on flat runs
        f_par, f_perp = rng.standard_normal(shape), rng.standard_normal(shape)
        f_par[n_t // 2:] = f_par[n_t // 2]
        f_perp[rng.random(shape) < 0.3] = 0.0
        tab = TDTable("iron_to_air", t, f_par, f_perp, "x", q=q)
        tq = knots_and_neighbours(t, rng)
        # knees on, next to and off the axis: a one-knee table clamps them
        knee = rng.choice(
            np.concatenate([q, np.nextafter(q, 0.0), rng.uniform(0.5, 3.5, 5)]),
            len(tq))
        assert_lookup_matches_scipy(tab, tq, knee)


def test_linear_tables_lookup_bitwise_equal_to_scipy(linear_tables):
    rng = np.random.default_rng(3)
    for tab in linear_tables.values():
        assert_lookup_matches_scipy(tab, knots_and_neighbours(tab.t, rng), K_F)


def test_knee_axis_bilinear_and_clamped():
    tab = synthetic_table(q=[1.0, 3.0])
    U = np.array([[1.5, 0.0]])
    P = np.array([[1.0, 0.0]])
    # data is t*q, exactly reproduced by pchip-in-t, linear-in-q
    assert tab.evaluate(U, P, knee=2.0)[0] == pytest.approx(3.0, rel=1e-12)
    assert tab.evaluate(U, P, knee=50.0)[0] == pytest.approx(4.5, rel=1e-12)
    with pytest.raises(TypeError):      # the knee is not optional
        tab.evaluate(U, P)
    # a one-knee table reads the knee only to clamp it, and counts the clamp
    one = synthetic_table()
    assert one.evaluate(U, P, knee=K_F)[0] == pytest.approx(1.5, rel=1e-12)
    assert one.clamped_rows == 0
    assert one.evaluate(U, P, knee=3.0)[0] == one.evaluate(U, P, knee=K_F)[0]
    assert one.clamped_rows == 1


@pytest.mark.parametrize("q", [[K_F], [1.0, 3.0]])
@pytest.mark.parametrize("knee", [np.nan, np.inf, None, [2.0, np.nan]])
def test_non_finite_knee_refused(q, knee):
    # rather than NaN sensitivities with no clamp counted
    tab = synthetic_table(q=q)
    U = np.array([[1.5, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="knee must be finite"):
        tab.evaluate(U, np.ones((2, 2)), knee)
    assert tab.clamped_rows == 0


def test_perp_term_is_signed():
    # adjoint aligned with the rotated flux isolates the f_perp column
    tab = synthetic_table(f_perp_slope=1.0)
    phi = 0.9
    t0 = 1.2
    U = t0 * np.array([[np.cos(phi), np.sin(phi)]])
    perp = np.array([[-np.sin(phi), np.cos(phi)]])
    assert tab.evaluate(U, perp, K_F)[0] == pytest.approx(t0, rel=1e-12)
    assert tab.evaluate(U, -perp, K_F)[0] == pytest.approx(-t0, rel=1e-12)
    # reflecting both vectors across the x axis flips the perp contribution
    mirror = tab.evaluate(U * [1, -1], perp * [1, -1], K_F)[0]
    assert mirror == pytest.approx(-t0, rel=1e-12)


def test_table_roundtrip(tmp_path, linear_tables):
    # a one-knee (ANG) table round-trips bitwise, its knee included
    tab = linear_tables["air_to_iron"]
    path = tmp_path / "a2i.rtotd"
    save_table(tab, path)
    assert path.read_text().startswith("RTOTD2\n")
    back = load_table(path)
    assert back.direction == tab.direction
    assert back.law_fingerprint == tab.law_fingerprint
    for name in ("t", "q", "f_par", "f_perp"):
        assert np.array_equal(getattr(back, name), getattr(tab, name)), name
    assert np.array_equal(back.q, [K_F])
    assert back.meta["radius"] == tab.meta["radius"]

    # a single knee sample keeps its one-column blocks 2-D
    for q in ([1.0, 2.0, 3.0], [2.2]):
        knee_tab = synthetic_table(q=q)
        save_table(knee_tab, tmp_path / "knee.rtotd")
        back = load_table(tmp_path / "knee.rtotd")
        assert np.array_equal(back.q, knee_tab.q)
        assert np.array_equal(back.f_par, knee_tab.f_par)


def test_load_rejects_malformed(tmp_path, knee_axis_faults, t_axis_faults):
    bad = tmp_path / "bad.rtotd"
    bad.write_text("RTOMESH1\n")
    with pytest.raises(FormatError):
        load_table(bad)
    bad.write_text("RTOTD2\nfingerprint abc\n")
    with pytest.raises(FormatError):
        load_table(bad)
    bad.write_text("RTOTD2\ndirection sideways\n")
    with pytest.raises(FormatError, match="unknown direction"):
        load_table(bad)
    # a block column per knee sample, strictly increasing knee and t axes
    # of at least one knee and two t samples, and no negative counts
    save_table(synthetic_table(), bad)
    good = bad.read_text()
    malformed = f"{re.escape(str(bad))}: truncated or malformed RTOTD2 file"
    for fault in [*knee_axis_faults(good).values(), *t_axis_faults(good).values()]:
        bad.write_text(fault)
        with pytest.raises(FormatError, match=malformed):
            load_table(bad)
    # the first table format had no knee axis for ANG (`q 0`); its files
    # are refused by their tag
    bad.write_text(good.replace("RTOTD2", "RTOTD1", 1))
    with pytest.raises(FormatError, match=f"{re.escape(str(bad))}: expected a RTOTD2"):
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
    # a line after the last block row was ignored
    path.write_text("\n".join(lines + ["1.0"]) + "\n")
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: lines after"):
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

    # a knee scenario needs more than one knee; ANG reads any knee axis of
    # its laws (cli._load_tables checks that the axis spans K_F)
    spec = MaterialSpec()
    t = np.array([0.0, 1.0])
    one_knee = TDTable("iron_to_air", t, np.zeros((2, 1)), np.zeros((2, 1)),
                       spec.law_fingerprint(), q=[K_F])
    knee_axis = TDTable("iron_to_air", t, np.zeros((2, 2)), np.zeros((2, 2)),
                        spec.law_fingerprint(), q=[2.0, 2.4])
    for name, q_hat in (("SCAL", [K_F]), ("DIST", np.full(9, K_F))):
        knees = Scenario(name=name, n_positions=1, q_hat=np.array(q_hat))
        with pytest.raises(UsageError, match="one knee sample"):
            check_table_compatibility(one_knee, spec, knees)
        check_table_compatibility(knee_axis, spec, knees)
    check_table_compatibility(one_knee, spec, ang)
    check_table_compatibility(knee_axis, spec, ang)


def test_generalized_field_signs():
    t = np.array([0.0, 1.0, 2.0])
    i2a = TDTable("iron_to_air", t, t[:, None], np.zeros((3, 1)), "x", q=[K_F])
    a2i = TDTable("air_to_iron", t, 2.0 * t[:, None], np.zeros((3, 1)), "x", q=[K_F])
    m = 4
    U = np.zeros((2, m, 2))
    P = np.zeros((2, m, 2))
    U[:, :, 0] = 1.0
    P[:, :, 0] = 1.0
    design = np.array([True, True, False, False])
    knees = np.ones(m)          # a one-knee table only clamps them
    g = generalized_td_field(i2a, a2i, U, P, design, knees, knees)
    # iron rows take +f_i2a, air rows -f_a2i, summed over both positions
    assert np.allclose(g, [2.0, 2.0, -4.0, -4.0], rtol=1e-12)

    # knee-axis tables: one lookup per direction over all positions equals
    # one lookup per position, bitwise
    rng = np.random.default_rng(11)
    q = np.array([1.0, 1.5, 2.5, 3.0])
    t = np.linspace(0.0, 4.0, 9)
    i2a, a2i = (TDTable(d, t, rng.standard_normal((9, 4)),
                        rng.standard_normal((9, 4)), "x", q=q)
                for d in DIRECTIONS)
    n_pos, m = 3, 40
    U = rng.uniform(-3.0, 3.0, (n_pos, m, 2))
    U[1, 5] = 0.0
    P = rng.standard_normal((n_pos, m, 2))
    design = rng.random(m) > 0.4
    knee_iron = rng.uniform(0.8, 3.2, m)        # some rows clamp
    knee_air = rng.uniform(1.0, 3.0, m)
    g = generalized_td_field(i2a, a2i, U, P, design, knee_iron, knee_air)
    ref = np.zeros(m)
    for table, mask, knee, sign in ((i2a, design, knee_iron, 1.0),
                                    (a2i, ~design, knee_air, -1.0)):
        for n in range(n_pos):
            ref[mask] += sign * table.evaluate(U[n][mask], P[n][mask],
                                               knee[mask])
    assert np.array_equal(g, ref)
    assert i2a.clamped_rows > 0
