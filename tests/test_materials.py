"""Constitutive law values and derivatives."""
from __future__ import annotations

import numpy as np
import pytest

from rtopt import laws
from rtopt.laws import air_law, iron_law
from rtopt.machine import MAGNET_PHI

rng = np.random.default_rng(42)


def test_knee_factor_endpoints():
    k, n = 2.2, 12
    assert laws.iron_knee_factor(k, 0.0, n) == pytest.approx(1.0)
    assert laws.iron_knee_factor(k, k, n) == pytest.approx(2.0 ** (-1.0 / n))
    s = np.linspace(0.0, 10.0, 200)
    g = laws.iron_knee_factor(k, s, n)
    assert np.all(np.diff(g) <= 0)


def test_knee_factor_overflow_safe():
    # s**n overflows float64 for s ~ 1e30, the pulled-out max must not
    g = laws.iron_knee_factor(2.2, 1e30, 12)
    assert np.isfinite(g) and g == pytest.approx(2.2e-30, rel=1e-10)
    d = laws.iron_knee_factor_ds_over_s(2.2, 1e30, 12)
    assert np.isfinite(d)


def test_air_law_linear():
    law = air_law()
    b = rng.standard_normal((7, 2))
    assert np.allclose(law.h(b), laws.NU0 * b)
    assert np.allclose(law.dh_db(b), laws.NU0 * np.eye(2))


def test_iron_limits():
    law = iron_law()
    assert np.allclose(law.h(np.zeros(2)), 0.0)
    # reluctivity climbs from nu_f at the origin toward nu0 in saturation
    small = law.h(np.array([1e-6, 0.0]))[0] / 1e-6
    big = law.h(np.array([50.0, 0.0]))[0] / 50.0
    assert small == pytest.approx(laws.NU_F, rel=1e-6)
    assert laws.NU_F < big < laws.NU0
    assert big > 0.9 * laws.NU0


def test_iron_linear_flag():
    law = iron_law(linear=True)
    b = rng.standard_normal((4, 2))
    assert np.allclose(law.h(b), laws.NU_F * b)
    assert np.allclose(law.dh_db(b), laws.NU_F * np.eye(2))


def test_magnet_remanence_annihilates(toy_problem):
    # the magnets are linear in the machine's response: h = nu_m (b - b_r e_phi)
    design = np.ones(len(toy_problem.design_elements), dtype=bool)
    respond = toy_problem.respond_factory(design, toy_problem.scenario.q_hat,
                                          0.0)
    B = np.zeros((toy_problem.mesh.n_elements, 2))
    magnets = []
    for name, phi in zip(("magnet1", "magnet2"), MAGNET_PHI):
        elems = toy_problem.mesh.elements_in(name)
        B[elems] = laws.B_R * np.array([np.cos(phi), np.sin(phi)])
        magnets.append(elems)
    h, dh = respond(B)
    magnets = np.concatenate(magnets)
    assert np.allclose(h[magnets], 0.0, atol=1e-9)
    assert np.allclose(dh[magnets], laws.NU_M * np.eye(2))


def test_dh_db_matches_fd():
    law = iron_law()
    b = rng.standard_normal((20, 2)) * 2.0
    jac = law.dh_db(b)
    eps = 1e-6
    for d in range(2):
        step = np.zeros(2)
        step[d] = eps
        fd = (law.h(b + step) - law.h(b - step)) / (2 * eps)
        assert np.allclose(jac[..., :, d], fd, rtol=1e-5, atol=1e-3)


def test_iron_response_is_the_knee_factors_bitwise():
    # h = nu b and dh = nu I + (nu_f - nu0) g'(s)/s b b^T, from the two knee
    # factor functions, at zero, moderate and overflowing flux, per-row knees
    b = np.concatenate([np.zeros((1, 2)), rng.standard_normal((200, 2)) * 3.0,
                        [[1e30, -2e30]]])
    s = np.linalg.norm(b, axis=-1)
    c = laws.NU_F - laws.NU0
    for knee in (None, rng.uniform(1.8, 2.6, len(b))):
        k = laws.K_F if knee is None else knee
        nu = laws.NU0 + c * laws.iron_knee_factor(k, s, laws.N_F)
        gos = laws.iron_knee_factor_ds_over_s(k, s, laws.N_F)
        h, dh = iron_law().response(b, knee)
        assert np.array_equal(h, nu[:, None] * b)
        assert np.array_equal(dh, nu[:, None, None] * np.eye(2) + (c * gos)[
            :, None, None] * (b[:, :, None] * b[:, None, :]))


def test_dh_db_symmetric_positive():
    law = iron_law()
    b = rng.standard_normal((30, 2)) * 3.0
    jac = law.dh_db(b)
    assert np.allclose(jac, np.swapaxes(jac, -1, -2), atol=1e-6)
    eig = np.linalg.eigvalsh(jac)
    assert np.all(eig > 0)


def test_dh_dq_matches_fd():
    # dh/dk of the iron law through the kernel the knee gradient uses
    k, eps = 2.2, 1e-6
    b = rng.standard_normal((15, 2)) * 2.0
    s = np.linalg.norm(b, axis=-1)
    grad = ((laws.NU_F - laws.NU0)
            * laws.iron_knee_factor_dk(k, s, laws.N_F))[:, None] * b
    fd = (iron_law(k_f=k + eps).h(b) - iron_law(k_f=k - eps).h(b)) / (2 * eps)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-4)


def test_bound_knee_reads_q(toy_mesh):
    # DIST binds one knee per rotor block plus one for the stator
    from rtopt.machine import MachineProblem, MaterialSpec, Scenario

    scen = Scenario(name="DIST", n_positions=1, q_hat=np.full(9, laws.K_F))
    problem = MachineProblem(toy_mesh, MaterialSpec(), scen)
    q = 2.0 + 0.01 * np.arange(9)
    assert np.array_equal(problem.knee_for_elements(q),
                          q[problem.design_block])
    assert np.all(problem.knee_for_elements(scen.q_hat) == laws.K_F)


# -- the entry-by-entry kernels against the broadcast and gather/scatter
#    forms they replaced, bitwise and with the sign of every zero

def broadcast_response(law, b, knee=None):
    """MaterialLaw.response as it was: dh = nu I + c g'(s)/s b b^T built by
    broadcasting, |b| by np.linalg.norm."""
    b = np.asarray(b, dtype=float)
    eye = np.eye(2)
    if law.kind == "air" or law.linear:
        nu = laws.NU0 if law.kind == "air" else law.nu_f
        return nu * b, np.broadcast_to(nu * eye, b.shape + (2,)).copy()
    k = law.k_f if knee is None else knee
    s = np.linalg.norm(b, axis=-1)
    c = law.nu_f - laws.NU0
    w = laws._pnorm(k, s, law.n_f)
    g = k / w
    nu = laws.NU0 + c * g
    gos = -g * (s / w) ** (law.n_f - 2) / w**2
    dh = (nu[..., None, None] * eye
          + (c * gos)[..., None, None] * (b[..., :, None] * b[..., None, :]))
    return nu[..., None] * b, dh


def gather_scatter_respond(problem, design, q, alpha):
    """MachineProblem.respond_factory as it was: every region's rows
    gathered from B and scattered into fresh h and dh on every call."""
    mesh = problem.mesh
    d = problem.design_elements
    iron = np.concatenate([mesh.elements_in("stator_iron"), d[design]])
    always_air = np.flatnonzero(np.isin(mesh.region_id, [
        mesh.region_index(n)
        for n in ("shaft", "air_gap", "coil_A", "coil_B", "coil_C")]))
    air = np.concatenate([always_air, d[~design]])
    magnets = np.concatenate([mesh.elements_in("magnet1"),
                              mesh.elements_in("magnet2")])
    kf = problem._knee_values(q)[iron]
    rem = problem._remanence(alpha)[magnets]
    iron_law = problem.spec.iron_law()
    eye = np.eye(2)

    def respond(B):
        h = np.empty_like(B)
        dh = np.empty(B.shape + (2,))
        h[air] = laws.NU0 * B[air]
        dh[air] = laws.NU0 * eye
        h[magnets] = laws.NU_M * (B[magnets] - rem)
        dh[magnets] = laws.NU_M * eye
        h[iron], dh[iron] = broadcast_response(iron_law, B[iron], kf)
        return h, dh

    return respond


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


EDGE_ROWS = np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 2.0], [0.0, 0.0],
                      [-0.0, -0.0], [2.0, -0.0], [1e30, -2e30]])


@pytest.mark.parametrize("law", [iron_law(), iron_law(k_f=1.9, n_f=9),
                                 iron_law(linear=True), air_law()],
                         ids=["saturating", "saturating_k1.9_n9", "linear",
                              "air"])
def test_response_equals_the_broadcast_form_bitwise(law):
    b = np.concatenate([EDGE_ROWS, rng.standard_normal((300, 2)) * 3.0])
    knees = [None]
    if law.kind == "iron" and not law.linear:
        knees.append(rng.uniform(1.8, 2.6, len(b)))
    for knee in knees:
        for got, want in zip(law.response(b, knee),
                             broadcast_response(law, b, knee)):
            assert_bitwise(got, want)
    for row in b[:8]:           # one row of shape (2,), as the corrector's U
        for got, want in zip(law.response(row), broadcast_response(law, row)):
            assert_bitwise(got, want)
        assert_bitwise(law.h(row), law.response(row)[0])
    assert_bitwise(law.h(b), law.response(b)[0])


@pytest.mark.parametrize("linear", [False, True])
def test_respond_equals_the_gather_scatter_form_bitwise(toy_mesh, linear):
    # a random design, per-element knees from a DIST q, co-rotating magnets
    # at a rotor angle off zero; B holds the edge rows in every region
    from rtopt.machine import MachineProblem, MaterialSpec, Scenario

    scen = Scenario(name="DIST", n_positions=3, q_hat=np.full(9, laws.K_F),
                    co_rotate_magnets=True)
    problem = MachineProblem(toy_mesh, MaterialSpec(iron_linear=linear), scen)
    design = rng.random(len(problem.design_elements)) < 0.5
    q = rng.uniform(1.8, 2.6, 9)
    alpha = problem.alphas()[1]
    m = toy_mesh.n_elements
    B = rng.standard_normal((m, 2)) * 2.0
    B[rng.permutation(m)[:len(EDGE_ROWS) * 40]] = np.tile(EDGE_ROWS, (40, 1))
    magnets = toy_mesh.elements_in("magnet1")
    assert len(magnets) > 0 and design.any() and not design.all()
    # a magnet row at its remanence gives h = 0 there
    B[magnets[0]] = problem._remanence(alpha)[magnets[0]]
    respond = problem.respond_factory(design, q, alpha)
    want = gather_scatter_respond(problem, design, q, alpha)(B)
    for _ in range(2):          # the fixed linear rows survive a call
        for got, ref in zip(respond(B), want):
            assert_bitwise(got, ref)
    assert np.array_equal(want[0][magnets[0]], [0.0, 0.0])
