"""P1 solver kernels: manufactured solution, tangent, adjoint, smoother."""
from __future__ import annotations

import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.special import hyp2f1

from rtopt import fem
from rtopt.config import load_config
from rtopt.errors import SolverError
from rtopt.fem import (BandCholesky, DofMap, KeptColumnsCholesky, P1Space,
                       ScreenedSmoother, adjoint_solve, factor_tangent,
                       newton_solve, reverse_cuthill_mckee, tangent_at)
from rtopt.laws import NU0, air_law, iron_law
from rtopt.machine import (NEWTON_MAX_ITER, MachineProblem, MaterialSpec,
                           Scenario)
from rtopt.mesh import build_machine_mesh, graded_disk_mesh, refine_disc_patch
from rtopt.topderiv import ExteriorConfig, ExteriorProblem, laws_for_direction
from smoother_integrals import (elementwise_integral, mass_matrix,
                                nodal_integral)
from square_mesh import unit_square_mesh

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def linear_respond(curls):
    # unit reluctivity, so the state equation reduces to -lap(u) = j
    m = len(curls)
    dh = np.zeros((m, 2, 2))
    dh[:, 0, 0] = dh[:, 1, 1] = 1.0
    return curls.copy(), dh


def zero_flux(respond, space):
    """respond's h at zero flux, the field newton_solve forms F(0) from."""
    return respond(np.zeros((space.mesh.n_elements, 2)))[0]


def solve_poisson(n):
    mesh = unit_square_mesh(n)
    space = P1Space(mesh)
    dofmap = DofMap(mesh)
    cen = mesh.centroids()
    j = 2.0 * np.pi**2 * np.sin(np.pi * cen[:, 0]) * np.sin(np.pi * cen[:, 1])
    u, info = newton_solve(space, dofmap, linear_respond, space.load_vector(j),
                           zero_flux(linear_respond, space), tol=1e-12)
    return mesh, space, u, info


def l2_error(mesh, u, exact):
    # edge-midpoint rule, exact for quadratics, against the true solution
    tri = mesh.triangles
    areas = P1Space(mesh).areas
    err2 = np.zeros(len(tri))
    for i, k in ((0, 1), (1, 2), (2, 0)):
        mid = 0.5 * (mesh.vertices[tri[:, i]] + mesh.vertices[tri[:, k]])
        e = 0.5 * (u[tri[:, i]] + u[tri[:, k]]) - exact(mid)
        err2 += e**2
    return float(np.sqrt(np.sum(areas / 3.0 * err2)))


def test_manufactured_solution_second_order():
    exact = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    errs = []
    for n in (8, 16, 32):
        mesh, _, u, info = solve_poisson(n)
        assert info.iterations <= 1
        errs.append(l2_error(mesh, u, exact))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 3.3) and np.all(ratios < 4.5), ratios


def nonlinear_setup(scale=1e5):
    mesh = unit_square_mesh(8)
    space = P1Space(mesh)
    dofmap = DofMap(mesh)
    law = iron_law()

    def respond(curls):
        return law.h(curls), law.dh_db(curls)

    j = np.full(mesh.n_elements, scale)
    return mesh, space, dofmap, respond, space.load_vector(j)


def iron_energy_density(law, s):
    """w(s) = int_0^s h(t) dt of the saturating iron law, in closed form."""
    nu0, nu_f, k, n = NU0, law.nu_f, law.k_f, law.n_f
    z = s / k
    return (0.5 * nu0 * s**2 + (nu_f - nu0) * k**2 * 0.5 * z**2
            * hyp2f1(1.0 / n, 2.0 / n, 1.0 + 2.0 / n, -z**n))


def test_newton_monotone_energy():
    # the residual is the gradient of E(u) = sum_T |T| w(|B_T|) - load . u;
    # every accepted iterate lowers E, whatever its residual norm does
    law = iron_law()
    for s in (0.3, 1.0, 2.2, 3.0, 7.0, 20.0):       # iterates reach ~7 T
        ref, _ = quad(lambda t: law.h(np.array([t, 0.0]))[0], 0.0, s,
                      points=[law.k_f] if s > law.k_f else None, limit=200)
        assert iron_energy_density(law, s) == pytest.approx(ref, rel=1e-10)

    for scale in (1e4, 1e5, 1e6, 1e7):
        _, space, dofmap, respond, load = nonlinear_setup(scale)

        def energy(u):
            s = np.linalg.norm(space.element_curl(u), axis=1)
            return float(space.areas @ iron_energy_density(law, s) - load @ u)

        u, info = newton_solve(space, dofmap, respond, load,
                               zero_flux(respond, space), tol=1e-10)
        assert info.iterations >= 2
        assert info.residuals[-1] <= info.tolerance
        assert len(info.steps) == info.iterations
        # each rejected trial halves the step
        assert info.rejected == sum(-np.log2(a) for a in info.steps)

        # replay the accepted steps to recover the iterates
        load_red = dofmap.reduce_vector(load)
        iterate = np.zeros(space.n_nodes)
        energies = [energy(iterate)]
        for alpha in info.steps:
            h, dh = respond(space.element_curl(iterate))
            f = dofmap.reduce_vector(space.flux_divergence(h)) - load_red
            step = -factor_tangent(space, dofmap, dh).solve(f)
            iterate = dofmap.expand(dofmap.restrict(iterate) + alpha * step)
            energies.append(energy(iterate))
        assert np.array_equal(iterate, u)
        assert np.all(np.diff(energies) <= 1e-12 * abs(energies[-1])), scale


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["air", "iron"]),
       nu_f=st.floats(10.0, NU0),
       log_scale=st.floats(0.0, 7.0),
       start=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_linear_law_takes_one_full_newton_step(kind, nu_f, log_scale, start,
                                               seed):
    # a linear law has a quadratic energy, whose trapezoid estimate is exact
    mesh = unit_square_mesh(6)
    space, dofmap = P1Space(mesh), DofMap(mesh)
    nu = NU0 if kind == "air" else nu_f
    law = air_law() if kind == "air" else iron_law(nu_f=nu_f, linear=True)

    def respond(curls):
        return law.h(curls), law.dh_db(curls)

    scale = 10.0**log_scale
    load = space.load_vector(np.full(mesh.n_elements, scale))
    # a start of up to ten times the size of the solution, |u| ~ scale / nu
    rng = np.random.default_rng(seed)
    u0 = start * scale / nu * rng.standard_normal(space.n_nodes)
    u, info = newton_solve(space, dofmap, respond, load,
                           zero_flux(respond, space), u0=u0, tol=1e-8)
    assert info.iterations == 1
    assert info.steps == [1.0]
    assert info.rejected == 0
    assert info.residuals[-1] <= info.tolerance


def test_newton_tolerance_is_relative_to_zero_start():
    _, space, dofmap, respond, load = nonlinear_setup()
    h0 = zero_flux(respond, space)
    u, info = newton_solve(space, dofmap, respond, load, h0, tol=1e-10)
    assert info.tolerance == pytest.approx(1e-10 * np.linalg.norm(
        dofmap.reduce_vector(load)), rel=1e-12)      # F(0) = -C^T load here
    # started at its own solution, a solve has nothing left to do
    u2, info2 = newton_solve(space, dofmap, respond, load, h0, u0=u,
                             tol=1e-10)
    assert info2.iterations == 0
    assert info2.tolerance == info.tolerance
    assert np.array_equal(u2, u)
    # from a nearby start it meets the same absolute tolerance
    u3, info3 = newton_solve(space, dofmap, respond, load, h0, u0=1.1 * u,
                             tol=1e-10)
    assert info3.tolerance == info.tolerance
    assert info3.residuals[-1] <= info.tolerance


def test_singular_tangent_raises_with_diagonal_pivots():
    _, space, dofmap, respond, load = nonlinear_setup()

    def no_stiffness(curls):
        h, dh = respond(curls)
        return h, np.zeros_like(dh)

    with pytest.raises(SolverError, match="singular tangent system at "
                                          "Newton step 1"):
        newton_solve(space, dofmap, no_stiffness, load,
                     zero_flux(no_stiffness, space))


def test_newton_iteration_cap_raises():
    _, space, dofmap, respond, load = nonlinear_setup()
    with pytest.raises(SolverError) as err:
        newton_solve(space, dofmap, respond, load, zero_flux(respond, space),
                     tol=1e-12, max_iter=1)
    assert err.value.iterations == 1
    assert err.value.residual > 0


def test_tangent_matches_residual_derivative():
    _, space, dofmap, respond, load = nonlinear_setup()
    u, _ = newton_solve(space, dofmap, respond, load,
                        zero_flux(respond, space), tol=1e-10)
    k_red = tangent_at(space, dofmap, respond, u)
    asym = abs(k_red - k_red.T).max()
    assert asym <= 1e-12 * abs(k_red).max()

    load_red = dofmap.reduce_vector(load)

    def residual(u_red):
        h, _ = respond(space.element_curl(dofmap.expand(u_red)))
        return dofmap.reduce_vector(space.flux_divergence(h)) - load_red

    rng = np.random.default_rng(3)
    u_red = dofmap.restrict(u)
    d = rng.standard_normal(dofmap.n_reduced)
    d /= np.linalg.norm(d)
    step = 1e-6 * max(np.linalg.norm(u_red), 1.0)
    fd = (residual(u_red + step * d) - residual(u_red - step * d)) / (2 * step)
    ref = k_red @ d
    assert np.linalg.norm(fd - ref) <= 1e-6 * np.linalg.norm(ref)


def test_adjoint_gradient_matches_fd():
    # G(u) = w.u, source scaled by s: dG/ds = p . load with K^T p = w
    _, space, dofmap, respond, load = nonlinear_setup()
    rng = np.random.default_rng(11)
    w = rng.standard_normal(space.n_nodes)

    def g_of(s):
        u, _ = newton_solve(space, dofmap, respond, s * load,
                            zero_flux(respond, space), tol=1e-12)
        return float(w @ u), u

    g0, u0 = g_of(1.0)
    p = adjoint_solve(space, dofmap, respond, u0, w)
    grad = float(p @ load)
    eps = 1e-6
    fd = (g_of(1.0 + eps)[0] - g_of(1.0 - eps)[0]) / (2 * eps)
    assert grad == pytest.approx(fd, rel=1e-6)


def test_machine_constraints_enforced(toy_problem):
    mesh = toy_problem.mesh
    value, states = toy_problem.objective(
        np.ones(len(toy_problem.design_elements), dtype=bool),
        toy_problem.scenario.q_hat)
    u = states[0]
    assert np.array_equal(u[mesh.pair_slave], -u[mesh.pair_master])
    assert np.all(u[mesh.dirichlet_nodes] == 0.0)
    assert np.isfinite(value)


def test_reduction_matrix_shape():
    mesh = unit_square_mesh(6)
    dm = DofMap(mesh)
    n_bnd = len(mesh.dirichlet_nodes)
    assert dm.n_reduced == mesh.n_nodes - n_bnd
    v = np.arange(dm.n_reduced, dtype=float)
    full = dm.expand(v)
    assert np.all(full[mesh.dirichlet_nodes] == 0)
    assert np.array_equal(dm.restrict(full), v)


def test_reduced_numbering_keeps_the_reduction(toy_mesh):
    assert len(toy_mesh.pair_slave) and len(toy_mesh.dirichlet_nodes)
    dm = DofMap(toy_mesh)
    constrained = np.concatenate([toy_mesh.dirichlet_nodes,
                                  toy_mesh.pair_slave])
    assert np.array_equal(np.sort(dm.free), np.setdiff1d(
        np.arange(toy_mesh.n_nodes), constrained))
    rng = np.random.default_rng(19)
    v = rng.standard_normal(dm.n_reduced)
    u = dm.expand(v)
    assert np.array_equal(u[toy_mesh.pair_slave], -u[toy_mesh.pair_master])
    assert np.all(u[toy_mesh.dirichlet_nodes] == 0.0)
    assert np.array_equal(dm.restrict(u), v)
    assert np.array_equal(dm.expand(dm.restrict(u)), u)
    # <C^T w, v> = <w, C v>
    w = rng.standard_normal(toy_mesh.n_nodes)
    assert dm.reduce_vector(w) @ v == pytest.approx(w @ u, rel=1e-13)


def reduction_matrix(mesh, free):
    """The reduction C by scipy.sparse, when unknown k is node free[k]: a slave
    is minus its master and a Dirichlet node is zero."""
    n, nr = mesh.n_nodes, len(free)
    index = np.full(n, -1)
    index[free] = np.arange(nr)
    index[mesh.pair_slave] = index[mesh.pair_master]
    sign = np.ones(n)
    sign[mesh.pair_slave] = -1.0
    kept = np.flatnonzero(index >= 0)
    return sp.csr_matrix((sign[kept], (kept, index[kept])), shape=(n, nr))


def reduced_pattern(mesh, free):
    """The pattern of C^T K C by scipy.sparse, when unknown k is node free[k]."""
    reduced = reduction_matrix(mesh, free).tocoo()
    index = np.full(mesh.n_nodes, -1)
    index[reduced.row] = reduced.col
    tri = index[mesh.triangles]
    row, col = np.broadcast_arrays(tri[:, :, None], tri[:, None, :])
    keep = (row >= 0) & (col >= 0)
    return sp.csr_matrix((np.ones(np.count_nonzero(keep)),
                          (row[keep], col[keep])), shape=(len(free),) * 2)


def band_width(dofmap, mesh, numbering):
    """Widest |i - j| of the reduced tangent pattern under a numbering."""
    pattern = reduced_pattern(mesh, dofmap.free[np.argsort(numbering)]).tocoo()
    return int(np.abs(pattern.row - pattern.col).max())


def test_reduced_numbering_is_the_elimination_order(toy_mesh):
    # the band holds the whole reduced pattern and no more: its half-width
    # is the widest |i - j|, and a numbering blind to the pattern is far wider
    dofmap = DofMap(toy_mesh)
    nr = dofmap.n_reduced
    assert dofmap.bandwidth == band_width(dofmap, toy_mesh, np.arange(nr))
    shuffled = np.random.default_rng(3).permutation(nr)
    assert 10 * dofmap.bandwidth < band_width(dofmap, toy_mesh, shuffled)
    # Both widths are pinned, so that a change of ordering shows: the toy
    # mesh numbers its nodes ring by ring, and that order is narrower than
    # reverse Cuthill-McKee from scipy's minimum-degree start node.
    node_order = np.argsort(np.argsort(dofmap.free))
    assert dofmap.bandwidth == 36
    assert band_width(dofmap, toy_mesh, node_order) == 25
    space = P1Space(toy_mesh)
    band = dofmap.reduce_matrix(space.tangent_matrix(
        np.tile(np.eye(2), (toy_mesh.n_elements, 1, 1))))
    assert band.shape == (dofmap.bandwidth + 1, nr)
    assert band.flags.f_contiguous       # LAPACK factors it without a copy


def test_disc_patch_keeps_a_narrow_band(toy_mesh):
    # the disc patches of `audit --kind tdcheck` append their nodes after
    # the mesh's own, so numbering the unknowns in node order (25 against
    # RCM's 36 on the plain toy mesh) would couple the patch to nodes a whole
    # mesh away; RCM renumbers the patch into the band
    h = float(np.sqrt(2.0 * P1Space(toy_mesh).areas[
        toy_mesh.elements_in("design")].mean()))
    center = 0.03 * np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    mesh, _, _ = refine_disc_patch(toy_mesh, center, h, cavity=7 * h)
    dofmap = DofMap(mesh)
    assert dofmap.bandwidth <= 3 * DofMap(toy_mesh).bandwidth
    node_order = np.argsort(np.argsort(dofmap.free))
    assert band_width(dofmap, mesh, node_order) > 10 * dofmap.bandwidth


def test_tangents_factor_in_natural_order_with_diagonal_pivots(toy_mesh,
                                                               factor_calls):
    # banded Cholesky eliminates in the band's order and never pivots
    scen = Scenario(n_positions=2)
    problem = MachineProblem(toy_mesh, MaterialSpec(), scen)
    design = np.ones(len(problem.design_elements), dtype=bool)
    _, states = problem.objective(design)
    problem.adjoints(states)
    dofmap = problem.dofmap
    assert len(factor_calls) > 2 * len(states)     # nonlinear: many tangents
    assert set(factor_calls) == {(dofmap.bandwidth + 1, dofmap.n_reduced)}
    # the smoother factors its own pattern, in its own narrow band
    calls = len(factor_calls)
    smoother = problem.smoother()
    (shape,) = factor_calls[calls:]
    assert shape[1] == len(problem.design_nodes)
    assert 10 * shape[0] < shape[1]


def dense_from_band(band):
    """The symmetric matrix whose lower band storage is band."""
    n = band.shape[1]
    a = np.zeros((n, n))
    for d, diagonal in enumerate(band):
        j = np.arange(n - d)
        a[j + d, j] = a[j, j + d] = diagonal[:n - d]
    return a


def test_reduced_tangent_matches_triple_product(toy_mesh):
    # the toy sector has both antiperiodic pairs and Dirichlet nodes
    assert len(toy_mesh.pair_slave) and len(toy_mesh.dirichlet_nodes)
    space, dofmap = P1Space(toy_mesh), DofMap(toy_mesh)
    tri, n = toy_mesh.triangles, toy_mesh.n_nodes
    rng = np.random.default_rng(13)
    a = rng.standard_normal((toy_mesh.n_elements, 2, 2))
    dh = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)        # SPD per element
    local = np.einsum("e,eid,edc,ejc->eij", space.areas, space.curls, dh,
                      space.curls)
    k_full = sp.coo_matrix((local.ravel(), (np.repeat(tri, 3, axis=1).ravel(),
                                            np.tile(tri, (1, 3)).ravel())),
                           shape=(n, n)).tocsr()
    c = reduction_matrix(toy_mesh, dofmap.free)
    ref = (c.T @ k_full @ c).toarray()
    scale = np.abs(ref).max()

    blocks = space.tangent_matrix(dh)
    assert blocks.shape == local.shape
    assert np.abs(blocks - local).max() <= 1e-14 * np.abs(local).max()
    band = dofmap.reduce_matrix(blocks)
    assert np.abs(dense_from_band(band) - ref).max() <= 1e-14 * scale
    # past the last row the band is padding
    for d, diagonal in enumerate(band):
        assert not diagonal[dofmap.n_reduced - d:].any()
    # any (m, 3, 3) layout of the blocks gives the same band
    band_ref = dofmap.reduce_matrix(local)
    assert band_ref.shape == band.shape
    assert np.abs(dense_from_band(band_ref) - ref).max() <= 1e-14 * scale
    # tangent_at hands out the same matrix in CSC form
    k_red = tangent_at(space, dofmap, lambda curls: (curls, dh),
                       np.zeros(n))
    assert k_red.format == "csc"
    assert np.abs(k_red.toarray() - ref).max() <= 1e-14 * scale


def test_tangent_band_equals_the_reduced_blocks():
    # the band is linear in dh, so one product gives reduce_matrix of the
    # element blocks up to the order of the sums: on the machine meshes,
    # with Dirichlet nodes and antiperiodic slaves, and on the tables-knee
    # corrector half disk, whose x axis and outer arc are Dirichlet
    rng = np.random.default_rng(43)
    pairs = [(P1Space(mesh), DofMap(mesh)) for mesh in (
        build_machine_mesh(load_config(CONFIGS / f"{name}.cfg").geometry)
        for name in ("toy", "audit3k", "benchmark"))]
    exterior = ExteriorProblem(ExteriorConfig(radius=128.0, target_nodes=8000))
    pairs.append((exterior.space, exterior.dofmap))
    for space, dofmap in pairs:
        dh = rng.standard_normal((space.mesh.n_elements, 2, 2))   # not symmetric
        band = dofmap.tangent_band(space, dh)
        ref = dofmap.reduce_matrix(space.tangent_matrix(dh))
        assert band.shape == ref.shape and band.flags.f_contiguous
        assert np.abs(band - ref).max() <= 1e-14 * np.abs(band).max()


def test_tangent_operator_is_built_once_per_space(toy_mesh, monkeypatch):
    # every factored tangent reads one operator, built from the tangents of
    # the four unit Jacobians on first use
    assembled = []
    tangent_matrix = P1Space.tangent_matrix

    def counted(self, dh):
        assembled.append(self)
        return tangent_matrix(self, dh)

    monkeypatch.setattr(P1Space, "tangent_matrix", counted)
    space, dofmap = P1Space(toy_mesh), DofMap(toy_mesh)
    dh = np.tile(np.eye(2), (toy_mesh.n_elements, 1, 1))
    factors = [factor_tangent(space, dofmap, s * dh) for s in (1.0, 2.0, 3.0)]
    assert assembled == [space] * 4
    b = np.ones(dofmap.n_reduced)
    assert np.allclose(factors[0].solve(b), 3.0 * factors[2].solve(b),
                       rtol=1e-12, atol=0.0)
    other = P1Space(toy_mesh)
    dofmap.tangent_band(other, dh)
    assert assembled[4:] == [other] * 4


def test_band_solve_matches_superlu(toy_mesh):
    # saturating iron at a converged state, one and several right-hand sides
    scen = Scenario(n_positions=1)
    problem = MachineProblem(toy_mesh, MaterialSpec(), scen)
    design = np.ones(len(problem.design_elements), dtype=bool)
    q = problem.scenario.q_hat
    u, _ = problem.solve_position(design, q, 0)
    space, dofmap = problem.space, problem.dofmap
    respond = problem.respond_factory(design, q)
    lu = spla.splu(tangent_at(space, dofmap, respond, u))
    factor = factor_tangent(space, dofmap,
                            respond(space.element_curl(u))[1])
    rng = np.random.default_rng(21)
    for b in (rng.standard_normal(dofmap.n_reduced),
              rng.standard_normal((dofmap.n_reduced, 3))):
        ref = lu.solve(b)
        assert np.linalg.norm(factor.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_curl_and_divergence_operators(toy_mesh):
    space = P1Space(toy_mesh)
    tri = toy_mesh.triangles
    rng = np.random.default_rng(17)
    u = rng.standard_normal(toy_mesh.n_nodes)
    h = rng.standard_normal((toy_mesh.n_elements, 2))

    curl = space.element_curl(u)
    ref = np.einsum("eid,ei->ed", space.curls, u[tri])
    assert curl.shape == ref.shape
    assert np.abs(curl - ref).max() <= 1e-14 * np.abs(ref).max()

    div = space.flux_divergence(h)
    ref = np.zeros(toy_mesh.n_nodes)
    np.add.at(ref, tri.ravel(), (space.areas[:, None]
                                 * np.einsum("eid,ed->ei", space.curls, h)).ravel())
    assert np.abs(div - ref).max() <= 1e-14 * np.abs(ref).max()

    # u . div(h) = sum_T |T| h_T . curl u
    terms = space.areas[:, None] * h * curl
    assert u @ div == pytest.approx(terms.sum(), abs=1e-13 * np.abs(terms).sum())


def free_square_mesh(n):
    """The unit square with no constrained node: natural boundary conditions."""
    return replace(unit_square_mesh(n), dirichlet_nodes=np.zeros(0, dtype=np.int32))


def test_smoother_preserves_constants_and_integrals():
    mesh = free_square_mesh(10)
    sm = ScreenedSmoother(mesh, eps=1e-3)

    g = sm.smooth(np.full(mesh.n_elements, 2.5))
    assert np.max(np.abs(g - 2.5)) <= 1e-13

    rng = np.random.default_rng(7)
    raw = rng.standard_normal(mesh.n_elements)
    g = sm.smooth(raw)
    assert nodal_integral(sm, g) == pytest.approx(
        elementwise_integral(sm, raw), rel=1e-12)


def screened_system(space, eps):
    """eps K + M and the element-to-node load matrix, assembled by scipy."""
    tri, areas = space.mesh.triangles, space.areas
    blocks = (eps * np.einsum("e,eid,ejd->eij", areas, space.curls, space.curls)
              + areas[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3)))
    rows, cols = np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()
    system = sp.coo_matrix((blocks.ravel(), (rows, cols))).tocsr()
    load = sp.coo_matrix((np.repeat(areas / 3.0, 3),
                          (tri.ravel(), np.repeat(np.arange(len(tri)), 3)))).tocsr()
    return system, load


@pytest.mark.parametrize("domain", ["square", "toy_design"])
def test_smoothed_field_solves_the_screened_system(domain, request):
    if domain == "square":
        eps = 1e-3
        sm = ScreenedSmoother(free_square_mesh(10), eps)
    else:
        problem = request.getfixturevalue("toy_problem")
        eps, sm = problem.smoothing_eps, problem.smoother()
    raw = np.random.default_rng(11).standard_normal(sm.space.mesh.n_elements)
    g = sm.smooth(raw)
    system, load = screened_system(sm.space, eps)
    rhs = load @ raw
    assert np.linalg.norm(system @ g - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_linear_iron_factors_once_per_design(toy_mesh, linear_spec,
                                             factor_calls):
    scen = Scenario(name="ANG", n_positions=3, q_hat=np.deg2rad([-60.0]))
    problem = MachineProblem(toy_mesh, linear_spec, scen)
    rng = np.random.default_rng(5)
    design = rng.random(len(problem.design_elements)) > 0.5
    q = scen.q_hat

    _, states = problem.objective(design, q)
    adjoints = problem.adjoints(states)
    assert len(factor_calls) == 1                 # all positions and adjoints

    q2 = q + np.deg2rad(7.0)
    problem.adjoints(problem.objective(design, q2)[1])
    assert len(factor_calls) == 1                 # another q, same tangent

    # the basis reproduces per-position Newton states and adjoints
    space, dofmap = problem.space, problem.dofmap
    respond = problem.respond_factory(design, q)
    for n, alpha in enumerate(problem.alphas()):
        load = space.load_vector(problem.source_density(alpha, q))
        u, _ = newton_solve(space, dofmap, respond, load,
                            zero_flux(respond, space),
                            tol=problem.solver.newton_tol,
                            max_iter=NEWTON_MAX_ITER)
        assert np.linalg.norm(states[n] - u) <= 1e-10 * np.linalg.norm(u)
        rhs = problem.torque_probe.torque_gradient(u) / len(states)
        p = adjoint_solve(space, dofmap, respond, u, rhs)
        assert np.linalg.norm(adjoints[n] - p) <= 1e-10 * np.linalg.norm(p)

    calls = len(factor_calls)
    problem.objective(~design, q)
    assert len(factor_calls) == calls + 1         # a new design is a new tangent


def test_nonlinear_newton_factors_every_iteration(factor_calls):
    _, space, dofmap, respond, load = nonlinear_setup()
    u, info = newton_solve(space, dofmap, respond, load,
                           zero_flux(respond, space), tol=1e-10)
    assert info.iterations >= 2
    assert len(factor_calls) == info.iterations
    # the tangent at the converged state is new; each adjoint factors it
    # again, to the same factor
    w = np.ones(space.n_nodes)
    p = adjoint_solve(space, dofmap, respond, u, w)
    assert len(factor_calls) == info.iterations + 1
    assert np.array_equal(adjoint_solve(space, dofmap, respond, u, w), p)
    assert len(factor_calls) == info.iterations + 2


def test_first_factor_is_the_tangent_at_the_start():
    # the first factors call of a warm-started solve factors K(u0): it
    # solves as a fresh factor of the tangent at u0 does, bitwise; a start
    # that converges makes no call
    _, space, dofmap, respond, load = nonlinear_setup()
    h0 = zero_flux(respond, space)
    u0, _ = newton_solve(space, dofmap, respond, load, h0, tol=1e-10)
    w = np.random.default_rng(3).standard_normal(space.n_nodes)
    handed = []

    def factors(dh):
        factor = factor_tangent(space, dofmap, dh)
        handed.append(dofmap.expand(factor.solve(dofmap.reduce_vector(w))))
        return factor

    u, info = newton_solve(space, dofmap, respond, 1.5 * load, h0, u0=u0,
                           tol=1e-10, factors=factors)
    assert info.iterations >= 2 and len(handed) == info.iterations
    assert np.array_equal(handed[0], adjoint_solve(space, dofmap, respond,
                                                   u0, w))
    assert np.array_equal(u, newton_solve(space, dofmap, respond, 1.5 * load,
                                          h0, u0=u0, tol=1e-10)[0])
    del handed[:]
    newton_solve(space, dofmap, respond, 1.5 * load, h0, u0=u, tol=1e-10,
                 factors=factors)
    assert handed == []


@pytest.fixture
def band_factors(monkeypatch):
    """Weak references to every BandCholesky made, in order. A second live
    band factor costs page faults worth more than a saved factorization,
    so making one while an earlier one is alive fails the test."""
    made = []
    init = fem.BandCholesky.__init__

    def tracked(self, band):
        assert all(ref() is None for ref in made), "two live band factors"
        init(self, band)
        made.append(weakref.ref(self))

    monkeypatch.setattr(fem.BandCholesky, "__init__", tracked)
    return made


@pytest.mark.parametrize("path", ["whole", "kept_columns", "chained"])
def test_newton_frees_each_factor_before_the_next(path, band_factors):
    # whenever newton_solve asks for a factor, the one it asked for before
    # is dead, but for a KeptColumnsCholesky, which refactors in place; a
    # chained start also solves with its first factor, as
    # MachineProblem.states does, and keeps none
    _, space, dofmap, respond, load = nonlinear_setup()
    h0 = zero_flux(respond, space)
    u0, handed = None, []
    if path == "chained":
        u0, _ = newton_solve(space, dofmap, respond, load, h0, tol=1e-10)
        load = 1.5 * load
        del band_factors[:]
    # every element saturates, so no column is kept: each later tangent is
    # factored whole in the first one's storage
    source = (KeptColumnsCholesky(space, dofmap, 0) if path == "kept_columns"
              else lambda dh: factor_tangent(space, dofmap, dh))
    returned, storage = [], set()

    def factors(dh):
        assert all(ref() is None or ref() is source for ref in returned)
        factor = source(dh)
        if path == "chained" and not returned:
            handed.append(factor.solve(dofmap.reduce_vector(load)))
        returned.append(weakref.ref(factor))
        band = factor._factor           # a KeptColumnsCholesky's BandCholesky
        storage.add(id(getattr(band, "_factor", band)))
        return factor

    _, info = newton_solve(space, dofmap, respond, load, h0, u0=u0,
                           tol=1e-10, factors=factors)
    assert info.iterations >= 2 and len(returned) == info.iterations
    assert len(handed) == (path == "chained")
    if path == "kept_columns":
        assert len(band_factors) == 1 and len(storage) == 1
    else:
        assert len(band_factors) == info.iterations
        assert all(ref() is None for ref in band_factors)


def test_chained_positions_free_each_factor(toy_mesh, band_factors):
    # the adjoints solved with the first factors of chained positions keep
    # no factor alive
    problem = MachineProblem(toy_mesh, MaterialSpec(), Scenario(
        name="SCAL", n_positions=3, q_hat=np.array([2.0])))
    states = problem.states(np.ones(len(problem.design_elements), dtype=bool))
    assert all(p is not None for p in states.adjoints[:-1])
    assert len(band_factors) == sum(i.iterations for i in problem.newton_log)
    assert all(ref() is None for ref in band_factors)


def rcm_meshes():
    """Meshes whose reduced patterns the RCM port is checked on, built once."""
    meshes = {name: build_machine_mesh(
        load_config(CONFIGS / f"{name}.cfg").geometry)
        for name in ("toy", "audit3k", "benchmark")}
    meshes["exterior8k"] = graded_disk_mesh(128.0, 8000)
    toy = meshes["toy"]
    h = float(np.sqrt(2.0 * P1Space(toy).areas[
        toy.elements_in("design")].mean()))
    center = 0.03 * np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    meshes["toy_disc_patch"] = refine_disc_patch(toy, center, h,
                                                 cavity=7 * h)[0]
    return meshes


def test_rcm_port_gives_scipys_permutation():
    # the pattern DofMap orders (unknowns in node order), on every shipped
    # machine mesh, the tables-knee exterior mesh and a disc patch, whose
    # nodes come last
    for name, mesh in rcm_meshes().items():
        dofmap = DofMap(mesh)
        nodes = np.sort(dofmap.free)
        pattern = reduced_pattern(mesh, nodes)
        ref = csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True)
        assert np.array_equal(
            reverse_cuthill_mckee(pattern.indptr, pattern.indices), ref), name
        assert np.array_equal(dofmap.free, nodes[ref]), name
    # two or more components, rows without their diagonal, isolated nodes
    rng = np.random.default_rng(29)
    for n in (7, 60, 400):
        a = sp.random(n, n, density=3.0 / n, random_state=rng)
        diagonal = np.flatnonzero(rng.random(n) < 0.5)
        a = a + a.T + sp.coo_matrix((np.ones(len(diagonal)),
                                     (diagonal, diagonal)), shape=(n, n))
        a = sp.block_diag((a, a.T), format="csr")
        assert csgraph.connected_components(a)[0] >= 2
        ref = csgraph.reverse_cuthill_mckee(a, symmetric_mode=True)
        assert np.array_equal(reverse_cuthill_mckee(a.indptr, a.indices), ref)


def test_sparse_products_equal_scipys(toy_mesh):
    # every product runs scipy's kernel on the arrays scipy.sparse builds
    space, dofmap = P1Space(toy_mesh), DofMap(toy_mesh)
    tri, m, n = toy_mesh.triangles, toy_mesh.n_elements, toy_mesh.n_nodes
    nr = dofmap.n_reduced
    rng = np.random.default_rng(31)
    curl_op = sp.csr_matrix((space.curls.transpose(0, 2, 1).ravel(),
                             np.repeat(tri, 2, axis=0).ravel(),
                             np.arange(0, 6 * m + 1, 3)), shape=(2 * m, n))
    u, h = rng.standard_normal(n), rng.standard_normal((m, 2))
    assert np.array_equal(space.element_curl(u), (curl_op @ u).reshape(-1, 2))
    assert np.array_equal(space.flux_divergence(h), curl_op.T @ (
        space.areas[:, None] * h).ravel())

    c = reduction_matrix(toy_mesh, dofmap.free)
    for w in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        assert np.array_equal(dofmap.reduce_vector(w), c.T @ w)
    for v in (rng.standard_normal(nr), rng.standard_normal((nr, 3)),
              np.asfortranarray(rng.standard_normal((nr, 3)))):
        assert np.array_equal(dofmap.expand(v), c @ v)

    # the band scatter: entries by reduced row and column, on and below the
    # diagonal, into the Fortran-ordered lower band storage
    coo = c.tocoo()
    index, sign = np.full(n, -1), np.zeros(n)
    index[coo.row], sign[coo.row] = coo.col, coo.data
    row, col = np.broadcast_arrays(index[tri.T][:, None], index[tri.T][None])
    row, col = row.ravel(), col.ravel()
    entry = np.flatnonzero((row >= 0) & (col >= 0))
    row, col = row[entry], col[entry]
    width = dofmap.bandwidth + 1
    assert width - 1 == np.max(row - col)
    lower = row >= col
    slots, slot = np.unique((row - col + width * col)[lower],
                            return_inverse=True)
    signs = (sign[tri.T][:, None] * sign[tri.T][None]).ravel()[entry]
    scatter = sp.csr_matrix((signs[lower], (slot, entry[lower])),
                            shape=(len(slots), 9 * m))
    blocks = rng.standard_normal((m, 3, 3))
    band = np.zeros(width * nr)
    band[slots] = scatter @ blocks.transpose(1, 2, 0).ravel()
    assert np.array_equal(dofmap.reduce_matrix(blocks),
                          band.reshape((width, nr), order="F"))

    smoother = ScreenedSmoother(toy_mesh, 1e-5)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    assert smoother.inner(a, b) == float(a @ (mass_matrix(space) @ b))


def test_band_cholesky_equals_scipys(toy_mesh):
    space, dofmap = P1Space(toy_mesh), DofMap(toy_mesh)
    rng = np.random.default_rng(37)
    a = rng.standard_normal((toy_mesh.n_elements, 2, 2))
    band = dofmap.reduce_matrix(space.tangent_matrix(
        a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)))
    ref = cholesky_banded(band, lower=True)
    factored = band.copy(order="F")
    factor = BandCholesky(factored)
    assert np.array_equal(factored, ref)           # factored in place
    for b in (rng.standard_normal(dofmap.n_reduced),
              rng.standard_normal((dofmap.n_reduced, 3))):
        assert np.array_equal(factor.solve(b), cho_solve_banded((ref, True), b))
    # the second leading minor of [[1, 2], [2, 1]] is negative
    with pytest.raises(np.linalg.LinAlgError):
        BandCholesky(np.array([[1.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("where", ["zero", "below_bandwidth", "exterior",
                                   "all"])
def test_kept_columns_solve_as_the_whole_factor(where):
    # the columns of the unknowns that no changing element touches are
    # factored once; every later tangent solves as if factored whole. The
    # kept columns start: nowhere, inside the first band width, where the
    # air_to_iron corrector keeps its air exterior, and everywhere
    prob = ExteriorProblem(ExteriorConfig(radius=64.0, target_nodes=1500))
    space, dofmap = prob.space, prob.dofmap
    n, kd = dofmap.n_reduced, dofmap.bandwidth
    if where == "exterior":
        start = prob.factors(*laws_for_direction(
            "air_to_iron", MaterialSpec(), 2.2)).start
        assert kd < start < n - kd
    else:
        start = {"zero": 0, "below_bandwidth": kd // 2, "all": n}[where]
    first = np.array([dofmap.first_unknown(tri[None])
                      for tri in prob.mesh.triangles])
    changing = first >= start
    rng = np.random.default_rng(59)

    def spd(rows):
        a = rng.standard_normal((rows, 2, 2))
        return a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)

    dh = spd(prob.mesh.n_elements)
    factors = KeptColumnsCholesky(space, dofmap, start)
    for _ in range(3):
        factor = factors(dh)
        whole = factor_tangent(space, dofmap, dh)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            ref = whole.solve(b)
            err = np.linalg.norm(factor.solve(b) - ref)
            assert err <= 1e-13 * np.linalg.norm(ref), (start, err)
        dh = dh.copy()
        dh[changing] = spd(int(changing.sum()))


def test_scipy_packages_keep_their_extension_modules():
    # rtopt.fem loads two of scipy's compiled modules without their packages;
    # a package imported later still holds its own as an attribute
    code = ("import rtopt.fem\n"
            "import scipy.linalg, scipy.sparse\n"
            "print(scipy.linalg._flapack.dpbtrf is rtopt.fem._lapack.dpbtrf,"
            " scipy.sparse._sparsetools.csr_matvec"
            " is rtopt.fem._sparsetools.csr_matvec)\n")
    src = str(Path(fem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["True", "True"]


def test_missing_scipy_extension_is_named():
    # the compiled modules are loaded by name, with no other path to fall to
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module"):
        fem._scipy_extension("linalg", "_no_such_module")
