"""P1 finite elements for the scalar potential of 2-D magnetostatics.

The state u is the z component of the vector potential; its in-plane flux
density is curl u = (du/dy, -du/dx), constant per triangle. The weak residual
used everywhere is

    F(u) . v  =  sum_T |T| h_T(curl u) . curl v  -  sum_T |T| j_T * mean(v)

with element-wise constant material response h_T and source j_T. Antiperiodic
pairs and Dirichlet nodes are eliminated through a sparse reduction matrix C
(u_full = C u_reduced), so reduced systems are C^T K C.

Both operators a Newton step needs are built once per mesh: the curl of a
nodal vector is one sparse product with a (2m, n) operator G, the flux
divergence its area-weighted transpose, and element tangent blocks are summed
straight into LAPACK lower band storage of C^T K C by a sparse scatter. The
reduced unknowns are numbered in the reverse Cuthill-McKee order of the fixed
pattern (Proc. 24th ACM Nat. Conf., 1969), computed once per mesh, so every
tangent lies in a narrow band, factored by banded Cholesky (George and Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981, ch. 4):
every system is SPD, and a tangent that is not is refused as singular.

The residual is the gradient of the convex magnetic energy
E(u) = sum_T |T| w_T(curl u) - load . u (dw_T/dB = h_T, dh_T is SPD), so
Newton damps on E by the approximate Armijo test of Hager and Zhang (SIAM J.
Optim. 16(1), 2005), which reads residuals only, never E itself.

The compiled kernels are scipy's, called without importing the scipy packages
that wrap them: LAPACK dpbtrf and dpbtrs from scipy.linalg._flapack, and the
CSR kernels coo_tocsr, csr_has_sorted_indices, csr_sort_indices,
csr_sum_duplicates, csr_matvec(s) and csc_matvec(s) from
scipy.sparse._sparsetools. Importing scipy.linalg and scipy.sparse costs about
0.2 s per process, mostly in code rtopt never runs, and a CLI command is a
short process. Every sparse operator keeps the arrays scipy.sparse would build
for it and every product calls the kernel scipy.sparse would call, so results
are bitwise those of the packages; reverse_cuthill_mckee is a port of scipy's
that gives the same permutation.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SolverError


def _scipy_extension(package, name):
    """The compiled module scipy.<package>.<name>, loaded without running the
    __init__ of scipy or of scipy.<package>.

    It is registered in sys.modules under its full name, so a later import of
    the package (which imports it) reuses this module object.
    """
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        full, [os.path.join(d, package) for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"rtopt.fem needs scipy's compiled module {full}",
                          name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


_lapack = _scipy_extension("linalg", "_flapack")
_sparsetools = _scipy_extension("sparse", "_sparsetools")

NEWTON_MIN_STEP = 2.0**-20
NEWTON_ARMIJO = 1e-4        # sufficient-decrease fraction sigma of the energy


def _index_dtype(*sizes):
    """The index type scipy.sparse picks for arrays of these sizes."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class Csr:
    """A sparse (n_rows, n_cols) matrix in the CSR arrays of scipy.sparse.

    Products call the kernel scipy.sparse calls for A @ v and A.T @ v on the
    same arrays, so they are bitwise the package's.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def from_triplets(cls, data, row, col, shape):
        """The matrix scipy.sparse.csr_matrix((data, (row, col)), shape)
        builds: entries bucketed by row, each row sorted by column, and
        duplicates summed in that order."""
        n_rows, n_cols = shape
        nnz = len(data)
        index = _index_dtype(nnz, n_rows, n_cols)
        indptr = np.empty(n_rows + 1, dtype=index)
        indices = np.empty(nnz, dtype=index)
        values = np.empty(nnz)
        _sparsetools.coo_tocsr(n_rows, n_cols, nnz, row.astype(index),
                               col.astype(index), data, indptr, indices, values)
        if not _sparsetools.csr_has_sorted_indices(n_rows, indptr, indices):
            _sparsetools.csr_sort_indices(n_rows, indptr, indices, values)
        _sparsetools.csr_sum_duplicates(n_rows, n_cols, indptr, indices, values)
        nnz = indptr[-1]
        return cls(indptr, indices[:nnz], values[:nnz], shape)

    def __matmul__(self, v):
        """A v for v of shape (n_cols,) or (n_cols, k)."""
        return self._product(_sparsetools.csr_matvec, _sparsetools.csr_matvecs,
                             self.shape, v)

    def rmatmul(self, v):
        """A^T v for v of shape (n_rows,) or (n_rows, k), by the CSC kernels
        on the same arrays, as scipy.sparse computes A.T @ v."""
        return self._product(_sparsetools.csc_matvec, _sparsetools.csc_matvecs,
                             self.shape[::-1], v)

    def _product(self, matvec, matvecs, shape, v):
        out = np.zeros(shape[:1] + v.shape[1:])
        if v.ndim == 1:
            matvec(*shape, self.indptr, self.indices, self.data, v, out)
        else:
            matvecs(*shape, v.shape[1], self.indptr, self.indices, self.data,
                    v.ravel(), out.ravel())
        return out


def reverse_cuthill_mckee(indptr, indices):
    """Reverse Cuthill-McKee order of a symmetric pattern in CSR arrays.

    A port of scipy.sparse.csgraph.reverse_cuthill_mckee (symmetric_mode=True)
    that gives the same permutation: a node's degree is its row length plus
    one if the row stores its diagonal; each connected component is searched
    breadth-first from its first unvisited node in np.argsort order of the
    degrees (in the index type); each node appends its unvisited neighbours,
    stably sorted by degree; the order found is reversed. The search runs one
    breadth-first level at a time.
    """
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(n), lengths)
    has_diagonal = np.zeros(n, dtype=bool)
    has_diagonal[rows[indices == rows]] = True
    degree = (lengths + has_diagonal).astype(indices.dtype)
    visited = np.zeros(n, dtype=bool)
    levels, n_found = [], 0
    for seed in np.argsort(degree):
        if n_found == n:
            break
        if visited[seed]:
            continue
        level = np.array([seed])
        while len(level):
            visited[level] = True
            levels.append(level)
            n_found += len(level)
            # the neighbours of the level, node by node in row order; a node
            # reached from several joins the first, in degree order
            lens = lengths[level]
            shift = np.repeat(indptr[level] - np.cumsum(lens) + lens, lens)
            reached = indices[np.arange(len(shift)) + shift]
            parent = np.repeat(np.arange(len(level)), lens)
            fresh = np.flatnonzero(~visited[reached])
            _, first = np.unique(reached[fresh], return_index=True)
            first = fresh[first]
            level = reached[first[np.lexsort(
                (first, degree[reached[first]], parent[first]))]]
    return np.concatenate(levels)[::-1]


class P1Space:
    """Per-mesh cache of P1 geometry factors and assembly kernels."""

    def __init__(self, mesh):
        self.mesh = mesh
        tri = mesh.triangles
        p = mesh.vertices[tri]
        self.areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        if np.any(self.areas <= 0):
            raise SolverError("mesh has non-positive triangle areas")
        # edge i of each element, counter-clockwise and opposite vertex i
        e0 = p[:, 2] - p[:, 1]
        e1 = p[:, 0] - p[:, 2]
        e2 = p[:, 1] - p[:, 0]
        edges = np.stack([e0, e1, e2], axis=1)            # (m, 3, 2)
        # grad phi_i is edge i turned a quarter counter-clockwise over 2|T|, so
        # curl phi_i = (d phi_i/dy, -d phi_i/dx) is edge i over 2|T|. It is stored
        # component-major as (2, 3, m) so that element-wise products run along
        # the element axis; curls is the (m, 3, 2) view of it
        m = len(tri)
        curls = np.ascontiguousarray((edges / (2.0 * self.areas)[:, None, None]).T)
        self.curls = curls.transpose(2, 1, 0)
        # the curl operator G: row 2e + d of G u is component d of B on element e
        index = _index_dtype(6 * m, 2 * m, mesh.n_nodes)
        self._curl_op = Csr(np.arange(0, 6 * m + 1, 3, dtype=index),
                            np.repeat(tri, 2, axis=0).ravel().astype(index),
                            self.curls.transpose(0, 2, 1).ravel(),
                            (2 * m, mesh.n_nodes))

    @property
    def n_nodes(self):
        return self.mesh.n_nodes

    def element_curl(self, u):
        """Flux density per element, shape (m, 2)."""
        return (self._curl_op @ u).reshape(-1, 2)

    def flux_divergence(self, hvals):
        """Assemble sum_T |T| h_T . curl phi_i into a nodal vector."""
        return self._curl_op.rmatmul((self.areas[:, None] * hvals).ravel())

    def load_vector(self, j_elem):
        """Assemble sum_T |T| j_T / 3 onto the nodes of T."""
        contrib = (self.areas * j_elem / 3.0)[:, None].repeat(3, axis=1)
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.mesh.triangles.ravel(), contrib.ravel())
        return out

    def tangent_matrix(self, dh):
        """Element blocks |T| curl phi_i . dh_T curl phi_j, shape (m, 3, 3).

        dh has shape (m, 2, 2). The blocks are the (m, 3, 3) view of a
        (3, 3, m) array, the order DofMap.reduce_matrix reads them in.
        """
        x, y = self.curls.T                              # (3, m) each
        w = dh.transpose(1, 2, 0) * self.areas           # (2, 2, m)
        tx = x * w[0, 0] + y * w[1, 0]                   # x of |T| curl phi_i . dh
        ty = x * w[0, 1] + y * w[1, 1]
        return (tx[:, None] * x + ty[:, None] * y).transpose(2, 0, 1)

    def mass_blocks(self):
        """Consistent P1 mass element blocks (|T| / 12)(1 + I), shape (m, 3, 3)."""
        return (self.areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

    def mass_matrix(self):
        """Consistent P1 mass matrix."""
        tri = self.mesh.triangles
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        return Csr.from_triplets(self.mass_blocks().ravel(), rows, cols,
                                 (self.n_nodes, self.n_nodes))


class DofMap:
    """Reduction u_full = C u_reduced eliminating Dirichlet and slave nodes."""

    def __init__(self, mesh):
        n = mesh.n_nodes
        kind = np.zeros(n, dtype=np.int8)      # 0 free, 1 dirichlet, 2 slave
        kind[mesh.dirichlet_nodes] = 1
        kind[mesh.pair_slave] = 2
        master_of = np.full(n, -1, dtype=np.int64)
        master_of[mesh.pair_slave] = mesh.pair_master
        free = np.flatnonzero(kind == 0)
        nr = len(free)
        index = np.full(n, -1, dtype=np.int64)
        index[free] = np.arange(nr)

        sign = np.zeros(n)                     # u_full[i] = sign[i] * u_red[index[i]]
        sign[free] = 1.0
        slaves = np.flatnonzero(kind == 2)
        if len(slaves):
            m = master_of[slaves]
            if np.any(kind[m] != 0):
                raise SolverError("antiperiodic master is not a free node")
            index[slaves] = index[m]
            sign[slaves] = -1.0
        kept = np.flatnonzero(index >= 0)

        # Element block entries, read in (i, j, e) order, by reduced row and
        # column; Dirichlet entries have none.
        tri = mesh.triangles.T                               # (3, m)
        row, col = np.broadcast_arrays(index[tri][:, None], index[tri][None])
        row, col = row.ravel(), col.ravel()
        n_entries = row.size
        entry = np.flatnonzero((row >= 0) & (col >= 0))
        # The reduced numbering is the reverse Cuthill-McKee order of the
        # fixed pattern, so every tangent of the mesh lies in a narrow band.
        pattern = Csr.from_triplets(np.ones(len(entry)), row[entry], col[entry],
                                    (nr, nr))
        order = np.argsort(reverse_cuthill_mckee(pattern.indptr, pattern.indices))
        index[kept] = order[index[kept]]
        row, col = order[row[entry]], order[col[entry]]
        self.free = np.empty_like(free)
        self.free[order] = free
        self._reduction = Csr.from_triplets(sign[kept], kept, index[kept], (n, nr))
        self.n_reduced = nr
        self.bandwidth = int(np.max(row - col, initial=0))

        # Scatter of the entries on and below the diagonal into the lower
        # band storage of C^T K C, (bandwidth + 1, nr) in Fortran order: each
        # goes to the slot of its reduced row and column with the product of
        # signs, and duplicates sum.
        lower = row >= col
        self._slots, slot = np.unique(
            (row - col + (self.bandwidth + 1) * col)[lower], return_inverse=True)
        signs = (sign[tri][:, None] * sign[tri][None]).ravel()[entry]
        self._scatter = Csr.from_triplets(signs[lower], slot, entry[lower],
                                          (len(self._slots), n_entries))

    def reduce_vector(self, v):
        """Adjoint reduction C^T v (for residuals and loads, not coordinates)."""
        return self._reduction.rmatmul(v)

    def restrict(self, u_full):
        """Reduced coordinates of a conforming full vector: u_full = C restrict."""
        return np.asarray(u_full)[self.free]

    def reduce_matrix(self, blocks):
        """Lower band storage of C^T K C, K assembled from (m, 3, 3) blocks.

        Row d, column j holds entry (j + d, j), as BandCholesky reads it.
        """
        band = np.zeros((self.bandwidth + 1) * self.n_reduced)
        band[self._slots] = self._scatter @ blocks.transpose(1, 2, 0).ravel()
        return band.reshape((self.bandwidth + 1, self.n_reduced), order="F")

    def expand(self, v):
        return self._reduction @ v


@dataclass
class NewtonInfo:
    iterations: int
    residuals: list
    tolerance: float
    steps: list                 # accepted step lengths
    rejected: int               # trial steps refused by the energy test
    warm: bool                  # started from a given u0, not from zero


def newton_summary(infos):
    """Newton counts over a sequence of NewtonInfo records."""
    its = [info.iterations for info in infos]
    return {"solves": len(its), "iterations": sum(its),
            "max_iterations": max(its, default=0),
            "rejected_trials": sum(info.rejected for info in infos),
            "warm_starts": sum(info.warm for info in infos)}


class BandCholesky:
    """Cholesky factor of an SPD matrix in LAPACK lower band storage (bw + 1, n),
    factored in place if Fortran-ordered; LinAlgError if not positive definite."""

    def __init__(self, band):
        self._factor, info = _lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor not positive definite")

    def solve(self, b):
        """Solve for one right-hand side (n,) or several as columns (n, k)."""
        return _lapack.dpbtrs(self._factor, b, lower=1)[0]


def factor_tangent(space, dofmap, dh):
    """Cholesky factor of the reduced tangent of element tangents dh."""
    return BandCholesky(dofmap.reduce_matrix(space.tangent_matrix(dh)))


def newton_solve(space, dofmap, respond, load_full, u0=None, tol=1e-8,
                 max_iter=50):
    """Damped Newton for the reduced residual C^T (flux(u) - load).

    respond(B) must return new (h, dh) arrays of shapes (m, 2) and (m, 2, 2)
    on every call: a warm start keeps the dh at u0 past the call at zero.
    Convergence is relative to the residual at zero, ||F|| <= tol * ||F(0)||,
    whatever the start u0, so a warm start meets a cold start's accuracy.
    A step d is halved until F(u + alpha d) . d <= (1 - 2 sigma) |F(u) . d|,
    the trapezoid estimate of E(u + alpha d) - E(u) <= sigma alpha F(u) . d,
    exact for linear laws (whose full step passes); stagnation raises SolverError.
    Every step factors its own tangent.
    """
    warm = u0 is not None
    u = np.zeros(space.n_nodes) if u0 is None else dofmap.expand(
        dofmap.restrict(np.asarray(u0, dtype=float)))
    load_red = dofmap.reduce_vector(load_full)

    def residual(u_full):
        h, dh = respond(space.element_curl(u_full))
        return dofmap.reduce_vector(space.flux_divergence(h)) - load_red, dh

    f, dh = residual(u)
    f0 = f if u0 is None else residual(np.zeros(space.n_nodes))[0]
    tol_abs = tol * max(float(np.linalg.norm(f0)), 1e-300)
    history, steps, rejected = [float(np.linalg.norm(f))], [], 0
    if history[0] <= tol_abs:
        return u, NewtonInfo(0, history, tol_abs, steps, rejected, warm)

    for it in range(1, max_iter + 1):
        # no local keeps the factor, so it is freed before the next one is made
        try:
            step = -factor_tangent(space, dofmap, dh).solve(f)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular tangent system at Newton step {it}",
                              residual=history[-1], iterations=it) from exc
        alpha = 1.0
        u_red = dofmap.restrict(u)
        bound = (1.0 - 2.0 * NEWTON_ARMIJO) * abs(f @ step)
        while True:
            trial = dofmap.expand(u_red + alpha * step)
            f_trial, dh_trial = residual(trial)
            if f_trial @ step <= bound:
                break
            alpha *= 0.5
            rejected += 1
            if alpha < NEWTON_MIN_STEP:
                raise SolverError(
                    "Newton damping stagnated (no energy decrease)",
                    residual=history[-1], iterations=it)
        u, f, dh = trial, f_trial, dh_trial
        history.append(float(np.linalg.norm(f)))
        steps.append(alpha)
        if history[-1] <= tol_abs:
            return u, NewtonInfo(it, history, tol_abs, steps, rejected, warm)

    raise SolverError(
        f"Newton did not reach tolerance in {max_iter} iterations",
        residual=history[-1], iterations=max_iter)


def tangent_at(space, dofmap, respond, u):
    """Reduced tangent matrix assembled at a converged state, in CSC form."""
    import scipy.sparse as sp

    _, dh = respond(space.element_curl(u))
    band = dofmap.reduce_matrix(space.tangent_matrix(dh))
    lower = sp.dia_matrix((band, -np.arange(len(band))),
                          shape=(dofmap.n_reduced,) * 2)
    return (lower + sp.tril(lower, -1).T).tocsc()


def adjoint_solve(space, dofmap, respond, u, objective_gradient_full):
    """Solve K(u) p = dJ/du for the adjoint state p (full-length vector).

    The tangent is symmetric, so it is its own adjoint operator.
    """
    _, dh = respond(space.element_curl(u))
    rhs = dofmap.reduce_vector(objective_gradient_full)
    try:
        factor = factor_tangent(space, dofmap, dh)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular adjoint system") from exc
    return dofmap.expand(factor.solve(rhs))


class ScreenedSmoother:
    """Screened projection (eps*K + M) g_nodal = M_rhs g_elem on a mesh.

    Solves -eps * lap(g) + g = g_raw with natural boundary conditions, which
    preserve the integral of g_raw, on a mesh that constrains no node (such as
    MachineProblem.design_mesh). Like every tangent, the system is assembled,
    numbered and factored once by P1Space, DofMap and BandCholesky.
    """

    def __init__(self, mesh, eps):
        self.space = P1Space(mesh)
        self.dofmap = DofMap(mesh)
        self.mass = self.space.mass_matrix()
        # eps K is the tangent of dh = eps I, as curl . curl = grad . grad in 2-D
        dh = np.broadcast_to(float(eps) * np.eye(2), (mesh.n_elements, 2, 2))
        blocks = self.space.tangent_matrix(dh) + self.space.mass_blocks()
        self._factor = BandCholesky(self.dofmap.reduce_matrix(blocks))

    def smooth(self, g_elem):
        """Map element-wise values to nodal values of the mesh."""
        rhs = self.dofmap.reduce_vector(self.space.load_vector(g_elem))
        return self.dofmap.expand(self._factor.solve(rhs))

    def inner(self, a, b):
        return float(a @ (self.mass @ b))

    def norm(self, a):
        return float(np.sqrt(max(self.inner(a, a), 0.0)))
