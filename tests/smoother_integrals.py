"""Integrals over a ScreenedSmoother's mesh, for checking conservation, and
the P1 mass matrix assembled by scipy.sparse as an oracle for rtopt.fem."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def mass_matrix(space):
    """Consistent P1 mass matrix of a P1Space, assembled by scipy.sparse."""
    tri, n = space.mesh.triangles, space.n_nodes
    return sp.csr_matrix((space.mass_blocks().ravel(),
                          (np.repeat(tri, 3, axis=1).ravel(),
                           np.tile(tri, (1, 3)).ravel())), shape=(n, n))


def nodal_integral(smoother, a):
    """Integral of the P1 field with nodal values a over the smoother's mesh."""
    return float(np.asarray(mass_matrix(smoother.space).sum(axis=1)).ravel() @ a)


def elementwise_integral(smoother, g_elem):
    """Integral of the element-wise constant field g_elem over the mesh."""
    return float(smoother.space.areas @ g_elem)
