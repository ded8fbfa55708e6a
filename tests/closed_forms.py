"""Closed-form correctors of the linear transmission problem, for checking
the exterior corrector solves. Both return nodal values at `vertices`."""
from __future__ import annotations

import numpy as np


def linear_corrector(vertices, U, nu_in, nu_out):
    """Closed-form corrector of the linear transmission problem.

    Nodal values of  a * (U_perp . xi) * (1 inside, 1/|xi|^2 outside)
    with a = (nu_out - nu_in) / (nu_out + nu_in); U_perp is U rotated a
    quarter turn, which is what the curl-form weak equation requires.
    """
    a = (nu_out - nu_in) / (nu_out + nu_in)
    up = np.array([-U[1], U[0]])
    xi = vertices
    r2 = np.einsum("nd,nd->n", xi, xi)
    proj = xi @ up
    inside = r2 <= 1.0 + 1e-12
    vals = np.where(inside, proj, np.divide(proj, np.maximum(r2, 1e-300)))
    return a * vals


def truncated_corrector(vertices, radius, U, nu_in, nu_out):
    """Linear corrector of the truncated problem (zero at `radius`).

    Matching the transmission conditions of the disk-in-disk problem
    gives the dipole amplitude b = (nu_out - nu_in) / (nu_in + nu_out
    + (nu_out - nu_in)/R^2); the Dirichlet ring bends the exterior decay
    to 1/|xi|^2 - 1/R^2 and scales the inclusion slope by 1 - 1/R^2.
    """
    R2 = radius ** 2
    b = (nu_out - nu_in) / (nu_in + nu_out + (nu_out - nu_in) / R2)
    up = np.array([-U[1], U[0]])
    xi = vertices
    r2 = np.einsum("nd,nd->n", xi, xi)
    proj = xi @ up
    inside = r2 <= 1.0 + 1e-12
    shape = np.where(inside, 1.0 - 1.0 / R2,
                     np.divide(1.0, np.maximum(r2, 1e-300)) - 1.0 / R2)
    return b * proj * shape
