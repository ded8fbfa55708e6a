"""Integrals over a ScreenedSmoother's mesh, for checking conservation."""
from __future__ import annotations

import numpy as np


def nodal_integral(smoother, a):
    """Integral of the P1 field with nodal values a over the smoother's mesh."""
    return float(np.asarray(smoother.mass.sum(axis=1)).ravel() @ a)


def elementwise_integral(smoother, g_elem):
    """Integral of the element-wise constant field g_elem over the mesh."""
    return float(smoother.space.areas @ g_elem)
