"""Structured unit-square mesh for manufactured-solution and kernel tests."""
from __future__ import annotations

import numpy as np

from rtopt.mesh import Mesh


def unit_square_mesh(n):
    """Structured n-by-n triangulation of [0,1]^2, all-Dirichlet boundary."""
    assert n >= 1
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([xv.ravel(), yv.ravel()])

    def nid(i, j):
        return i * (n + 1) + j

    # counter-clockwise by construction: a -> b is +x, b -> c is +y
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris = np.asarray(tris, dtype=np.int32)

    on_bnd = ((verts[:, 0] == 0.0) | (verts[:, 0] == 1.0)
              | (verts[:, 1] == 0.0) | (verts[:, 1] == 1.0))
    return Mesh(
        vertices=verts,
        triangles=tris,
        region_id=np.zeros(len(tris), dtype=np.int16),
        region_names=("domain",),
        pair_master=np.zeros(0, dtype=np.int32),
        pair_slave=np.zeros(0, dtype=np.int32),
        dirichlet_nodes=np.flatnonzero(on_bnd).astype(np.int32),
        meta={"kind": "unit_square", "n": n},
    )
