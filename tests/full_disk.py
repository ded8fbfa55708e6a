"""The full disk that a graded_disk_mesh half disk stands for.

The corrector is solved on the upper half disk because it is odd in y; the
full disk, with every node free but the outer ring, is the oracle of that
reduction.
"""
from __future__ import annotations

import numpy as np

from rtopt.mesh import Mesh


def mirrored_disk(half):
    """The half disk and its mirror image across the x axis, as one mesh.

    Returns (mesh, mirror), mirror[i] being node i's image. The half's nodes
    keep their indices and the images of its off-axis nodes follow in the
    same order. The axis is read from the ring layout: node
    1 + ring * n_half + j sits at angle index j, and j = 0 and j = n_half - 1
    are on the axis (the node at theta = pi has y ~ 1e-16 r). The
    inclusion's elements come first, upper then lower, and only the outer
    ring is Dirichlet.
    """
    n_nodes = half.n_nodes
    n_half = half.meta["n_theta"] // 2 + 1
    j = (np.arange(n_nodes) - 1) % n_half       # the origin: n_half - 1
    off = np.flatnonzero((j > 0) & (j < n_half - 1))
    mirror = np.arange(n_nodes + len(off))
    mirror[off] = n_nodes + np.arange(len(off))
    mirror[n_nodes:] = off

    upper = half.triangles
    lower = mirror[upper][:, [0, 2, 1]]          # reflected, still CCW
    inc = half.region_id == half.region_index("inclusion")
    outer = n_nodes - n_half + np.arange(n_half)
    mesh = Mesh(
        vertices=np.vstack([half.vertices, half.vertices[off] * [1.0, -1.0]]),
        triangles=np.vstack([upper[inc], lower[inc], upper[~inc],
                             lower[~inc]]).astype(np.int32),
        region_id=np.concatenate([half.region_id[inc]] * 2
                                 + [half.region_id[~inc]] * 2),
        region_names=half.region_names,
        pair_master=np.zeros(0, dtype=np.int32),
        pair_slave=np.zeros(0, dtype=np.int32),
        dirichlet_nodes=np.union1d(outer, mirror[outer]).astype(np.int32),
        meta=dict(half.meta, kind="graded_full_disk"),
    )
    return mesh, mirror
