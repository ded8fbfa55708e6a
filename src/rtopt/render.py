"""Standalone SVG renders of machine designs.

Design elements are colored by material (iron/air), fixed regions get a
muted tint, and the zero contour of the nodal level-set field is drawn by
marching the design triangles. Coordinates are emitted in millimeters.
"""
from __future__ import annotations

import html
import io

import numpy as np

from .errors import UsageError

REGION_FILL = {
    "shaft": "#f4f4f4",
    "design": None,
    "magnet1": "#e08a4f",
    "magnet2": "#cf6f33",
    "air_gap": "#edf3fa",
    "stator_iron": "#a3a9b2",
    "coil_A": "#9dc4e6",
    "coil_B": "#b5d8a6",
    "coil_C": "#e6cb9d",
}
DESIGN_IRON_FILL = "#474c54"
DESIGN_AIR_FILL = "#ffffff"
CONTOUR_STROKE = "#c8102e"
MM = 1000.0


def _vertex_labels(points):
    """The "x y" text of every point, each coordinate printed once (%.3f)."""
    text = ("%.3f %.3f\n" * len(points)) % tuple(points.ravel().tolist())
    return np.array(text.split("\n")[:-1], dtype=object)


def _path_for(labels, triangles):
    """One closed subpath per triangle, joined from its vertices' labels."""
    return ("M%sL%sL%sZ" * len(triangles)) % tuple(labels[triangles].flat)


def _contour_segments(points, triangles, values):
    """Zero-crossing segments of a nodal field, one per mixed-sign triangle.

    Returns the endpoints as an array of shape (k, 2, 2); each segment runs
    from the first to the second crossed edge in the order 01, 12, 20.
    """
    v = np.asarray(values, dtype=float)
    pos = v[triangles] >= 0.0
    mixed = pos.any(axis=1) & ~pos.all(axis=1)
    tri = triangles[mixed]
    crossed = pos[mixed] != np.roll(pos[mixed], -1, axis=1)
    rows = np.arange(len(tri))
    ends = []
    first = np.argmax(crossed, axis=1)
    last = 2 - np.argmax(crossed[:, ::-1], axis=1)
    for edge in (first, last):
        ia, ib = tri[rows, edge], tri[rows, (edge + 1) % 3]
        t = v[ia] / (v[ia] - v[ib])
        ends.append(points[ia] + t[:, None] * (points[ib] - points[ia]))
    return np.stack(ends, axis=1)


def render_design_svg(mesh, design, psi, design_nodes, title="design"):
    """Return the SVG document for one design as a string.

    design is the per-design-element iron mask; psi, the nodal level set on
    design_nodes, gives the zero contour.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (len(design_nodes),):
        raise UsageError("level-set length does not match the design nodes")
    if not np.all(np.isfinite(psi)):
        raise UsageError("non-finite level-set values")
    pts = mesh.vertices * MM
    names = mesh.region_names
    rid = mesh.region_id

    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    pad = 0.03 * max(xmax - xmin, ymax - ymin)
    width = (xmax - xmin) + 2 * pad
    height = (ymax - ymin) + 2 * pad

    # SVG y runs downward; flip about the box's vertical center
    flipped = pts.copy()
    flipped[:, 1] = (ymax + ymin) - pts[:, 1]
    labels = _vertex_labels(flipped)

    buf = io.StringIO()
    buf.write('<svg xmlns="http://www.w3.org/2000/svg" '
              f'viewBox="{xmin - pad:.3f} {ymin - pad:.3f} '
              f'{width:.3f} {height:.3f}" '
              f'width="640" height="{640 * height / width:.0f}">\n')
    buf.write(f"<title>{html.escape(title, quote=False)}</title>\n")
    buf.write(f'<rect x="{xmin - pad:.3f}" y="{ymin - pad:.3f}" '
              f'width="{width:.3f}" height="{height:.3f}" fill="#fbfbfc"/>\n')

    hair = 0.0015 * max(width, height)
    for name in names:
        if name == "design":
            continue
        fill = REGION_FILL.get(name, "#dddddd")
        tris = mesh.triangles[rid == names.index(name)]
        if len(tris) == 0:
            continue
        buf.write(f'<path fill="{fill}" stroke="{fill}" '
                  f'stroke-width="{hair:.4f}" '
                  f'd="{_path_for(labels, tris)}"/>\n')

    tris = mesh.triangles[mesh.elements_in("design")]
    mask = np.asarray(design, dtype=bool)
    if mask.shape != (len(tris),):
        raise UsageError("design mask length does not match the mesh")
    for fill, sel in ((DESIGN_IRON_FILL, mask), (DESIGN_AIR_FILL, ~mask)):
        if not sel.any():
            continue
        buf.write(f'<path fill="{fill}" stroke="{fill}" '
                  f'stroke-width="{hair:.4f}" '
                  f'd="{_path_for(labels, tris[sel])}"/>\n')

    full = np.zeros(mesh.n_nodes)
    full[np.asarray(design_nodes)] = psi
    segs = _contour_segments(flipped, tris, full)
    if len(segs):
        d = ("M%.3f %.3fL%.3f %.3f" * len(segs)) % tuple(segs.ravel().tolist())
        buf.write(f'<path fill="none" stroke="{CONTOUR_STROKE}" '
                  f'stroke-width="{3 * hair:.4f}" '
                  f'stroke-linecap="round" d="{d}"/>\n')

    buf.write("</svg>\n")
    return buf.getvalue()


def save_design_svg(path, mesh, design, psi, design_nodes, title="design"):
    doc = render_design_svg(mesh, design, psi, design_nodes, title)
    with open(path, "w") as f:
        f.write(doc)
    return path
