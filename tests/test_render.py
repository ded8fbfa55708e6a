"""SVG design renders: one filled triangle per element, contour on psi = 0."""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import numpy as np

from rtopt.render import CONTOUR_STROKE, MM, render_design_svg


def test_render_content(toy_mesh):
    mesh = toy_mesh
    design_elems = mesh.elements_in("design")
    tris = mesh.triangles[design_elems]
    nodes = np.unique(tris)
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(len(nodes))
    design = rng.random(len(design_elems)) > 0.5
    doc = render_design_svg(mesh, design, psi, nodes)

    paths = re.findall(r'<path fill="([^"]+)"[^>]* d="([^"]*)"', doc)
    filled = [d for fill, d in paths if fill != "none"]
    subpaths = [re.findall(r"M[^MLZ]+L[^MLZ]+L[^MLZ]+Z", d) for d in filled]
    assert all("".join(s) == d for s, d in zip(subpaths, filled))
    assert sum(map(len, subpaths)) == mesh.n_elements

    # every contour endpoint is the zero of psi interpolated along a design
    # edge whose end values change sign (coordinates printed to 1e-3 mm)
    full = np.zeros(mesh.n_nodes)
    full[nodes] = psi
    edges = np.unique(np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                              axis=1), axis=0)
    a, b = edges[(full[edges[:, 0]] >= 0) != (full[edges[:, 1]] >= 0)].T
    t = full[a] / (full[a] - full[b])
    pts = mesh.vertices * MM
    pts[:, 1] = pts[:, 1].max() + pts[:, 1].min() - pts[:, 1]
    zeros = pts[a] + t[:, None] * (pts[b] - pts[a])

    contour = re.findall(
        rf'<path fill="none" stroke="{CONTOUR_STROKE}"[^>]* d="([^"]*)"', doc)
    assert len(contour) == 1
    ends = np.array(re.findall(r"[ML](\S+) (\S+?)(?=[ML]|$)", contour[0]),
                    dtype=float)
    pos = full[tris] >= 0
    assert len(ends) == 2 * np.count_nonzero(pos.any(1) & ~pos.all(1))
    gap = np.linalg.norm(ends[:, None, :] - zeros[None, :, :], axis=2).min(1)
    assert gap.max() <= 1e-3


def test_title_is_escaped(toy_mesh):
    # the title is the design file's base name, which may hold & and <
    design_elems = toy_mesh.elements_in("design")
    nodes = np.unique(toy_mesh.triangles[design_elems])
    doc = render_design_svg(toy_mesh, np.ones(len(design_elems), dtype=bool),
                            np.ones(len(nodes)), nodes, title="a&b<c>")
    title = ET.fromstring(doc).find("{http://www.w3.org/2000/svg}title")
    assert title.text == "a&b<c>"
