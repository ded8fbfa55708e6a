"""SVG design renders: one filled triangle per element, contour on psi = 0."""
from __future__ import annotations

import html
import io
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rtopt.errors import UsageError
from rtopt.render import (CONTOUR_STROKE, DESIGN_AIR_FILL, DESIGN_IRON_FILL,
                          MM, REGION_FILL, _contour_segments,
                          render_design_svg)


def _reference_path_for(points, triangles):
    """Reference subpaths: six %.3f conversions per triangle."""
    xy = points[triangles].ravel().tolist()
    return ("M%.3f %.3fL%.3f %.3fL%.3f %.3fZ" * len(triangles)) % tuple(xy)


def _reference_svg(mesh, design, psi, design_nodes, title="design"):
    """Reference render: each triangle formats its own vertices."""
    pts = mesh.vertices * MM
    names, rid = mesh.region_names, mesh.region_id
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    pad = 0.03 * max(xmax - xmin, ymax - ymin)
    width = (xmax - xmin) + 2 * pad
    height = (ymax - ymin) + 2 * pad
    flipped = pts.copy()
    flipped[:, 1] = (ymax + ymin) - pts[:, 1]
    buf = io.StringIO()
    buf.write('<svg xmlns="http://www.w3.org/2000/svg" '
              f'viewBox="{xmin - pad:.3f} {ymin - pad:.3f} '
              f'{width:.3f} {height:.3f}" '
              f'width="640" height="{640 * height / width:.0f}">\n')
    buf.write(f"<title>{html.escape(title, quote=False)}</title>\n")
    buf.write(f'<rect x="{xmin - pad:.3f}" y="{ymin - pad:.3f}" '
              f'width="{width:.3f}" height="{height:.3f}" fill="#fbfbfc"/>\n')
    hair = 0.0015 * max(width, height)
    fills = [(REGION_FILL.get(name, "#dddddd"),
              mesh.triangles[rid == names.index(name)])
             for name in names if name != "design"]
    tris = mesh.triangles[mesh.elements_in("design")]
    mask = np.asarray(design, dtype=bool)
    fills += [(DESIGN_IRON_FILL, tris[mask]), (DESIGN_AIR_FILL, tris[~mask])]
    for fill, sel in fills:
        if len(sel):
            buf.write(f'<path fill="{fill}" stroke="{fill}" '
                      f'stroke-width="{hair:.4f}" '
                      f'd="{_reference_path_for(flipped, sel)}"/>\n')
    full = np.zeros(mesh.n_nodes)
    full[np.asarray(design_nodes)] = np.asarray(psi, dtype=float)
    segs = _contour_segments(flipped, tris, full)
    if len(segs):
        d = ("M%.3f %.3fL%.3f %.3f" * len(segs)) % tuple(segs.ravel().tolist())
        buf.write(f'<path fill="none" stroke="{CONTOUR_STROKE}" '
                  f'stroke-width="{3 * hair:.4f}" '
                  f'stroke-linecap="round" d="{d}"/>\n')
    buf.write("</svg>\n")
    return buf.getvalue()


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


@pytest.mark.parametrize("kind", ["random", "all_iron", "all_air"])
def test_render_matches_the_per_triangle_reference(toy_mesh, kind):
    # each vertex is printed once and joined into its triangles' subpaths;
    # the text of one float is the same either way, so the bytes are too
    design_elems = toy_mesh.elements_in("design")
    nodes = np.unique(toy_mesh.triangles[design_elems])
    rng = np.random.default_rng({"random": 21, "all_iron": 22,
                                 "all_air": 23}[kind])
    for _ in range(3):
        psi = rng.standard_normal(len(nodes))
        design = {"random": rng.random(len(design_elems)) > 0.5,
                  "all_iron": np.ones(len(design_elems), dtype=bool),
                  "all_air": np.zeros(len(design_elems), dtype=bool)}[kind]
        doc = render_design_svg(toy_mesh, design, psi, nodes, title=kind)
        assert doc == _reference_svg(toy_mesh, design, psi, nodes, title=kind)


@pytest.mark.parametrize("case", ["one", "short", "long", "nan", "inf"])
def test_render_refuses_a_bad_level_set(toy_mesh, case):
    design_elems = toy_mesh.elements_in("design")
    nodes = np.unique(toy_mesh.triangles[design_elems])
    psi = {"one": np.ones(1), "short": np.ones(len(nodes) - 1),
           "long": np.ones(len(nodes) + 1),
           "nan": np.where(np.arange(len(nodes)) == 3, np.nan, 1.0),
           "inf": np.where(np.arange(len(nodes)) == 3, -np.inf, 1.0)}[case]
    with pytest.raises(UsageError, match="level-set"):
        render_design_svg(toy_mesh, np.ones(len(design_elems), dtype=bool),
                          psi, nodes)
