"""Mesh construction, region bookkeeping, disc-patch surgery."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from rtopt import mesh as mesh_module
from rtopt.config import load_config
from rtopt.errors import ConfigurationError, UsageError
from rtopt.fem import DofMap, P1Space
from rtopt.mesh import (R_OUTER, SECTOR, MachineGeometry, build_machine_mesh,
                        graded_disk_mesh, refine_disc_patch)
from full_disk import mirrored_disk
from square_mesh import unit_square_mesh

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_unit_square_counts_and_area():
    mesh = unit_square_mesh(4)
    assert mesh.n_nodes == 25
    assert mesh.n_elements == 32
    areas = P1Space(mesh).areas
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-14)
    # every boundary node is Dirichlet
    assert len(mesh.dirichlet_nodes) == 16


def test_graded_disk_basic():
    mesh = graded_disk_mesh(128.0, 3000)
    # the upper half of a disk near the target's node count
    assert 750 <= mesh.n_nodes <= 3000
    areas = P1Space(mesh).areas
    assert np.all(areas > 0)
    assert np.all(mesh.vertices[:, 1] >= 0.0)
    inc = mesh.elements_in("inclusion")
    assert areas[inc].sum() == pytest.approx(np.pi / 2, rel=5e-3)
    # the elements go ring by ring from the centre: the inclusion first
    assert np.array_equal(inc, np.arange(len(inc)))
    # Dirichlet: the x axis (two nodes per ring and the origin) and the
    # outer arc between its ends
    x, y = mesh.vertices.T
    n_rings = (mesh.n_nodes - 1) // (mesh.meta["n_theta"] // 2 + 1)
    axis = np.abs(y) <= 1e-12 * 128.0
    arc = np.isclose(np.hypot(x, y), 128.0, rtol=1e-12, atol=0.0)
    assert axis.sum() == 1 + 2 * n_rings
    assert np.array_equal(np.sort(mesh.dirichlet_nodes),
                          np.flatnonzero(axis | arc))


def test_graded_disk_mirror_symmetry():
    # the half disk and its mirror image are the full disk of n_theta steps
    half = graded_disk_mesh(64.0, 1500)
    mesh, _ = mirrored_disk(half)
    pts = {(round(x, 9), round(y, 9)) for x, y in mesh.vertices}
    assert all((x, -y) in pts for x, y in pts)
    n_rings = (half.n_nodes - 1) // (half.meta["n_theta"] // 2 + 1)
    assert mesh.n_nodes == len(pts) == 1 + n_rings * half.meta["n_theta"]
    assert P1Space(mesh).areas.sum() == pytest.approx(np.pi * 64.0**2,
                                                      rel=5e-3)


def test_disk_mirror_is_the_mesh_reflection():
    half = graded_disk_mesh(64.0, 1500)
    mesh, mirror = mirrored_disk(half)
    node = np.arange(mesh.n_nodes)
    assert np.array_equal(mirror[mirror], node)
    assert np.allclose(mesh.vertices[mirror], mesh.vertices * [1.0, -1.0],
                       rtol=0.0, atol=1e-12 * 64.0)
    # the reflection maps triangles onto triangles
    tris = {frozenset(t) for t in mesh.triangles.tolist()}
    assert {frozenset(t) for t in mirror[mesh.triangles].tolist()} == tris
    # its fixed points are the origin and two nodes per ring, on the x axis:
    # the half disk's Dirichlet nodes off the outer arc
    fixed = node[mirror == node]
    assert len(fixed) == 1 + 2 * (half.n_nodes - 1) // (
        half.meta["n_theta"] // 2 + 1)
    assert np.all(np.abs(mesh.vertices[fixed, 1]) <= 1e-12 * 64.0)
    assert set(fixed) <= set(half.dirichlet_nodes)


def test_machine_regions_and_pairs():
    mesh = build_machine_mesh(MachineGeometry(target_nodes=1200))
    for name in mesh.region_names:
        assert len(mesh.elements_in(name)) > 0, name
    # antiperiodic partner nodes share the radius across the sector rotation
    vm = mesh.vertices[mesh.pair_master]
    vs = mesh.vertices[mesh.pair_slave]
    assert np.allclose(np.hypot(*vm.T), np.hypot(*vs.T), rtol=1e-12)
    assert np.allclose(np.arctan2(vm[:, 1], vm[:, 0]), 0.0, atol=1e-12)
    assert np.allclose(np.arctan2(vs[:, 1], vs[:, 0]), SECTOR, rtol=1e-9)
    # sector area, polygon deficit allowed
    assert P1Space(mesh).areas.sum() == pytest.approx(0.5 * SECTOR * R_OUTER**2,
                                                      rel=1e-2)


def test_machine_mesh_deterministic():
    a = build_machine_mesh(MachineGeometry(target_nodes=1200))
    b = build_machine_mesh(MachineGeometry(target_nodes=1200))
    assert a.fingerprint() == b.fingerprint()
    assert np.array_equal(a.vertices, b.vertices)


# mesh digests of the shipped configs: a fixed radius or slot window that
# drifts from its value moves at least one of them
SHIPPED_FINGERPRINTS = {"toy": "dfa2c898f63651f2", "yoke": "d4cdc65e10f17e92",
                        "audit3k": "17aeb6680fb40a02",
                        "benchmark": "391b378fbd955ab0"}


@pytest.mark.parametrize("name, digest", SHIPPED_FINGERPRINTS.items(),
                         ids=list(SHIPPED_FINGERPRINTS))
def test_shipped_config_meshes_are_pinned(name, digest):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    assert build_machine_mesh(cfg.geometry).fingerprint() == digest


def _closest_count_scan(target, sizes, count):
    """Reference search: every size in turn, up to 2.5x the target."""
    best = None
    for size in sizes:
        n = count(size)
        if best is None or abs(n - target) < abs(best[0] - target):
            best = (n, size)
        if n > 2.5 * target:
            break
    return best[1]


def test_closest_count_bisection_matches_the_scan():
    sizes = range(3, 40)
    for count in (lambda s: 2 * s, lambda s: s * s + 1, lambda s: 10 * s):
        # from below the first count to above the last, ties included
        for target in range(0, 2 * count(sizes[-1])):
            assert (mesh_module._closest_count(target, sizes, count)
                    == _closest_count_scan(target, sizes, count)), target


def test_mesh_builders_size_as_the_scan(monkeypatch):
    # both callers' counts grow strictly with the size, so bisection picks
    # the size the scan picks; each search is checked where it happens
    bisect_search = mesh_module._closest_count
    searches = []

    def checked(target, sizes, count):
        size = bisect_search(target, sizes, count)
        searches.append((target, size, _closest_count_scan(target, sizes,
                                                           count)))
        return size

    monkeypatch.setattr(mesh_module, "_closest_count", checked)
    machine_targets = [*range(200, 16001, 479), 1200, 3000, 4000]
    disk_targets = [*range(60, 30001, 907), 2000, 4000, 8000]
    for target in machine_targets:
        build_machine_mesh(MachineGeometry(target_nodes=target))
    build_machine_mesh(MachineGeometry(magnet_r=(0.040, 0.050),
                                       target_nodes=2500))
    for target in disk_targets:
        graded_disk_mesh(128.0, target)
    graded_disk_mesh(2.0, 3000)
    assert len(searches) == len(machine_targets) + len(disk_targets) + 2
    assert all(size == scan for _, size, scan in searches), searches


def test_machine_geometry_validation():
    with pytest.raises(ConfigurationError):
        MachineGeometry(magnet_r=(0.01, 0.047))
    with pytest.raises(ConfigurationError, match="outside the sector"):
        MachineGeometry(magnet2_window=(0.2, 1.2))
    # overlapping magnet windows are refused in either order; touching ones
    # (yoke.cfg's layout) are not, as windows are half open
    deg = np.deg2rad
    with pytest.raises(ConfigurationError,
                       match="magnet1_window 4, 30 deg overlaps magnet2_window 27, 41 deg"):
        MachineGeometry(magnet1_window=(deg(4.0), deg(30.0)))
    with pytest.raises(ConfigurationError, match="overlaps"):
        MachineGeometry(magnet1_window=(deg(30.0), deg(44.0)),
                        magnet2_window=(deg(4.0), deg(31.0)))
    MachineGeometry(magnet1_window=(deg(4.0), deg(27.0)))


@pytest.fixture(scope="module")
def sector():
    return build_machine_mesh(MachineGeometry(target_nodes=1200))


def test_disc_patch_geometry(sector):
    design = sector.elements_in("design")
    areas = P1Space(sector).areas
    h = float(np.sqrt(2.0 * areas[design].mean()))
    center = 0.03 * np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    eps = 2.0 * h
    mesh2, disc, _ = refine_disc_patch(sector, center, eps, cavity=7 * h)

    areas2 = P1Space(mesh2).areas
    assert np.all(areas2 > 0)
    assert areas2.sum() == pytest.approx(areas.sum(), rel=1e-12)
    # the disc is tiled exactly (up to the 48-gon deficit) and stays inside
    assert areas2[disc].sum() == pytest.approx(np.pi * eps**2, rel=5e-3)
    cen = mesh2.centroids()[disc]
    assert np.all(np.hypot(cen[:, 0] - center[0], cen[:, 1] - center[1]) < eps)
    # only the design region was touched
    names = mesh2.region_names
    for name in names:
        a0 = areas[sector.elements_in(name)].sum()
        a1 = areas2[mesh2.elements_in(name)].sum()
        assert a1 == pytest.approx(a0, rel=1e-12), name
        if name != "design":
            assert len(mesh2.elements_in(name)) == len(sector.elements_in(name))


def test_disc_patch_keeps_constraints_usable(sector):
    design = sector.elements_in("design")
    h = float(np.sqrt(2.0 * P1Space(sector).areas[design].mean()))
    center = 0.03 * np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    mesh2, _, _ = refine_disc_patch(sector, center, h, cavity=7 * h)
    P1Space(mesh2)
    dm = DofMap(mesh2)
    assert dm.n_reduced < mesh2.n_nodes
    assert len(mesh2.pair_master) == len(sector.pair_master)


def test_disc_patch_rejections(sector):
    h = 7e-4
    with pytest.raises(UsageError):
        refine_disc_patch(sector, (0.03, 0.01), 2 * h, cavity=2.1 * h)
    # magnet band boundary sits at r = 0.040
    with pytest.raises(UsageError):
        refine_disc_patch(sector, (0.040, 0.008), 2 * h, cavity=7 * h)
    with pytest.raises(UsageError):
        refine_disc_patch(sector, (0.03, 0.01), -1.0, cavity=7 * h)
    # a cavity reaching the antiperiodic ray would strand constrained nodes
    with pytest.raises(UsageError):
        refine_disc_patch(sector, (0.03, 0.002), 2 * h, cavity=7 * h)
