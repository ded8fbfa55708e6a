"""Triangle meshes: the machine sector benchmark and graded half disks.

All meshes are conforming P1 triangulations described by one `Mesh` value.
Region membership is a per-triangle integer into `region_names`.
Antiperiodic node pairing is stored explicitly as (master, slave) index
arrays with the convention u[slave] = -u[master].
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError, UsageError, check_counts

# Region labels of the benchmark machine sector.
MACHINE_REGIONS = (
    "design", "stator_iron", "magnet1", "magnet2",
    "coil_A", "coil_B", "coil_C", "air_gap", "shaft",
)

# the meshed sector is one pole pitch; the machine has 2 * POLE_PAIRS poles
POLE_PAIRS = 4
SECTOR = np.pi / POLE_PAIRS

# fixed radii (m): shaft, design annulus, air gap, stator, coil band
R_SHAFT = 0.020
R_DESIGN = 0.050
R_GAP_OUTER = 0.051
R_OUTER = 0.080
COIL_R = (0.052, 0.064)

# the three winding slots: region, angular window, phase offset, slot sign
COILS = (("coil_A", (np.deg2rad(1.0), np.deg2rad(13.0)), 0.0, +1.0),
         ("coil_B", (np.deg2rad(16.0), np.deg2rad(28.0)), 2 * np.pi / 3, -1.0),
         ("coil_C", (np.deg2rad(31.0), np.deg2rad(43.0)), 4 * np.pi / 3, +1.0))


@dataclass
class Mesh:
    vertices: np.ndarray          # (n, 2) float64, meters
    triangles: np.ndarray         # (m, 3) int32, CCW
    region_id: np.ndarray         # (m,) int16
    region_names: tuple
    pair_master: np.ndarray       # (p,) int32
    pair_slave: np.ndarray        # (p,) int32
    dirichlet_nodes: np.ndarray   # (d,) int32
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.triangles.shape[0]

    def region_index(self, name):
        try:
            return self.region_names.index(name)
        except ValueError:
            raise KeyError(f"mesh has no region named {name!r}") from None

    def elements_in(self, name):
        return np.flatnonzero(self.region_id == self.region_index(name))

    def centroids(self):
        return self.vertices[self.triangles].mean(axis=1)

    def fingerprint(self):
        """Stable digest of the geometry, used to pair persisted fields with meshes."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        h.update(np.ascontiguousarray(self.triangles).tobytes())
        h.update(np.ascontiguousarray(self.region_id).tobytes())
        return h.hexdigest()[:16]


def _orient_ccw(vertices, triangles):
    p = vertices[triangles]
    det = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
           - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flip = det < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


# ---------------------------------------------------------------------------
# polar helpers

def _ring_nodes(radii, thetas):
    """Node array for a full polar grid: origin excluded, ring-major order."""
    r = np.repeat(radii, len(thetas))
    t = np.tile(thetas, len(radii))
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def _polar_triangles(n_rings, n_theta):
    """Central fan and two triangles per cell of a `_ring_nodes` sector grid.

    Node 1 + ring * n_theta + j sits on ring `ring` at angle index j, node 0
    at the origin; each ring has n_theta - 1 cells.
    """
    j = np.arange(n_theta - 1)
    fan = np.column_stack([np.zeros_like(j), 1 + j, 2 + j])
    a = 1 + n_theta * np.arange(n_rings - 1)[:, None] + j
    b, c, d = a + 1, a + n_theta, a + n_theta + 1
    cells = np.stack([np.stack([a, b, d], axis=-1),
                      np.stack([a, d, c], axis=-1)], axis=2)
    return np.vstack([fan, cells.reshape(-1, 3)]).astype(np.int32)


def _band_radii(r0, r1, dr, minimum=1):
    k = max(minimum, int(round((r1 - r0) / dr)))
    return np.linspace(r0, r1, k + 1)


def _closest_count(target, sizes, count):
    """Size in sizes whose count(size) is closest to target, the smaller on a tie.

    count must increase strictly over sizes, so the answer is the first size
    whose count reaches target, found by bisection, or the size before it.
    """
    i = min(bisect.bisect_left(sizes, target, key=count), len(sizes) - 1)
    if i and target - count(sizes[i - 1]) <= count(sizes[i]) - target:
        i -= 1
    return sizes[i]


# ---------------------------------------------------------------------------
# graded half disk (exterior corrector domain)

def graded_disk_mesh(radius, target_nodes):
    """Upper half of a disk of given radius with a resolved unit inclusion at
    the origin.

    Rings are uniform inside the inclusion and geometric outside so element
    aspect ratios stay near one. meta["n_theta"] angular steps span the full
    circle, chosen so that the full disk the half stands for has a node count
    near target (within a factor two); the half holds n_theta / 2 of them.
    The nodes on the x axis (the origin and both ends of every ring) and on
    the outer arc are Dirichlet: the corrector meshed here is odd in y.
    """
    if radius <= 1.0:
        raise ConfigurationError("disk radius must exceed the unit inclusion radius")
    if target_nodes < 60:
        raise ConfigurationError("graded_disk_mesh needs target_nodes >= 60")

    # full-disk nodes ~= n_t * (n_inner + ln(R)/dtheta), dtheta = 2 pi / n_t
    lnR = np.log(radius)

    def rings(n_t):
        dth = 2 * np.pi / n_t
        return (max(3, int(round(1.0 / dth))),
                max(2, int(np.ceil(lnR / np.log1p(dth)))))

    n_t = _closest_count(target_nodes, range(8, 4096, 2),
                         lambda n_t: 1 + n_t * sum(rings(n_t)))
    n_inner, n_outer = rings(n_t)

    inner = np.linspace(0.0, 1.0, n_inner + 1)[1:]
    ratio = radius ** (1.0 / n_outer)
    outer = ratio ** np.arange(1, n_outer + 1)
    outer[-1] = radius
    radii = np.concatenate([inner, outer])
    n_half = n_t // 2 + 1
    thetas = np.arange(n_half) * (2 * np.pi / n_t)

    verts = np.vstack([[[0.0, 0.0]], _ring_nodes(radii, thetas)])
    tris = _polar_triangles(len(radii), n_half)

    cent = verts[tris].mean(axis=1)
    rc = np.hypot(cent[:, 0], cent[:, 1])
    region = np.where(rc < 1.0, 0, 1).astype(np.int16)

    # the axis by ring index: the node at theta = pi has y ~ 1e-16 r
    first = 1 + n_half * np.arange(len(radii))
    return Mesh(
        vertices=verts,
        triangles=_orient_ccw(verts, tris),
        region_id=region,
        region_names=("inclusion", "exterior"),
        pair_master=np.zeros(0, dtype=np.int32),
        pair_slave=np.zeros(0, dtype=np.int32),
        dirichlet_nodes=np.concatenate([
            [0], first, first + n_half - 1,
            first[-1] + np.arange(1, n_half - 1)]).astype(np.int32),
        meta={"kind": "graded_disk", "radius": float(radius), "n_theta": n_t},
    )


# ---------------------------------------------------------------------------
# machine sector benchmark

@dataclass(frozen=True)
class MachineGeometry:
    """The rotor magnets and mesh size of one pole (meters/radians).

    The layout is a stand-in with the qualitative features of an interior
    permanent magnet machine: shaft, design annulus with two magnet pockets,
    air gap, stator with three coil slots. The stator and the winding are
    the module constants above; angular windows are (lo, hi) pairs within
    the sector, which is one pole pitch (SECTOR).
    """

    magnet_r: tuple = (0.040, 0.047)
    magnet1_window: tuple = (np.deg2rad(4.0), np.deg2rad(18.0))
    magnet2_window: tuple = (np.deg2rad(27.0), np.deg2rad(41.0))
    target_nodes: int = 4000

    def __post_init__(self):
        if not (R_SHAFT <= self.magnet_r[0] < self.magnet_r[1] <= R_DESIGN):
            raise ConfigurationError("magnet band must sit inside the design annulus")
        check_counts(target_nodes=self.target_nodes)
        if not self.target_nodes >= 200:
            raise ConfigurationError("target_nodes too small for the machine sector")
        for lo, hi in (self.magnet1_window, self.magnet2_window):
            if not (0.0 <= lo < hi <= SECTOR):
                raise ConfigurationError("angular window outside the sector")
        (lo1, hi1), (lo2, hi2) = self.magnet1_window, self.magnet2_window
        if lo1 < hi2 and lo2 < hi1:
            raise ConfigurationError(
                f"magnet1_window {np.rad2deg(lo1):g}, {np.rad2deg(hi1):g} deg "
                f"overlaps magnet2_window {np.rad2deg(lo2):g}, {np.rad2deg(hi2):g} deg")


def _machine_ring_radii(geo, m_ang):
    """Ring radii: band boundaries are exact rings, spacing tracks r*dtheta."""
    dth = SECTOR / m_ang
    bands = [
        (R_SHAFT, geo.magnet_r[0], 1),
        (geo.magnet_r[0], geo.magnet_r[1], 1),
        (geo.magnet_r[1], R_DESIGN, 1),
        (R_DESIGN, R_GAP_OUTER, 3),
        (R_GAP_OUTER, COIL_R[0], 1),
        (COIL_R[0], COIL_R[1], 1),
        (COIL_R[1], R_OUTER, 1),
    ]
    # the shaft is magnetically passive; a handful of rings is plenty
    radii = [np.geomspace(R_SHAFT / 4, R_SHAFT, max(4, m_ang // 6))]
    for r0, r1, kmin in bands:
        if r1 <= r0:
            # coincident band boundaries (e.g. magnets flush with the gap)
            continue
        dr = dth * 0.5 * (r0 + r1)
        radii.append(_band_radii(r0, r1, dr, minimum=kmin)[1:])
    return np.concatenate(radii)


def build_machine_mesh(geo=None):
    """Mesh one 45-degree pole; returns a Mesh with the nine machine regions."""
    geo = geo or MachineGeometry()

    # calibrate the angular count so node totals land near the target
    m_ang = _closest_count(
        geo.target_nodes, range(6, 600),
        lambda m: 1 + len(_machine_ring_radii(geo, m)) * (m + 1))

    radii = _machine_ring_radii(geo, m_ang)
    thetas = np.linspace(0.0, SECTOR, m_ang + 1)
    verts = np.vstack([[[0.0, 0.0]], _ring_nodes(radii, thetas)])
    n_t = m_ang + 1
    tris = _polar_triangles(len(radii), n_t)

    cent = verts[tris].mean(axis=1)
    rc = np.hypot(cent[:, 0], cent[:, 1])
    tc = np.arctan2(cent[:, 1], cent[:, 0])

    def in_window(win):
        return (tc >= win[0]) & (tc < win[1])

    region = np.full(len(tris), MACHINE_REGIONS.index("shaft"), dtype=np.int16)
    design_band = (rc >= R_SHAFT) & (rc < R_DESIGN)
    region[design_band] = MACHINE_REGIONS.index("design")
    magnet_band = design_band & (rc >= geo.magnet_r[0]) & (rc < geo.magnet_r[1])
    region[magnet_band & in_window(geo.magnet1_window)] = MACHINE_REGIONS.index("magnet1")
    region[magnet_band & in_window(geo.magnet2_window)] = MACHINE_REGIONS.index("magnet2")
    region[(rc >= R_DESIGN) & (rc < R_GAP_OUTER)] = MACHINE_REGIONS.index("air_gap")
    stator_band = rc >= R_GAP_OUTER
    region[stator_band] = MACHINE_REGIONS.index("stator_iron")
    coil_band = stator_band & (rc >= COIL_R[0]) & (rc < COIL_R[1])
    for name, window, _, _ in COILS:
        region[coil_band & in_window(window)] = MACHINE_REGIONS.index(name)

    # straight sector edges: theta=0 is the master side, theta=sector the slave
    masters = (1 + n_t * np.arange(len(radii))).astype(np.int32)
    slaves = masters + m_ang
    outer_nodes = masters[-1] + np.arange(n_t, dtype=np.int32)
    # the apex sits on both straight edges, so antiperiodicity pins it to zero
    dirich = np.concatenate([[0], outer_nodes]).astype(np.int32)
    is_dirich = np.zeros(len(verts), dtype=bool)
    is_dirich[dirich] = True
    keep = ~is_dirich[masters] & ~is_dirich[slaves]

    mesh = Mesh(
        vertices=verts,
        triangles=_orient_ccw(verts, tris),
        region_id=region,
        region_names=MACHINE_REGIONS,
        pair_master=masters[keep],
        pair_slave=slaves[keep],
        dirichlet_nodes=dirich,
        meta={"kind": "machine_sector", "m_ang": m_ang},
    )
    for name in MACHINE_REGIONS:
        if len(mesh.elements_in(name)) == 0:
            raise ConfigurationError(
                f"meshed machine has an empty region {name!r}; "
                "increase target_nodes or widen the window")
    return mesh


# ---------------------------------------------------------------------------
# conforming disc patches (perturbation meshes for sensitivity audits)

def _zip_rings(ids_out, ang_out, ids_in, ang_in):
    """Triangulate the annulus between two node rings ordered by angle."""
    n_o, n_i = len(ids_out), len(ids_in)
    base = ang_out[0]
    a = np.mod(ang_out - base, 2 * np.pi)
    b_raw = np.mod(ang_in - base, 2 * np.pi)
    shift = int(np.argmin(b_raw))
    ids_in = np.roll(ids_in, -shift)
    b = np.roll(b_raw, -shift)
    tris = []
    i = j = 0
    while i < n_o or j < n_i:
        a_next = a[i + 1] if i + 1 < n_o else a[0] + 2 * np.pi
        b_next = b[j + 1] if j + 1 < n_i else b[0] + 2 * np.pi
        if i < n_o and (j >= n_i or a_next <= b_next):
            tris.append((ids_out[i], ids_in[j % n_i],
                         ids_out[(i + 1) % n_o]))
            i += 1
        else:
            tris.append((ids_out[i % n_o], ids_in[j % n_i],
                         ids_in[(j + 1) % n_i]))
            j += 1
    return tris


def refine_disc_patch(mesh, center, radius, cavity):
    """Remesh a neighborhood of one point so a disc of the given radius is an
    exact union of elements.

    Elements with a vertex inside the cavity radius are carved out and
    refilled with a polar fan: uniform rings through the circle itself, then
    geometrically growing rings out to the cavity rim so the local field
    perturbation stays resolved even when the disc is much smaller than the
    ambient elements. All touched elements must belong to the design region
    and stay clear of boundaries and interface rings. Returns the new mesh,
    the ids of the elements tiling the disc, and the mask of the old elements
    that were kept; they precede the patch in the new ordering.
    """
    center = np.asarray(center, dtype=float)
    if radius <= 0:
        raise UsageError("disc radius must be positive")
    if cavity < 1.2 * radius:
        raise UsageError("cavity radius must exceed the disc radius")
    target = mesh.region_index("design")
    dist = np.hypot(mesh.vertices[:, 0] - center[0],
                    mesh.vertices[:, 1] - center[1])
    cut = dist < cavity
    remove = cut[mesh.triangles].any(axis=1)
    if not remove.any():
        raise UsageError("disc patch does not overlap any element")
    if np.any(mesh.region_id[remove] != target):
        raise UsageError("disc patch overlaps a region boundary; "
                         "move the sample point or shrink the radius")

    kept = ~remove
    kept_tris = mesh.triangles[kept]
    used = np.zeros(mesh.n_nodes, dtype=bool)
    used[kept_tris.ravel()] = True
    removed_nodes = np.unique(mesh.triangles[remove].ravel())
    stranded = removed_nodes[~used[removed_nodes]]
    special = np.concatenate([mesh.dirichlet_nodes, mesh.pair_master,
                              mesh.pair_slave])
    if np.isin(stranded, special).any():
        raise UsageError("disc patch would remove a constrained node")

    ring = removed_nodes[used[removed_nodes]]
    if len(ring) < 4:
        raise UsageError("disc patch cavity is too small to remesh")
    rel = mesh.vertices[ring] - center
    ring_r = np.hypot(rel[:, 0], rel[:, 1])
    if ring_r.min() <= radius * (1 + 1e-9):
        raise UsageError("cavity rim touches the disc; increase margin")
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    ring = ring[order]
    ring_ang = np.arctan2(rel[order, 1], rel[order, 0])

    # polar fill: uniform rings through the circle, geometric rings out to
    # the rim so the perturbation field stays resolved past the disc
    n_seg = 48
    n_inner = 6
    radii = [radius * k / n_inner for k in range(1, n_inner + 1)]
    r_k = radius
    while 1.32 * r_k < 0.8 * ring_r.min():
        r_k *= 1.32
        radii.append(r_k)

    old_index = np.full(mesh.n_nodes, -1, dtype=np.int64)
    old_index[used] = np.arange(used.sum())
    new_verts = [mesh.vertices[used]]
    next_id = used.sum()

    ring_ids, ring_angles = [], []
    for k, r_k in enumerate(radii):
        n_k = n_seg if k >= n_inner else max(6, round(n_seg * (k + 1) / n_inner))
        ang = 2 * np.pi * (np.arange(n_k) + 0.5 * (k % 2)) / n_k
        pts = center + r_k * np.column_stack([np.cos(ang), np.sin(ang)])
        ids = np.arange(next_id, next_id + n_k)
        next_id += n_k
        new_verts.append(pts)
        ring_ids.append(ids)
        ring_angles.append(ang)
    center_id = next_id
    next_id += 1
    new_verts.append(center[None, :])

    patch = [(center_id, ring_ids[0][j], ring_ids[0][(j + 1) % len(ring_ids[0])])
             for j in range(len(ring_ids[0]))]
    for k in range(len(ring_ids) - 1):
        strip = _zip_rings(ring_ids[k + 1], ring_angles[k + 1],
                           ring_ids[k], ring_angles[k])
        patch.extend(strip)
        if k == n_inner - 2:
            n_disc = len(patch)
    patch.extend(_zip_rings(old_index[ring], ring_ang,
                            ring_ids[-1], ring_angles[-1]))

    verts = np.vstack(new_verts)
    tris = np.vstack([old_index[kept_tris],
                      np.asarray(patch, dtype=np.int64)]).astype(np.int32)
    region_id = np.concatenate([
        mesh.region_id[kept],
        np.full(len(patch), target, dtype=np.int16)])
    tris = _orient_ccw(verts, tris)

    out = Mesh(
        vertices=verts,
        triangles=tris,
        region_id=region_id,
        region_names=mesh.region_names,
        pair_master=old_index[mesh.pair_master].astype(np.int32),
        pair_slave=old_index[mesh.pair_slave].astype(np.int32),
        dirichlet_nodes=old_index[mesh.dirichlet_nodes].astype(np.int32),
        meta=dict(mesh.meta),
    )
    n_kept = int(kept.sum())
    disc = np.arange(n_kept, n_kept + n_disc, dtype=np.int64)
    cen = out.centroids()[disc]
    inside = np.hypot(cen[:, 0] - center[0], cen[:, 1] - center[1]) < radius
    if not inside.all():
        raise SolverError("disc patch triangulation leaked outside the circle")
    return out, disc, kept
