"""Run configuration: flat sectioned text files parsed into typed objects.

The format is configparser INI with five sections (geometry, material,
scenario, algorithm, output), all optional, every key typed and checked.
Angles are written in degrees with a ``_deg`` suffix and converted to
radians here; everything else is SI. Unknown sections or keys are
configuration errors so typos fail loudly instead of silently using a
default. The full grammar is documented in the README.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .machine import ROTOR_BLOCKS, MaterialSpec, Scenario, SolverOptions
from .mesh import MachineGeometry
from .levelset import LevelSetOptions
from .robust import BallSet, IntervalSet, InnerParams
from .topderiv import ExteriorConfig

PSI0_MODES = ("all_iron", "all_air", "random")

_SECTIONS = {
    "geometry": {
        "r_shaft", "r_design", "r_gap_outer", "r_outer", "sector_deg",
        "magnet_r", "magnet1_window_deg", "magnet2_window_deg", "coil_r",
        "coil_a_window_deg", "coil_b_window_deg", "coil_c_window_deg",
        "target_nodes",
    },
    "material": {
        "iron_linear", "nu_f", "k_f", "n_f", "j_peak", "phi0_deg", "b_r",
    },
    "scenario": {
        "name", "n_positions", "q_hat_deg", "interval_deg", "q_hat_knee",
        "interval_knee", "ellipsoid_radius", "co_rotate_magnets",
        "frozen_alpha_deg",
    },
    "algorithm": {
        "t_max", "n_t", "n_q", "exterior_radius", "exterior_target_nodes",
        "max_iterations", "angle_tol_deg", "step_init", "step_min",
        "step_max", "step_shrink", "step_grow", "inner_step_tol", "tau_min",
        "tau_max", "tau_shrink", "tau_grow", "sufficient_increase",
        "inner_max_iterations", "newton_tol", "newton_max_iter", "psi0",
        "smoothing_eps", "seed",
    },
    "output": {"directory", "snapshot_interval"},
}


@dataclass
class RunConfig:
    """Everything one command needs, already validated and unit-converted."""

    geometry: MachineGeometry
    materials: MaterialSpec
    scenario: Scenario
    uncertainty: object
    exterior: ExteriorConfig
    levelset: LevelSetOptions
    inner: InnerParams
    solver: SolverOptions
    psi0_mode: str = "all_iron"
    smoothing_eps: float | None = None
    seed: int = 0
    output_dir: str = "runs/out"
    snapshot_interval: int = 10
    source_path: str | None = None

    def table_q_range(self):
        """Knee interval the sensitivity tables must span, or None."""
        if self.scenario.binding == "knee":
            return self.uncertainty.lower[0], self.uncertainty.upper[0]
        if self.scenario.binding == "knee_regions":
            c, r = self.uncertainty.center, self.uncertainty.radius
            return float(c.min() - r), float(c.max() + r)
        return None

    def psi0(self, n_nodes):
        if self.psi0_mode == "all_iron":
            return np.ones(n_nodes)
        if self.psi0_mode == "all_air":
            return -np.ones(n_nodes)
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal(n_nodes)


class _Section:
    """Typed accessors over one raw section dict, with key bookkeeping."""

    def __init__(self, name, raw):
        self.name = name
        self.raw = raw

    def _fetch(self, key):
        return self.raw.get(key)

    def get_float(self, key, default=None):
        v = self._fetch(key)
        if v is None or v == "":
            return default
        try:
            x = float(v)
        except ValueError:
            x = None
        if x is None or not np.isfinite(x):
            raise ConfigurationError(
                f"[{self.name}] {key}: expected a finite number, got {v!r}")
        return x

    def get_int(self, key, default=None):
        v = self._fetch(key)
        if v is None or v == "":
            return default
        try:
            return int(v)
        except ValueError:
            raise ConfigurationError(
                f"[{self.name}] {key}: expected an integer, got {v!r}") from None

    def get_bool(self, key, default=None):
        v = self._fetch(key)
        if v is None or v == "":
            return default
        low = v.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(
            f"[{self.name}] {key}: expected a boolean, got {v!r}")

    def get_pair(self, key, default=None):
        v = self._fetch(key)
        if v is None or v == "":
            return default
        parts = [p for p in v.replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ConfigurationError(
                f"[{self.name}] {key}: expected two numbers, got {v!r}")
        try:
            pair = float(parts[0]), float(parts[1])
        except ValueError:
            pair = None
        if pair is None or not np.all(np.isfinite(pair)):
            raise ConfigurationError(
                f"[{self.name}] {key}: expected two finite numbers, got {v!r}")
        return pair

    def get_str(self, key, default=None):
        v = self._fetch(key)
        if v is None or v == "":
            return default
        return v.strip()


def _deg_pair(pair):
    return (np.deg2rad(pair[0]), np.deg2rad(pair[1]))


def _read_sections(path):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc

    sections = {}
    for name in parser.sections():
        low = name.lower()
        if low not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{name}]")
        body = {}
        for key, value in parser.items(name):
            if key not in _SECTIONS[low]:
                raise ConfigurationError(f"unknown key {key!r} in [{name}]")
            body[key] = value
        sections[low] = body
    return {name: _Section(name, sections.get(name, {})) for name in _SECTIONS}


def _build_geometry(sec):
    kw = {}
    for key in ("r_shaft", "r_design", "r_gap_outer", "r_outer"):
        v = sec.get_float(key)
        if v is not None:
            kw[key] = v
    v = sec.get_float("sector_deg")
    if v is not None:
        kw["sector"] = np.deg2rad(v)
    for key, target in (("magnet_r", "magnet_r"), ("coil_r", "coil_r")):
        v = sec.get_pair(key)
        if v is not None:
            kw[target] = v
    for key, target in (("magnet1_window_deg", "magnet1_window"),
                        ("magnet2_window_deg", "magnet2_window"),
                        ("coil_a_window_deg", "coil_A_window"),
                        ("coil_b_window_deg", "coil_B_window"),
                        ("coil_c_window_deg", "coil_C_window")):
        v = sec.get_pair(key)
        if v is not None:
            kw[target] = _deg_pair(v)
    v = sec.get_int("target_nodes")
    if v is not None:
        kw["target_nodes"] = v
    geo = MachineGeometry(**kw)
    geo.validate()
    return geo


def _build_materials(sec):
    kw = {}
    for key in ("nu_f", "k_f", "j_peak", "b_r"):
        v = sec.get_float(key)
        if v is not None:
            kw[key] = v
    v = sec.get_int("n_f")
    if v is not None:
        kw["n_f"] = v
    v = sec.get_bool("iron_linear")
    if v is not None:
        kw["iron_linear"] = v
    v = sec.get_float("phi0_deg")
    if v is not None:
        kw["phi0"] = np.deg2rad(v)
    spec = MaterialSpec(**kw)
    if spec.nu_f <= 0 or spec.k_f <= 0 or spec.n_f < 2:
        raise ConfigurationError("material constants out of range")
    return spec


def _build_scenario(sec, spec):
    name = (sec.get_str("name", "NOM") or "NOM").upper()
    if name not in ("NOM", "ANG", "SCAL", "DIST"):
        raise ConfigurationError(f"unknown scenario name {name!r}")
    n_positions = sec.get_int("n_positions", 11)
    co_rotate = sec.get_bool("co_rotate_magnets", False)
    frozen = sec.get_float("frozen_alpha_deg")
    frozen = None if frozen is None else np.deg2rad(frozen)

    uncertainty = None
    if name == "NOM":
        q_hat = np.zeros(0)
    elif name == "ANG":
        q_hat = np.array([np.deg2rad(sec.get_float("q_hat_deg", 6.0))])
        lo, hi = sec.get_pair("interval_deg", (-9.0, 21.0))
        if not lo < hi:
            raise ConfigurationError("phase interval must have lo < hi")
        uncertainty = IntervalSet(np.array([np.deg2rad(lo)]),
                                  np.array([np.deg2rad(hi)]))
    elif name == "SCAL":
        q_hat = np.array([sec.get_float("q_hat_knee", spec.k_f)])
        lo, hi = sec.get_pair("interval_knee",
                              (0.9 * spec.k_f, 1.1 * spec.k_f))
        if not 0 < lo < hi:
            raise ConfigurationError("knee interval must have 0 < lo < hi")
        uncertainty = IntervalSet(np.array([lo]), np.array([hi]))
    else:
        q_hat = np.full(ROTOR_BLOCKS + 1, sec.get_float("q_hat_knee", spec.k_f))
        radius = sec.get_float("ellipsoid_radius", 0.1 * spec.k_f)
        if radius <= 0 or radius >= q_hat.min():
            raise ConfigurationError(
                "ellipsoid radius must be positive and keep knees positive")
        uncertainty = BallSet(q_hat.copy(), radius)

    scen = Scenario(name=name, n_positions=n_positions, q_hat=q_hat,
                    co_rotate_magnets=bool(co_rotate), frozen_alpha=frozen)
    scen.validate()
    if uncertainty is not None and not uncertainty.contains(q_hat, 1e-9):
        raise ConfigurationError(
            "nominal parameter vector lies outside the uncertainty set")
    return scen, uncertainty


def _build_algorithm(sec):
    ext = ExteriorConfig(
        radius=sec.get_float("exterior_radius", 128.0),
        target_nodes=sec.get_int("exterior_target_nodes", 60000),
        t_max=sec.get_float("t_max", 5.0),
        n_t=sec.get_int("n_t", 50),
        n_q=sec.get_int("n_q", 10),
    )
    ext.validate()
    ls = LevelSetOptions(
        max_iterations=sec.get_int("max_iterations", 100),
        angle_tol_deg=sec.get_float("angle_tol_deg", 2.0),
        step_init=sec.get_float("step_init", 0.5),
        step_min=sec.get_float("step_min", 0.05),
        step_max=sec.get_float("step_max", 1.0),
        step_shrink=sec.get_float("step_shrink", 0.5),
        step_grow=sec.get_float("step_grow", 1.5),
    )
    ls.validate()
    inner = InnerParams(
        step_tol=sec.get_float("inner_step_tol", 1e-3),
        tau_min=sec.get_float("tau_min", 1e-3),
        tau_max=sec.get_float("tau_max", 1.0),
        tau_shrink=sec.get_float("tau_shrink", 0.5),
        tau_grow=sec.get_float("tau_grow", 1.5),
        gamma=sec.get_float("sufficient_increase", 0.1),
        max_iterations=sec.get_int("inner_max_iterations", 100),
    )
    inner.validate()
    solver = SolverOptions(newton_tol=sec.get_float("newton_tol", 1e-8),
                           newton_max_iter=sec.get_int("newton_max_iter", 50))
    if solver.newton_tol <= 0 or solver.newton_max_iter < 1:
        raise ConfigurationError("newton controls out of range")

    psi0_mode = (sec.get_str("psi0", "all_iron") or "all_iron").lower()
    if psi0_mode not in PSI0_MODES:
        raise ConfigurationError(
            f"psi0 must be one of {', '.join(PSI0_MODES)}; got {psi0_mode!r}")
    smoothing_eps = sec.get_float("smoothing_eps")
    if smoothing_eps is not None and smoothing_eps <= 0:
        raise ConfigurationError("smoothing_eps must be positive")
    seed = sec.get_int("seed", 0)
    return ext, ls, inner, solver, psi0_mode, smoothing_eps, seed


def load_config(path):
    """Parse and validate one run configuration file."""
    secs = _read_sections(path)
    geometry = _build_geometry(secs["geometry"])
    materials = _build_materials(secs["material"])
    scenario, uncertainty = _build_scenario(secs["scenario"], materials)
    (exterior, levelset, inner, solver,
     psi0_mode, smoothing_eps, seed) = _build_algorithm(secs["algorithm"])

    out = secs["output"]
    output_dir = out.get_str("directory", "runs/out")
    snapshot_interval = out.get_int("snapshot_interval", 10)
    if snapshot_interval < 1:
        raise ConfigurationError("snapshot_interval must be at least 1")

    root = os.environ.get("RTOPT_OUTPUT_ROOT")
    if root and not os.path.isabs(output_dir):
        output_dir = os.path.join(root, output_dir)

    return RunConfig(geometry=geometry, materials=materials,
                     scenario=scenario, uncertainty=uncertainty,
                     exterior=exterior, levelset=levelset, inner=inner,
                     solver=solver, psi0_mode=psi0_mode,
                     smoothing_eps=smoothing_eps, seed=seed,
                     output_dir=output_dir,
                     snapshot_interval=snapshot_interval,
                     source_path=os.path.abspath(path))
