"""Run configuration: flat sectioned text files parsed into typed objects.

The format is configparser INI with five sections (geometry, material,
scenario, algorithm, output), all optional, every key typed and checked.
Angles are written in degrees with a ``_deg`` suffix and converted to
radians here; everything else is SI. Unknown sections or keys are
configuration errors so typos fail loudly instead of silently using a
default. The full grammar is documented in the README.

`KEYS` is the one table of the grammar: section -> key -> (target, field,
reader). Unknown-key detection and parsing both read it. Every reader
refuses an empty value. Only keys present in the file reach their target,
so every default lives in the target's dataclass; `_build_scenario` adds
the scenario-set defaults no dataclass holds (the ANG phase defaults and
the ones derived from ``laws.K_F``) and refuses a scenario-set key its
scenario does not read (`SET_KEYS`), as `load_config` refuses ``n_q`` in ANG.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .laws import K_F
from .machine import PHI0, ROTOR_BLOCKS, MaterialSpec, Scenario, SolverOptions
from .mesh import MachineGeometry
from .levelset import LevelSetOptions
from .robust import BallSet, IntervalSet
from .topderiv import ExteriorConfig

PSI0_MODES = ("all_iron", "random")


@dataclass
class RunConfig:
    """Everything one command needs, already validated and unit-converted."""

    geometry: MachineGeometry
    materials: MaterialSpec
    scenario: Scenario
    uncertainty: object
    exterior: ExteriorConfig
    levelset: LevelSetOptions
    solver: SolverOptions
    psi0_mode: str = "all_iron"
    smoothing_eps: float | None = None
    seed: int = 0
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.psi0_mode not in PSI0_MODES:
            raise ConfigurationError(
                f"psi0 must be one of {', '.join(PSI0_MODES)}; "
                f"got {self.psi0_mode!r}")
        if self.smoothing_eps is not None and not 0 < self.smoothing_eps < np.inf:
            raise ConfigurationError("smoothing_eps must be positive and finite")
        if not self.seed >= 0:
            raise ConfigurationError(f"seed must be non-negative; got {self.seed}")

    def table_q_range(self):
        """Knee interval the sensitivity tables must span, or None."""
        if self.scenario.binding == "knee":
            return float(self.uncertainty.lower[0]), float(self.uncertainty.upper[0])
        if self.scenario.binding == "knee_regions":
            c, r = self.uncertainty.center, self.uncertainty.radius
            return float(c.min() - r), float(c.max() + r)
        return None

    def psi0(self, n_nodes):
        if self.psi0_mode == "all_iron":
            return np.ones(n_nodes)
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal(n_nodes)


# -- readers: stripped raw string -> typed value, or _Refused("<expected>") --

class _Refused(ValueError):
    pass


def _float(v):
    try:
        x = float(v)
    except ValueError:
        x = np.nan
    if not np.isfinite(x):
        raise _Refused("a finite number")
    return x


def _int(v):
    try:
        return int(v)
    except ValueError:
        raise _Refused("an integer") from None


def _bool(v):
    low = v.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise _Refused("a boolean")


def _pair(v):
    parts = v.replace(",", " ").split()
    if len(parts) != 2:
        raise _Refused("two numbers")
    try:
        return _float(parts[0]), _float(parts[1])
    except _Refused:
        raise _Refused("two finite numbers") from None


def _text(v):
    if not v:
        raise _Refused("a non-empty value")
    return v


def _deg_pair(v):
    lo, hi = _pair(v)
    return (np.deg2rad(lo), np.deg2rad(hi))


# section -> key -> (target, field, reader); the "set" target collects the
# uncertainty-set keys `_build_scenario` reads, "run" the RunConfig fields
KEYS = {
    "geometry": {
        "magnet_r": ("geometry", "magnet_r", _pair),
        "magnet1_window_deg": ("geometry", "magnet1_window", _deg_pair),
        "magnet2_window_deg": ("geometry", "magnet2_window", _deg_pair),
        "target_nodes": ("geometry", "target_nodes", _int),
    },
    "material": {
        "iron_linear": ("materials", "iron_linear", _bool),
    },
    "scenario": {
        "name": ("scenario", "name", lambda v: _text(v).upper()),
        "n_positions": ("scenario", "n_positions", _int),
        "co_rotate_magnets": ("scenario", "co_rotate_magnets", _bool),
        "q_hat_deg": ("set", "q_hat_deg", _float),
        "interval_deg": ("set", "interval_deg", _pair),
        "q_hat_knee": ("set", "q_hat_knee", _float),
        "interval_knee": ("set", "interval_knee", _pair),
        "ellipsoid_radius": ("set", "ellipsoid_radius", _float),
    },
    "algorithm": {
        "exterior_radius": ("exterior", "radius", _float),
        "exterior_target_nodes": ("exterior", "target_nodes", _int),
        "t_max": ("exterior", "t_max", _float),
        "n_t": ("exterior", "n_t", _int),
        "n_q": ("exterior", "n_q", _int),
        "max_iterations": ("levelset", "max_iterations", _int),
        "step_init": ("levelset", "step_init", _float),
        "step_min": ("levelset", "step_min", _float),
        "newton_tol": ("solver", "newton_tol", _float),
        "psi0": ("run", "psi0_mode", lambda v: _text(v).lower()),
        "smoothing_eps": ("run", "smoothing_eps", _float),
        "seed": ("run", "seed", _int),
    },
    "output": {
        "directory": ("run", "output_dir", _text),
    },
}

# the "set" keys each scenario reads; a file setting any other one fails
SET_KEYS = {"ANG": ("q_hat_deg", "interval_deg"),
            "SCAL": ("q_hat_knee", "interval_knee"),
            "DIST": ("q_hat_knee", "ellipsoid_radius")}


def _read_sections(path):
    """Raw values of the file's keys, as section -> key -> string."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc

    raw = {}
    for name in parser.sections():
        low = name.lower()
        if low not in KEYS:
            raise ConfigurationError(f"unknown config section [{name}]")
        body = {}
        for key, value in parser.items(name):
            if key not in KEYS[low]:
                raise ConfigurationError(f"unknown key {key!r} in [{name}]")
            body[key] = value
        raw[low] = body
    return raw


def _settings(raw, target):
    """Typed values of one target's keys present in the file, by field."""
    out = {}
    for section, keys in KEYS.items():
        for key, (owner, field, read) in keys.items():
            value = raw.get(section, {}).get(key)
            if owner != target or value is None:
                continue
            try:
                out[field] = read(value)
            except _Refused as exc:
                raise ConfigurationError(
                    f"[{section}] {key}: expected {exc}, got {value!r}") from None
    return out


def _build_scenario(raw):
    settings = _settings(raw, "scenario")
    name = settings.get("name", Scenario.name)
    if name not in SET_KEYS:
        raise ConfigurationError(f"unknown scenario {name!r}")

    bounds = _settings(raw, "set")
    for key in bounds:
        if key not in SET_KEYS[name]:
            raise ConfigurationError(
                f"[scenario] {key} is not read by scenario {name}")
    if name == "ANG":
        q_hat = np.array([np.deg2rad(bounds["q_hat_deg"])
                          if "q_hat_deg" in bounds else PHI0])
        lo, hi = bounds.get("interval_deg", (-9.0, 21.0))
        if not lo < hi:
            raise ConfigurationError("phase interval must have lo < hi")
        uncertainty = IntervalSet(np.array([np.deg2rad(lo)]),
                                  np.array([np.deg2rad(hi)]))
    elif name == "SCAL":
        q_hat = np.array([bounds.get("q_hat_knee", K_F)])
        lo, hi = bounds.get("interval_knee", (0.9 * K_F, 1.1 * K_F))
        if not 0 < lo < hi:
            raise ConfigurationError("knee interval must have 0 < lo < hi")
        uncertainty = IntervalSet(np.array([lo]), np.array([hi]))
    else:
        q_hat = np.full(ROTOR_BLOCKS + 1, bounds.get("q_hat_knee", K_F))
        radius = bounds.get("ellipsoid_radius", 0.1 * K_F)
        if radius <= 0 or radius >= q_hat.min():
            raise ConfigurationError(
                "ellipsoid radius must be positive and keep knees positive")
        uncertainty = BallSet(q_hat.copy(), radius)

    scen = Scenario(q_hat=q_hat, **settings)
    if not uncertainty.contains(q_hat, 1e-9):
        raise ConfigurationError(
            "nominal parameter vector lies outside the uncertainty set")
    return scen, uncertainty


def load_config(path):
    """Parse and validate one run configuration file."""
    raw = _read_sections(path)
    geometry = MachineGeometry(**_settings(raw, "geometry"))
    materials = MaterialSpec(**_settings(raw, "materials"))
    scenario, uncertainty = _build_scenario(raw)
    sampling = _settings(raw, "exterior")
    # ANG samples the one knee K_F; a knee scenario's axis needs both ends
    if scenario.binding == "phase" and "n_q" in sampling:
        raise ConfigurationError(
            f"[algorithm] n_q is not read by scenario {scenario.name}")
    if scenario.binding != "phase" and sampling.get("n_q", ExteriorConfig.n_q) < 2:
        raise ConfigurationError(
            f"[algorithm] n_q: scenario {scenario.name} needs at least 2 knees")
    exterior = ExteriorConfig(**sampling)
    levelset = LevelSetOptions(**_settings(raw, "levelset"))
    solver = SolverOptions(**_settings(raw, "solver"))

    cfg = RunConfig(geometry=geometry, materials=materials, scenario=scenario,
                    uncertainty=uncertainty, exterior=exterior,
                    levelset=levelset, solver=solver,
                    **_settings(raw, "run"))

    root = os.environ.get("RTOPT_OUTPUT_ROOT")
    if root and not os.path.isabs(cfg.output_dir):
        cfg.output_dir = os.path.join(root, cfg.output_dir)
    return cfg
