"""Run configurations: a corrupted config loads or raises ConfigurationError."""
from __future__ import annotations

import logging
import logging.handlers
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopt.cli import main
from rtopt.config import RunConfig, load_config
from rtopt.errors import ConfigurationError
from rtopt.levelset import LevelSetOptions
from rtopt.machine import MaterialSpec, Scenario, SolverOptions
from rtopt.mesh import MachineGeometry
from rtopt.robust import BallSet, InnerParams
from rtopt.topderiv import ExteriorConfig

ROOT = Path(__file__).resolve().parents[1]
TOY = ROOT / "configs" / "toy.cfg"

# line edits: (kind, line position in [0, 1), second position, replacement)
LINE_EDITS = st.lists(st.tuples(
    st.sampled_from(["delete", "duplicate", "swap_values", "set_value"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
    st.one_of(st.sampled_from(["", "abc", "nan", "-inf", "1e999", "1,", "0x10",
                               "true", "-3", "0", "2.5", "1, 2, 3", "[x]"]),
              st.text(max_size=8))), max_size=4)
# byte edits: (kind, position in [0, 1), byte), as for the saved-file readers
BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["cut", "flip", "insert"]),
                                st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(0, 255)), max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


def test_empty_config_keeps_dataclass_defaults(workdir):
    path = workdir / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.geometry == MachineGeometry()
    assert cfg.materials == MaterialSpec()
    assert cfg.exterior == ExteriorConfig()
    assert cfg.levelset == LevelSetOptions()
    assert cfg.inner == InnerParams()
    assert cfg.solver == SolverOptions()


def _valid_settings(cls):
    """Constructor arguments of one valid option object of type cls."""
    if cls is BallSet:
        return dict(center=[1.0, 2.0], radius=0.5)
    if cls is not RunConfig:
        return {}
    return dict(geometry=MachineGeometry(), materials=MaterialSpec(),
                scenario=Scenario(), uncertainty=None,
                exterior=ExteriorConfig(), levelset=LevelSetOptions(),
                inner=InnerParams(), solver=SolverOptions())


# one refused value per option type, with its message
BAD_VALUES = [
    (LevelSetOptions, {"max_iterations": 0}, "max_iterations must be at least 1"),
    (InnerParams, {"max_iterations": 0}, "inner_max_iterations >= 1"),
    (ExteriorConfig, {"n_t": 1}, "need at least two flux magnitudes"),
    (MachineGeometry, {"r_shaft": 0.06}, "machine radii must be strictly"),
    (Scenario, {"n_positions": 0}, "at least one rotor position"),
    (MaterialSpec, {"n_f": 1}, "material constants out of range"),
    (SolverOptions, {"newton_tol": 0.0}, "newton controls out of range"),
    (RunConfig, {"seed": -1}, "seed must be non-negative"),
]
# values no `x <= 0`-style comparison refuses, with the id of each case
NON_FINITE = [
    ("MaterialSpec-k_f", MaterialSpec, {"k_f": np.nan},
     "material constants out of range"),
    ("MaterialSpec-nu_f", MaterialSpec, {"nu_f": np.nan},
     "material constants out of range"),
    ("SolverOptions-nan", SolverOptions, {"newton_tol": np.nan},
     "newton controls out of range"),
    ("LevelSetOptions-nan", LevelSetOptions, {"angle_tol_deg": np.nan},
     "angle tolerance must be positive"),
    ("ExteriorConfig-t_max", ExteriorConfig, {"t_max": np.nan},
     "t_max must be positive"),
    ("ExteriorConfig-radius", ExteriorConfig, {"radius": np.inf},
     "exterior truncation radius must be finite"),
    ("InnerParams-nan", InnerParams, {"step_tol": np.nan},
     "need inner_step_tol > 0"),
    ("Scenario-nan", Scenario, {"name": "ANG", "q_hat": [np.nan]},
     "scenario ANG nominal q must be finite"),
    ("MachineGeometry-nan", MachineGeometry, {"r_design": np.nan},
     "machine radii must be strictly"),
    ("RunConfig-nan", RunConfig, {"smoothing_eps": np.nan},
     "smoothing_eps must be positive"),
    ("BallSet-center", BallSet, {"center": [0.0, np.nan]},
     "ball center must be finite, its radius positive"),
    ("BallSet-radius-nan", BallSet, {"radius": np.nan},
     "ball center must be finite, its radius positive"),
    ("BallSet-radius-negative", BallSet, {"radius": -1.0},
     "ball center must be finite, its radius positive"),
]


@pytest.mark.parametrize(
    "cls, bad, message", BAD_VALUES + [case[1:] for case in NON_FINITE],
    ids=[cls.__name__ for cls, _, _ in BAD_VALUES] + [c[0] for c in NON_FINITE])
def test_option_objects_are_checked_when_built(cls, bad, message):
    # a library caller that builds an option object gets the configuration
    # error there, not a solver failure at the object's first use
    kwargs = _valid_settings(cls)
    with pytest.raises(ConfigurationError, match=message):
        cls(**{**kwargs, **bad})
    if is_dataclass(cls):
        with pytest.raises(ConfigurationError, match=message):
            replace(cls(**kwargs), **bad)


def _edit_lines(lines, kind, a, b, text):
    i, j = int(a * len(lines)), int(b * len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif "=" in lines[i]:
        key, value = lines[i].split("=", 1)
        if kind == "set_value":
            lines[i] = f"{key}= {text}"
        elif "=" in lines[j]:
            other_key, other_value = lines[j].split("=", 1)
            lines[i], lines[j] = f"{key}={other_value}", f"{other_key}={value}"


@settings(max_examples=200, deadline=None)
@given(line_edits=LINE_EDITS, byte_edits=BYTE_EDITS)
def test_corrupted_config_loads_or_exits_2(workdir, line_edits, byte_edits):
    lines = TOY.read_text().splitlines()
    for edit in line_edits:
        if lines:
            _edit_lines(lines, *edit)
    data = bytearray("\n".join(lines).encode() + b"\n")
    for kind, where, byte in byte_edits:
        i = int(where * len(data))
        if kind == "cut":
            del data[i:]
        elif kind == "flip" and data:
            data[i] = byte
        elif kind == "insert":
            data.insert(i, byte)
    path = workdir / "corrupt.cfg"
    path.write_bytes(bytes(data))
    try:
        load_config(path)
    except ConfigurationError:
        pass
    else:
        return
    # the command line refuses the same file with a message, not a traceback
    messages = logging.handlers.BufferingHandler(capacity=100)
    logger = logging.getLogger("rtopt.cli")
    logger.addHandler(messages)
    try:
        assert main(["precompute-td", str(path)]) == 2
    finally:
        logger.removeHandler(messages)
    assert [r.levelno for r in messages.buffer] == [logging.ERROR]
    assert messages.buffer[0].getMessage()


@pytest.mark.parametrize("line, message", [
    ("seed = -1", "seed"),
    ("inner_step_tol = 0", "inner_step_tol"),
    ("inner_max_iterations = 0", "inner_max_iterations"),
], ids=["negative_seed", "zero_step_tol", "no_iterations"])
def test_out_of_range_setting_exits_2(workdir, caplog, line, message):
    # a negative seed reached the RNG
    kept = "" if line.startswith("seed") else "seed = 0\n"
    path = workdir / "range.cfg"
    path.write_text(TOY.read_text().replace("seed = 0\n", f"{kept}{line}\n"))
    with pytest.raises(ConfigurationError):
        load_config(path)
    assert main(["optimize", str(path)]) == 2
    assert message in caplog.text


# the step rules of the descent and the inner ascent, at their old defaults
REMOVED_KEYS = [("step_max", "1.0"), ("step_shrink", "0.5"),
                ("step_grow", "1.5"), ("tau_min", "1e-3"), ("tau_max", "1.0"),
                ("tau_shrink", "0.5"), ("tau_grow", "1.5"),
                ("sufficient_increase", "0.1")]


@pytest.mark.parametrize("key, value", REMOVED_KEYS + [
    ("tau_shrink", "1"), ("tau_shrink", "0"), ("tau_grow", "0.5"),
], ids=[key for key, _ in REMOVED_KEYS]
    + ["shrink_one", "shrink_zero", "grow_below_one"])
def test_fixed_step_rule_is_not_a_key(workdir, caplog, key, value):
    # the step rules are module constants (levelset.STEP_*, robust.TAU_* and
    # GAMMA), so a file that sets one exits 2 at any value, as it had to at
    # tau_shrink = 1, which let the inner ascent repeat a refused trial forever
    path = workdir / "removed.cfg"
    path.write_text(TOY.read_text().replace(
        "seed = 0\n", f"seed = 0\n{key} = {value}\n"))
    message = f"unknown key '{key}' in [algorithm]"
    with pytest.raises(ConfigurationError) as refused:
        load_config(path)
    assert str(refused.value) == message
    caplog.clear()
    assert main(["optimize", str(path)]) == 2
    assert message in caplog.text


def test_sector_is_not_a_key(workdir, caplog):
    # the winding, the pole count and the antiperiodic pairing fix the sector
    # at one pole pitch; at 90 degrees the machine still solved, wrongly
    path = workdir / "sector.cfg"
    path.write_text(TOY.read_text().replace(
        "[geometry]\n", "[geometry]\nsector_deg = 45\n"))
    message = "unknown key 'sector_deg' in [geometry]"
    with pytest.raises(ConfigurationError) as refused:
        load_config(path)
    assert str(refused.value) == message
    caplog.clear()
    assert main(["audit", "--kind", "sweep", str(path)]) == 2
    assert message in caplog.text


ANG_KEYS = "q_hat_deg = -60.0\ninterval_deg = -75.0, -45.0\n"


@pytest.mark.parametrize("scenario, line", [
    ("ANG", "ellipsoid_radius = 99"),
    ("ANG", "interval_knee = 5, 1"),
    ("ANG", "q_hat_knee = -3"),
    ("NOM", "interval_deg = 5, -5"),
    ("SCAL", "q_hat_deg = 6"),
    ("SCAL", "ellipsoid_radius = 0.2"),
    ("DIST", "interval_knee = 2.0, 2.4"),
], ids=["ang_radius", "ang_knee_interval", "ang_knee", "nom_interval",
        "scal_phase", "scal_radius", "dist_knee_interval"])
def test_foreign_scenario_key_is_refused(workdir, scenario, line):
    # a set key the scenario does not read is refused at any value, so a
    # typo or a left-over key cannot silently leave the set at its default
    kept = ANG_KEYS if scenario == "ANG" else ""
    path = workdir / "foreign.cfg"
    path.write_text(TOY.read_text().replace("name = ANG\n", f"name = {scenario}\n")
                    .replace(ANG_KEYS, kept + line + "\n"))
    key = line.split(" =")[0]
    with pytest.raises(ConfigurationError) as refused:
        load_config(path)
    assert str(refused.value) == (
        f"[scenario] {key} is not read by scenario {scenario}")


def test_shipped_and_benchmark_configs_load(tmp_path, perfbench_workloads):
    # a key left in a shipped config or a benchmark template after its
    # removal would make every run of it exit 2
    paths = sorted((ROOT / "configs").glob("*.cfg"))
    for name, workload in perfbench_workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.cfg"
        workload.write_config(path, 1, tmp_path / name)
        paths.append(path)
    assert {path.stem for path in paths} >= {
        "toy", "yoke", "audit3k", "benchmark", *perfbench_workloads.WORKLOADS}
    for path in paths:
        load_config(path)
