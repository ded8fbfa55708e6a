"""Run configurations: a corrupted config loads or raises ConfigurationError."""
from __future__ import annotations

import logging
import logging.handlers
import re
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopt.cli import main
from rtopt.config import KEYS, PSI0_MODES, RunConfig, load_config
from rtopt.errors import ConfigurationError
from rtopt.levelset import LevelSetOptions
from rtopt.machine import (BINDINGS, PHI0, MaterialSpec, Scenario,
                           SolverOptions)
from rtopt.mesh import MachineGeometry
from rtopt.robust import BallSet, IntervalSet
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
    assert cfg.solver == SolverOptions()


def test_config_without_scenario_is_ang_at_phi0(workdir):
    # nominal is a mode, not a scenario: a config that names none runs ANG
    # at the machine's load angle, with ANG's default interval around it
    path = workdir / "no_scenario.cfg"
    text = TOY.read_text()
    start, end = text.index("[scenario]"), text.index("[algorithm]")
    path.write_text(text[:start] + text[end:])
    cfg = load_config(path)
    assert cfg.scenario.name == Scenario.name == "ANG"
    assert np.array_equal(cfg.scenario.q_hat, [PHI0])
    assert isinstance(cfg.uncertainty, IntervalSet)
    assert np.array_equal(cfg.uncertainty.lower, np.deg2rad([-9.0]))
    assert np.array_equal(cfg.uncertainty.upper, np.deg2rad([21.0]))


def _valid_settings(cls):
    """Constructor arguments of one valid option object of type cls."""
    if cls is BallSet:
        return dict(center=[1.0, 2.0], radius=0.5)
    if cls is not RunConfig:
        return {}
    return dict(geometry=MachineGeometry(), materials=MaterialSpec(),
                scenario=Scenario(), uncertainty=None,
                exterior=ExteriorConfig(), levelset=LevelSetOptions(),
                solver=SolverOptions())


# one refused value per option type, with its message
BAD_VALUES = [
    (LevelSetOptions, {"max_iterations": 0}, "max_iterations must be at least 1"),
    (ExteriorConfig, {"n_t": 1}, "need at least two flux magnitudes"),
    (MachineGeometry, {"magnet_r": (0.01, 0.047)}, "magnet band must sit inside"),
    (Scenario, {"n_positions": 0}, "at least one rotor position"),
    (SolverOptions, {"newton_tol": 0.0}, "newton controls out of range"),
    (RunConfig, {"seed": -1}, "seed must be non-negative"),
]
# values no `x <= 0`-style comparison refuses, with the id of each case
NON_FINITE = [
    ("SolverOptions-nan", SolverOptions, {"newton_tol": np.nan},
     "newton controls out of range"),
    ("SolverOptions-inf", SolverOptions, {"newton_tol": np.inf},
     "newton controls out of range"),
    ("LevelSetOptions-nan", LevelSetOptions, {"step_min": np.nan},
     "need 0 < step_min <= step_init <= 1"),
    ("ExteriorConfig-t_max", ExteriorConfig, {"t_max": np.nan},
     "t_max must be positive"),
    ("ExteriorConfig-t_max-inf", ExteriorConfig, {"t_max": np.inf},
     "t_max must be positive and finite"),
    ("ExteriorConfig-radius", ExteriorConfig, {"radius": np.inf},
     "exterior truncation radius must be finite"),
    ("Scenario-nan", Scenario, {"name": "ANG", "q_hat": [np.nan]},
     "scenario ANG nominal q must be finite"),
    ("MachineGeometry-nan", MachineGeometry, {"magnet_r": (np.nan, 0.047)},
     "magnet band must sit inside"),
    ("RunConfig-nan", RunConfig, {"smoothing_eps": np.nan},
     "smoothing_eps must be positive"),
    ("RunConfig-inf", RunConfig, {"smoothing_eps": np.inf},
     "smoothing_eps must be positive and finite"),
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


# count fields: inf, a fraction and a bool each passed every range check
COUNTS = [(Scenario, "n_positions"), (LevelSetOptions, "max_iterations"),
          (ExteriorConfig, "n_t"), (ExteriorConfig, "n_q"),
          (ExteriorConfig, "target_nodes"), (MachineGeometry, "target_nodes")]
NON_INTEGER = [(cls, name, value) for cls, name in COUNTS
               for value in (np.inf, 2.5, True)]


@pytest.mark.parametrize(
    "cls, name, value", NON_INTEGER,
    ids=[f"{cls.__name__}-{name}-{value}" for cls, name, value in NON_INTEGER])
def test_counts_must_be_integers(cls, name, value):
    # Scenario(n_positions=2.5) solved three positions past the sweep and
    # n_positions=inf failed in numpy; numpy integers stay counts
    kwargs = _valid_settings(cls)
    with pytest.raises(ConfigurationError,
                       match=f"{name} must be an integer; got {value!r}"):
        cls(**{**kwargs, name: value})
    count = getattr(cls(**kwargs), name)
    assert getattr(cls(**{**kwargs, name: np.int64(count)}), name) == count


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
    ("step_min = 0", "step_min"),
    ("max_iterations = 0", "max_iterations"),
    ("psi0 = all_air", "psi0 must be one of all_iron, random"),
], ids=["negative_seed", "zero_step_tol", "no_iterations", "psi0_all_air"])
def test_out_of_range_setting_exits_2(workdir, caplog, line, message):
    # a negative seed reached the RNG; the line replaces the toy's own value
    key = line.split(" =")[0]
    lines = [x for x in TOY.read_text().splitlines() if not x.startswith(key)]
    at = lines.index("[algorithm]") + 1
    path = workdir / "range.cfg"
    path.write_text("\n".join(lines[:at] + [line] + lines[at:]) + "\n")
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


# the stator, the winding, the load angle, the material constants and the
# algorithm settings no run varied, at their old defaults
FIXED_MACHINE_KEYS = [
    ("geometry", "sector_deg", "45"), ("geometry", "r_shaft", "0.020"),
    ("geometry", "r_design", "0.050"), ("geometry", "r_gap_outer", "0.051"),
    ("geometry", "r_outer", "0.080"), ("geometry", "coil_r", "0.052, 0.064"),
    ("geometry", "coil_a_window_deg", "1, 13"),
    ("geometry", "coil_b_window_deg", "16, 28"),
    ("geometry", "coil_c_window_deg", "31, 43"), ("material", "phi0_deg", "6"),
    ("material", "nu_f", "200"), ("material", "k_f", "2.2"),
    ("material", "n_f", "12"), ("material", "j_peak", "23.7e6"),
    ("material", "b_r", "1.216"), ("algorithm", "angle_tol_deg", "2.0"),
    ("algorithm", "inner_step_tol", "1e-3"),
    ("algorithm", "inner_max_iterations", "100"),
    ("algorithm", "newton_max_iter", "50"),
    ("output", "snapshot_interval", "10"),
]


@pytest.mark.parametrize("section, key, value", FIXED_MACHINE_KEYS,
                         ids=[key for _, key, _ in FIXED_MACHINE_KEYS])
def test_fixed_machine_data_is_not_a_key(workdir, caplog, section, key, value):
    # the pole pitch, the radii, the coil slots (mesh.R_*, COIL_R, COILS),
    # the load angle (machine.PHI0), the material constants (laws.NU_F,
    # K_F, N_F, B_R, machine.J_PEAK) and the fixed algorithm settings
    # (levelset.ANGLE_TOL, robust.STEP_TOL and MAX_ITERATIONS,
    # machine.NEWTON_MAX_ITER, cli.SNAPSHOT_INTERVAL) are module constants:
    # only the rotor's iron layout is designed, and at a 90 degree sector the
    # machine solved, wrongly
    path = workdir / "fixed.cfg"
    path.write_text(TOY.read_text().replace(
        f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    message = f"unknown key '{key}' in [{section}]"
    with pytest.raises(ConfigurationError) as refused:
        load_config(path)
    assert str(refused.value) == message
    caplog.clear()
    assert main(["optimize", str(path)]) == 2
    assert message in caplog.text


# one key per reader, with what the reader expects
EMPTY_VALUES = [
    ("geometry", "target_nodes", "an integer"),
    ("geometry", "magnet_r", "two numbers"),
    ("geometry", "magnet1_window_deg", "two numbers"),
    ("material", "iron_linear", "a boolean"),
    ("scenario", "name", "a non-empty value"),
    ("algorithm", "t_max", "a finite number"),
    ("algorithm", "psi0", "a non-empty value"),
    ("output", "directory", "a non-empty value"),
]


@pytest.mark.parametrize("section, key, expected", EMPTY_VALUES,
                         ids=[key for _, key, _ in EMPTY_VALUES])
def test_empty_value_exits_2(workdir, caplog, section, key, expected):
    # an empty value ran with the default: "n_positions =" solved 11
    # positions and "directory =" wrote to runs/out
    lines = [line for line in TOY.read_text().splitlines()
             if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    path = workdir / "empty_value.cfg"
    path.write_text("\n".join(lines[:at] + [f"{key} ="] + lines[at:]) + "\n")
    message = f"[{section}] {key}: expected {expected}, got ''"
    with pytest.raises(ConfigurationError) as refused:
        load_config(path)
    assert str(refused.value) == message
    caplog.clear()
    assert main(["optimize", str(path)]) == 2
    assert message in caplog.text


def test_overlapping_magnet_windows_exit_2(workdir, caplog):
    # magnet 2 silently took the shared degrees of an overlapping magnet 1
    path = workdir / "magnets.cfg"
    path.write_text(TOY.read_text().replace(
        "[geometry]\n", "[geometry]\nmagnet1_window_deg = 4, 30\n"))
    message = "magnet1_window 4, 30 deg overlaps magnet2_window 27, 41 deg"
    with pytest.raises(ConfigurationError, match=message):
        load_config(path)
    caplog.clear()
    assert main(["optimize", str(path)]) == 2
    assert message in caplog.text


def test_readme_key_tables_list_the_grammar():
    # each "[section]" heading of the README's configuration reference is
    # followed by a table whose first column is exactly that section's keys;
    # the rows of the two keys that take a word list exactly the words
    tables, rows, section = {}, {}, None
    for line in (ROOT / "README.md").read_text().splitlines():
        heading = re.fullmatch(r"#+ `?\[(\w+)\]`?.*", line)
        if heading:
            section = heading.group(1)
        elif section and line.startswith("| `"):
            key = line.split("`")[1]
            tables.setdefault(section, []).append(key)
            rows[section, key] = line
    assert {name: sorted(keys) for name, keys in tables.items()} == {
        name: sorted(keys) for name, keys in KEYS.items()}

    def words(section, key):
        return set(re.findall(r"`(\w+)`", rows[section, key].split("|")[-2]))

    assert words("scenario", "name") == set(BINDINGS)
    assert words("algorithm", "psi0") == set(PSI0_MODES)


ANG_KEYS = "q_hat_deg = -60.0\ninterval_deg = -75.0, -45.0\n"


@pytest.mark.parametrize("scenario, line", [
    ("ANG", "ellipsoid_radius = 99"),
    ("ANG", "interval_knee = 5, 1"),
    ("ANG", "q_hat_knee = -3"),
    ("DIST", "interval_deg = 5, -5"),
    ("SCAL", "q_hat_deg = 6"),
    ("SCAL", "ellipsoid_radius = 0.2"),
    ("DIST", "interval_knee = 2.0, 2.4"),
], ids=["ang_radius", "ang_knee_interval", "ang_knee", "dist_phase",
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


@pytest.mark.parametrize("scenario, line, message", [
    ("ANG", "n_q = 3", "[algorithm] n_q is not read by scenario ANG"),
    ("SCAL", "n_q = 1", "[algorithm] n_q: scenario SCAL needs at least 2 knees"),
    ("DIST", "n_q = 0", "[algorithm] n_q: scenario DIST needs at least 2 knees"),
], ids=["ang_sets_n_q", "scal_one_knee", "dist_no_knee"])
def test_knee_count_follows_the_scenario(workdir, caplog, scenario, line, message):
    # ANG samples the one knee K_F; a knee scenario's table needs an axis
    # of at least two knees, or optimize would refuse the tables afterwards
    text = TOY.read_text().replace("name = ANG\n", f"name = {scenario}\n")
    if scenario != "ANG":
        text = text.replace(ANG_KEYS, "")
    path = workdir / "knees.cfg"
    path.write_text(text.replace("[algorithm]\n", f"[algorithm]\n{line}\n"))
    with pytest.raises(ConfigurationError) as refused:
        load_config(path)
    assert str(refused.value) == message
    assert main(["precompute-td", str(path)]) == 2
    assert message in caplog.text
    if scenario != "ANG":
        path.write_text(text.replace("[algorithm]\n", "[algorithm]\nn_q = 2\n"))
        assert load_config(path).exterior.n_q == 2


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
