"""Shared fixtures: one coarse machine sector and one set of linear tables.

Everything heavy is session scoped. The small sector geometry operates
strongest near a -60 degree load angle (mapped by sweeping), so the fast
configurations here center the phase uncertainty there.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rtopt import fem
from rtopt.machine import MachineProblem, MaterialSpec, Scenario
from rtopt.mesh import MachineGeometry, build_machine_mesh
from rtopt.robust import IntervalSet
from rtopt.topderiv import ExteriorConfig, ExteriorProblem, precompute_tables

TOY_Q_HAT = np.array([np.deg2rad(-60.0)])
TOY_INTERVAL = (np.deg2rad(-75.0), np.deg2rad(-45.0))
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def toy_mesh():
    return build_machine_mesh(MachineGeometry(target_nodes=1200))


@pytest.fixture(scope="session")
def linear_spec():
    return MaterialSpec(iron_linear=True)


@pytest.fixture(scope="session")
def phase_set():
    return IntervalSet([TOY_INTERVAL[0]], [TOY_INTERVAL[1]])


@pytest.fixture(scope="session")
def toy_problem(toy_mesh, linear_spec):
    """Linear iron, one rotor position, phase-angle uncertainty."""
    scen = Scenario(name="ANG", n_positions=1, q_hat=TOY_Q_HAT.copy())
    return MachineProblem(toy_mesh, linear_spec, scen)


@pytest.fixture(scope="session")
def linear_tables(linear_spec):
    # t_max covers the largest design-region flux the linear law reaches
    cfg = ExteriorConfig(target_nodes=4000, t_max=12.0, n_t=13)
    return precompute_tables(linear_spec, ExteriorProblem(cfg))


@pytest.fixture(scope="session")
def knee_axis_faults():
    """Rewrites of a valid one-knee RTOTD2 text into knee axes load_table
    must refuse: two samples with blocks of three columns, two samples that
    descend or repeat, no sample, and a negative sample count. Returns a
    function text -> {name: text}."""

    def faults(text):
        lines = text.splitlines()
        head = next(i for i, line in enumerate(lines) if line.startswith("q "))
        blocks = lines[head + 1 + int(lines[head].split()[1]):]

        def variant(axis, cols):
            out = lines[:head] + [f"q {len(axis)}"] + [repr(v) for v in axis]
            for line in blocks:     # headers "f_par n 1", rows of one value
                word = line.split()
                out.append(f"{word[0]} {word[1]} {cols}" if len(word) > 1
                           else " ".join(word * cols))
            return "\n".join(out) + "\n"

        return {"extra_column": variant([1.0, 2.0], 3),
                "descending": variant([2.0, 1.0], 2),
                "duplicated": variant([1.0, 1.0], 2),
                "empty": variant([], 0),
                # the count alone turns negative; the sample stays
                "negative_count": text.replace("\nq 1\n", "\nq -1\n", 1)}

    return faults


@pytest.fixture(scope="session")
def t_axis_faults():
    """Rewrites of a valid RTOTD2 text into t axes load_table must refuse,
    with blocks cut to match: a single sample, and axes that descend or
    repeat a sample; and a negative sample count ahead of the unchanged
    axis. Returns a function text -> {name: text}."""

    def faults(text):
        lines = text.splitlines()
        head = next(i for i, line in enumerate(lines) if line.startswith("t "))
        n = int(lines[head].split()[1])
        axis = lines[head + 1:head + 1 + n]

        def variant(new_axis):
            out = lines[:head] + [f"t {len(new_axis)}"] + new_axis
            pos = head + 1 + n
            while pos < len(lines):
                word = lines[pos].split()
                if word[0] in ("f_par", "f_perp"):     # "f_par n cols", n rows
                    out.append(f"{word[0]} {len(new_axis)} {word[2]}")
                    out += lines[pos + 1:pos + 1 + len(new_axis)]
                    pos += 1 + n
                else:
                    out.append(lines[pos])
                    pos += 1
            return "\n".join(out) + "\n"

        return {"single_sample": variant(axis[:1]),
                "descending": variant(axis[::-1]),
                "repeated": variant(axis[:1] + axis[:-1]),
                "negative_count": "\n".join(
                    lines[:head] + [f"t -{n}"] + lines[head + 1:]) + "\n"}

    return faults


@pytest.fixture
def factor_calls(monkeypatch):
    """Every Cholesky factorization made through rtopt.fem, in order.

    Each call is recorded as the shape of the band it factors.
    """
    calls = []
    factor = fem.BandCholesky.__init__

    def counted(self, band):
        calls.append(band.shape)
        factor(self, band)

    monkeypatch.setattr(fem.BandCholesky, "__init__", counted)
    return calls


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded unchanged from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads
