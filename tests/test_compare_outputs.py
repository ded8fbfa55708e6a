"""tools/compare_outputs.py: what it counts as a difference between two files."""
from __future__ import annotations

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("a, b, verdict", [
    (b"J,1.5,-2e-3\n", b"J,1.5,-2e-3\n", "same"),
    (b"J,1.5,-2e-3\n", b"J,1.5,-4e-3\n", "max relative difference 5.000e-01"),
    (b"x 0.0 3\n", b"x -0.0 3\n", "max relative difference 0.000e+00"),
    (b"iron 1.0\n", b"air 1.0\n", "differs (not only in numbers)"),
    (b"1.0 2.0\n", b"1.0\n", "differs (not only in numbers)"),
    (b"\xff1", b"\xfe1", "differs (not text)"),
])
def test_difference_names_the_largest_relative_change(tool, a, b, verdict):
    assert tool.difference(a, b) == verdict


def test_trace_wall_seconds_are_not_compared(tool, tmp_path):
    header = "k,J,theta_deg,s,accepted,wall_seconds,q_star\n"
    rows = ["0,-1.25,90.0,1.0,1,{},0.1;0.2\n", "1,-1.5,45.0,0.5,0,{},0.3\n"]
    files = []
    for wall in ("0.103", "7.250"):
        path = tmp_path / wall / "trace.csv"
        path.parent.mkdir()
        path.write_text(header + "".join(r.format(wall) for r in rows))
        files.append(tool.comparable(str(path)))
    assert files[0] == files[1] == (
        b"k,J,theta_deg,s,accepted,q_star\n"
        b"0,-1.25,90.0,1.0,1,0.1;0.2\n1,-1.5,45.0,0.5,0,0.3\n")
    # any other file is compared as it is
    other = tmp_path / "summary.json"
    other.write_text('{"wall_seconds": 1.0}\n')
    assert tool.comparable(str(other)) == b'{"wall_seconds": 1.0}\n'
