"""Saved tables and level sets: corrupted files load or raise FormatError."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopt.errors import FormatError
from rtopt.levelset import load_levelset, save_levelset
from rtopt.topderiv import TDTable, load_table, save_table

# one operation on the file's bytes: (kind, position in [0, 1), byte)
EDITS = st.lists(st.tuples(st.sampled_from(["cut", "flip", "insert"]),
                           st.floats(0.0, 1.0, exclude_max=True),
                           st.integers(0, 255)), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    t = np.array([0.0, 1.0, 2.5])
    q = np.array([1.9, 2.2, 2.5])
    save_table(TDTable("iron_to_air", t, 3.0 * t[:, None], 1e-9 * t[:, None],
                       "ab12", q=[2.2]), root / "one_knee.rtotd")
    save_table(TDTable("air_to_iron", t, np.outer(t, q), np.outer(t, -q),
                       "cd34", q=q), root / "knee.rtotd")
    save_levelset(np.array([0.5, -1.0, 2.0]), [3, 1, 2], "deadbeef01",
                  root / "state.rtols", iteration=4, value=-2.0)
    originals = {name: (root / name).read_bytes()
                 for name in ("one_knee.rtotd", "knee.rtotd", "state.rtols")}
    return root, originals


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["one_knee.rtotd", "knee.rtotd", "state.rtols"]),
       edits=EDITS)
def test_corrupted_file_loads_or_raises_format_error(saved, name, edits):
    root, originals = saved
    data = bytearray(originals[name])
    for kind, where, byte in edits:
        i = int(where * len(data))
        if kind == "cut":
            del data[i:]
        elif kind == "flip" and data:
            data[i] = byte
        elif kind == "insert":
            data.insert(i, byte)
    path = root / ("corrupt." + name.split(".")[1])
    path.write_bytes(bytes(data))
    load = load_levelset if name.endswith(".rtols") else load_table
    try:
        load(path)
    except FormatError:
        pass
