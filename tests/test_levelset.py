"""Sphere geometry, descent loop statuses, trace format, persistence."""
from __future__ import annotations

import io
import re

import numpy as np
import pytest

from rtopt import levelset
from rtopt.errors import FormatError, UsageError
from rtopt.levelset import (LEVELSET_FORMAT, STATUS_CONVERGED,
                            STATUS_MAX_ITERATIONS, STATUS_STALLED,
                            TRACE_HEADER, Evaluation, LevelSetOptions,
                            TraceRow, angle_between, check_optimality, drive,
                            load_levelset, normalize, save_levelset,
                            slerp_update)


class Euclid:
    """Identity-mass stand-in for the design region's smoother geometry."""

    def inner(self, a, b):
        return float(a @ b)

    def norm(self, a):
        return float(np.sqrt(self.inner(a, a)))


@pytest.fixture
def geo():
    return Euclid()


def unit(v, geo):
    return normalize(np.asarray(v, dtype=float), geo)


def test_normalize_and_angles(geo):
    v = np.zeros(16)
    v[0] = 3.0
    u = normalize(v, geo)
    assert geo.norm(u) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(UsageError):
        normalize(np.zeros(16), geo)

    w = np.zeros(16)
    w[1] = 2.0
    assert angle_between(u, w, geo) == pytest.approx(np.pi / 2)
    assert angle_between(u, 5.0 * v, geo) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(UsageError):
        angle_between(u, np.zeros(16), geo)


def test_slerp_properties(geo):
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = unit(rng.standard_normal(16), geo)
        b = unit(rng.standard_normal(16), geo)
        theta = angle_between(a, b, geo)
        for s in (0.1, 0.5, 1.0):
            c = slerp_update(a, b, s, theta)
            assert geo.norm(c) == pytest.approx(1.0, abs=1e-12)
            assert angle_between(a, c, geo) == pytest.approx(s * theta,
                                                             abs=1e-9)
            # stays in the plane spanned by the endpoints
            b_perp = normalize(b - geo.inner(b, a) * a, geo)
            proj = geo.inner(c, a) * a + geo.inner(c, b_perp) * b_perp
            assert np.linalg.norm(c - proj) <= 1e-12
    # full step lands on the target, zero angle copies the input
    c = slerp_update(a, b, 1.0, angle_between(a, b, geo))
    assert np.allclose(c, b, atol=1e-12)
    c = slerp_update(a, b, 0.5, 0.0)
    assert np.array_equal(c, a) and c is not a


def test_slerp_rejections(geo):
    a = unit(np.arange(1.0, 17.0), geo)
    with pytest.raises(UsageError):
        slerp_update(a, -a, 0.5, np.pi)
    with pytest.raises(UsageError):
        slerp_update(a, a, 0.0, 0.4)
    with pytest.raises(UsageError):
        slerp_update(a, a, 1.5, 0.4)


def test_check_optimality_dead_band():
    psi = np.array([1.0, -1.0, 1e-12, 2.0])
    g = np.array([3.0, -4.0, 7.0, -1.0])
    rep = check_optimality(psi, g)
    assert rep.checked == 3 and rep.skipped == 1
    assert rep.agree_fraction == pytest.approx(2.0 / 3.0)
    assert not rep.ok
    assert check_optimality(psi, psi).ok
    assert check_optimality(np.zeros(4), g).checked == 0
    assert check_optimality(np.zeros(4), g).ok


class LinearObjective:
    """J(psi) = -<m, psi>, constant sensitivity field m."""

    def __init__(self, m, geo):
        self.m = m
        self.geo = geo
        self.calls = 0

    def __call__(self, psi):
        self.calls += 1
        return Evaluation(-self.geo.inner(self.m, psi), 2.5 * self.m, np.zeros(0))

    def design_key(self, psi):
        return psi.tobytes()


def test_drive_converges_on_linear_objective(geo):
    rng = np.random.default_rng(0)
    m = unit(rng.standard_normal(16), geo)
    psi0 = unit(rng.standard_normal(16), geo)
    norms = []
    res = drive(LinearObjective(m, geo), psi0, geo,
                snapshot=lambda k, psi: norms.append(geo.norm(psi)))
    assert res.status == STATUS_CONVERGED
    assert res.value == pytest.approx(-1.0, abs=1e-3)
    assert angle_between(res.psi, m, geo) < np.radians(2.0)
    assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-10
    accepted = [r.value for r in res.trace if r.accepted]
    assert np.all(np.diff(accepted) < 0)
    assert res.evaluations == len(res.trace)
    assert res.trace[0].k == 0 and res.trace[0].accepted


def test_drive_stalls_on_flat_objective(geo):
    class Flat:
        def __call__(self, psi):
            target = np.zeros(16)
            target[1] = 1.0
            return Evaluation(5.0, target, np.zeros(0))

        def design_key(self, psi):
            return psi.tobytes()

    psi0 = np.zeros(16)
    psi0[0] = 1.0
    res = drive(Flat(), psi0, geo)
    assert res.status == STATUS_STALLED
    assert res.iterations == 0
    assert all(not r.accepted for r in res.trace[1:])
    # the step fraction decays toward its floor over the rejections
    steps = [r.step for r in res.trace[1:]]
    assert steps[0] == 0.5 and steps[-1] == pytest.approx(0.05)


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
@pytest.mark.parametrize("live", [0, 1], ids=["first", "accepted"])
def test_drive_names_a_bad_sensitivity_field(geo, live, bad):
    # psi stays a unit field; the error names the field that has no
    # direction, at the first evaluation and after an accepted step
    class Vanishing(LinearObjective):
        def __call__(self, psi):
            ev = super().__call__(psi)
            if self.calls > live:
                ev.sensitivity = np.full_like(ev.sensitivity, bad)
            return ev

    rng = np.random.default_rng(2)
    m = unit(rng.standard_normal(16), geo)
    psi0 = unit(rng.standard_normal(16), geo)
    with pytest.raises(UsageError, match="non-finite sensitivity field"):
        drive(Vanishing(m, geo), psi0, geo)


def test_drive_iteration_cap(geo, monkeypatch):
    rng = np.random.default_rng(1)
    m = unit(rng.standard_normal(16), geo)
    psi0 = unit(rng.standard_normal(16), geo)
    monkeypatch.setattr(levelset, "ANGLE_TOL", np.radians(1e-9))
    opts = LevelSetOptions(max_iterations=2)
    res = drive(LinearObjective(m, geo), psi0, geo, opts)
    assert res.status == STATUS_MAX_ITERATIONS
    assert res.iterations == 2


def test_drive_realigns_without_evaluating(geo):
    # every slerp iterate keeps the all-positive sign pattern, so the design
    # never changes and the loop converges on realignments alone
    rng = np.random.default_rng(3)
    m = unit(rng.uniform(0.5, 1.5, 16), geo)

    class Keyed(LinearObjective):
        def design_key(self, psi):
            return (psi > 0).tobytes()

    ev = Keyed(m, geo)
    psi0 = unit(rng.uniform(0.5, 1.5, 16), geo)
    res = drive(ev, psi0, geo)
    assert res.status == STATUS_CONVERGED
    assert res.evaluations == 1 and ev.calls == 1
    assert res.iterations == 0
    assert len(res.trace) == 1
    assert angle_between(res.psi, m, geo) < np.radians(2.0)


def test_trace_format():
    row = TraceRow(0, 1.0, 2.0, 0.5, True, 0.125, np.zeros(0))
    assert row.as_csv() == "0,1.0,2.0,0.5,1,0.125,"
    val = -1625.0112451259006
    row = TraceRow(3, val, 12.25, 0.75, False, 0.125, np.array([1.5, -2.0]))
    fields = row.as_csv().split(",")
    assert float(fields[1]) == val
    assert fields[4] == "0"
    assert fields[6] == "1.5;-2.0"
    assert TRACE_HEADER == "k,J,theta_deg,s,accepted,wall_seconds,q_star"


def test_levelset_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(10)
    ids = rng.permutation(40)[:10]
    path = tmp_path / "state.rtols"
    save_levelset(psi, ids, "deadbeef01", path, iteration=7, value=-3.5)
    back, back_ids, meta = load_levelset(path, expect_fingerprint="deadbeef01")
    assert np.array_equal(back, psi)
    assert np.array_equal(back_ids, ids)
    assert meta == {"fingerprint": "deadbeef01", "iteration": 7,
                    "value": -3.5}
    with pytest.raises(UsageError):
        load_levelset(path, expect_fingerprint="other")
    bad = tmp_path / "bad.rtols"
    bad.write_text("RTOTD2\n")
    with pytest.raises(FormatError):
        load_levelset(bad)
    # value defaults to nan when not recorded
    save_levelset(psi, ids, "deadbeef01", path)
    assert np.isnan(load_levelset(path)[2]["value"])


def _reference_levelset_text(psi, node_ids, mesh_fingerprint, iteration=0,
                              value=None):
    """Reference .rtols text: one buffer write per row."""
    buf = io.StringIO()
    buf.write(f"{LEVELSET_FORMAT}\n")
    buf.write(f"mesh {mesh_fingerprint}\n")
    buf.write(f"iteration {iteration}\n")
    buf.write(f"value {'nan' if value is None else repr(float(value))}\n")
    buf.write(f"nodes {len(psi)}\n")
    for nid, v in zip(node_ids, psi):
        buf.write(f"{int(nid)} {float(v)!r}\n")
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["list_ids", "int32_ids", "float32_psi"])
def test_levelset_text_matches_the_per_row_reference(tmp_path, kind):
    rng = np.random.default_rng(41)
    ids = rng.permutation(5000)[:400]
    psi = rng.standard_normal(400) * 10.0 ** rng.integers(-12, 12, 400)
    psi[:3] = [0.0, -0.0, 1e-300]
    ids, psi = {"list_ids": (ids.tolist(), psi),
                "int32_ids": (ids.astype(np.int32), psi),
                "float32_psi": (ids, psi.astype(np.float32))}[kind]
    path = tmp_path / "state.rtols"
    save_levelset(psi, ids, "deadbeef01", path, iteration=3, value=-2.5)
    assert path.read_text() == _reference_levelset_text(
        psi, ids, "deadbeef01", iteration=3, value=-2.5)
    save_levelset(psi, ids, "deadbeef01", path)
    assert path.read_text() == _reference_levelset_text(psi, ids, "deadbeef01")


@pytest.mark.parametrize("psi, ids", [
    ([0.5, -1.0, 2.0], [3, 1]),
    ([0.5, -1.0], [3, 1, 2]),
    ([0.5, np.nan, 2.0], [3, 1, 2]),
    ([0.5, -1.0, np.inf], [3, 1, 2]),
    ([[0.5, -1.0]], [[3, 1]]),
], ids=["more_values", "more_ids", "nan", "inf", "two_dimensional"])
def test_save_levelset_refuses_a_bad_field(tmp_path, psi, ids):
    # zip would drop the unmatched rows, and load_levelset would only find
    # the file malformed later; nothing is written
    path = tmp_path / "state.rtols"
    with pytest.raises(UsageError, match="level-set values"):
        save_levelset(np.array(psi), ids, "deadbeef01", path)
    assert not path.exists()


def test_levelset_rejects_truncated_and_nonfinite(tmp_path):
    path = tmp_path / "state.rtols"
    save_levelset(np.array([0.5, -1.0, 2.0]), [3, 1, 2], "deadbeef01", path)
    lines = path.read_text().splitlines()
    for cut in range(1, len(lines)):
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(FormatError):
            load_levelset(path)
    # a row the nodes count does not announce was dropped
    path.write_text("\n".join(lines + ["4 0.25"]) + "\n")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_levelset(path)
    for bad_row in ("1 nan", "1 inf", "1", "1 x"):
        path.write_text("\n".join(lines[:6] + [bad_row] + lines[7:]) + "\n")
        with pytest.raises(FormatError):
            load_levelset(path)
    # the header keywords in reverse order, each value left on its line
    words = [line.split() for line in lines[1:5]]
    header = [f"{key[0]} {val[1]}" for key, val in zip(words[::-1], words)]
    path.write_text("\n".join(lines[:1] + header + lines[5:]) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: expected 'mesh'")):
        load_levelset(path)


def test_levelset_node_id_past_int64_is_malformed(tmp_path):
    # a node id the int64 ids cannot hold is a malformed row, not an
    # OverflowError
    path = tmp_path / "state.rtols"
    save_levelset(np.array([0.5]), [3], "deadbeef01", path)
    path.write_text(path.read_text().replace("\n3 0.5", "\n" + "9" * 20 + " 0.5"))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: truncated "
                                          "or malformed RTOLS1 file"):
        load_levelset(path)
