import csv
import dataclasses
import filecmp
import io
import json
import math
import os
import pickle
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coastsim import runner
from coastsim.asv import VehicleState3DOF
from coastsim.core import (NonFiniteInput, rotate_body_to_nav,
                           rotate_nav_to_body, wrap_angle)
from coastsim.environment import damping_wrench, disturbance_wrench
from coastsim.mission import MissionPhase, mission_step
from coastsim.nav import (SensorReading, _predict, ekf_predict, ekf_update,
                          initial_estimate)
from coastsim.runner import (COLUMNS, RunLog, Simulation, _parse_row,
                             _tow_coupling, _wrench_sum, emit_outputs,
                             read_run, run_simulation)
from coastsim.scenario import load_scenario, parse_scenario
from coastsim.tuv import Towline, _coupling_tension

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def cruise_tree(duration=10.0, dt=0.01, tuv=True, **extra):
    tree = {
        "run": {"seed": 5, "dt": dt, "duration": duration},
        "tuv": {"enabled": tuv},
        "mission": {"kind": "cruise", "heading": 0.0, "speed": 2.0},
    }
    tree.update(extra)
    return tree


def search_tree(duration=900.0, seed=11):
    # small two-leg pattern with one certain object: concludes quickly
    return {
        "run": {"seed": seed, "dt": 0.05, "duration": duration},
        "controllers": {"sensors": {"gyro_rate": 20}},
        "mission": {
            "kind": "search",
            "area": {"x": 0, "y": 0, "width": 40, "height": 20},
            "swath": 10,
            "objects": [{"id": "target-1", "position": [10, 5],
                         "class": "device"}],
        },
    }


def col(log, name):
    i = log.columns.index(name)
    return [row[i] for row in log.rows]


# --- log shape ----------------------------------------------------------------

def test_ten_steps_ten_rows():
    log = run_simulation(parse_scenario(cruise_tree(duration=0.1, dt=0.01)))
    assert len(log.rows) == 10
    assert log.columns == list(COLUMNS)
    assert all(len(row) == len(COLUMNS) for row in log.rows)
    ts = col(log, "t")
    assert ts == pytest.approx([0.01 * k for k in range(10)], abs=1e-12)
    assert log.metrics["steps"] == 10


def test_zero_duration_run_is_empty_but_valid(tmp_path):
    log = run_simulation(parse_scenario(cruise_tree(duration=0.0)))
    assert log.rows == []
    assert log.aborted is False
    assert log.metrics["steps"] == 0
    assert log.metrics["sim_time"] == 0.0
    assert [e["event"] for e in log.events] == ["run_end"]
    # still emits a parseable run directory
    emit_outputs(log, tmp_path)
    back = read_run(tmp_path)
    assert back.rows == [] and back.columns == list(COLUMNS)


def test_zero_duration_search_stays_pre_mission():
    log = run_simulation(parse_scenario(search_tree(duration=0.0)))
    assert log.metrics["final_phase"] == "pre_mission"
    assert log.metrics["concluded"] is False


def test_column_names_are_unique():
    assert len(COLUMNS) == len(set(COLUMNS))
    for name in ("t", "truth_x", "est_psi", "thrust_left", "tension_x",
                 "hex_deployed", "phase", "innov_gps_x"):
        assert name in COLUMNS


def test_disabled_tuv_leaves_blank_columns():
    log = run_simulation(parse_scenario(cruise_tree(duration=0.5, tuv=False)))
    assert set(col(log, "tuv_x")) == {None}
    assert set(col(log, "tension_x")) == {None}
    # hexapod never deploys on a cruise either
    assert set(col(log, "hex_deployed")) == {0}
    assert set(col(log, "hex_leg0_theta1")) == {None}


# --- determinism and serialization ---------------------------------------------

def test_same_seed_byte_identical(tmp_path):
    scn = parse_scenario(search_tree(duration=60.0))
    a, b = tmp_path / "a", tmp_path / "b"
    emit_outputs(run_simulation(scn), a)
    emit_outputs(run_simulation(parse_scenario(search_tree(duration=60.0))), b)
    for name in ("states.csv", "events.jsonl", "metrics.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seed_differs():
    log1 = run_simulation(parse_scenario(search_tree(duration=20.0, seed=11)))
    log2 = run_simulation(parse_scenario(search_tree(duration=20.0, seed=12)))
    assert col(log1, "est_x") != col(log2, "est_x")


def test_round_trip_is_exact(tmp_path):
    log = run_simulation(parse_scenario(search_tree(duration=60.0)))
    emit_outputs(log, tmp_path)
    back = read_run(tmp_path)
    assert back.columns == log.columns
    assert back.rows == log.rows  # full float round trip, cell for cell
    assert back.events == log.events
    assert back.metrics == log.metrics


def test_emit_format_subsets(tmp_path):
    log = run_simulation(parse_scenario(cruise_tree(duration=0.1)))
    only_csv = emit_outputs(log, tmp_path / "csv", formats=("csv",))
    assert sorted(only_csv) == ["states"]
    assert not (tmp_path / "csv" / "events.jsonl").exists()
    only_json = emit_outputs(log, tmp_path / "json", formats=("json",))
    assert sorted(only_json) == ["events", "metrics"]
    assert not (tmp_path / "json" / "states.csv").exists()


# the states.csv writer emit_outputs had before it joined lines itself: every
# cell through _format_cell, every row through csv.writer
def ref_format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def ref_states_csv(log) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(log.columns)
    for row in log.rows:
        writer.writerow([ref_format_cell(v) for v in row])
    return buf.getvalue().encode("ascii")


ascii_text = st.text(st.characters(max_codepoint=127), max_size=6)
csv_cells = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     -2.2250738585072014e-308, 1e16, 1e-5]),
    st.integers(), st.booleans(), st.booleans().map(np.bool_), st.none(),
    ascii_text, st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", "a,b",
                                 'say "hi"', " x ", "wide_area_search"]))
csv_rows = st.lists(csv_cells, max_size=8) | st.lists(csv_cells, max_size=1)


@settings(max_examples=500)
@given(columns=st.lists(ascii_text | st.none(), max_size=4),
       rows=st.lists(csv_rows, max_size=150))
@example(columns=["t"], rows=[[None], [""], [], [0.5], [1.0, None]])
# quoted, empty and one-cell rows on both sides of a chunk boundary
@example(columns=["a", "b"],
         rows=[[float(k), f"r{k}"] for k in range(62)]
         + [["x,y"], [None], [], ['"'], ["\n", 1]]
         + [[float(k), f"r{k}"] for k in range(70)])
def test_states_csv_matches_csv_writer_bytes(columns, rows):
    log = RunLog(columns=columns, rows=rows)
    with tempfile.TemporaryDirectory() as out:
        written = emit_outputs(log, out, formats=("csv",))
        assert Path(written["states"]).read_bytes() == ref_states_csv(log)


def test_read_run_requires_states(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_run(tmp_path)


def parse_cell_int_first(column: str, cell: str):
    # reference: the parser that tried int() on every cell first
    if cell == "":
        return None
    if column == "phase":
        return cell
    try:
        return int(cell)
    except ValueError:
        return float(cell)


numeric_text = st.from_regex(
    r"\s?[-+]?[0-9_]{0,4}\.?[0-9_]{0,4}([eE][-+]?[0-9]{1,3})?\s?",
    fullmatch=True)


@settings(max_examples=1000, deadline=None)
@given(column=st.sampled_from(["t", "hex_faults", "phase"]),
       cell=st.text() | numeric_text | st.floats().map(repr)
       | st.integers().map(str)
       | st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1E5",
                          "1_000", " 7 ", "1e", ".", "-", "0x1f", "\u0661"]))
def test_parse_cell_matches_int_first_parser(column, cell):
    # the cell rule read_run applies: a one-cell record, at a phase index
    # when the column is "phase"
    def cell_rule(column, cell):
        return _parse_row([cell], 1, [0] if column == "phase" else [])[0]

    def outcome(parse):
        try:
            value = parse(column, cell)
        except ValueError as exc:
            return "ValueError", str(exc)
        return type(value), repr(value)
    assert outcome(cell_rule) == outcome(parse_cell_int_first)


def reference_read_states(path):
    # reference: states.csv as read_run read it through csv.reader, each
    # cell through parse_cell_int_first, each row cut to the header by zip
    with open(path, encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [[parse_cell_int_first(col, cell)
                 for col, cell in zip(columns, row)] for row in reader]
    return columns, rows


def read_outcome(read, path):
    try:
        columns, rows = read(path)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return columns, [[(type(v), repr(v)) for v in row] for row in rows]


def read_states(path):
    log = read_run(path.parent)
    return log.columns, log.rows


def assert_reads_as_reference(text):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "states.csv"
        path.write_text(text, encoding="ascii", newline="")
        assert read_outcome(read_states, path) == read_outcome(
            reference_read_states, path)


header_names = st.sampled_from(["t", "phase", "hex_faults", "est_x", "", "a b"])
file_cells = st.one_of(
    st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", "0", "-0", "1e-05", "inf", "-inf", "nan", " 7 ",
                     "1_000", "+3", "pre_mission", "wide_area_search",
                     "1.5.2", "x", ",", '"', '""', "\n", "\r", "\r\n",
                     "a,b", 'say "hi"', "\0"]),
    st.text(st.characters(max_codepoint=127), max_size=4))
file_rows = st.lists(st.lists(file_cells, max_size=7), max_size=10)


@st.composite
def states_texts(draw):
    """states.csv contents: written by csv.writer, or raw lines joined with
    commas and line feeds (unquoted, so a comma, quote or line break in a
    cell is bare), with or without a final line end."""
    columns = draw(st.lists(header_names, max_size=6))
    rows = draw(file_rows)
    if draw(st.booleans()):
        buf = io.StringIO(newline="")
        terminator = draw(st.sampled_from(["\n", "\r\n"]))
        writer = csv.writer(buf, lineterminator=terminator)
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(",".join(cells) for cells in [columns, *rows])
        text += draw(st.sampled_from(["", "\n", "\n\n"]))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last record
    return text


@settings(max_examples=400)
@given(text=states_texts())
@example(text="t,phase\n1.5,wide_area_search\n\n2,\n3.0\n")
@example(text="t,phase\n1.5,a,b,c\n,pre_mission,x\n2")
@example(text='t,phase,phase\n1.5,"a\nb",\n2,x,"y,z"\n')
@example(text="t,u\n1.5,x\n2,3\n")  # x does not parse: a ValueError
@example(text="phase\n\n\n")
def test_read_run_matches_csv_reader_and_int_first_parser(text):
    assume(text != "")  # an empty file has no header: see the test below
    assert_reads_as_reference(text)


def test_read_run_takes_csv_field_limit():
    # a field longer than csv's limit is csv.reader's error, as before
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        assert_reads_as_reference("t,phase\n1.5,abcdefghijkl\n")
        assert_reads_as_reference("t,phase\n1.5,abcdefg\n")
    finally:
        csv.field_size_limit(limit)


def test_read_run_rejects_an_empty_states_file(tmp_path):
    (tmp_path / "states.csv").write_bytes(b"")
    with pytest.raises(ValueError, match="states.csv is empty"):
        read_run(tmp_path)


def test_numpy_scalar_cells_round_trip(tmp_path):
    # a numpy float's repr is np.float64(...) and a numpy bool's str is
    # True: each is written as the Python value it holds
    log = RunLog(columns=["t", "x", "flag"],
                 rows=[[0.0, np.float64(1.5), np.bool_(True)],
                       [0.1, np.float64(-0.0), np.bool_(False)]])
    emit_outputs(log, tmp_path, formats=("csv",))
    assert (tmp_path / "states.csv").read_bytes() == (
        b"t,x,flag\n0.0,1.5,1\n0.1,-0.0,0\n")
    back = read_run(tmp_path).rows
    assert back == [[0.0, 1.5, 1], [0.1, -0.0, 0]]
    assert [type(v) for v in back[1]] == [float, float, int]
    assert math.copysign(1.0, back[1][1]) == -1.0


@pytest.mark.parametrize("name, duration", [
    ("calm_cruise", 10.0), ("storm_loiter", 30.0),
    ("calm_search", 130.0),  # past the first confirmation
])
def test_metrics_follow_from_the_record(name, duration, tmp_path):
    # the run keeps no count of its own beside its rows and events: the
    # metrics read back are what the rows and events read back give
    scn = dataclasses.replace(load_scenario(SCENARIO_DIR / f"{name}.yaml"),
                              seed=7, duration=duration)
    emit_outputs(Simulation(scn).run(), tmp_path)
    log = read_run(tmp_path)
    m = log.metrics
    kinds = [event["event"] for event in log.events]
    assert m["steps"] == len(log.rows) > 0
    assert m["confirmations"] == kinds.count("confirmation")
    assert m["aborted"] is ("abort" in kinds)
    track = np.array([col(log, "truth_x"), col(log, "truth_y")]).T
    assert m["distance_traveled"] == float(
        np.sum(np.linalg.norm(np.diff(track, axis=0), axis=1)))
    if name == "calm_search":
        assert m["confirmations"] == 1


@pytest.mark.parametrize("name, duration", [
    ("calm_cruise", 5.0), ("storm_loiter", 30.0),
    ("calm_search", None),  # to the end: the crawler deploys and walks
])
def test_row_cells_are_plain_python_values(name, duration):
    # type(), not isinstance(): np.float64 subclasses float, and a numpy
    # scalar cell reads back from states.csv as a Python value of another type
    scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    if duration is not None:
        scn = dataclasses.replace(scn, duration=duration)
    rows = Simulation(scn).run().rows
    assert rows
    kinds = {type(v) for row in rows for v in row}
    assert kinds <= {float, int, str, type(None)}, kinds
    # each row holds its cells and no spare list slots, with the tow on
    # (calm_cruise) and off, and the crawler deployed and stowed
    assert all(sys.getsizeof(row) == sys.getsizeof(list(row)) for row in rows)
    deployed = {row[COLUMNS.index("hex_deployed")] for row in rows}
    assert deployed == ({0, 1} if name == "calm_search" else {0})


def test_csv_header_matches_columns(tmp_path):
    log = run_simulation(parse_scenario(cruise_tree(duration=0.05)))
    emit_outputs(log, tmp_path)
    header = (tmp_path / "states.csv").read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)


# --- integration convergence ----------------------------------------------------

def test_dt_halving_moves_endpoints_under_one_percent():
    # calm cruise with near-noiseless sensors: halving dt must not move the
    # endpoint materially (integration is converged, not dt-locked)
    def endpoint(dt):
        tree = cruise_tree(duration=20.0, dt=dt)
        tree["controllers"] = {"sensors": {
            "gps_sigma": 1e-9, "compass_sigma": 1e-9, "gyro_sigma": 1e-9}}
        log = run_simulation(parse_scenario(tree))
        last = log.rows[-1]
        return (last[log.columns.index("truth_x")],
                last[log.columns.index("truth_u")],
                log.metrics["distance_traveled"])

    x1, u1, d1 = endpoint(0.01)
    x2, u2, d2 = endpoint(0.005)
    assert abs(x2 - x1) / abs(x1) < 0.01
    assert abs(u2 - u1) / abs(u1) < 0.01
    assert abs(d2 - d1) / d1 < 0.01


# --- abort path -----------------------------------------------------------------

def test_numerical_blowup_aborts_with_partial_log(tmp_path):
    # a towline five orders too stiff for this dt is an unstable integration:
    # the run must stop at the fault, flag itself, and still emit
    tree = cruise_tree(duration=10.0, dt=0.01)
    tree["tuv"] = {"towline": {"stiffness": 1e12, "damping": 1e12}}
    with np.errstate(all="ignore"):  # the blow-up itself overflows, by design
        log = run_simulation(parse_scenario(tree))
    assert log.aborted is True
    assert log.metrics["aborted"] is True
    assert log.metrics["abort_reason"]
    assert 0 < len(log.rows) < 1000  # partial: stopped well before the cap
    assert [e["event"] for e in log.events[-2:]] == ["abort", "run_end"]
    assert log.events[-1]["reason"] == "aborted"
    emit_outputs(log, tmp_path)
    assert read_run(tmp_path).metrics["aborted"] is True


def test_towline_degenerate_geometry_aborts_with_partial_log():
    # the tow body sitting on the attach point leaves the cable direction
    # undefined: the run aborts instead of ending in a traceback
    sim = Simulation(parse_scenario(cruise_tree(duration=1.0)))
    truth, x_a = sim.truth, sim.scn.tow_attach_x
    attach_xy = (np.array([truth.x, truth.y])
                 + rotate_body_to_nav([x_a, 0.0], truth.psi))
    sim.tuv[0:3] = [float(attach_xy[0]), float(attach_xy[1]), 0.0]
    log = sim.run()
    assert log.aborted is True
    assert "DegenerateGeometry" in log.metrics["abort_reason"]
    assert [e["event"] for e in log.events[-2:]] == ["abort", "run_end"]


def reference_tow_coupling(truth, x_a, tuv, line):
    # reference: the attach offset and velocity rotated body->nav and the
    # reaction back nav->body by the three core rotations
    off_x, off_y = rotate_body_to_nav((x_a, 0.0), truth.psi)
    attach = (truth.x + off_x, truth.y + off_y, 0.0)
    vel_x, vel_y = rotate_body_to_nav((truth.u, truth.v + truth.r * x_a),
                                      truth.psi)
    tension = _coupling_tension(attach, (vel_x, vel_y, 0.0), tuv[0:3],
                                tuv[3:6], line)
    reaction_x, reaction_y = rotate_nav_to_body((-tension[0], -tension[1]),
                                                truth.psi)
    return tension, (reaction_x, reaction_y, x_a * reaction_y)


wide_floats = (st.floats(-1e300, 1e300) | st.floats(-40.0, 40.0)
               | st.sampled_from([0.0, -0.0, 5e-324, math.pi, -math.pi,
                                  math.pi / 2, 1e300, -1e300, math.inf,
                                  -math.inf, math.nan]))


@settings(max_examples=500)
@given(pose=st.tuples(*[wide_floats] * 6), x_a=wide_floats,
       tuv=st.tuples(*[wide_floats] * 6))
@example(pose=(0.0, 0.0, -0.0, 0.0, -0.0, 0.0), x_a=-0.0,
         tuv=(-35.0, 0.0, 8.0, 0.0, 0.0, 0.0))
@example(pose=(-0.0, 0.0, -math.pi / 2, 0.0, 0.0, 0.0), x_a=-0.0,
         tuv=(0.0, -40.0, 0.0, 0.0, 0.0, 0.0))  # the s * 0.0 term counts
def test_tow_coupling_matches_the_three_rotations_bit_for_bit(pose, x_a, tuv):
    # one cos/sin pair for the three rotations gives the same bytes, because
    # cos(-psi) == cos(psi) and sin(-psi) == -sin(psi) exactly; non-finite
    # inputs still raise before and after the tension, as NonFiniteInput (a
    # ValueError the run aborts on) where the rotations raise a bare one
    truth = VehicleState3DOF(*pose)

    def outcome(coupling):
        try:
            tension, wrench = coupling(truth, x_a, list(tuv), Towline())
        except ValueError as exc:
            return type(exc)
        return struct.pack("<6d", *tension, *wrench)
    expected = outcome(reference_tow_coupling)
    if expected is ValueError:
        expected = NonFiniteInput
    assert outcome(_tow_coupling) == expected


def _explicit_predict(sim, x, P):
    """(model wrench, (mean, covariance)) of the next step's predict from
    the mean x and covariance P, the estimated state read from x afresh."""
    scn = sim.scn
    state = VehicleState3DOF.from_array(x)
    wrench = _wrench_sum(sim.ctrl_wrench, sim.tow_wrench,
                         damping_wrench(state, scn.damping, sim.current),
                         disturbance_wrench(sim.known_field, state,
                                            sim.step_count * scn.dt, 0.0))
    return wrench, _predict(list(x), P, scn.asv_params, wrench, scn.dt,
                            sim.q_discrete)


def test_predict_starts_from_the_current_estimate(monkeypatch):
    # the step reads the estimate (est_x, est_P) off the Simulation when it
    # starts: an estimate assigned in between is the one it predicts from
    sim = Simulation(load_scenario(SCENARIO_DIR / "storm_loiter.yaml"))
    for _ in range(20):
        sim.step()
    calls = []

    def recording(x, P, params, wrench, dt, q):
        out = _predict(x, P, params, wrench, dt, q)
        calls.append((x, P, wrench, out))
        return out

    monkeypatch.setattr(runner, "_predict", recording)
    for reassign in (False, True, False):
        x, P = sim.est_x, sim.est_P
        if reassign:
            x = list(x)
            x[2] = wrap_angle(x[2] + 0.7)
            x[3] += 0.4
            x[4] -= 0.2
            x[5] += 0.05
            P = 2.0 * P
            stale, _ = _explicit_predict(sim, sim.est_x, sim.est_P)
            sim.est_x, sim.est_P = x, P
        wrench, (mean, cov) = _explicit_predict(sim, x, P)
        if reassign:
            assert wrench != stale  # the test can tell the two apart
        sim.step()
        x_in, P_in, wrench_in, (out_mean, out_cov) = calls.pop()
        assert x_in is x and P_in is P
        assert wrench_in == wrench
        assert struct.pack("<6d", *out_mean) == struct.pack("<6d", *mean)
        assert out_cov.tobytes() == cov.tobytes()


def test_loop_estimate_is_the_public_filter_bit_for_bit(monkeypatch):
    # the step carries the estimate as six floats and a covariance through
    # nav's float cores; ekf_predict and ekf_update on the same wrenches and
    # readings give the same estimate after every step, bit for bit
    scn = load_scenario(SCENARIO_DIR / "storm_loiter.yaml")
    steps = []  # per step: [readings, the predict's model wrench]
    sample, predict = runner.sample_sensors, runner._predict

    def sampling(*args):
        readings = sample(*args)
        steps.append([readings, None])
        return readings

    def predicting(x, P, params, wrench, dt, q):
        steps[-1][1] = wrench
        return predict(x, P, params, wrench, dt, q)

    monkeypatch.setattr(runner, "sample_sensors", sampling)
    monkeypatch.setattr(runner, "_predict", predicting)
    sim = Simulation(scn)
    est = initial_estimate(scn.asv_initial)
    for step in range(200):
        sim.step()
        readings, wrench = steps[step]
        assert (wrench is None) == (step == 0)  # step 0 only updates
        if wrench is not None:
            est = ekf_predict(est, scn.asv_params, scn.ekf, wrench, scn.dt)
        for kind, value in readings:
            est = ekf_update(est, SensorReading(kind, step * scn.dt,
                                                np.atleast_1d(value)),
                             scn.ekf).state
        assert struct.pack("<6d", *sim.est_x) == est.x.tobytes()
        assert sim.est_P.tobytes() == est.P.tobytes()


@pytest.mark.parametrize("name, pause", [
    ("storm_loiter", lambda sim: sim.step_count == 500),
    ("calm_search", lambda sim: sim.hexapod is not None),
], ids=["storm_loiter", "calm_search-crawler-deployed"])
def test_pickled_simulation_resumes_byte_for_byte(name, pause, tmp_path):
    # a Simulation pickled mid-run (the estimate's floats and covariance,
    # the noise streams' drawn blocks, a deployed crawler) and finished
    # after unpickling writes the bytes of a run never interrupted
    scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    if name == "storm_loiter":
        scn = dataclasses.replace(scn, duration=100.0)
    sim = Simulation(scn)
    while not pause(sim):
        assert sim.mission_state.phase is not MissionPhase.CONCLUDED
        sim.step()
    resumed = pickle.loads(pickle.dumps(sim)).run()
    whole = Simulation(scn).run()
    written = [emit_outputs(log, tmp_path / label)
               for label, log in (("resumed", resumed), ("whole", whole))]
    for kind in ("states", "events", "metrics"):
        assert written[0][kind].read_bytes() == written[1][kind].read_bytes()


# --- mission end to end ----------------------------------------------------------

@pytest.fixture
def reducer_steps(monkeypatch):
    """The phase of each state the loop hands to mission_step, in order."""
    phases = []

    def spy(state, events):
        phases.append(state.phase)
        return mission_step(state, events)
    monkeypatch.setattr(runner, "mission_step", spy)
    return phases


def test_calm_search_concludes_with_one_confirmation(reducer_steps):
    log = run_simulation(parse_scenario(search_tree()))
    m = log.metrics
    assert m["concluded"] is True
    assert m["truncated"] is False
    assert m["final_phase"] == "concluded"
    assert m["detections"] == 1
    assert m["confirmations"] == 1
    assert m["hexapod_faults"] == 0
    assert m["area_searched"] > 0.0 and m["area_per_hour"] > 0.0

    names = [e["event"] for e in log.events]
    assert names.count("detection") == 1
    assert names.count("confirmation") == 1
    assert names.count("hexapod_deployed") == 1
    assert names.count("hexapod_recovered") == 1

    # the object sits on leg 1 of 2, so after confirming it the mission
    # resumes the remaining leg before retrieving
    transitions = [(e["source"], e["target"]) for e in log.events
                   if e["event"] == "phase_transition"]
    assert transitions == [
        ("pre_mission", "wide_area_search"),
        ("wide_area_search", "detailed_inspection"),
        ("detailed_inspection", "wide_area_search"),
        ("wide_area_search", "retrieval"),
        ("retrieval", "concluded"),
    ]
    # the winch reels in for inspection and back out afterwards
    lengths = [e["length"] for e in log.events if e["event"] == "winch_command"]
    assert lengths == [5.0, 30.0]
    # phase column tracks the reducer
    phases = col(log, "phase")
    assert phases[0] == "pre_mission"
    assert "wide_area_search" in phases and "detailed_inspection" in phases
    # one reducer step per step, none of them from a concluded state: the
    # run stops stepping once the search concludes
    assert [MissionPhase(p) for p in phases] == reducer_steps
    assert reducer_steps[-1] is MissionPhase.RETRIEVAL


@pytest.mark.parametrize("mission", [
    {"kind": "cruise", "heading": 0.0, "speed": 2.0},
    {"kind": "loiter", "point": [0.0, 0.0]}])
def test_only_a_search_steps_the_reducer(mission, reducer_steps):
    tree = cruise_tree(duration=2.0, tuv=False, mission=mission)
    log = run_simulation(parse_scenario(tree))
    assert reducer_steps == []
    assert set(col(log, "phase")) == {"pre_mission"}
    assert log.metrics["final_phase"] == "pre_mission"


def test_short_search_is_truncated_not_concluded():
    log = run_simulation(parse_scenario(search_tree(duration=5.0)))
    assert log.metrics["truncated"] is True
    assert log.metrics["concluded"] is False
    assert log.events[-1]["reason"] == "duration_cap"


def test_crawler_faults_are_cumulative_and_counted_when_still_deployed():
    # a 10 m stride puts every foot target out of reach: the crawler halts
    # on each step it is deployed and the run ends truncated with it still
    # on the seabed; the row is captured before the step's crawler advance,
    # so the end-of-run count also holds the last step's halt
    tree = search_tree(duration=60.0)
    tree["hexapod"] = {"stride": 10.0}
    log = run_simulation(parse_scenario(tree))
    m = log.metrics
    assert m["truncated"] is True and m["confirmations"] == 0
    faults = col(log, "hex_faults")
    deployed_steps = sum(col(log, "hex_deployed"))
    assert deployed_steps > 1
    assert faults == sorted(faults)
    assert m["hexapod_faults"] == deployed_steps == faults[-1] + 1


def test_halted_crawler_writes_nothing_to_stderr(tmp_path):
    # the console run of the 10 m stride: each halt is in hex_faults and
    # hexapod_faults, and the process's stderr stays empty (it once held a
    # log line per halted step)
    tree = search_tree(duration=60.0)
    tree["hexapod"] = {"stride": 10.0}
    path = tmp_path / "stride.yaml"
    path.write_text(yaml.safe_dump(tree))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(runner.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coastsim.cli", "simulate", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    (metrics,) = tmp_path.glob("out/*/metrics.json")
    assert json.loads(metrics.read_text())["hexapod_faults"] > 0
    assert proc.stderr == ""


@pytest.mark.parametrize("tuv, platform", [(True, "tuv"), (False, "asv")])
def test_detections_name_the_survey_platform(tuv, platform):
    # one object beside the ASV's start, one beside the towed body's (it
    # starts a line length astern): whichever platform sweeps finds its
    # own on the first search step
    tree = search_tree(duration=6.0)
    tree["tuv"] = {"enabled": tuv}
    tree["mission"]["area"] = {"x": -40, "y": -10, "width": 80, "height": 20}
    tree["mission"]["objects"] = [
        {"id": "by-asv", "position": [0.5, 0.5]},
        {"id": "by-tuv", "position": [-29.5, 0.5]}]
    log = run_simulation(parse_scenario(tree))
    found = [e for e in log.events if e["event"] == "detection"]
    assert [e["object_id"] for e in found] == [f"by-{platform}"]
    assert found[0]["vehicle"] == platform


def test_duration_cap_on_cruise_is_not_truncated():
    # the truncated flag marks an unfinished search; a cruise just ends
    log = run_simulation(parse_scenario(cruise_tree(duration=0.5)))
    assert log.metrics["truncated"] is False
    assert log.events[-1]["reason"] == "duration_cap"


def test_loiter_metrics_report_offsets():
    tree = {
        "run": {"seed": 2, "dt": 0.05, "duration": 30.0},
        "controllers": {"sensors": {"gyro_rate": 20}},
        "tuv": {"enabled": False},
        "mission": {"kind": "loiter", "point": [0.0, 0.0]},
    }
    log = run_simulation(parse_scenario(tree))
    m = log.metrics
    assert 0.0 <= m["loiter_fraction_within_2p5"] <= 1.0
    assert 0.0 <= m["loiter_p95_offset"] <= m["loiter_max_offset"]
    # calm water, starts on station: it stays there
    assert m["loiter_max_offset"] < 2.5


def test_loiter_metrics_measure_offsets_from_an_off_origin_point():
    # the offsets are from mission.point, not from the origin: the test
    # recomputes them from the rows' truth positions
    point = np.array([12.0, -7.0])
    tree = {
        "run": {"seed": 3, "dt": 0.05, "duration": 20.0},
        "asv": {"initial": {"x": 10.5, "y": -5.5}},
        "controllers": {"sensors": {"gyro_rate": 20}},
        "tuv": {"enabled": False},
        "mission": {"kind": "loiter", "point": point.tolist()},
    }
    log = run_simulation(parse_scenario(tree))
    track = np.column_stack([col(log, "truth_x"), col(log, "truth_y")])
    offsets = np.linalg.norm(track - point, axis=1)
    m = log.metrics
    assert m["loiter_max_offset"] == float(np.max(offsets))
    assert m["loiter_p95_offset"] == float(np.quantile(offsets, 0.95))
    assert m["loiter_fraction_within_2p5"] == float(np.mean(offsets <= 2.5))
    # it starts 2.1 m off the point and holds station there
    assert m["loiter_max_offset"] < 2.5


def test_thrust_respects_actuator_limits():
    log = run_simulation(parse_scenario(search_tree(duration=60.0)))
    for name in ("thrust_left", "thrust_right"):
        values = np.array(col(log, name), dtype=float)
        assert np.all(np.abs(values) <= 40.0 + 1e-12)


def test_tow_tension_pulls_the_body_forward():
    log = run_simulation(parse_scenario(cruise_tree(duration=30.0, dt=0.01)))
    tension = np.array([col(log, "tension_x"), col(log, "tension_y"),
                        col(log, "tension_z")], dtype=float)
    lengths = np.array(col(log, "line_length"), dtype=float)
    assert np.all(np.isfinite(tension))
    assert np.all(lengths > 0.0)
    # the logged tension acts on the towed body: under way it points up the
    # cable toward the vessel, so +x (travel direction) and -z (toward surface)
    assert np.mean(tension[0, -500:]) > 0.0
    assert np.mean(tension[2, -500:]) < 0.0
