import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import coastsim
from coastsim.cli import OUT_DIR_ENV, main
from coastsim.runner import RunFileError, read_run

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

CRUISE_YAML = """\
run: {seed: 9, dt: 0.01, duration: 1.0}
mission: {kind: cruise, heading: 0.0, speed: 2.0}
"""

BLOWUP_YAML = """\
run: {seed: 9, dt: 0.01, duration: 5.0}
tuv:
  towline: {stiffness: 1.0e+12, damping: 1.0e+12}
mission: {kind: cruise}
"""


@pytest.fixture
def cruise_file(tmp_path):
    path = tmp_path / "cruise.yaml"
    path.write_text(CRUISE_YAML)
    return path


# --- simulate -------------------------------------------------------------------

def test_simulate_writes_run_directory(cruise_file, tmp_path, capsys):
    rc = main(["simulate", str(cruise_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    run_dir = tmp_path / "out" / "run-seed9"
    assert (run_dir / "states.csv").exists()
    assert (run_dir / "events.jsonl").exists()
    assert (run_dir / "metrics.json").exists()
    out = capsys.readouterr().out
    assert "100 steps" in out
    assert "wrote states" in out
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["seed"] == 9
    assert metrics["steps"] == 100


def test_simulate_prints_detections_and_confirmations(tmp_path, capsys):
    assert main(["simulate", str(SCENARIO_DIR / "calm_search.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert "detections 1, confirmations 1" in \
        capsys.readouterr().out.splitlines()


def test_simulate_seed_and_duration_overrides(cruise_file, tmp_path):
    rc = main(["simulate", str(cruise_file), "--seed", "42",
               "--duration", "0.5", "--out", str(tmp_path / "out")])
    assert rc == 0
    metrics = json.loads(
        (tmp_path / "out" / "run-seed42" / "metrics.json").read_text())
    assert metrics["seed"] == 42
    assert metrics["steps"] == 50


def test_simulate_respects_out_env_var(cruise_file, tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
    assert main(["simulate", str(cruise_file)]) == 0
    assert (tmp_path / "envout" / "run-seed9" / "states.csv").exists()


def test_simulate_out_flag_beats_env_var(cruise_file, tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
    assert main(["simulate", str(cruise_file),
                 "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "run-seed9" / "states.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_simulate_format_csv_only(cruise_file, tmp_path):
    rc = main(["simulate", str(cruise_file), "--format", "csv",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    run_dir = tmp_path / "out" / "run-seed9"
    assert (run_dir / "states.csv").exists()
    assert not (run_dir / "metrics.json").exists()


def test_simulate_rejects_unknown_format(cruise_file, tmp_path, capsys):
    rc = main(["simulate", str(cruise_file), "--format", "xml",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_negative_duration(cruise_file, tmp_path, capsys):
    rc = main(["simulate", str(cruise_file), "--duration", "-5",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "non-negative" in capsys.readouterr().err


def test_simulate_aborted_run_exits_2_with_partial_log(tmp_path, capsys):
    path = tmp_path / "blowup.yaml"
    path.write_text(BLOWUP_YAML)
    with np.errstate(all="ignore"):
        rc = main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "ABORTED" in capsys.readouterr().err
    run_dir = tmp_path / "out" / "run-seed9"
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["aborted"] is True
    # the partial state history is still on disk
    assert len((run_dir / "states.csv").read_text().splitlines()) > 1


@pytest.mark.parametrize("layout", ["out_is_file", "out_under_file",
                                    "run_dir_is_file"])
def test_unwritable_out_exits_1_before_the_run(layout, cruise_file, tmp_path,
                                               capsys, monkeypatch):
    # made of files, not permission bits, so it holds when run as root
    blocker = tmp_path / "blocker"
    if layout == "run_dir_is_file":
        blocker.mkdir()
        (blocker / "run-seed9").write_text("")
        out = blocker
    else:
        blocker.write_text("")
        out = blocker if layout == "out_is_file" else blocker / "sub"

    def no_run(scenario):
        raise AssertionError("the run started")

    monkeypatch.setattr("coastsim.cli.run_simulation", no_run)
    assert main(["simulate", str(cruise_file), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot create run directory {out / 'run-seed9'}: ")
    assert "Traceback" not in captured.err


def test_simulate_missing_scenario_exits_1(capsys):
    rc = main(["simulate", "/no/such/file.yaml"])
    assert rc == 1
    assert "scenario file not found" in capsys.readouterr().err


# --- validate -------------------------------------------------------------------

def test_validate_ok(cruise_file, capsys):
    assert main(["validate", str(cruise_file)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "seed=9" in out
    assert "kind=cruise" in out


def test_validate_bad_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("run: {seed: 1, dt: -1}\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error: scenario.run.dt" in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("hexapod, field", [
    ({"terrain_speeds": {"sand": 0}}, "scenario.hexapod.terrain_speeds.sand"),
    ({"home_radius": 0.5}, "scenario.hexapod.home_radius"),
])
def test_unrunnable_crawler_exits_1_with_field_path(hexapod, field, command,
                                                    tmp_path, capsys):
    # calm_search deploys the crawler; these two once passed validate and
    # then ended simulate in a traceback at deploy
    tree = yaml.safe_load((SCENARIO_DIR / "calm_search.yaml").read_text())
    tree["hexapod"] = hexapod
    path = tmp_path / "probe.yaml"
    path.write_text(yaml.safe_dump(tree))
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {field}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("section, key, field", [
    (("tuv", "towline"), "length", "scenario.tuv.towline.length"),
    (("mission",), "inspection_standoff", "scenario.mission.inspection_standoff"),
])
def test_cable_longer_than_the_drum_exits_1_with_field_path(
        section, key, field, command, tmp_path, capsys):
    # the winch drum holds 30 m: a longer towline once failed validate with
    # a traceback, and a longer standoff passed validate and then ended
    # simulate in a traceback at the switch to detailed inspection
    tree = yaml.safe_load((SCENARIO_DIR / "calm_search.yaml").read_text())
    node = tree
    for name in section:
        node = node.setdefault(name, {})
    node[key] = 45.0
    path = tmp_path / "probe.yaml"
    path.write_text(yaml.safe_dump(tree))
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {field}: must be <= 30.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- report ---------------------------------------------------------------------

def test_report_prints_metrics_and_event_counts(cruise_file, tmp_path, capsys):
    main(["simulate", str(cruise_file), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "out" / "run-seed9")])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"scenario": "run"' in out
    assert "run_end: 1" in out


def test_report_missing_dir_exits_1(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nowhere")]) == 1
    assert "error:" in capsys.readouterr().err


# --- usage errors ---------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["simulate", str(SCENARIO_DIR / "calm_cruise.yaml"), "--bogus"],
    ["simulate", str(SCENARIO_DIR / "calm_cruise.yaml"), "--seed", "abc"],
    [],
], ids=["unknown-flag", "bad-flag-value", "no-command"])
def test_usage_error_exits_1(argv, capsys):
    # exit 2 is an aborted run's: argparse's own usage exit is mapped to 1
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: coastsim") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]],
                         ids=["top", "simulate"])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: coastsim")


# --- inputs the loader turns away -----------------------------------------------

def _probe(tmp_path, command, text=None, data=None, extra=()):
    """Run `command` on a scenario file holding `text` (or bytes `data`)."""
    path = tmp_path / "probe.yaml"
    if data is None:
        path.write_text(text)
    else:
        path.write_bytes(data)
    argv = [command, str(path), *extra]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    return main(argv)


def _assert_rejected(rc, capsys, tmp_path, message):
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _shipped_with(name, keys, value):
    tree = yaml.safe_load((SCENARIO_DIR / name).read_text())
    _set(tree, keys, value)
    return yaml.safe_dump(tree)


def _set(tree, keys, value):
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("link", ["l1", "l2"])
def test_overlong_leg_link_exits_1_with_field_path(link, command, tmp_path,
                                                   capsys):
    # a 1e300 m link once ended both commands in an OverflowError traceback
    # from the loader's stand-pose check (l1 ** 2)
    text = _shipped_with("calm_search.yaml", ("hexapod", "geometry", link),
                         1.0e300)
    assert _probe(tmp_path, command, text) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: scenario.hexapod.geometry.{link}: must be <= 1.0, got 1e+300"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("swath", [2 ** 63, 1.0e18], ids=["2**63", "1e18"])
def test_overwide_swath_exits_1_with_field_path(swath, command, tmp_path,
                                                capsys):
    # a swath of 2**63 m once passed validate and then ended simulate in a
    # ValueError traceback from the coverage grid, sized by the swath
    text = _shipped_with("calm_search.yaml", ("mission", "swath"), swath)
    assert _probe(tmp_path, command, text) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: scenario.mission.swath: must be <= 1000.0, got {float(swath)}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, value, message", [
    (("controllers", "sensors", "gps_sigma"), 1.0e300, "must be <= 1000.0"),
    (("controllers", "sensors", "compass_sigma"), 1.0e300,
     "must be <= 1000.0"),
    (("controllers", "sensors", "gyro_sigma"), 1.0e300, "must be <= 1000.0"),
    (("controllers", "ekf", "gate_sigma"), 1.0e300, "must be <= 1000.0"),
    (("tuv", "towline", "attach_x"), 1.0e300, "must be <= 100.0"),
    (("tuv", "towline", "attach_x"), -1.0e300, "must be >= -100.0"),
    (("mission", "area", "width"), 1.0e12, "must be <= 10000.0"),
    (("mission", "area", "height"), 1.0e12, "must be <= 10000.0"),
], ids=["gps_sigma", "compass_sigma", "gyro_sigma", "gate_sigma",
        "attach_x-high", "attach_x-low", "area_width", "area_height"])
def test_huge_number_exits_1_with_field_path(keys, value, message, tmp_path,
                                             capsys):
    # a sigma or gate of 1e300 once ended simulate in an OverflowError
    # traceback from the Kalman update (sigma ** 2), a tow point at +-1e300
    # in a ValueError traceback from the tow coupling; a 1e12 m search area
    # side once passed validate, and simulate built ceil(side / swath)
    # lawnmower lanes before its first step
    text = _shipped_with("calm_search.yaml", keys, value)
    rc = _probe(tmp_path, "simulate", text)
    _assert_rejected(rc, capsys, tmp_path,
                     f"scenario.{'.'.join(keys)}: {message}, got {value}")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("index", [0, 5])
def test_negative_q_psd_exits_1_with_field_path(index, command, tmp_path,
                                                capsys):
    # q_psd[0] = -1 once passed validate and ended simulate with exit 2, a
    # SingularCovariance at a GPS update
    q_psd = [1e-4, 1e-4, 1e-5, 0.05, 0.05, 0.01]
    q_psd[index] = -1.0
    text = _shipped_with("storm_loiter.yaml", ("controllers", "ekf", "q_psd"),
                         q_psd)
    _assert_rejected(_probe(tmp_path, command, text), capsys, tmp_path,
                     f"scenario.controllers.ekf.q_psd[{index}]: "
                     f"must be >= 0.0, got -1.0")


@pytest.mark.parametrize("key, value", [
    ("stiffness", 2 ** 63), ("damping", 2 ** 63), ("stiffness", 1.0e18)],
    ids=["stiffness-2**63", "damping-2**63", "stiffness-1e18"])
def test_diverged_tow_coverage_aborts_with_exit_2(key, value, tmp_path,
                                                  capsys):
    # a towed body that diverges while searching once ended simulate in a
    # ValueError traceback from the coverage grid sized over its track
    tree = yaml.safe_load(
        _shipped_with("calm_search.yaml", ("tuv", "towline", key), value))
    tree["mission"]["deploy_time"] = 0
    assert _probe(tmp_path, "simulate", yaml.safe_dump(tree),
                  extra=("--duration", "10")) == 2
    assert "ABORTED: " in capsys.readouterr().err
    run_dir = next((tmp_path / "out").iterdir())
    events = [json.loads(line) for line in
              (run_dir / "events.jsonl").read_text().splitlines()]
    aborts = [ev["reason"] for ev in events if ev["event"] == "abort"]
    assert aborts[-1].startswith("CoverageTooLarge: ")
    assert events[-1]["event"] == "run_end"
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["aborted"] and metrics["area_searched"] is None
    assert metrics["steps"] > 0 and (run_dir / "states.csv").exists()


def _aborted_run(tmp_path, capsys, reason):
    """The run directory of a probe that exited 2 on `reason`, having
    printed nothing but its ABORTED line on stderr."""
    assert capsys.readouterr().err == f"ABORTED: {reason}\n"
    run_dir = next((tmp_path / "out").iterdir())
    events = [json.loads(line) for line in
              (run_dir / "events.jsonl").read_text().splitlines()]
    assert events[-2] == {"event": "abort", "reason": reason,
                          "t": events[-1]["t"]}
    assert events[-1]["event"] == "run_end"
    assert json.loads((run_dir / "metrics.json").read_text())["aborted"]
    assert (run_dir / "states.csv").exists()
    return run_dir


@pytest.mark.parametrize("name, changes, reason", [
    ("calm_cruise.yaml", {("asv", "initial", "r"): 1.0e307,
                          ("tuv", "towline", "attach_x"): -100},
     "NonFiniteInput: tow coupling requires finite inputs"),
    ("storm_loiter.yaml", {("asv", "initial"): {"u": 1.7e308, "v": -1.7e308,
                                                "psi": "45 deg"}},
     "NonFiniteInput: disturbance_wrench requires finite inputs"),
], ids=["tow-coupling", "wind"])
def test_non_finite_force_input_aborts_with_exit_2(name, changes, reason,
                                                   tmp_path, capsys):
    # schema-valid, and once ended simulate in a ValueError traceback from
    # the loop's finite-input guard
    tree = yaml.safe_load((SCENARIO_DIR / name).read_text())
    for keys, value in changes.items():
        _set(tree, keys, value)
    assert _probe(tmp_path, "simulate", yaml.safe_dump(tree)) == 2
    _aborted_run(tmp_path, capsys, reason)


def test_stiff_cable_abort_prints_only_its_aborted_line(tmp_path, capsys):
    # the filter's F P F^T once overflowed with a numpy RuntimeWarning on
    # stderr before the abort
    tree = yaml.safe_load(_shipped_with(
        "calm_cruise.yaml", ("tuv", "towline", "stiffness"), 5.62e32))
    tree["run"]["duration"] = 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _probe(tmp_path, "simulate", yaml.safe_dump(tree))
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    _aborted_run(tmp_path, capsys, "EstimatorDivergence: non-finite "
                                   "estimate after prediction")


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_subcell_swath_exits_1_with_field_path(command, tmp_path, capsys):
    # a swath of 1e-320 m once passed validate and then ended simulate in an
    # OverflowError traceback from the lawnmower's lane count
    text = _shipped_with("calm_search.yaml", ("mission", "swath"), 1.0e-320)
    assert _probe(tmp_path, command, text) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: scenario.mission.swath: must be >= 0.25, got 1e-320"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("name, keys, value, field", [
    # once exited 0 and wrote "Infinity"/"NaN" into metrics.json
    ("storm_loiter.yaml", ("mission", "point"), [float("inf"), 0],
     "scenario.mission.point[0]"),
    # once ended simulate in an OverflowError traceback
    ("storm_loiter.yaml", ("run", "duration"), float("inf"),
     "scenario.run.duration"),
    pytest.param("storm_loiter.yaml", ("run", "duration"), 10 ** 400,
                 "scenario.run.duration", id="duration-10**400"),
    # once dropped the gust without a word (max(0.0, nan) is 0.0)
    ("storm_loiter.yaml", ("world", "disturbances", "gust_tau"),
     float("nan"), "scenario.world.disturbances.gust_tau"),
    # once ended simulate in a ValueError traceback on the first step
    ("calm_cruise.yaml", ("asv", "initial", "psi"), float("nan"),
     "scenario.asv.initial.psi"),
    ("calm_cruise.yaml", ("mission", "heading"), float("nan"),
     "scenario.mission.heading"),
    ("calm_cruise.yaml", ("tuv", "towline", "attach_x"), float("nan"),
     "scenario.tuv.towline.attach_x"),
])
def test_non_finite_number_exits_1_with_field_path(name, keys, value, field,
                                                   command, tmp_path, capsys):
    rc = _probe(tmp_path, command, _shipped_with(name, keys, value))
    _assert_rejected(rc, capsys, tmp_path, f"{field}: must be finite")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("name, keys, value, message", [
    ("calm_cruise.yaml", ("run", "duration"), "abc s",
     "scenario.run.duration: cannot parse number in 'abc s'"),
    ("calm_cruise.yaml", ("asv",), [1, 2],
     "scenario.asv: expected a mapping, got list"),
    ("calm_cruise.yaml", ("tuv", "enabled"), 1,
     "scenario.tuv.enabled: expected true/false, got 1"),
    ("storm_loiter.yaml", ("mission", "point"), [1],
     "scenario.mission.point: expected a [x, y] pair"),
    ("calm_cruise.yaml", ("run", "dt"), None,
     "scenario.run.dt: required field is missing"),
    ("calm_search.yaml", ("hexapod", "terrain_speeds", "ice"), 0.1,
     "scenario.hexapod.terrain_speeds.ice: unknown terrain class"),
    ("calm_search.yaml", ("mission", "objects"), {"a": 1},
     "scenario.mission.objects: expected a list of objects"),
    ("calm_search.yaml", ("mission", "objects"), [{"id": "obj-1"}],
     "scenario.mission.objects[0].position: required field is missing"),
    ("calm_search.yaml", ("mission", "objects"), [{"position": [30, 15]}],
     "scenario.mission.objects[0].id: required field is missing"),
], ids=["duration-abc", "asv-list", "enabled-1", "point-one-number",
        "dt-null", "speed-ice", "objects-mapping", "object-no-position",
        "object-no-id"])
def test_mistyped_field_exits_1_with_field_path(name, keys, value, message,
                                                command, tmp_path, capsys):
    rc = _probe(tmp_path, command, _shipped_with(name, keys, value))
    _assert_rejected(rc, capsys, tmp_path, message)


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_string_in_a_unitless_field_exits_1_with_field_path(command, tmp_path,
                                                            capsys):
    rc = _probe(tmp_path, command, _shipped_with("calm_cruise.yaml",
                                                 ("asv", "m11"), "50"))
    _assert_rejected(rc, capsys, tmp_path,
                     "scenario.asv.m11: expected a number, got str")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("run, message", [
    ("{seed: -1}", "scenario.run.seed: must be in [0, 2**64)"),
    ("{seed: 18446744073709551616}", "scenario.run.seed: must be in [0, 2**64)"),
    ("{seed: 9, dt: 1.0e-320, duration: 1.0}",
     "scenario.run.duration: too many steps"),
])
def test_uncountable_run_exits_1_with_field_path(run, message, command,
                                                 tmp_path, capsys):
    rc = _probe(tmp_path, command, f"run: {run}\nmission: {{kind: cruise}}\n")
    _assert_rejected(rc, capsys, tmp_path, message)


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-5"], "--seed must be in [0, 2**64)"),
    (["--seed", str(2 ** 64)], "--seed must be in [0, 2**64)"),
    (["--duration", "inf"], "--duration must be non-negative"),
    (["--duration", "nan"], "--duration must be non-negative"),
    (["--duration", "1e307"], "--duration must be non-negative"),
])
def test_uncountable_override_exits_1(flags, message, tmp_path, capsys):
    rc = _probe(tmp_path, "simulate", CRUISE_YAML, extra=flags)
    _assert_rejected(rc, capsys, tmp_path, message)


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("data, message", [
    (b"run: {seed: 9}\n# \xff\n", "{path}: not UTF-8 text"),
    (b"run: {seed: 9, dt: !!int abc}\n", "{path}: not valid YAML"),
    (b"run: {seed: 9}\n5: x\nzz: y\n", "scenario.5: unknown key"),
])
def test_unreadable_scenario_exits_1(data, message, command, tmp_path,
                                     capsys):
    rc = _probe(tmp_path, command, data=data)
    _assert_rejected(rc, capsys, tmp_path,
                     message.format(path=tmp_path / "probe.yaml"))


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_directory_as_scenario_exits_1(command, tmp_path, capsys):
    argv = [command, str(tmp_path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    _assert_rejected(main(argv), capsys, tmp_path,
                     f"{tmp_path}: cannot read the file")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("text", [
    "a: " + "[" * 100_000 + "]" * 100_000 + "\n",
    "a: " + "[{a: " * 14_000 + "}]" * 14_000 + "\n",
], ids=["100k-brackets", "14k-bracket-brace-pairs"])
def test_deep_nesting_exits_1_in_a_subprocess(text, command, tmp_path):
    # libyaml's composer recurses on the C stack: these crash a process
    # that hands them to it (SIGSEGV), so run the CLI in its own process
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    src = str(Path(coastsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "coastsim.cli", command, str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert f"error: {path}: not valid YAML (nested too deeply)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_nesting_past_the_recursion_limit_exits_1(command, tmp_path, capsys):
    # too deep for the C loader, so the Python one parses it and runs out
    # of recursion depth (in process: it recurses in Python, not in C)
    text = "x: " + "[" * 6000 + "]" * 6000 + "\n"
    _assert_rejected(_probe(tmp_path, command, text), capsys, tmp_path,
                     f"{tmp_path / 'probe.yaml'}: not valid YAML "
                     "(nested too deeply)")


@pytest.mark.parametrize("name", ["calm_search.yaml", "storm_loiter.yaml",
                                  "calm_cruise.yaml"])
def test_shipped_metrics_are_strict_json(name, tmp_path):
    def refuse(constant):
        raise ValueError(f"metrics.json holds {constant}")
    assert main(["simulate", str(SCENARIO_DIR / name), "--duration", "5",
                 "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("*/metrics.json")
    json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("keys, value", [
    (("asv", "initial", "x"), 1.0e160),
    (("mission", "point"), [1.0e160, 0]),
], ids=["far-start", "far-point"])
def test_unmeasurable_loiter_offsets_are_null(keys, value, tmp_path, capsys):
    # the offsets' norm overflows: metrics.json once held Infinity and NaN,
    # and numpy printed two RuntimeWarnings
    def refuse(constant):
        raise ValueError(f"metrics.json holds {constant}")
    tree = yaml.safe_load(_shipped_with("storm_loiter.yaml", keys, value))
    tree["run"]["duration"] = 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _probe(tmp_path, "simulate", yaml.safe_dump(tree))
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    (path,) = tmp_path.glob("out/*/metrics.json")
    metrics = json.loads(path.read_text(), parse_constant=refuse)
    assert metrics["loiter_max_offset"] is None
    assert metrics["loiter_p95_offset"] is None
    assert metrics["loiter_fraction_within_2p5"] == 0.0


# --- run names, terrain files and run directories -------------------------------

@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("name", ["", ".", "..", "../../escape", "a/b",
                                  "a\\b", "a\0b", "/abs"],
                         ids=["empty", "dot", "dotdot", "escape", "slash",
                              "backslash", "nul", "absolute"])
def test_run_name_that_is_not_a_file_name_exits_1(name, command, tmp_path,
                                                  capsys):
    # the run directory is <out>/<name>-seed<seed>: "../../escape" once
    # wrote two levels above --out, "a\0b" once ran the whole scenario and
    # then ended in a ValueError traceback
    text = yaml.safe_dump({"run": {"name": name, "seed": 9, "duration": 0.1},
                           "mission": {"kind": "cruise"}})
    rc = _probe(tmp_path, command, text)
    _assert_rejected(rc, capsys, tmp_path,
                     "scenario.run.name: must be a file name")
    assert not (tmp_path.parent / "escape-seed9").exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "probe.yaml"]


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("name, size", [("n" * 231, 231), ("ö" * 116, 232)],
                         ids=["ascii", "utf8"])
def test_run_name_too_long_for_a_file_name_exits_1(name, size, command,
                                                   tmp_path, capsys):
    # <name>-seed<seed> past 255 bytes once ran the whole scenario and then
    # ended in an OSError traceback (File name too long)
    text = yaml.safe_dump({"run": {"name": name, "seed": 9, "duration": 0.1},
                           "mission": {"kind": "cruise"}})
    rc = _probe(tmp_path, command, text)
    _assert_rejected(rc, capsys, tmp_path, "scenario.run.name: must be a file "
                                           f"name of at most 230 bytes, got {size}")


@pytest.mark.parametrize("name", ["calm-search", "a.b", "...", "run 1",
                                  "kö", "n" * 230],
                         ids=["dash", "dot", "dots", "space", "utf8", "230"])
def test_run_name_that_is_a_file_name_is_the_directory(name, tmp_path):
    text = yaml.safe_dump({"run": {"name": name, "seed": 9, "duration": 0.1},
                           "mission": {"kind": "cruise"}})
    assert _probe(tmp_path, "simulate", text) == 0
    assert (tmp_path / "out" / f"{name}-seed9" / "metrics.json").exists()


TERRAIN_HEAD = "# a two-cell strip\ncell_size: 500\norigin: -500 -500\n"


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("terrain, line, message", [
    (b"cell_size: abc\ngrid:\nss\n", 1, "cell_size is not a number: 'abc'"),
    (b"cell_size: -1\ngrid:\nss\n", 1, "cell_size must be positive"),
    (b"cell_size: 0\ngrid:\nss\n", 1, "cell_size must be positive"),
    (b"cell_size: inf\ngrid:\nss\n", 1, "cell_size must be finite"),
    (b"cell_size: nan\ngrid:\nss\n", 1, "cell_size must be finite"),
    (TERRAIN_HEAD.encode() + b"depths: s=abc\ngrid:\nss\n", 4,
     "depth is not a number: 'abc'"),
    (TERRAIN_HEAD.encode() + b"depths: r=nan\ngrid:\nss\n", 4,
     "depth must be finite"),
    (TERRAIN_HEAD.encode() + b"depths: m\ngrid:\nss\n", 4,
     "depth is not a number: ''"),
    (b"cell_size: 500\norigin: 0 inf\ngrid:\nss\n", 2,
     "origin must be finite"),
    (b"cell_size: 500\norigin: x 0\ngrid:\nss\n", 2,
     "origin is not a number: 'x'"),
    (TERRAIN_HEAD.encode() + b"grid:\nss\n# s\xc3\xa4nd\n", 6,
     "not ASCII text"),
    (TERRAIN_HEAD.encode() + b"grid:\nss\nsss\n", 6,
     "grid row of 3 cells, the first has 2"),
    (b"cell_size: 500\norigin: 5\ngrid:\nss\n", 2,
     "origin needs two numbers"),
    (TERRAIN_HEAD.encode() + b"depths: x=3\ngrid:\nss\n", 4,
     "unknown class 'x'"),
    (TERRAIN_HEAD.encode() + b"grid:\n", None, "missing grid rows"),
], ids=["cell-abc", "cell-negative", "cell-zero", "cell-inf", "cell-nan",
        "depth-abc", "depth-nan", "depth-missing", "origin-inf", "origin-x",
        "non-ascii", "ragged", "origin-one-number", "depth-class-x",
        "no-grid-rows"])
def test_malformed_terrain_file_exits_1_with_file_and_line(
        terrain, line, message, command, tmp_path, capsys):
    path = tmp_path / "strip.terrain"
    path.write_bytes(terrain)
    rc = _probe(tmp_path, command, CRUISE_YAML + "world: {terrain: strip.terrain}\n")
    where = path if line is None else f"{path}:{line}"
    _assert_rejected(rc, capsys, tmp_path,
                     f"scenario.world.terrain: {where}: {message}")


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_terrain_directory_exits_1(command, tmp_path, capsys):
    (tmp_path / "strip.terrain").mkdir()
    rc = _probe(tmp_path, command, CRUISE_YAML + "world: {terrain: strip.terrain}\n")
    _assert_rejected(rc, capsys, tmp_path,
                     f"scenario.world.terrain: {tmp_path / 'strip.terrain'}: "
                     f"cannot read the file")


def test_report_reads_a_json_only_run(cruise_file, tmp_path, capsys):
    # simulate --format json writes no states.csv, and report prints
    # nothing from it
    out = tmp_path / "out"
    assert main(["simulate", str(cruise_file), "--format", "json",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out / "run-seed9")]) == 0
    printed = capsys.readouterr().out
    assert '"scenario": "run"' in printed
    assert "run_end: 1" in printed


def test_report_prints_what_read_run_reads(cruise_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["simulate", str(cruise_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out / "run-seed9")]) == 0
    log = read_run(out / "run-seed9")
    counts = {}
    for event in log.events:
        counts[event["event"]] = counts.get(event["event"], 0) + 1
    expected = json.dumps(log.metrics, indent=2, sort_keys=True) + "\n" + "".join(
        f"{name}: {counts[name]}\n" for name in sorted(counts))
    assert capsys.readouterr().out == expected


# (file, bytes written over it, start of the error naming it)
MALFORMED_RUN_FILES = pytest.mark.parametrize("kind, data, message", [
    ("metrics", b'{"steps": 1,', "{metrics}: not valid JSON"),
    ("metrics", b"[1, 2]\n", "{metrics}: not a JSON object"),
    ("metrics", b'{"scenario": "r\xc3\xa4n"}\n', "{metrics}: cannot read the file"),
    ("metrics", b"[" * 100_000 + b"]" * 100_000, "{metrics}: not valid JSON"),
    ("events", b'{"event": "run_end"}\n{"event": \n', "{events}:2: not valid JSON"),
    ("events", b'{"event": "run_end"}\n\n[1]\n', "{events}:3: not an event record"),
    ("events", b'{"t": 0.0}\n', "{events}:1: not an event record"),
    ("events", b'{"event": "\\ud800"}\n', "{events}:1: not an event record"),
    ("events", b'\xff\n', "{events}: cannot read the file"),
], ids=["metrics-truncated", "metrics-list", "metrics-non-ascii",
        "metrics-deep", "events-truncated", "events-list", "events-no-kind",
        "events-surrogate", "events-non-ascii"])


def _malformed_run(cruise_file, tmp_path, kind, data, message):
    """(run directory, message naming the file) of a simulated run with
    data written over its `kind` file."""
    run_dir = tmp_path / "out" / "run-seed9"
    main(["simulate", str(cruise_file), "--out", str(tmp_path / "out")])
    paths = {"metrics": run_dir / "metrics.json",
             "events": run_dir / "events.jsonl"}
    paths[kind].write_bytes(data)
    return run_dir, message.format(**paths)


@MALFORMED_RUN_FILES
def test_report_on_malformed_run_file_exits_1_naming_it(
        kind, data, message, cruise_file, tmp_path, capsys):
    run_dir, message = _malformed_run(cruise_file, tmp_path, kind, data,
                                      message)
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


@MALFORMED_RUN_FILES
def test_read_run_on_malformed_run_file_raises_naming_it(
        kind, data, message, cruise_file, tmp_path):
    # read_run reads events.jsonl and metrics.json through the reader
    # report uses, so it raises the same error for the same file
    run_dir, message = _malformed_run(cruise_file, tmp_path, kind, data,
                                      message)
    with pytest.raises(RunFileError) as caught:
        read_run(run_dir)
    assert str(caught.value).startswith(message)


def test_report_on_a_directory_without_run_files_exits_1(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: no metrics.json or events.jsonl in {tmp_path}" in err
