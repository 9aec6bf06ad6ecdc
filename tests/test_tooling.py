import ast
import dataclasses
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import coastsim
from coastsim import core, hexapod, runner, scenario
from coastsim.asv import BodyWrench
from coastsim.control import GuidanceSetpoint, PidController
from coastsim.core import SeededRng
from coastsim.environment import STREAM_GUST
from coastsim.hexapod import HexapodParams, HexapodState, body_advance, stand_legs
from coastsim.nav import (STREAM_COMPASS, STREAM_GPS, STREAM_GYRO,
                          EstimatorState, SensorReading, UpdateResult,
                          initial_estimate)
from coastsim.runner import Simulation, emit_outputs, read_run
from coastsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SCENARIO_DIR = ROOT / "scenarios"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the benchmark's traced mode looks each (module, attribute) up by name,
    # a method in its class __dict__: removing or renaming one breaks every
    # `--trace 1` run
    for name, modname, attr in _load_tracer().TRACED:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_traced_sampler_records_one_call_per_step():
    # the run loop samples through nav.sample_sensors, the name the
    # benchmark's tracer wraps, so its span counts every step
    scn = dataclasses.replace(load_scenario(SCENARIO_DIR / "storm_loiter.yaml"),
                              duration=2.0)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        runner.run_simulation(scn)
    finally:
        tracer.uninstall()
    calls = {name: c for name, (c, _, _) in
             tracer.summary(0, len(tracer)).items()}
    assert round(scn.duration / scn.dt) == 20
    assert calls["runner.step"] == calls["nav.sample_sensors"] == 20


@pytest.mark.skipif(not getattr(yaml, "__with_libyaml__", False),
                    reason="PyYAML built without libyaml")
def test_scenarios_parse_with_libyaml(yaml_loaders_built):
    # the pure-Python parser is several times slower on every set-up: a
    # return to yaml.safe_load must fail here, not only on the benchmark
    load_scenario(SCENARIO_DIR / "storm_loiter.yaml")
    assert yaml_loaders_built == [yaml.CSafeLoader]


def _library_use_names():
    """Names the README's "Library use" section imports or cites in
    backticks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    names = set()
    for match in re.finditer(r"^from coastsim import (.+)$", section, re.M):
        names.update(part.strip() for part in match.group(1).split(","))
    names.update(re.findall(r"`([A-Za-z_]\w*)`", section))
    return names


def test_readme_library_names_resolve():
    names = _library_use_names()
    assert {"load_scenario", "run_simulation", "body_advance"} <= names
    missing = sorted(name for name in names if not hasattr(coastsim, name))
    assert not missing, f"README names no coastsim export: {missing}"


def _number(value) -> str:
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _schema_cells(row):
    """(path, default, unit, range) of a scenario.SCHEMA row as the README's
    schema table shows them; the unit is its table's SI unit."""
    section, key, default, units, low, high = row
    lower = ("(-inf" if low is None else "(0" if low is scenario.POSITIVE
             else f"[{_number(low)}")
    upper = "inf)" if high is None else f"{_number(high)}]"
    return (f"{section.partition(':')[0]}.{key}",
            "—" if default is None else _number(default),
            "—" if units is None else next(
                name for name, factor in units.items() if factor == 1.0),
            f"{lower}, {upper}")


def _readme_schema_cells():
    """The first four cells of each row of the README's schema table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Schema reference", 1)[1].split("\n### ", 1)[0]
    return [tuple(cell.strip().strip("`")
                  for cell in line.strip("|").split("|")[:4])
            for line in section.splitlines() if line.startswith("| `")]


def test_readme_schema_table_matches_the_loader_table():
    # the README documents every number the loader reads, with the default,
    # unit and range the loader applies: a row the table gains, loses or
    # changes must show in the README too
    readme = _readme_schema_cells()
    assert len(readme) == len(scenario.SCHEMA)
    for row, cells in zip(scenario.SCHEMA, readme):
        assert cells == _schema_cells(row), row


# numpy and BLAS are for the EKF's covariance algebra only: these nav.py
# functions may make BLAS-backed products, and nothing in the package calls a
# numpy ufunc that math also has (arc- names as math's a- names; the
# predicates such as isfinite round nothing), nor spells one as a power: a
# power call, or ** with a literal exponent that is not an integer (x ** 0.5
# is np.sqrt)
COVARIANCE_FUNCTIONS = {"_stage_jacobian", "_predict"}
BLAS_CALLS = {"np.dot", "np.vdot", "np.inner", "np.matmul", "np.linalg.solve",
              "np.linalg.inv"}
POWER_CALLS = {"np.power", "np.float_power"}
MATH_UFUNCS = {name for name, ufunc in vars(np).items()
               if isinstance(ufunc, np.ufunc)
               and hasattr(math, name.replace("arc", "a", 1))
               and not all(sig.endswith("?") for sig in ufunc.types)}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def _numeric_call(node):
    """What a BLAS-backed product or a math-like numpy ufunc call is, or
    None for any other node."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult):
        return "@"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Pow):
        exponent = node.right if isinstance(node, ast.BinOp) else node.value
        literal = (exponent.operand if isinstance(exponent, ast.UnaryOp)
                   else exponent)
        if (isinstance(literal, ast.Constant)
                and not isinstance(literal.value, int)):
            return f"** {ast.unparse(exponent)}"
        return None
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return None
    name = _dotted(node.func)
    if name in BLAS_CALLS or name in POWER_CALLS:
        return name
    if name == "np.linalg.norm" and not any(kw.arg == "axis"
                                            for kw in node.keywords):
        return "np.linalg.norm without axis"
    if node.func.attr == "dot":
        return "ndarray.dot"
    if name.startswith("np.") and name[3:] in MATH_UFUNCS:
        return name
    return None


def _numeric_calls(path: Path) -> list:
    """(function, what) of each BLAS-backed product and math-like numpy
    ufunc call in a module, by the innermost enclosing function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, ast.FunctionDef)
                     else owner)
            what = _numeric_call(child)
            if what is not None:
                found.append((inner, what))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_blas_and_numpy_ufuncs_only_in_the_covariance_algebra():
    # scalars and 2- or 3-vectors are float arithmetic and math, so their
    # bytes do not depend on numpy's SIMD target or the BLAS kernel: a
    # product or ufunc call anywhere else must fail here by name
    assert {"hypot", "arctan2", "sqrt", "cos"} <= MATH_UFUNCS
    assert "isfinite" not in MATH_UFUNCS
    spelled = {source: [what for node in ast.walk(ast.parse(source))
                        if (what := _numeric_call(node)) is not None]
               for source in ("x ** 0.5", "x ** -0.5", "x **= 1.5",
                              "np.power(x, 0.5)", "x ** 2", "x ** n")}
    assert spelled == {"x ** 0.5": ["** 0.5"], "x ** -0.5": ["** -0.5"],
                       "x **= 1.5": ["** 1.5"],
                       "np.power(x, 0.5)": ["np.power"], "x ** 2": [],
                       "x ** n": []}
    outside, covariance = [], set()
    for path in sorted((ROOT / "src" / "coastsim").glob("*.py")):
        for owner, what in _numeric_calls(path):
            if path.name == "nav.py" and owner in COVARIANCE_FUNCTIONS:
                covariance.add(owner)
            else:
                outside.append(f"{path.name}:{owner}: {what}")
    assert not outside
    assert covariance == COVARIANCE_FUNCTIONS  # the guard sees their products


def test_package_exports_resolve():
    # every name coastsim/__init__.py imports is the object its module
    # defines under that name
    tree = ast.parse((ROOT / "src" / "coastsim" / "__init__.py").read_text())
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert len(exports) > 50
    for module, name in exports:
        owner = importlib.import_module(f"coastsim.{module}")
        assert getattr(coastsim, name) is getattr(owner, name), name


def _self_assignments(func: ast.FunctionDef) -> list:
    """Each attribute a method assigns as `self.<attr>`, tuple targets and
    augmented assignments included."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [leaf.attr for target in targets for leaf in ast.walk(target)
                  if isinstance(leaf, ast.Attribute)
                  and isinstance(leaf.ctx, ast.Store)
                  and isinstance(leaf.value, ast.Name)
                  and leaf.value.id == "self"]
    return found


def test_simulation_methods_assign_only_what_init_sets():
    # a Simulation's state is what __init__ sets; a value one stage of the
    # step hands a later one is returned, not parked on self: an attribute
    # first set mid-step must fail here by name
    tree = ast.parse((ROOT / "src" / "coastsim" / "runner.py")
                     .read_text(encoding="utf-8"))
    sim = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Simulation")
    methods = {node.name: _self_assignments(node) for node in sim.body
               if isinstance(node, ast.FunctionDef)}
    declared = set(methods.pop("__init__"))
    assert {"step_count", "rows", "events", "abort_reason"} <= declared
    assert methods["step"]  # the walk sees the step's own assignments
    stray = sorted({f"{name}: self.{attr}" for name, attrs in methods.items()
                    for attr in attrs if attr not in declared})
    assert not stray


def _count_inits(monkeypatch, cls, record=lambda obj: None):
    """The list that each later cls(...) appends record(new instance) to."""
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(record(self))

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("name", ["storm_loiter", "calm_cruise"])
def test_steady_steps_build_no_value_objects(monkeypatch, name):
    # past the first step, the step makes its controller successors without
    # their dataclass __init__ and reuses each guidance target's setpoint: a
    # return to rebuilding them per step must fail here by name, not only on
    # the benchmark
    sim = Simulation(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    sim.step()
    built = {cls.__name__: _count_inits(monkeypatch, cls)
             for cls in (PidController, GuidanceSetpoint)}
    for _ in range(200):
        sim.step()
    assert sim.step_count == 201
    assert {cls_name: len(calls) for cls_name, calls in built.items()} == {
        "PidController": 0, "GuidanceSetpoint": 0}
    # wrenches are named tuples, several of them per step
    assert not dataclasses.is_dataclass(BodyWrench)
    assert isinstance(sim.ctrl_wrench, tuple)


def _count_news(monkeypatch, cls):
    """The list that each later cls(...) appends cls to (a named tuple is
    built by its __new__)."""
    built = []
    new = cls.__new__

    def counting(klass, *args, **kwargs):
        built.append(klass)
        return new(klass, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return built


class _CountingGenerator:
    """A stream's Generator that records the size of each standard_normal
    call (None for a scalar draw)."""

    def __init__(self, gen, sizes):
        self._gen, self._sizes = gen, sizes

    def standard_normal(self, size=None, *args, **kwargs):
        self._sizes.append(size)
        return self._gen.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_steady_steps_build_no_readings_and_draw_noise_in_blocks(monkeypatch):
    # the step reads sensors and updates the estimate through the float
    # cores, and the sensor and gust noise comes from pre-drawn blocks: a
    # return to SensorReading / UpdateResult per reading or to one
    # Generator call per draw must fail here by name, not only on the
    # benchmark
    noise = (STREAM_GPS, STREAM_COMPASS, STREAM_GYRO, STREAM_GUST)
    sizes = {sid: [] for sid in noise}
    stream = SeededRng.stream

    def counting_stream(self, stream_id):
        gen = stream(self, stream_id)
        if stream_id not in sizes:
            return gen
        return _CountingGenerator(gen, sizes[stream_id])

    monkeypatch.setattr(SeededRng, "stream", counting_stream)
    sim = Simulation(load_scenario(SCENARIO_DIR / "storm_loiter.yaml"))
    sim.step()
    built = {cls.__name__: _count_news(monkeypatch, cls)
             for cls in (SensorReading, UpdateResult)}
    for sid in noise:
        sizes[sid].clear()
    for _ in range(200):
        sim.step()
    assert sim.step_count == 201
    assert {name: len(calls) for name, calls in built.items()} == {
        "SensorReading": 0, "UpdateResult": 0}
    # compass, gyro and gust draw once per step, GPS a pair a second: only
    # block-sized calls reach the Generator, at most one per block drawn
    block = core._NORMAL_BLOCK
    for sid in noise:
        assert all(size == block for size in sizes[sid]), sid
        assert len(sizes[sid]) <= -(-200 // block), sid
    assert sizes[STREAM_GUST]  # 200 draws cross a block boundary


@pytest.mark.parametrize("name", ["storm_loiter", "calm_cruise"])
def test_steady_steps_build_no_estimator_objects(monkeypatch, name):
    # past the first step, the step carries the estimate as six floats and
    # a covariance through nav's float cores: a return to an EstimatorState
    # per predict or update, or to an UpdateResult per reading, must fail
    # here by name, not only on the benchmark
    sim = Simulation(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    sim.step()
    built = {"EstimatorState": _count_inits(monkeypatch, EstimatorState),
             "UpdateResult": _count_news(monkeypatch, UpdateResult)}
    for _ in range(200):
        sim.step()
    assert sim.step_count == 201
    assert {cls_name: len(calls) for cls_name, calls in built.items()} == {
        "EstimatorState": 0, "UpdateResult": 0}
    assert type(sim.est_x) is list and len(sim.est_x) == 6
    assert all(type(value) is float for value in sim.est_x)
    assert type(sim.est_P) is np.ndarray and sim.est_P.shape == (6, 6)
    initial_estimate(sim.truth)  # the counter sees a build
    assert len(built["EstimatorState"]) == 1


def test_search_builds_each_setpoint_once(monkeypatch):
    # every phase of a search: home, each lane end and the inspected target
    # (as a waypoint, then as a loiter point)
    built = _count_inits(monkeypatch, GuidanceSetpoint,
                         lambda sp: (sp.mode, tuple(sp.target.tolist())))
    log = Simulation(load_scenario(SCENARIO_DIR / "calm_search.yaml")).run()
    assert log.metrics["concluded"] and log.metrics["confirmations"] >= 1
    assert len(built) == len(set(built))
    assert {mode for mode, _ in built} == {"waypoint", "loiter"}


def test_read_run_splits_plain_lines_and_decides_each_cell_once(
        monkeypatch, tmp_path):
    # an emitted run has no quoted line, so read_run must split every line
    # itself and call the int-first helper only for cells without a "."
    # (hex_deployed and hex_faults here): a return to csv.reader or to one
    # parser call per cell must fail here by name, not only on the benchmark
    scn = dataclasses.replace(load_scenario(SCENARIO_DIR / "calm_cruise.yaml"),
                              duration=0.5)
    log = Simulation(scn).run()
    emit_outputs(log, tmp_path, formats=("csv",))

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader on a file with no quoted line")

    monkeypatch.setattr(runner.csv, "reader", no_reader)
    seen = []
    int_first = runner._int_first

    def counting(cell):
        seen.append(cell)
        return int_first(cell)

    monkeypatch.setattr(runner, "_int_first", counting)
    back = read_run(tmp_path)
    assert back.columns == log.columns and back.rows == log.rows
    lines = (tmp_path / "states.csv").read_text(encoding="ascii").splitlines()
    phase = lines[0].split(",").index("phase")
    assert len(lines) == 1 + 50
    assert seen == [cell for line in lines[1:]
                    for i, cell in enumerate(line.split(","))
                    if cell and "." not in cell and i != phase]
    assert seen and all(cell == "0" for cell in seen)  # hex_deployed, faults


def test_steady_walk_builds_one_gait_table_per_speed():
    # the crawler builds its legs' gait constants once per set of gait
    # inputs: a return to building them on every step must fail here by
    # name, not only on the benchmark
    params = HexapodParams()
    state = HexapodState(np.zeros(2), terrain="sand", legs=stand_legs(params))
    hexapod._build_gait_table.cache_clear()

    def builds_after(terrain, steps):
        nonlocal state
        state.terrain = terrain
        for _ in range(steps):
            state = body_advance(state, 0.3, 0.1, params)
        return hexapod._build_gait_table.cache_info().misses

    assert builds_after("sand", 500) == 1
    assert params.speed_for("rock") != params.speed_for("sand")
    assert builds_after("rock", 50) == 2
    assert builds_after("sand", 50) == 2
    assert state.faults == 0 and state.gait_t > 59.0


@pytest.mark.parametrize("case, code, last_line", [
    ("usage", 1, "coastsim simulate: error: argument --seed: invalid int "
                 "value: 'abc'"),
    ("stiff-cable", 2, "ABORTED: EstimatorDivergence: non-finite estimate "
                       "after prediction"),
], ids=["usage", "stiff-cable"])
def test_console_exit_codes_without_traceback_or_warning(case, code,
                                                         last_line, tmp_path):
    # the console path: a real sys.exit and the process's own stderr, where
    # a numpy warning or an uncaught exception would print
    tree = yaml.safe_load((SCENARIO_DIR / "calm_cruise.yaml").read_text())
    tree["run"]["duration"] = 3
    tree.setdefault("tuv", {}).setdefault("towline", {})["stiffness"] = 5.62e32
    path = tmp_path / "stiff.yaml"
    path.write_text(yaml.safe_dump(tree))
    argv = [sys.executable, "-m", "coastsim.cli", "simulate", str(path),
            "--out", str(tmp_path / "out")]
    if case == "usage":
        argv += ["--seed", "abc"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == code, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-1] == last_line
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
