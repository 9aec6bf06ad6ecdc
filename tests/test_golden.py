"""Pinned output digests of the shipped scenarios.

Byte identity within one build is checked by test_runner; these digests
catch a change that quietly alters results across builds. A change that
moves a digest on purpose says why in CHANGES.md and re-pins it here.

The digests are for numpy 2.4.x on x86-64 Linux. Scalars and short vectors
are Python float arithmetic, so the bytes still depend on glibc's libm (the
transcendentals), CPython's math.hypot and float repr, numpy's axis
reductions, and the OpenBLAS kernel that computes the EKF prediction's
covariance products. That kernel is the one dependence on the host left: numpy's SIMD
dispatch target does not move a digest (the AVX2-only test below), and
test_nav checks that `ndarray.dot` and `@` agree bit for bit, so a numpy
that routes them apart fails there by name.
"""

import hashlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from coastsim.environment import load_terrain
from coastsim.hexapod import HexapodParams, HexapodState, body_advance, stand_legs
from coastsim.mission import MissionPhase, coverage_report
from coastsim.runner import (COLUMNS, INT_COLUMNS, PRESENCE_GROUPS, RowStore,
                             Simulation, emit_outputs, run_simulation)
from coastsim.scenario import load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# scenario -> sha256 of (states.csv, events.jsonl, metrics.json)
GOLDEN = {
    "calm_cruise": (
        "94bdda86016d43dbe1ea83e3cd4e1e6cd89bdab63bbe231cc5bb536dfdbaa55c",
        "74143557ed934016f95ccb674c7e3d0268702c82e96656e2d8af1385ddf2331b",
        "7c8eaa1ae20d867ecad7cc0234f15f864b042ea0679bd6a754f65f98368fe500",
    ),
    "storm_loiter": (
        "9b14e43ca1cdabfd0562106789588260ec25b61c94584c181d9da35e97702190",
        "9b6ce8eebbbf98f54e13772aef3053fd7cff402fd54a4c81803856ad2d710d83",
        "6405aa5828a79a6f58c0780bec4b9c15a35a0cb371791e68c9eae79054f27d77",
    ),
    "calm_search": (
        "b91ff9ecb350de66c5113937208fa3e3fe2f1d9cc30caa9b11380ba0627728bd",
        "df847173824ebf060e3f1fb5100d1e500a17956f7f574269f8182b895dbcb55b",
        "df2b3988663a8fe5e2293528b6217a252298f10e542c1e1bd8253736d12702ad",
    ),
}


def _digests(log, out: Path) -> tuple:
    written = emit_outputs(log, out)
    return tuple(hashlib.sha256(Path(written[kind]).read_bytes()).hexdigest()
                 for kind in ("states", "events", "metrics"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests(name, tmp_path):
    log = run_simulation(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    assert _digests(log, tmp_path) == GOLDEN[name]


# numpy's AVX-512 dispatch targets; disabling them runs numpy's ufuncs as on
# an AVX2-only host
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _dispatch_targets() -> set:
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        return set()
    return set(_multiarray_umath.__cpu_dispatch__)


@pytest.mark.skipif(not set(AVX512_TARGETS) <= _dispatch_targets(),
                    reason="numpy has no AVX-512 dispatch targets to disable")
def test_shipped_scenario_digests_on_avx2_only_dispatch():
    # the same pinned digests, all three runs in one process with numpy's
    # AVX-512 targets switched off
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_shipped_scenario_digests"],
        cwd=SCENARIO_DIR.parent, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]


# Short runs built from a shipped scenario, each taking a path the shipped
# runs do not: name -> (scenario, changes to its tree). Each test pins its
# run's digests whole and resumed from a Simulation pickled halfway.

# a one-lane search on a 5 m line whose object the towed body finds on its
# first pass: the crawler deploys at t = 29.55 s
SHORT_SEARCH = {
    ("tuv", "towline", "length"): 5.0,
    ("mission", "area"): {"x": 0, "y": 0, "width": 20, "height": 10},
    ("mission", "objects"): [{"id": "obj-1", "position": [5, 3],
                              "class": "device"}],
    ("mission", "deploy_time"): 1.0,
}
CORPUS = {
    "search_without_tow": ("calm_search", {("tuv", "enabled"): False,
                                           ("run", "duration"): 40}),
    "narrow_gate": ("storm_loiter", {("controllers", "ekf", "gate_sigma"): 0.3,
                                     ("run", "duration"): 20}),
    "crawler_off_terrain": ("calm_search", {
        **SHORT_SEARCH, ("run", "duration"): 40,
        ("world", "terrain"): {"uniform": "sand", "extent": 10}}),
    "crawler_halted": ("calm_search", {**SHORT_SEARCH, ("run", "duration"): 32,
                                       ("hexapod", "stride"): 0.4}),
}


def _corpus_scenario(name: str):
    scenario, changes = CORPUS[name]
    tree = yaml.safe_load((SCENARIO_DIR / f"{scenario}.yaml").read_text())
    for keys, value in changes.items():
        node = tree
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return parse_scenario(tree, SCENARIO_DIR)


def _pinned_run(tmp_path, name: str, digests: tuple):
    scn = _corpus_scenario(name)
    whole = Simulation(scn).run()
    assert _digests(whole, tmp_path / "whole") == digests
    sim = Simulation(scn)
    while sim.step_count < len(whole.rows) // 2:
        sim.step()
    resumed = pickle.loads(pickle.dumps(sim)).run()
    assert _digests(resumed, tmp_path / "resumed") == digests
    return whole


def _filled(log, column: str) -> int:
    i = COLUMNS.index(column)
    return sum(row[i] is not None for row in log.rows)


def test_search_without_the_tow_sweeps_from_the_vessel(tmp_path):
    log = _pinned_run(tmp_path, "search_without_tow", (
        "6d4d2dfc62b10e213dc9e0276f827f214ddcc3ff705d603f2fcc8fec22c0d1f1",
        "6bcee2101535a0a2ed5e851d17ae1dbe6b20d95b0d6117432fec9c556502e29b",
        "62a3e067f27d878cfc69d2ef9972e9b7807b657fb7b21466a55804da5e496565"))
    phase = COLUMNS.index("phase")
    assert sum(row[phase] == "wide_area_search" for row in log.rows) == 699
    assert _filled(log, "tuv_x") == 0


def test_narrow_gate_rejects_readings_of_every_sensor(tmp_path):
    log = _pinned_run(tmp_path, "narrow_gate", (
        "bbf3af6051a62610619ca54575defdbac53b4b08542b68e2c8db7b6dddcdd000",
        "d47772c385a5baaab916280a5a6278f10687427a2c69893ace8c9118fd3e69ff",
        "3fa9a6052d623faf2fc1b56500e6b015b71c15038a64a9005ead68386f069a67"))
    # accepted of the 20 GPS, 200 compass and 200 gyro readings
    assert [_filled(log, column) for column in
            ("innov_gps_x", "innov_compass", "innov_gyro")] == [3, 25, 22]


def test_crawler_deployed_off_the_terrain_aborts_with_a_partial_log(tmp_path):
    log = _pinned_run(tmp_path, "crawler_off_terrain", (
        "54e305577c5ac8f8b9c31361535ea185453d64a18ce076c86e98116cee457a95",
        "2038affc51670eb92534ba7fdba480b5fabb633c732f60c9cd5b18be39ac7f77",
        "ae15cf642448aa5447dbdc11161e558d7ab6c6b56d7c1a95a1e8cb9cc0d6fa6c"))
    assert log.metrics["abort_reason"].startswith("OutOfBounds: ")
    assert [e["event"] for e in log.events[-2:]] == ["abort", "run_end"]
    assert len(log.rows) == log.metrics["steps"] == 592  # of 800
    assert _filled(log, "hex_x") == 0


def test_crawler_on_an_unwalkable_stride_halts_and_counts_faults(tmp_path):
    log = _pinned_run(tmp_path, "crawler_halted", (
        "9123e4a462b6e7825f8a6a96c8b6ec0e142fd91477d52464e57d84d856ba5528",
        "d1fe4deb7759dc7970d05e2b9b99b35231aef4274c65defaa6f5c23f20c9680f",
        "6550a30d2fb76e9eca9b885ea8ba0bd32b858340c92e647be2300e21e8061956"))
    # halted on every deployed step; a row holds the count before its step
    assert log.metrics["hexapod_faults"] == _filled(log, "hex_x") == 48
    assert log.rows[-1][COLUMNS.index("hex_faults")] == 47
    assert log.metrics["confirmations"] == 0


# What RowStore relies on to give back the row the run logged. The runner
# hands it each row's packed values: each present cell of its column's kind
# (an int column's an int, phase its MissionPhase index, any other a float,
# an accepted innovation finite), each absent group's cells 0.0, then the
# presence word, whose tow bit follows tuv.enabled and crawler bit
# hex_deployed. So None appears only where those rules put it.
_PHASE_VALUES = [phase.value for phase in MissionPhase]


def _absent(word: int) -> set:
    return {name for bit, group in enumerate(PRESENCE_GROUPS)
            if not word >> bit & 1 for name in group}


def _premise_breaks(values, tow: bool) -> set:
    """(column, what) for each premise one row's packed values break, in a
    run with or without a towed body."""
    if len(values) != len(COLUMNS) + 1:
        return {("row", f"{len(values)} values")}
    *cells, word = values
    if type(word) is not int or not 0 <= word < 1 << len(PRESENCE_GROUPS):
        return {("word", repr(word))}
    absent, cell, found = _absent(word), dict(zip(COLUMNS, cells)), set()
    for name, value in cell.items():
        kind = int if name in INT_COLUMNS or name == "phase" else float
        if type(value) is not kind:
            found.add((name, type(value).__name__))
        elif name in absent:
            if value != 0.0:
                found.add((name, "absent but not 0.0"))
        elif name == "phase" and not 0 <= value < len(_PHASE_VALUES):
            found.add((name, "not a MissionPhase index"))
        elif name.startswith("innov_") and not math.isfinite(value):
            found.add((name, "accepted but not finite"))
    if ("tuv_x" in absent) is tow:
        found.add(("tuv_x", "tow bit against tuv.enabled"))
    if ("hex_x" in absent) is not (cell["hex_deployed"] == 0):
        found.add(("hex_x", "crawler bit against hex_deployed"))
    return found


def _logged_row(values) -> list:
    """The row packed values stand for: None in each absent group, phase
    its MissionPhase value, any other cell as packed."""
    *cells, word = values
    absent = _absent(word)
    return [None if name in absent else _PHASE_VALUES[value]
            if name == "phase" else value
            for name, value in zip(COLUMNS, cells)]


class _CheckedRows(RowStore):
    """A RowStore that notes each premise a row breaks and each row that
    does not read back as the one logged, by type and repr per cell."""

    __slots__ = ("tow", "breaks")

    def __init__(self, tow: bool):
        super().__init__()
        self.tow, self.breaks = tow, set()

    def append(self, values):
        self.breaks |= _premise_breaks(values, self.tow)
        super().append(values)
        if [(type(v), repr(v)) for v in self[-1]] != [
                (type(v), repr(v)) for v in _logged_row(values)]:
            self.breaks.add(("row", "reads back changed"))


@pytest.mark.parametrize("name", [*sorted(GOLDEN), *CORPUS])
def test_rows_keep_the_packing_premises(name):
    scn = (load_scenario(SCENARIO_DIR / f"{name}.yaml") if name in GOLDEN
           else _corpus_scenario(name))
    sim = Simulation(scn)
    sim.rows = rows = _CheckedRows(scn.tuv_enabled)
    log = sim.run()
    assert log.rows is rows and len(rows) == log.metrics["steps"] > 0
    assert rows.breaks == set()


# A library-level crawler walk: body_advance over the cove toward fixed
# waypoints (terrain looked up every step, sand and rock both crossed, turns
# slewed at the rate limit), then the coverage report of its track. The
# shipped scenarios reach the crawler only in calm_search's short deploy.
COVE = SCENARIO_DIR / "cove.terrain"
WALK_DT = 0.1
WALK_STEPS = 3000
WALK_START = (-32.0, 8.0)
WALK_HEADING = 2.0  # [rad], far off the first bearing
WALK_WAYPOINTS = ((-23.0, 11.0), (-22.0, 17.0), (-29.0, 16.0), (-28.0, 9.0))
WALK_ARRIVAL = 1.0  # [m]
WALK_SWATH = 1.0  # [m]
WALK_DIGEST = "2444e0435351897c3951ec15ddd203f29415ef01b43531ad348f789f57648c51"


def _crawler_walk_bytes() -> bytes:
    params = HexapodParams()
    terrain = load_terrain(COVE)
    start = np.array(WALK_START)
    state = HexapodState(start, heading=WALK_HEADING,
                         terrain=terrain.terrain_at(start)[0],
                         legs=stand_legs(params))
    target = 0
    rows, track = [], [state.position.copy()]
    for k in range(WALK_STEPS):
        goal = WALK_WAYPOINTS[target % len(WALK_WAYPOINTS)]
        vec = (goal[0] - state.position[0], goal[1] - state.position[1])
        if math.hypot(*vec) <= WALK_ARRIVAL:
            target += 1
            goal = WALK_WAYPOINTS[target % len(WALK_WAYPOINTS)]
            vec = (goal[0] - state.position[0], goal[1] - state.position[1])
        state.terrain = terrain.terrain_at(state.position)[0]
        state = body_advance(state, math.atan2(vec[1], vec[0]), WALK_DT, params)
        row = [k, state.terrain, *state.position.tolist(), state.heading,
               state.gait_t, state.faults, target]
        for cfg in state.legs:
            row += [cfg.theta1, cfg.theta2, cfg.theta3]
        rows.append(repr(row))
        track.append(state.position.copy())
    report = coverage_report(np.array(track), WALK_SWATH,
                             active_time=WALK_STEPS * WALK_DT)
    rows.append(repr(sorted(report.items())))
    return "\n".join(rows).encode()


def test_crawler_walk_digest():
    assert hashlib.sha256(_crawler_walk_bytes()).hexdigest() == WALK_DIGEST
