"""Pinned output digests of the shipped scenarios.

Byte identity within one build is checked by test_runner; these digests
catch a change that quietly alters results across builds. A change that
moves a digest on purpose says why in CHANGES.md and re-pins it here.

The digests are for numpy 2.4.x on x86-64 Linux: another platform or numpy
release may round a transcendental or a matrix product differently in the
last bit. The estimator's products go through `ndarray.dot`, the same BLAS
call as the `@` operator with less dispatch; test_nav checks that the two
agree bit for bit, so a numpy that routes them apart fails there by name.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from coastsim.environment import load_terrain
from coastsim.hexapod import HexapodParams, HexapodState, body_advance, stand_legs
from coastsim.mission import coverage_report
from coastsim.runner import emit_outputs, run_simulation
from coastsim.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# scenario -> sha256 of (states.csv, events.jsonl, metrics.json)
GOLDEN = {
    "calm_cruise": (
        "b1a227eeffabb8199ec4d4b5b8a9eb5552ec48c1b18a43508a1017d82b17d192",
        "6aff799a2d6ba601f42d0c48976fcc06957e8a85979f7cac97029b6235bf7e33",
        "0eeeb4d22c545dea9cada90031b79eaf394140688e7979a47c8937b37457edfd",
    ),
    "storm_loiter": (
        "50ce510ea1fb723d3b1f56d66a15f7e36e44caa60cabc6464bf1c2021bfa45dd",
        "639d9fe60da71f8a98483ff0a2f33981e229cd7e8562a59fbec01b57a622a7fb",
        "f02b1ff2fe43776e4d8eb0cb4eef22b85c5b9adf97b7b5d036a3c92cb176b1b1",
    ),
    "calm_search": (
        "08df9651eb45067036a87178b53fcc0fca3822507af3a864cc00769d26a8c172",
        "fc3f527291b69cab3f63676b0f9c1665ea2b587dc2831250f7f4de6d72127409",
        "02f4c7b8583092ef061ec496ffca1584131309ae945e8dbdb203d5b6e8b86f01",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests(name, tmp_path):
    log = run_simulation(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    written = emit_outputs(log, tmp_path)
    digests = tuple(hashlib.sha256(Path(written[kind]).read_bytes()).hexdigest()
                    for kind in ("states", "events", "metrics"))
    assert digests == GOLDEN[name]


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
WALK_DIGEST = "8dfe9e1485820b8fce0ea7439670e593a079f3eee25eeda6aaa33eb4ee6b1be0"


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
