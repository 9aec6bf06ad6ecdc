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
import subprocess
import sys
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests(name, tmp_path):
    log = run_simulation(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    written = emit_outputs(log, tmp_path)
    digests = tuple(hashlib.sha256(Path(written[kind]).read_bytes()).hexdigest()
                    for kind in ("states", "events", "metrics"))
    assert digests == GOLDEN[name]


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
