import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coastsim.core import wrap_angle
from coastsim.hexapod import (MOUNTS, TRIPOD_A, GaitPhase, GaitPhaseError,
                              HexapodParams, HexapodState,
                              JointLimitError, LegConfiguration, LegGeometry,
                              WorkspaceViolation, _foot_position, _gait_table,
                              body_advance, closed_gait_phase,
                              gait_foot_position, leg_fk, leg_ik, stand_legs)

# limits opened up so the whole geometric annulus is legal; the workspace
# tests are about reach, joint limits get their own tests
OPEN_GEOM = LegGeometry(theta1_limits=(-math.pi, math.pi),
                        theta2_limits=(-math.pi, math.pi),
                        theta3_limits=(-math.pi, math.pi))


def _rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_pitch(a):
    # rotates +x toward +z by -a (elevation in the leg's vertical plane)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def fk_oracle(cfg: LegConfiguration, geom: LegGeometry) -> np.ndarray:
    """Forward kinematics as an explicit chain of rotation matrices."""
    link1 = _rot_pitch(-cfg.theta3) @ np.array([geom.l1, 0.0, 0.0])
    link2 = _rot_pitch(-(cfg.theta3 + cfg.theta2)) @ np.array([geom.l2, 0.0, 0.0])
    return _rot_z(cfg.theta1) @ (link1 + link2)


# --- forward kinematics ------------------------------------------------------

def test_fk_fully_extended():
    p = leg_fk(LegConfiguration(0.0, 0.0, 0.0), LegGeometry())
    assert np.allclose(p, [0.20, 0.0, 0.0], atol=1e-15)


def test_fk_quarter_turn():
    p = leg_fk(LegConfiguration(math.pi / 2, 0.0, 0.0), LegGeometry())
    assert np.allclose(p, [0.0, 0.20, 0.0], atol=1e-15)


def test_fk_bent_pose_matches_matrix_product():
    # elbow at 45 deg with the base link pointing straight down:
    # reach = 0.12 cos(pi/4), z = -0.08 - 0.12 sin(pi/4)
    geom = LegGeometry()
    cfg = LegConfiguration(0.0, math.pi / 4, -math.pi / 2)
    p = leg_fk(cfg, geom)
    assert p[0] == pytest.approx(0.0848528137423857, abs=1e-15)
    assert p[1] == 0.0
    assert p[2] == pytest.approx(-0.1648528137423857, abs=1e-15)
    assert np.allclose(p, fk_oracle(cfg, geom), atol=1e-15)


def test_fk_matches_matrix_oracle_everywhere():
    geom = LegGeometry()
    rng = np.random.default_rng(41)
    for _ in range(200):
        cfg = LegConfiguration(*rng.uniform(-math.pi, math.pi, size=3))
        assert np.allclose(leg_fk(cfg, geom), fk_oracle(cfg, geom), atol=1e-14)


# --- inverse kinematics ------------------------------------------------------

def test_ik_fully_extended():
    cfg = leg_ik([0.20, 0.0, 0.0], LegGeometry())
    assert cfg.theta1 == 0.0
    assert cfg.theta2 == pytest.approx(0.0, abs=1e-7)
    assert cfg.theta3 == pytest.approx(0.0, abs=1e-7)


def test_ik_rotated_extension():
    cfg = leg_ik([0.0, 0.20, 0.0], LegGeometry())
    assert cfg.theta1 == pytest.approx(math.pi / 2, abs=1e-12)
    assert cfg.theta2 == pytest.approx(0.0, abs=1e-7)
    assert cfg.theta3 == pytest.approx(0.0, abs=1e-7)


def _random_reachable_targets(geom, n, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(geom.reach_min + 1e-6, geom.reach_max - 1e-6, size=n)
    azimuth = rng.uniform(-math.pi, math.pi, size=n)
    elevation = rng.uniform(-math.pi / 2, math.pi / 2, size=n)
    d = r * np.cos(elevation)
    return np.column_stack([d * np.cos(azimuth), d * np.sin(azimuth),
                            r * np.sin(elevation)])


def test_fk_ik_roundtrip_1000_random_targets():
    targets = _random_reachable_targets(OPEN_GEOM, 1000, seed=21)
    worst = 0.0
    for p in targets:
        cfg = leg_ik(p, OPEN_GEOM)
        worst = max(worst, float(np.linalg.norm(leg_fk(cfg, OPEN_GEOM) - p)))
    assert worst < 1e-9


def test_ik_elbow_branch_is_principal():
    for p in _random_reachable_targets(OPEN_GEOM, 200, seed=22):
        cfg = leg_ik(p, OPEN_GEOM)
        assert 0.0 <= cfg.theta2 <= math.pi


def test_ik_workspace_boundary():
    geom = OPEN_GEOM
    # just outside either rim of the annulus fails, just inside succeeds
    with pytest.raises(WorkspaceViolation) as err:
        leg_ik([geom.reach_max + 1e-12, 0.0, 0.0], geom)
    assert err.value.radius > geom.reach_max
    with pytest.raises(WorkspaceViolation):
        leg_ik([geom.reach_min - 1e-12, 0.0, 0.0], geom)
    leg_ik([geom.reach_max - 1e-12, 0.0, 0.0], geom)
    leg_ik([geom.reach_min + 1e-12, 0.0, 0.0], geom)


def test_ik_joint_limit_errors_name_the_joint():
    # close-in target folds the elbow past the default +-pi/2 limit
    with pytest.raises(JointLimitError) as err:
        leg_ik([0.05, 0.0, 0.0], LegGeometry())
    assert err.value.joint == "theta2"
    assert "theta2" in str(err.value)
    # nearly straight-down target pitches the base link past -pi/2
    with pytest.raises(JointLimitError) as err:
        leg_ik([0.001, 0.0, -0.199], LegGeometry())
    assert err.value.joint == "theta3"
    # a yaw limit catches targets behind the mount
    narrow = LegGeometry(theta1_limits=(-1.0, 1.0))
    with pytest.raises(JointLimitError) as err:
        leg_ik([-0.10, 0.10, -0.05], narrow)
    assert err.value.joint == "theta1"


def test_geometry_validation():
    with pytest.raises(ValueError):
        LegGeometry(l1=0.0)
    with pytest.raises(ValueError):
        LegGeometry(l2=1.5)


# --- gait trajectories -------------------------------------------------------

def test_stance_is_linear_drift():
    phase = closed_gait_phase(0, [0.0, 0.0, 0.0], [-0.1, 0.0, 0.0],
                              t_start=0.0, period=4.0, duty_factor=0.5)
    p = gait_foot_position(phase, 1.0, h_lift=0.0)
    assert np.allclose(p, [-0.1, 0.0, 0.0], atol=1e-15)


def test_swing_starts_exactly_at_stance_end():
    phase = closed_gait_phase(0, [0.02, 0.0, -0.06], [-0.1, 0.02, 0.0],
                              t_start=0.0, period=0.4, duty_factor=0.5)
    eps = 1e-12
    before = gait_foot_position(phase, phase.t_end - eps, h_lift=0.0)
    at = gait_foot_position(phase, phase.t_end, h_lift=0.0)
    after = gait_foot_position(phase, phase.t_end + eps, h_lift=0.0)
    assert np.linalg.norm(at - before) < 1e-9
    assert np.linalg.norm(after - at) < 1e-9
    # the lift option keeps the boundary continuous too (clearance is zero
    # at both swing endpoints)
    after_lifted = gait_foot_position(phase, phase.t_end + eps, h_lift=0.03)
    assert np.linalg.norm(after_lifted - at) < 1e-9


def test_cycle_closes_back_on_start():
    # duty 0.5 makes v_swing = -v_stance; the foot must land back on p0
    p0 = np.array([0.18, -0.01, -0.06])
    phase = closed_gait_phase(3, p0, [-0.2, 0.0, 0.0],
                              t_start=1.2, period=0.4, duty_factor=0.5)
    assert np.allclose(phase.v_swing, [0.2, 0.0, 0.0], atol=1e-15)
    end = gait_foot_position(phase, phase.t_start + phase.period, h_lift=0.03)
    assert np.linalg.norm(end - p0) < 1e-12


def test_cycle_closure_for_other_duty_factors():
    p0 = np.zeros(3)
    for duty in (0.55, 0.6, 0.75):
        phase = closed_gait_phase(0, p0, [-0.15, 0.05, 0.0],
                                  t_start=0.0, period=0.5, duty_factor=duty)
        end = gait_foot_position(phase, 0.5, h_lift=0.0)
        assert np.linalg.norm(end - p0) < 1e-12


def test_flat_gait_matches_piecewise_linear_oracle():
    # with zero lift the trajectory is exactly the two printed line segments
    p0 = np.array([0.1, 0.0, -0.05])
    v_st = np.array([-0.08, 0.01, 0.0])
    phase = closed_gait_phase(0, p0, v_st, t_start=0.0, period=1.0,
                              duty_factor=0.6)
    v_sw = -v_st * 0.6 / 0.4
    for t in np.linspace(0.0, 1.0, 101):
        p = gait_foot_position(phase, t, h_lift=0.0)
        if t <= 0.6:
            expected = p0 + v_st * t
        else:
            expected = p0 + v_st * 0.6 + v_sw * (t - 0.6)
        assert np.allclose(p, expected, atol=1e-12)


def test_swing_lift_is_parabolic_and_clears():
    phase = closed_gait_phase(0, np.zeros(3), [-0.1, 0.0, 0.0],
                              t_start=0.0, period=0.4, duty_factor=0.5)
    mid_swing = 0.3  # halfway through the swing window [0.2, 0.4]
    p = gait_foot_position(phase, mid_swing, h_lift=0.03)
    flat = gait_foot_position(phase, mid_swing, h_lift=0.0)
    assert p[2] - flat[2] == pytest.approx(0.03, abs=1e-15)  # peak clearance


def test_time_outside_cycle_raises():
    phase = closed_gait_phase(0, np.zeros(3), [-0.1, 0.0, 0.0],
                              t_start=2.0, period=0.4, duty_factor=0.5)
    with pytest.raises(GaitPhaseError):
        gait_foot_position(phase, 1.99)
    with pytest.raises(GaitPhaseError):
        gait_foot_position(phase, 2.41)


def test_gait_phase_validation():
    with pytest.raises(ValueError):
        closed_gait_phase(0, np.zeros(3), np.zeros(3), 0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        closed_gait_phase(0, np.zeros(3), np.zeros(3), 0.0, 1.0, 1.0)


# --- tripod gait -------------------------------------------------------------

def _feet_down(params, state):
    """Legs whose foot, by forward kinematics of the joint angles
    body_advance solved, sits at the home height: on the ground."""
    return [leg for leg, cfg in enumerate(state.legs)
            if abs(leg_fk(cfg, params.geometry)[2] - params.home_height) < 1e-12]


def _min_feet_down(duty, terrain, steps=400, dt=0.01):
    params = HexapodParams(duty_factor=duty)
    state = HexapodState(np.zeros(2), terrain=terrain, legs=stand_legs(params))
    fewest = 6
    for _ in range(steps):
        state = body_advance(state, 0.3, dt, params)
        assert state.faults == 0
        fewest = min(fewest, len(_feet_down(params, state)))
    return fewest


@pytest.mark.parametrize("terrain", ["sand", "rock", "mud"])
@pytest.mark.parametrize("duty", [0.5, 0.6, 0.75, 0.95])
def test_gait_keeps_three_feet_down(duty, terrain):
    # the two tripods step in anti-phase: with duty >= 0.5 at least three
    # of the foot targets body_advance walks are in stance at every step
    assert _min_feet_down(duty, terrain) >= 3


def test_gait_below_half_duty_lifts_all_feet_at_once():
    # the loader allows duty down to 0.05: then both tripods swing at once
    assert _min_feet_down(0.3, "sand") == 0


# --- body motion -------------------------------------------------------------

def test_straight_walk_covers_expected_distance():
    params = HexapodParams()
    state = HexapodState(np.zeros(2), heading=0.0, terrain="sand",
                         legs=stand_legs(params))
    dt = 0.1
    for _ in range(100):  # 10 s on sand at 0.2 m/s
        state = body_advance(state, 0.0, dt, params)
    assert state.faults == 0
    assert np.linalg.norm(state.position) == pytest.approx(2.0, abs=1e-9)
    assert state.position[1] == pytest.approx(0.0, abs=1e-12)


def test_displacement_over_whole_cycles_is_n_strides():
    params = HexapodParams()
    state = HexapodState(np.zeros(2), terrain="rock")  # 0.1 m/s, period 0.8 s
    dt = 0.05
    n_cycles = 5
    steps = int(round(n_cycles * params.stride / 0.1 / dt))
    for _ in range(steps):
        state = body_advance(state, 0.0, dt, params)
    assert np.linalg.norm(state.position) == pytest.approx(
        n_cycles * params.stride, abs=1e-9)


def test_terrain_selects_speed():
    params = HexapodParams()
    for terrain, speed in (("sand", 0.2), ("rock", 0.1), ("mud", 0.15)):
        state = HexapodState(np.zeros(2), terrain=terrain)
        state = body_advance(state, 0.0, 0.1, params)
        assert np.linalg.norm(state.position) == pytest.approx(speed * 0.1)
    with pytest.raises(ValueError, match="terrain"):
        body_advance(HexapodState(np.zeros(2), terrain="lava"), 0.0, 0.1, params)


def test_turn_slews_at_rate_limit_and_stays_feasible():
    params = HexapodParams()
    state = HexapodState(np.zeros(2), heading=0.0, terrain="sand")
    dt = 0.05
    headings = [state.heading]
    for _ in range(140):  # 7 s: enough to complete a pi/2 turn at 0.3 rad/s
        state = body_advance(state, math.pi / 2, dt, params)
        headings.append(state.heading)
    assert state.faults == 0  # every leg target stayed reachable
    assert state.heading == pytest.approx(math.pi / 2, abs=1e-9)
    steps = np.abs(np.diff(headings))
    assert np.max(steps) <= params.max_turn_rate * dt + 1e-12
    # joint traces were produced throughout
    assert len(state.legs) == 6


def test_infeasible_gait_halts_and_counts_fault(caplog):
    # a huge stride sweeps stance feet far outside the leg workspace
    params = HexapodParams(stride=0.8)
    state = HexapodState(np.array([3.0, -2.0]), heading=0.4, terrain="sand",
                         legs=stand_legs(HexapodParams()))
    with caplog.at_level("WARNING", logger="coastsim.hexapod"):
        after = body_advance(state, 0.4, 0.1, params)
    assert after.faults == state.faults + 1
    assert np.array_equal(after.position, state.position)
    assert after.heading == state.heading
    assert after.legs == state.legs  # stance frozen, no partial update
    assert caplog.records == []  # the count records the halt, not a log


def test_ik_of_a_nan_target_raises_value_error():
    # NaN passes the reach test and the clamp; theta3's inline wrap raises
    with pytest.raises(ValueError, match="cannot wrap non-finite angle"):
        leg_ik(np.array([math.nan, 0.0, -0.06]), LegGeometry())


def test_body_advance_rejects_a_zero_terrain_speed():
    params = HexapodParams(terrain_speeds={"sand": 0.0})
    state = HexapodState(np.zeros(2), terrain="sand",
                         legs=stand_legs(HexapodParams()))
    with pytest.raises(ValueError, match="walking speed must be positive"):
        body_advance(state, 0.0, 0.1, params)


def test_stand_legs_park_at_home():
    params = HexapodParams()
    legs = stand_legs(params)
    assert len(legs) == 6
    home = np.array([params.home_radius, 0.0, params.home_height])
    for cfg in legs:
        assert np.allclose(leg_fk(cfg, params.geometry), home, atol=1e-9)


# --- float gait against the whole-array reference ----------------------------
#
# The gait runs on Python floats. The reference below is the numpy form it
# replaced (a GaitPhase of arrays per leg per step, dataclasses.replace for
# the new state); foot targets, joint angles and body states must match it
# bit for bit, signed zeros included, since states.csv writes every bit.

def ref_closed_gait_phase(leg, p0, v_stance, t_start, period, duty_factor):
    if not 0.0 < duty_factor < 1.0:
        raise ValueError("gait phase needs period > 0 and duty in (0, 1)")
    v_st = np.asarray(v_stance, dtype=float)
    v_sw = -v_st * duty_factor / (1.0 - duty_factor)
    return GaitPhase(leg, p0, v_st, v_sw, t_start, period, duty_factor)


def ref_gait_foot_position(phase, t, h_lift=0.03):
    if not phase.t_start <= t <= phase.t_start + phase.period:
        raise GaitPhaseError(
            f"t={t:.6f} outside cycle [{phase.t_start:.6f}, "
            f"{phase.t_start + phase.period:.6f}]")
    if t <= phase.t_end:
        return phase.p0 + phase.v_stance * (t - phase.t_start)
    stance_end = phase.p0 + phase.v_stance * (phase.t_end - phase.t_start)
    p = stance_end + phase.v_swing * (t - phase.t_end)
    swing_time = phase.period * (1.0 - phase.duty_factor)
    s = (t - phase.t_end) / swing_time
    return p + np.array([0.0, 0.0, h_lift * 4.0 * s * (1.0 - s)])


def ref_leg_foot_target(params, leg, gait_t, period, speed):
    offset = 0.0 if leg in TRIPOD_A else 0.5
    tau = (gait_t / period + offset) % 1.0
    yaw = MOUNTS[leg]
    v_st = np.array([-speed * math.cos(yaw), speed * math.sin(yaw), 0.0])
    home = np.array([params.home_radius, 0.0, params.home_height])
    p0 = home - v_st * (0.5 * params.duty_factor * period)
    phase = ref_closed_gait_phase(leg, p0, v_st, t_start=gait_t - tau * period,
                                  period=period, duty_factor=params.duty_factor)
    return ref_gait_foot_position(phase, gait_t, h_lift=params.h_lift)


def ref_leg_ik(p, geom):
    """leg_ik as it was before its float core: the law-of-cosines terms
    recomputed per call, one limit-check call per joint, the frozen
    dataclass constructor."""
    def check_limit(name, value, limits):
        if not limits[0] <= value <= limits[1]:
            raise JointLimitError(name, value, limits)

    x, y, z = float(p[0]), float(p[1]), float(p[2])
    d = math.hypot(x, y)
    r = math.hypot(d, z)
    arg = (d * d + z * z - geom.l1 ** 2 - geom.l2 ** 2) / (2.0 * geom.l1 * geom.l2)
    if arg > 1.0 + 1e-14 or arg < -1.0 - 1e-14:
        raise WorkspaceViolation(
            f"target radius {r:.9f} m outside [{geom.reach_min:.9f}, "
            f"{geom.reach_max:.9f}] m", radius=r)
    arg = min(max(arg, -1.0), 1.0)
    theta1 = math.atan2(y, x)
    theta2 = math.acos(arg)
    theta3 = wrap_angle(math.atan2(z, d)
                        - math.atan2(geom.l2 * math.sin(theta2),
                                     geom.l1 + geom.l2 * math.cos(theta2)))
    check_limit("theta1", theta1, geom.theta1_limits)
    check_limit("theta2", theta2, geom.theta2_limits)
    check_limit("theta3", theta3, geom.theta3_limits)
    return LegConfiguration(theta1, theta2, theta3)


def ref_body_advance(state, heading_cmd, dt, params):
    speed = params.speed_for(state.terrain)
    if speed <= 0.0:
        raise ValueError(f"walking speed must be positive, got {speed}")
    period = params.stride / speed
    heading_err = wrap_angle(heading_cmd - state.heading)
    max_step = params.max_turn_rate * dt
    heading = wrap_angle(state.heading + min(max(heading_err, -max_step), max_step))
    gait_t = state.gait_t + dt
    legs = []
    try:
        for leg in range(6):
            target = ref_leg_foot_target(params, leg, gait_t, period, speed)
            legs.append(ref_leg_ik(target, params.geometry))
    except (WorkspaceViolation, JointLimitError):
        return dataclasses.replace(state, faults=state.faults + 1)
    step = speed * dt
    position = state.position + step * np.array([math.cos(heading), math.sin(heading)])
    return dataclasses.replace(state, position=position, heading=heading,
                               gait_t=gait_t, legs=tuple(legs))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _table_foot_target(params, leg, gait_t, period, speed):
    """One leg's foot target as body_advance computes it: the leg's
    _gait_table row fed to _foot_position."""
    cycles = gait_t / period
    p0, v_st, v_sw, offset = _gait_table(params, speed, period)[leg]
    t_start = gait_t - (cycles + offset) % 1.0 * period
    return _foot_position(p0, v_st, v_sw, t_start, period, params.duty_factor,
                          gait_t, params.h_lift)


def _check_foot_target(leg, gait_t, speed, duty, h_lift):
    params = HexapodParams(duty_factor=duty, h_lift=h_lift)
    period = params.stride / speed
    try:
        ref = ref_leg_foot_target(params, leg, gait_t, period, speed)
    except GaitPhaseError as exc:  # rounding can put gait_t past the window
        with pytest.raises(GaitPhaseError) as info:
            _table_foot_target(params, leg, gait_t, period, speed)
        assert str(info.value) == str(exc)
        return
    target = _table_foot_target(params, leg, gait_t, period, speed)
    assert type(target) is tuple and all(type(v) is float for v in target)
    assert same_bits(target, ref)


@pytest.mark.parametrize("leg, gait_t, speed, duty, edge", [
    (1, 0.0, 0.2, 0.5, "stance_end"),
    (0, 0.6, 0.2, 0.5, "stance_end"),
    (0, 1.28, 0.1, 0.6, "stance_end"),
    (3, 0.6666666666666666, 0.15, 0.75, "stance_end"),
    (0, 1.5999999999999996, 0.2, 0.5, "cycle_end"),
])
def test_foot_target_on_window_edges_matches_reference(leg, gait_t, speed,
                                                       duty, edge):
    # gait_t lands exactly on t_end (last stance instant) or on
    # t_start + period (last swing instant) of the leg's current cycle
    period = HexapodParams().stride / speed
    tau = (gait_t / period + (0.0 if leg in TRIPOD_A else 0.5)) % 1.0
    t_start = gait_t - tau * period
    edges = {"stance_end": t_start + duty * period,
             "cycle_end": t_start + period}
    assert gait_t == edges[edge]
    for h_lift in (0.0, 0.03):
        _check_foot_target(leg, gait_t, speed, duty, h_lift)


@settings(max_examples=1000)
@given(leg=st.integers(0, 5), gait_t=st.floats(0.0, 5000.0),
       speed=st.floats(0.01, 1.0), duty=st.floats(0.05, 0.95),
       h_lift=st.floats(0.0, 0.1))
def test_foot_target_matches_array_reference_bit_for_bit(leg, gait_t, speed,
                                                         duty, h_lift):
    _check_foot_target(leg, gait_t, speed, duty, h_lift)


vec3 = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@settings(max_examples=300)
@given(p0=vec3, v_stance=vec3, t_start=st.floats(-100.0, 100.0),
       period=st.floats(0.01, 10.0), duty=st.floats(0.01, 0.99),
       frac=st.floats(0.0, 1.0), h_lift=st.floats(0.0, 0.1))
@example(p0=(0.0, 0.0, 0.0), v_stance=(-0.1, 0.0, 0.0), t_start=0.0,
         period=0.4, duty=0.5, frac=0.5, h_lift=0.03)
@example(p0=(0.0, -0.0, 0.0), v_stance=(0.0, -0.0, -0.0), t_start=1.2,
         period=0.4, duty=0.5, frac=0.75, h_lift=0.0)
def test_gait_wrappers_match_array_reference_bit_for_bit(p0, v_stance, t_start,
                                                         period, duty, frac,
                                                         h_lift):
    phase = closed_gait_phase(2, p0, v_stance, t_start, period, duty)
    ref = ref_closed_gait_phase(2, p0, v_stance, t_start, period, duty)
    for name in ("p0", "v_stance", "v_swing"):
        got = getattr(phase, name)
        assert isinstance(got, np.ndarray) and same_bits(got, getattr(ref, name))
    # the stance end, the cycle end and a point drawn inside the window
    for t in (phase.t_end, phase.t_start + phase.period, t_start + frac * period):
        try:
            expected = ref_gait_foot_position(ref, t, h_lift)
        except GaitPhaseError as exc:
            with pytest.raises(GaitPhaseError) as info:
                gait_foot_position(phase, t, h_lift)
            assert str(info.value) == str(exc)
            continue
        got = gait_foot_position(phase, t, h_lift)
        assert isinstance(got, np.ndarray) and same_bits(got, expected)
    for t in (t_start - 1.0, t_start + period + 1.0):
        with pytest.raises(GaitPhaseError):
            gait_foot_position(phase, t, h_lift)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("h_lift", [0.0, 0.03])
def test_foot_position_signed_zeros_match_reference(t, h_lift):
    # an open (not closed) phase of all negative zeros: stance keeps -0.0,
    # swing adds (0.0, 0.0, lift) and comes out +0.0 in x and y
    z = (-0.0, -0.0, -0.0)
    phase = GaitPhase(0, z, z, z, t_start=0.0, period=1.0, duty_factor=0.5)
    assert same_bits(gait_foot_position(phase, t, h_lift),
                     ref_gait_foot_position(phase, t, h_lift))


def _state_key(state):
    assert type(state) is HexapodState
    assert type(state.position) is np.ndarray and state.position.dtype == float
    assert all(type(cfg) is LegConfiguration for cfg in state.legs)
    return (state.position.tobytes(), repr(state.heading), repr(state.gait_t),
            repr(state.legs), state.faults, state.terrain)


def test_body_advance_matches_reference_walk_bit_for_bit():
    # 2000 steps: turns in both directions through +-pi, all three terrains,
    # a speed off the defaults, and one step whose oversized stride faults
    # the gait
    params = HexapodParams()
    faulty = HexapodParams(stride=0.8)
    fast = HexapodParams(terrain_speeds={"sand": 0.25, "rock": 0.25,
                                         "mud": 0.25})
    state = ref = HexapodState(np.array([3.0, -2.0]), heading=2.5,
                               terrain="sand", legs=stand_legs(params))
    faults_seen = 0
    for k in range(2000):
        terrain = ("sand", "rock", "mud")[(k // 300) % 3]
        state.terrain = ref.terrain = terrain
        cmd = 3.5 * math.sin(0.004 * k) + (math.pi if k > 1200 else 0.0)
        step_params = (faulty if k == 777 else fast if 1500 <= k < 1600
                       else params)
        state = body_advance(state, cmd, 0.1, step_params)
        ref = ref_body_advance(ref, cmd, 0.1, step_params)
        assert _state_key(state) == _state_key(ref), k
        faults_seen = state.faults
    assert faults_seen == 1



def test_body_advance_follows_params_mutated_in_place():
    # one HexapodParams changed in place between steps: every gait input
    # the gait table reads (terrain speed, stride, duty, home radius, home
    # height flipping between 0.0 and -0.0) and h_lift, which it does not,
    # must reach the next step; a table keyed by the params object, or by
    # values missing one of these, fails here
    params = HexapodParams()
    state = ref = HexapodState(np.array([1.0, 2.0]), heading=-0.4,
                               terrain="sand", legs=stand_legs(params))
    for k in range(1200):
        # speeds 0.2 and 0.1 with strides 0.08 and 0.04 share one period
        params.terrain_speeds["sand"] = (0.2, 0.1, 0.15)[k // 5 % 3]
        params.stride = (0.08, 0.04, 0.06)[k // 7 % 3]
        params.duty_factor = (0.5, 0.55, 0.6)[k // 11 % 3]
        params.home_radius = (0.165, 0.17, 0.168)[k // 13 % 3]
        params.h_lift = (0.03, 0.0, 0.04)[k // 17 % 3]
        params.home_height = (0.0, -0.0)[k % 2] if k % 300 < 150 else -0.06
        cmd = 2.0 * math.sin(0.01 * k)
        state = body_advance(state, cmd, 0.1, params)
        ref = ref_body_advance(ref, cmd, 0.1, params)
        assert _state_key(state) == _state_key(ref), k
        # the targets agree for either zero; the table's p0 keeps its sign
        speed = params.speed_for("sand")
        p0_z = {p0[2] for p0, _, _, _ in
                _gait_table(params, speed, params.stride / speed)}
        assert same_bits(list(p0_z), [params.home_height - 0.0]), k
    assert state.faults == 0
    params.duty_factor = 1.0
    with pytest.raises(ValueError) as expected:
        ref_body_advance(state, 0.0, 0.1, params)
    for _ in range(2):  # a failed build is never cached
        with pytest.raises(ValueError) as info:
            body_advance(state, 0.0, 0.1, params)
        assert type(info.value) is ValueError
        assert str(info.value) == str(expected.value)
    params.duty_factor = 0.5
    assert _state_key(body_advance(state, 0.0, 0.1, params)) == _state_key(
        ref_body_advance(ref, 0.0, 0.1, params))

# --- float IK core against the leg_ik it replaced -----------------------------

def _ik_outcome(ik, p, geom):
    """(angles as bits, or the exception's type, message and attribute)."""
    try:
        cfg = ik(p, geom)
    except WorkspaceViolation as exc:
        return type(exc), str(exc), repr(exc.radius)
    except JointLimitError as exc:
        return type(exc), str(exc), exc.joint
    assert type(cfg) is LegConfiguration
    return tuple(repr(v) for v in (cfg.theta1, cfg.theta2, cfg.theta3))


def _check_ik(p, geom):
    got = _ik_outcome(leg_ik, p, geom)
    assert got == _ik_outcome(ref_leg_ik, p, geom)
    if isinstance(got[0], str):  # solved: the result is still frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            leg_ik(p, geom).theta1 = 0.0


def _on_sphere(r, azimuth, elevation):
    d = r * math.cos(elevation)
    return [d * math.cos(azimuth), d * math.sin(azimuth), r * math.sin(elevation)]


@pytest.mark.parametrize("geom", [LegGeometry(), OPEN_GEOM,
                                  LegGeometry(l1=0.1, l2=0.1),
                                  LegGeometry(l1=0.3, l2=0.07)],
                         ids=["default", "open", "equal", "long_first"])
@pytest.mark.parametrize("rim", ["max", "min"])
def test_ik_core_matches_reference_at_the_workspace_edge(geom, rim):
    # radii a few ulps either side of each rim, in several directions
    edge = geom.reach_max if rim == "max" else geom.reach_min
    for k in range(-6, 7):
        r = edge + k * math.ulp(edge) * 4
        for azimuth, elevation in ((0.0, 0.0), (1.0, -0.4), (-2.5, 0.9)):
            _check_ik(_on_sphere(r, azimuth, elevation), geom)
    for offset in (1e-15, 1e-14, 1e-13, 1e-12):
        _check_ik([edge + offset, 0.0, 0.0], geom)
        _check_ik([edge - offset, 0.0, 0.0], geom)


@pytest.mark.parametrize("p, geom, joint", [
    ([-0.10, 0.10, -0.05], LegGeometry(theta1_limits=(-1.0, 1.0)), "theta1"),
    ([0.05, 0.0, 0.0], LegGeometry(), "theta2"),
    ([0.001, 0.0, -0.199], LegGeometry(), "theta3"),
    # every joint out of range: theta1 is reported first, then theta2
    ([-0.05, 0.001, 0.0], LegGeometry(theta1_limits=(-1.0, 1.0)), "theta1"),
    ([-0.05, 0.001, 0.0], LegGeometry(), "theta2"),
])
def test_ik_core_matches_reference_at_each_joint_limit(p, geom, joint):
    outcome = _ik_outcome(leg_ik, p, geom)
    assert outcome[0] is JointLimitError and outcome[2] == joint
    _check_ik(p, geom)
    # a limit exactly at the solved angle passes, one ulp past it fails
    free = dataclasses.replace(geom, theta1_limits=(-10.0, 10.0),
                               theta2_limits=(-10.0, 10.0),
                               theta3_limits=(-10.0, 10.0))
    angle = getattr(leg_ik(p, free), joint)
    for limits in ((angle, 10.0), (-10.0, angle),
                   (math.nextafter(angle, 10.0), 10.0),
                   (-10.0, math.nextafter(angle, -10.0))):
        _check_ik(p, dataclasses.replace(free, **{f"{joint}_limits": limits}))


@settings(max_examples=1000)
@given(r=st.floats(0.0, 0.25), azimuth=st.floats(-math.pi, math.pi),
       elevation=st.floats(-math.pi / 2, math.pi / 2),
       l1=st.sampled_from([0.08, 0.1, 0.05, 0.123456789]),
       l2=st.sampled_from([0.12, 0.1, 0.2, 0.0987654321]),
       open_limits=st.booleans())
def test_ik_core_matches_reference_bit_for_bit(r, azimuth, elevation, l1, l2,
                                               open_limits):
    limits = (-math.pi, math.pi) if open_limits else (-math.pi / 2, math.pi / 2)
    geom = LegGeometry(l1=l1, l2=l2, theta2_limits=limits, theta3_limits=limits)
    _check_ik(_on_sphere(r, azimuth, elevation), geom)
