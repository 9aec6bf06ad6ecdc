import math

import numpy as np
import pytest

from coastsim.asv import VehicleState3DOF
from coastsim.control import (DP_INTEGRAL_MAX, DP_KI, DP_KP, GuidanceSetpoint,
                              WAYPOINT, PidController, guidance_step, pid_step,
                              station_keeping)


def test_pid_proportional_only():
    ctrl = PidController(kp=2.0)
    out, _ = pid_step(ctrl, 1.5, 0.1)
    # first step: derivative zero, integral contributes ki=0
    assert out == pytest.approx(3.0 + 0.0)


def test_pid_trapezoidal_integral_worked_value():
    # hand-accumulated oracle: constant error 1.0 for 10 steps of dt=0.1
    # starting from an empty history contributes 0.05 + 9 * 0.1 = 0.95,
    # so the output is 1*1 + 0.5*0.95 = 1.475
    ctrl = PidController(kp=1.0, ki=0.5)
    out = None
    for _ in range(10):
        out, ctrl = pid_step(ctrl, 1.0, 0.1)
    assert out == pytest.approx(1.475, abs=1e-12)
    assert ctrl.integral == pytest.approx(0.95, abs=1e-12)


def test_pid_first_step_zero_derivative():
    ctrl = PidController(kp=0.0, kd=10.0)
    out, ctrl = pid_step(ctrl, 5.0, 0.1)
    assert out == 0.0  # no previous sample, derivative suppressed
    out, _ = pid_step(ctrl, 6.0, 0.1)
    assert out == pytest.approx(10.0 * (6.0 - 5.0) / 0.1)


def test_pid_derivative_on_error():
    ctrl = PidController(kp=0.0, ki=0.0, kd=2.0)
    _, ctrl = pid_step(ctrl, 1.0, 0.5)
    out, _ = pid_step(ctrl, 0.0, 0.5)
    assert out == pytest.approx(2.0 * (0.0 - 1.0) / 0.5)


def test_pid_integral_antiwindup_clamp():
    ctrl = PidController(kp=0.0, ki=1.0, integral_limits=(-0.3, 0.3))
    for _ in range(100):
        out, ctrl = pid_step(ctrl, 1.0, 0.1)
    assert ctrl.integral == 0.3
    assert out == pytest.approx(0.3)
    # and it unwinds when the error flips
    for _ in range(100):
        out, ctrl = pid_step(ctrl, -1.0, 0.1)
    assert ctrl.integral == -0.3


def test_pid_output_clamp():
    ctrl = PidController(kp=10.0, output_limits=(-1.0, 1.0))
    out, _ = pid_step(ctrl, 5.0, 0.1)
    assert out == 1.0
    out, _ = pid_step(ctrl, -5.0, 0.1)
    assert out == -1.0


def test_pid_outputs_always_finite_and_bounded():
    rng = np.random.default_rng(12)
    ctrl = PidController(kp=3.0, ki=2.0, kd=0.5,
                         output_limits=(-50.0, 50.0), integral_limits=(-10.0, 10.0))
    for _ in range(2000):
        out, ctrl = pid_step(ctrl, rng.normal() * 100.0, 0.01)
        assert math.isfinite(out)
        assert -50.0 <= out <= 50.0
        assert -10.0 <= ctrl.integral <= 10.0


@pytest.mark.parametrize("limits", ["output_limits", "integral_limits"])
def test_pid_rejects_reversed_limits(limits):
    with pytest.raises(ValueError, match=f"{limits} reversed"):
        PidController(kp=1.0, **{limits: (1.0, -1.0)})


def test_pid_rejects_bad_dt():
    with pytest.raises(ValueError):
        pid_step(PidController(kp=1.0), 1.0, 0.0)


def test_pid_step_is_pure():
    ctrl = PidController(kp=1.0, ki=1.0)
    out1, _ = pid_step(ctrl, 1.0, 0.1)
    out2, _ = pid_step(ctrl, 1.0, 0.1)
    assert out1 == out2 and ctrl.integral == 0.0
    # the input controller keeps every field; the successor is a new value
    ctrl = PidController(kp=2.0, ki=0.5, kd=0.1, output_limits=(-3.0, 3.0),
                         integral_limits=(-1.0, 1.0), integral=0.25,
                         prev_error=0.5)
    before = dict(vars(ctrl))
    _, nxt = pid_step(ctrl, 1.5, 0.1)
    assert vars(ctrl) == before
    assert nxt is not ctrl and vars(nxt) is not vars(ctrl)
    assert nxt == PidController(2.0, 0.5, 0.1, (-3.0, 3.0), (-1.0, 1.0),
                                0.25 + 0.5 * (1.5 + 0.5) * 0.1, 1.5)


def test_waypoint_guidance_bearing():
    # waypoint due north of the estimate with zero heading
    sp = GuidanceSetpoint(WAYPOINT, target=[0.0, 50.0], cruise_speed=2.0)
    heading_error, speed, arrived = guidance_step(sp, np.array([0.0, 0.0, 0.0]))
    assert heading_error == pytest.approx(math.pi / 2)
    assert speed == 2.0
    assert not arrived


def test_waypoint_arrival():
    sp = GuidanceSetpoint(WAYPOINT, target=[10.0, 0.0], arrival_radius=2.0)
    heading_error, speed, arrived = guidance_step(sp, np.array([8.5, 0.0, 0.0]))
    assert arrived and speed == 0.0 and heading_error == 0.0


def test_waypoint_heading_error_is_wrapped():
    rng = np.random.default_rng(9)
    for _ in range(300):
        sp = GuidanceSetpoint(WAYPOINT, target=rng.uniform(-100, 100, 2))
        pose = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100),
                         rng.uniform(-20, 20)])
        he, _, arrived = guidance_step(sp, pose)
        if not arrived:
            assert -math.pi < he <= math.pi


# --- station keeping ---------------------------------------------------------

def test_loiter_zero_command_at_point():
    # on the point, at rest, with no integral: nothing to correct
    est = VehicleState3DOF(x=5.0, y=5.0, psi=1.2)
    he, surge, integral = station_keeping((5.0, 5.0), est, (0.0, 0.0), 0.1)
    assert (he, surge, integral) == (0.0, 0.0, (0.0, 0.0))


def test_loiter_speed_scales_with_distance():
    # point dead ahead, at rest: the surge force is the position PID's
    # proportional term plus one step of integral, growing with the offset
    dt = 0.1
    for dist in (2.0, 3.0):
        est = VehicleState3DOF(x=-dist)
        he, surge, integral = station_keeping((0.0, 0.0), est, (0.0, 0.0), dt)
        assert he == 0.0
        assert integral == (DP_KI * dist * dt, 0.0)
        assert surge == pytest.approx(DP_KP * dist + DP_KI * dist * dt)
    # the integral term saturates per axis
    _, _, integral = station_keeping((0.0, 0.0), VehicleState3DOF(x=-500.0),
                                     (DP_INTEGRAL_MAX, 0.0), dt)
    assert integral == (DP_INTEGRAL_MAX, 0.0)


def test_loiter_reverses_instead_of_turning_around():
    # point dead astern: push stern-first with zero heading error
    est = VehicleState3DOF()
    he, surge, _ = station_keeping((-3.0, 0.0), est, (0.0, 0.0), 0.1)
    assert he == pytest.approx(0.0)
    assert surge == pytest.approx(-(DP_KP * 3.0 + DP_KI * 3.0 * 0.1))


def test_station_keeping_commands_only_the_aligned_force():
    # point 45 deg off the bow at rest: the bow turns toward the force and
    # the surge command is that force's component along the current heading
    est = VehicleState3DOF()
    he, surge, _ = station_keeping((2.0, 2.0), est, (0.0, 0.0), 0.1)
    per_axis = DP_KP * 2.0 + DP_KI * 2.0 * 0.1
    assert he == pytest.approx(math.pi / 4)
    assert surge == pytest.approx(per_axis)


def test_setpoint_validation():
    with pytest.raises(ValueError):
        GuidanceSetpoint("orbit", target=[0, 0])
    with pytest.raises(ValueError):
        GuidanceSetpoint(WAYPOINT, target=[0, 0], cruise_speed=-1.0)
