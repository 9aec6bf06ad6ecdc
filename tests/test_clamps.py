"""Each hot-path clamp against the builtin min/max form it replaces.

The step clamps with conditional expressions that mirror min(max(x, lo), hi)
(or max(lo, min(hi, x))) argument for argument. A reference copy of each
site's min/max form runs on the same inputs, and the outcomes must agree to
the bit: NaN, signed zeros, infinities, negative bounds and lo > hi
included, where a plain `m if x > m else -m if x < -m else x` would not.
"""

import math
import struct
from pathlib import Path

import numpy as np
import pytest

from coastsim import control, runner
from coastsim.asv import (AsvParams, BodyWrench, VehicleState3DOF,
                          allocate_differential_thrust)
from coastsim.control import PidController, pid_step, station_keeping
from coastsim.core import rotate_body_to_nav, successor, wrap_angle
from coastsim.core import clamp
from coastsim.hexapod import (HexapodParams, HexapodState, body_advance,
                              stand_legs)
from coastsim.runner import Simulation
from coastsim.scenario import load_scenario
from coastsim.tuv import Towline, _check_cable_length, winch_set_length

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

INF, NAN = math.inf, math.nan
# clamped values and the bounds they meet
VALUES = (NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 2.5, -2.5,
          1e300, -1e300)
BOUNDS = (NAN, INF, -INF, 0.0, -0.0, 1.0, -1.0)


def bits(value):
    """A result with every float as its eight bytes, so -0.0 != 0.0 and a
    NaN equals a NaN of the same payload."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(bits(v) for v in value)
    if isinstance(value, PidController):
        return bits(value.integral), bits(value.prev_error)
    if isinstance(value, Towline):
        return bits(value.unstretched_length), bits(value.max_slew_rate)
    return value


def outcome(fn, *args):
    try:
        return "ok", bits(fn(*args))
    except ValueError as exc:
        return "raise", type(exc), str(exc)


# -- the min/max forms each site had ----------------------------------------

def ref_allocate(surge_cmd, yaw_cmd, params):
    half = params.thruster_half_spacing
    left = 0.5 * (surge_cmd - yaw_cmd / half)
    right = 0.5 * (surge_cmd + yaw_cmd / half)
    lim = params.max_thrust
    left = min(max(left, -lim), lim)
    right = min(max(right, -lim), lim)
    return left, right, BodyWrench(left + right, 0.0, (right - left) * half)


def ref_pid_step(ctrl, error, dt):
    prev = ctrl.prev_error if ctrl.prev_error is not None else 0.0
    integral = ctrl.integral + 0.5 * (error + prev) * dt
    lo, hi = ctrl.integral_limits
    integral = min(max(integral, lo), hi)
    deriv = 0.0 if ctrl.prev_error is None else (error - ctrl.prev_error) / dt
    out = ctrl.kp * error + ctrl.ki * integral + ctrl.kd * deriv
    lo, hi = ctrl.output_limits
    out = min(max(out, lo), hi)
    return out, successor(ctrl, integral=integral, prev_error=error)


def ref_station_keeping(point, est, integral, dt):
    err_x = point[0] - est.x
    err_y = point[1] - est.y
    v_x, v_y = rotate_body_to_nav((est.u, est.v), est.psi)
    limit = control.DP_INTEGRAL_MAX
    int_x = min(max(integral[0] + control.DP_KI * err_x * dt, -limit), limit)
    int_y = min(max(integral[1] + control.DP_KI * err_y * dt, -limit), limit)
    force_x = control.DP_KP * err_x - control.DP_KD * v_x + int_x
    force_y = control.DP_KP * err_y - control.DP_KD * v_y + int_y
    magnitude = math.hypot(force_x, force_y)
    if magnitude < 1e-9:
        return 0.0, 0.0, (int_x, int_y)
    desired = math.atan2(force_y, force_x)
    heading_error = wrap_angle(desired - est.psi)
    surge = magnitude
    if abs(heading_error) > 0.5 * math.pi:
        heading_error = wrap_angle(heading_error + math.pi)
        surge = -magnitude
    surge *= math.cos(heading_error)
    return heading_error, surge, (int_x, int_y)


def ref_winch(line, commanded_length, dt):
    _check_cable_length(commanded_length)
    step = line.max_slew_rate * dt
    delta = commanded_length - line.unstretched_length
    delta = min(max(delta, -step), step)
    if delta == 0.0:
        return line
    return Towline(line.unstretched_length + delta, line.stiffness,
                   line.damping, line.max_slew_rate)


def ref_heading(state, heading_cmd, dt, params):
    heading_err = wrap_angle(heading_cmd - state.heading)
    max_step = params.max_turn_rate * dt
    return wrap_angle(state.heading
                      + min(max(heading_err, -max_step), max_step))


# -- the sites ----------------------------------------------------------------

def test_clamp_is_min_max():
    for x in VALUES:
        for lo in BOUNDS:
            for hi in BOUNDS:
                assert bits(clamp(x, lo, hi)) == bits(min(max(x, lo), hi)), (
                    x, lo, hi)


def test_thrust_allocation_clamps_as_min_max():
    params = AsvParams()
    for lim in BOUNDS + (40.0, -40.0):
        params.max_thrust = lim  # past the constructor's check
        for surge in VALUES:
            for yaw in (0.0, -0.0, 3.0, NAN):
                got = outcome(allocate_differential_thrust, surge, yaw, params)
                assert got == outcome(ref_allocate, surge, yaw, params), (
                    lim, surge, yaw)


def test_pid_clamps_integral_and_output_as_min_max():
    base = PidController(kp=1.0, ki=1.0)
    for lo in BOUNDS:
        for hi in BOUNDS:
            for integral in VALUES:
                for prev_error in (None, -0.0):
                    # successor skips the check that lo <= hi
                    ctrl = successor(base, integral=integral,
                                     prev_error=prev_error,
                                     integral_limits=(lo, hi),
                                     output_limits=(lo, hi))
                    for error in (-0.0, 0.5, NAN):
                        got = outcome(pid_step, ctrl, error, 0.1)
                        want = outcome(ref_pid_step, ctrl, error, 0.1)
                        assert got == want, (lo, hi, integral, error)


def test_station_keeping_clamps_integral_as_min_max(monkeypatch):
    # point (-0.0, -0.0) against a still vehicle at the origin: the error
    # term is -0.0, so each integral reaches the clamp unchanged
    still = VehicleState3DOF()
    moving = VehicleState3DOF(x=1.0, y=-2.0, psi=0.3, u=0.5, v=-0.1)
    for limit in BOUNDS + (50.0,):
        monkeypatch.setattr(control, "DP_INTEGRAL_MAX", limit)
        for ix in VALUES:
            for iy in (0.0, -0.0, -2.5, INF, NAN):
                for est in (still, moving):
                    args = ((-0.0, -0.0), est, (ix, iy), 0.1)
                    got = outcome(station_keeping, *args)
                    assert got == outcome(ref_station_keeping, *args), (
                        limit, ix, iy)


def test_station_keeping_matches_reference_on_random_forces(monkeypatch):
    # seeded N(0, 50^2) forces, carried in by the integral terms with the
    # clamp opened: math.hypot and np.hypot differ in the last bit on about
    # 0.6% of such pairs, so a reference on the other one fails here
    monkeypatch.setattr(control, "DP_INTEGRAL_MAX", INF)
    still = VehicleState3DOF()
    rng = np.random.default_rng(61)
    for ix, iy in rng.normal(0.0, 50.0, size=(2000, 2)).tolist():
        args = ((-0.0, -0.0), still, (ix, iy), 0.1)
        got = outcome(station_keeping, *args)
        assert got == outcome(ref_station_keeping, *args), (ix, iy)


def test_winch_slew_clamps_as_min_max():
    for rate in VALUES:
        line = Towline(10.0, max_slew_rate=rate)
        for commanded in (5.0, 10.0, math.nextafter(10.0, INF), 30.0):
            for dt in (1.0, -1.0, 0.0, -0.0):
                got = outcome(winch_set_length, line, commanded, dt)
                assert got == outcome(ref_winch, line, commanded, dt), (
                    rate, commanded, dt)
                if got[0] == "ok":  # a line that does not move comes back
                    assert ((winch_set_length(line, commanded, dt) is line)
                            == (ref_winch(line, commanded, dt) is line))


def test_crawler_heading_slew_clamps_as_min_max():
    params = HexapodParams()
    state = HexapodState(np.zeros(2), heading=0.4, legs=stand_legs(params))
    for rate in BOUNDS + (0.3, -0.3, 1e300):
        params.max_turn_rate = rate
        for heading_cmd in (0.4, 0.0, -3.0, 3.0, 1e-17):
            want = outcome(ref_heading, state, heading_cmd, 0.1, params)
            got = outcome(lambda *a: body_advance(*a).heading,
                          state, heading_cmd, 0.1, params)
            assert got == want, (rate, heading_cmd)


class _Stop(Exception):
    """Ends a step at the thrust allocation."""


def test_runner_surge_clamp_matches_max_min(monkeypatch):
    # station keeping commands the surge x and the heading loop a zero yaw,
    # so the step clamps x to +-headroom = +-max_surge; the allocation
    # records what it is given and ends the step there
    sim = Simulation(load_scenario(SCENARIO_DIR / "storm_loiter.yaml"))
    surge = []
    given = []

    def allocate(surge_cmd, yaw_cmd, params):
        given.append(surge_cmd)
        raise _Stop

    monkeypatch.setattr(runner, "station_keeping",
                        lambda point, est, integral, dt:
                        (0.0, surge[-1], integral))
    monkeypatch.setattr(runner, "pid_step", lambda ctrl, error, dt: (0.0, ctrl))
    monkeypatch.setattr(runner, "allocate_differential_thrust", allocate)
    for headroom in BOUNDS + (80.0, 1e300):
        sim.max_surge = headroom  # less abs(0.0) / half: the same bits
        for x in VALUES:
            surge.append(x)
            with pytest.raises(_Stop):
                sim.step()
            assert bits(given.pop()) == bits(max(-headroom, min(headroom, x))), (
                headroom, x)
