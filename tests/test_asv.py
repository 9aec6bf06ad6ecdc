import dataclasses
import math

import numpy as np
import pytest

from coastsim.asv import (AsvParams, BodyWrench, VehicleState3DOF,
                          ZERO_WRENCH, _derivative,
                          allocate_differential_thrust, asv_step,
                          kinetic_energy)


def asv_derivative(state, params, wrench):
    """The 6-state derivative as an array."""
    return np.array(_derivative(state, params, wrench))


@pytest.fixture
def params():
    return AsvParams()


def test_body_wrench_is_an_immutable_value():
    # a named tuple, no longer a frozen dataclass: the forms callers use
    # still build it, and it still cannot be changed in place
    assert not dataclasses.is_dataclass(BodyWrench)
    w = BodyWrench(1.0, -2.0, 0.5)
    assert w == BodyWrench(X=1.0, Y=-2.0, N=0.5) == BodyWrench(1.0, N=0.5, Y=-2.0)
    assert (w.X, w.Y, w.N) == (1.0, -2.0, 0.5)
    assert BodyWrench(X=3.0) == BodyWrench(3.0, 0.0, 0.0)
    assert BodyWrench() == ZERO_WRENCH == (0.0, 0.0, 0.0)
    assert w != BodyWrench(1.0, -2.0, 0.25)
    assert hash(w) == hash(BodyWrench(1.0, -2.0, 0.5))
    assert len({w, BodyWrench(1.0, -2.0, 0.5), ZERO_WRENCH}) == 2
    for name in ("X", "Y", "N"):
        with pytest.raises(AttributeError):
            setattr(w, name, 9.0)
    with pytest.raises(AttributeError):
        w.extra = 1.0
    assert w == (1.0, -2.0, 0.5)


def test_kinematics_example():
    # oracle: direct trig arithmetic on the rotation map
    psi, u, v, r = 0.4, 1.2, -0.3, 0.05
    state = VehicleState3DOF(psi=psi, u=u, v=v, r=r).as_array()
    expected_xdot = u * math.cos(psi) - v * math.sin(psi)
    expected_ydot = u * math.sin(psi) + v * math.cos(psi)
    out = asv_derivative(state, AsvParams(), ZERO_WRENCH)[0:3]
    assert out[0] == pytest.approx(expected_xdot, abs=1e-15)
    assert out[1] == pytest.approx(expected_ydot, abs=1e-15)
    assert out[2] == r


def test_kinematics_heading_zero_is_identity():
    state = VehicleState3DOF(u=1.5, v=0.2, r=0.1).as_array()
    assert np.allclose(asv_derivative(state, AsvParams(), ZERO_WRENCH)[0:3],
                       [1.5, 0.2, 0.1])


def test_dynamics_zero_wrench_coupling(params):
    # hand-solved coupling terms for u=1, v=0.5, r=0.1
    state = VehicleState3DOF(u=1.0, v=0.5, r=0.1).as_array()
    acc = asv_derivative(state, params, BodyWrench())[3:6]
    assert acc[0] == pytest.approx((20.0 - 60.0) * 0.1 * 0.5 / 50.0)  # -0.04
    assert acc[1] == pytest.approx((50.0 - 20.0) * 1.0 * 0.1 / 60.0)  # +0.05
    assert acc[2] == pytest.approx((60.0 - 50.0) * 0.5 * 1.0 / 20.0)  # +0.25
    # the coupling matrix is skew-symmetric: power drains to zero
    power = 50.0 * 1.0 * acc[0] + 60.0 * 0.5 * acc[1] + 20.0 * 0.1 * acc[2]
    assert power == pytest.approx(0.0, abs=1e-12)


def test_dynamics_pure_wrench(params):
    state = VehicleState3DOF().as_array()
    acc = asv_derivative(state, params, BodyWrench(X=10.0, Y=-6.0, N=2.0))[3:6]
    assert np.allclose(acc, [10.0 / 50.0, -6.0 / 60.0, 2.0 / 20.0])


def test_energy_conserved_zero_wrench(params):
    # relative kinetic-energy drift below 1e-6 over 10 s at dt=0.01
    state = VehicleState3DOF(u=1.0, v=0.5, r=0.3)
    e0 = kinetic_energy(state, params)
    for k in range(1000):
        state = asv_step(state, params, BodyWrench(), 0.01)
        drift = abs(kinetic_energy(state, params) - e0) / e0
        assert drift < 1e-6


def test_constant_velocity_traces_circle(params):
    # kinematics only: hold (u, 0, r) and the pose must close a circle of
    # radius u/r after one period 2*pi/r
    u, r = 1.0, 0.2
    n = 31416
    dt = (2 * math.pi / r) / n  # exactly one period
    pose = np.zeros(3)
    for _ in range(n):
        # integrate the pose with velocities pinned
        def f(p):
            s = np.array([p[0], p[1], p[2], u, 0.0, r])
            return asv_derivative(s, params, ZERO_WRENCH)[0:3]
        k1 = f(pose); k2 = f(pose + dt / 2 * k1); k3 = f(pose + dt / 2 * k2)
        k4 = f(pose + dt * k3)
        pose = pose + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.linalg.norm(pose[0:2]) < 1e-6
    # mid-run sanity: max distance from centre (0, u/r) equals the radius
    assert math.isclose(u / r, 5.0)


def test_straight_line_constant_surge(params):
    state = VehicleState3DOF(u=2.0)
    for _ in range(100):
        state = asv_step(state, params, BodyWrench(), 0.01)
    assert state.x == pytest.approx(2.0, abs=1e-12)
    assert state.y == pytest.approx(0.0, abs=1e-12)
    assert state.u == pytest.approx(2.0)


def test_allocation_pure_surge(params):
    left, right, wrench = allocate_differential_thrust(20.0, 0.0, params)
    assert left == right == 10.0
    assert (wrench.X, wrench.Y, wrench.N) == (20.0, 0.0, 0.0)


def test_allocation_pure_yaw():
    params = AsvParams(thruster_half_spacing=0.5)
    left, right, wrench = allocate_differential_thrust(0.0, 2.0, params)
    assert (left, right) == (-2.0, 2.0)
    assert wrench.N == pytest.approx(2.0)
    assert wrench.X == pytest.approx(0.0)


def test_allocation_round_trip_within_limits(params):
    rng = np.random.default_rng(5)
    for _ in range(500):
        surge = rng.uniform(-70, 70)
        yaw = rng.uniform(-9, 9)
        left, right, wrench = allocate_differential_thrust(surge, yaw, params)
        if max(abs(left), abs(right)) < params.max_thrust:  # unsaturated
            assert wrench.X == pytest.approx(surge, abs=1e-9)
            assert wrench.N == pytest.approx(yaw, abs=1e-9)


def test_allocation_saturation_clamps_and_recomputes(params):
    left, right, wrench = allocate_differential_thrust(200.0, 0.0, params)
    assert left == right == params.max_thrust
    assert wrench.X == 80.0
    left, right, wrench = allocate_differential_thrust(0.0, 100.0, params)
    assert (left, right) == (-40.0, 40.0)
    assert wrench.N == pytest.approx(80.0 * 0.35)
    # wrench always reflects the clamped thrusts
    rng = np.random.default_rng(6)
    for _ in range(200):
        l, r, w = allocate_differential_thrust(rng.uniform(-500, 500),
                                               rng.uniform(-200, 200), params)
        assert abs(l) <= params.max_thrust and abs(r) <= params.max_thrust
        assert w.X == pytest.approx(l + r)
        assert w.N == pytest.approx((r - l) * params.thruster_half_spacing)
        assert w.Y == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        AsvParams(m11=0.0)
    with pytest.raises(ValueError):
        AsvParams(max_thrust=-1.0)


def test_params_reject_zero_thruster_spacing():
    # the allocation divides the yaw moment by it
    with pytest.raises(ValueError, match="thruster_half_spacing"):
        AsvParams(thruster_half_spacing=0.0)


def test_state_array_round_trip():
    state = VehicleState3DOF(x=1, y=2, psi=0.5, u=0.1, v=0.2, r=0.3)
    assert VehicleState3DOF.from_array(state.as_array()) == state
    # psi comes back wrapped
    turned = VehicleState3DOF.from_array([0.0, 0.0, 3 * math.pi, 0.0, 0.0, 0.0])
    assert turned.psi == pytest.approx(math.pi)
