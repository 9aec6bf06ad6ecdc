import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coastsim.asv import AsvParams, VehicleState3DOF, ZERO_WRENCH, asv_step
from coastsim.core import (IntegrationFault, SeededRng, SimClock,
                           SimulationFault, rk4_stages, rotate_body_to_nav,
                           rotate_nav_to_body, wrap_angle)
from coastsim.environment import OutOfBounds
from coastsim.nav import EstimatorDivergence, SingularCovariance
from coastsim.tuv import DegenerateGeometry


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # -pi maps to +pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi)


def test_wrap_angle_range_property():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-50.0, 50.0, size=2000):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # same direction on the circle
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)


@settings(max_examples=2000)
@given(theta=st.floats(allow_nan=False, allow_infinity=False)
       | st.floats(-4 * math.pi, 4 * math.pi)
       | st.sampled_from([-0.0, math.pi, -math.pi, 2 * math.pi,
                          math.nextafter(2 * math.pi, 0.0), -1e-300, 5e-324]))
def test_wrap_angle_is_a_fixed_point_on_its_outputs(theta):
    # body_advance builds its new state without the constructor's wrap
    # because a wrapped heading wraps to the same bits
    w = wrap_angle(theta)
    assert repr(wrap_angle(w)) == repr(w)


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(float("inf"))


def test_rotation_quarter_turn():
    out = rotate_body_to_nav([1.0, 0.0], math.pi / 2)
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_rotation_preserves_norm_and_inverts():
    rng = np.random.default_rng(11)
    for _ in range(500):
        v = rng.normal(size=2)
        psi = rng.uniform(-10, 10)
        out = rotate_body_to_nav(v, psi)
        assert math.isclose(np.linalg.norm(out), np.linalg.norm(v), rel_tol=1e-12)
        back = rotate_nav_to_body(out, psi)
        assert np.allclose(back, v, atol=1e-12)


def test_rotation_rejects_non_finite():
    with pytest.raises(ValueError):
        rotate_body_to_nav([float("nan"), 0.0], 0.0)


def test_clock_has_no_drift():
    clock = SimClock(dt=0.1)
    for _ in range(1000):
        clock = clock.tick()
    # 1000 * 0.1 accumulated by repeated addition would miss this
    assert clock.t == 1000 * 0.1
    assert clock.step_count == 1000


def test_clock_rejects_bad_dt():
    with pytest.raises(ValueError):
        SimClock(dt=0.0)


def test_seeded_rng_reproducible_and_independent():
    a = SeededRng(42)
    b = SeededRng(42)
    # identical (seed, stream, index) -> identical values
    assert a.stream(1).random(5).tolist() == b.stream(1).random(5).tolist()
    # consuming one stream never perturbs another
    c = SeededRng(42)
    c.stream(2).random(1000)
    assert c.stream(1).random(5).tolist() == SeededRng(42).stream(1).random(5).tolist()
    # different seeds or streams give different sequences
    assert a.stream(3).random(5).tolist() != SeededRng(43).stream(3).random(5).tolist()
    assert SeededRng(42).stream(1).random(5).tolist() != SeededRng(42).stream(2).random(5).tolist()


def _decay(s):
    return (-s[0],)


def test_rk4_exponential_decay():
    # xdot = -x over 1 s in 10 steps. Classical RK4 multiplies by the
    # 4th-order Taylor factor each step, which the oracle expands by hand;
    # the true gap to e^-1 is 3.33e-7 (an exact property of the method).
    h = 0.1
    factor = 1.0 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24
    x = [1.0]
    for _ in range(10):
        x, _ = rk4_stages(_decay, x, h)
    assert x[0] == pytest.approx(factor ** 10, abs=1e-13)
    assert abs(x[0] - math.exp(-1.0)) < 5e-7


def test_rk4_convergence_order():
    # halving dt must cut the one-second error by ~2^4 (order >= 3.9)
    def final_error(dt):
        x = [1.0]
        for _ in range(round(1.0 / dt)):
            x, _ = rk4_stages(_decay, x, dt)
        return abs(x[0] - math.exp(-1.0))

    e1, e2 = final_error(0.1), final_error(0.05)
    order = math.log2(e1 / e2)
    assert order >= 3.9


def test_rk4_matches_quadratic_exactly():
    # xdot = t^2 integrates exactly (RK4 is order 4); t rides along as a
    # state component with tdot = 1
    x = [0.0, 0.0]
    for _ in range(100):
        x, _ = rk4_stages(lambda s: (1.0, s[0] * s[0]), x, 0.01)
    assert math.isclose(x[1], 1.0 / 3.0, rel_tol=1e-12)


def test_rk4_raises_on_divergence():
    # the integrators check each RK4 result: a state that overflows within
    # one step raises IntegrationFault at the step's time
    state = VehicleState3DOF(u=1e200, v=1e200, r=1e200)
    with pytest.raises(IntegrationFault) as info:
        asv_step(state, AsvParams(), ZERO_WRENCH, 0.01, t=2.5)
    assert info.value.t == 2.5


def test_numerical_faults_share_one_base():
    # the runner aborts on SimulationFault; each fault keeps its old base
    for fault, base in ((IntegrationFault, RuntimeError),
                        (EstimatorDivergence, RuntimeError),
                        (SingularCovariance, RuntimeError),
                        (OutOfBounds, ValueError),
                        (DegenerateGeometry, ValueError)):
        assert issubclass(fault, SimulationFault)
        assert issubclass(fault, base)
