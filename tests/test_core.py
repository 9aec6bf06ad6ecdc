import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coastsim import asv, tuv
from coastsim.asv import (AsvParams, BodyWrench, VehicleState3DOF, ZERO_WRENCH,
                          asv_step)
from coastsim.core import (IntegrationFault, SeededRng, SimulationFault,
                           rk4_stages, rotate_body_to_nav, rotate_nav_to_body,
                           successor, wrap_angle)
from coastsim.control import PidController
from coastsim.environment import OutOfBounds
from coastsim.nav import EstimatorDivergence, SingularCovariance
from coastsim.tuv import DegenerateGeometry, TuvParams


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


finite = st.floats(allow_nan=False, allow_infinity=False)
limits = st.tuples(finite, finite).map(sorted).map(tuple)


@settings(max_examples=300)
@given(kp=finite, ki=finite, kd=finite, out=limits, integral_limits=limits,
       integral=finite, prev=st.none() | finite,
       new_integral=finite, new_prev=st.none() | finite)
@example(kp=1.0, ki=0.0, kd=0.0, out=(-1.0, 1.0), integral_limits=(0.0, 0.0),
         integral=-0.0, prev=None, new_integral=0.0, new_prev=-0.0)
def test_successor_equals_dataclasses_replace(kp, ki, kd, out,
                                              integral_limits, integral, prev,
                                              new_integral, new_prev):
    ctrl = PidController(kp, ki, kd, out, integral_limits, integral, prev)
    changes = {"integral": new_integral, "prev_error": new_prev}
    got = successor(ctrl, **changes)
    expected = dataclasses.replace(ctrl, **changes)
    assert type(got) is PidController
    for f in dataclasses.fields(PidController):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert type(a) is type(b) and repr(a) == repr(b), f.name
    assert got == expected and hash(got) == hash(expected)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.integral = 1.0
    # the original is untouched
    assert (ctrl.integral, ctrl.prev_error) == (integral, prev)


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


def test_normal_gives_the_scalar_draws_across_blocks():
    # block-drawn normals are the values one standard_normal() call after
    # another gives, over more than three blocks, with the streams
    # interleaved and one stream read in pairs that straddle each boundary
    from coastsim.core import _NORMAL_BLOCK
    n = 3 * _NORMAL_BLOCK + 5
    rng = SeededRng(42)
    got = {1: [rng.normal(np.int64(1))], 3: []}
    for _ in range(n):
        got[3].append(rng.normal(3))
        got[1] += [rng.normal(1), rng.normal(1)]
    for sid, values in got.items():
        ref = SeededRng(42).stream(sid)
        want = [ref.standard_normal() for _ in values]
        assert all(type(v) is float for v in values)
        assert [v.hex() for v in values] == [w.hex() for w in want]


def _decay(s):
    # six decoupled decays, xdot_i = -x_i
    return (-s[0], -s[1], -s[2], -s[3], -s[4], -s[5])


def test_rk4_exponential_decay():
    # xdot = -x over 1 s in 10 steps. Classical RK4 multiplies by the
    # 4th-order Taylor factor each step, which the oracle expands by hand;
    # the true gap to e^-1 is 3.33e-7 (an exact property of the method).
    h = 0.1
    factor = 1.0 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24
    x = [1.0] * 6
    for _ in range(10):
        x, _ = rk4_stages(_decay, x, h)
    for xi in x:
        assert xi == pytest.approx(factor ** 10, abs=1e-13)
        assert abs(xi - math.exp(-1.0)) < 5e-7


def test_rk4_convergence_order():
    # halving dt must cut the one-second error by ~2^4 (order >= 3.9)
    def final_errors(dt):
        x = [1.0] * 6
        for _ in range(round(1.0 / dt)):
            x, _ = rk4_stages(_decay, x, dt)
        return [abs(xi - math.exp(-1.0)) for xi in x]

    for e1, e2 in zip(final_errors(0.1), final_errors(0.05)):
        order = math.log2(e1 / e2)
        assert order >= 3.9


def test_rk4_matches_quadratic_exactly():
    # xdot = t^2 integrates exactly (RK4 is order 4); t rides along as a
    # state component with tdot = 1, the other four hold still
    x = [0.0] * 6
    for _ in range(100):
        x, _ = rk4_stages(
            lambda s: (1.0, s[0] * s[0], 0.0, 0.0, 0.0, 0.0), x, 0.01)
    assert math.isclose(x[1], 1.0 / 3.0, rel_tol=1e-12)
    assert x[2:] == [0.0] * 4


def _rk4_list_reference(f, state, dt, *args):
    """rk4_stages as a list comprehension per stage over any state length:
    the reference the unrolled six-float step must match bit for bit."""
    h = 0.5 * dt
    x1 = state
    k1 = f(x1, *args)
    x2 = [a + h * b for a, b in zip(x1, k1)]
    k2 = f(x2, *args)
    x3 = [a + h * b for a, b in zip(x1, k2)]
    k3 = f(x3, *args)
    x4 = [a + dt * b for a, b in zip(x1, k3)]
    k4 = f(x4, *args)
    c = dt / 6.0
    x_next = [a + c * (p + 2.0 * q + 2.0 * w + z)
              for a, p, q, w, z in zip(x1, k1, k2, k3, k4)]
    return x_next, (x1, x2, x3, x4)


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(rk4, f, state, dt, args):
    """(next state, stage states) as bytes, or the exception f raised."""
    try:
        x_next, stages = rk4(f, state, dt, *args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return _bits(x_next), tuple(_bits(x) for x in stages)


def _assert_same_step(f, state, dt, *args):
    with np.errstate(all="ignore"):
        got = _outcome(rk4_stages, f, state, dt, args)
        ref = _outcome(_rk4_list_reference, f, state, dt, args)
    assert got == ref


# signed zeros, subnormals, the largest finite magnitudes, infinities, nan
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e308,
                  -1e308, math.inf, -math.inf, math.nan)
any_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-100.0, 100.0),
                      st.floats())
floats6 = st.lists(any_float, min_size=6, max_size=6)
floats3 = st.tuples(any_float, any_float, any_float)
step_dt = st.one_of(st.sampled_from((0.01, 0.05, 0.1)),
                    st.floats(1e-4, 1.0))


@settings(max_examples=500)
@given(state=floats6, wrench=floats3, dt=step_dt)
def test_rk4_matches_list_reference_on_vehicle_bit_for_bit(state, wrench, dt):
    _assert_same_step(asv._derivative, state, dt, AsvParams(),
                      BodyWrench(*wrench))


@settings(max_examples=500)
@given(state=floats6, tension=floats3, current=floats3, dt=step_dt)
def test_rk4_matches_list_reference_on_towed_body_bit_for_bit(
        state, tension, current, dt):
    _assert_same_step(tuv._derivative, state, dt, TuvParams(), tension,
                      current)


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
