import functools
import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coastsim.core import IntegrationFault
from coastsim.tuv import (MAX_CABLE_LENGTH, DegenerateGeometry, TowedBodyState,
                          Towline, TuvParams, _coupling_tension, _derivative,
                          _dot3, _hydrofoil, separation_rate, towline_tension,
                          tuv_step, winch_set_length)


# --- towline ---------------------------------------------------------------

def test_tension_worked_example():
    # 0.1 m of stretch at k = 500 N/m carries 50 N
    line = Towline(unstretched_length=30.0, stiffness=500.0, damping=0.0)
    force = towline_tension(np.zeros(3), np.array([30.1, 0.0, 0.0]), 0.0, line)
    assert np.linalg.norm(force) == pytest.approx(50.0, abs=1e-12)
    # and it pulls the body toward the tow point (-x here)
    assert force[0] < 0.0
    assert force[1] == force[2] == 0.0


def test_slack_line_carries_nothing():
    line = Towline(unstretched_length=30.0, stiffness=500.0, damping=50.0)
    for sep in (29.9, 30.0, 1.0):
        force = towline_tension(np.zeros(3), np.array([sep, 0.0, 0.0]), 5.0, line)
        assert np.array_equal(force, np.zeros(3))


def test_damping_only_adds_tension():
    line = Towline(unstretched_length=30.0, stiffness=500.0, damping=50.0)
    tuv = np.array([30.1, 0.0, 0.0])
    stretching = towline_tension(np.zeros(3), tuv, 1.0, line)
    steady = towline_tension(np.zeros(3), tuv, 0.0, line)
    slackening = towline_tension(np.zeros(3), tuv, -1.0, line)
    assert np.linalg.norm(stretching) == pytest.approx(100.0, abs=1e-12)
    # a slackening line never drops below the spring force: no pushing
    assert np.allclose(slackening, steady)
    assert np.linalg.norm(steady) == pytest.approx(50.0, abs=1e-12)


def test_coincident_endpoints_raise():
    line = Towline()
    with pytest.raises(DegenerateGeometry):
        towline_tension(np.ones(3), np.ones(3), 0.0, line)


def test_separation_rate_radial_and_tangential():
    asv = np.zeros(3)
    tuv = np.array([10.0, 0.0, 0.0])
    # pure radial closing at 2 m/s
    rate = separation_rate(asv, np.array([2.0, 0.0, 0.0]), tuv, np.zeros(3))
    assert rate == pytest.approx(-2.0, abs=1e-12)
    # pure tangential motion leaves the separation unchanged
    rate = separation_rate(asv, np.zeros(3), tuv, np.array([0.0, 3.0, 0.0]))
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_tension_reaction_sums_to_zero():
    line = Towline(unstretched_length=5.0, stiffness=800.0, damping=50.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        asv = rng.normal(size=3) * 10.0
        tuv = rng.normal(size=3) * 10.0
        rate = rng.normal()
        on_tuv = towline_tension(asv, tuv, rate, line)
        on_asv = -on_tuv  # the line is massless
        assert np.array_equal(on_tuv + on_asv, np.zeros(3))


# --- hydrofoil -------------------------------------------------------------

def test_foil_forces_worked_example():
    # q = 0.5 * 1025 * 2^2 * 0.1 = 205 Pa*m^2; C_L=0.5 -> 102.5 N down,
    # C_D=0.08 -> 16.4 N against the flow
    params = TuvParams(c_lift=0.5, c_drag=0.08, foil_area=0.1, rho=1025.0)
    _, lift, drag, *force = _hydrofoil(2.0, 0.0, 0.0, params)
    assert lift == pytest.approx(102.5, abs=1e-12)
    assert drag == pytest.approx(16.4, abs=1e-12)
    assert np.allclose(force, [-16.4, 0.0, 102.5], atol=1e-12)


def test_foil_lift_vanishes_in_vertical_flow():
    params = TuvParams()
    _, lift, drag, *force = _hydrofoil(0.0, 0.0, 3.0, params)
    # lift has no defined direction when the flow is straight down the lift axis
    assert np.allclose(force, [0.0, 0.0, -drag], atol=1e-12)
    assert force[2] < 0.0


def test_foil_force_decomposition_is_orthogonal():
    params = TuvParams()
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-3:
            continue
        _, lift, drag, *force = _hydrofoil(*v.tolist(), params)
        force = np.array(force)
        e_v = v / np.linalg.norm(v)
        # along-flow component is exactly the drag
        assert float(force @ e_v) == pytest.approx(-drag, abs=1e-9)
        lift_vec = force + drag * e_v
        assert np.linalg.norm(lift_vec) == pytest.approx(lift, abs=1e-9) or \
            np.linalg.norm(lift_vec) < 1e-9  # vertical-flow case
        # depressor: the lift component never points up
        assert lift_vec[2] >= -1e-12


def test_still_water_sink_rate():
    # slack line, no current: acceleration is submerged weight over total mass
    params = TuvParams()
    deriv = _derivative([0.0] * 6, params, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    expected = params.net_weight / params.total_mass
    assert deriv[5] == pytest.approx(expected, abs=1e-12)
    assert np.allclose(deriv[:5], 0.0)


def test_equilibrium_configuration_has_zero_net_force():
    # closed-form static solve: at tow speed U the drag budget is carried by
    # the horizontal tension component and lift + submerged weight by the
    # vertical one; placing the body on that solution must zero the dynamics
    params = TuvParams()
    line = Towline(unstretched_length=30.0, stiffness=800.0, damping=50.0)
    U = 2.0
    q = 0.5 * params.rho * U ** 2 * params.foil_area
    lift = q * params.c_lift
    drag = q * params.c_drag + 0.5 * params.rho * params.bluff_cda * U ** 2
    vertical = lift + params.net_weight
    tension_mag = math.hypot(drag, vertical)
    stretched = line.unstretched_length + tension_mag / line.stiffness
    depth = stretched * vertical / tension_mag
    trail = stretched * drag / tension_mag
    assert depth == pytest.approx(22.8997, abs=1e-4)  # frozen from the algebra

    asv_attach = np.zeros(3)
    tuv_pos = np.array([-trail, 0.0, depth])
    tension = towline_tension(asv_attach, tuv_pos, 0.0, line)
    state = np.concatenate([tuv_pos, [U, 0.0, 0.0]])
    deriv = np.array(_derivative(state.tolist(), params, tension.tolist(),
                                 (0.0, 0.0, 0.0)))
    assert np.allclose(deriv[3:], 0.0, atol=1e-9)  # force balance
    assert np.allclose(deriv[:3], [U, 0.0, 0.0])


def test_step_clamps_at_surface():
    params = TuvParams(buoyancy_fraction=0.98)
    state = TowedBodyState(np.array([0.0, 0.0, 0.05]), np.array([0.0, 0.0, -2.0]))
    # strong upward pull: huge slack-free line overhead is not needed, the
    # initial upward velocity alone would breach the surface
    state = tuv_step(state, params, np.zeros(3), np.zeros(3), 0.1)
    assert state.position[2] == 0.0
    assert state.velocity[2] >= 0.0


def test_towed_body_follows_accelerating_tow():
    # pull the body from rest; it must gain speed in the tow direction and sink
    params = TuvParams()
    line = Towline(unstretched_length=5.0, stiffness=800.0, damping=50.0)
    state = TowedBodyState(np.array([-5.0, 0.0, 0.5]), np.zeros(3))
    dt = 0.01
    asv = np.zeros(3)
    for step in range(500):
        asv = asv + np.array([1.0, 0.0, 0.0]) * dt  # 1 m/s tow point
        rate = separation_rate(asv, [1.0, 0.0, 0.0], state.position, state.velocity)
        tension = towline_tension(asv, state.position, rate, line)
        state = tuv_step(state, params, tension, np.zeros(3), dt)
    assert state.velocity[0] > 0.5
    assert state.position[2] > 0.5  # deeper than it started


# --- winch -----------------------------------------------------------------

def test_winch_slew_limit():
    line = Towline(unstretched_length=30.0, max_slew_rate=0.5)
    line = winch_set_length(line, 10.0, dt=1.0)
    assert line.unstretched_length == pytest.approx(29.5)
    # small moves inside the limit land exactly
    line = winch_set_length(line, 29.3, dt=1.0)
    assert line.unstretched_length == pytest.approx(29.3)
    # payout is limited too
    line = winch_set_length(line, 30.0, dt=0.1)
    assert line.unstretched_length == pytest.approx(29.35)


def test_winch_rejects_impossible_lengths():
    line = Towline()
    with pytest.raises(ValueError, match="cable length"):
        winch_set_length(line, 0.0, dt=1.0)
    with pytest.raises(ValueError, match="cable length"):
        winch_set_length(line, MAX_CABLE_LENGTH + 0.1, dt=1.0)
    with pytest.raises(ValueError, match="cable length"):
        Towline(unstretched_length=31.0)


def test_params_validation():
    with pytest.raises(ValueError):
        TuvParams(m_b=0.0)
    with pytest.raises(ValueError):
        TuvParams(buoyancy_fraction=-0.1)
    with pytest.raises(ValueError):
        Towline(stiffness=0.0)


# --- float implementation against the whole-array reference ---------------
#
# The towed body and the line run on Python floats. The reference below is
# the whole-array numpy form they replaced, with each dot product and norm
# summed left to right (dot3, norm3); outputs must match it bit for bit,
# signed zeros included, since states.csv writes every bit.

Z_HAT = np.array([0.0, 0.0, 1.0])


def dot3(a, b) -> float:
    """A 3-vector dot product as a left-to-right fold of the products."""
    return functools.reduce(operator.add,
                            map(operator.mul, map(float, a), map(float, b)))


def norm3(v) -> float:
    return math.sqrt(dot3(v, v))


def ref_towline_tension(asv_attach, tuv_attach, separation_rate, line):
    offset = np.asarray(asv_attach, dtype=float) - np.asarray(tuv_attach, dtype=float)
    s = norm3(offset)
    if s == 0.0:
        raise DegenerateGeometry("towline endpoints coincide")
    if s <= line.unstretched_length:
        return np.zeros(3)
    magnitude = line.stiffness * (s - line.unstretched_length) \
        + line.damping * max(0.0, separation_rate)
    return (magnitude / s) * offset


def ref_separation_rate(asv_attach, asv_attach_vel, tuv_attach, tuv_attach_vel):
    offset = np.asarray(asv_attach, dtype=float) - np.asarray(tuv_attach, dtype=float)
    s = norm3(offset)
    if s == 0.0:
        return 0.0
    rel_vel = np.asarray(asv_attach_vel, dtype=float) - np.asarray(tuv_attach_vel, dtype=float)
    return dot3(offset, rel_vel) / s


def ref_hydrofoil_forces(v_rel, params):
    v = np.asarray(v_rel, dtype=float)
    speed = norm3(v)
    if speed == 0.0:
        return 0.0, 0.0, np.zeros(3)
    q = 0.5 * params.rho * speed ** 2 * params.foil_area
    lift = q * params.c_lift
    drag = q * params.c_drag
    e_v = v / speed
    force = -drag * e_v
    lift_dir = Z_HAT - dot3(Z_HAT, e_v) * e_v
    norm = norm3(lift_dir)
    if norm > 1e-12:
        force = force + lift * (lift_dir / norm)
    return lift, drag, force


def ref_tuv_derivative(state_vec, params, tension, current):
    vel = state_vec[3:6]
    v_rel = vel - current
    _, _, foil = ref_hydrofoil_forces(v_rel, params)
    rel_speed = norm3(v_rel)
    bluff = -0.5 * params.rho * params.bluff_cda * rel_speed * v_rel
    force = foil + bluff + tension + params.net_weight * Z_HAT
    return np.concatenate([vel, force / params.total_mass])


def ref_tuv_step(state, params, tension, current, dt, t=0.0):
    x = np.concatenate([state.position, state.velocity])
    k1 = ref_tuv_derivative(x, params, tension, current)
    k2 = ref_tuv_derivative(x + 0.5 * dt * k1, params, tension, current)
    k3 = ref_tuv_derivative(x + 0.5 * dt * k2, params, tension, current)
    k4 = ref_tuv_derivative(x + dt * k3, params, tension, current)
    x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(x).all():
        raise IntegrationFault("towed body state diverged", t)
    pos, vel = x[0:3].copy(), x[3:6].copy()
    if pos[2] < 0.0:
        pos[2] = 0.0
        vel[2] = max(vel[2], 0.0)
    return TowedBodyState(pos, vel)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


coord = st.floats(-60.0, 60.0)
speed = st.floats(-4.0, 4.0)
vec3 = st.tuples(coord, coord, st.floats(0.0, 40.0))
vel3 = st.tuples(speed, speed, speed)
current3 = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                     st.just(0.0))
lines = st.builds(Towline, unstretched_length=st.floats(1.0, MAX_CABLE_LENGTH),
                  stiffness=st.floats(1.0, 2000.0),
                  damping=st.floats(0.0, 100.0))
tuv_params = st.builds(TuvParams, buoyancy_fraction=st.floats(0.0, 1.2),
                       c_lift=st.floats(-0.5, 0.5))


@settings(max_examples=300, deadline=None)
@given(asv=vec3, asv_vel=vel3, tuv=vec3, tuv_vel=vel3, line=lines)
@example(asv=(0.0, 0.0, 0.0), asv_vel=(1.0, 0.0, 0.0), tuv=(-3.0, 0.0, 2.0),
         tuv_vel=(0.0, 0.0, 0.0), line=Towline(unstretched_length=30.0))
@example(asv=(5.0, 1.0, 0.0), asv_vel=(0.0, 0.0, 0.0), tuv=(5.0, 1.0, 0.0),
         tuv_vel=(0.0, 0.0, 0.0), line=Towline())
def test_towline_matches_array_reference_bit_for_bit(asv, asv_vel, tuv,
                                                     tuv_vel, line):
    rate = separation_rate(np.array(asv), np.array(asv_vel), np.array(tuv),
                           np.array(tuv_vel))
    ref_rate = ref_separation_rate(asv, asv_vel, tuv, tuv_vel)
    assert same_bits(rate, ref_rate) and type(rate) is float
    try:
        ref = ref_towline_tension(asv, tuv, rate, line)
    except DegenerateGeometry:  # coincident, or closer than the norm resolves
        with pytest.raises(DegenerateGeometry):
            towline_tension(np.array(asv), np.array(tuv), rate, line)
        return
    # both a taut and a slack line (first example: 3.6 m inside 30 m)
    assert same_bits(towline_tension(np.array(asv), np.array(tuv), rate, line),
                     ref)


@settings(max_examples=300)
@given(asv=vec3, asv_vel=vel3, tuv=vec3, tuv_vel=vel3, line=lines)
@example(asv=(0.0, 0.0, 0.0), asv_vel=(1.0, 0.0, 0.0), tuv=(-3.0, 0.0, 2.0),
         tuv_vel=(0.0, 0.0, 0.0), line=Towline(unstretched_length=30.0))
@example(asv=(5.0, 1.0, 0.0), asv_vel=(0.0, 0.0, 0.0), tuv=(5.0, 1.0, 0.0),
         tuv_vel=(0.0, 0.0, 0.0), line=Towline())
def test_coupling_tension_matches_array_reference_bit_for_bit(asv, asv_vel, tuv,
                                                              tuv_vel, line):
    # the runner's tension: separation rate and tension from one offset
    rate = ref_separation_rate(asv, asv_vel, tuv, tuv_vel)
    try:
        ref = ref_towline_tension(asv, tuv, rate, line)
    except DegenerateGeometry:
        with pytest.raises(DegenerateGeometry):
            _coupling_tension(asv, asv_vel, tuv, tuv_vel, line)
        return
    tension = _coupling_tension(asv, asv_vel, tuv, tuv_vel, line)
    assert type(tension) is tuple and all(type(v) is float for v in tension)
    assert same_bits(tension, ref)


@settings(max_examples=300, deadline=None)
@given(vel=vel3, current=current3, params=tuv_params)
@example(vel=(0.3, -0.2, 0.0), current=(0.3, -0.2, 0.0), params=TuvParams())
@example(vel=(0.3, -0.2, 1.5), current=(0.3, -0.2, 0.0), params=TuvParams())
@example(vel=(0.0, 0.0, -2.0), current=(0.0, 0.0, 0.0), params=TuvParams())
@example(vel=(-0.0, 0.0, -0.0), current=(0.0, -0.0, 0.0), params=TuvParams())
def test_foil_matches_array_reference_bit_for_bit(vel, current, params):
    # the examples: zero relative flow, purely vertical flow (down and up),
    # and signed zeros
    v_rel = np.array(vel) - np.array(current)
    _, lift, drag, *force = _hydrofoil(*v_rel.tolist(), params)
    ref_lift, ref_drag, ref_force = ref_hydrofoil_forces(v_rel, params)
    assert same_bits((lift, drag), (ref_lift, ref_drag))
    assert same_bits(force, ref_force)


@settings(max_examples=300, deadline=None)
@given(pos=vec3, vel=vel3, tension=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
       current=current3, params=tuv_params,
       dt=st.sampled_from([0.01, 0.05, 0.1, 0.2]))
@example(pos=(0.0, 0.0, 0.05), vel=(0.0, 0.0, -2.0), tension=(0.0, 0.0, 0.0),
         current=(0.0, 0.0, 0.0), params=TuvParams(), dt=0.1)
@example(pos=(-28.0, 0.0, 2.0), vel=(0.5, 0.1, 0.0), tension=(0.0, 0.0, 0.0),
         current=(0.5, 0.1, 0.0), params=TuvParams(), dt=0.01)
@example(pos=(1.0, 2.0, 0.0), vel=(0.2, 0.0, -0.0), tension=(0.0, 0.0, -50.0),
         current=(0.2, 0.0, 0.0), params=TuvParams(), dt=0.05)
@example(pos=(3.0, -4.0, 10.0), vel=(0.0, 0.5, 0.0), tension=(-0.0, 0.0, 0.0),
         current=(0.0, 0.0, 0.0), params=TuvParams(c_lift=-0.2), dt=0.05)
def test_step_matches_array_reference_bit_for_bit(pos, vel, tension, current,
                                                  params, dt):
    # the examples: the surface clamp, zero relative flow on a slack line,
    # purely vertical flow pulled through the surface, and a force sum of
    # -0.0 that the weight term's x component (+0.0) turns into +0.0
    state = TowedBodyState(np.array(pos), np.array(vel))
    x = np.concatenate([state.position, state.velocity])
    tension, current = np.array(tension), np.array(current)
    assert same_bits(_derivative(x.tolist(), params, tension.tolist(),
                                 current.tolist()),
                     ref_tuv_derivative(x, params, tension, current))
    out = tuv_step(state, params, tension, current, dt, 1.0)
    ref = ref_tuv_step(state, params, tension, current, dt, 1.0)
    assert same_bits(out.position, ref.position)
    assert same_bits(out.velocity, ref.velocity)
    # the runner's call: tension and current as float tuples
    out = tuv_step(state, params, tuple(tension.tolist()),
                   tuple(current.tolist()), dt, 1.0)
    assert same_bits(out.position, ref.position)
    assert same_bits(out.velocity, ref.velocity)


def test_step_divergence_raises_like_reference():
    # the flow speed overflows to inf inside the norm, and the state to nan
    state = TowedBodyState(np.array([0.0, 0.0, 5.0]), np.array([1e200, 0.0, 0.0]))
    params = TuvParams()
    for step in (tuv_step, ref_tuv_step):
        with pytest.raises(IntegrationFault), np.errstate(all="ignore"):
            step(state, params, np.zeros(3), np.zeros(3), 0.1)


# --- the 3-vector dot -------------------------------------------------------

def same_float(x: float, y: float) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return struct.pack("<d", x) == struct.pack("<d", y)


def test_dot3_matches_fixed_order_on_random_vectors():
    rng = np.random.default_rng(17)
    scale = rng.choice([1e-3, 1.0, 1e3, 1e150], size=(20000, 1))
    A = rng.normal(size=(20000, 3)) * scale
    B = rng.normal(size=(20000, 3)) * scale
    for a, b in zip(A.tolist(), B.tolist()):
        assert same_float(_dot3(*a, *b), dot3(a, b))
        assert same_float(math.sqrt(_dot3(*a, *a)), norm3(a))


SPECIAL = [0.0, -0.0, 1.0, -2.5, 5e-324, -1e-160, 1e-155, 3e-100, 1e154,
           1e300, -1.7e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("a, b", [
    ((math.inf, 1.0, 0.0), (1.0, 1.0, 1.0)),
    ((math.inf, -math.inf, 0.0), (1.0, 1.0, 1.0)),  # inf - inf
    ((math.inf, 0.0, 0.0), (0.0, 1.0, 1.0)),  # inf * 0
    ((math.nan, 1.0, 1.0), (1.0, 1.0, 1.0)),
    ((1e308, 1e308, 0.0), (10.0, -10.0, 0.0)),  # overflow, then inf - inf
    ((1.7e308, 1.7e308, 1.7e308), (1.0, 1.0, 1.0)),  # the sum overflows
    ((1e200, 1e200, 1e200), (1e200, 1e200, 1e200)),  # each product overflows
    ((1e-160, 3e-160, -2e-160), (1e-160, 1e-160, 1e-160)),  # tiny products
    ((-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),  # all products -0: the sum is -0
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
])
def test_dot3_special_values(a, b):
    assert same_float(_dot3(*a, *b), dot3(a, b))


@settings(max_examples=500, deadline=None)
@given(a=st.tuples(*[st.floats() | st.sampled_from(SPECIAL)] * 3),
       b=st.tuples(*[st.floats() | st.sampled_from(SPECIAL)] * 3))
def test_dot3_matches_fixed_order_on_any_floats(a, b):
    assert same_float(_dot3(*a, *b), dot3(a, b))
