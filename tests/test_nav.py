import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastsim.asv import AsvParams, BodyWrench, VehicleState3DOF, _derivative
from coastsim.core import SeededRng, cos_sin, wrap_angle
from coastsim.nav import (COMPASS, GPS, GYRO, EkfParams, EstimatorDivergence,
                          EstimatorState, SensorConfig, SensorReading,
                          SingularCovariance, _checked, _predict,
                          _stage_jacobian, _symmetrized, _update,
                          discrete_jacobian,
                          ekf_predict, ekf_update, initial_estimate,
                          predict_mean, sample_sensors)
from coastsim.nav import STREAM_COMPASS, STREAM_GPS, STREAM_GYRO


@pytest.fixture
def params():
    return AsvParams()


def asv_derivative(x, params, wrench):
    """The 6-state derivative as an array."""
    return np.array(_derivative(x, params, wrench))


# --- sensors ---------------------------------------------------------------

def test_sensor_schedule_rates():
    cfg = SensorConfig()
    truth = VehicleState3DOF()
    rng = SeededRng(1)
    periods = cfg.periods(0.01)
    counts = {GPS: 0, COMPASS: 0, GYRO: 0}
    for step in range(1000):  # 10 s
        for kind, _ in sample_sensors(truth, step, periods, cfg, rng):
            counts[kind] += 1
    # 1 Hz, 10 Hz, 100 Hz including the step-0 sample
    assert counts[GPS] == 10
    assert counts[COMPASS] == 100
    assert counts[GYRO] == 1000


def test_sensor_rate_must_divide_sim_rate():
    cfg = SensorConfig(gps_rate=3.0)
    with pytest.raises(ValueError, match="does not divide"):
        sample_sensors(VehicleState3DOF(), 0, cfg.periods(0.01), cfg,
                       SeededRng(1))


def test_sensor_noise_is_seed_deterministic():
    truth = VehicleState3DOF(x=5.0, y=-2.0, psi=0.3, r=0.05)
    cfg = SensorConfig()
    periods = cfg.periods(0.01)
    a = [v for _, v in sample_sensors(truth, 0, periods, cfg, SeededRng(9))]
    b = [v for _, v in sample_sensors(truth, 0, periods, cfg, SeededRng(9))]
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


def test_gps_radial_error_rayleigh_quantile():
    # oracle: the 95th-percentile radial error of isotropic Gaussian noise is
    # sigma * sqrt(-2 ln 0.05); empirical value over 1e4 draws within 5%
    cfg = SensorConfig()
    truth = VehicleState3DOF(x=0.0, y=0.0)
    rng = SeededRng(2024)
    periods = cfg.periods(0.01)
    radial = []
    for step in range(10_000):
        (value,) = [v for k, v in sample_sensors(truth, step * 100, periods,
                                                 cfg, rng) if k == GPS]
        radial.append(float(np.linalg.norm(value)))
    q95 = float(np.quantile(radial, 0.95))
    expected = cfg.gps_sigma * math.sqrt(-2.0 * math.log(0.05))
    assert expected == pytest.approx(3.0597, abs=2e-4)
    assert abs(q95 - expected) / expected < 0.05


def test_compass_reading_is_wrapped():
    cfg = SensorConfig(compass_sigma=0.5)
    truth = VehicleState3DOF(psi=math.pi - 0.01)
    rng = SeededRng(3)
    periods = cfg.periods(0.01)
    for step in range(0, 3000, 10):
        for kind, value in sample_sensors(truth, step, periods, cfg, rng):
            if kind == COMPASS:
                assert -math.pi < value <= math.pi


def test_readings_are_the_scalar_draw_form_across_noise_blocks():
    # every sensor due on every step, one GPS draw taken first so that the
    # GPS pairs straddle each block boundary: each reading is the array
    # form on one standard_normal() call after another, compass and gyro
    # as floats
    from coastsim.core import _NORMAL_BLOCK
    cfg = SensorConfig(gps_rate=100.0, compass_rate=100.0)
    truth = VehicleState3DOF(x=5.0, y=-2.0, psi=3.1, r=0.05)
    rng = SeededRng(17)
    periods = cfg.periods(0.01)
    gens = {kind: SeededRng(17).stream(sid) for kind, sid in
            ((GPS, STREAM_GPS), (COMPASS, STREAM_COMPASS), (GYRO, STREAM_GYRO))}
    assert rng.normal(STREAM_GPS) == gens[GPS].standard_normal()
    for step in range(2 * _NORMAL_BLOCK):  # four GPS blocks
        readings = sample_sensors(truth, step, periods, cfg, rng)
        assert [kind for kind, _ in readings] == [GPS, COMPASS, GYRO]
        gps, compass, gyro = (value for _, value in readings)
        want = (np.array([truth.x, truth.y])
                + cfg.gps_sigma * gens[GPS].standard_normal(2))
        assert gps.tobytes() == want.tobytes()
        psi = wrap_angle(truth.psi
                         + cfg.compass_sigma * gens[COMPASS].standard_normal())
        assert struct.pack("<d", compass) == struct.pack("<d", psi)
        r = truth.r + cfg.gyro_sigma * gens[GYRO].standard_normal()
        assert struct.pack("<d", gyro) == struct.pack("<d", r)


# --- EKF predict -----------------------------------------------------------

def test_predict_mean_matches_direct_rk4(params):
    # the mean propagation is the same map the truth integrator uses
    from coastsim.asv import asv_step
    state = VehicleState3DOF(x=1.0, y=2.0, psi=0.3, u=1.5, v=-0.2, r=0.1)
    wrench = BodyWrench(X=20.0, Y=5.0, N=2.0)
    direct = asv_step(state, params, wrench, 0.01)
    predicted = predict_mean(state.as_array(), params, wrench, 0.01)
    assert np.allclose(predicted[:2], [direct.x, direct.y], atol=1e-14)
    assert wrap_angle(predicted[2]) == pytest.approx(direct.psi, abs=1e-14)
    assert np.allclose(predicted[3:], [direct.u, direct.v, direct.r], atol=1e-14)


def test_dynamics_jacobian_matches_central_differences(params):
    # oracle: central differences of the continuous derivative, h = 1e-6, for
    # the reference the stage Jacobian is checked against bit for bit
    wrench = BodyWrench(X=12.0, Y=-3.0, N=1.5)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(20):
        x = rng.normal(size=6)
        A = _dynamics_jacobian_reference(x, params)
        num = np.zeros((6, 6))
        for j in range(6):
            dx = np.zeros(6)
            dx[j] = h
            num[:, j] = (asv_derivative(x + dx, params, wrench)
                         - asv_derivative(x - dx, params, wrench)) / (2 * h)
        assert np.allclose(A, num, atol=1e-6)


def test_discrete_jacobian_matches_central_differences(params):
    # acceptance-grade check: the chain-ruled RK4 Jacobian against central
    # differences of the discrete map itself
    wrench = BodyWrench(X=15.0, Y=2.0, N=-1.0)
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(10):
        x = rng.normal(size=6)
        dt = 0.01
        F = discrete_jacobian(x, params, wrench, dt)
        num = np.zeros((6, 6))
        for j in range(6):
            dx = np.zeros(6)
            dx[j] = h
            num[:, j] = (predict_mean(x + dx, params, wrench, dt)
                         - predict_mean(x - dx, params, wrench, dt)) / (2 * h)
        assert np.max(np.abs(F - num)) < 1e-5


def test_predict_grows_and_symmetrizes_covariance(params):
    est = initial_estimate(VehicleState3DOF(u=1.0))
    ekf = EkfParams()
    for _ in range(100):
        prev_trace = np.trace(est.P)
        est = ekf_predict(est, params, ekf, BodyWrench(X=10.0), 0.01)
        assert np.array_equal(est.P, est.P.T)
        assert np.trace(est.P) > prev_trace  # process noise accumulates
    assert np.all(np.linalg.eigvalsh(est.P) > 0)


def test_predict_matches_array_rk4_bit_for_bit(params):
    # reference: the RK4 mean and its chain-ruled Jacobian in whole-array
    # numpy arithmetic, each stage computed afresh
    rng = np.random.default_rng(41)
    ekf = EkfParams()
    I6 = np.eye(6)
    for _ in range(50):
        x = rng.normal(size=6) * np.array([50, 50, 3, 2, 1, 0.5])
        A = rng.normal(size=(6, 6))
        P = A @ A.T + 0.1 * I6
        wrench = BodyWrench(*rng.normal(size=3) * 20)
        dt = float(rng.choice([0.01, 0.05, 0.1]))
        k1 = asv_derivative(x, params, wrench)
        x2 = x + 0.5 * dt * k1
        k2 = asv_derivative(x2, params, wrench)
        x3 = x + 0.5 * dt * k2
        k3 = asv_derivative(x3, params, wrench)
        x4 = x + dt * k3
        k4 = asv_derivative(x4, params, wrench)
        mean = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        K1 = _dynamics_jacobian_reference(x, params)
        K2 = _dynamics_jacobian_reference(x2, params) @ (I6 + 0.5 * dt * K1)
        K3 = _dynamics_jacobian_reference(x3, params) @ (I6 + 0.5 * dt * K2)
        K4 = _dynamics_jacobian_reference(x4, params) @ (I6 + dt * K3)
        F = I6 + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        P_ref = F @ P @ F.T + ekf.q_discrete(dt)
        P_ref = 0.5 * (P_ref + P_ref.T)

        assert np.array_equal(predict_mean(x, params, wrench, dt), mean)
        assert np.array_equal(discrete_jacobian(x, params, wrench, dt), F)
        out = ekf_predict(EstimatorState(x.copy(), P.copy()), params, ekf,
                          wrench, dt)
        mean[2] = wrap_angle(mean[2])
        assert np.array_equal(out.x, mean)
        assert np.array_equal(out.P, P_ref)


def _dynamics_jacobian_reference(x, params):
    """The continuous Jacobian as a nested-list np.array: the reference the
    template filled from the 12 state-dependent cells must match."""
    psi, u, v, r = x[2], x[3], x[4], x[5]
    c, s = cos_sin(psi)
    return np.array([
        [0.0, 0.0, -u * s - v * c, c, -s, 0.0],
        [0.0, 0.0, u * c - v * s, s, c, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, (params.m33 - params.m22) * r / params.m11,
         (params.m33 - params.m22) * v / params.m11],
        [0.0, 0.0, 0.0, (params.m11 - params.m33) * r / params.m22, 0.0,
         (params.m11 - params.m33) * u / params.m22],
        [0.0, 0.0, 0.0, (params.m22 - params.m11) * v / params.m33,
         (params.m22 - params.m11) * u / params.m33, 0.0],
    ])


def _stage_jacobian_reference(stages, params, dt):
    x1, x2, x3, x4 = stages
    I6 = np.eye(6)
    K1 = _dynamics_jacobian_reference(x1, params)
    K2 = _dynamics_jacobian_reference(x2, params) @ (I6 + 0.5 * dt * K1)
    K3 = _dynamics_jacobian_reference(x3, params) @ (I6 + 0.5 * dt * K2)
    K4 = _dynamics_jacobian_reference(x4, params) @ (I6 + dt * K3)
    return I6 + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


# signed zeros, subnormals, the largest finite magnitudes, infinities, nan
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
                  math.inf, -math.inf, math.nan)
any_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-100.0, 100.0),
                      st.floats())
state6 = st.lists(any_float, min_size=6, max_size=6)
asv_params = st.builds(AsvParams, m11=st.floats(1.0, 200.0),
                       m22=st.floats(1.0, 200.0), m33=st.floats(1.0, 200.0))
step_dt = st.one_of(st.sampled_from((0.01, 0.05, 0.1)), st.floats(1e-4, 1.0))
# a non-finite heading: cos_sin gives (nan, nan) there
INF_HEADING = [1.0, 2.0, math.inf, 1.5, -0.5, 0.25]


@settings(max_examples=300)
@given(stages=st.lists(state6, min_size=4, max_size=4), p=asv_params,
       dt=step_dt)
@example(stages=[INF_HEADING] * 4, p=AsvParams(), dt=0.01)
@example(stages=[[-0.0] * 6] * 4, p=AsvParams(), dt=0.1)
def test_stage_jacobian_matches_array_reference_bit_for_bit(stages, p, dt):
    with np.errstate(all="ignore"):
        got = _stage_jacobian(stages, p, dt)
        ref = _stage_jacobian_reference(stages, p, dt)
    assert got.tobytes() == ref.tobytes()


# every product nav makes, as (left shape, right shape, transposed): a
# transposed right operand is the .T view of an array of the reverse shape,
# as F.T is
DOT_LAYOUTS = {
    "6x6.6x6": ((6, 6), (6, 6), False),  # stage chain, F P
    "6x6.(6x6)T": ((6, 6), (6, 6), True),  # (F P) F^T
}


@pytest.mark.parametrize("layout", sorted(DOT_LAYOUTS))
@settings(max_examples=150)
@given(data=st.data())
def test_dot_matches_matmul_bit_for_bit(layout, data):
    # nav calls ndarray.dot where it once wrote @: both must reach the same
    # BLAS call, so a numpy that routes them apart fails here by name
    # rather than on a golden digest
    a_shape, b_shape, transposed = DOT_LAYOUTS[layout]
    a = data.draw(hnp.arrays(np.float64, a_shape, elements=any_float))
    b = data.draw(hnp.arrays(np.float64, b_shape, elements=any_float))
    if transposed:
        b = b.T
    with np.errstate(all="ignore"):
        assert a.dot(b).tobytes() == (a @ b).tobytes()


SQUARE6 = hnp.arrays(np.float64, (6, 6), elements=any_float)


def _same_cells(got: np.ndarray, expected: np.ndarray) -> bool:
    """Bytes equal cell by cell, a NaN matching any NaN."""
    return all(
        (math.isnan(g) and math.isnan(e))
        or struct.pack("<d", g) == struct.pack("<d", e)
        for g, e in zip(got.ravel().tolist(), expected.ravel().tolist()))


@settings(max_examples=500)
@given(Q=SQUARE6)
@example(Q=np.full((6, 6), -0.0))
@example(Q=np.full((6, 6), 1e308))
def test_symmetrized_matches_transposed_sum_bit_for_bit(Q):
    # the old in-line form added a transposed operand; the two contiguous
    # operands must give the same cells (a NaN's payload may differ)
    before = Q.tobytes()
    with np.errstate(all="ignore"):
        expected = Q + Q.T
        expected *= 0.5
        got = _symmetrized(Q)
    assert Q.tobytes() == before
    assert got.flags.c_contiguous and not np.shares_memory(got, Q)
    assert _same_cells(got, expected)


@settings(max_examples=500)
@given(P=SQUARE6)
@example(P=np.full((6, 6), math.nan))
@example(P=np.diag(np.full(6, math.inf)))
def test_checked_rejects_exactly_the_non_finite_covariances(P):
    # _checked counts finite cells instead of reducing with .all()
    finite = bool(np.isfinite(P).all())
    try:
        x, P_out = _checked([1.0, 2.0, 7.0, 0.5, -0.5, 0.1], P, "test")
    except EstimatorDivergence:
        assert not finite
    else:
        assert finite
        assert P_out is P
        assert x == [1.0, 2.0, wrap_angle(7.0), 0.5, -0.5, 0.1]


def _correlated_estimate():
    """A heading just short of pi and a dense covariance, so an update
    moves every state and a heading update wraps through pi."""
    rng = np.random.default_rng(53)
    A = rng.normal(size=(6, 6))
    P = 0.01 * (A @ A.T) + 0.01 * np.eye(6)
    return EstimatorState(np.array([3.0, -2.0, 3.13, 1.0, 0.1, 0.2]), P)


def _assert_library_types(state):
    for array, shape in ((state.x, (6,)), (state.P, (6, 6))):
        assert type(array) is np.ndarray
        assert array.dtype == np.float64
        assert array.shape == shape


def test_predict_leaves_its_input_unchanged(params):
    est = _correlated_estimate()
    x_bytes, P_bytes = est.x.tobytes(), est.P.tobytes()
    out = ekf_predict(est, params, EkfParams(), BodyWrench(X=10.0, N=2.0), 0.1)
    assert est.x.tobytes() == x_bytes
    assert est.P.tobytes() == P_bytes
    assert not np.shares_memory(out.x, est.x)
    assert not np.shares_memory(out.P, est.P)
    assert out.x[2] < 0.0  # the heading wrapped through pi
    _assert_library_types(out)


@pytest.mark.parametrize("kind, value, accepted", [
    (COMPASS, [-3.1], True),  # wraps the heading through pi
    (COMPASS, [0.0], False),
    (GYRO, [0.05], True),
    (GYRO, [5.0], False),
    (GPS, [3.2, -2.1], True),
    (GPS, [100.0, 100.0], False),
])
def test_update_leaves_its_input_unchanged(kind, value, accepted):
    est = _correlated_estimate()
    x_bytes, P_bytes = est.x.tobytes(), est.P.tobytes()
    result = ekf_update(est, SensorReading(kind, 0.0, np.array(value)),
                        EkfParams())
    assert result.accepted is accepted
    assert est.x.tobytes() == x_bytes
    assert est.P.tobytes() == P_bytes
    if accepted:
        assert not np.shares_memory(result.state.x, est.x)
        assert not np.shares_memory(result.state.P, est.P)
        assert not np.array_equal(result.state.x, est.x)
    _assert_library_types(result.state)
    assert type(result.innovation) is np.ndarray
    assert result.innovation.shape == (len(value),)


def test_predict_divergence_raises_before_heading_wrap(params):
    # an overflowing state must surface as EstimatorDivergence, not as the
    # ValueError wrap_angle raises on a non-finite heading
    est = EstimatorState(np.array([0.0, 0.0, 0.0, 1e200, 1e200, 1e200]),
                         np.eye(6))
    with np.errstate(all="ignore"), pytest.raises(EstimatorDivergence):
        ekf_predict(est, params, EkfParams(), BodyWrench(), 0.1)


# --- EKF update ------------------------------------------------------------

def test_update_scalar_textbook_case():
    # P=1, H=1, R=1, z=1, xhat=0 -> K=0.5, xhat+=0.5, P+=0.5 (yaw-rate channel)
    P = np.eye(6)
    est = EstimatorState(np.zeros(6), P)
    ekf = EkfParams(gyro_sigma=1.0)
    result = ekf_update(est, SensorReading(GYRO, 0.0, np.array([1.0])), ekf)
    assert result.accepted
    assert result.state.x[5] == pytest.approx(0.5, abs=1e-15)
    assert result.state.P[5, 5] == pytest.approx(0.5, abs=1e-15)
    # untouched channels keep their prior
    assert np.allclose(result.state.x[:5], 0.0)
    assert np.allclose(np.diag(result.state.P)[:5], 1.0)


def _dense_model(kind, ekf):
    """The textbook (H, R) of one sensor kind."""
    states = {GPS: (0, 1), COMPASS: (2,), GYRO: (5,)}[kind]
    sigma = {GPS: ekf.gps_sigma, COMPASS: ekf.compass_sigma,
             GYRO: ekf.gyro_sigma}[kind]
    H = np.zeros((len(states), 6))
    for row, col in enumerate(states):
        H[row, col] = 1.0
    return H, np.eye(len(states)) * sigma ** 2


def test_update_matches_dense_kalman_oracle():
    # oracle: textbook dense-matrix equations written out independently
    rng = np.random.default_rng(31)
    ekf = EkfParams(gate_sigma=1e9)  # gating off for the algebra check
    for kind in (GPS, COMPASS, GYRO):
        for _ in range(25):
            A = rng.normal(size=(6, 6))
            P = A @ A.T + 0.1 * np.eye(6)
            x = rng.normal(size=6) * 0.1
            est = EstimatorState(x.copy(), P.copy())
            z_dim = 2 if kind == GPS else 1
            z = rng.normal(size=z_dim) * 0.1
            result = ekf_update(est, SensorReading(kind, 0.0, z), ekf)

            H, R = _dense_model(kind, ekf)
            y = z - H @ x
            if kind == COMPASS:
                y[0] = wrap_angle(y[0])
            S = H @ P @ H.T + R
            K = P @ H.T @ np.linalg.inv(S)
            x_post = x + K @ y
            x_post[2] = wrap_angle(x_post[2])
            P_post = (np.eye(6) - K @ H) @ P
            P_post = 0.5 * (P_post + P_post.T)

            assert np.max(np.abs(result.state.x - x_post)) < 1e-10
            assert np.max(np.abs(result.state.P - P_post)) < 1e-10
            assert np.max(np.abs(result.innovation - y)) < 1e-12


@settings(max_examples=300)
@given(A=hnp.arrays(np.float64, (6, 6), elements=st.floats(-100.0, 100.0)),
       diag=hnp.arrays(np.float64, (6,), elements=st.floats(1e-3, 100.0)),
       x=hnp.arrays(np.float64, (6,), elements=st.floats(-10.0, 10.0)),
       z=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       sigma=st.floats(0.0, 10.0))
def test_accepted_updates_keep_covariance_exactly_symmetric(A, diag, x, z,
                                                            sigma):
    # the covariance update P - q q^T is symmetric by construction: no
    # update symmetrizes, so each must return the transpose's bytes
    P = _symmetrized(A @ A.T) + np.diag(diag)
    assert P.tobytes() == P.T.copy().tobytes()
    ekf = EkfParams(gps_sigma=sigma, compass_sigma=sigma, gyro_sigma=sigma,
                    gate_sigma=1e9)
    for kind, value in ((GPS, z), (COMPASS, z[:1]), (GYRO, z[:1])):
        result = ekf_update(EstimatorState(x, P),
                            SensorReading(kind, 0.0, np.array(value)), ekf)
        assert result.accepted
        P_post = result.state.P
        assert P_post.tobytes() == P_post.T.copy().tobytes(), kind


def test_scalar_update_matches_dense_form_bit_for_bit():
    # reference: the dense equations with H and R, the gain P H^T S^-1 and
    # the covariance P - (P H^T / sqrt(S)) (P H^T / sqrt(S))^T; with H a unit
    # row every product of H is one cell times 1, and every cell of the outer
    # product is one product, so the compass / gyro updates match to the bit
    rng = np.random.default_rng(43)
    ekf = EkfParams(gate_sigma=1e9)
    for kind in (COMPASS, GYRO):
        for _ in range(100):
            A = rng.normal(size=(6, 6))
            P = A @ A.T * rng.uniform(1e-4, 1.0) + 1e-3 * np.eye(6)
            x = rng.normal(size=6)
            x[2] = wrap_angle(x[2])
            z = np.array([rng.normal()])
            result = ekf_update(EstimatorState(x.copy(), P.copy()),
                                SensorReading(kind, 0.0, z), ekf)

            H, R = _dense_model(kind, ekf)
            y = z - H @ x
            if kind == COMPASS:
                y[0] = wrap_angle(y[0])
            S = (H @ P @ H.T + R)[0, 0]
            PHt = P @ H.T
            x_post = x + (PHt / S) @ y
            x_post[2] = wrap_angle(x_post[2])
            q = PHt / math.sqrt(S)
            P_post = P - q @ q.T

            assert result.accepted
            assert np.array_equal(result.innovation, y)
            assert result.state.x.tobytes() == x_post.tobytes()
            assert result.state.P.tobytes() == P_post.tobytes()


def test_gps_update_matches_two_scalar_readings():
    # GPS observes x and y with independent noise, so its update is the x
    # reading followed by the y reading; the y variance it uses, det / s00,
    # is P[1, 1] + sigma^2 after the x reading
    rng = np.random.default_rng(47)
    ekf = EkfParams(gate_sigma=1e9)
    r = ekf.gps_sigma ** 2
    for _ in range(100):
        A = rng.normal(size=(6, 6))
        P = A @ A.T + 0.1 * np.eye(6)
        x = rng.normal(size=6)
        z = rng.normal(size=2)
        result = ekf_update(EstimatorState(x, P),
                            SensorReading(GPS, 0.0, z), ekf)

        ref_x, ref_P = x.copy(), P.copy()
        for i in (0, 1):
            S = ref_P[i, i] + r
            p = ref_P[:, i].copy()
            ref_x = ref_x + p * ((z[i] - ref_x[i]) / S)
            ref_P = ref_P - np.outer(p, p) / S
        ref_x[2] = wrap_angle(ref_x[2])

        assert result.accepted
        assert np.array_equal(result.innovation, z - x[:2])
        assert np.allclose(result.state.x, ref_x, rtol=1e-12, atol=1e-12)
        assert np.allclose(result.state.P, ref_P, rtol=1e-12, atol=1e-12)


def test_update_scales_the_gain_column_before_its_outer_product():
    # p p^T overflows here (p[5]^2 = 1e600) where q q^T, q = p / sqrt(S),
    # does not: the update must stay finite and carry the right variances
    P = np.eye(6)
    P[4, 4] = P[5, 5] = 1e300
    P[4, 5] = P[5, 4] = 1e299
    result = ekf_update(EstimatorState(np.zeros(6), P),
                        SensorReading(GYRO, 0.0, np.array([0.0])),
                        EkfParams(gyro_sigma=1.0))
    assert result.accepted
    P_post = result.state.P
    assert np.count_nonzero(np.isfinite(P_post)) == P_post.size
    # P[4, 4] - P[4, 5]^2 / S with S = 1e300 + 1
    assert P_post[4, 4] == pytest.approx(0.99e300, rel=1e-12)
    # the true 1.0 is lost to cancellation at the prior's scale, not to
    # overflow: what is left is a few ulps of 1e300
    assert abs(P_post[5, 5]) <= 4 * math.ulp(1e300)
    assert P_post.tobytes() == P_post.T.copy().tobytes()


@pytest.mark.parametrize("kind, value", [
    (COMPASS, [-3.1]),
    (GYRO, [0.05]),
    (GPS, [3.2, -2.1]),
])
def test_ekf_update_is_the_run_loop_update_bit_for_bit(kind, value):
    # the run loop updates through _update on the mean as six floats and the
    # raw value (a float for compass and gyro); ekf_update wraps it for
    # readings: the same estimate
    est = _correlated_estimate()
    ekf = EkfParams()
    result = ekf_update(est, SensorReading(kind, 0.0, np.array(value)), ekf)
    raw = value[0] if kind != GPS else np.array(value)
    x, P, innovation, accepted = _update(est.x.tolist(), est.P, kind, raw,
                                         ekf)
    assert accepted and result.accepted
    assert type(x) is list and all(type(v) is float for v in x)
    assert type(innovation) is (np.ndarray if kind == GPS else float)
    assert np.asarray(innovation, dtype=float).tobytes() == \
        result.innovation.tobytes()
    assert np.array(x).tobytes() == result.state.x.tobytes()
    assert P.tobytes() == result.state.P.tobytes()


def test_sample_sensors_returns_floats_and_a_gps_pair():
    cfg = SensorConfig()
    readings = sample_sensors(VehicleState3DOF(x=1.0, y=2.0, psi=0.5, r=0.1),
                              0, cfg.periods(0.01), cfg, SeededRng(5))
    kinds = {kind: value for kind, value in readings}
    assert sorted(kinds) == sorted((GPS, COMPASS, GYRO))
    assert type(kinds[COMPASS]) is float
    assert type(kinds[GYRO]) is float
    assert type(kinds[GPS]) is np.ndarray
    assert kinds[GPS].shape == (2,) and kinds[GPS].dtype == np.float64


@pytest.mark.parametrize("kind", [COMPASS, GYRO])
@pytest.mark.parametrize("p_ii, sigma, z", [
    (0.0, 0.0, 0.1),  # zero innovation variance
    (-1.0, 0.5, 0.0),  # negative variance, even with a zero innovation
    (math.nan, 0.5, 0.1),
    (math.inf, 0.5, 0.1),
    (1.0, 0.5, math.nan),  # non-finite reading
])
def test_scalar_update_bad_statistics_raise_singular(kind, p_ii, sigma, z):
    i = 2 if kind == COMPASS else 5
    P = np.eye(6)
    P[i, i] = p_ii
    ekf = EkfParams(compass_sigma=sigma, gyro_sigma=sigma)
    with pytest.raises(SingularCovariance):
        ekf_update(EstimatorState(np.zeros(6), P),
                   SensorReading(kind, 0.0, np.array([z])), ekf)


@pytest.mark.parametrize("p_ii, sigma, z", [
    (0.0, 0.0, 0.1),  # zero innovation covariance
    (-1.0, 0.5, 0.0),  # negative variances, even with a zero innovation
    (math.nan, 0.5, 0.1),
    (math.inf, 0.5, 0.1),
    (1.0, 0.5, math.nan),  # non-finite reading
])
def test_gps_update_bad_statistics_raise_singular(p_ii, sigma, z):
    P = np.eye(6)
    P[0, 0] = P[1, 1] = p_ii
    with pytest.raises(SingularCovariance):
        ekf_update(EstimatorState(np.zeros(6), P),
                   SensorReading(GPS, 0.0, np.array([z, z])),
                   EkfParams(gps_sigma=sigma))


def test_gyro_update_overflowing_distance_raises_singular():
    est = EstimatorState(np.zeros(6), np.eye(6))
    with pytest.raises(SingularCovariance):
        ekf_update(est, SensorReading(GYRO, 0.0, np.array([1e300])),
                   EkfParams(gyro_sigma=1.0))


def test_update_divergence_raises_before_heading_wrap():
    # finite inputs whose gain times innovation overflows the heading
    P = np.eye(6)
    P[2, 5] = P[5, 2] = 1e308
    est = EstimatorState(np.zeros(6), P)
    with np.errstate(all="ignore"), pytest.raises(EstimatorDivergence):
        ekf_update(est, SensorReading(GYRO, 0.0, np.array([4.0])),
                   EkfParams(gyro_sigma=1.0))


def test_update_overflow_under_raise_is_divergence():
    # P - q q^T with q = P[:, 2] / sqrt(S): the 1e200 column squares past
    # the float range, which numpy raises when the run loop steps
    P = np.eye(6)
    P[0, 2] = P[2, 0] = 1e200
    with np.errstate(over="raise"), pytest.raises(
            EstimatorDivergence,
            match="non-finite estimate after compass update"):
        _update([0.0] * 6, P, COMPASS, 0.0, EkfParams())


def test_update_never_inflates_covariance():
    rng = np.random.default_rng(37)
    ekf = EkfParams()
    est = initial_estimate(VehicleState3DOF())
    for _ in range(50):
        z = rng.normal(size=2) * 0.5
        result = ekf_update(est, SensorReading(GPS, 0.0, z), ekf)
        if result.accepted:
            # updates cannot increase any diagonal variance
            assert np.all(np.diag(result.state.P) <= np.diag(est.P) + 1e-12)
            est = result.state


def test_compass_innovation_wraps():
    est = EstimatorState(np.array([0, 0, 3.1, 0, 0, 0.0]), np.eye(6) * 0.1)
    ekf = EkfParams(gate_sigma=1e9)
    result = ekf_update(est, SensorReading(COMPASS, 0.0, np.array([-3.1])), ekf)
    # -3.1 is 0.083 rad ahead of +3.1 the short way around
    assert result.innovation[0] == pytest.approx(2 * math.pi - 6.2, abs=1e-12)
    assert result.state.x[2] > 3.1 or result.state.x[2] < -3.0  # moved through pi


def test_innovation_gate_rejects_outlier():
    est = EstimatorState(np.zeros(6), np.eye(6) * 0.01)
    ekf = EkfParams(gps_sigma=1.0, gate_sigma=5.0)
    bad = SensorReading(GPS, 0.0, np.array([100.0, 100.0]))
    result = ekf_update(est, bad, ekf)
    assert not result.accepted
    assert np.array_equal(result.state.x, est.x)
    assert np.array_equal(result.state.P, est.P)
    # a consistent reading is accepted
    good = SensorReading(GPS, 0.0, np.array([0.5, -0.5]))
    assert ekf_update(est, good, ekf).accepted


def test_singular_innovation_covariance_raises():
    est = EstimatorState(np.zeros(6), np.zeros((6, 6)))
    ekf = EkfParams(gyro_sigma=0.0)
    with pytest.raises(SingularCovariance):
        ekf_update(est, SensorReading(GYRO, 0.0, np.array([0.1])), ekf)


def test_filter_is_consistent_on_static_vehicle(params):
    # end-to-end sanity: on a motionless vehicle the estimate lands within
    # the filter's own 3-sigma bounds, and the covariance stays bounded
    truth = VehicleState3DOF(x=3.0, y=-1.0, psi=0.4)
    cfg = SensorConfig()
    ekf = EkfParams()
    dt = 0.01
    periods = cfg.periods(dt)
    for seed in (7, 99, 123):
        rng = SeededRng(seed)
        start = initial_estimate(VehicleState3DOF())  # start wrong
        x, P = start.x.tolist(), start.P
        q = ekf.q_discrete(dt)
        for step in range(2000):
            x, P = _predict(x, P, params, BodyWrench(), dt, q)
            for kind, value in sample_sensors(truth, step, periods, cfg, rng):
                x, P = _update(x, P, kind, value, ekf)[:2]
        est = EstimatorState(np.array(x), P)
        assert abs(est.x[0] - 3.0) < 3 * math.sqrt(est.P[0, 0])
        assert abs(est.x[1] + 1.0) < 3 * math.sqrt(est.P[1, 1])
        assert abs(wrap_angle(est.x[2] - 0.4)) < 3 * math.sqrt(est.P[2, 2])
        assert math.sqrt(est.P[0, 0]) < 2.0  # position sigma stays bounded
        assert math.sqrt(est.P[2, 2]) < 0.01  # heading is well observed


# --- the GPS gate and the GPS fault edges ---------------------------------

def test_gps_gate_distance_is_the_dense_mahalanobis_form():
    # _update's closed-form d^2 against y^T S^-1 y on random positive
    # definite S: a gate a relative 1e-9 past d accepts the reading, one
    # as far short of it rejects it and leaves x and P as they were
    gen = np.random.default_rng(13)
    ekf = EkfParams()
    for _ in range(200):
        A = gen.normal(size=(6, 6))
        P = A @ A.T + 0.1 * np.eye(6)
        x = gen.normal(size=6).tolist()
        z = np.array(x[:2]) + gen.normal(scale=3.0, size=2)
        y = z - x[:2]
        S = P[:2, :2] + ekf.gps_sigma ** 2 * np.eye(2)
        d2 = float(y @ np.linalg.solve(S, y))
        inside = dataclasses.replace(ekf, gate_sigma=math.sqrt(d2 * (1 + 1e-9)))
        past = dataclasses.replace(ekf, gate_sigma=math.sqrt(d2 * (1 - 1e-9)))
        assert _update(list(x), P.copy(), GPS, z, inside)[3]
        x_out, P_out, _, accepted = _update(list(x), P.copy(), GPS, z, past)
        assert not accepted
        assert x_out == x and np.array_equal(P_out, P)


@pytest.mark.parametrize("edit, message", [
    # s00 * s11 overflows: an infinite determinant
    ({(0, 0): 1e200, (1, 1): 1e200}, "singular"),
    # s00 = 0 with det = -s01 * s10 = 1 > 0 (an asymmetric P)
    ({(0, 0): -EkfParams().gps_sigma ** 2, (0, 1): 1.0, (1, 0): -1.0},
     "not positive definite"),
])
def test_gps_update_faults_on_a_degenerate_innovation_covariance(edit, message):
    P = np.eye(6)
    for at, value in edit.items():
        P[at] = value
    with pytest.raises(SingularCovariance) as fault:
        _update([0.0] * 6, P, GPS, np.array([1.0, 1.0]), EkfParams())
    assert type(fault.value) is SingularCovariance
    assert str(fault.value) == f"innovation covariance {message} for gps"


def test_gps_update_faults_on_an_infinite_distance():
    # a finite determinant, but y0 * (i00 * y0) overflows: d^2 is inf
    with pytest.raises(SingularCovariance) as fault:
        _update([0.0] * 6, np.eye(6), GPS, np.array([1e200, 0.0]), EkfParams())
    assert type(fault.value) is SingularCovariance
    assert str(fault.value) == (
        "innovation covariance not positive definite for gps")
