"""Simulated sensors and the extended Kalman filter for the surface vehicle.

The filter estimates the full 6-state (x, y, psi, u, v, r). Prediction runs
one RK4 step of the rigid-body model under the realized control wrench, with
the covariance propagated through the analytic Jacobian of that discrete map,
chain-ruled through the same four RK4 stages the mean was computed from. Only
12 cells of the continuous Jacobian depend on the state: each stage's
Jacobian is a zero template filled from those cells, and the chain rule's
matrix products are the dense ones, on the same operands.

BLAS serves the prediction only (its F P F^T and stage chain), through
`ndarray.dot`: the same call and bytes as `@` with less dispatch. Its kernel
is the one host dependence of the bytes; scalars and 2-vectors are float
arithmetic. The mean is checked and its heading wrapped as a list of floats;
each predicted covariance is symmetrized from a transposed copy, so the add
reads two contiguous arrays.

Updates are sequential per reading (GPS position, compass heading, gyro yaw
rate) with Mahalanobis gating; heading innovations are wrapped. `_observe`
applies an accepted reading one observed state i at a time (Bierman's
sequential processing): with p = P[:, i] and S = P[i, i] + sigma^2, the mean
moves by (p / S) y and the covariance becomes P - q q^T, q = p / sqrt(S).
Each cell of q q^T is one product of two floats, the same at (r, c) and
(c, r), so a symmetric P stays exactly symmetric. GPS gates on its
closed-form 2x2 innovation covariance, then observes x and then y (their
noise is independent). Every update and prediction checks that the estimate
is finite before wrapping its heading, and maps a numpy overflow (under a
raising np.errstate) to the same EstimatorDivergence a diverging filter raises.

The run loop keeps the mean x as six floats and P as an ndarray: `_predict`
returns (x, P), `_update` (x, P, innovation, accepted) for each (kind, value)
from `sample_sensors`. A compass or gyro value and its innovation are floats,
a GPS value and its innovation (2,) arrays. `ekf_predict` and `ekf_update`
wrap the two with the public types: EstimatorState, SensorReading and
UpdateResult with ndarray values. Sensor noise is read one standard normal
at a time through `SeededRng.normal`, which draws each stream in blocks with
the bytes of one scalar draw after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asv import AsvParams, BodyWrench, VehicleState3DOF, rk4_stages
from .core import SeededRng, SimulationFault, cos_sin, wrap_angle

# sensor stream ids under the run's master seed
STREAM_GPS = 1
STREAM_COMPASS = 2
STREAM_GYRO = 3

GPS = "gps"
COMPASS = "compass"
GYRO = "gyro"

# initial estimate: 1-sigma uncertainty of position [m], heading [rad] and
# each velocity (u, v [m/s], r [rad/s])
INIT_POS_SIGMA = 2.0
INIT_PSI_SIGMA = 0.1
INIT_VEL_SIGMA = 0.5


class EstimatorDivergence(SimulationFault, RuntimeError):
    """Estimator state or covariance stopped being finite."""


class SingularCovariance(SimulationFault, RuntimeError):
    """Innovation covariance is numerically singular."""


@dataclass
class SensorConfig:
    gps_rate: float = 1.0  # [Hz]
    gps_sigma: float = 1.25  # per-axis position noise [m]
    compass_rate: float = 10.0  # [Hz]
    compass_sigma: float = 0.02  # heading noise [rad]
    gyro_rate: float = 100.0  # [Hz]
    gyro_sigma: float = 0.005  # yaw-rate noise [rad/s]

    def period_steps(self, rate: float, dt: float) -> int:
        """Steps between samples; the rate must divide the sim rate 1/dt."""
        steps = 1.0 / (rate * dt)
        n = round(steps)
        if n < 1 or abs(steps - n) > 1e-9:
            raise ValueError(
                f"sensor rate {rate} Hz does not divide the sim rate {1.0 / dt:g} Hz")
        return n

    def periods(self, dt: float) -> tuple[int, int, int]:
        """(gps, compass, gyro) steps between samples; see period_steps."""
        return (self.period_steps(self.gps_rate, dt),
                self.period_steps(self.compass_rate, dt),
                self.period_steps(self.gyro_rate, dt))


class SensorReading(NamedTuple):
    kind: str  # gps / compass / gyro
    t: float  # sample time [s]
    value: np.ndarray


def sample_sensors(truth: VehicleState3DOF, step: int,
                   periods: tuple[int, int, int], cfg: SensorConfig,
                   rng: SeededRng) -> list[tuple]:
    """Noisy readings due at this step (step 0 samples everything) as
    (kind, value): the value a float for compass and gyro, a (2,) array for
    GPS. periods is cfg.periods(dt)."""
    gps_period, compass_period, gyro_period = periods
    out = []
    if step % gps_period == 0:
        # the stream's first draw goes to x, the second to y
        sigma = cfg.gps_sigma
        east = truth.x + sigma * rng.normal(STREAM_GPS)
        out.append((GPS, np.array([east,
                                   truth.y + sigma * rng.normal(STREAM_GPS)])))
    if step % compass_period == 0:
        out.append((COMPASS, wrap_angle(
            truth.psi + cfg.compass_sigma * rng.normal(STREAM_COMPASS))))
    if step % gyro_period == 0:
        out.append((GYRO,
                    truth.r + cfg.gyro_sigma * rng.normal(STREAM_GYRO)))
    return out


@dataclass
class EkfParams:
    # continuous process-noise PSD per state, discretized as diag(q) * dt
    q_psd: tuple = (1e-4, 1e-4, 1e-5, 0.2, 0.2, 0.05)
    gps_sigma: float = 1.25  # assumed measurement noise [m]
    compass_sigma: float = 0.02  # [rad]
    gyro_sigma: float = 0.005  # [rad/s]
    gate_sigma: float = 5.0  # Mahalanobis rejection bound [sigma]

    def q_discrete(self, dt: float) -> np.ndarray:
        return np.diag(np.asarray(self.q_psd, dtype=float)) * dt


@dataclass
class EstimatorState:
    x: np.ndarray  # (6,) mean: x, y, psi, u, v, r
    P: np.ndarray  # (6, 6) covariance


def initial_estimate(state: VehicleState3DOF) -> EstimatorState:
    """The true state as the mean, with the INIT_*_SIGMA uncertainties."""
    P0 = np.diag([INIT_POS_SIGMA ** 2, INIT_POS_SIGMA ** 2, INIT_PSI_SIGMA ** 2,
                  INIT_VEL_SIGMA ** 2, INIT_VEL_SIGMA ** 2, INIT_VEL_SIGMA ** 2])
    return EstimatorState(state.as_array(), P0)


# the cells of the continuous Jacobian d(state derivative)/d(state) that
# depend on the state, (row, column) in the order _jacobian_cells lists them;
# the one constant nonzero cell, d(psidot)/dr = 1, sits in the template
_CELLS = ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
          (3, 4), (3, 5), (4, 3), (4, 5), (5, 3), (5, 4))
# their flat indices into a stack of four 6x6 Jacobians, one per RK4 stage
_STAGE_CELL_FLAT = np.array([36 * k + 6 * row + col
                             for k in range(4) for row, col in _CELLS])
_STAGE_TEMPLATE = np.zeros((4, 6, 6))
_STAGE_TEMPLATE[:, 2, 5] = 1.0
_STAGE_TEMPLATE.flags.writeable = False
# the 6x6 identity, read-only: copy it before writing into it
_I6 = np.eye(6)
_I6.flags.writeable = False


def _jacobian_cells(x, params: AsvParams) -> tuple:
    """The 12 state-dependent cells of the continuous Jacobian at x, in
    _CELLS order."""
    psi, u, v, r = x[2], x[3], x[4], x[5]
    c, s = cos_sin(psi)
    m11, m22, m33 = params.m11, params.m22, params.m33
    return (-u * s - v * c, c, -s,
            u * c - v * s, s, c,
            (m33 - m22) * r / m11, (m33 - m22) * v / m11,
            (m11 - m33) * r / m22, (m11 - m33) * u / m22,
            (m22 - m11) * v / m33, (m22 - m11) * u / m33)


def _stage_jacobian(stages, params: AsvParams, dt: float) -> np.ndarray:
    """Jacobian of the RK4 map, chain-ruled through its four stage states."""
    x1, x2, x3, x4 = stages
    J = _STAGE_TEMPLATE.copy()
    J.put(_STAGE_CELL_FLAT, _jacobian_cells(x1, params)
          + _jacobian_cells(x2, params) + _jacobian_cells(x3, params)
          + _jacobian_cells(x4, params))
    K1 = J[0]
    K2 = J[1].dot(_I6 + 0.5 * dt * K1)
    K3 = J[2].dot(_I6 + 0.5 * dt * K2)
    K4 = J[3].dot(_I6 + dt * K3)
    return _I6 + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def predict_mean(x: np.ndarray, params: AsvParams, wrench: BodyWrench,
                 dt: float) -> np.ndarray:
    """The discrete mean map: one RK4 step of the vehicle model."""
    x_next, _ = rk4_stages(np.asarray(x, dtype=float).tolist(), params,
                           wrench, dt)
    return np.array(x_next)


def discrete_jacobian(x: np.ndarray, params: AsvParams, wrench: BodyWrench,
                      dt: float) -> np.ndarray:
    """Analytic Jacobian of predict_mean, chain-ruled through the RK4 stages."""
    _, stages = rk4_stages(np.asarray(x, dtype=float).tolist(), params,
                           wrench, dt)
    return _stage_jacobian(stages, params, dt)


def _symmetrized(Q: np.ndarray) -> np.ndarray:
    """0.5 * (Q + Q.T) as a new array, from two contiguous operands: each
    cell is the same sum Q[j, i] + Q[i, j] halved, and a sum of two floats
    does not depend on their order (a sum of two NaNs is NaN either way)."""
    P = Q.T.copy()
    P += Q
    P *= 0.5
    return P


def _checked(x: list, P: np.ndarray, what: str) -> tuple[list, np.ndarray]:
    """(x, P) once both are finite, the heading of the mean x (six floats)
    wrapped in place."""
    # counting the finite cells is np.isfinite(P).all() without its
    # reduction's dispatch
    if not (all(map(math.isfinite, x))
            and np.count_nonzero(np.isfinite(P)) == P.size):
        raise EstimatorDivergence(f"non-finite estimate after {what}")
    x[2] = wrap_angle(x[2])
    return x, P


def _predict(x, P: np.ndarray, params: AsvParams, wrench: BodyWrench,
             dt: float, q: np.ndarray) -> tuple[list, np.ndarray]:
    """ekf_predict of the mean x (six floats) and covariance P as (x, P)."""
    x_next, stages = rk4_stages(x, params, wrench, dt)
    try:
        F = _stage_jacobian(stages, params, dt)
        Q = F.dot(P).dot(F.T)
        Q += q
        P = _symmetrized(Q)
    except FloatingPointError:  # numpy errors set to raise: an overflow
        raise EstimatorDivergence("non-finite estimate after prediction") from None
    return _checked(x_next, P, "prediction")


def ekf_predict(est: EstimatorState, params: AsvParams, ekf: EkfParams,
                wrench: BodyWrench, dt: float) -> EstimatorState:
    """Propagate the estimate one step under the process noise
    ekf.q_discrete(dt)."""
    x, P = _predict(est.x.tolist(), est.P, params, wrench, dt,
                    ekf.q_discrete(dt))
    return EstimatorState(np.array(x), P)


class UpdateResult(NamedTuple):
    state: EstimatorState
    innovation: np.ndarray
    accepted: bool


def ekf_update(est: EstimatorState, reading: SensorReading,
               ekf: EkfParams) -> UpdateResult:
    """Sequential Kalman update for one reading, with Mahalanobis gating.

    A reading whose innovation Mahalanobis distance exceeds gate_sigma is
    rejected: the state is returned unchanged and accepted=False so the
    caller can log the rejection.
    """
    kind, value = reading.kind, reading.value
    scalar = kind == COMPASS or kind == GYRO
    x, P, y, accepted = _update(est.x.tolist(), est.P, kind,
                                float(value[0]) if scalar else value, ekf)
    return UpdateResult(EstimatorState(np.array(x), P) if accepted else est,
                        np.array([y]) if scalar else y, accepted)


def _update(x: list, P: np.ndarray, kind: str, z,
            ekf: EkfParams) -> tuple[list, np.ndarray, object, bool]:
    """ekf_update of a reading's value z on the mean x (six floats) and P as
    (x, P, innovation, accepted), a rejected reading's x and P unchanged: z
    and the innovation are floats for compass and gyro, arrays for GPS.

    Compass and gyro observe the single state i (H = e_i, R = sigma^2), so
    S = P[i, i] + sigma^2. GPS (H = [I2 0], R = sigma^2 I2) gates on the
    inverse of its 2x2 S in closed form and logs the prior innovation.
    """
    try:
        if kind == GPS:
            r = ekf.gps_sigma ** 2
            (s00, s01), (s10, s11) = P[0:2, 0:2].tolist()
            s00, s11 = s00 + r, s11 + r
            det = s00 * s11 - s01 * s10
            if not 0.0 < det < math.inf:
                raise SingularCovariance(f"innovation covariance singular for {kind}")
            i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det
            y0, y1 = float(z[0]) - x[0], float(z[1]) - x[1]
            d2 = y0 * (i00 * y0 + i01 * y1) + y1 * (i10 * y0 + i11 * y1)
            if not (0.0 <= d2 < math.inf and s00 > 0.0):
                raise SingularCovariance(f"innovation covariance not positive definite for {kind}")
            y = np.array((y0, y1))
            if d2 > ekf.gate_sigma ** 2:
                return x, P, y, False
            x, P = _observe(x, P, 0, y0, s00)
            # the y variance given the x reading, P+[1, 1] + sigma^2, as det / s00:
            # positive, since a finite d2 needs a finite i11 = s00 / det
            x, P = _observe(x, P, 1, float(z[1]) - x[1], det / s00)
        else:
            i, sigma = ((2, ekf.compass_sigma) if kind == COMPASS
                        else (5, ekf.gyro_sigma))
            S = P.item(i, i) + sigma ** 2
            if not 0.0 < S < math.inf:
                raise SingularCovariance(f"innovation covariance not positive definite for {kind}")
            y = z - x[i]
            if kind == COMPASS and math.isfinite(y):  # a non-finite y fails on d2
                y = wrap_angle(y)
            d2 = y * (y / S)
            if not math.isfinite(d2):
                raise SingularCovariance(f"non-finite innovation distance for {kind}")
            if d2 > ekf.gate_sigma ** 2:
                return x, P, y, False
            x, P = _observe(x, P, i, y, S)
        return (*_checked(x, P, f"{kind} update"), y, True)
    except FloatingPointError:  # numpy errors set to raise: an overflow
        raise EstimatorDivergence(
            f"non-finite estimate after {kind} update") from None


def _observe(x: list, P: np.ndarray, i: int, y: float,
             S: float) -> tuple[list, np.ndarray]:
    """Mean and covariance after a reading of state i with innovation y and
    innovation variance S (positive and finite): x + (p / S) y and
    P - q q^T, p = P[:, i], q = p / sqrt(S). Scaling p before the product,
    not p p^T after it, keeps a p^2 beyond the float range from overflowing
    where p^2 / S would not."""
    p = P[:, i]
    q = p / math.sqrt(S)
    return [a + b / S * y for a, b in zip(x, p.tolist())], P - q[:, None] * q
