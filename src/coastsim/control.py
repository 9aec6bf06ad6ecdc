"""PID regulators, waypoint guidance and station keeping.

Two independent scalar PID loops drive the surface vehicle: heading error to
yaw-moment command and speed error to surge-force command. Waypoint guidance
turns a setpoint plus the current state estimate into those two errors.
Station keeping holds a loiter point: it turns the estimate into a heading
error plus a surge force, which bypasses the speed loop.
Both run on floats and math (hypot, atan2), not numpy's SIMD-dispatched ufuncs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import clamp, rotate_body_to_nav, successor, wrap_angle

INF = float("inf")


@dataclass(frozen=True)
class PidController:
    """Discrete PID with trapezoidal integral and derivative on error.

    Pure value type: pid_step returns the updated controller, a successor
    with only the integral and prev_error changed. prev_error is
    None until the first step, which therefore uses a zero derivative (the
    integral treats the missing sample as zero).
    """

    kp: float
    ki: float = 0.0
    kd: float = 0.0
    output_limits: tuple[float, float] = (-INF, INF)
    integral_limits: tuple[float, float] = (-INF, INF)
    integral: float = 0.0
    prev_error: Optional[float] = None

    def __post_init__(self):
        if self.output_limits[0] > self.output_limits[1]:
            raise ValueError(f"output_limits reversed: {self.output_limits}")
        if self.integral_limits[0] > self.integral_limits[1]:
            raise ValueError(f"integral_limits reversed: {self.integral_limits}")


def pid_step(ctrl: PidController, error: float, dt: float) -> tuple[float, PidController]:
    """One controller update; returns (output, updated controller)."""
    if dt <= 0.0:
        raise ValueError(f"pid dt must be positive, got {dt}")
    prev = ctrl.prev_error if ctrl.prev_error is not None else 0.0
    integral = ctrl.integral + 0.5 * (error + prev) * dt
    integral = clamp(integral, *ctrl.integral_limits)  # anti-windup
    deriv = 0.0 if ctrl.prev_error is None else (error - ctrl.prev_error) / dt
    out = ctrl.kp * error + ctrl.ki * integral + ctrl.kd * deriv
    out = clamp(out, *ctrl.output_limits)
    return out, successor(ctrl, integral=integral, prev_error=error)


WAYPOINT = "waypoint"
LOITER = "loiter"
_MODES = (WAYPOINT, LOITER)


@dataclass(frozen=True)
class GuidanceSetpoint:
    mode: str  # waypoint, or loiter (held by station_keeping)
    target: np.ndarray  # (2,) nav-frame point [m]
    cruise_speed: float = 2.0  # [m/s]
    arrival_radius: float = 2.0  # waypoint capture radius [m]

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}")
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        if self.cruise_speed < 0.0:
            raise ValueError("cruise_speed must be non-negative")


def guidance_step(setpoint: GuidanceSetpoint, est_pose: np.ndarray
                  ) -> tuple[float, float, bool]:
    """Compute (heading_error, speed_cmd, arrived) from the estimated pose.

    est_pose is (x, y, psi) from the estimator. Steers the bearing to the
    target at cruise speed until inside the arrival radius. A loiter point
    is held by station_keeping instead.
    """
    target = setpoint.target
    dx = float(target[0]) - float(est_pose[0])
    dy = float(target[1]) - float(est_pose[1])
    if math.hypot(dx, dy) <= setpoint.arrival_radius:
        return 0.0, 0.0, True
    return (wrap_angle(math.atan2(dy, dx) - float(est_pose[2])),
            setpoint.cruise_speed, False)


# station-keeping force law (nav frame): the integral term ends up carrying
# the mean wind load, so the commanded force vector -- and with it the bow --
# points steadily upwind instead of flipping each time the estimate crosses
# the loiter point; the stiffness/integral pair is sized to absorb a
# 10 s-correlated gust before it can push the hull a boat length off station
DP_KP = 18.0  # [N/m]
DP_KD = 50.0  # [N s/m]
DP_KI = 1.5  # [N/(m s)]
DP_INTEGRAL_MAX = 50.0  # [N] per axis


def station_keeping(point: tuple[float, float], est,
                    integral: tuple[float, float], dt: float
                    ) -> tuple[float, float, tuple[float, float]]:
    """Hold a point with a position PID over nav-frame force.

    point is the (x, y) loiter point, est the estimated VehicleState3DOF and
    integral the per-axis integral term [N] of the previous call ((0, 0) for
    a new point). Returns (heading_error, surge force [N], updated
    integral). The bow turns toward the commanded force, or away from it
    when the force points astern, and only the force component along the
    hull is commanded.
    """
    err_x = point[0] - est.x
    err_y = point[1] - est.y
    v_x, v_y = rotate_body_to_nav((est.u, est.v), est.psi)
    hi = DP_INTEGRAL_MAX
    int_x = clamp(integral[0] + DP_KI * err_x * dt, -hi, hi)
    int_y = clamp(integral[1] + DP_KI * err_y * dt, -hi, hi)
    force_x = DP_KP * err_x - DP_KD * v_x + int_x
    force_y = DP_KP * err_y - DP_KD * v_y + int_y
    magnitude = math.hypot(force_x, force_y)
    if magnitude < 1e-9:
        return 0.0, 0.0, (int_x, int_y)
    desired = math.atan2(force_y, force_x)
    heading_error = wrap_angle(desired - est.psi)
    surge = magnitude
    if abs(heading_error) > 0.5 * math.pi:
        # push stern-first rather than turning all the way around
        heading_error = wrap_angle(heading_error + math.pi)
        surge = -magnitude
    surge *= math.cos(heading_error)  # only the aligned component helps
    return heading_error, surge, (int_x, int_y)
