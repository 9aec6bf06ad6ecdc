"""PID regulators and waypoint/loiter guidance.

Two independent scalar PID loops drive the surface vehicle: heading error to
yaw-moment command and speed error to surge-force command. Guidance turns a
setpoint plus the current state estimate into those two errors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import wrap_angle

INF = float("inf")


@dataclass(frozen=True)
class PidController:
    """Discrete PID with trapezoidal integral and derivative on error.

    Pure value type: pid_step returns the updated controller. prev_error is
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
    lo, hi = ctrl.integral_limits
    integral = min(max(integral, lo), hi)  # anti-windup clamp
    deriv = 0.0 if ctrl.prev_error is None else (error - ctrl.prev_error) / dt
    out = ctrl.kp * error + ctrl.ki * integral + ctrl.kd * deriv
    lo, hi = ctrl.output_limits
    out = min(max(out, lo), hi)
    return out, PidController(ctrl.kp, ctrl.ki, ctrl.kd, ctrl.output_limits,
                              ctrl.integral_limits, integral, error)


def pid_reset(ctrl: PidController) -> PidController:
    return dataclasses.replace(ctrl, integral=0.0, prev_error=None)


WAYPOINT = "waypoint"
LOITER = "loiter"
PATH_FOLLOW = "path-follow"
_MODES = (WAYPOINT, LOITER, PATH_FOLLOW)


@dataclass(frozen=True)
class GuidanceSetpoint:
    mode: str  # one of waypoint / loiter / path-follow
    target: np.ndarray  # (2,) nav-frame point [m]
    cruise_speed: float = 2.0  # [m/s]
    arrival_radius: float = 2.0  # waypoint capture radius [m]
    dead_band: float = 1.0  # loiter: no command inside this radius [m]
    approach_gain: float = 0.5  # loiter: speed per metre of offset [1/s]

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}")
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        if self.cruise_speed < 0.0:
            raise ValueError("cruise_speed must be non-negative")


def guidance_step(setpoint: GuidanceSetpoint, est_pose: np.ndarray
                  ) -> tuple[float, float, bool]:
    """Compute (heading_error, speed_cmd, arrived) from the estimated pose.

    est_pose is (x, y, psi) from the estimator. Waypoint (and path-follow leg)
    mode steers the bearing to the target at cruise speed until inside the
    arrival radius. Loiter mode commands motion toward the point scaled by
    distance outside the dead band; when the point is behind the vehicle it
    backs up instead of turning around, which keeps station-keeping tight.
    """
    x, y, psi = float(est_pose[0]), float(est_pose[1]), float(est_pose[2])
    offset = setpoint.target - np.array([x, y])
    dist = float(np.hypot(offset[0], offset[1]))
    if setpoint.mode in (WAYPOINT, PATH_FOLLOW):
        arrived = dist <= setpoint.arrival_radius
        if arrived:
            return 0.0, 0.0, True
        bearing = float(np.arctan2(offset[1], offset[0]))
        return wrap_angle(bearing - psi), setpoint.cruise_speed, False

    # loiter
    arrived = dist <= setpoint.arrival_radius
    if dist <= setpoint.dead_band:
        return 0.0, 0.0, arrived
    bearing = float(np.arctan2(offset[1], offset[0]))
    heading_error = wrap_angle(bearing - psi)
    speed_cmd = min(setpoint.cruise_speed, setpoint.approach_gain * dist)
    if abs(heading_error) > 0.5 * np.pi:
        # target astern: reverse toward it
        heading_error = wrap_angle(heading_error + np.pi)
        speed_cmd = -speed_cmd
    return heading_error, speed_cmd, arrived
