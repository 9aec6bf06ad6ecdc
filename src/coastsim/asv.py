"""Surface vehicle model: planar 3-DOF rigid body with differential thrust.

State is (x, y, psi) pose in the navigation frame and (u, v, r) body-frame
velocities (surge, sway, yaw rate). The mass matrix is diagonal (surge and
sway include added mass, yaw lumps inertia) and the velocity coupling matrix
is skew-symmetric, so the free vehicle conserves kinetic energy.

Forces reach the model as a BodyWrench: an immutable named 3-tuple
(X, Y, N), built several times per simulated step, so it is a tuple rather
than a frozen dataclass. It compares equal to the plain tuple of its
components, and assigning to a field raises AttributeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (IntegrationFault, clamp, cos_sin,
                   rk4_stages as _float_rk4, wrap_angle)

# indices into the 6-state array used by the integrator and the estimator
IX, IY, IPSI, IU, IV, IR = range(6)


@dataclass
class AsvParams:
    m11: float = 50.0  # surge mass incl. added mass [kg]
    m22: float = 60.0  # sway mass incl. added mass [kg]
    m33: float = 20.0  # yaw inertia [kg m^2]
    thruster_half_spacing: float = 0.35  # lateral offset of each thruster [m]
    max_thrust: float = 40.0  # per-motor thrust limit [N]

    def __post_init__(self):
        for name in ("m11", "m22", "m33"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.thruster_half_spacing <= 0.0:
            raise ValueError("thruster_half_spacing must be positive")
        if self.max_thrust <= 0.0:
            raise ValueError("max_thrust must be positive")


class BodyWrench(NamedTuple):
    """Generalized body-frame force (X surge [N], Y sway [N], N yaw [N m])."""

    X: float = 0.0
    Y: float = 0.0
    N: float = 0.0


ZERO_WRENCH = BodyWrench()


@dataclass
class VehicleState3DOF:
    x: float = 0.0  # east [m]
    y: float = 0.0  # north [m]
    psi: float = 0.0  # heading [rad]
    u: float = 0.0  # surge speed [m/s]
    v: float = 0.0  # sway speed [m/s]
    r: float = 0.0  # yaw rate [rad/s]

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi, self.u, self.v, self.r])

    @classmethod
    def from_array(cls, arr) -> "VehicleState3DOF":
        """The state read from a 6-sequence (x, y, psi, u, v, r), psi
        wrapped."""
        return cls(float(arr[IX]), float(arr[IY]),
                   wrap_angle(float(arr[IPSI])), float(arr[IU]),
                   float(arr[IV]), float(arr[IR]))


def _derivative(state, params: AsvParams, wrench: BodyWrench) -> tuple:
    """(xdot, ydot, psidot, udot, vdot, rdot) of a 6-sequence of floats.

    Velocity coupling uses the skew-symmetric matrix
        [[0, -m33 r, m22 v], [m33 r, 0, -m11 u], [-m22 v, m11 u, 0]]
    moved to the right-hand side and divided by the diagonal mass matrix.
    """
    psi, u, v, r = state[IPSI], state[IU], state[IV], state[IR]
    c, s = cos_sin(psi)
    return (
        u * c - v * s,
        u * s + v * c,
        r,
        (wrench.X + (params.m33 - params.m22) * r * v) / params.m11,
        (wrench.Y + (params.m11 - params.m33) * u * r) / params.m22,
        (wrench.N + (params.m22 - params.m11) * v * u) / params.m33,
    )


def rk4_stages(state, params: AsvParams, wrench: BodyWrench,
               dt: float) -> tuple[list, tuple]:
    """One RK4 step of the vehicle model under a constant body wrench.

    `state` is a 6-sequence of Python floats, stepped by the one RK4 on six
    floats, core.rk4_stages, with _derivative as the model. Returns (next
    state, stage states), through which the estimator chain-rules its
    transition Jacobian.
    """
    return _float_rk4(_derivative, state, dt, params, wrench)


def asv_step(state: VehicleState3DOF, params: AsvParams, wrench: BodyWrench,
             dt: float, t: float = 0.0) -> VehicleState3DOF:
    """Advance the vehicle one RK4 step under a constant body wrench."""
    x = (state.x, state.y, state.psi, state.u, state.v, state.r)
    x_next, _ = rk4_stages(x, params, wrench, dt)
    if not all(map(math.isfinite, x_next)):
        raise IntegrationFault("surface vehicle state diverged", t)
    return VehicleState3DOF.from_array(x_next)


def kinetic_energy(state: VehicleState3DOF, params: AsvParams) -> float:
    return 0.5 * (params.m11 * state.u ** 2 + params.m22 * state.v ** 2
                  + params.m33 * state.r ** 2)


def allocate_differential_thrust(surge_cmd: float, yaw_cmd: float,
                                 params: AsvParams) -> tuple[float, float, BodyWrench]:
    """Map (surge force, yaw moment) commands onto the two stern thrusters.

    Returns (left, right, realized wrench). Each motor saturates at
    +-max_thrust; the realized wrench is recomputed from the clamped pair, so
    saturation shows up honestly in what the dynamics receive.
    """
    half = params.thruster_half_spacing
    left = 0.5 * (surge_cmd - yaw_cmd / half)
    right = 0.5 * (surge_cmd + yaw_cmd / half)
    hi = params.max_thrust
    left = clamp(left, -hi, hi)
    right = clamp(right, -hi, hi)
    return left, right, BodyWrench(left + right, 0.0, (right - left) * half)
