"""Towed underwater vehicle: point mass with a depressor hydrofoil on an
elastic towline.

The body lives in a 3D navigation frame with z positive DOWN (z = 0 is the
surface, the body never rises above it). Hydrodynamic loads are computed from
the flow-relative velocity: foil lift and drag on the reference area plus a
bluff-body drag term, with lift fixed as a depressor (pushes the body deeper).
The towline is a massless tension-only spring-damper; its reaction on the
towing vehicle is exactly the negative of the force applied here.

The body and the line run on Python floats, component by component in the
whole-array form's order; the public functions still take and return arrays.
A 3-vector dot product is the plain left-to-right sum a0*b0 + a1*b1 + a2*b2
and a norm its square root, so the tow dynamics are IEEE double arithmetic
alone (math.sqrt rounds correctly), whatever BLAS kernel or SIMD target numpy
dispatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IntegrationFault, SimulationFault, clamp, rk4_stages

G = 9.81  # [m/s^2]
MAX_CABLE_LENGTH = 30.0  # physical cable on the winch drum [m]


class DegenerateGeometry(SimulationFault, ValueError):
    """Towline endpoints coincide; the line direction is undefined."""


@dataclass
class TuvParams:
    m_b: float = 12.0  # dry mass [kg]
    added_mass: float = 3.0  # scalar hydrodynamic added mass [kg]
    rho: float = 1025.0  # water density [kg/m^3]
    foil_area: float = 0.1  # hydrofoil reference area S [m^2]
    c_lift: float = 0.2  # foil lift coefficient
    c_drag: float = 0.08  # foil drag coefficient
    bluff_cda: float = 0.01  # hull drag area Cd*A [m^2]
    buoyancy_fraction: float = 0.98  # buoyancy / weight; < 1 sinks when still

    def __post_init__(self):
        if self.m_b <= 0.0 or self.added_mass < 0.0:
            raise ValueError("towed-body masses must be positive")
        if self.buoyancy_fraction < 0.0:
            raise ValueError("buoyancy_fraction must be non-negative")

    @property
    def total_mass(self) -> float:
        return self.m_b + self.added_mass

    @property
    def net_weight(self) -> float:
        """Submerged weight, positive down [N]."""
        return self.m_b * G * (1.0 - self.buoyancy_fraction)


@dataclass
class Towline:
    unstretched_length: float = 30.0  # deployed length L0 [m]
    stiffness: float = 800.0  # [N/m]
    damping: float = 50.0  # stretch-rate damping [N s/m]
    max_slew_rate: float = 0.5  # winch payout/haul speed limit [m/s]

    def __post_init__(self):
        _check_cable_length(self.unstretched_length)
        if self.stiffness <= 0.0 or self.damping < 0.0:
            raise ValueError("towline stiffness must be positive, damping non-negative")


def _check_cable_length(length: float):
    if not 0.0 < length <= MAX_CABLE_LENGTH:
        raise ValueError(
            f"cable length {length} m outside (0, {MAX_CABLE_LENGTH}] m")


@dataclass
class TowedBodyState:
    position: np.ndarray  # (3,) nav frame, z down [m]
    velocity: np.ndarray  # (3,) [m/s]

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)


def _floats(vec) -> list:
    """An array-like as a list of Python floats."""
    return np.asarray(vec, dtype=float).tolist()


def _dot3(a0, a1, a2, b0, b1, b2) -> float:
    """The dot product of two 3-vectors given as floats, summed left to
    right."""
    return a0 * b0 + a1 * b1 + a2 * b2


def _norm3(x, y, z) -> float:
    """The length of a 3-vector given as floats: sqrt of its dot."""
    return math.sqrt(_dot3(x, y, z, x, y, z))


def _offset(asv_attach, tuv_attach) -> tuple[float, float, float, float]:
    """The attach offset asv - tuv on 3-sequences of floats, and its norm."""
    ox = asv_attach[0] - tuv_attach[0]
    oy = asv_attach[1] - tuv_attach[1]
    oz = asv_attach[2] - tuv_attach[2]
    return ox, oy, oz, _norm3(ox, oy, oz)


def _tension(ox: float, oy: float, oz: float, s: float,
             separation_rate: float, line: Towline) -> tuple[float, float, float]:
    """towline_tension from the attach offset and its norm s."""
    if s == 0.0:
        raise DegenerateGeometry("towline endpoints coincide")
    if s <= line.unstretched_length:
        return 0.0, 0.0, 0.0
    magnitude = line.stiffness * (s - line.unstretched_length) \
        + line.damping * max(0.0, separation_rate)
    g = magnitude / s
    return g * ox, g * oy, g * oz


def _rate(ox: float, oy: float, oz: float, s: float, asv_attach_vel,
          tuv_attach_vel) -> float:
    """separation_rate from the attach offset and its norm s."""
    if s == 0.0:
        return 0.0
    return _dot3(ox, oy, oz, asv_attach_vel[0] - tuv_attach_vel[0],
                 asv_attach_vel[1] - tuv_attach_vel[1],
                 asv_attach_vel[2] - tuv_attach_vel[2]) / s


def _coupling_tension(asv_attach, asv_attach_vel, tuv_attach, tuv_attach_vel,
                      line: Towline) -> tuple[float, float, float]:
    """towline_tension at the current separation_rate, on 3-sequences of
    floats: the offset and its norm are computed once for both."""
    offset = _offset(asv_attach, tuv_attach)
    return _tension(*offset, _rate(*offset, asv_attach_vel, tuv_attach_vel),
                    line)


def towline_tension(asv_attach: np.ndarray, tuv_attach: np.ndarray,
                    separation_rate: float, line: Towline) -> np.ndarray:
    """Force the line exerts on the towed body (pulls toward the tow point).

    separation_rate is d|asv - tuv|/dt, positive while the line stretches;
    the damping term only ever adds tension, and a slack line (separation at
    or below the unstretched length) carries none: a cable cannot push.
    """
    return np.array(_tension(*_offset(_floats(asv_attach), _floats(tuv_attach)),
                             separation_rate, line))


def separation_rate(asv_attach, asv_attach_vel, tuv_attach, tuv_attach_vel) -> float:
    """Rate of change of the attachment separation (positive = stretching)."""
    return _rate(*_offset(_floats(asv_attach), _floats(tuv_attach)),
                 _floats(asv_attach_vel), _floats(tuv_attach_vel))


def _hydrofoil(vx: float, vy: float, vz: float, params: TuvParams) -> tuple:
    """Foil loads for the flow-relative velocity (vx, vy, vz):
    (flow speed, lift magnitude, drag magnitude, total force x, y, z).

    Drag opposes the flow; lift is perpendicular to it in the vertical
    plane containing the flow, signed downward (depressor). Purely vertical
    flow leaves the lift direction undefined, so lift is zero there.
    """
    speed = _norm3(vx, vy, vz)
    if speed == 0.0:
        return speed, 0.0, 0.0, 0.0, 0.0, 0.0
    q = 0.5 * params.rho * speed ** 2 * params.foil_area
    lift = q * params.c_lift
    drag = q * params.c_drag
    ex, ey, ez = vx / speed, vy / speed, vz / speed
    fx, fy, fz = -drag * ex, -drag * ey, -drag * ez
    # projection of 'down' (0, 0, 1) off the flow; its dot with e is ez
    lx, ly, lz = 0.0 - ez * ex, 0.0 - ez * ey, 1.0 - ez * ez
    norm = _norm3(lx, ly, lz)
    if norm > 1e-12:
        fx = fx + lift * (lx / norm)
        fy = fy + lift * (ly / norm)
        fz = fz + lift * (lz / norm)
    return speed, lift, drag, fx, fy, fz


def _derivative(x, params: TuvParams, tension, current) -> tuple:
    """Derivative of the stacked (position, velocity) 6-sequence of floats,
    tension and current 3-sequences; returns a 6-tuple."""
    vx, vy, vz = x[3], x[4], x[5]
    rx, ry, rz = vx - current[0], vy - current[1], vz - current[2]
    speed, _, _, fx, fy, fz = _hydrofoil(rx, ry, rz, params)
    k = -0.5 * params.rho * params.bluff_cda * speed
    w = params.net_weight
    m = params.total_mass
    # + net_weight * (0, 0, 1): x and y gain w * 0.0, a signed zero
    return (vx, vy, vz,
            (fx + k * rx + tension[0] + w * 0.0) / m,
            (fy + k * ry + tension[1] + w * 0.0) / m,
            (fz + k * rz + tension[2] + w) / m)


def tuv_step(state: TowedBodyState, params: TuvParams, tension: np.ndarray,
             current: np.ndarray, dt: float, t: float = 0.0) -> TowedBodyState:
    """One RK4 step with the tension held constant over the step.

    tension and current are 3-vectors: arrays or sequences of floats. The
    surface (z = 0) is a hard ceiling: the body is clamped to it and any
    upward velocity there is zeroed.
    """
    x = _step(_floats(state.position) + _floats(state.velocity), params,
              _floats(tension), _floats(current), dt, t)
    return TowedBodyState(np.array(x[0:3]), np.array(x[3:6]))


def _step(x, params: TuvParams, tension, current, dt: float,
          t: float) -> list:
    """tuv_step on floats: x the stacked (position, velocity) 6-sequence,
    tension and current 3-sequences; returns the new 6-list."""
    x, _ = rk4_stages(_derivative, x, dt, params, tension, current)
    if not all(map(math.isfinite, x)):
        raise IntegrationFault("towed body state diverged", t)
    if x[2] < 0.0:
        x[2] = 0.0
        x[5] = max(x[5], 0.0)
    return x


def winch_set_length(line: Towline, commanded_length: float, dt: float) -> Towline:
    """Slew the unstretched length toward a commanded value.

    The winch moves at most max_slew_rate * dt per step; commands outside the
    physical cable range (0, 30] m are errors. A line already at the
    commanded length comes back as it is.
    """
    _check_cable_length(commanded_length)
    step = line.max_slew_rate * dt
    delta = clamp(commanded_length - line.unstretched_length, -step, step)
    if delta == 0.0:
        return line
    return Towline(line.unstretched_length + delta, line.stiffness,
                   line.damping, line.max_slew_rate)
