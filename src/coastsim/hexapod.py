"""Six-legged seabed robot: leg kinematics, tripod gait, crab-walk body motion.

Each leg is a yaw joint about the vertical (theta1) followed by a planar
two-link chain in the resulting vertical plane: theta3 pitches the first link
of length l1 at the base, theta2 is the angle between the links (the acos
branch of the inverse solution, so theta2 in [0, pi] is the one legal elbow).
Leg-frame convention: x radially outward from the mount, z up, foot positions
below the body have negative z.

Body motion is kinematic: commanded terrain speed is achieved exactly and the
gait trajectories exist so the walk is joint-consistent, with stance feet
drifting backward through the body frame while the body advances.

The gait runs on Python floats. One core (`_swing_velocity`, `_foot_position`)
evaluates each foot coordinate with the operations numpy applies to the
whole-array expressions (`p0 + v_stance * (t - t_start)`, ...), in the same
order, so every coordinate, signed zeros included, is bit-identical to the
array form. `closed_gait_phase` and `gait_foot_position` are thin array
wrappers over that core. `_gait_table` keeps each leg's (p0, v_stance,
v_swing, phase offset) for the last 64 sets of gait inputs, built by the same
expressions on the same floats, so no bit changes; it is keyed by the values
(terrain speed, period, duty, home radius and height, with their types and the
home zeros' signs), never by the mutable params.

The inverse kinematics run on floats too: `_leg_ik` takes a target's three
coordinates plus the link lengths, the law-of-cosines terms l1**2, l2**2 and
2*l1*l2 and the joint limits' bounds, which `body_advance` reads once per
step (`leg_ik` is its public wrapper). It keeps the reach test's order
(d*d + z*z - l1**2) - l2**2, clamps with `clamp`, wraps theta3 inline as
`wrap_angle` does (a non-finite angle raises its ValueError), checks the
limits in order theta1, theta2, theta3 and fills the frozen
`LegConfiguration` without its constructor, as `body_advance` does the new
`HexapodState`: `np.asarray` and the heading wrap change no bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, clamp, wrap_angle

PI = math.pi
TRIPOD_A = (0, 2, 4)  # front-left, mid-right, rear-left; tripod B is 1, 3, 5

# longest leg link of the crawler [m]; it also keeps the law-of-cosines
# terms of _link_constants far from overflow
MAX_LINK_LENGTH = 1.0

# relative tolerance on the reach test: wide enough to absorb the rounding of
# a forward-kinematics product, far below any meaningful workspace margin
_REACH_TOL = 1e-14


class WorkspaceViolation(ValueError):
    def __init__(self, message: str, radius: float):
        super().__init__(message)
        self.radius = radius


class JointLimitError(ValueError):
    def __init__(self, joint: str, value: float, limits: tuple[float, float]):
        super().__init__(
            f"{joint} = {value:.6f} rad outside [{limits[0]:.6f}, {limits[1]:.6f}]")
        self.joint = joint


class GaitPhaseError(ValueError):
    """Asked for a foot position outside the phase's time window."""


@dataclass
class LegGeometry:
    l1: float = 0.08  # first link length [m]
    l2: float = 0.12  # second link length [m]
    theta1_limits: tuple[float, float] = (-PI, PI)
    theta2_limits: tuple[float, float] = (-PI / 2, PI / 2)
    theta3_limits: tuple[float, float] = (-PI / 2, PI / 2)

    def __post_init__(self):
        if not (0.0 < self.l1 <= MAX_LINK_LENGTH
                and 0.0 < self.l2 <= MAX_LINK_LENGTH):
            raise ValueError(
                f"link lengths must be in (0, {MAX_LINK_LENGTH}] m")

    @property
    def reach_min(self) -> float:
        return abs(self.l1 - self.l2)

    @property
    def reach_max(self) -> float:
        return self.l1 + self.l2


@dataclass(frozen=True)
class LegConfiguration:
    theta1: float  # yaw about vertical [rad]
    theta2: float  # inter-link (elbow) angle [rad]
    theta3: float  # base pitch of the first link [rad]


def leg_fk(cfg: LegConfiguration, geom: LegGeometry) -> np.ndarray:
    """Foot position in the leg frame from joint angles."""
    reach = geom.l1 * math.cos(cfg.theta3) \
        + geom.l2 * math.cos(cfg.theta3 + cfg.theta2)
    z = geom.l1 * math.sin(cfg.theta3) \
        + geom.l2 * math.sin(cfg.theta3 + cfg.theta2)
    return np.array([reach * math.cos(cfg.theta1),
                     reach * math.sin(cfg.theta1), z])


def _link_constants(geom: LegGeometry) -> tuple:
    """What _leg_ik reads of geom: l1, l2, the law-of-cosines terms l1 ** 2,
    l2 ** 2 and 2 * l1 * l2, then the (low, high) bounds of theta1, theta2
    and theta3 in turn."""
    l1, l2 = geom.l1, geom.l2
    return (l1, l2, l1 ** 2, l2 ** 2, 2.0 * l1 * l2, *geom.theta1_limits,
            *geom.theta2_limits, *geom.theta3_limits)


def _leg_ik(x: float, y: float, z: float, geom: LegGeometry,
            links: tuple) -> LegConfiguration:
    """leg_ik of the leg-frame point (x, y, z), with `links` from
    _link_constants(geom)."""
    l1, l2, l1sq, l2sq, two_l1l2, lo1, hi1, lo2, hi2, lo3, hi3 = links
    d = math.hypot(x, y)
    # (d^2 + z^2 - l1^2) - l2^2, as written: l1^2 + l2^2 in one term rounds
    # differently
    arg = (d * d + z * z - l1sq - l2sq) / two_l1l2
    if arg > 1.0 + _REACH_TOL or arg < -1.0 - _REACH_TOL:
        r = math.hypot(d, z)
        raise WorkspaceViolation(
            f"target radius {r:.9f} m outside [{geom.reach_min:.9f}, "
            f"{geom.reach_max:.9f}] m", radius=r)
    theta1 = math.atan2(y, x)
    theta2 = math.acos(clamp(arg, -1.0, 1.0))
    theta3 = (math.atan2(z, d)
              - math.atan2(l2 * math.sin(theta2), l1 + l2 * math.cos(theta2)))
    # wrap_angle(theta3), inline
    if not math.isfinite(theta3):
        raise ValueError(f"cannot wrap non-finite angle {theta3!r}")
    theta3 %= TWO_PI
    if theta3 > PI:
        theta3 -= TWO_PI
    if not lo1 <= theta1 <= hi1:
        raise JointLimitError("theta1", theta1, (lo1, hi1))
    if not lo2 <= theta2 <= hi2:
        raise JointLimitError("theta2", theta2, (lo2, hi2))
    if not lo3 <= theta3 <= hi3:
        raise JointLimitError("theta3", theta3, (lo3, hi3))
    # the fields a frozen LegConfiguration's __init__ would set, without
    # its three object.__setattr__ calls
    cfg = object.__new__(LegConfiguration)
    fields = cfg.__dict__
    fields["theta1"] = theta1
    fields["theta2"] = theta2
    fields["theta3"] = theta3
    return cfg


def leg_ik(p, geom: LegGeometry) -> LegConfiguration:
    """Joint angles reaching a leg-frame point, elbow branch from the
    principal acos value.

    Raises WorkspaceViolation outside the reachable annulus and
    JointLimitError when the solution breaches a configured limit.
    """
    return _leg_ik(float(p[0]), float(p[1]), float(p[2]), geom,
                   _link_constants(geom))


@dataclass(frozen=True)
class GaitPhase:
    """One leg's current gait cycle: stance then swing."""

    leg: int
    p0: np.ndarray  # foot position at stance start, leg frame [m]
    v_stance: np.ndarray  # foot velocity during stance [m/s]
    v_swing: np.ndarray  # foot velocity during swing [m/s]
    t_start: float  # cycle start time [s]
    period: float  # full cycle duration [s]
    duty_factor: float  # stance fraction of the cycle

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "v_stance", np.asarray(self.v_stance, dtype=float))
        object.__setattr__(self, "v_swing", np.asarray(self.v_swing, dtype=float))
        if self.period <= 0.0 or not 0.0 < self.duty_factor < 1.0:
            raise ValueError("gait phase needs period > 0 and duty in (0, 1)")

    @property
    def t_end(self) -> float:
        """Stance end / swing start time."""
        return self.t_start + self.duty_factor * self.period


def _swing_velocity(v_stance, duty_factor: float) -> tuple[float, float, float]:
    """Swing velocity that closes the cycle back onto p0, on floats."""
    return (-v_stance[0] * duty_factor / (1.0 - duty_factor),
            -v_stance[1] * duty_factor / (1.0 - duty_factor),
            -v_stance[2] * duty_factor / (1.0 - duty_factor))


def _foot_position(p0, v_stance, v_swing, t_start: float, period: float,
                   duty_factor: float, t: float,
                   h_lift: float) -> tuple[float, float, float]:
    """gait_foot_position on float 3-sequences; returns a float 3-tuple.

    The swing branch adds (0.0, 0.0, lift) like the array form did, so x
    and y still get + 0.0 and a -0.0 comes out as 0.0 there too.
    """
    if not t_start <= t <= t_start + period:
        raise GaitPhaseError(
            f"t={t:.6f} outside cycle [{t_start:.6f}, "
            f"{t_start + period:.6f}]")
    t_end = t_start + duty_factor * period
    if t <= t_end:
        dt = t - t_start
        return (p0[0] + v_stance[0] * dt, p0[1] + v_stance[1] * dt,
                p0[2] + v_stance[2] * dt)
    stance = t_end - t_start
    dt = t - t_end
    s = dt / (period * (1.0 - duty_factor))
    lift = h_lift * 4.0 * s * (1.0 - s)
    return (p0[0] + v_stance[0] * stance + v_swing[0] * dt + 0.0,
            p0[1] + v_stance[1] * stance + v_swing[1] * dt + 0.0,
            p0[2] + v_stance[2] * stance + v_swing[2] * dt + lift)


def closed_gait_phase(leg: int, p0, v_stance, t_start: float, period: float,
                      duty_factor: float) -> GaitPhase:
    """GaitPhase whose swing velocity closes the cycle back onto p0."""
    if not 0.0 < duty_factor < 1.0:
        raise ValueError("gait phase needs period > 0 and duty in (0, 1)")
    v_st = np.asarray(v_stance, dtype=float)
    v_sw = _swing_velocity(v_st.tolist(), duty_factor)
    return GaitPhase(leg, p0, v_st, v_sw, t_start, period, duty_factor)


def gait_foot_position(phase: GaitPhase, t: float, h_lift: float = 0.03) -> np.ndarray:
    """Foot position at time t within the phase's cycle window.

    Stance drifts linearly from p0; swing continues from the stance end point
    at the swing velocity plus a parabolic vertical clearance of height h_lift
    (zero at both swing endpoints; pass h_lift=0 for the flat-ground form).
    """
    return np.array(_foot_position(
        phase.p0.tolist(), phase.v_stance.tolist(), phase.v_swing.tolist(),
        phase.t_start, phase.period, phase.duty_factor, t, h_lift))


# per leg: outward yaw of its body-frame mount [rad]
MOUNTS = (
    math.radians(45.0),  # 0 front-left
    math.radians(-45.0),  # 1 front-right
    math.radians(-90.0),  # 2 mid-right
    math.radians(90.0),  # 3 mid-left
    math.radians(135.0),  # 4 rear-left
    math.radians(-135.0),  # 5 rear-right
)

DEFAULT_TERRAIN_SPEEDS = {"sand": 0.2, "rock": 0.1, "mud": 0.15}  # [m/s]


@dataclass
class HexapodParams:
    geometry: LegGeometry = field(default_factory=LegGeometry)
    terrain_speeds: dict = field(default_factory=lambda: dict(DEFAULT_TERRAIN_SPEEDS))
    stride: float = 0.08  # body travel per gait cycle [m]
    duty_factor: float = 0.5
    h_lift: float = 0.03  # swing foot clearance [m]
    max_turn_rate: float = 0.3  # [rad/s]
    home_radius: float = 0.16  # nominal foot reach in the leg frame [m]
    home_height: float = -0.06  # nominal foot z in the leg frame [m]

    def speed_for(self, terrain: str) -> float:
        try:
            return self.terrain_speeds[terrain]
        except KeyError:
            raise ValueError(f"no speed configured for terrain {terrain!r}") from None


@dataclass
class HexapodState:
    position: np.ndarray  # (2,) nav frame [m]
    heading: float = 0.0  # [rad]
    terrain: str = "sand"
    gait_t: float = 0.0  # time since walking started [s]
    legs: tuple = ()  # 6x LegConfiguration, filled by body_advance
    faults: int = 0  # count of steps halted by an unreachable foot target

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.heading = wrap_angle(self.heading)


def stand_legs(params: HexapodParams) -> tuple:
    """Joint angles for all feet parked at the home point."""
    home = np.array([params.home_radius, 0.0, params.home_height])
    cfg = leg_ik(home, params.geometry)
    return (cfg,) * 6


@functools.lru_cache(maxsize=64, typed=True)
def _build_gait_table(speed, period, duty, home_radius, home_height,
                      radius_sign, height_sign) -> tuple:
    """Per leg (p0, v_stance, v_swing, phase offset); signs only key it."""
    if period <= 0.0 or not 0.0 < duty < 1.0:
        raise ValueError("gait phase needs period > 0 and duty in (0, 1)")
    # stance feet sweep back along body x at -speed, centred on the home point
    half = 0.5 * duty * period
    table = []
    for leg, yaw in enumerate(MOUNTS):
        v_st = (-speed * math.cos(yaw), speed * math.sin(yaw), 0.0)
        p0 = (home_radius - v_st[0] * half, 0.0 - v_st[1] * half,
              home_height - v_st[2] * half)
        table.append((p0, v_st, _swing_velocity(v_st, duty),
                      0.0 if leg in TRIPOD_A else 0.5))  # tripod B: half a cycle on
    return tuple(table)


def _gait_table(params: HexapodParams, speed: float, period: float) -> tuple:
    """_build_gait_table of the gait inputs params holds now."""
    r, h = params.home_radius, params.home_height
    return _build_gait_table(speed, period, params.duty_factor, r, h,
                             math.copysign(1.0, r), math.copysign(1.0, h))


def body_advance(state: HexapodState, heading_cmd: float, dt: float,
                 params: HexapodParams) -> HexapodState:
    """Advance the walking body one step toward a commanded heading.

    Heading slews toward the command at the turn-rate limit while the body
    moves along its current heading at the terrain speed. Tripods {0,2,4}
    and {1,3,5} step in anti-phase, so at least three feet are in stance
    whenever duty_factor >= 0.5. If any foot target falls outside a leg
    workspace the gait halts for this step: the body stays put and the
    fault counter increments.
    """
    speed = params.speed_for(state.terrain)
    if speed <= 0.0:
        raise ValueError(f"walking speed must be positive, got {speed}")
    period = params.stride / speed

    heading_err = wrap_angle(heading_cmd - state.heading)
    max_step = params.max_turn_rate * dt
    turn = clamp(heading_err, -max_step, max_step)
    heading = wrap_angle(state.heading + turn)

    gait_t = state.gait_t + dt
    cycles = gait_t / period
    table = _gait_table(params, speed, period)
    duty, h_lift = params.duty_factor, params.h_lift
    geom = params.geometry
    links = _link_constants(geom)
    legs = []
    try:
        for p0, v_st, v_sw, offset in table:
            t_start = gait_t - (cycles + offset) % 1.0 * period
            legs.append(_leg_ik(*_foot_position(p0, v_st, v_sw, t_start,
                                                period, duty, gait_t, h_lift),
                                geom, links))
    except (WorkspaceViolation, JointLimitError):
        return HexapodState(state.position, state.heading, state.terrain,
                            state.gait_t, state.legs, state.faults + 1)

    step = speed * dt
    x, y = state.position.tolist()
    # the fields __init__ would set, without __post_init__'s round trip:
    # np.array of two floats is already the float array np.asarray makes,
    # and wrap_angle returns its own outputs unchanged
    new = object.__new__(HexapodState)
    new.position = np.array((x + step * math.cos(heading),
                             y + step * math.sin(heading)))
    new.heading = heading
    new.terrain = state.terrain
    new.gait_t = gait_t
    new.legs = tuple(legs)
    new.faults = state.faults
    return new

