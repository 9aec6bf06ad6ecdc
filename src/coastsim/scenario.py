"""Scenario files: a single declarative YAML tree describing one run.

The loader is strict: every key is checked against the schema (unknown keys
are errors, never silently ignored), quantities may carry units as strings
("20 km/h", "45 deg", "10 min") and are converted to SI on load, and
cross-field constraints (objects inside the search area, sensor rates
compatible with the step size) are validated before the simulation starts.
`seed` is the one field with no default: runs must be reproducible on
purpose, not by accident.

Files are parsed with libyaml's C parser (`yaml.CSafeLoader`) where PyYAML
was built with it. Both it and the pure-Python `yaml.SafeLoader` build the
tree with PyYAML's own constructor and resolver, so they give the same tree;
the one known difference is that libyaml accepts a tab after a mapping
colon (`a:\t1`), which the pure loader rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .asv import AsvParams, VehicleState3DOF
from .control import LOITER, WAYPOINT, GuidanceSetpoint, PidController
from .environment import (TERRAIN_CLASSES, DampingCoeffs, DisturbanceField,
                          TerrainMap, load_terrain)
from .hexapod import MAX_LINK_LENGTH, HexapodParams, LegGeometry, stand_legs
from .mission import PlantedObject, SearchArea
from .nav import EkfParams, SensorConfig
from .tuv import MAX_CABLE_LENGTH, Towline, TuvParams

SEARCH = "search"
LOITER_MISSION = "loiter"
CRUISE = "cruise"
MISSION_KINDS = (SEARCH, LOITER_MISSION, CRUISE)

OBJECT_CLASSES = ("weapon", "clothing", "device", "other")

# unit tables: multiply by the factor to get the SI base value
SPEED_UNITS = {"m/s": 1.0, "km/h": 1.0 / 3.6, "kn": 0.514444}
ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}
TIME_UNITS = {"s": 1.0, "min": 60.0, "h": 3600.0}
LENGTH_UNITS = {"m": 1.0, "km": 1000.0}

# seeds key a Philox generator as a uint64
SEED_LIMIT = 2 ** 64
# a run directory name, <name>-seed<seed>, fits the 255 bytes of a file
# name with a seed of up to 20 digits
MAX_NAME_BYTES = 255 - len("-seed") - len(str(SEED_LIMIT - 1))

# libyaml's composer recurses on the C stack once per nesting level: on an
# 8 MB stack 24,000 levels load and 28,000 kill the process. Texts whose
# nesting bound (`_nesting_bound`) exceeds this go to the pure-Python loader,
# which stops at the interpreter's recursion limit instead.
MAX_C_NESTING = 10_000
_C_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """A scenario file violates the schema; message names the field."""


def _err(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _shown(value) -> str:
    """`value` for an error message: a collection by its type alone, since
    its repr can be arbitrarily deep or large."""
    if isinstance(value, (list, dict)):
        return f"a {type(value).__name__}"
    return repr(value)


def _quantity(value, path: str, units: dict[str, float] | None = None) -> float:
    """A finite number, or a '<number> <unit>' string when a unit table
    applies."""
    if isinstance(value, bool):
        raise _err(path, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    elif isinstance(value, str) and units is not None:
        parts = value.split()
        if len(parts) != 2:
            raise _err(path, f"expected '<number> <unit>', got {value!r}")
        try:
            magnitude = float(parts[0])
        except ValueError:
            raise _err(path, f"cannot parse number in {value!r}") from None
        if parts[1] not in units:
            raise _err(path, f"unknown unit {parts[1]!r}, "
                             f"expected one of {sorted(units)}")
        number = magnitude * units[parts[1]]
    else:
        raise _err(path, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(number):
        raise _err(path, f"must be finite, got {value!r}")
    return number


def _mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _err(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, path: str, allowed):
    unknown = set(mapping) - set(allowed)
    if unknown:
        # keys may mix types (`5: x`, `null: y`): order them as text
        raise _err(f"{path}.{sorted(unknown, key=str)[0]}",
                   f"unknown key; allowed keys are {sorted(allowed)}")


class _Section:
    """One mapping of the tree: typed reads with schema enforcement."""

    def __init__(self, mapping: dict, path: str):
        self.mapping = _mapping(mapping, path)
        self.path = path
        self._read: set[str] = set()

    def finish(self):
        _check_keys(self.mapping, self.path, self._read)

    def _get(self, key, default):
        self._read.add(key)
        return self.mapping.get(key, default)

    def number(self, key: str, default=None, units=None, minimum=None,
               maximum=None, positive=False) -> float:
        raw = self._get(key, default)
        if raw is None:
            raise _err(f"{self.path}.{key}", "required field is missing")
        value = _quantity(raw, f"{self.path}.{key}", units)
        if positive and value <= 0.0:
            raise _err(f"{self.path}.{key}", f"must be positive, got {value}")
        if minimum is not None and value < minimum:
            raise _err(f"{self.path}.{key}", f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise _err(f"{self.path}.{key}", f"must be <= {maximum}, got {value}")
        return value

    def integer(self, key: str, default=None) -> int:
        raw = self._get(key, default)
        if raw is None:
            raise _err(f"{self.path}.{key}", "required field is missing")
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise _err(f"{self.path}.{key}",
                       f"expected an integer, got {_shown(raw)}")
        return raw

    def boolean(self, key: str, default: bool) -> bool:
        raw = self._get(key, default)
        if not isinstance(raw, bool):
            raise _err(f"{self.path}.{key}",
                       f"expected true/false, got {_shown(raw)}")
        return raw

    def string(self, key: str, default=None, choices=None) -> str:
        raw = self._get(key, default)
        if raw is None:
            raise _err(f"{self.path}.{key}", "required field is missing")
        if not isinstance(raw, str):
            raise _err(f"{self.path}.{key}",
                       f"expected a string, got {_shown(raw)}")
        if choices is not None and raw not in choices:
            raise _err(f"{self.path}.{key}",
                       f"must be one of {sorted(choices)}, got {raw!r}")
        return raw

    def point(self, key: str, default=None) -> np.ndarray:
        raw = self._get(key, default)
        if raw is None:
            raise _err(f"{self.path}.{key}", "required field is missing")
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise _err(f"{self.path}.{key}", "expected a [x, y] pair")
        return np.array([_quantity(raw[0], f"{self.path}.{key}[0]", LENGTH_UNITS),
                         _quantity(raw[1], f"{self.path}.{key}[1]", LENGTH_UNITS)])

    def section(self, key: str) -> "_Section":
        self._read.add(key)
        return _Section(self.mapping.get(key), f"{self.path}.{key}")

    def raw(self, key: str, default=None):
        return self._get(key, default)


@dataclass
class MissionSpec:
    kind: str = SEARCH
    # search
    area: SearchArea | None = None
    swath: float = 10.0
    entry: str = "sw"
    objects: list = field(default_factory=list)
    p_detect: float = 1.0
    footprint: float = 5.0
    position_sigma: float = 1.0
    deploy_time: float = 5.0
    recovery_radius: float = 3.0
    inspection_standoff: float = 5.0
    tether_reach: float = 30.0
    confirm_radius: float = 0.5
    # loiter
    point: np.ndarray = field(default_factory=lambda: np.zeros(2))
    # cruise
    heading: float = 0.0
    speed: float = 2.0


@dataclass
class Scenario:
    """Everything a run needs, parsed, converted, and cross-checked."""

    name: str
    dt: float
    duration: float
    seed: int
    asv_params: AsvParams
    asv_initial: VehicleState3DOF
    damping: DampingCoeffs
    disturbances: DisturbanceField
    terrain: TerrainMap
    tuv_enabled: bool
    tuv_params: TuvParams
    towline: Towline
    tow_attach_x: float
    hexapod_params: HexapodParams
    heading_pid: PidController
    speed_pid: PidController
    sensors: SensorConfig
    ekf: EkfParams
    cruise_speed: float
    arrival_radius: float
    mission: MissionSpec


def _load_run(sec: _Section) -> tuple[str, float, float, int]:
    name = sec.string("name", default="run")
    dt = sec.number("dt", default=0.01, units=TIME_UNITS, positive=True)
    duration = sec.number("duration", default=600.0, units=TIME_UNITS, minimum=0.0)
    seed = sec.integer("seed")  # mandatory: reproducibility is part of the run
    sec.finish()
    # the run directory is <out>/<name>-seed<seed>: one path component
    size = len(name.encode("utf-8", "replace"))
    if size > MAX_NAME_BYTES:
        raise _err(f"{sec.path}.name", f"must be a file name of at most "
                                       f"{MAX_NAME_BYTES} bytes, got {size}")
    if name in ("", ".", "..") or any(ch in name for ch in "/\\\0"):
        raise _err(f"{sec.path}.name",
                   f"must be a file name (not empty, '.' or '..', and no "
                   f"'/', '\\' or NUL), got {name!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise _err(f"{sec.path}.seed", f"must be in [0, 2**64), got {seed}")
    if not math.isfinite(duration / dt):
        raise _err(f"{sec.path}.duration",
                   f"too many steps of dt {dt} s to count, got {duration}")
    return name, dt, duration, seed


def _load_terrain_entry(sec: _Section, base_dir: Path) -> TerrainMap:
    raw = sec.raw("terrain")
    if raw is None:
        return TerrainMap.uniform("sand")
    if isinstance(raw, str):
        path = Path(raw)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise _err(f"{sec.path}.terrain", f"terrain file not found: {path}")
        try:
            return load_terrain(path)
        except OSError as exc:
            raise _err(f"{sec.path}.terrain", f"{path}: cannot read the file "
                                              f"({exc.strerror or exc})") from None
        except ValueError as exc:
            raise _err(f"{sec.path}.terrain", str(exc)) from None
    uni = _Section(raw, f"{sec.path}.terrain")
    terrain = uni.string("uniform", choices=TERRAIN_CLASSES)
    extent = uni.number("extent", default=1000.0, units=LENGTH_UNITS, positive=True)
    origin = uni.point("origin", default=[-extent / 2.0, -extent / 2.0])
    depth_raw = uni.raw("depth")
    uni.finish()
    depth = None if depth_raw is None else _quantity(
        depth_raw, f"{uni.path}.depth", LENGTH_UNITS)
    return TerrainMap.uniform(terrain, extent=extent,
                              origin=tuple(origin), depth=depth)


def _load_world(sec: _Section, base_dir: Path):
    water_density = sec.number("water_density", default=1025.0, positive=True)

    d = sec.section("damping")
    damping = DampingCoeffs(
        d11=d.number("d11", default=12.0, minimum=0.0),
        d22=d.number("d22", default=35.0, minimum=0.0),
        d33=d.number("d33", default=8.0, minimum=0.0))
    d.finish()

    w = sec.section("disturbances")
    disturbances = DisturbanceField(
        mean_wind_speed=w.number("mean_wind_speed", default=0.0,
                                 units=SPEED_UNITS, minimum=0.0),
        wind_direction=w.number("wind_direction", default=0.0, units=ANGLE_UNITS),
        gust_tau=w.number("gust_tau", default=10.0, units=TIME_UNITS, positive=True),
        gust_fraction=w.number("gust_fraction", default=0.1, minimum=0.0),
        wave_height=w.number("wave_height", default=0.0, units=LENGTH_UNITS,
                             minimum=0.0),
        wave_period=w.number("wave_period", default=4.0, units=TIME_UNITS,
                             positive=True),
        current_speed=w.number("current_speed", default=0.0, units=SPEED_UNITS,
                               minimum=0.0),
        current_direction=w.number("current_direction", default=0.0,
                                   units=ANGLE_UNITS))
    w.finish()

    terrain = _load_terrain_entry(sec, base_dir)
    sec.finish()
    return water_density, damping, disturbances, terrain


def _load_asv(sec: _Section):
    params = AsvParams(
        m11=sec.number("m11", default=50.0, positive=True),
        m22=sec.number("m22", default=60.0, positive=True),
        m33=sec.number("m33", default=20.0, positive=True),
        thruster_half_spacing=sec.number("thruster_half_spacing", default=0.35,
                                         units=LENGTH_UNITS, positive=True),
        max_thrust=sec.number("max_thrust", default=40.0, positive=True))
    i = sec.section("initial")
    initial = VehicleState3DOF(
        x=i.number("x", default=0.0, units=LENGTH_UNITS),
        y=i.number("y", default=0.0, units=LENGTH_UNITS),
        psi=i.number("psi", default=0.0, units=ANGLE_UNITS),
        u=i.number("u", default=0.0, units=SPEED_UNITS),
        v=i.number("v", default=0.0, units=SPEED_UNITS),
        r=i.number("r", default=0.0))
    i.finish()
    sec.finish()
    return params, initial


def _load_tuv(sec: _Section, water_density: float):
    enabled = sec.boolean("enabled", default=True)
    params = TuvParams(
        m_b=sec.number("m_b", default=12.0, positive=True),
        added_mass=sec.number("added_mass", default=3.0, minimum=0.0),
        rho=water_density,
        foil_area=sec.number("foil_area", default=0.1, positive=True),
        c_lift=sec.number("c_lift", default=0.2, minimum=0.0),
        c_drag=sec.number("c_drag", default=0.08, minimum=0.0),
        bluff_cda=sec.number("bluff_cda", default=0.01, minimum=0.0),
        buoyancy_fraction=sec.number("buoyancy_fraction", default=0.98,
                                     minimum=0.0))
    t = sec.section("towline")
    towline = Towline(
        unstretched_length=t.number("length", default=30.0, units=LENGTH_UNITS,
                                    positive=True, maximum=MAX_CABLE_LENGTH),
        stiffness=t.number("stiffness", default=800.0, positive=True),
        damping=t.number("damping", default=50.0, minimum=0.0),
        max_slew_rate=t.number("max_slew_rate", default=0.5, units=SPEED_UNITS,
                               positive=True))
    # tow point sits aft of the reference point: the moment arm weathervanes
    # the hull into the cable pull, which a CG attach cannot do
    attach_x = t.number("attach_x", default=-0.5, units=LENGTH_UNITS)
    t.finish()
    sec.finish()
    return enabled, params, towline, attach_x


def _load_hexapod(sec: _Section) -> HexapodParams:
    g = sec.section("geometry")
    geometry = LegGeometry(
        l1=g.number("l1", default=0.08, units=LENGTH_UNITS, positive=True,
                    maximum=MAX_LINK_LENGTH),
        l2=g.number("l2", default=0.12, units=LENGTH_UNITS, positive=True,
                    maximum=MAX_LINK_LENGTH))
    g.finish()
    speeds_raw = _mapping(sec.raw("terrain_speeds"), f"{sec.path}.terrain_speeds")
    speeds = {"sand": 0.2, "rock": 0.1, "mud": 0.15}
    for key, value in speeds_raw.items():
        if key not in TERRAIN_CLASSES:
            raise _err(f"{sec.path}.terrain_speeds.{key}",
                       f"unknown terrain class; expected {sorted(TERRAIN_CLASSES)}")
        speed = _quantity(value, f"{sec.path}.terrain_speeds.{key}",
                          SPEED_UNITS)
        if speed <= 0.0:
            raise _err(f"{sec.path}.terrain_speeds.{key}",
                       f"must be positive, got {speed}")
        speeds[key] = speed
    params = HexapodParams(
        geometry=geometry,
        terrain_speeds=speeds,
        stride=sec.number("stride", default=0.08, units=LENGTH_UNITS, positive=True),
        duty_factor=sec.number("duty_factor", default=0.5, minimum=0.05,
                               maximum=0.95),
        h_lift=sec.number("h_lift", default=0.03, units=LENGTH_UNITS, minimum=0.0),
        max_turn_rate=sec.number("max_turn_rate", default=0.3, positive=True),
        home_radius=sec.number("home_radius", default=0.16, units=LENGTH_UNITS,
                               positive=True),
        home_height=sec.number("home_height", default=-0.06, units=LENGTH_UNITS))
    sec.finish()
    # the crawler stands up at deploy: its home foot point must be reachable
    # (WorkspaceViolation or JointLimitError)
    try:
        stand_legs(params)
    except ValueError as exc:
        raise _err(f"{sec.path}.home_radius",
                   f"the stand pose (home_radius {params.home_radius} m, "
                   f"home_height {params.home_height} m) is out of reach of "
                   f"legs with l1 {geometry.l1} m, l2 {geometry.l2} m: "
                   f"{exc}") from None
    return params


def _load_pid(sec: _Section, default_gains, output_limit: float) -> PidController:
    kp = sec.number("kp", default=default_gains[0], minimum=0.0)
    ki = sec.number("ki", default=default_gains[1], minimum=0.0)
    kd = sec.number("kd", default=default_gains[2], minimum=0.0)
    sec.finish()
    # bound the integral state so its term alone never exceeds half the
    # actuator authority — windup past that turns saturation into limit cycles
    integral_limit = 0.5 * output_limit / ki if ki > 0.0 else output_limit
    return PidController(kp=kp, ki=ki, kd=kd,
                         output_limits=(-output_limit, output_limit),
                         integral_limits=(-integral_limit, integral_limit))


def _load_controllers(sec: _Section, asv: AsvParams, dt: float):
    surge_limit = 2.0 * asv.max_thrust
    yaw_limit = 2.0 * asv.max_thrust * asv.thruster_half_spacing
    # the bare hull is directionally unstable at cruise speed (the sway-yaw
    # inertia coupling feeds back positively, ~0.25 u^2), so the heading loop
    # carries heavy rate feedback: these gains keep the Routh test stable
    # through ~2.4 m/s
    heading_pid = _load_pid(sec.section("heading_pid"), (12.0, 0.5, 24.0),
                            yaw_limit)
    # the runner adds damping + winch-load feedforward, so the speed loop
    # only trims residuals; modest gains keep estimator jitter out of thrust
    speed_pid = _load_pid(sec.section("speed_pid"), (12.0, 2.0, 0.0),
                          surge_limit)

    s = sec.section("sensors")
    sensors = SensorConfig(
        gps_rate=s.number("gps_rate", default=1.0, positive=True),
        compass_rate=s.number("compass_rate", default=10.0, positive=True),
        gyro_rate=s.number("gyro_rate", default=100.0, positive=True),
        gps_sigma=s.number("gps_sigma", default=1.25, minimum=0.0),
        compass_sigma=s.number("compass_sigma", default=0.02, minimum=0.0),
        gyro_sigma=s.number("gyro_sigma", default=0.005, minimum=0.0))
    s.finish()
    for label, rate in (("gps_rate", sensors.gps_rate),
                        ("compass_rate", sensors.compass_rate),
                        ("gyro_rate", sensors.gyro_rate)):
        try:
            sensors.period_steps(rate, dt)
        except ValueError as exc:
            raise _err(f"{sec.path}.sensors.{label}", str(exc)) from None

    e = sec.section("ekf")
    q_raw = e.raw("q_psd")
    defaults = EkfParams()
    if q_raw is None:
        # the runner feeds the filter its realized thrust, winch load and
        # modeled damping, so unmodeled accelerations are just wind/wave
        # residue -- much tighter than the library's conservative default
        q_psd = (1e-4, 1e-4, 1e-5, 0.05, 0.05, 0.01)
    else:
        if not isinstance(q_raw, (list, tuple)) or len(q_raw) != 6:
            raise _err(f"{e.path}.q_psd", "expected six spectral densities")
        q_psd = tuple(_quantity(v, f"{e.path}.q_psd[{i}]")
                      for i, v in enumerate(q_raw))
    ekf = EkfParams(
        q_psd=q_psd,
        gps_sigma=sensors.gps_sigma,
        compass_sigma=sensors.compass_sigma,
        gyro_sigma=sensors.gyro_sigma,
        gate_sigma=e.number("gate_sigma", default=defaults.gate_sigma,
                            positive=True))
    e.finish()

    cruise_speed = sec.number("cruise_speed", default=2.0, units=SPEED_UNITS,
                              positive=True)
    arrival_radius = sec.number("arrival_radius", default=2.0,
                                units=LENGTH_UNITS, positive=True)
    sec.finish()
    return heading_pid, speed_pid, sensors, ekf, cruise_speed, arrival_radius


def _load_objects(raw, path: str) -> list[PlantedObject]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise _err(path, "expected a list of objects")
    objects = []
    seen = set()
    for i, entry in enumerate(raw):
        o = _Section(entry, f"{path}[{i}]")
        obj = PlantedObject(
            object_id=o.string("id"),
            position=o.point("position"),
            object_class=o.string("class", default="other",
                                  choices=OBJECT_CLASSES),
            detectability_radius=o.number("detectability_radius", default=0.0,
                                          units=LENGTH_UNITS, minimum=0.0))
        o.finish()
        if obj.object_id in seen:
            raise _err(f"{path}[{i}].id", f"duplicate object id {obj.object_id!r}")
        seen.add(obj.object_id)
        objects.append(obj)
    return objects


def _load_mission(sec: _Section) -> MissionSpec:
    kind = sec.string("kind", default=SEARCH, choices=MISSION_KINDS)
    spec = MissionSpec(kind=kind)
    if kind == SEARCH:
        a = sec.section("area")
        spec.area = SearchArea(
            x=a.number("x", default=0.0, units=LENGTH_UNITS),
            y=a.number("y", default=0.0, units=LENGTH_UNITS),
            width=a.number("width", default=100.0, units=LENGTH_UNITS,
                           positive=True),
            height=a.number("height", default=100.0, units=LENGTH_UNITS,
                            positive=True))
        a.finish()
        spec.swath = sec.number("swath", default=10.0, units=LENGTH_UNITS,
                                positive=True)
        spec.entry = sec.string("entry", default="sw",
                                choices=("sw", "se", "nw", "ne"))
        spec.objects = _load_objects(sec.raw("objects"), f"{sec.path}.objects")
        spec.p_detect = sec.number("p_detect", default=1.0, minimum=0.0,
                                   maximum=1.0)
        spec.footprint = sec.number("footprint", default=5.0,
                                    units=LENGTH_UNITS, positive=True)
        spec.position_sigma = sec.number("position_sigma", default=1.0,
                                         units=LENGTH_UNITS, minimum=0.0)
        spec.deploy_time = sec.number("deploy_time", default=5.0,
                                      units=TIME_UNITS, minimum=0.0)
        spec.recovery_radius = sec.number("recovery_radius", default=3.0,
                                          units=LENGTH_UNITS, positive=True)
        # the winch pays the line out to this length at each find
        spec.inspection_standoff = sec.number("inspection_standoff", default=5.0,
                                              units=LENGTH_UNITS, positive=True,
                                              maximum=MAX_CABLE_LENGTH)
        spec.tether_reach = sec.number("tether_reach", default=30.0,
                                       units=LENGTH_UNITS, positive=True)
        spec.confirm_radius = sec.number("confirm_radius", default=0.5,
                                         units=LENGTH_UNITS, positive=True)
        for obj in spec.objects:
            inside = (spec.area.x <= obj.position[0] <= spec.area.x + spec.area.width
                      and spec.area.y <= obj.position[1] <= spec.area.y + spec.area.height)
            if not inside:
                raise _err(f"{sec.path}.objects",
                           f"object {obj.object_id!r} lies outside the search area")
    elif kind == LOITER_MISSION:
        spec.point = sec.point("point", default=[0.0, 0.0])
    else:  # cruise
        spec.heading = sec.number("heading", default=0.0, units=ANGLE_UNITS)
        spec.speed = sec.number("speed", default=2.0, units=SPEED_UNITS,
                                positive=True)
    sec.finish()
    return spec


def parse_scenario(tree: dict, base_dir: Path | str = ".") -> Scenario:
    """Validate and convert an already-parsed YAML tree."""
    root = _Section(tree, "scenario")
    name, dt, duration, seed = _load_run(root.section("run"))
    water_density, damping, disturbances, terrain = _load_world(
        root.section("world"), Path(base_dir))
    asv_params, asv_initial = _load_asv(root.section("asv"))
    tuv_enabled, tuv_params, towline, tow_attach_x = _load_tuv(
        root.section("tuv"), water_density)
    hexapod_params = _load_hexapod(root.section("hexapod"))
    (heading_pid, speed_pid, sensors, ekf, cruise_speed,
     arrival_radius) = _load_controllers(root.section("controllers"),
                                         asv_params, dt)
    mission = _load_mission(root.section("mission"))
    root.finish()

    return Scenario(
        name=name, dt=dt, duration=duration, seed=seed,
        asv_params=asv_params, asv_initial=asv_initial,
        damping=damping, disturbances=disturbances, terrain=terrain,
        tuv_enabled=tuv_enabled, tuv_params=tuv_params, towline=towline,
        tow_attach_x=tow_attach_x,
        hexapod_params=hexapod_params,
        heading_pid=heading_pid, speed_pid=speed_pid,
        sensors=sensors, ekf=ekf,
        cruise_speed=cruise_speed, arrival_radius=arrival_radius,
        mission=mission)


def _nesting_bound(text: str) -> int:
    """An upper bound on the nesting depth of the YAML in `text`.

    A flow sequence needs a `[` and may hold one implicit single-pair
    mapping per level (`[a: [a: ...]]`), a flow mapping needs a `{`, and a
    block level needs a deeper column or a `- `/`? ` on its line, so it is
    bounded by the longest line; the `+ 1` is the scalar at the bottom.
    """
    longest = max(map(len, text.split("\n")))
    return 2 * text.count("[") + text.count("{") + longest + 1


def _parse_yaml(text: str, path: Path):
    loader = (_C_LOADER if _nesting_bound(text) <= MAX_C_NESTING
              else yaml.SafeLoader)
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        # the marks name the stream "<unicode string>": name the file
        detail = str(exc).replace('"<unicode string>"', f'"{path}"')
    except RecursionError:
        detail = "nested too deeply"
    except (ValueError, LookupError, AttributeError) as exc:
        # PyYAML's scalar constructors let these out on a malformed value
        # ("!!int abc", "2024-13-45", "!!bool x", "!!timestamp x", an
        # integer of more than 4300 digits)
        detail = f"{type(exc).__name__}: {exc}"
    raise ScenarioError(f"{path}: not valid YAML ({detail})")


def _read_tree(path: Path) -> dict:
    """The YAML mapping in the file at `path`."""
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the file "
                            f"({exc.strerror or exc})") from None
    tree = _parse_yaml(text, path)
    if tree is None:
        return {}
    if not isinstance(tree, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    return tree


def load_scenario(path) -> Scenario:
    """Parse a scenario file from disk."""
    path = Path(path)
    return parse_scenario(_read_tree(path), base_dir=path.parent)


def guidance_for_waypoint(scn: Scenario, target) -> GuidanceSetpoint:
    return GuidanceSetpoint(WAYPOINT, target, cruise_speed=scn.cruise_speed,
                            arrival_radius=scn.arrival_radius)


def guidance_for_loiter(scn: Scenario, point) -> GuidanceSetpoint:
    return GuidanceSetpoint(LOITER, point, cruise_speed=scn.cruise_speed,
                            arrival_radius=scn.arrival_radius)
