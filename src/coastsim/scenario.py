"""Scenario files: a single declarative YAML tree describing one run.

The loader is strict: every key is checked against the schema (unknown keys
are errors, never silently ignored), quantities may carry units as strings
("20 km/h", "45 deg", "10 min") and are converted to SI on load, and
cross-field constraints (objects inside the search area, sensor rates
compatible with the step size) are validated before the simulation starts.
`seed` is the one field with no default: runs must be reproducible on
purpose, not by accident.

`SCHEMA` is the single source of every number a scenario sets: a key's row
holds its default, unit table and bounds, and the loaders read numbers only
through it (`_Section.numbers`). The README's schema table is generated from
it, and a test checks the two row for row.

Files are parsed with libyaml's C parser (`yaml.CSafeLoader`) where PyYAML
was built with it. Both it and the pure-Python `yaml.SafeLoader` build the
tree with PyYAML's own constructor and resolver, so they give the same tree;
the one known difference is that libyaml accepts a tab after a mapping
colon (`a:\t1`), which the pure loader rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .asv import AsvParams, VehicleState3DOF
from .control import LOITER, WAYPOINT, GuidanceSetpoint, PidController
from .environment import (TERRAIN_CLASSES, DampingCoeffs, DisturbanceField,
                          TerrainMap, load_terrain)
from .hexapod import MAX_LINK_LENGTH, HexapodParams, LegGeometry, stand_legs
from .mission import COVERAGE_CELL, PlantedObject, SearchArea
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

# a lower bound of POSITIVE is open at zero; a number is a closed bound
POSITIVE = "positive"
# the coverage grid is the track's bounding box grown by the swath, in
# 0.25 m cells: a 1 km swath keeps the default 100 m area's grid near
# (1,100 m / 0.25 m)**2, about 19 M cells, and a swath below one cell is
# finer than the grid resolves
MAX_SWATH = 1000.0

# Every number a scenario sets, one row per key: (section, key, default,
# unit table, lower bound, upper bound). The section is the key's path in the
# tree (`mission:<kind>` for a mission kind's keys, `mission.objects[]` for
# each object's). A default of None makes the key optional; a bound of None
# is no bound. The README's schema table is this table, row for row.
SCHEMA = (
    ("run", "dt", 0.01, TIME_UNITS, POSITIVE, None),
    ("run", "duration", 600.0, TIME_UNITS, 0.0, None),
    ("world", "water_density", 1025.0, None, POSITIVE, None),
    ("world.damping", "d11", 12.0, None, 0.0, None),
    ("world.damping", "d22", 35.0, None, 0.0, None),
    ("world.damping", "d33", 8.0, None, 0.0, None),
    ("world.disturbances", "mean_wind_speed", 0.0, SPEED_UNITS, 0.0, None),
    ("world.disturbances", "wind_direction", 0.0, ANGLE_UNITS, None, None),
    ("world.disturbances", "gust_tau", 10.0, TIME_UNITS, POSITIVE, None),
    ("world.disturbances", "gust_fraction", 0.1, None, 0.0, None),
    ("world.disturbances", "wave_height", 0.0, LENGTH_UNITS, 0.0, None),
    ("world.disturbances", "wave_period", 4.0, TIME_UNITS, POSITIVE, None),
    ("world.disturbances", "current_speed", 0.0, SPEED_UNITS, 0.0, None),
    ("world.disturbances", "current_direction", 0.0, ANGLE_UNITS, None, None),
    ("world.terrain", "extent", 1000.0, LENGTH_UNITS, POSITIVE, None),
    ("world.terrain", "depth", None, LENGTH_UNITS, None, None),
    ("asv", "m11", 50.0, None, POSITIVE, None),
    ("asv", "m22", 60.0, None, POSITIVE, None),
    ("asv", "m33", 20.0, None, POSITIVE, None),
    ("asv", "thruster_half_spacing", 0.35, LENGTH_UNITS, POSITIVE, None),
    ("asv", "max_thrust", 40.0, None, POSITIVE, None),
    ("asv.initial", "x", 0.0, LENGTH_UNITS, None, None),
    ("asv.initial", "y", 0.0, LENGTH_UNITS, None, None),
    ("asv.initial", "psi", 0.0, ANGLE_UNITS, None, None),
    ("asv.initial", "u", 0.0, SPEED_UNITS, None, None),
    ("asv.initial", "v", 0.0, SPEED_UNITS, None, None),
    ("asv.initial", "r", 0.0, None, None, None),
    ("tuv", "m_b", 12.0, None, POSITIVE, None),
    ("tuv", "added_mass", 3.0, None, 0.0, None),
    ("tuv", "foil_area", 0.1, None, POSITIVE, None),
    ("tuv", "c_lift", 0.2, None, 0.0, None),
    ("tuv", "c_drag", 0.08, None, 0.0, None),
    ("tuv", "bluff_cda", 0.01, None, 0.0, None),
    ("tuv", "buoyancy_fraction", 0.98, None, 0.0, None),
    ("tuv.towline", "length", 30.0, LENGTH_UNITS, POSITIVE, MAX_CABLE_LENGTH),
    ("tuv.towline", "stiffness", 800.0, None, POSITIVE, None),
    ("tuv.towline", "damping", 50.0, None, 0.0, None),
    ("tuv.towline", "max_slew_rate", 0.5, SPEED_UNITS, POSITIVE, None),
    # 100 m is far beyond any hull; +-1e300 overflowed the tow coupling
    ("tuv.towline", "attach_x", -0.5, LENGTH_UNITS, -100.0, 100.0),
    ("hexapod.geometry", "l1", 0.08, LENGTH_UNITS, POSITIVE, MAX_LINK_LENGTH),
    ("hexapod.geometry", "l2", 0.12, LENGTH_UNITS, POSITIVE, MAX_LINK_LENGTH),
    ("hexapod.terrain_speeds", "sand", 0.2, SPEED_UNITS, POSITIVE, None),
    ("hexapod.terrain_speeds", "rock", 0.1, SPEED_UNITS, POSITIVE, None),
    ("hexapod.terrain_speeds", "mud", 0.15, SPEED_UNITS, POSITIVE, None),
    ("hexapod", "stride", 0.08, LENGTH_UNITS, POSITIVE, None),
    ("hexapod", "duty_factor", 0.5, None, 0.05, 0.95),
    ("hexapod", "h_lift", 0.03, LENGTH_UNITS, 0.0, None),
    ("hexapod", "max_turn_rate", 0.3, None, POSITIVE, None),
    ("hexapod", "home_radius", 0.16, LENGTH_UNITS, POSITIVE, None),
    ("hexapod", "home_height", -0.06, LENGTH_UNITS, None, None),
    ("controllers.heading_pid", "kp", 12.0, None, 0.0, None),
    ("controllers.heading_pid", "ki", 0.5, None, 0.0, None),
    ("controllers.heading_pid", "kd", 24.0, None, 0.0, None),
    ("controllers.speed_pid", "kp", 12.0, None, 0.0, None),
    ("controllers.speed_pid", "ki", 2.0, None, 0.0, None),
    ("controllers.speed_pid", "kd", 0.0, None, 0.0, None),
    ("controllers.sensors", "gps_rate", 1.0, None, POSITIVE, None),
    ("controllers.sensors", "compass_rate", 10.0, None, POSITIVE, None),
    ("controllers.sensors", "gyro_rate", 100.0, None, POSITIVE, None),
    # sigmas far beyond any sensor, far below 1.3e154 (its square overflows)
    ("controllers.sensors", "gps_sigma", 1.25, None, 0.0, 1000.0),
    ("controllers.sensors", "compass_sigma", 0.02, None, 0.0, 1000.0),
    ("controllers.sensors", "gyro_sigma", 0.005, None, 0.0, 1000.0),
    ("controllers.ekf", "gate_sigma", 5.0, None, POSITIVE, 1000.0),
    ("controllers", "cruise_speed", 2.0, SPEED_UNITS, POSITIVE, None),
    ("controllers", "arrival_radius", 2.0, LENGTH_UNITS, POSITIVE, None),
    ("mission.area", "x", 0.0, LENGTH_UNITS, None, None),
    ("mission.area", "y", 0.0, LENGTH_UNITS, None, None),
    ("mission.area", "width", 100.0, LENGTH_UNITS, POSITIVE, None),
    ("mission.area", "height", 100.0, LENGTH_UNITS, POSITIVE, None),
    ("mission:search", "swath", 10.0, LENGTH_UNITS, COVERAGE_CELL, MAX_SWATH),
    ("mission:search", "p_detect", 1.0, None, 0.0, 1.0),
    ("mission:search", "footprint", 5.0, LENGTH_UNITS, POSITIVE, None),
    ("mission:search", "position_sigma", 1.0, LENGTH_UNITS, 0.0, None),
    ("mission:search", "deploy_time", 5.0, TIME_UNITS, 0.0, None),
    ("mission:search", "recovery_radius", 3.0, LENGTH_UNITS, POSITIVE, None),
    # the winch pays the line out to this length at each find
    ("mission:search", "inspection_standoff", 5.0, LENGTH_UNITS, POSITIVE,
     MAX_CABLE_LENGTH),
    ("mission:search", "tether_reach", 30.0, LENGTH_UNITS, POSITIVE, None),
    ("mission:search", "confirm_radius", 0.5, LENGTH_UNITS, POSITIVE, None),
    ("mission.objects[]", "detectability_radius", 0.0, LENGTH_UNITS, 0.0,
     None),
    ("mission:cruise", "heading", 0.0, ANGLE_UNITS, None, None),
    ("mission:cruise", "speed", 2.0, SPEED_UNITS, POSITIVE, None),
)
# the rows of each section, in table order, without the section
_SECTIONS: dict[str, list] = {}
for _row in SCHEMA:
    _SECTIONS.setdefault(_row[0], []).append(_row[1:])

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


class _Section:
    """One mapping of the tree: typed reads with schema enforcement."""

    def __init__(self, mapping: dict, path: str):
        if mapping is not None and not isinstance(mapping, dict):
            raise _err(path, f"expected a mapping, got {type(mapping).__name__}")
        self.mapping = mapping or {}
        self.path = path
        self._read: set[str] = set()

    def finish(self):
        unknown = set(self.mapping) - self._read
        if unknown:
            # keys may mix types (`5: x`, `null: y`): order them as text
            raise _err(f"{self.path}.{sorted(unknown, key=str)[0]}",
                       f"unknown key; allowed keys are {sorted(self._read)}")

    def raw(self, key: str, default=None):
        self._read.add(key)
        return self.mapping.get(key, default)

    def numbers(self, group: str) -> dict:
        """The values of the `SCHEMA` rows of section `group`, by key, in
        row order. An absent key takes its default as it stands: each is an
        SI float within its bounds, or None."""
        values = {}
        for key, default, units, low, high in _SECTIONS[group]:
            self._read.add(key)
            raw = self.mapping.get(key)
            if raw is None:  # absent, or a null where None is the default
                if default is not None and key in self.mapping:
                    raise _err(f"{self.path}.{key}",
                               "required field is missing")
                values[key] = default
                continue
            path = f"{self.path}.{key}"
            value = _quantity(raw, path, units)
            if low is POSITIVE:
                if value <= 0.0:
                    raise _err(path, f"must be positive, got {value}")
            elif low is not None and value < low:
                raise _err(path, f"must be >= {low}, got {value}")
            if high is not None and value > high:
                raise _err(path, f"must be <= {high}, got {value}")
            values[key] = value
        return values

    def integer(self, key: str, default=None) -> int:
        raw = self.raw(key, default)
        if raw is None:
            raise _err(f"{self.path}.{key}", "required field is missing")
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise _err(f"{self.path}.{key}",
                       f"expected an integer, got {_shown(raw)}")
        return raw

    def boolean(self, key: str, default: bool) -> bool:
        raw = self.raw(key, default)
        if not isinstance(raw, bool):
            raise _err(f"{self.path}.{key}",
                       f"expected true/false, got {_shown(raw)}")
        return raw

    def string(self, key: str, default=None, choices=None) -> str:
        raw = self.raw(key, default)
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
        raw = self.raw(key, default)
        if raw is None:
            raise _err(f"{self.path}.{key}", "required field is missing")
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise _err(f"{self.path}.{key}", "expected a [x, y] pair")
        return np.array([_quantity(raw[0], f"{self.path}.{key}[0]", LENGTH_UNITS),
                         _quantity(raw[1], f"{self.path}.{key}[1]", LENGTH_UNITS)])

    def section(self, key: str) -> "_Section":
        self._read.add(key)
        return _Section(self.mapping.get(key), f"{self.path}.{key}")


@dataclass
class MissionSpec:
    """The mission; fields of the other kinds hold their `SCHEMA` defaults."""

    kind: str
    area: SearchArea | None
    swath: float
    entry: str
    objects: list
    p_detect: float
    footprint: float
    position_sigma: float
    deploy_time: float
    recovery_radius: float
    inspection_standoff: float
    tether_reach: float
    confirm_radius: float
    point: np.ndarray
    heading: float
    speed: float


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
    dt, duration = sec.numbers("run").values()
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
    extent, depth = uni.numbers("world.terrain").values()
    origin = uni.point("origin", default=[-extent / 2.0, -extent / 2.0])
    uni.finish()
    return TerrainMap.uniform(terrain, extent=extent, origin=tuple(origin),
                              depth=depth)


def _load_world(sec: _Section, base_dir: Path):
    water_density = sec.numbers("world")["water_density"]
    d = sec.section("damping")
    damping = DampingCoeffs(**d.numbers("world.damping"))
    d.finish()
    w = sec.section("disturbances")
    disturbances = DisturbanceField(**w.numbers("world.disturbances"))
    w.finish()
    terrain = _load_terrain_entry(sec, base_dir)
    sec.finish()
    return water_density, damping, disturbances, terrain


def _load_asv(sec: _Section):
    params = AsvParams(**sec.numbers("asv"))
    i = sec.section("initial")
    initial = VehicleState3DOF(**i.numbers("asv.initial"))
    i.finish()
    sec.finish()
    return params, initial


def _load_tuv(sec: _Section, water_density: float):
    enabled = sec.boolean("enabled", default=True)
    params = TuvParams(rho=water_density, **sec.numbers("tuv"))
    t = sec.section("towline")
    line = t.numbers("tuv.towline")
    length = line.pop("length")
    # tow point sits aft of the reference point: the moment arm weathervanes
    # the hull into the cable pull, which a CG attach cannot do
    attach_x = line.pop("attach_x")
    towline = Towline(unstretched_length=length, **line)
    t.finish()
    sec.finish()
    return enabled, params, towline, attach_x


def _load_hexapod(sec: _Section) -> HexapodParams:
    g = sec.section("geometry")
    geometry = LegGeometry(**g.numbers("hexapod.geometry"))
    g.finish()
    s = sec.section("terrain_speeds")
    for key in s.mapping:
        if key not in TERRAIN_CLASSES:
            raise _err(f"{s.path}.{key}", f"unknown terrain class; "
                                          f"expected {sorted(TERRAIN_CLASSES)}")
    params = HexapodParams(geometry=geometry,
                           terrain_speeds=s.numbers("hexapod.terrain_speeds"),
                           **sec.numbers("hexapod"))
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


def _load_pid(sec: _Section, group: str, output_limit: float) -> PidController:
    gains = sec.numbers(group)
    sec.finish()
    ki = gains["ki"]
    # bound the integral state so its term alone never exceeds half the
    # actuator authority — windup past that turns saturation into limit cycles
    integral_limit = 0.5 * output_limit / ki if ki > 0.0 else output_limit
    return PidController(kp=gains["kp"], ki=ki, kd=gains["kd"],
                         output_limits=(-output_limit, output_limit),
                         integral_limits=(-integral_limit, integral_limit))


def _load_controllers(sec: _Section, asv: AsvParams, dt: float):
    surge_limit = 2.0 * asv.max_thrust
    yaw_limit = 2.0 * asv.max_thrust * asv.thruster_half_spacing
    # the bare hull is directionally unstable at cruise speed (the sway-yaw
    # inertia coupling feeds back positively, ~0.25 u^2), so the heading loop
    # carries heavy rate feedback: its default gains keep the Routh test
    # stable through ~2.4 m/s
    heading_pid = _load_pid(sec.section("heading_pid"),
                            "controllers.heading_pid", yaw_limit)
    # the runner adds damping + winch-load feedforward, so the speed loop
    # only trims residuals; modest gains keep estimator jitter out of thrust
    speed_pid = _load_pid(sec.section("speed_pid"), "controllers.speed_pid",
                          surge_limit)

    s = sec.section("sensors")
    sensors = SensorConfig(**s.numbers("controllers.sensors"))
    s.finish()
    for label in ("gps_rate", "compass_rate", "gyro_rate"):
        try:
            sensors.period_steps(getattr(sensors, label), dt)
        except ValueError as exc:
            raise _err(f"{sec.path}.sensors.{label}", str(exc)) from None

    e = sec.section("ekf")
    q_raw = e.raw("q_psd")
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
    ekf = EkfParams(q_psd=q_psd, gps_sigma=sensors.gps_sigma,
                    compass_sigma=sensors.compass_sigma,
                    gyro_sigma=sensors.gyro_sigma,
                    **e.numbers("controllers.ekf"))
    e.finish()

    cruise_speed, arrival_radius = sec.numbers("controllers").values()
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
            **o.numbers("mission.objects[]"))
        o.finish()
        if obj.object_id in seen:
            raise _err(f"{path}[{i}].id", f"duplicate object id {obj.object_id!r}")
        seen.add(obj.object_id)
        objects.append(obj)
    return objects


def _load_mission(sec: _Section) -> MissionSpec:
    kind = sec.string("kind", default=SEARCH, choices=MISSION_KINDS)
    numbers = {key: default for group in ("mission:search", "mission:cruise")
               for key, default, *_ in _SECTIONS[group]}
    area, entry, objects, point = None, "sw", [], np.zeros(2)
    if kind == SEARCH:
        a = sec.section("area")
        area = SearchArea(**a.numbers("mission.area"))
        a.finish()
        numbers.update(sec.numbers("mission:search"))
        entry = sec.string("entry", default="sw",
                           choices=("sw", "se", "nw", "ne"))
        objects = _load_objects(sec.raw("objects"), f"{sec.path}.objects")
        for obj in objects:
            inside = (area.x <= obj.position[0] <= area.x + area.width
                      and area.y <= obj.position[1] <= area.y + area.height)
            if not inside:
                raise _err(f"{sec.path}.objects",
                           f"object {obj.object_id!r} lies outside the search area")
    elif kind == LOITER_MISSION:
        point = sec.point("point", default=[0.0, 0.0])
    else:  # cruise
        numbers.update(sec.numbers("mission:cruise"))
    sec.finish()
    return MissionSpec(kind=kind, area=area, entry=entry, objects=objects,
                       point=point, **numbers)


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
