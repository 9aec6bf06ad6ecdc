"""Environmental disturbances and the seabed terrain map.

Wind acts on the surface vehicle as a quadratic drag on the air-relative
velocity, with a first-order Gauss-Markov gust riding on the mean speed.
Waves enter as a zero-mean sinusoidal sway force and yaw moment scaled by
wave height. Current is not a force: it offsets the water-relative velocity
inside the linear damping term (and the towed body's drag terms), so both
vehicles feel it consistently. A scenario with every field zeroed produces
exactly zero disturbance wrench, bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .asv import BodyWrench, VehicleState3DOF, ZERO_WRENCH
from .core import (NonFiniteInput, SeededRng, SimulationFault,
                   rotate_nav_to_body)

STREAM_GUST = 10

RHO_AIR = 1.225  # [kg/m^3]
WIND_CW_AW = 0.4  # hull drag coefficient times windage area [m^2]
WAVE_SWAY_GAIN = 8.0  # sway force per metre of wave height [N/m]
WAVE_YAW_GAIN = 4.0  # yaw moment per metre of wave height [N m/m]

SAND = "sand"
ROCK = "rock"
MUD = "mud"
TERRAIN_CLASSES = (SAND, ROCK, MUD)
_CHAR_TO_CLASS = {"s": SAND, "r": ROCK, "m": MUD}


class OutOfBounds(SimulationFault, ValueError):
    """Queried a point outside the terrain map."""


@dataclass
class DisturbanceField:
    mean_wind_speed: float = 0.0  # [m/s]
    wind_direction: float = 0.0  # direction the air moves toward [rad]
    gust_tau: float = 10.0  # gust correlation time [s]
    gust_fraction: float = 0.1  # gust sigma as a fraction of the mean speed
    wave_height: float = 0.0  # [m]
    wave_period: float = 4.0  # [s]
    current_speed: float = 0.0  # [m/s]
    current_direction: float = 0.0  # direction the water moves toward [rad]

    def is_calm(self) -> bool:
        return (self.mean_wind_speed == 0.0 and self.wave_height == 0.0
                and self.current_speed == 0.0)

    def current_nav(self) -> np.ndarray:
        """Water velocity in the navigation frame."""
        return self.current_speed * np.array(
            [math.cos(self.current_direction), math.sin(self.current_direction)])


class GustProcess:
    """First-order Gauss-Markov perturbation on the mean wind speed.

    Exact discretization: g_{k+1} = a g_k + sigma sqrt(1 - a^2) xi with
    a = exp(-dt / tau), which keeps the stationary variance at sigma^2 for
    any step size. tau and sigma are fixed at construction: the two
    per-step constants are computed once per step size. The noise xi is
    read through SeededRng.normal, a block-drawn standard normal per step.
    """

    def __init__(self, field: DisturbanceField, rng: SeededRng):
        self.tau = field.gust_tau
        self.sigma = field.gust_fraction * field.mean_wind_speed
        self._rng = rng
        self.value = 0.0
        self._dt = None  # the step size _a and _b were computed for
        self._a = self._b = 0.0

    def step(self, dt: float) -> float:
        if self.sigma == 0.0:
            return 0.0
        if dt != self._dt:
            a = math.exp(-dt / self.tau)
            self._a, self._b = a, self.sigma * math.sqrt(1.0 - a * a)
            self._dt = dt
        self.value = (self._a * self.value
                      + self._b * self._rng.normal(STREAM_GUST))
        return self.value


def disturbance_wrench(fld: DisturbanceField, state: VehicleState3DOF,
                       t: float, gust_value: float = 0.0) -> BodyWrench:
    """Wind and wave wrench on the surface vehicle at time t.

    Current is deliberately absent here; it belongs in the damping term.
    """
    if fld.is_calm():
        return ZERO_WRENCH

    X = Y = N = 0.0
    wind_speed = max(0.0, fld.mean_wind_speed + gust_value)
    if wind_speed > 0.0:
        wind_x = wind_speed * math.cos(fld.wind_direction)
        wind_y = wind_speed * math.sin(fld.wind_direction)
        # body->nav and back with one cos/sin (glibc's cos is even, sin odd)
        c, s = math.cos(state.psi), math.sin(state.psi)
        a = wind_x - (c * state.u - s * state.v)
        b = wind_y - (s * state.u + c * state.v)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteInput("disturbance_wrench requires finite inputs")
        rel_u, rel_v = c * a + s * b, c * b - s * a
        mag = math.hypot(rel_u, rel_v)
        X += 0.5 * RHO_AIR * WIND_CW_AW * mag * rel_u
        Y += 0.5 * RHO_AIR * WIND_CW_AW * mag * rel_v

    if fld.wave_height > 0.0:
        phase = 2.0 * math.pi * t / fld.wave_period
        Y += WAVE_SWAY_GAIN * fld.wave_height * math.sin(phase)
        N += WAVE_YAW_GAIN * fld.wave_height * math.sin(phase + math.pi / 3.0)

    return BodyWrench(X, Y, N)


@dataclass
class DampingCoeffs:
    """Linear hydrodynamic damping; zero by default so the bare rigid-body
    model stays conservative, configured per scenario for realistic hulls."""

    d11: float = 0.0  # surge [N s/m]
    d22: float = 0.0  # sway [N s/m]
    d33: float = 0.0  # yaw [N m s/rad]


def damping_wrench(state: VehicleState3DOF, coeffs: DampingCoeffs,
                   current_nav) -> BodyWrench:
    """Damping on the water-relative velocity (current enters here)."""
    cur_u, cur_v = rotate_nav_to_body(current_nav, state.psi)
    return BodyWrench(-coeffs.d11 * (state.u - cur_u),
                      -coeffs.d22 * (state.v - cur_v), -coeffs.d33 * state.r)


class TerrainMap:
    """Rectangular grid of terrain classes with a per-class depth table.

    Cells are half-open squares: a point maps to the cell containing it with
    the lower edge inclusive, so lookups are unambiguous on interior
    boundaries. Row 0 of the grid is the northernmost (largest y) row, the
    way the text file reads.
    """

    def __init__(self, grid: list[list[str]], cell_size: float,
                 origin=(0.0, 0.0), depths: dict | None = None):
        if not grid or not grid[0]:
            raise ValueError("terrain grid must be non-empty")
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise ValueError("terrain grid rows must have equal length")
            for cell in row:
                if cell not in TERRAIN_CLASSES:
                    raise ValueError(f"unknown terrain class {cell!r}")
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.grid = grid
        self.cell_size = float(cell_size)
        self.origin = (float(origin[0]), float(origin[1]))
        self.depths = {SAND: 5.0, ROCK: 6.0, MUD: 4.0}
        if depths:
            self.depths.update(depths)

    @property
    def n_rows(self) -> int:
        return len(self.grid)

    @property
    def n_cols(self) -> int:
        return len(self.grid[0])

    def terrain_at(self, point) -> tuple[str, float]:
        """(terrain class, depth) at a navigation-frame point."""
        x, y = float(point[0]), float(point[1])
        x0, y0 = self.origin
        col = math.floor((x - x0) / self.cell_size)
        row_from_south = math.floor((y - y0) / self.cell_size)
        row = self.n_rows - 1 - row_from_south
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            raise OutOfBounds(
                f"point ({x:.3f}, {y:.3f}) outside terrain map")
        cls = self.grid[row][col]
        return cls, self.depths[cls]

    @classmethod
    def uniform(cls, terrain: str, extent: float = 1000.0,
                origin=(-500.0, -500.0)) -> "TerrainMap":
        """Single-cell map covering a square region, for featureless scenarios."""
        return cls([[terrain]], cell_size=extent, origin=origin)


def _finite(text: str, path, lineno: int, what: str) -> float:
    """The finite number written as `text` on a terrain file header line."""
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: "
                         f"{text!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, "
                         f"got {text!r}")
    return number


def _ascii_lines(fh, path) -> list[str]:
    """The lines of `fh`, the file at `path` opened as ASCII text, split as
    iterating it would split them."""
    try:
        return fh.read().split("\n")
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            data = raw.read()
        first = re.search(rb"[\x80-\xff]", data).start()
        line = data.count(b"\n", 0, first) + 1
        raise ValueError(f"{path}:{line}: not ASCII text") from None


def load_terrain(path) -> TerrainMap:
    """Read a terrain map from a plain-text grid file.

    Format: 'key: value' header lines (cell_size, origin, depths), then a
    'grid:' line followed by one row of s/r/m characters per line, first
    line being the northernmost row. '#' lines are comments. A malformed
    file raises ValueError naming the file and line; an unreadable one,
    OSError.
    """
    cell_size = None
    origin = (0.0, 0.0)
    depths: dict[str, float] = {}
    rows: list[list[str]] = []
    in_grid = False
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(_ascii_lines(fh, path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if in_grid:
                try:
                    rows.append([_CHAR_TO_CLASS[ch] for ch in line])
                except KeyError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: unknown terrain character {exc.args[0]!r}"
                    ) from None
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"{path}:{lineno}: grid row of "
                                     f"{len(rows[-1])} cells, the first has "
                                     f"{len(rows[0])}")
                continue
            if line == "grid:":
                in_grid = True
                continue
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key == "cell_size":
                cell_size = _finite(value, path, lineno, "cell_size")
                if cell_size <= 0.0:
                    raise ValueError(f"{path}:{lineno}: cell_size must be "
                                     f"positive, got {value!r}")
            elif key == "origin":
                parts = value.split()
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: origin needs two numbers")
                origin = (_finite(parts[0], path, lineno, "origin"),
                          _finite(parts[1], path, lineno, "origin"))
            elif key == "depths":
                for item in value.split():
                    ch, _, depth = item.partition("=")
                    if ch not in _CHAR_TO_CLASS:
                        raise ValueError(f"{path}:{lineno}: unknown class {ch!r}")
                    depths[_CHAR_TO_CLASS[ch]] = _finite(depth, path, lineno,
                                                         "depth")
            else:
                raise ValueError(f"{path}:{lineno}: unknown header key {key!r}")
    if cell_size is None:
        raise ValueError(f"{path}: missing cell_size header")
    if not rows:
        raise ValueError(f"{path}: missing grid rows")
    return TerrainMap(rows, cell_size, origin, depths)
