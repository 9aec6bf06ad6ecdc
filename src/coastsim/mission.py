"""Mission orchestration: search pattern, detection, inspection, phases.

The mission runs PreMission -> WideAreaSearch <-> DetailedInspection ->
Retrieval -> Concluded as a deterministic reducer over world events; any other
phase edge is an error. Detection is geometric: the survey vehicle drags a
circular sensor footprint along its ground track, and each not-yet-detected
object gets one Bernoulli trial per pass (entering the footprint starts a
pass, leaving ends it). Reported positions are truth plus Gaussian noise.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SeededRng, SimulationFault

STREAM_DETECTION = 20
STREAM_ENV_SAMPLER = 21

COVERAGE_CELL = 0.25  # grid resolution for swept-area accounting [m]
MAX_COVERAGE_CELLS = 100_000_000  # 5x a 1 km swath on a 100 m area (19 M)

# the environmental sampler's synthetic water: per field a base value plus a
# linear gradient over nav-frame (x, y), as (base, d/dx, d/dy), and noise
SAMPLE_CADENCE = 5.0  # [s]
WATER_FIELDS = ((18.0, 0.005, 0.0),  # temperature [deg C], per m
                (5.0, 0.0, 0.01),  # turbidity [NTU], per m
                (33.0, 0.0, 0.0))  # salinity [PSU], per m
SAMPLE_NOISE_SIGMA = 0.05


class CoverageTooLarge(SimulationFault, ValueError):
    """A track (a diverged platform's) needs over MAX_COVERAGE_CELLS cells."""


class IllegalTransition(RuntimeError):
    def __init__(self, source: "MissionPhase", target: "MissionPhase"):
        super().__init__(f"illegal mission transition {source.name} -> {target.name}")
        self.source = source
        self.target = target


class MissionPhase(enum.Enum):
    PRE_MISSION = "pre_mission"
    WIDE_AREA_SEARCH = "wide_area_search"
    DETAILED_INSPECTION = "detailed_inspection"
    RETRIEVAL = "retrieval"
    CONCLUDED = "concluded"


LEGAL_EDGES = frozenset({
    (MissionPhase.PRE_MISSION, MissionPhase.WIDE_AREA_SEARCH),
    (MissionPhase.WIDE_AREA_SEARCH, MissionPhase.DETAILED_INSPECTION),
    (MissionPhase.DETAILED_INSPECTION, MissionPhase.WIDE_AREA_SEARCH),
    (MissionPhase.WIDE_AREA_SEARCH, MissionPhase.RETRIEVAL),
    (MissionPhase.DETAILED_INSPECTION, MissionPhase.RETRIEVAL),
    (MissionPhase.RETRIEVAL, MissionPhase.CONCLUDED),
})


@dataclass(frozen=True)
class SearchArea:
    """Axis-aligned rectangle, south-west corner at (x, y)."""

    x: float
    y: float
    width: float  # east extent [m]
    height: float  # north extent [m]

    def __post_init__(self):
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("search area needs positive width and height")

    def corner(self, name: str) -> np.ndarray:
        e = self.x + self.width
        n = self.y + self.height
        corners = {"sw": (self.x, self.y), "se": (e, self.y),
                   "nw": (self.x, n), "ne": (e, n)}
        if name not in corners:
            raise ValueError(f"unknown corner {name!r}, expected sw/se/nw/ne")
        return np.array(corners[name], dtype=float)


@dataclass
class SearchPattern:
    area: SearchArea
    swath: float  # [m]
    waypoints: list  # ordered boustrophedon vertices, (2,) arrays
    n_legs: int


def generate_lawnmower(area: SearchArea, swath: float,
                       entry: str = "sw") -> SearchPattern:
    """Boustrophedon pattern: ceil(width / swath) legs parallel to the longer
    side, spaced evenly (never more than a swath apart) and inset half a
    spacing from the edges, ordered snake-wise from the entry corner.
    """
    if swath <= 0.0:
        raise ValueError("swath must be positive")
    entry_pt = area.corner(entry)  # validates the corner name

    legs_along_x = area.width >= area.height  # legs run along the longer side
    across = area.height if legs_along_x else area.width
    n_legs = max(1, math.ceil(across / swath))
    spacing = across / n_legs

    if legs_along_x:
        lo, hi = area.x, area.x + area.width
        offsets = [area.y + (i + 0.5) * spacing for i in range(n_legs)]
        make = lambda along, off: np.array([along, off])
        near_start = abs(entry_pt[0] - lo) <= abs(entry_pt[0] - hi)
        near_first = abs(entry_pt[1] - offsets[0]) <= abs(entry_pt[1] - offsets[-1])
    else:
        lo, hi = area.y, area.y + area.height
        offsets = [area.x + (i + 0.5) * spacing for i in range(n_legs)]
        make = lambda along, off: np.array([off, along])
        near_start = abs(entry_pt[1] - lo) <= abs(entry_pt[1] - hi)
        near_first = abs(entry_pt[0] - offsets[0]) <= abs(entry_pt[0] - offsets[-1])

    if not near_first:
        offsets.reverse()
    waypoints = []
    forward = near_start
    for off in offsets:
        ends = (make(lo, off), make(hi, off)) if forward else (make(hi, off), make(lo, off))
        waypoints.extend(ends)
        forward = not forward
    return SearchPattern(area, swath, waypoints, n_legs)


@dataclass
class PlantedObject:
    object_id: str
    position: np.ndarray  # (2,) true location [m]
    object_class: str = "other"  # weapon / clothing / device / other
    detectability_radius: float = 0.0  # extra reach for conspicuous objects [m]

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class DetectionEvent:
    object_id: str
    vehicle: str  # which platform made the detection
    t: float
    position: np.ndarray  # reported (noisy) location [m]

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


class SweepSensor:
    """Per-pass Bernoulli detection along a vehicle's ground track.

    An object inside max(footprint, its detectability radius) of the vehicle
    is "in pass"; the single trial for that pass happens on entry. Re-entering
    after leaving grants a fresh trial. Reported positions get isotropic
    Gaussian noise.
    """

    def __init__(self, objects: list[PlantedObject], footprint: float,
                 p_detect: float, position_sigma: float, rng: SeededRng,
                 vehicle: str = "tuv"):
        if not 0.0 <= p_detect <= 1.0:
            raise ValueError(f"p_detect must be a probability, got {p_detect}")
        if footprint <= 0.0:
            raise ValueError("footprint must be positive")
        self.objects = list(objects)
        self.footprint = footprint
        self.p_detect = p_detect
        self.position_sigma = position_sigma
        self.vehicle = vehicle
        self._gen = rng.stream(STREAM_DETECTION)
        self._in_pass: set[str] = set()
        self.detected: dict[str, DetectionEvent] = {}

    def sweep(self, vehicle_pos, t: float) -> list[DetectionEvent]:
        """Advance one step; returns new detections made at this instant."""
        px, py = float(vehicle_pos[0]), float(vehicle_pos[1])
        events = []
        for obj in self.objects:
            if obj.object_id in self.detected:
                continue
            reach = max(self.footprint, obj.detectability_radius)
            inside = math.hypot(float(obj.position[0]) - px,
                                float(obj.position[1]) - py) <= reach
            if inside and obj.object_id not in self._in_pass:
                self._in_pass.add(obj.object_id)
                if self._gen.random() < self.p_detect:
                    reported = obj.position + self.position_sigma * self._gen.standard_normal(2)
                    ev = DetectionEvent(obj.object_id, self.vehicle, t, reported)
                    self.detected[obj.object_id] = ev
                    events.append(ev)
            elif not inside:
                self._in_pass.discard(obj.object_id)
        return events


@dataclass
class MissionState:
    phase: MissionPhase = MissionPhase.PRE_MISSION
    queue: list = field(default_factory=list)  # pending DetectionEvents
    current_target: Optional[DetectionEvent] = None
    pattern_complete: bool = False


@dataclass
class WorldEvents:
    """One step's worth of facts the reducer decides on."""

    deployment_complete: bool = False
    at_leg_boundary: bool = False
    pattern_complete: bool = False
    new_detections: list = field(default_factory=list)
    target_processed: bool = False  # current inspection confirmed or abandoned
    vehicles_recovered: bool = False
    reference_position: Optional[np.ndarray] = None  # for nearest-first pick


def transition(state: MissionState, target: MissionPhase) -> MissionState:
    """Move to a new phase; anything off the legal edge list raises."""
    if (state.phase, target) not in LEGAL_EDGES:
        raise IllegalTransition(state.phase, target)
    return dataclasses.replace(state, phase=target)


def _pop_nearest(queue: list, reference) -> DetectionEvent:
    if reference is None:
        return queue.pop(0)
    rx, ry = float(reference[0]), float(reference[1])
    idx = min(range(len(queue)),
              key=lambda i: math.hypot(float(queue[i].position[0]) - rx,
                                       float(queue[i].position[1]) - ry))
    return queue.pop(idx)


def mission_step(state: MissionState, ev: WorldEvents) -> MissionState:
    """Deterministic phase reducer; returns the (possibly unchanged) state."""
    state = dataclasses.replace(
        state, queue=state.queue + list(ev.new_detections),
        pattern_complete=state.pattern_complete or ev.pattern_complete)

    if state.phase is MissionPhase.PRE_MISSION:
        if ev.deployment_complete:
            return transition(state, MissionPhase.WIDE_AREA_SEARCH)
        return state

    if state.phase is MissionPhase.WIDE_AREA_SEARCH:
        # inspect queued contacts at leg boundaries (or when the pattern is
        # done); nearest contact first
        boundary = ev.at_leg_boundary or state.pattern_complete
        if state.queue and boundary:
            state = transition(state, MissionPhase.DETAILED_INSPECTION)
            target = _pop_nearest(state.queue, ev.reference_position)
            return dataclasses.replace(state, current_target=target)
        if state.pattern_complete and not state.queue:
            return transition(state, MissionPhase.RETRIEVAL)
        return state

    if state.phase is MissionPhase.DETAILED_INSPECTION:
        if not ev.target_processed:
            return state
        state = dataclasses.replace(state, current_target=None)
        if state.queue:
            target = _pop_nearest(state.queue, ev.reference_position)
            return dataclasses.replace(state, current_target=target)
        if state.pattern_complete:
            return transition(state, MissionPhase.RETRIEVAL)
        return transition(state, MissionPhase.WIDE_AREA_SEARCH)

    if state.phase is MissionPhase.RETRIEVAL:
        if ev.vehicles_recovered:
            return transition(state, MissionPhase.CONCLUDED)
        return state

    return state  # concluded: terminal


@dataclass
class EnvironmentalSample:
    t: float
    position: np.ndarray
    temperature: float  # [deg C]
    turbidity: float  # [NTU]
    salinity: float  # [PSU]

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


class EnvironmentalSampler:
    """Synthetic water-quality logger: smooth spatial gradients plus noise,
    sampled every SAMPLE_CADENCE seconds in every phase until the mission
    concludes."""

    def __init__(self, rng: SeededRng):
        self._gen = rng.stream(STREAM_ENV_SAMPLER)
        self._last_sample_t: Optional[float] = None

    def maybe_sample(self, t: float, position) -> Optional[EnvironmentalSample]:
        if (self._last_sample_t is not None
                and t - self._last_sample_t < SAMPLE_CADENCE - 1e-9):
            return None
        self._last_sample_t = t
        pos = np.asarray(position, dtype=float)
        x, y = pos.tolist()
        noise = self._gen.standard_normal(3) * SAMPLE_NOISE_SIGMA
        temperature, turbidity, salinity = (
            base + (gx * x + gy * y) + n
            for (base, gx, gy), n in zip(WATER_FIELDS, noise))
        return EnvironmentalSample(t, pos, temperature, max(0.0, turbidity),
                                   salinity)


# the coverage grid tests up to _COVER_CHUNK consecutive segments together,
# with at most _COVER_ELEMENTS (segment, cell) pairs per temporary array
_COVER_CHUNK = 32
_COVER_ELEMENTS = 8192


def _grid_shape(pts: np.ndarray, half: float) -> tuple:
    """(x_min, y_min, nx, ny) of the coverage grid of a track swept half a
    swath either side, or CoverageTooLarge; in float arithmetic, so a track
    too wide for the grid raises no numpy overflow warning."""
    (x_lo, y_lo), (x_hi, y_hi) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    x_min, y_min = x_lo - half, y_lo - half
    x_cells = (x_hi + half - x_min) / COVERAGE_CELL
    y_cells = (y_hi + half - y_min) / COVERAGE_CELL
    # nx <= x_cells + 1 and ny <= y_cells + 1; an inf span fails here too
    if not (x_cells + 1.0) * (y_cells + 1.0) <= MAX_COVERAGE_CELLS:
        raise CoverageTooLarge(f"coverage grid of {x_cells:.3g} x {y_cells:.3g} "
                               f"cells exceeds {MAX_COVERAGE_CELLS} cells")
    return x_min, y_min, max(1, math.ceil(x_cells)), max(1, math.ceil(y_cells))


def _covered_grid(pts: np.ndarray, lengths: np.ndarray,
                  half: float) -> np.ndarray:
    """Occupancy grid of the track's swept corridor (see coverage_report).

    lengths are the segment lengths, np.linalg.norm(pts[1:] - pts[:-1],
    axis=1); half is half the swath. Cell (i, j) has its centre at
    (x_min + (i + 0.5) * cell, y_min + (j + 0.5) * cell), where x_min and
    y_min are the track's least coordinates less half.
    """
    cell = COVERAGE_CELL
    x_min, y_min, nx, ny = _grid_shape(pts, half)
    covered = np.zeros((nx, ny), dtype=bool)

    keep = lengths > 1e-12
    if keep.any():
        a, b, length = pts[:-1][keep], pts[1:][keep], lengths[keep]
    else:  # a stationary track sweeps the disc around its point
        a, b, length = pts[:1], pts[:1] + 1e-9, np.array([1e-9])
    d = b - a
    # each segment's own box: cells within half a swath of it, plus a
    # margin of one cell below and two above
    lo_x = np.maximum(0, ((np.minimum(a[:, 0], b[:, 0]) - half - x_min)
                          / cell).astype(np.int64) - 1)
    hi_x = np.minimum(nx, ((np.maximum(a[:, 0], b[:, 0]) + half - x_min)
                           / cell).astype(np.int64) + 2)
    lo_y = np.maximum(0, ((np.minimum(a[:, 1], b[:, 1]) - half - y_min)
                          / cell).astype(np.int64) - 1)
    hi_y = np.minimum(ny, ((np.maximum(a[:, 1], b[:, 1]) + half - y_min)
                           / cell).astype(np.int64) + 2)
    area = (hi_x - lo_x) * (hi_y - lo_y)  # never empty: lo < nx, hi > lo
    # per-segment operands as columns, to broadcast against a row of cells
    ax, ay = a[:, 0:1], a[:, 1:2]
    dx, dy = d[:, 0:1], d[:, 1:2]
    l2 = (length * length)[:, None]
    hh = half * half

    chunks = [(j, min(j + _COVER_CHUNK, len(a)))
              for j in range(0, len(a), _COVER_CHUNK)]
    while chunks:
        j, k = chunks.pop()
        x0, x1 = lo_x[j:k].min(), hi_x[j:k].max()
        y0, y1 = lo_y[j:k].min(), hi_y[j:k].max()
        if k - j > 1 and (k - j) * (x1 - x0) * (y1 - y0) > 2 * area[j:k].sum():
            # spread-out segments (long ones, or a sparse track): testing
            # each on the whole union box would cost more than twice testing
            # each on its own box, so split the run in two
            m = (j + k) // 2
            chunks += [(j, m), (m, k)]
            continue
        view = covered[x0:x1, y0:y1]
        ix, iy = np.nonzero(~view)
        xs = x_min + (np.arange(x0, x1) + 0.5) * cell
        ys = y_min + (np.arange(y0, y1) + 0.5) * cell
        sax, say, sdx, sdy, sl2 = ax[j:k], ay[j:k], dx[j:k], dy[j:k], l2[j:k]
        batch = max(1, _COVER_ELEMENTS // (k - j))
        for c in range(0, len(ix), batch):
            cx, cy = ix[c:c + batch], iy[c:c + batch]
            gx, gy = xs[cx], ys[cy]
            tpar = ((gx - sax) * sdx + (gy - say) * sdy) / sl2
            np.clip(tpar, 0.0, 1.0, out=tpar)
            dist2 = (gx - (sax + tpar * sdx)) ** 2 + (gy - (say + tpar * sdy)) ** 2
            hit = (dist2 <= hh).any(axis=0)
            view[cx[hit], cy[hit]] = True
    return covered


def coverage_report(track: np.ndarray, swath: float, active_time: float,
                    detections: int = 0, confirmations: int = 0) -> dict:
    """Swept-area metrics for a ground track.

    The searched area is the union of swath-wide corridors around the track
    segments, measured on a 0.25 m occupancy grid (cell centres within half a
    swath of any segment count). Raises on an empty or non-finite track, and
    CoverageTooLarge on a grid of more than MAX_COVERAGE_CELLS.

    The grid is filled a chunk of consecutive segments at a time: each
    chunk tests every still-uncovered cell of the union of its segments'
    boxes against all of them, with the per-segment expression (projection
    parameter clipped to [0, 1], squared distance <= half^2). That gives the
    grid that testing each segment on its own box gives, cell for cell: a
    segment's box reaches one cell below and two above its swath, so the
    centre of a cell outside it lies at least a cell and a half beyond the
    swath and the test cannot hit it (for coordinates whose float spacing is
    far below a cell, i.e. below about 1e12 m); and skipping a covered cell
    cannot change an OR.
    """
    pts = np.asarray(track, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("empty run log: no track points to report on")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite track point {i}: {pts[i].tolist()}")
    if swath <= 0.0 or active_time <= 0.0:
        raise ValueError("swath and active_time must be positive")

    _grid_shape(pts, 0.5 * swath)  # a too large grid faults before any length
    lengths = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    distance = float(lengths.sum())
    covered = _covered_grid(pts, lengths, 0.5 * swath)

    area = float(covered.sum()) * COVERAGE_CELL * COVERAGE_CELL
    return {
        "area_searched": area,  # [m^2]
        "area_per_hour": area * 3600.0 / active_time,  # [m^2/h]
        "distance_traveled": distance,  # [m]
        "detections": detections,
        "confirmations": confirmations,
    }
