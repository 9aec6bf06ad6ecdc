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
    return SearchPattern(waypoints, n_legs)


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


# the coverage grid settles cells before it tests any (see coverage_report)
_SETTLE_MARGIN = COVERAGE_CELL / 64  # [m]
_PIECE = 8 * COVERAGE_CELL  # [m] longest track piece, and a group's arc window
_GROUP = 8  # track pieces per group, at most
_WIDTH_STEPS = 8  # settled half-widths are whole 1/8 cells
_BLOCK = 1024  # elements per temporary array


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


def _segment_groups(a: np.ndarray, b: np.ndarray, length: np.ndarray,
                    origin: np.ndarray) -> tuple:
    """Cut the segments a -> b into pieces of at most _PIECE and gather runs
    of up to _GROUP consecutive pieces that start in one _PIECE window of
    track length into groups.

    Returns (seg, size, centre, extent, first_point): per group, the
    segment of each of its pieces (_GROUP columns, the last one repeated to
    fill the row), its number of pieces, the centre and half-sides of its
    pieces' bounding box, and its first piece's start point. Points are in
    cell units from origin, with the centre of cell (i, j) at (i, j).
    """
    arc = np.cumsum(length)
    arc -= length  # track length at each piece's start
    parent, p0, p1 = None, a, b
    if (length > _PIECE).any():
        count = (length / _PIECE).astype(np.int64) + 1
        parent = np.repeat(np.arange(len(a)), count)
        q = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
        n = count[parent]
        start = a[parent]
        d = b[parent] - start
        p0 = start + (q / n)[:, None] * d
        p1 = start + ((q + 1) / n)[:, None] * d
        arc = arc[parent] + q / n * length[parent]
    np.floor_divide(arc, _PIECE, out=arc)  # the window a piece starts in
    first = np.empty(len(p0), dtype=bool)
    first[0] = True
    np.not_equal(arc[1:], arc[:-1], out=first[1:])
    first[::_GROUP] = True
    gs = np.flatnonzero(first)
    ge = np.append(gs[1:], len(p0))
    seg = np.minimum(gs[:, None] + np.arange(_GROUP), ge[:, None] - 1)
    if parent is not None:
        seg = parent[seg]
    lo = (np.minimum(np.minimum.reduceat(p0, gs), np.minimum.reduceat(p1, gs))
          - origin) / COVERAGE_CELL - 0.5
    hi = (np.maximum(np.maximum.reduceat(p0, gs), np.maximum.reduceat(p1, gs))
          - origin) / COVERAGE_CELL - 0.5
    centre = 0.5 * (lo + hi)
    extent = np.maximum(hi - centre, centre - lo)
    return (seg, ge - gs, centre, extent,
            (p0[gs] - origin) / COVERAGE_CELL - 0.5)


def _disc_rows(u: np.ndarray, radius: np.ndarray, inward: bool, shape: tuple,
               squares: np.ndarray):
    """Each disc's cells of a grid as one cell interval per grid row.

    u holds the discs' centres in cell units, with the centre of cell (i, j)
    at (i, j), and radius their radii in cells. squares is the table
    (k / _WIDTH_STEPS)^2, against which each row's half-width is rounded
    down (inward: the interval lies in the disc) or up (it holds the disc's
    cells of the row). Yields, a block of discs at a time, (disc, base,
    start, stop) of every non-empty interval: the cells base + j of the
    grid's flat index, start <= j < stop.
    """
    span = int(2.0 * radius.max()) + 2  # rows a disc can touch
    step = max(1, _BLOCK // span)
    for k in range(0, len(u), step):
        disc, base, start, stop = _block_rows(
            u[k:k + step], radius[k:k + step, None], span, inward, shape,
            squares)
        yield disc + k, base, start, stop


def _block_rows(u: np.ndarray, r: np.ndarray, span: int, inward: bool,
                shape: tuple, squares: np.ndarray) -> tuple:
    """_disc_rows of one block of discs, r their radii as a column and span
    the rows each may touch."""
    nx, ny = shape
    ux, uy = u[:, 0:1], u[:, 1:2]
    rows = np.maximum(ux - r, 0.0).astype(np.int64) + np.arange(span)
    di = rows - ux
    w2 = r * r - di * di
    if inward:
        w = (np.searchsorted(squares, w2, "right") - 1) / _WIDTH_STEPS
        start = np.maximum(uy - w + 1.0, 0.0).astype(np.int64)  # >= ceil
    else:
        w = np.searchsorted(squares, w2, "left") / _WIDTH_STEPS
        start = np.maximum(uy - w, 0.0).astype(np.int64)  # floor, or 0
    stop = np.minimum((uy + w + 1.0).astype(np.int64), ny)  # floor + 1
    ok = (w2 >= 0.0) & (rows < nx) & (stop > start)
    return np.nonzero(ok)[0], rows[ok] * ny, start[ok], stop[ok]


def _band_pairs(band: np.ndarray, group: np.ndarray, base: np.ndarray,
                start: np.ndarray, stop: np.ndarray) -> tuple:
    """(cell, group) of every cell of the sorted flat band that lies in an
    interval of _disc_rows; an interval's band cells are a run of band."""
    run = np.searchsorted(band, base + start)
    n = np.searchsorted(band, base + stop) - run
    at = np.repeat(run - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
    return band[at], np.repeat(group, n)


def _disc_union(scratch: np.ndarray, u: np.ndarray, radius: np.ndarray,
                inward: bool, squares: np.ndarray) -> np.ndarray:
    """The cells of a union of discs (see _disc_rows) as a bool grid of
    scratch's shape; scratch is integer work space, overwritten."""
    scratch[...] = 0
    flat = scratch.reshape(-1)
    # each interval's stop, at its first cell; a running maximum along the
    # row then exceeds a cell's index exactly where an interval holds it
    for _, base, start, stop in _disc_rows(u, radius, inward, scratch.shape,
                                           squares):
        np.maximum.at(flat, base + start, stop.astype(scratch.dtype))
    np.maximum.accumulate(scratch, axis=1, out=scratch)
    return scratch > np.arange(scratch.shape[1])


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

    keep = lengths > 1e-12
    if not keep.any():  # a stationary track sweeps the disc around its point
        a, b, length = pts[:1], pts[:1] + 1e-9, np.array([1e-9])
    elif keep.all():  # views, so no copy of the track adds to the peak
        a, b, length = pts[:-1], pts[1:], lengths
    else:
        a, b, length = pts[:-1][keep], pts[1:][keep], lengths[keep]
    seg, size, centre, extent, first_point = _segment_groups(
        a, b, length, np.array([x_min, y_min]))

    # settle: the discs of radius half - margin around each group's start
    # are covered; cells beyond every group's reach (its radius, rounded up
    # to the table, plus half and the margin) are not
    reach = (half + _SETTLE_MARGIN) / cell
    # the table runs past every radius: a box's half-diagonal is at most
    # the sum of its half-sides
    top = _WIDTH_STEPS * (reach + float((extent[:, 0] + extent[:, 1]).max()))
    squares = (np.arange(int(top) + 2 * _WIDTH_STEPS) / _WIDTH_STEPS) ** 2
    radius = reach + np.searchsorted(squares, (extent * extent).sum(axis=1),
                                     "left") / _WIDTH_STEPS
    inner = (half - _SETTLE_MARGIN) / cell
    scratch = np.zeros((nx, ny), dtype=np.int16 if ny < 2 ** 15 else np.int32)
    if inner > 0.0:
        covered = _disc_union(scratch, first_point,
                              np.full(len(first_point), inner), True, squares)
    else:
        covered = np.zeros((nx, ny), dtype=bool)
    band = _disc_union(scratch, centre, radius, False, squares)
    del scratch
    band &= ~covered
    band = np.flatnonzero(band)  # the band's cells, as sorted flat indices

    # test: each band cell against the segments of every group reaching it
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    hh = half * half
    flat = covered.reshape(-1)
    chunk = _BLOCK // _GROUP
    for rows in _disc_rows(centre, radius, False, (nx, ny), squares):
        cells, groups = _band_pairs(band, *rows)
        for c in range(0, len(cells), chunk):
            f = cells[c:c + chunk]
            i = f // ny
            gx = (x_min + (i + 0.5) * cell)[:, None]
            gy = (y_min + (f - i * ny + 0.5) * cell)[:, None]
            g = groups[c:c + chunk]
            s = seg[g, :size[g].max()]  # the columns past size repeat
            sax, say, sl = ax[s], ay[s], length[s]
            sdx, sdy = bx[s] - sax, by[s] - say  # d = b - a, per test
            tpar = ((gx - sax) * sdx + (gy - say) * sdy) / (sl * sl)
            np.clip(tpar, 0.0, 1.0, out=tpar)
            dist2 = (gx - (sax + tpar * sdx)) ** 2 + (gy - (say + tpar * sdy)) ** 2
            flat[f[(dist2 <= hh).any(axis=1)]] = True
    return covered


def coverage_report(track: np.ndarray, swath: float, active_time: float,
                    detections: int = 0, confirmations: int = 0) -> dict:
    """Swept-area metrics for a ground track.

    The searched area is the union of swath-wide corridors around the track
    segments, measured on a 0.25 m occupancy grid (cell centres within half a
    swath of any segment count). Raises ValueError on an empty or non-finite
    track and on a swath or active_time that is not positive (NaN included),
    and CoverageTooLarge on a grid of more than MAX_COVERAGE_CELLS.

    The grid is that of testing each segment on its own box with the
    per-segment expression (projection parameter clipped to [0, 1], squared
    distance <= half^2), cell for cell, but most cells are settled without
    a test. Segments longer than 2 m are cut into pieces no longer than
    that, and runs of up to 8 consecutive pieces that start in one 2 m
    window of track length form groups. Settle: a cell whose centre lies
    within half - m of a group's first point is covered, and a cell farther
    than half + r + m from the centre of every group's box, r the group's
    radius rounded up to 1/8 cell, is out of reach; both sets are unions of
    discs, filled as one cell interval per grid row with half-widths
    rounded to 1/8 cell inward (covered) or outward (reach). Test: each
    cell left between the two is tested against the segments of every
    group that reaches it. The margin m is 1/64 of a cell (3.9 mm).

    The settled cells are those the tests would give for coordinates below
    about 1e12 m. There float spacing is at most 2^-13 m, m / 32, and each
    distance the settle step or the test computes, between a cell centre
    as x_min + (i + 0.5) * cell gives it and a track point or segment, is
    within a few spacings of the exact one (rounding relative to the
    distance itself is smaller still, below 1e-8 m on any grid of at most
    MAX_COVERAGE_CELLS). So a cell settled covered lies within half - m/2
    of a point on a segment and passes that segment's test, which its box
    holds; a cell out of reach lies farther than half + m/2 from every
    segment and fails every test. A segment's box reaches one cell below
    and two above its swath, so the centre of a cell outside it lies at
    least a cell and a half beyond the swath: testing a segment on a cell
    outside its box cannot hit, and skipping a covered cell cannot change
    an OR.
    """
    pts = np.asarray(track, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("empty run log: no track points to report on")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite track point {i}: {pts[i].tolist()}")
    if not (swath > 0.0 and active_time > 0.0):
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
