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
    waypoints: list  # ordered boustrophedon vertices, (2,) arrays, two a leg


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
    return SearchPattern(waypoints)


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
        """Advance one step to time t; returns new detections made at this
        instant (the caller logs them at t: an event holds no time)."""
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
                    ev = DetectionEvent(obj.object_id, self.vehicle, reported)
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
        return EnvironmentalSample(pos, temperature, max(0.0, turbidity),
                                   salinity)


# coverage_report settles cells by row spans of chord pieces' capsules
_SETTLE_MARGIN = COVERAGE_CELL / 64  # [m]
_RUN = 32  # segments per chord piece, at most
_DEVIATION = COVERAGE_CELL / 2  # [m] farthest a piece's vertex lies off its chord
_ROOTS = np.array([math.sqrt(k / 4096) for k in range(4098)])  # see _row_spans
_BLOCK = 512  # elements per temporary array; segments per block, 8 * _BLOCK


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


def _ragged(count: np.ndarray):
    """(owner, k) of every 0 <= k < count[owner], _BLOCK pairs at a time."""
    end = np.cumsum(count)
    for lo in range(0, int(end[-1]) if len(end) else 0, _BLOCK):
        flat = np.arange(lo, min(lo + _BLOCK, int(end[-1])))
        owner = np.searchsorted(end, flat, "right")
        yield owner, flat - end[owner] + count[owner]


def _segment_blocks(pts: np.ndarray, lengths: np.ndarray, bounds: np.ndarray):
    """(a, b, length) of the segments a -> b longer than 1e-12 m of each
    stretch pts[bounds[k]:bounds[k + 1]], 8 * _BLOCK at a time; a stretch
    with none sweeps the disc around its first point."""
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        a, b, length = pts[lo:hi - 1], pts[lo + 1:hi], lengths[lo:hi - 1]
        keep = length > 1e-12
        if not keep.any():
            a, b, length = pts[lo:lo + 1], pts[lo:lo + 1] + 1e-9, np.array([1e-9])
        elif not keep.all():  # else views: no copy of the track adds to the peak
            a, b, length = a[keep], b[keep], length[keep]
        for k in range(0, len(length), 8 * _BLOCK):
            yield a[k:k + 8 * _BLOCK], b[k:k + 8 * _BLOCK], length[k:k + 8 * _BLOCK]


def _chord_pieces(a: np.ndarray, b: np.ndarray) -> tuple:
    """(first, last, dev2) of the pieces of the consecutive segments a -> b:
    runs first <= k < last of up to _RUN, each halved until every vertex
    a[k] of it lies within _DEVIATION of its chord a[first] -> b[last - 1],
    and the largest squared distance dev2 of a vertex from it [m^2]."""
    first = np.arange(0, len(a), _RUN)
    last = np.minimum(first + _RUN, len(a))
    pieces = []
    while len(first):
        n = last - first - 1  # the vertices past each run's first
        run = np.repeat(np.arange(len(first)), n)
        v = a[np.arange(len(run)) - np.repeat(np.cumsum(n) - n - first - 1, n)]
        v -= a[first[run]]
        d = b[last - 1][run] - a[first[run]]
        dd = (d * d).sum(axis=1)
        t = np.divide((v * d).sum(axis=1), dd, out=np.zeros(len(dd)),
                      where=dd > 0.0)  # a closed run's chord is a point
        v -= np.clip(t, 0.0, 1.0)[:, None] * d
        dev2 = np.zeros(len(first))
        np.maximum.at(dev2, run, (v * v).sum(axis=1))
        off = dev2 > _DEVIATION ** 2
        pieces.append((first[~off], last[~off], dev2[~off]))
        mid = (first + last) // 2
        first, last = np.append(first[off], mid[off]), np.append(mid[off], last[off])
    return tuple(np.concatenate(column) for column in zip(*pieces))


def _row_spans(i: np.ndarray, chord: np.ndarray) -> tuple:
    """(lo, hi) of the cells lo <= j <= hi of each grid row i within r of a
    chord row (ax, ay, dx, dy, slope, r, c, h) (see _covered_intervals), r
    in column 0 rounded inward and in column 1 outward: a capsule is the
    hull of its end discs, so a span ends on a disc's chord of the row or
    where the row crosses a side, r off the chord."""
    u = i[:, None] - chord[:, 0:1]
    ay, dx, dy, slope = (chord[:, k:k + 1] for k in range(1, 5))
    r, c, h = np.maximum(chord[:, 5:7], 1e-3), chord[:, 7:9], chord[:, 9:11]
    lo, hi = np.full(r.shape, np.inf), np.full(r.shape, -np.inf)
    for y, x in ((ay, u), (ay + dy, u - dx)):  # the end discs
        w2 = np.maximum(r * r - x * x, 0.0)
        # a disc's half-width: one Newton step from the _ROOTS entry above
        # it stays above it (the mean of w and w2 / w is at least their
        # geometric mean), and w2 over it stays below
        w = r * _ROOTS[(w2 / (r * r) * 4096.0).astype(np.int64) + 1]
        w = 0.5 * (w + w2 / w)
        w[:, 0] = w2[:, 0] / w[:, 0]
        w[r * r < x * x] = -np.inf
        np.maximum(hi, y + w, out=hi)
        np.minimum(lo, y - w, out=lo)
    for sign, span, edge in ((1.0, hi, np.maximum), (-1.0, lo, np.minimum)):
        q = u + sign * c  # the row's place along the side, 0 at its start
        y = ay + q * slope + sign * h
        y[(q < 0.0) | (q > dx)] = -sign * np.inf
        edge(span, y, out=span)
    return lo, hi


def _union(start: np.ndarray, stop: np.ndarray, new_start: np.ndarray,
           new_stop: np.ndarray) -> tuple:
    """The sorted, disjoint intervals start <= f < stop merged with the
    intervals new_start <= f < new_stop."""
    order = np.argsort(new_start)
    at = np.searchsorted(start, new_start[order])
    start = np.insert(start, at, new_start[order])
    stop = np.maximum.accumulate(np.insert(stop, at, new_stop[order]))
    head = np.append(True, start[1:] > stop[:-1])  # a new interval starts
    return start[head], stop[np.append(head[1:], True)]


def _covered_intervals(pts: np.ndarray, lengths: np.ndarray, half: float,
                       bounds: np.ndarray) -> tuple:
    """The covered cells of the coverage grid (see coverage_report) as
    sorted, disjoint flat intervals start <= i * ny + j < stop of cells
    (i, j), whose centres are at (x_min + (i + 0.5) * cell, y_min + (j +
    0.5) * cell); bounds are the stretches' first points, then len(pts)."""
    cell = COVERAGE_CELL
    x_min, y_min, nx, ny = _grid_shape(pts, half)
    # an empty union closed by a sentinel: the interval that may hold a
    # cell is the first one that stops past it
    start = stop = np.array([nx * ny], dtype=np.int32)
    for a, b, length in _segment_blocks(pts, lengths, bounds):
        first, last, dev2 = _chord_pieces(a, b)
        # each piece's chord in cells, the centre of cell (i, j) at (i, j),
        # run toward +x: from (ax, ay) by (dx, dy); slope = dy / dx (0 where
        # dx is so small that a side meets a row only where an end disc
        # does), r the inner and outer radius, (c, h) = r (dy, dx) / length
        p0 = (a[first] - [x_min, y_min]) / cell - 0.5
        d = (b[last - 1] - a[first]) / cell
        back = d[:, 0] < 0.0
        p0[back] += d[back]
        d[back] = -d[back]
        dev = _DEVIATION * _ROOTS[(dev2 / _DEVIATION ** 2 * 4096).astype(np.int64) + 1]
        dev += _SETTLE_MARGIN  # dev at least the vertices' distance, plus m
        r = (half + np.column_stack([-dev, dev])) / cell
        size = np.linalg.norm(d, axis=1)[:, None]
        chord = np.column_stack([
            p0, d, np.divide(d[:, 1:], d[:, :1], out=np.zeros_like(size),
                             where=d[:, :1] > 1e-200),
            r, *(np.divide(r * e, size, out=np.zeros_like(r), where=size > 0.0)
                 for e in (d[:, 1:], d[:, :1]))])
        row = np.maximum(p0[:, 0] - r[:, 1] + 1.0, 0.0).astype(np.int64)
        end = np.minimum(p0[:, 0] + d[:, 0] + r[:, 1] + 1.0, nx).astype(np.int64)
        for p, k in _ragged(np.maximum(end - row, 0)):  # each piece's rows
            i = row[p] + k
            lo, hi = _row_spans(i, chord[p])
            lo = np.clip(lo + 1.0, 0.0, ny).astype(np.int64)  # >= ceil
            hi = np.clip(hi + 1.0, 0.0, ny).astype(np.int64)  # floor + 1
            # settle the inner span; test the outer span's cells outside it
            lo[:, 1] = np.minimum(lo[:, 1], hi[:, 1])
            lo[:, 0] = np.clip(lo[:, 0], lo[:, 1], hi[:, 1])
            hi[:, 0] = np.clip(hi[:, 0], lo[:, 0], hi[:, 1])
            empty = (hi[:, 0] == lo[:, 0]) | (chord[p, 5] <= 0.0)
            lo[empty, 0] = hi[empty, 0] = hi[empty, 1]
            flat = i * ny
            start, stop = _union(start, stop, (flat + lo[:, 0])[~empty],
                                 (flat + hi[:, 0])[~empty])
            below = lo[:, 0] - lo[:, 1]
            for q, n in _ragged(below + hi[:, 1] - hi[:, 0]):
                f = flat[q] + np.where(n < below[q], lo[q, 1] + n,
                                       hi[q, 0] + n - below[q])
                untested = start[np.searchsorted(stop, f, "right")] > f
                q, f = q[untested], f[untested]
                hit = np.zeros(len(f), dtype=bool)
                for t, n in _ragged((last - first)[p[q]]):
                    s = first[p[q[t]]] + n  # each cell's piece's segments
                    gx = x_min + (i[q[t]] + 0.5) * cell
                    gy = y_min + (f[t] - flat[q[t]] + 0.5) * cell
                    sax, say, sl = a[s, 0], a[s, 1], length[s]
                    sdx, sdy = b[s, 0] - sax, b[s, 1] - say  # d = b - a, per test
                    tpar = ((gx - sax) * sdx + (gy - say) * sdy) / (sl * sl)
                    np.clip(tpar, 0.0, 1.0, out=tpar)
                    dist2 = (gx - (sax + tpar * sdx)) ** 2 + (gy - (say + tpar * sdy)) ** 2
                    hit[t[dist2 <= half * half]] = True
                start, stop = _union(start, stop, f[hit], f[hit] + 1)
    real = start < nx * ny  # all but the sentinel, if it stands alone
    return start[real], stop[real]


def coverage_report(track: np.ndarray, swath: float, active_time: float,
                    breaks=()) -> dict:
    """Swept-area metrics for a ground track.

    The searched area is the union of swath-wide corridors around the track
    segments, measured on a 0.25 m occupancy grid (cell centres within half a
    swath of any segment count). breaks are the indices where later search
    stretches start: the segment into each one is neither swept nor
    travelled, and a stretch that holds one spot sweeps the disc around it.
    Raises ValueError on an empty or non-finite track, on breaks that are not
    increasing indices inside it and on a swath or active_time that is not
    positive (NaN included), and CoverageTooLarge on a grid of more than
    MAX_COVERAGE_CELLS, before anything is allocated.

    The cells are those of testing each segment with the per-segment
    expression (projection parameter clipped to [0, 1], squared distance <=
    half^2), but no grid is stored and most cells are settled untested.
    Each stretch's runs of up to 32 segments are halved until every vertex
    lies within 1/2 cell of the run's chord (first point to last); dev is
    the vertices' largest distance from it, rounded up. Every segment of
    the piece then lies within dev of the chord, and every chord point
    within dev of a segment (the path from end to end crosses each normal
    of the chord). A capsule is convex, so per grid row the cells within
    half - dev - m of the chord are one span, covered, and those beyond
    half + dev + m lie outside another, uncovered; between the two, cells
    no span holds yet are tested against the piece's own segments. Spans
    and hits merge as flat index intervals; the margin m is 1/64 cell.

    The settled cells are those the tests would give for coordinates below
    about 1e12 m. There float spacing is at most 2^-13 m, m / 32, and each
    distance the test computes, from a cell centre as x_min + (i + 0.5) *
    cell gives it to a segment, is within a few spacings of the exact one;
    the spans are computed in cells from the grid's corner, at most 1e8 of
    them, where rounding (dropped segments, each under 1e-12 m, included)
    moves a span's end by less than 1e-6 cell. So a settled cell lies within
    half - m/2 of a segment and passes its test, a cell outside a piece's
    outer span lies farther than half + m/2 from each of its segments, and
    each covered cell is settled or tested in its segment's piece.
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
    bounds = np.concatenate([[0], np.asarray(breaks, dtype=np.int64), [len(pts)]])
    if not (bounds[1:] > bounds[:-1]).all():
        raise ValueError("breaks must be increasing indices inside the track")

    _grid_shape(pts, 0.5 * swath)  # a too large grid faults before any length
    lengths = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    lengths[bounds[1:-1] - 1] = 0.0  # the chords between stretches
    distance = float(lengths.sum())
    start, stop = _covered_intervals(pts, lengths, 0.5 * swath, bounds)

    area = float((stop - start).sum()) * COVERAGE_CELL * COVERAGE_CELL
    return {
        "area_searched": area,  # [m^2]
        "area_per_hour": area * 3600.0 / active_time,  # [m^2/h]
        "distance_traveled": distance,  # [m]
    }
