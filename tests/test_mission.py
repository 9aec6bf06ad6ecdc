import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coastsim.core import SeededRng, SimulationFault
from coastsim.mission import (_RUN, COVERAGE_CELL, SAMPLE_CADENCE,
                              SAMPLE_NOISE_SIGMA, STREAM_ENV_SAMPLER,
                              CoverageTooLarge, DetectionEvent,
                              EnvironmentalSampler,
                              IllegalTransition, MissionPhase, MissionState,
                              PlantedObject, SearchArea, SweepSensor,
                              WorldEvents,
                              _covered_intervals, _grid_shape,
                              coverage_report,
                              generate_lawnmower, mission_step, transition)


# --- lawnmower pattern -------------------------------------------------------

def test_lawnmower_square_area_leg_count_and_length():
    # 100 x 100 m at 10 m swath: 10 legs of 100 m plus 9 connectors of 10 m
    area = SearchArea(0.0, 0.0, 100.0, 100.0)
    pattern = generate_lawnmower(area, swath=10.0, entry="sw")
    assert pattern.n_legs == 10
    assert len(pattern.waypoints) == 20
    wps = pattern.waypoints
    path_length = sum(float(np.linalg.norm(b - a))
                      for a, b in zip(wps, wps[1:]))
    assert path_length == pytest.approx(1090.0, abs=1e-9)
    # snake order from the south-west corner, legs inset half a spacing
    assert np.allclose(pattern.waypoints[0], [0.0, 5.0])
    assert np.allclose(pattern.waypoints[1], [100.0, 5.0])
    assert np.allclose(pattern.waypoints[2], [100.0, 15.0])
    assert np.allclose(pattern.waypoints[3], [0.0, 15.0])


def test_lawnmower_legs_run_along_longer_side():
    tall = generate_lawnmower(SearchArea(0.0, 0.0, 30.0, 90.0), swath=10.0)
    # legs parallel to y: consecutive leg endpoints share x
    first_leg = tall.waypoints[1] - tall.waypoints[0]
    assert first_leg[0] == 0.0 and abs(first_leg[1]) == 90.0
    assert tall.n_legs == 3


def test_lawnmower_starts_near_entry_corner():
    area = SearchArea(-50.0, 20.0, 100.0, 60.0)
    swath = 7.0
    for corner in ("sw", "se", "nw", "ne"):
        pattern = generate_lawnmower(area, swath, entry=corner)
        spacing = 60.0 / pattern.n_legs
        start = pattern.waypoints[0]
        assert np.linalg.norm(start - area.corner(corner)) <= spacing


def test_lawnmower_single_wide_leg():
    pattern = generate_lawnmower(SearchArea(0.0, 0.0, 100.0, 8.0), swath=10.0)
    assert pattern.n_legs == 1
    assert np.allclose(pattern.waypoints[0], [0.0, 4.0])
    assert np.allclose(pattern.waypoints[1], [100.0, 4.0])


def _min_distance_to_path(points, waypoints):
    """Distance from each query point to the nearest path segment."""
    best = np.full(len(points), np.inf)
    for a, b in zip(waypoints, waypoints[1:]):
        d = b - a
        denom = float(d @ d)
        if denom == 0.0:
            proj = np.zeros(len(points))
        else:
            proj = np.clip(((points - a) @ d) / denom, 0.0, 1.0)
        closest = a + proj[:, None] * d
        best = np.minimum(best, np.linalg.norm(points - closest, axis=1))
    return best


def test_lawnmower_covers_every_interior_point():
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = float(rng.uniform(20.0, 120.0))
        h = float(rng.uniform(20.0, 120.0))
        x0 = float(rng.uniform(-50.0, 50.0))
        y0 = float(rng.uniform(-50.0, 50.0))
        swath = float(rng.uniform(5.0, 25.0))
        area = SearchArea(x0, y0, w, h)
        pattern = generate_lawnmower(area, swath)
        xs = np.arange(x0, x0 + w + 1e-9, 1.0)
        ys = np.arange(y0, y0 + h + 1e-9, 1.0)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
        dist = _min_distance_to_path(points, pattern.waypoints)
        assert dist.max() <= swath / 2.0 + 1e-9


def test_lawnmower_validation():
    area = SearchArea(0.0, 0.0, 10.0, 10.0)
    with pytest.raises(ValueError, match="swath"):
        generate_lawnmower(area, swath=0.0)
    with pytest.raises(ValueError, match="corner"):
        generate_lawnmower(area, swath=5.0, entry="north")
    with pytest.raises(ValueError):
        SearchArea(0.0, 0.0, -5.0, 10.0)


# --- phase machine -----------------------------------------------------------

def test_transition_edge_matrix():
    legal = {
        (MissionPhase.PRE_MISSION, MissionPhase.WIDE_AREA_SEARCH),
        (MissionPhase.WIDE_AREA_SEARCH, MissionPhase.DETAILED_INSPECTION),
        (MissionPhase.DETAILED_INSPECTION, MissionPhase.WIDE_AREA_SEARCH),
        (MissionPhase.WIDE_AREA_SEARCH, MissionPhase.RETRIEVAL),
        (MissionPhase.DETAILED_INSPECTION, MissionPhase.RETRIEVAL),
        (MissionPhase.RETRIEVAL, MissionPhase.CONCLUDED),
    }
    for src, dst in itertools.product(MissionPhase, MissionPhase):
        state = MissionState(phase=src)
        if (src, dst) in legal:
            assert transition(state, dst).phase is dst
        else:
            with pytest.raises(IllegalTransition) as err:
                transition(state, dst)
            assert err.value.source is src
            assert err.value.target is dst


def _detection(obj_id, x, y):
    return DetectionEvent(obj_id, "tuv", 0.0, np.array([x, y]))


def test_reducer_full_mission_flow():
    state = MissionState()
    # nothing happens until deployment completes
    state = mission_step(state, WorldEvents())
    assert state.phase is MissionPhase.PRE_MISSION
    state = mission_step(state, WorldEvents(deployment_complete=True))
    assert state.phase is MissionPhase.WIDE_AREA_SEARCH

    # a detection mid-leg queues without interrupting the leg
    det = _detection("obj-1", 40.0, 10.0)
    state = mission_step(state, WorldEvents(new_detections=[det]))
    assert state.phase is MissionPhase.WIDE_AREA_SEARCH
    assert len(state.queue) == 1

    # the leg boundary triggers the inspection detour
    state = mission_step(state, WorldEvents(at_leg_boundary=True))
    assert state.phase is MissionPhase.DETAILED_INSPECTION
    assert state.current_target.object_id == "obj-1"
    assert state.queue == []

    # inspection done, queue empty, pattern unfinished: back to searching
    state = mission_step(state, WorldEvents(target_processed=True))
    assert state.phase is MissionPhase.WIDE_AREA_SEARCH
    assert state.current_target is None

    # pattern completes with nothing queued: retrieval, then conclusion
    state = mission_step(state, WorldEvents(pattern_complete=True))
    assert state.phase is MissionPhase.RETRIEVAL
    state = mission_step(state, WorldEvents())
    assert state.phase is MissionPhase.RETRIEVAL
    state = mission_step(state, WorldEvents(vehicles_recovered=True))
    assert state.phase is MissionPhase.CONCLUDED
    # terminal: further events are absorbed
    state = mission_step(state, WorldEvents(new_detections=[det]))
    assert state.phase is MissionPhase.CONCLUDED


def test_reducer_pops_nearest_detection_first():
    state = MissionState(phase=MissionPhase.WIDE_AREA_SEARCH)
    far = _detection("far", 90.0, 90.0)
    near = _detection("near", 12.0, 8.0)
    state = mission_step(state, WorldEvents(new_detections=[far, near]))
    state = mission_step(state, WorldEvents(
        at_leg_boundary=True, reference_position=np.array([10.0, 10.0])))
    assert state.current_target.object_id == "near"
    assert state.queue[0].object_id == "far"


def test_reducer_chains_queued_inspections():
    state = MissionState(phase=MissionPhase.DETAILED_INSPECTION,
                         current_target=_detection("a", 0.0, 0.0),
                         queue=[_detection("b", 5.0, 5.0)])
    state = mission_step(state, WorldEvents(
        target_processed=True, reference_position=np.array([0.0, 0.0])))
    assert state.phase is MissionPhase.DETAILED_INSPECTION
    assert state.current_target.object_id == "b"


def test_reducer_inspection_to_retrieval_when_pattern_done():
    state = MissionState(phase=MissionPhase.DETAILED_INSPECTION,
                         current_target=_detection("a", 0.0, 0.0),
                         pattern_complete=True)
    state = mission_step(state, WorldEvents(target_processed=True))
    assert state.phase is MissionPhase.RETRIEVAL


def test_reducer_inspects_leftover_queue_after_pattern_complete():
    state = MissionState(phase=MissionPhase.WIDE_AREA_SEARCH,
                         queue=[_detection("late", 1.0, 1.0)])
    state = mission_step(state, WorldEvents(pattern_complete=True))
    assert state.phase is MissionPhase.DETAILED_INSPECTION
    assert state.current_target.object_id == "late"


# the reducer's invariants, which the run loop leans on (runner docstring),
# checked after every step of random event sequences from MissionState()

_CONTACTS = [_detection(f"obj-{k}", x, y) for k, (x, y)
             in enumerate([(0.0, 0.0), (30.0, 5.0), (-12.0, 40.0)])]
_EVENT_SEQUENCES = st.lists(st.builds(
    WorldEvents,
    deployment_complete=st.booleans(),
    at_leg_boundary=st.booleans(),
    pattern_complete=st.booleans(),
    new_detections=st.lists(st.sampled_from(_CONTACTS), max_size=2),
    target_processed=st.booleans(),
    vehicles_recovered=st.booleans(),
    reference_position=st.none() | st.builds(
        lambda x, y: np.array([x, y]), st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0))), max_size=40)


def _mission_steps(events):
    """(before, events, after) of each step of the sequence from
    MissionState()."""
    state = MissionState()
    for ev in events:
        after = mission_step(state, ev)
        yield state, ev, after
        state = after


@settings(max_examples=300)
@given(events=_EVENT_SEQUENCES)
def test_a_complete_pattern_leaves_wide_area_search_for_good(events):
    # a search whose pattern is done leaves WIDE_AREA_SEARCH on that step,
    # to inspect what is queued or else to retrieval, and never comes back
    for before, ev, after in _mission_steps(events):
        searching = before.phase is MissionPhase.WIDE_AREA_SEARCH
        if searching and after.pattern_complete:
            queued = before.queue or ev.new_detections
            assert after.phase is (MissionPhase.DETAILED_INSPECTION if queued
                                   else MissionPhase.RETRIEVAL)
        deployed = before.phase is not MissionPhase.PRE_MISSION
        if before.pattern_complete and deployed:
            assert after.phase is not MissionPhase.WIDE_AREA_SEARCH


@settings(max_examples=300)
@given(events=_EVENT_SEQUENCES)
def test_detailed_inspection_always_holds_a_target(events):
    for _, _, after in _mission_steps(events):
        if after.phase is MissionPhase.DETAILED_INSPECTION:
            assert isinstance(after.current_target, DetectionEvent)


@settings(max_examples=300)
@given(events=_EVENT_SEQUENCES)
def test_only_deployment_leaves_pre_mission_and_concluded_is_terminal(events):
    # with the loop stepping the reducer for searches only and never once
    # concluded, cruise and loiter runs stay in PRE_MISSION
    for before, ev, after in _mission_steps(events):
        if before.phase is MissionPhase.PRE_MISSION:
            assert after.phase is (MissionPhase.WIDE_AREA_SEARCH
                                   if ev.deployment_complete
                                   else MissionPhase.PRE_MISSION)
        if before.phase is MissionPhase.CONCLUDED:
            assert after.phase is MissionPhase.CONCLUDED


# --- sweep sensor ------------------------------------------------------------

def test_certain_detection_on_footprint_entry():
    obj = PlantedObject("anchor", np.array([10.0, 0.0]))
    sensor = SweepSensor([obj], footprint=2.0, p_detect=1.0,
                         position_sigma=1.0, rng=SeededRng(8))
    assert sensor.sweep([0.0, 0.0], t=0.0) == []
    events = sensor.sweep([9.0, 0.0], t=4.5)  # entering the footprint
    assert len(events) == 1
    assert events[0].object_id == "anchor"
    assert events[0].t == 4.5
    assert events[0].vehicle == "tuv"
    # reported position is noisy but nearby
    assert np.linalg.norm(events[0].position - obj.position) < 5.0
    # still inside: no second event for an already-detected object
    assert sensor.sweep([10.0, 0.0], t=5.0) == []
    assert "anchor" in sensor.detected


def test_impossible_detection_never_fires():
    obj = PlantedObject("ghost", np.array([0.0, 0.0]))
    sensor = SweepSensor([obj], footprint=5.0, p_detect=0.0,
                         position_sigma=0.5, rng=SeededRng(8))
    for step in range(100):
        assert sensor.sweep([0.0, 0.0], t=float(step)) == []
    assert sensor.detected == {}


def test_one_trial_per_pass_not_per_step():
    # staying inside the footprint after entry must not retry the Bernoulli
    # draw: over many sensors the hit rate stays near p, not near 1
    hits = 0
    n = 400
    for seed in range(n):
        obj = PlantedObject("x", np.array([0.0, 0.0]))
        sensor = SweepSensor([obj], footprint=5.0, p_detect=0.5,
                             position_sigma=0.1, rng=SeededRng(seed))
        for step in range(50):  # 50 steps inside one pass
            sensor.sweep([0.0, 0.0], t=float(step))
        hits += bool(sensor.detected)
    assert 0.40 < hits / n < 0.60


def test_reentry_grants_fresh_trial():
    # p = 0.5: with repeated passes over the object, detection eventually
    # lands even though any single pass may miss
    obj = PlantedObject("wreck", np.array([0.0, 0.0]))
    sensor = SweepSensor([obj], footprint=1.0, p_detect=0.5,
                         position_sigma=0.1, rng=SeededRng(3))
    passes = 0
    for _ in range(64):
        passes += 1
        sensor.sweep([0.0, 0.0], t=0.0)  # inside
        if sensor.detected:
            break
        sensor.sweep([10.0, 0.0], t=1.0)  # leave: pass over
    assert sensor.detected
    assert passes >= 1


def test_detection_frequency_monte_carlo():
    # 1000 single-pass trials at p = 0.7: frequency within [0.67, 0.73]
    objs = [PlantedObject(f"o{i}", np.array([10.0 * i, 0.0])) for i in range(1000)]
    sensor = SweepSensor(objs, footprint=1.0, p_detect=0.7,
                         position_sigma=1.0, rng=SeededRng(17))
    for i in range(1000):
        sensor.sweep([10.0 * i, 0.0], t=float(i))
    freq = len(sensor.detected) / 1000.0
    assert 0.67 <= freq <= 0.73
    # reported-position noise matches the configured sigma
    errors = np.array([sensor.detected[o.object_id].position - o.position
                       for o in objs if o.object_id in sensor.detected])
    assert np.std(errors) == pytest.approx(1.0, rel=0.15)


def test_detectability_radius_extends_reach():
    obj = PlantedObject("buoy", np.array([0.0, 0.0]), detectability_radius=5.0)
    sensor = SweepSensor([obj], footprint=1.0, p_detect=1.0,
                         position_sigma=0.0, rng=SeededRng(1))
    events = sensor.sweep([4.0, 0.0], t=0.0)  # outside footprint, inside reach
    assert len(events) == 1


def test_sensor_validation():
    with pytest.raises(ValueError, match="p_detect"):
        SweepSensor([], footprint=1.0, p_detect=1.5, position_sigma=0.0,
                    rng=SeededRng(1))
    with pytest.raises(ValueError, match="footprint"):
        SweepSensor([], footprint=0.0, p_detect=0.5, position_sigma=0.0,
                    rng=SeededRng(1))


# --- environmental sampler ---------------------------------------------------

def test_sampler_respects_cadence():
    assert SAMPLE_CADENCE == 5.0
    sampler = EnvironmentalSampler(SeededRng(2))
    assert sampler.maybe_sample(0.0, [0.0, 0.0]) is not None
    assert sampler.maybe_sample(2.0, [0.0, 0.0]) is None
    assert sampler.maybe_sample(4.999, [0.0, 0.0]) is None
    assert sampler.maybe_sample(5.0, [0.0, 0.0]) is not None


def test_sampler_fields_follow_gradients():
    # the same draws as the sampler's, less the noise they add: the rest
    # is the base plus the gradient
    sampler = EnvironmentalSampler(SeededRng(2))
    s = sampler.maybe_sample(0.0, [100.0, 50.0])
    noise = (SeededRng(2).stream(STREAM_ENV_SAMPLER).standard_normal(3)
             * SAMPLE_NOISE_SIGMA)
    assert s.temperature - noise[0] == pytest.approx(18.0 + 0.005 * 100.0,
                                                     abs=1e-12)
    assert s.turbidity - noise[1] == pytest.approx(5.0 + 0.01 * 50.0,
                                                   abs=1e-12)
    assert s.salinity - noise[2] == pytest.approx(33.0, abs=1e-12)
    assert s.t == 0.0


def test_sampler_is_deterministic():
    a = EnvironmentalSampler(SeededRng(9))
    b = EnvironmentalSampler(SeededRng(9))
    sa = a.maybe_sample(0.0, [3.0, 4.0])
    sb = b.maybe_sample(0.0, [3.0, 4.0])
    assert sa.temperature == sb.temperature
    assert sa.turbidity == sb.turbidity
    assert sa.salinity == sb.salinity


# --- coverage metrics --------------------------------------------------------

def test_coverage_straight_line_capsule():
    # 100 m track with 10 m swath: 10 x 100 corridor plus two half-disc caps
    track = np.array([[0.0, 0.0], [100.0, 0.0]])
    report = coverage_report(track, swath=10.0, active_time=1000.0)
    exact = 10.0 * 100.0 + math.pi * 5.0 ** 2
    assert report["area_searched"] == pytest.approx(exact, rel=0.02)
    assert report["distance_traveled"] == pytest.approx(100.0, abs=1e-9)
    assert report["area_per_hour"] == pytest.approx(
        report["area_searched"] * 3.6, abs=1e-9)
    assert report["detections"] == 0


def test_coverage_overlap_not_double_counted():
    # two legs 5 m apart with a 10 m swath overlap heavily; the union is a
    # 15 m-wide corridor, far less than twice the single-leg capsule
    single = coverage_report(np.array([[0.0, 0.0], [100.0, 0.0]]),
                             swath=10.0, active_time=100.0)["area_searched"]
    both = coverage_report(
        np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 5.0], [0.0, 5.0]]),
        swath=10.0, active_time=100.0)["area_searched"]
    assert both < 2.0 * single
    assert both == pytest.approx(15.0 * 100.0 + math.pi * 25.0, rel=0.05)


def test_coverage_single_point_is_a_disc():
    report = coverage_report(np.array([[3.0, 4.0]]), swath=2.0, active_time=10.0)
    assert report["area_searched"] == pytest.approx(math.pi * 1.0, rel=0.05)
    assert report["distance_traveled"] == 0.0


def test_coverage_counts_pass_through():
    report = coverage_report(np.array([[0.0, 0.0], [10.0, 0.0]]),
                             swath=1.0, active_time=100.0,
                             detections=2, confirmations=1)
    assert report["detections"] == 2
    assert report["confirmations"] == 1


def test_coverage_report_validation():
    with pytest.raises(ValueError, match="empty"):
        coverage_report(np.zeros((0, 2)), swath=1.0, active_time=1.0)
    # a NaN swath must not reach the grid budget, nor a NaN active_time
    # the metrics (json.dump would write a bare NaN)
    for swath, active_time in [(0.0, 1.0), (1.0, 0.0), (math.nan, 1.0),
                               (1.0, math.nan)]:
        with pytest.raises(ValueError, match="must be positive"):
            coverage_report(np.array([[0.0, 0.0]]), swath=swath,
                            active_time=active_time)


@pytest.mark.parametrize("track, swath", [
    ([[0.0, 0.0], [1e6, 1e6]], 1.0),  # a diverged platform's track
    ([[0.0, 0.0]], math.inf),  # an infinite span
])
def test_coverage_report_faults_before_allocating_too_large_a_grid(track,
                                                                   swath):
    with pytest.raises(CoverageTooLarge, match="exceeds 100000000 cells"):
        coverage_report(np.array(track), swath, active_time=1.0)
    assert issubclass(CoverageTooLarge, SimulationFault)


def test_coverage_report_faults_before_overflowing_segment_lengths():
    # this track's segment length overflows a float: the grid budget must
    # fault first, with no RuntimeWarning on the way
    track = np.array([[0.0, 0.0], [1e300, -1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoverageTooLarge, match="exceeds 100000000 cells"):
            coverage_report(track, swath=1.0, active_time=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [(0, 0), (3, 1), (-1, 0)])
def test_coverage_report_rejects_non_finite_track(bad, where):
    track = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [3.0, 1.5]])
    track[where] = bad
    with pytest.raises(ValueError, match="non-finite track point"):
        coverage_report(track, swath=1.0, active_time=1.0)


# --- settled coverage intervals against the per-segment reference -----------
#
# coverage_report settles most cells as row spans of chord pieces' capsules
# and tests the band between. The reference below is the per-segment loop
# (one meshgrid over each segment's own box); a grid painted from the merged
# intervals must match it cell for cell, not only in area.

def ref_coverage_report(track, swath, active_time, detections=0,
                        confirmations=0):
    """The per-segment coverage_report; returns (grid, report)."""
    pts = np.asarray(track, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("empty run log: no track points to report on")
    if swath <= 0.0 or active_time <= 0.0:
        raise ValueError("swath and active_time must be positive")

    seg_a = pts[:-1]
    seg_b = pts[1:]
    lengths = np.linalg.norm(seg_b - seg_a, axis=1)
    distance = float(lengths.sum())

    half = 0.5 * swath
    cell = COVERAGE_CELL
    x_min = pts[:, 0].min() - half
    x_max = pts[:, 0].max() + half
    y_min = pts[:, 1].min() - half
    y_max = pts[:, 1].max() + half
    nx = max(1, int(math.ceil((x_max - x_min) / cell)))
    ny = max(1, int(math.ceil((y_max - y_min) / cell)))
    covered = np.zeros((nx, ny), dtype=bool)

    keep = lengths > 1e-12
    segments = list(zip(seg_a[keep], seg_b[keep], lengths[keep]))
    if not segments:
        segments = [(pts[0], pts[0] + 1e-9, 1e-9)]
    for a, b, length in segments:
        lo_x = max(0, int((min(a[0], b[0]) - half - x_min) / cell) - 1)
        hi_x = min(nx, int((max(a[0], b[0]) + half - x_min) / cell) + 2)
        lo_y = max(0, int((min(a[1], b[1]) - half - y_min) / cell) - 1)
        hi_y = min(ny, int((max(a[1], b[1]) + half - y_min) / cell) + 2)
        if lo_x >= hi_x or lo_y >= hi_y:
            continue
        xs = x_min + (np.arange(lo_x, hi_x) + 0.5) * cell
        ys = y_min + (np.arange(lo_y, hi_y) + 0.5) * cell
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        d = b - a
        tpar = ((gx - a[0]) * d[0] + (gy - a[1]) * d[1]) / (length * length)
        tpar = np.clip(tpar, 0.0, 1.0)
        dist2 = (gx - (a[0] + tpar * d[0])) ** 2 + (gy - (a[1] + tpar * d[1])) ** 2
        covered[lo_x:hi_x, lo_y:hi_y] |= dist2 <= half * half

    area = float(covered.sum()) * cell * cell
    return covered, {
        "area_searched": area,
        "area_per_hour": area * 3600.0 / active_time,
        "distance_traveled": distance,
        "detections": detections,
        "confirmations": confirmations,
    }


def _painted(track, swath, breaks=()):
    """The coverage grid painted from coverage_report's merged intervals."""
    pts = np.asarray(track, dtype=float)
    _, _, nx, ny = _grid_shape(pts, 0.5 * swath)
    lengths = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    start, stop = _covered_intervals(pts, lengths, 0.5 * swath,
                                     np.array([0, *breaks, len(pts)]))
    # sorted and disjoint, none empty
    assert (stop > start).all() and (start[1:] > stop[:-1]).all()
    grid = np.zeros(nx * ny, dtype=bool)
    for lo, hi in zip(start.tolist(), stop.tolist()):
        grid[lo:hi] = True
    return grid.reshape(nx, ny)


def _walk(start, steps, step_len, seed):
    """A dense track: one point per step, heading a slow random walk."""
    gen = np.random.default_rng(seed)
    heading = np.cumsum(gen.normal(0.0, 0.15, steps))
    moves = step_len * np.column_stack([np.cos(heading), np.sin(heading)])
    return np.vstack([start, start + np.cumsum(moves, axis=0)])


def _densify(waypoints, step_len):
    pieces = [np.array(waypoints[:1])]
    for a, b in zip(waypoints, waypoints[1:]):
        n = max(1, int(np.linalg.norm(b - a) / step_len))
        pieces.append(a + np.outer(np.arange(1, n + 1) / n, b - a))
    return np.vstack(pieces)


_LAWNMOWER = generate_lawnmower(SearchArea(-10.0, 5.0, 60.0, 40.0), 10.0).waypoints
_ARC = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]


def _bend(n):
    """n points along a gentle bend, within 0.1 m of its chord."""
    x = np.linspace(0.0, 3.0, n)
    return np.column_stack([x, 0.1 * np.sin(x)])


COVERAGE_TRACKS = {
    "dense_walk_swath1": (_walk(np.array([2.0, 3.0]), 3000, 0.02, 1), 1.0),
    "dense_walk_swath10": (_walk(np.array([2.0, 3.0]), 3000, 0.1, 2), 10.0),
    "dense_lawnmower": (_densify(_LAWNMOWER, 0.1), 10.0),
    "lawnmower_vertices": (np.array(_LAWNMOWER), 10.0),
    "repeated_points": (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0],
                                  [1.0, 0.0], [1.0, 0.0], [1.0, 2.0],
                                  [1.0, 2.0], [1.0 + 1e-13, 2.0],
                                  [0.5, 1.0]]), 1.5),
    "stationary": (np.full((5, 2), 7.25), 2.0),
    "single_point": (np.array([[3.0, 4.0]]), 2.0),
    "negative_coordinates": (_walk(np.array([-523.3, -871.9]), 2000, 0.05, 3), 3.0),
    "far_offset": (_walk(np.array([1.0e6, -2.0e6]), 1000, 0.1, 4), 4.0),
    "sparse_long_jumps": (np.random.default_rng(5).uniform(-150.0, 150.0, (30, 2)), 5.0),
    "tiny_swath": (_walk(np.array([0.0, 0.0]), 500, 0.05, 6), 0.01),
    # a row of cell centres lies exactly half a swath (0.5625 m) from the
    # track: the test is <=, so the row counts
    "edge_on_cell_centres": (np.array([[0.0, 0.0], [10.0, 0.0]]), 1.125),
    # near the largest coordinates coverage_report's settle argument holds for
    "dense_walk_near_1e12": (_walk(np.array([9.0e11, -9.0e11]), 3000, 0.02, 7), 1.0),
    # a survey track: two dense lawnmower stretches joined by the 7.8 m
    # chord from where the search paused to where it resumed
    "lawnmower_resumed_after_chord": (np.vstack([
        _densify([*_LAWNMOWER[:3], np.array([30.0, 20.0])], 0.075),
        _densify([np.array([22.8, 23.0]), *_LAWNMOWER[3:]], 0.075)]), 10.0),
    # crawler halts: runs of one to five repeats of each point
    "dense_walk_with_halts": (np.repeat(
        _walk(np.array([-3.0, 8.0]), 2000, 0.02, 9),
        np.random.default_rng(10).integers(1, 6, 2001), axis=0), 1.0),
    # exactly one full run of segments, and one segment more
    "one_run_of_segments": (_bend(_RUN + 1), 1.0),
    "one_run_and_a_segment": (_bend(_RUN + 2), 1.0),
    # a closed loop: its piece's chord is a point
    "closed_loop": (np.vstack([
        0.05 * np.column_stack([np.cos(_ARC), np.sin(_ARC)]) + [2.0, -1.0],
        [2.05, -1.0]]), 1.5),
    # a hairpin that strays 0.12 m off its chord, past half its 0.2 m
    # swath: nothing settles, every cell of the corridor is tested
    "hairpin_past_half_a_swath": (_densify([np.array([0.0, 0.0]),
                                            np.array([0.12, 0.0]),
                                            np.array([0.12, 0.01]),
                                            np.array([0.0, 0.01])], 0.01), 0.2),
    # back and forth along one line, three times over
    "retraced_back_and_forth": (_densify([np.array([0.0, 0.0]),
                                          np.array([5.0, 1.0])] * 3, 0.05), 2.0),
    # every point on a cell centre, along the grid's diagonal
    "cell_centres_on_the_diagonal": (0.25 * np.outer(np.arange(40), [1.0, 1.0]),
                                     0.75),
}


@pytest.mark.parametrize("name", sorted(COVERAGE_TRACKS))
def test_coverage_grid_matches_per_segment_reference(name):
    track, swath = COVERAGE_TRACKS[name]
    ref_grid, ref_report = ref_coverage_report(track, swath, active_time=60.0)
    grid = _painted(track, swath)
    assert grid.shape == ref_grid.shape and np.array_equal(grid, ref_grid)
    assert ref_grid.any()
    assert coverage_report(track, swath, active_time=60.0) == ref_report


@settings(max_examples=300)
@given(points=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
                       min_size=1, max_size=60),
       swath=st.floats(0.05, 20.0))
def test_coverage_grid_matches_reference_on_any_track(points, swath):
    track = np.array(points)
    ref_grid, ref_report = ref_coverage_report(track, swath, active_time=1.0)
    assert np.array_equal(_painted(track, swath), ref_grid)
    assert coverage_report(track, swath, active_time=1.0) == ref_report


def test_coverage_grid_of_a_swath_below_the_settle_margin():
    # half a 0.005 m swath is under the margin: no disc settles, every cell
    # of the corridor is tested
    track = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    ref_grid, ref_report = ref_coverage_report(track, 0.005, active_time=1.0)
    assert np.array_equal(_painted(track, 0.005), ref_grid)
    assert ref_grid.any()
    assert coverage_report(track, 0.005, active_time=1.0) == ref_report


def _aligned_union(track, swath, stretches):
    """The union of the stretches' reference grids on the track's grid."""
    whole, _ = ref_coverage_report(track, swath, active_time=1.0)
    union = np.zeros_like(whole)
    for part in stretches:
        grid, _ = ref_coverage_report(part, swath, active_time=1.0)
        offset = (part.min(axis=0) - track.min(axis=0)) / COVERAGE_CELL
        assert np.array_equal(offset, np.round(offset))  # whole cells apart
        i, j = offset.astype(int)
        union[i:i + grid.shape[0], j:j + grid.shape[1]] |= grid
    return whole, union


def test_coverage_of_search_stretches_is_the_union_of_their_grids():
    # lawnmower_resumed_after_chord split where its search paused: the chord
    # to where it resumed sweeps nothing, and every other cell is as the
    # per-segment grid of its own stretch has it
    track, swath = COVERAGE_TRACKS["lawnmower_resumed_after_chord"]
    pause = len(_densify([*_LAWNMOWER[:3], np.array([30.0, 20.0])], 0.075))
    whole, union = _aligned_union(track, swath, (track[:pause], track[pause:]))
    assert np.array_equal(_painted(track, swath, [pause]), union)
    assert (whole & ~union).any()  # the chord swept cells of its own
    report = coverage_report(track, swath, active_time=1.0, breaks=[pause])
    assert report["area_searched"] == union.sum() * COVERAGE_CELL ** 2
    lengths = np.linalg.norm(np.diff(track, axis=0), axis=1)
    assert report["distance_traveled"] == (lengths.sum()
                                           - lengths[pause - 1])


def test_a_one_point_stretch_sweeps_the_disc_around_it():
    track = np.array([[0.0, 0.0], [4.0, 0.0], [8.0, 0.0]])
    _, union = _aligned_union(track, 1.0, (track[:2], track[2:]))
    assert np.array_equal(_painted(track, 1.0, [2]), union)


@pytest.mark.parametrize("breaks", [[0], [3], [1, 1], [2, 1], [5]])
def test_coverage_report_rejects_breaks_outside_the_track(breaks):
    with pytest.raises(ValueError, match="breaks"):
        coverage_report(np.zeros((3, 2)), swath=1.0, active_time=1.0,
                        breaks=breaks)


def _coverage_peak(track, swath):
    """coverage_report's tracemalloc peak [bytes]."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        coverage_report(track, swath, active_time=60.0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


# tracemalloc peaks of coverage_report on two dense tracks, as the grid
# filled by chunks of segment boxes reached them (numpy 2.4, Python 3.11):
# the row spans, the band's tests and the union must not raise them
@pytest.mark.parametrize("track, swath, peak_bytes", [
    (_walk(np.array([2.0, 3.0]), 7999, 0.02, 8), 1.0, 1_037_379),
    (_densify(_LAWNMOWER, 0.1), 10.0, 799_719),
])
def test_coverage_report_peak_memory(track, swath, peak_bytes):
    peak = _coverage_peak(track, swath)
    assert len(track) == (8000 if swath == 1.0 else 2701)
    assert peak <= peak_bytes


def test_a_sparse_track_allocates_far_less_than_its_grid():
    # no array spans the bounding box: the peak stays under a quarter of a
    # byte per grid cell
    track, swath = COVERAGE_TRACKS["sparse_long_jumps"]
    _, _, nx, ny = _grid_shape(track, 0.5 * swath)
    assert _coverage_peak(track, swath) < nx * ny / 4
