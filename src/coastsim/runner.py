"""The coupled simulation loop: one scenario in, one run log out.

Each step executes in a fixed order — (1) sensors, (2) EKF predict/update,
(3) guidance + PID + thrust allocation, (4) disturbances, (5) towline
coupling, (6) ASV + TUV integration, (7) hexapod advance, (8) detection
sweep, (9) mission reducer — so identical (scenario, seed) pairs produce
byte-identical logs. Rows capture the pre-integration state: every value in
a row belongs to the same instant, the row's t.

The cable attaches at tuv.towline.attach_x on the hull's centreline, so its
reaction enters as a body-frame force plus the yaw moment x_a * Y it induces
about the reference point (_tow_coupling). The navigation filter propagates
with the forces the vehicle knows about: its own realized control wrench
from the previous step plus modeled damping on the estimated state. Wind,
waves, gusts and the cable are disturbances it must reject.

A Simulation keeps each fact of a run once: the metrics read the steps and
distance off its rows, the confirmations off its events, the time off an int
step count (t = step_count * dt) and an abort off a non-empty abort_reason.
Two values no record holds stay: coverage_track, the survey platform's
positions after each step's integration (a row holds the state before it),
and search_starts, the index into it where each resumed search begins, so
the coverage report does not sweep the way from the spot where a search
paused to the spot where it resumed; the search time is dt summed once per
point of coverage_track (n * dt is another float).

The loop relies on mission_step's invariants (tests/test_mission.py): a
complete pattern leaves WIDE_AREA_SEARCH for good and DETAILED_INSPECTION
holds a target. It steps under np.errstate(over/invalid/divide="raise"), so
a numpy overflow ends the run as a fault, not a warning on stderr.

The filter's estimate is est_x, the mean as six floats, and est_P, its
covariance: the step reads both when it starts, so an estimate assigned
between steps is the one it predicts from. One per-run cache is filled on
first use: each guidance target (the loiter point, home, each lawnmower
waypoint, each inspected object as waypoint and as loiter point) gets its
GuidanceSetpoint built once.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asv import (BodyWrench, VehicleState3DOF, ZERO_WRENCH,
                  allocate_differential_thrust, asv_step)
from .control import (LOITER, WAYPOINT, guidance_step, pid_step,
                      station_keeping)
from .core import (NonFiniteInput, SeededRng, SimulationFault, successor,
                   wrap_angle)
from .environment import GustProcess, damping_wrench, disturbance_wrench
from .hexapod import HexapodState, body_advance, stand_legs
from .mission import (EnvironmentalSampler, MissionPhase, MissionState,
                      SweepSensor, WorldEvents, coverage_report,
                      generate_lawnmower, mission_step)
from .nav import (COMPASS, GPS, GYRO, _predict, _update, initial_estimate,
                  sample_sensors)
from .scenario import (CRUISE, LOITER_MISSION, SEARCH, Scenario,
                       guidance_for_loiter, guidance_for_waypoint)
from .tuv import _coupling_tension, _step as _tuv_step, winch_set_length

STATES_FILE = "states.csv"
EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.json"

_JOINT_COLUMNS = [f"hex_leg{leg}_theta{joint}"
                  for leg in range(6) for joint in (1, 2, 3)]

COLUMNS = (
    ["t",
     "truth_x", "truth_y", "truth_psi", "truth_u", "truth_v", "truth_r",
     "est_x", "est_y", "est_psi", "est_u", "est_v", "est_r",
     "p_x", "p_y", "p_psi", "p_u", "p_v", "p_r",
     "cmd_heading", "cmd_speed", "cmd_surge", "cmd_yaw",
     "thrust_left", "thrust_right",
     "ctrl_x", "ctrl_y", "ctrl_n",
     "dist_x", "dist_y", "dist_n",
     "tuv_x", "tuv_y", "tuv_z", "tuv_vx", "tuv_vy", "tuv_vz",
     "tension_x", "tension_y", "tension_z", "line_length",
     "hex_deployed", "hex_x", "hex_y", "hex_heading", "hex_faults"]
    + _JOINT_COLUMNS
    + ["phase", "innov_gps_x", "innov_gps_y", "innov_compass", "innov_gyro"]
)


def _wrench_sum(a: BodyWrench, b: BodyWrench, c: BodyWrench,
                d: BodyWrench) -> BodyWrench:
    """a + b + c + d, summed per component left to right as chained `+`
    does, without building a BodyWrench for each partial sum."""
    return BodyWrench(a.X + b.X + c.X + d.X, a.Y + b.Y + c.Y + d.Y,
                      a.N + b.N + c.N + d.N)


def _freeze_integral_if_pinned(prev, nxt, error, command, lo, hi):
    """Conditional integration: while the command is pinned against a limit
    in the error's own direction, keep the old integral state (integrating
    further is pure windup the plant never sees)."""
    if (command >= hi and error > 0.0) or (command <= lo and error < 0.0):
        return successor(nxt, integral=prev.integral)
    return nxt


def _tow_coupling(truth, x_a: float, tuv, line) -> tuple:
    """(tension, hull reaction BodyWrench) at tow point x_a: the three core
    rotations on one cos/sin pair, same bytes as glibc's cos is even, sin odd."""
    a, b = truth.u, truth.v + truth.r * x_a
    if not all(map(math.isfinite, (x_a, truth.psi, a, b))):
        raise NonFiniteInput("tow coupling requires finite inputs")
    c, s = math.cos(truth.psi), math.sin(truth.psi)
    attach = (truth.x + (c * x_a - s * 0.0), truth.y + (s * x_a + c * 0.0),
              0.0)
    tension = _coupling_tension(attach, (c * a - s * b, s * a + c * b, 0.0),
                                tuv[0:3], tuv[3:6], line)
    a, b = -tension[0], -tension[1]
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteInput("tow coupling requires finite inputs")
    reaction_y = c * b - s * a
    return tension, BodyWrench(c * a + s * b, reaction_y, x_a * reaction_y)


@dataclass
class RunLog:
    """Everything a run produced: per-step rows, events, final metrics."""

    columns: list
    rows: list = field(default_factory=list)
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def aborted(self) -> bool:
        return bool(self.metrics.get("aborted", False))


class Simulation:
    """Stepped world for one scenario; `run()` drives it to completion."""

    def __init__(self, scenario: Scenario):
        self.scn = scn = scenario
        self.rng = SeededRng(scn.seed)
        self.step_count = 0  # t is step_count * dt: no drift
        self.truth = scn.asv_initial
        est = initial_estimate(scn.asv_initial)
        self.est_x, self.est_P = est.x.tolist(), est.P  # mean, covariance
        self.heading_pid = scn.heading_pid
        self.speed_pid = scn.speed_pid
        self.gust = GustProcess(scn.disturbances, self.rng)
        self.ctrl_wrench = ZERO_WRENCH  # realized control from the last step
        self.tow_wrench = ZERO_WRENCH  # cable reaction, measured at the winch
        # what the anemometer accounts for: mean wind, but not gusts or waves
        self.known_field = dataclasses.replace(scn.disturbances,
                                               wave_height=0.0)
        # water velocity (x, y, z), nav frame: constant over a run
        self.current = (*scn.disturbances.current_nav().tolist(), 0.0)
        self.sensor_periods = scn.sensors.periods(scn.dt)
        self.q_discrete = scn.ekf.q_discrete(scn.dt)  # process noise per step
        self.max_surge = 2.0 * scn.asv_params.max_thrust  # both motors [N]

        self.towline = scn.towline
        self.winch_cmd = scn.towline.unstretched_length
        # towed body (x, y, z, vx, vy, vz), nav frame with z down
        self.tuv = self._initial_tuv_state() if scn.tuv_enabled else None

        self.hexapod: HexapodState | None = None  # set while deployed
        self.hexapod_faults = 0  # gait halts so far (a crawler carries it)

        self.mission_state = MissionState()
        self.start_pos = np.array([scn.asv_initial.x, scn.asv_initial.y])
        ms = scn.mission
        self.pattern = self.sweep = None  # a search's only
        if ms.kind == SEARCH:
            self.pattern = generate_lawnmower(ms.area, ms.swath, ms.entry)
            # the survey platform: the towed body, else the ASV itself
            self.sweep = SweepSensor(ms.objects, ms.footprint, ms.p_detect,
                                     ms.position_sigma, self.rng,
                                     "tuv" if scn.tuv_enabled else "asv")
        self.wp_index = 0
        self.sampler = EnvironmentalSampler(self.rng)

        self._dp_integral = (0.0, 0.0)  # [N] nav frame
        self._dp_point: tuple[float, float] | None = None
        # the per-run cache of the module docstring: each guidance target's
        # (setpoint, target as floats)
        self._setpoints: dict = {}

        self.rows: list = []
        self.events: list = []
        self.coverage_track: list = []  # survey-platform positions during search
        self.search_starts: list = []  # coverage_track index of each resumed search
        self.abort_reason = ""  # the first fault's; "" while none

    # -- construction helpers -------------------------------------------------

    def _initial_tuv_state(self) -> list:
        # start just taut: depth 2 m, trailing so the separation equals the
        # unstretched length (no startup jerk)
        scn = self.scn
        depth = min(2.0, 0.5 * scn.towline.unstretched_length)
        back = math.sqrt(scn.towline.unstretched_length ** 2 - depth ** 2)
        start = scn.asv_initial
        return [start.x - back * math.cos(start.psi),
                start.y - back * math.sin(start.psi), depth, 0.0, 0.0, 0.0]

    def _log_event(self, t: float, event: str, **fields):
        self.events.append({"t": round(t, 9), "event": event, **fields})

    # -- per-step pieces -------------------------------------------------------

    def _guidance(self, est_state: VehicleState3DOF):
        """(heading_error, cmd_heading, speed_cmd, direct_surge, leg_boundary)
        for the current phase.

        direct_surge is None on transit legs (the speed loop runs) and a
        body-x force [N] while station-keeping; leg_boundary is True on the
        step the ASV reaches the far end of a lawnmower leg. Advances the
        waypoint cursor as a side effect.
        """
        scn = self.scn
        ms = scn.mission
        est_pose = (est_state.x, est_state.y, est_state.psi)

        if ms.kind == CRUISE:
            return (wrap_angle(ms.heading - est_state.psi), ms.heading,
                    ms.speed, None, False)
        if ms.kind == LOITER_MISSION:
            setpoint, point = self._setpoint("point", LOITER, ms.point)
        else:
            setpoint, point = self._search_setpoint(est_pose)
        if setpoint.mode == LOITER:
            if point != self._dp_point:
                self._dp_integral = (0.0, 0.0)
                self._dp_point = point
            heading_error, surge, self._dp_integral = station_keeping(
                point, est_state, self._dp_integral, scn.dt)
            # a zero command gives back est_state.psi itself: it is already
            # wrapped, and wrap_angle returns its own outputs unchanged
            return (heading_error, wrap_angle(est_state.psi + heading_error),
                    0.0, surge, False)
        heading_error, speed_cmd, arrived = guidance_step(setpoint, est_pose)
        leg_boundary = False
        if self.mission_state.phase is MissionPhase.WIDE_AREA_SEARCH and arrived:
            leg_boundary = self.wp_index % 2 == 1  # the far end of a leg
            self.wp_index += 1
        return (heading_error, wrap_angle(est_state.psi + heading_error),
                speed_cmd, None, leg_boundary)

    def _setpoint(self, key, mode: str, target):
        """(setpoint, target as floats) of the guidance target `key`, built
        from `mode` and `target` on first use and cached for the run."""
        entry = self._setpoints.get(key)
        if entry is None:
            build = (guidance_for_loiter if mode == LOITER
                     else guidance_for_waypoint)
            setpoint = build(self.scn, target)
            entry = (setpoint,
                     (float(setpoint.target[0]), float(setpoint.target[1])))
            self._setpoints[key] = entry
        return entry

    def _search_setpoint(self, est_pose):
        scn = self.scn
        phase = self.mission_state.phase
        if phase is MissionPhase.PRE_MISSION:
            return self._setpoint("home", LOITER, self.start_pos)
        if phase is MissionPhase.WIDE_AREA_SEARCH:
            return self._setpoint(self.wp_index, WAYPOINT,
                                  self.pattern.waypoints[self.wp_index])
        if phase is MissionPhase.DETAILED_INSPECTION:
            target_ev = self.mission_state.current_target
            target = target_ev.position
            offset = math.hypot(est_pose[0] - target[0], est_pose[1] - target[1])
            mode = WAYPOINT if offset > 2.0 * scn.arrival_radius else LOITER
            # one detection per object, so its id names the target
            return self._setpoint((target_ev.object_id, mode), mode, target)
        # retrieval: head home
        return self._setpoint("home", LOITER, self.start_pos)

    def _hexapod_phase(self, t: float, dt: float) -> bool:
        """Deploy / walk / confirm during detailed inspection.

        Returns True when the current target was confirmed this step.
        """
        if self.mission_state.phase is not MissionPhase.DETAILED_INSPECTION:
            return False
        scn = self.scn
        target_ev = self.mission_state.current_target
        target = target_ev.position
        asv_pos = np.array([self.truth.x, self.truth.y])

        if self.hexapod is None:
            # deploy once the ASV has settled on the inspection site (and the
            # tether can physically span the remaining gap)
            est = self.est_x
            arrived = (math.hypot(est[0] - target[0], est[1] - target[1])
                       <= 2.0 * scn.arrival_radius)
            if arrived and math.hypot(*(asv_pos - target)) <= scn.mission.tether_reach:
                terrain, _ = scn.terrain.terrain_at(asv_pos)
                self.hexapod = HexapodState(
                    position=asv_pos, heading=self.truth.psi,
                    terrain=terrain, legs=stand_legs(scn.hexapod_params),
                    faults=self.hexapod_faults)
                self._log_event(t, "hexapod_deployed",
                                position=[float(asv_pos[0]), float(asv_pos[1])],
                                target=target_ev.object_id)
            return False

        vec = target - self.hexapod.position
        distance = math.hypot(*vec)
        if distance > scn.mission.confirm_radius:
            terrain, _ = scn.terrain.terrain_at(self.hexapod.position)
            self.hexapod.terrain = terrain
            heading_cmd = math.atan2(vec[1], vec[0])
            self.hexapod = body_advance(self.hexapod, heading_cmd, dt,
                                        scn.hexapod_params)
            self.hexapod_faults = self.hexapod.faults
            vec = target - self.hexapod.position
            distance = math.hypot(*vec)
        if distance <= scn.mission.confirm_radius:
            self._log_event(t, "confirmation", object_id=target_ev.object_id,
                            position=[float(target[0]), float(target[1])])
            self.hexapod = None
            self._log_event(t, "hexapod_recovered",
                            object_id=target_ev.object_id)
            return True
        return False

    def _apply_phase_change(self, before: MissionPhase, t: float):
        after = self.mission_state.phase
        if after is before:
            return
        self._log_event(t, "phase_transition", source=before.value,
                        target=after.value)
        scn = self.scn
        if after is MissionPhase.WIDE_AREA_SEARCH and self.coverage_track:
            self.search_starts.append(len(self.coverage_track))
        if after is MissionPhase.DETAILED_INSPECTION:
            self.winch_cmd = scn.mission.inspection_standoff
            self._log_event(t, "winch_command", length=self.winch_cmd)
        elif before is MissionPhase.DETAILED_INSPECTION:
            self.winch_cmd = scn.towline.unstretched_length
            self._log_event(t, "winch_command", length=self.winch_cmd)

    # -- the step itself -------------------------------------------------------

    def step(self):
        scn = self.scn
        dt = scn.dt
        step_idx = self.step_count
        t = step_idx * dt
        current = self.current

        # (1) sensors: (kind, value) pairs, compass and gyro as floats
        readings = sample_sensors(self.truth, step_idx, self.sensor_periods,
                                  scn.sensors, self.rng)

        # (2) navigation filter: propagate with the modeled (known) forces,
        # then absorb this step's measurements
        est_x, est_P = self.est_x, self.est_P
        if step_idx > 0:
            # thrust is commanded, cable tension is read off the winch load
            # cell, mean wind off the anemometer, damping follows from the
            # estimated state; gusts and waves stay unmodeled and must be
            # absorbed as process noise
            est_state = VehicleState3DOF.from_array(est_x)
            model_wrench = _wrench_sum(
                self.ctrl_wrench, self.tow_wrench,
                damping_wrench(est_state, scn.damping, current),
                disturbance_wrench(self.known_field, est_state, t, 0.0))
            est_x, est_P = _predict(est_x, est_P, scn.asv_params,
                                    model_wrench, dt, self.q_discrete)
        innovations = {GPS: None, COMPASS: None, GYRO: None}
        for kind, value in readings:
            est_x, est_P, innovation, accepted = _update(est_x, est_P, kind,
                                                         value, scn.ekf)
            if accepted:
                innovations[kind] = innovation
        self.est_x, self.est_P = est_x, est_P

        # (3) guidance + PID + allocation
        est_state = VehicleState3DOF.from_array(est_x)
        (heading_error, cmd_heading, speed_cmd, direct_surge,
         leg_boundary) = self._guidance(est_state)
        prev_heading_pid = self.heading_pid
        yaw_cmd, self.heading_pid = pid_step(self.heading_pid, heading_error, dt)
        self.heading_pid = _freeze_integral_if_pinned(
            prev_heading_pid, self.heading_pid, heading_error, yaw_cmd,
            *self.heading_pid.output_limits)
        # steering gets priority: cap surge to the thrust headroom the yaw
        # command leaves, else saturation silently halves the yaw moment and
        # the tow pendulum can pump the heading into a weave
        headroom = (self.max_surge
                    - abs(yaw_cmd) / scn.asv_params.thruster_half_spacing)
        if direct_surge is not None:
            surge_cmd = direct_surge
        else:
            prev_speed_pid = self.speed_pid
            speed_error = speed_cmd - est_state.u
            surge_pid, self.speed_pid = pid_step(self.speed_pid, speed_error,
                                                 dt)
            # feed forward the loads the vehicle can account for -- hull
            # damping at the commanded speed and the cable pull read off the
            # winch -- so the integral only absorbs wind and waves
            surge_cmd = (surge_pid + scn.damping.d11 * speed_cmd
                         - self.tow_wrench.X)
            self.speed_pid = _freeze_integral_if_pinned(
                prev_speed_pid, self.speed_pid, speed_error, surge_cmd,
                -headroom, headroom)
        # max(-headroom, min(headroom, surge_cmd)), not clamp's order: at zero
        # headroom a command >= 0 is -0.0 here, 0.0 there; the logs hold -0.0
        surge_cmd = surge_cmd if surge_cmd < headroom else headroom
        surge_cmd = surge_cmd if surge_cmd > -headroom else -headroom
        left, right, realized = allocate_differential_thrust(
            surge_cmd, yaw_cmd, scn.asv_params)

        # (4) disturbances
        gust = self.gust.step(dt)
        disturbance = disturbance_wrench(scn.disturbances, self.truth, t, gust)
        damping = damping_wrench(self.truth, scn.damping, current)

        # (5) towline coupling (tow point aft of the reference point, so the
        # cable pull also weathervanes the hull)
        tension, tow_wrench = None, ZERO_WRENCH
        if self.tuv is not None:
            self.towline = winch_set_length(self.towline, self.winch_cmd, dt)
            tension, tow_wrench = _tow_coupling(self.truth, scn.tow_attach_x,
                                                self.tuv, self.towline)

        # log the step's state before integrating: one instant per row
        self._append_row(t, cmd_heading, speed_cmd, surge_cmd, yaw_cmd, left,
                         right, realized, disturbance, tension, innovations)

        # (6) integrate both hulls
        total = _wrench_sum(realized, disturbance, damping, tow_wrench)
        self.truth = asv_step(self.truth, scn.asv_params, total, dt, t)
        if self.tuv is not None:
            self.tuv = _tuv_step(self.tuv, scn.tuv_params, tension,
                                 current, dt, t)

        # (7) hexapod advance (when deployed)
        confirmed = self._hexapod_phase(t, dt)

        # (8) detection sweep (survey platform = TUV when towed, else ASV)
        new_detections = []
        if self.mission_state.phase is MissionPhase.WIDE_AREA_SEARCH:
            platform = ((self.tuv[0], self.tuv[1]) if self.tuv is not None
                        else (self.truth.x, self.truth.y))
            self.coverage_track.append(platform)
            new_detections = self.sweep.sweep(platform, t)
            for ev in new_detections:
                self._log_event(t, "detection", object_id=ev.object_id,
                                vehicle=ev.vehicle,
                                position=[float(ev.position[0]),
                                          float(ev.position[1])])

        sample = self.sampler.maybe_sample(t, [self.truth.x, self.truth.y])
        if sample is not None:
            self._log_event(t, "env_sample",
                            position=[float(sample.position[0]),
                                      float(sample.position[1])],
                            temperature=round(sample.temperature, 6),
                            turbidity=round(sample.turbidity, 6),
                            salinity=round(sample.salinity, 6))

        # (9) mission reducer
        if self.scn.mission.kind == SEARCH:
            recovered = False
            if self.mission_state.phase is MissionPhase.RETRIEVAL:
                recovered = (math.hypot(self.truth.x - self.start_pos[0],
                                        self.truth.y - self.start_pos[1])
                             <= scn.mission.recovery_radius)
            events = WorldEvents(
                deployment_complete=t >= scn.mission.deploy_time,
                at_leg_boundary=leg_boundary,
                pattern_complete=self.wp_index >= len(self.pattern.waypoints),
                new_detections=new_detections,
                target_processed=confirmed,
                vehicles_recovered=recovered,
                reference_position=np.array([est_state.x, est_state.y]))
            before = self.mission_state.phase
            self.mission_state = mission_step(self.mission_state, events)
            self._apply_phase_change(before, t)

        self.ctrl_wrench = realized
        self.tow_wrench = tow_wrench
        self.step_count += 1

    def _append_row(self, t, cmd_heading, speed_cmd, surge_cmd, yaw_cmd,
                    left, right, realized, disturbance, tension, innovations):
        # every cell a plain Python value, the type read_run gives back and
        # the one the writer's fast path takes; list() of one tuple sizes
        # the row to its cells, where growing a list leaves spare slots
        truth = self.truth
        if self.tuv is not None:
            tow = (*self.tuv, *tension, self.towline.unstretched_length)
        else:
            tow = (None,) * 10
        crawler = self.hexapod
        if crawler is not None:
            hexapod = (1, *crawler.position.tolist(), crawler.heading,
                       self.hexapod_faults,
                       *[theta for cfg in crawler.legs
                         for theta in (cfg.theta1, cfg.theta2, cfg.theta3)])
        else:
            hexapod = (0, None, None, None, self.hexapod_faults) + (None,) * 18
        gps = innovations[GPS]
        self.rows.append(list((
            t, truth.x, truth.y, truth.psi, truth.u, truth.v, truth.r,
            *self.est_x, *self.est_P.diagonal().tolist(),
            cmd_heading, speed_cmd, surge_cmd, yaw_cmd, left, right,
            *realized, *disturbance, *tow, *hexapod,
            self.mission_state.phase.value,
            *(gps.tolist() if gps is not None else (None, None)),
            innovations[COMPASS], innovations[GYRO])))  # a float, or None

    # -- driving ----------------------------------------------------------------

    def run(self) -> RunLog:
        scn = self.scn
        n_steps = int(round(scn.duration / scn.dt))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            while self.step_count < n_steps and (
                    self.mission_state.phase is not MissionPhase.CONCLUDED):
                try:
                    self.step()
                except SimulationFault as exc:
                    self._abort(exc)
                    break

        # the coverage report can fault too (a diverged survey platform's
        # grid is too large), and aborts the run like a step would
        report = None
        if self.coverage_track:  # only a search sweeps
            search_time = 0.0
            for _ in self.coverage_track:
                search_time += scn.dt
            try:
                # a search resumed in the last step holds no point yet
                report = coverage_report(
                    np.array(self.coverage_track), scn.mission.swath,
                    active_time=search_time,
                    breaks=[k for k in self.search_starts
                            if k < len(self.coverage_track)])
            except SimulationFault as exc:
                self._abort(exc)
        concluded = self.mission_state.phase is MissionPhase.CONCLUDED
        aborted = self.abort_reason != ""
        truncated = (scn.mission.kind == SEARCH and not concluded
                     and not aborted)
        reason = ("aborted" if aborted
                  else "concluded" if concluded else "duration_cap")
        self._log_event(self.step_count * scn.dt, "run_end", reason=reason)
        metrics = self._metrics(concluded, truncated, report)
        return RunLog(columns=list(COLUMNS), rows=self.rows,
                      events=self.events, metrics=metrics)

    def _abort(self, exc: SimulationFault):
        """Log a fault as an abort event; the run's abort_reason is its
        first fault's."""
        reason = f"{type(exc).__name__}: {exc}"
        self._log_event(self.step_count * self.scn.dt, "abort", reason=reason)
        if not self.abort_reason:
            self.abort_reason = reason

    def _metrics(self, concluded: bool, truncated: bool,
                 report: dict | None) -> dict:
        scn = self.scn
        # truth_x, truth_y of each row
        track = np.fromiter(((row[1], row[2]) for row in self.rows),
                            dtype=(float, 2), count=len(self.rows))
        distance = (float(np.sum(np.linalg.norm(np.diff(track, axis=0), axis=1)))
                    if len(track) > 1 else 0.0)
        detections = len(self.sweep.detected) if self.sweep is not None else 0
        metrics = {
            "scenario": scn.name,
            "seed": scn.seed,
            "dt": scn.dt,
            "steps": len(self.rows),
            "sim_time": round(self.step_count * scn.dt, 9),
            "final_phase": self.mission_state.phase.value,
            "concluded": concluded,
            "truncated": truncated,
            "aborted": self.abort_reason != "",
            "abort_reason": self.abort_reason,
            "distance_traveled": distance,
            "detections": detections,
            "confirmations": sum(event["event"] == "confirmation"
                                 for event in self.events),
            "hexapod_faults": self.hexapod_faults,
        }
        if report is not None:
            metrics["area_searched"] = report["area_searched"]
            metrics["area_per_hour"] = report["area_per_hour"]
        elif scn.mission.kind == SEARCH:
            # nothing searched, or a grid too large to measure (aborted)
            area = None if self.coverage_track else 0.0
            metrics["area_searched"] = metrics["area_per_hour"] = area
        if scn.mission.kind == LOITER_MISSION and len(track):
            # a track far off the point overflows the norm to inf (the
            # quantile to nan), which JSON lacks: such an offset is null
            with np.errstate(all="ignore"):
                offsets = np.linalg.norm(track - scn.mission.point, axis=1)
                for key, offset in (
                        ("loiter_max_offset", np.max(offsets)),
                        ("loiter_p95_offset", np.quantile(offsets, 0.95))):
                    offset = float(offset)
                    metrics[key] = offset if math.isfinite(offset) else None
            metrics["loiter_fraction_within_2p5"] = float(
                np.mean(offsets <= 2.5))
        return metrics


def run_simulation(scenario: Scenario) -> RunLog:
    """Drive one scenario to its end; deterministic in (scenario, seed)."""
    return Simulation(scenario).run()


# -- serialization -------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        # a numpy float64's own repr is np.float64(...), not a number
        return repr(float(value))
    return str(value)


def _quoted_line(cells: list) -> str:
    """One record as csv.writer(lineterminator="\n") writes it, without
    the terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def _csv_lines(columns, rows):
    """Each record of states.csv, header first, as csv.writer writes it.

    A record is its cells joined with commas, a float cell (the common
    case) going straight to repr(). csv.writer itself writes the records
    that need its quoting rules: a cell holding a comma (the line then has
    more commas than cell boundaries), a quote, a line break, and the empty
    line (a lone empty cell is written "").
    """
    yield _quoted_line(columns)
    for row in rows:
        cells = [repr(v) if type(v) is float else "" if v is None
                 else _format_cell(v) for v in row]
        line = ",".join(cells)
        if (not line or line.count(",") != len(cells) - 1 or '"' in line
                or "\n" in line or "\r" in line):
            line = _quoted_line(cells)
        yield line


def emit_outputs(log: RunLog, out_dir, formats=("csv", "json")) -> dict:
    """Write the log to a run directory; returns {kind: path}.

    states.csv holds the bytes Python's csv module writes (excel dialect,
    "\n" line ends) for the cells: None empty, a bool (numpy's too) 0 or 1,
    a float (np.float64 too) its Python float's repr(), else its str().
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    if "csv" in formats:
        path = out / STATES_FILE
        with open(path, "w", encoding="ascii", newline="") as fh:
            for line in _csv_lines(log.columns, log.rows):
                fh.write(line + "\n")
        written["states"] = path
    if "json" in formats:
        events_path = out / EVENTS_FILE
        with open(events_path, "w", encoding="ascii", newline="") as fh:
            for event in log.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        written["events"] = events_path
        metrics_path = out / METRICS_FILE
        with open(metrics_path, "w", encoding="ascii", newline="") as fh:
            json.dump(log.metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written["metrics"] = metrics_path
    return written


def _int_first(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _records(fh):
    """csv.reader's records of fh: a line with no quote, CR or NUL, within
    csv's field limit, split on commas; csv.reader from the first other on."""
    limit = csv.field_size_limit()
    for line in fh:
        if '"' in line or "\r" in line or "\0" in line or len(line) > limit:
            yield from csv.reader(itertools.chain([line], fh))
            return
        yield line.rstrip("\n").split(",") if line != "\n" else []


def _parse_row(cells: list, width: int, phase: list) -> list:
    """The first width cells of a record: an empty one None, one at a phase
    index its str, any other an int if an integer literal, else a float."""
    aside = [(i, cells[i]) for i in phase if i < len(cells)]
    for i, _ in aside:
        cells[i] = ""
    row = [float(c) if "." in c else None if not c else _int_first(c)
           for c in cells[:width]]
    for i, cell in aside:
        row[i] = cell or None
    return row


class RunFileError(ValueError):
    """A metrics.json or events.jsonl that read_records rejects; the message
    starts with the file's path, and for an event with its line."""


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii")
    except (OSError, ValueError) as exc:  # ValueError: not ASCII
        raise RunFileError(f"{path}: cannot read the file ({exc})") from None


def _load_json(where, text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise RunFileError(f"{where}: not valid JSON ({exc})") from None


def read_records(run_dir) -> tuple[list, dict]:
    """(events, metrics) of a run directory, [] and {} for a file it lacks.

    Raises RunFileError for a file that is not ASCII JSON, metrics that are
    not an object and an event line (blank ones are skipped) that is not an
    object with a printable "event" kind.
    """
    run = Path(run_dir)
    metrics_path, events_path = run / METRICS_FILE, run / EVENTS_FILE
    metrics = {}
    if metrics_path.exists():
        metrics = _load_json(metrics_path, _read_text(metrics_path))
        if not isinstance(metrics, dict):
            raise RunFileError(f"{metrics_path}: not a JSON object")
    events = []
    lines = _read_text(events_path).splitlines() if events_path.exists() else []
    for lineno, line in enumerate(lines, start=1):
        where = f"{events_path}:{lineno}"
        if line.strip():
            event = _load_json(where, line)
            kind = event.get("event") if isinstance(event, dict) else None
            if not (isinstance(kind, str) and kind.isprintable()):
                raise RunFileError(f"{where}: not an event record")
            events.append(event)
    return events, metrics


def read_run(run_dir) -> RunLog:
    """Parse a run directory back into a RunLog (inverse of emit_outputs)."""
    run = Path(run_dir)
    states = run / STATES_FILE
    if not states.exists():
        raise FileNotFoundError(f"no {STATES_FILE} in {run}")
    with open(states, encoding="ascii", newline="") as fh:
        records = _records(fh)
        columns = next(records, None)
        if columns is None:
            raise ValueError(f"{states} is empty: it has no header line")
        phase = [i for i, name in enumerate(columns) if name == "phase"]
        rows = [_parse_row(cells, len(columns), phase) for cells in records]
    events, metrics = read_records(run)
    return RunLog(columns=columns, rows=rows, events=events, metrics=metrics)
