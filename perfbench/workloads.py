"""The four benchmark workloads: seeded inputs, set-up, one run, checks.

Each workload turns (benchmark seed, case index) into one case: the inputs
of one run. A case is set up (scenario load and validation plus
`Simulation(...)` construction, or the crawler's params, terrain and
standing legs), executed (the simulated steps and the end-of-run metrics),
and checked. Every run leaves a `RunLog` that the harness writes with
`emit_outputs` and reads back with `read_run`.

coastsim is only reached through attribute lookups on its modules
(`runner.Simulation`, `hexapod.body_advance`, ...), so the tracer can wrap
those names where the harness calls them.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import yaml

from coastsim import environment, hexapod, mission, runner, scenario

CRUISE_SCENARIO = Path("scenarios") / "calm_cruise.yaml"
COVE_TERRAIN = Path("scenarios") / "cove.terrain"

# criterion 3: the cruise must reach its commanded speed
CRUISE_SPEED = 2.0  # [m/s], as in calm_cruise.yaml
CRUISE_REACH_BY = 30.0  # [s]
CRUISE_STEADY_WINDOW = 60.0  # [s]
CRUISE_STEADY_TOL = 0.05

# criterion 2: station keeping holds 95% of the run within 2.5 m
LOITER_MIN_FRACTION = 0.95

# the crawler walks at dt 0.1 s (criterion 1's step) with a 1 m swath
CRAWLER_DT = 0.1
CRAWLER_STEPS = 8000
CRAWLER_SWATH = 1.0
CRAWLER_ARRIVAL = 1.0  # [m] waypoint arrival radius
CRAWLER_LEG = (8.0, 20.0)  # [m] range of distances between waypoints
# interior of the cove grid (-50..150 m) kept clear of the map edge
COVE_LO, COVE_HI = -40.0, 140.0


# the cases one invocation runs, in order; the repeat of case 0 is the
# byte-identity check
CASES = (0, 0, 1)


def case_seed(seed: int, index: int) -> int:
    """Simulator seed of case `index` of benchmark seed `seed`."""
    return 1000 * seed + index


@dataclasses.dataclass
class Case:
    """One run's inputs; `spec` is a scenario path or crawler settings."""

    index: int
    sim_seed: int
    spec: object


class SimulatorWorkload:
    """A scenario driven end to end through `runner.Simulation`.

    `duration` shortens every run (the harness self-check uses it); None
    keeps each scenario's own.
    """

    cases = CASES

    def __init__(self, root: Path, workdir: Path,
                 duration: float | None = None):
        self.root = root
        self.workdir = workdir
        self.duration = duration

    def overrides(self, case: Case) -> dict:
        return {}

    def setup(self, case: Case):
        scn = scenario.load_scenario(case.spec)
        # the same overrides `coastsim simulate --seed/--duration` applies
        overrides = self.overrides(case)
        if self.duration is not None:
            overrides["duration"] = self.duration
        if overrides:
            scn = dataclasses.replace(scn, **overrides)
        return runner.Simulation(scn)

    def execute(self, sim) -> tuple[runner.RunLog, int]:
        log = sim.run()
        return log, log.metrics["steps"]

    def check(self, log: runner.RunLog) -> str | None:
        """Why the run fails its workload check, or None."""
        raise NotImplementedError

    def _write_tree(self, name: str, tree: dict) -> Path:
        path = self.workdir / f"{name}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(tree, fh, sort_keys=True)
        return path


class CruiseTow(SimulatorWorkload):
    """calm_cruise.yaml at the case seed: tow body on, 100 Hz rows."""

    name = "cruise_tow"
    # the longest run (12k steps); seeds change only noise, not the work
    cases = (0, 0)

    def case(self, seed: int, index: int) -> Case:
        return Case(index, case_seed(seed, index), self.root / CRUISE_SCENARIO)

    def overrides(self, case: Case) -> dict:
        return {"seed": case.sim_seed}

    def check(self, log):
        i_t, i_u = log.columns.index("t"), log.columns.index("truth_u")
        ts = np.array([row[i_t] for row in log.rows])
        us = np.array([row[i_u] for row in log.rows])
        hits = ts[us >= CRUISE_SPEED]
        if not len(hits) or hits[0] > CRUISE_REACH_BY:
            return f"{CRUISE_SPEED} m/s not reached by t={CRUISE_REACH_BY} s"
        steady = us[ts >= ts[-1] - CRUISE_STEADY_WINDOW].mean()
        if abs(steady - CRUISE_SPEED) > CRUISE_STEADY_TOL * CRUISE_SPEED:
            return f"steady speed {steady:.4f} m/s off {CRUISE_SPEED} m/s"
        return None


class StormHold(SimulatorWorkload):
    """The criterion-2 loiter in 20/30 km/h wind, alternating by case."""

    name = "storm_hold"

    def case(self, seed: int, index: int) -> Case:
        sim_seed = case_seed(seed, index)
        wind = 20.0 if index % 2 == 0 else 30.0
        tree = {
            "run": {"name": f"storm-hold-{sim_seed}", "seed": sim_seed,
                    "dt": 0.1, "duration": 600.0},
            "world": {"disturbances": {
                "mean_wind_speed": f"{wind} km/h",
                "wind_direction": "180 deg",
                "gust_fraction": 0.15, "gust_tau": 10.0,
                "wave_height": 0.5, "wave_period": 4.0,
                "current_speed": "0.15 km/h", "current_direction": "-90 deg"}},
            "tuv": {"enabled": False},
            "controllers": {"sensors": {"compass_rate": 10, "gyro_rate": 10}},
            "mission": {"kind": "loiter", "point": [0.0, 0.0]},
        }
        return Case(index, sim_seed,
                    self._write_tree(f"{self.name}-{sim_seed}", tree))

    def check(self, log):
        fraction = log.metrics.get("loiter_fraction_within_2p5", 0.0)
        if fraction < LOITER_MIN_FRACTION:
            return f"loiter fraction {fraction:.4f} < {LOITER_MIN_FRACTION}"
        return None


class Survey(SimulatorWorkload):
    """A search over the cove terrain with seeded objects, p_detect 1.

    The area lands anywhere in the cove, so sand, rock and mud all come up
    across seeds. Each object sits near its own lane, a fixed fraction of
    the way along it, jittered by the seed, so every object is detected
    and every run walks the same phases. Run length still varies by about
    10% with the crawler's walk (terrain speed and distance).
    """

    name = "survey"
    width, height, swath = 60.0, 40.0, 10.0
    # (fraction along x, lane index) of each object; lanes run along x
    layout = ((0.3, 1), (0.7, 2))
    jitter = (4.0, 1.5)  # [m] uniform half-width along and across the lane

    def case(self, seed: int, index: int) -> Case:
        sim_seed = case_seed(seed, index)
        gen = np.random.default_rng([seed, index, 1])
        ax = float(gen.uniform(COVE_LO, COVE_HI - self.width))
        ay = float(gen.uniform(COVE_LO, COVE_HI - self.height))
        objects = []
        for k, (along, lane) in enumerate(self.layout):
            ox = ax + along * self.width + gen.uniform(-1, 1) * self.jitter[0]
            oy = (ay + (lane + 0.5) * self.swath
                  + gen.uniform(-1, 1) * self.jitter[1])
            objects.append({"id": f"obj-{k + 1}", "class": "device",
                            "position": [round(float(ox), 3),
                                         round(float(oy), 3)]})
        tree = {
            "run": {"name": f"survey-{sim_seed}", "seed": sim_seed,
                    "dt": 0.05, "duration": 1800.0},
            "world": {"terrain": str(self.root / COVE_TERRAIN)},
            "asv": {"initial": {"x": round(ax - 3.0, 3),
                                "y": round(ay - 3.0, 3)}},
            "controllers": {"sensors": {"gyro_rate": 20}},
            "mission": {"kind": "search",
                        "area": {"x": round(ax, 3), "y": round(ay, 3),
                                 "width": self.width, "height": self.height},
                        "swath": self.swath, "p_detect": 1.0,
                        "objects": objects},
        }
        return Case(index, sim_seed,
                    self._write_tree(f"{self.name}-{sim_seed}", tree))

    def check(self, log):
        m = log.metrics
        if not m.get("concluded") or m.get("truncated"):
            return f"search ended in {m.get('final_phase')!r}, not concluded"
        if m["confirmations"] != m["detections"]:
            return (f"{m['confirmations']} confirmations for "
                    f"{m['detections']} detections")
        return None


@dataclasses.dataclass
class CrawlerRun:
    """A crawler set up and ready to walk its waypoint list."""

    params: object
    terrain: object
    state: object
    waypoints: list


class CrawlerWalk:
    """Library-level walk: `body_advance` over the cove toward seeded
    waypoints, then `coverage_report` of the track (criterion-1 traffic)."""

    name = "crawler_walk"
    cases = CASES
    columns = (["t", "hex_x", "hex_y", "hex_heading", "hex_faults"]
               + [f"hex_leg{leg}_theta{joint}"
                  for leg in range(6) for joint in (1, 2, 3)])

    def __init__(self, root: Path, workdir: Path, steps: int = CRAWLER_STEPS):
        self.root = root
        self.workdir = workdir
        self.steps = steps

    def case(self, seed: int, index: int) -> Case:
        gen = np.random.default_rng([seed, index, 2])
        start = gen.uniform(COVE_LO, COVE_HI, 2)
        points = [start]
        # enough waypoints that the walk never runs out of them
        for _ in range(64):
            while True:
                bearing = gen.uniform(-math.pi, math.pi)
                dist = gen.uniform(*CRAWLER_LEG)
                nxt = points[-1] + dist * np.array([math.cos(bearing),
                                                    math.sin(bearing)])
                if np.all((nxt >= COVE_LO) & (nxt <= COVE_HI)):
                    break
            points.append(nxt)
        return Case(index, case_seed(seed, index),
                    {"start": start, "waypoints": points[1:],
                     "heading": float(gen.uniform(-math.pi, math.pi))})

    def setup(self, case: Case) -> CrawlerRun:
        params = hexapod.HexapodParams()
        terrain = environment.load_terrain(self.root / COVE_TERRAIN)
        start = np.array(case.spec["start"], dtype=float)
        cls, _ = terrain.terrain_at(start)
        state = hexapod.HexapodState(start, heading=case.spec["heading"],
                                     terrain=cls,
                                     legs=hexapod.stand_legs(params))
        return CrawlerRun(params, terrain, state, list(case.spec["waypoints"]))

    def execute(self, run: CrawlerRun) -> tuple[runner.RunLog, int]:
        state, params, terrain = run.state, run.params, run.terrain
        waypoints = run.waypoints
        target = 0
        rows, track, events = [], [state.position.copy()], []
        for k in range(self.steps):
            t = k * CRAWLER_DT
            goal = waypoints[target]
            vec = goal - state.position
            if math.hypot(vec[0], vec[1]) <= CRAWLER_ARRIVAL:
                events.append({"t": round(t, 9), "event": "waypoint_reached",
                               "index": target})
                target += 1
                goal = waypoints[target]
                vec = goal - state.position
            state.terrain, _ = terrain.terrain_at(state.position)
            state = hexapod.body_advance(state, math.atan2(vec[1], vec[0]),
                                         CRAWLER_DT, params)
            row = [t, float(state.position[0]), float(state.position[1]),
                   state.heading, state.faults]
            for cfg in state.legs:
                row += [cfg.theta1, cfg.theta2, cfg.theta3]
            rows.append(row)
            track.append(state.position.copy())
        report = mission.coverage_report(np.array(track), CRAWLER_SWATH,
                                         active_time=self.steps * CRAWLER_DT)
        metrics = {"steps": self.steps, "hexapod_faults": state.faults,
                   "waypoints_reached": target, "aborted": False}
        metrics.update(report)
        events.append({"t": round(self.steps * CRAWLER_DT, 9),
                       "event": "run_end", "reason": "duration_cap"})
        return (runner.RunLog(columns=list(self.columns), rows=rows,
                              events=events, metrics=metrics), self.steps)

    def check(self, log: runner.RunLog) -> str | None:
        if log.metrics["hexapod_faults"]:
            return f"{log.metrics['hexapod_faults']} gait faults"
        if not log.metrics["area_searched"] > 0.0:
            return "empty coverage"
        return None


WORKLOADS = {cls.name: cls for cls in (CruiseTow, StormHold, Survey,
                                       CrawlerWalk)}
