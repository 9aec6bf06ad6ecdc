"""Span tracer for coastsim's layer boundaries, applied from outside.

`Tracer.install()` replaces each traced function with a wrapper wherever a
module of the package binds it, i.e. at every caller's import site, and the
class attribute for traced methods. The harness calls coastsim through
module attributes, so its calls go through the same wrappers. Each call
records a span (name, start, end, parent) in flat in-memory arrays;
`uninstall()` puts the originals back. Self time is a span's duration minus
the time of its directly nested traced spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path). Method names are
# "Class.method"; the span name is "<layer>.<function>".
TRACED = (
    ("nav.sample_sensors", "coastsim.nav", "sample_sensors"),
    ("nav.ekf_predict", "coastsim.nav", "ekf_predict"),
    ("nav.ekf_update", "coastsim.nav", "ekf_update"),
    ("tuv.tuv_step", "coastsim.tuv", "tuv_step"),
    ("tuv.towline_tension", "coastsim.tuv", "towline_tension"),
    ("tuv.separation_rate", "coastsim.tuv", "separation_rate"),
    ("tuv.winch_set_length", "coastsim.tuv", "winch_set_length"),
    ("environment.disturbance_wrench", "coastsim.environment",
     "disturbance_wrench"),
    ("environment.damping_wrench", "coastsim.environment", "damping_wrench"),
    ("environment.GustProcess.step", "coastsim.environment",
     "GustProcess.step"),
    ("environment.TerrainMap.terrain_at", "coastsim.environment",
     "TerrainMap.terrain_at"),
    ("control.pid_step", "coastsim.control", "pid_step"),
    ("control.guidance_step", "coastsim.control", "guidance_step"),
    ("scenario.guidance_for_loiter", "coastsim.scenario",
     "guidance_for_loiter"),
    ("scenario.guidance_for_waypoint", "coastsim.scenario",
     "guidance_for_waypoint"),
    ("scenario.load_scenario", "coastsim.scenario", "load_scenario"),
    ("asv.asv_step", "coastsim.asv", "asv_step"),
    ("asv.allocate_differential_thrust", "coastsim.asv",
     "allocate_differential_thrust"),
    ("core.rotate_body_to_nav", "coastsim.core", "rotate_body_to_nav"),
    ("core.rotate_nav_to_body", "coastsim.core", "rotate_nav_to_body"),
    ("core.wrap_angle", "coastsim.core", "wrap_angle"),
    ("hexapod.body_advance", "coastsim.hexapod", "body_advance"),
    ("hexapod.leg_ik", "coastsim.hexapod", "leg_ik"),
    ("mission.mission_step", "coastsim.mission", "mission_step"),
    ("mission.SweepSensor.sweep", "coastsim.mission", "SweepSensor.sweep"),
    ("mission.EnvironmentalSampler.maybe_sample", "coastsim.mission",
     "EnvironmentalSampler.maybe_sample"),
    ("mission.generate_lawnmower", "coastsim.mission", "generate_lawnmower"),
    ("mission.coverage_report", "coastsim.mission", "coverage_report"),
    ("runner.run", "coastsim.runner", "Simulation.run"),
    ("runner.step", "coastsim.runner", "Simulation.step"),
    ("runner.row_capture", "coastsim.runner", "Simulation._append_row"),
    ("runner.emit_outputs", "coastsim.runner", "emit_outputs"),
    ("runner.read_run", "coastsim.runner", "read_run"),
)

SPAN_NAMES = tuple(name for name, _, _ in TRACED)
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


def _ekf_accepted(args, result) -> bool:
    return bool(result.accepted)


def _advance_halted(args, result) -> bool:
    return result.faults > args[0].faults


def _bytes_written(args, result) -> int:
    return sum(path.stat().st_size for path in result.values())


# per-span outcome counters: (counter name, f(args, result) -> number)
OUTCOMES = {
    "nav.ekf_update": ("accepted", _ekf_accepted),
    "hexapod.body_advance": ("halted", _advance_halted),
    "runner.emit_outputs": ("bytes", _bytes_written),
}


class Tracer:
    """Flat, append-only span store plus the wrappers that fill it."""

    def __init__(self):
        self.name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcomes = {name: 0 for name in OUTCOMES}
        self._stack = [-1]
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.span_name)

    def _wrap(self, fn, name: str):
        nid = self.name_id[name]
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if outcome is not None:
                self.outcomes[name] += outcome[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every traced function at each site that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "coastsim" or key.startswith("coastsim.")]
        for name, modname, attr in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, name))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    def summary(self, lo: int, hi: int) -> dict:
        """{span name: (calls, self ns, total ns)} over spans [lo, hi)."""
        # slicing copies, so no numpy view pins the growing arrays
        names = np.frombuffer(self.span_name[lo:hi], dtype=np.int32)
        parents = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.int64)
               - np.frombuffer(self.start[lo:hi], dtype=np.int64))
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        n = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=n)
        self_ns = np.bincount(names, weights=own, minlength=n)
        total_ns = np.bincount(names, weights=dur, minlength=n)
        return {name: (int(calls[i]), float(self_ns[i]), float(total_ns[i]))
                for i, name in enumerate(SPAN_NAMES)}

    def write(self, path):
        """Dump every span (name, start, end, parent) as an .npz file."""
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))
