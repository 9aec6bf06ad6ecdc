"""coastsim benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload storm_hold --seed 1 --seconds 25 \\
        --trace 0

Run from anywhere; the checkout is the directory above this file. The
harness is one process and one thread, closed loop: a cycle (set-up, run,
`emit_outputs`, `read_run`, checks) starts when the previous one ends. With
`--trace 0` it times a block of set-ups, then runs the workload's fixed case
list, repeating it while the window lasts, and reports the end-to-end
metrics scaled to a nominal host speed (hostspeed.py); with `--trace 1` it
alternates untraced and traced cycles of case 0 and reports the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Per-run digests, metadata
and samples are printed above it and saved under `.perfbench_work/`.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import NOMINAL, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUTPUT_FILES = ("states.csv", "events.jsonl", "metrics.json")
REQUIRED = (Path("src") / "coastsim" / "__init__.py",
            Path("scenarios") / "calm_cruise.yaml",
            Path("scenarios") / "cove.terrain")

SETUP_REPEATS = 100  # timed set-ups before each untraced cycle
IO_REPEATS = 2  # emit + read rounds per untraced cycle (one when traced)

OFF_STEP = ("scenario.load_scenario", "runner.emit_outputs", "runner.read_run")

# emit, read and memory are per step (one log row per step): survey run
# length varies about 10% with the seed
END_TO_END = {"setup_s": "s", "step_us": "us", "emit_us_per_step": "us",
              "read_us_per_step": "us", "peak_kb_per_step": "kB"}


class HarnessError(RuntimeError):
    """The checkout cannot be benchmarked (missing or foreign sources)."""


def import_coastsim():
    """Import coastsim from this checkout's src/, never from elsewhere."""
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise HarnessError(f"not a coastsim checkout: {ROOT} lacks "
                           f"{', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import coastsim
    origin = Path(coastsim.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise HarnessError(f"coastsim imported from {origin}, not {ROOT}/src")
    return coastsim


@dataclass
class Sample:
    """One cycle: what ran, how long each part took, whether it passed."""

    case: int
    sim_seed: int
    traced: bool
    steps: int = 0
    # phase ("run", "emit", "read") -> [(perf_counter start, end), ...]
    intervals: dict = field(default_factory=dict)
    peak_kb_per_step: float | None = None
    digests: dict = field(default_factory=dict)
    failure: str | None = None
    spans: tuple = (0, 0)  # tracer span range of a traced cycle
    outcomes: dict = field(default_factory=dict)

    def phases(self, clock=None) -> dict:
        """Timed metrics of this cycle: wall time, or host-speed scaled via
        `clock`. Repeated emit/read rounds are averaged."""
        span = clock.scaled if clock else (lambda t0, t1: t1 - t0)
        per_step = 1e6 / self.steps
        return {name: statistics.fmean(span(*i) for i in self.intervals[phase])
                * per_step
                for phase, name in (("run", "step_us"),
                                    ("emit", "emit_us_per_step"),
                                    ("read", "read_us_per_step"))}


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def metadata() -> dict:
    import numpy as np
    return {"commit": _commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


class Bench:
    """Runs the cycles of one workload invocation and collects samples."""

    def __init__(self, workload, seed: int, workdir: Path, tamper=None):
        from coastsim import runner
        self.runner = runner
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tamper = tamper  # self-check hook: called on the run directory
        self.cases: dict = {}
        self.samples: list[Sample] = []
        self.setups: list[tuple] = []  # (snippet, set-up) seconds, paired
        self.speed = HostSpeed()
        self.tracer = None

    def case(self, index: int):
        if index not in self.cases:
            self.cases[index] = self.workload.case(self.seed, index)
        return self.cases[index]

    def time_setups(self, case):
        """Time SETUP_REPEATS set-ups of `case`, each right after one run of
        the calibration snippet. A set-up lasts about a millisecond, too
        short for the sampler's interval, so each is scaled by the snippet
        timed next to it instead. A block before every cycle spreads the
        set-ups over the host's speed regimes."""
        self.speed.stop()  # its handler would land inside the pairs
        self.workload.setup(case)  # untimed: a first call is slower
        clock = time.perf_counter
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            self.speed.calibration_snippet()
            t1 = clock()
            self.workload.setup(case)
            self.setups.append((t1 - t0, clock() - t1))
        self.speed.start()

    def cycle(self, index: int, traced: bool = False,
              measure_memory: bool = False) -> Sample:
        case = self.case(index)
        sample = Sample(index, case.sim_seed, traced)
        run_dir = self.workdir / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        gc.collect()
        rss0 = _rss_bytes() if measure_memory else 0
        if traced:
            # the sampler's handler would land inside the spans
            self.speed.stop()
            lo = len(self.tracer)
            before = dict(self.tracer.outcomes)
            self.tracer.install()
        clock = time.perf_counter
        try:
            prepared = self.workload.setup(case)
            t0 = clock()
            log, sample.steps = self.workload.execute(prepared)
            sample.intervals["run"] = [(t0, clock())]
            del prepared
            mismatch = False
            for _ in range(1 if traced else IO_REPEATS):
                t0 = clock()
                self.runner.emit_outputs(log, run_dir)
                sample.intervals.setdefault("emit", []).append((t0, clock()))
                if measure_memory and sample.peak_kb_per_step is None:
                    sample.peak_kb_per_step = ((_peak_rss_bytes() - rss0)
                                               / 1e3 / sample.steps)
                if self.tamper is not None:
                    self.tamper(run_dir)
                t0 = clock()
                back = self.runner.read_run(run_dir)
                sample.intervals.setdefault("read", []).append((t0, clock()))
                mismatch = mismatch or back != log
        except Exception:  # a crash is a failed run, not a harness error
            sample.failure = "exception: " + traceback.format_exc(limit=3)
            return self._keep(sample)
        finally:
            if traced:
                self.tracer.uninstall()
                sample.spans = (lo, len(self.tracer))
                sample.outcomes = {k: v - before[k]
                                   for k, v in self.tracer.outcomes.items()}
                self.speed.start()
        sample.digests = {name: _sha256(run_dir / name)
                          for name in OUTPUT_FILES}
        if log.metrics.get("aborted"):
            sample.failure = f"aborted: {log.metrics.get('abort_reason')}"
        elif mismatch:
            sample.failure = "read_run(emit_outputs(log)) differs from log"
        else:
            sample.failure = self.workload.check(log)
        return self._keep(sample)

    def _keep(self, sample: Sample) -> Sample:
        self.samples.append(sample)
        return sample

    def check_determinism(self):
        """Fail every later run of a case whose bytes differ from its first."""
        first: dict = {}
        for s in self.samples:
            if not s.digests:
                continue
            ref = first.setdefault(s.case, s.digests)
            if s.digests != ref and s.failure is None:
                changed = [k for k in OUTPUT_FILES if s.digests[k] != ref[k]]
                s.failure = (f"case {s.case} wrote different bytes on a "
                             f"repeat: {', '.join(changed)}")

    def measure(self, seconds: float, traced: bool):
        """Run cycles for about `seconds`; never fewer than the minimum."""
        self.speed.start()
        try:
            self._measure(seconds, traced)
        finally:
            self.speed.stop()
        self.check_determinism()

    def _measure(self, seconds: float, traced: bool):
        """Untraced: one pass over the workload's case list, then further
        passes while the window lasts. Traced: (untraced, traced) pairs of
        case 0. The window only adds repeats of the same cases, so every
        commit measures the same inputs."""
        if traced:
            from tracer import Tracer
            self.tracer = Tracer()
            plan = ((0, False), (0, True))
        else:
            plan = tuple((index, False) for index in self.workload.cases)
        start = time.perf_counter()
        longest = 0.0
        for n, (index, with_trace) in enumerate(itertools.cycle(plan)):
            elapsed = time.perf_counter() - start
            # traced mode stops only after a whole (untraced, traced) pair
            whole = not traced or n % 2 == 0
            if n >= len(plan) and whole and elapsed + longest > seconds:
                break
            t0 = time.perf_counter()
            if not traced:
                self.time_setups(self.case(index))
            self.cycle(index, traced=with_trace, measure_memory=n == 0)
            longest = max(longest, time.perf_counter() - t0)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(bench: Bench) -> dict:
    """Per-case means over the passing untraced cycles, then the median
    across cases, at nominal host speed. Averaging cases first keeps the
    repeats of case 0 from outvoting the others; run length differs by case
    on survey. `setup_s` is the median over all paired set-ups."""
    by_case: dict = {}
    for s in bench.samples:
        if s.failure is None and not s.traced:
            by_case.setdefault(s.case, []).append(s.phases(bench.speed))
    values = {name: _median([statistics.fmean(p[name] for p in runs)
                             for runs in by_case.values()])
              for name in ("step_us", "emit_us_per_step", "read_us_per_step")}
    values["setup_s"] = _median([setup * NOMINAL / snippet
                                 for snippet, setup in bench.setups])
    peak = [s.peak_kb_per_step for s in bench.samples
            if s.peak_kb_per_step is not None]
    values["peak_kb_per_step"] = peak[0] if peak else 0.0
    return {k: {"value": values[k], "unit": unit}
            for k, unit in END_TO_END.items()}


def per_layer_metrics(bench: Bench) -> dict:
    from tracer import LAYERS, SPAN_NAMES
    traced = [s for s in bench.samples if s.traced and s.failure is None]
    plain = [s for s in bench.samples if not s.traced and s.failure is None]
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    summaries = [(s, bench.tracer.summary(*s.spans)) for s in traced]
    # per-layer times are plain wall time: no sampler ran while tracing
    first = summaries[0][1] if summaries else None

    def per_step(pick):
        return _median([pick(summary) / 1e3 / s.steps
                        for s, summary in summaries])

    for name in SPAN_NAMES:
        calls = first[name][0] if first else 0
        put(f"{name}.calls", calls, "count")
        put(f"{name}.us_per_step",
            per_step(lambda summary, n=name: summary[n][1]), "us")
    put("runner.step.total_us_per_step",
        per_step(lambda summary: summary["runner.step"][2]), "us")
    # layer totals cover the simulated steps: set-up and run-directory I/O
    # have their own end-to-end metrics
    for layer in LAYERS:
        names = [n for n in SPAN_NAMES
                 if n.split(".")[0] == layer and n not in OFF_STEP]
        put(f"layer.{layer}.us_per_step",
            per_step(lambda summary, ns=names: sum(summary[n][1]
                                                   for n in ns)), "us")

    outcomes = traced[0].outcomes if traced else {}
    updates = first["nav.ekf_update"][0] if first else 0
    advances = first["hexapod.body_advance"][0] if first else 0
    put("nav.ekf_update.accept_ratio",
        outcomes.get("nav.ekf_update", 0) / updates if updates else 0.0,
        "ratio")
    put("hexapod.body_advance.fault_ratio",
        outcomes.get("hexapod.body_advance", 0) / advances if advances
        else 0.0, "ratio")
    put("runner.emit_outputs.bytes", outcomes.get("runner.emit_outputs", 0),
        "bytes")
    put("trace.overhead_us_per_step",
        _median([s.phases()["step_us"] for s in traced])
        - _median([s.phases()["step_us"] for s in plain]), "us")
    return metrics


def report(bench: Bench, args, meta: dict) -> dict:
    attempted = len(bench.samples)
    failed = sum(s.failure is not None for s in bench.samples)
    metrics = (per_layer_metrics(bench) if args.trace
               else end_to_end_metrics(bench))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    runs = []
    for s in bench.samples:
        run = {k: v for k, v in vars(s).items() if k != "spans"}
        if s.failure is None:
            run["wall"] = s.phases()
            run["scaled"] = s.phases(bench.speed)
            run["host_factor"] = bench.speed.factor(
                s.intervals["run"][0][0], s.intervals["read"][-1][1])
        runs.append(run)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "meta": meta,
        "fail_frac": failed / attempted, "runs": runs,
        "setup_wall_s": [setup for _, setup in bench.setups],
        "host_samples": len(bench.speed.durations), "result": result,
    }
    with open(bench.workdir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)
    if bench.tracer is not None:
        bench.tracer.write(bench.workdir / "spans.npz")

    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for s, run in zip(bench.samples, runs):
        digests = " ".join(f"{k}={v}" for k, v in s.digests.items())
        timing = (f"wall_step_us={run['wall']['step_us']:.1f} "
                  f"host_factor={run['host_factor']:.3f} "
                  if s.failure is None else "")
        print(f"run {args.workload} seed={args.seed} case={s.case} "
              f"sim_seed={s.sim_seed} traced={int(s.traced)} "
              f"steps={s.steps} {timing}{digests or 'no-output'}")
        if s.failure:
            print(f"FAILED case={s.case}: {s.failure}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.3f}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    return result


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        import_coastsim()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    args = parse_args(argv, WORKLOADS)

    meta = metadata()
    meta["loadavg_start"] = os.getloadavg()
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    bench = Bench(WORKLOADS[args.workload](ROOT, workdir), args.seed, workdir)
    bench.measure(args.seconds, traced=bool(args.trace))
    shutil.rmtree(workdir / "run", ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    result = report(bench, args, meta)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
