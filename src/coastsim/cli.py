"""Command-line front end: simulate / validate / report.

Exit codes: 0 success, 1 bad input (scenario, arguments or usage), 2
simulation aborted on a numerical fault (the partial log is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .runner import (EVENTS_FILE, METRICS_FILE, RunFileError, emit_outputs,
                     read_records, run_simulation)
from .scenario import SEED_LIMIT, ScenarioError, load_scenario

OUT_DIR_ENV = "COASTSIM_OUT"
FORMATS = ("csv", "json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coastsim",
        description="deterministic multi-vehicle marine survey simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write its log")
    sim.add_argument("scenario", help="path to a scenario YAML file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    sim.add_argument("--duration", type=float, default=None,
                     help="override the simulated duration [s]")
    sim.add_argument("--out", default=None,
                     help=f"output directory (default: ${OUT_DIR_ENV} or ./runs)")
    sim.add_argument("--format", default="csv,json",
                     help="comma-separated outputs to write: csv,json")

    val = sub.add_parser("validate", help="check a scenario file and exit")
    val.add_argument("scenario", help="path to a scenario YAML file")

    rep = sub.add_parser("report", help="summarize a finished run directory")
    rep.add_argument("run_dir", help="directory written by simulate")
    return parser


def _parse_formats(raw: str) -> tuple:
    formats = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [f for f in formats if f not in FORMATS]
    if unknown or not formats:
        raise ScenarioError(
            f"--format must name some of {','.join(FORMATS)}, got {raw!r}")
    return formats


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        if not 0 <= args.seed < SEED_LIMIT:
            raise ScenarioError(f"--seed must be in [0, 2**64), got {args.seed}")
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.duration is not None:
        # NaN fails the first test; inf, or too many steps, the second
        if not (args.duration >= 0.0
                and math.isfinite(args.duration / scenario.dt)):
            raise ScenarioError(
                f"--duration must be non-negative and not too many steps of "
                f"dt {scenario.dt} s to count, got {args.duration}")
        scenario = dataclasses.replace(scenario, duration=args.duration)
    formats = _parse_formats(args.format)

    base = args.out or os.environ.get(OUT_DIR_ENV) or "runs"
    run_dir = Path(base) / f"{scenario.name}-seed{scenario.seed}"
    try:  # before the run, so an unwritable --out costs no simulation
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create run directory {run_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1

    log = run_simulation(scenario)
    written = emit_outputs(log, run_dir, formats)

    m = log.metrics
    print(f"scenario {scenario.name!r} seed {scenario.seed}: "
          f"{m['steps']} steps, {m['sim_time']} s simulated, "
          f"final phase {m['final_phase']}")
    if m["detections"] or m["confirmations"]:
        print(f"detections {m['detections']}, confirmations {m['confirmations']}")
    for kind, path in sorted(written.items()):
        print(f"wrote {kind}: {path}")
    if log.aborted:
        print(f"ABORTED: {m['abort_reason']}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"{args.scenario}: OK")
    print(f"  name={scenario.name!r} seed={scenario.seed} dt={scenario.dt} "
          f"duration={scenario.duration}")
    print(f"  mission kind={scenario.mission.kind}")
    return 0


def _cmd_report(args) -> int:
    """Print metrics.json and a count of events.jsonl per event kind."""
    run = Path(args.run_dir)
    metrics_path, events_path = run / METRICS_FILE, run / EVENTS_FILE
    if not (metrics_path.exists() or events_path.exists()):
        raise FileNotFoundError(f"no {METRICS_FILE} or {EVENTS_FILE} in {run}")
    events, metrics = read_records(run)
    counts = Counter(event["event"] for event in events)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    for name in sorted(counts):
        print(f"{name}: {counts[name]}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage exit is 2, an abort's code
        return 0 if exc.code == 0 else 1
    handlers = {"simulate": _cmd_simulate, "validate": _cmd_validate,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except (ScenarioError, FileNotFoundError, RunFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
