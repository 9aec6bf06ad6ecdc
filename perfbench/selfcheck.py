"""Fast self-check of the benchmark harness (a few seconds).

    python3 perfbench/selfcheck.py

It shows that the gate can fail, on shortened runs of every workload:
  1. every end-to-end and per-layer metric named in BENCHMARK.json is
     emitted, as a finite number, for every workload;
  2. a tampered run directory, a forced abort and a crash each raise
     fail_frac, and so does a repeat that writes different bytes;
  3. each workload check rejects a log that misses its goal;
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SHORT_DURATION = 2.0  # [s] of simulated time per shortened run
SHORT_STEPS = 100  # crawler steps per shortened run


class SelfCheck:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.failures: list[str] = []
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.end_to_end = [m["name"] for m in spec["end_to_end"]]
        self.per_layer = [m["name"] for m in spec["per_layer"]]
        self.workload_names = [w["name"] for w in spec["workloads"]]

    def expect(self, ok: bool, what: str):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            self.failures.append(what)

    def short(self, name: str, tag: str):
        from workloads import WORKLOADS
        workdir = self.workdir / f"{name}-{tag}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cls = WORKLOADS[name]
        if name == "crawler_walk":
            workload = cls(run.ROOT, workdir, steps=SHORT_STEPS)
        else:
            workload = cls(run.ROOT, workdir, duration=SHORT_DURATION)
            # a two-second run cannot reach cruise speed or conclude a
            # search; the checks themselves are exercised in part 3
            workload.check = lambda log: None
        return workload, workdir

    def bench(self, name: str, tag: str, traced: bool = False,
              tamper=None) -> run.Bench:
        workload, workdir = self.short(name, tag)
        bench = run.Bench(workload, seed=1, workdir=workdir, tamper=tamper)
        bench.measure(0.0, traced=traced)
        return bench

    @staticmethod
    def fail_frac(bench: run.Bench) -> float:
        failed = sum(s.failure is not None for s in bench.samples)
        return failed / len(bench.samples)

    def metrics_emitted(self):
        for name in self.workload_names:
            for traced, names, pick in (
                    (False, self.end_to_end, run.end_to_end_metrics),
                    (True, self.per_layer, run.per_layer_metrics)):
                bench = self.bench(name, f"names{int(traced)}", traced)
                metrics = pick(bench)
                finite = all(isinstance(m["value"], (int, float))
                             and math.isfinite(m["value"])
                             for m in metrics.values())
                self.expect(
                    sorted(metrics) == sorted(names) and finite
                    and self.fail_frac(bench) == 0.0,
                    f"{name} trace={int(traced)}: all {len(names)} metrics "
                    f"emitted as finite numbers, fail_frac 0")

    def gate_fails(self):
        def tamper(run_dir: Path):
            states = run_dir / "states.csv"
            lines = states.read_text().split("\n")
            lines[1] = lines[1].replace("0", "1", 1)  # first data row
            states.write_text("\n".join(lines))

        bench = self.bench("storm_hold", "tamper", tamper=tamper)
        self.expect(self.fail_frac(bench) == 1.0,
                    "a tampered states.csv fails every run")

        from coastsim import core, runner

        def abort(*args, **kwargs):
            raise core.IntegrationFault("forced by the self-check", 0.0)

        def crash(*args, **kwargs):
            raise RuntimeError("forced by the self-check")

        original = runner.asv_step
        for label, fault in (("abort", abort), ("crash", crash)):
            runner.asv_step = fault
            try:
                bench = self.bench("storm_hold", label)
            finally:
                runner.asv_step = original
            self.expect(self.fail_frac(bench) == 1.0,
                        f"a forced {label} fails every run")

        bench = self.bench("crawler_walk", "repeat")
        first = next(s for s in bench.samples if s.case == 0)
        repeat = next(s for s in bench.samples if s.case == 0
                      and s is not first)
        repeat.digests = dict(repeat.digests, **{"states.csv": "0" * 64})
        bench.check_determinism()
        self.expect(repeat.failure is not None and first.failure is None,
                    "a repeat that writes different bytes fails")

    def checks_reject(self):
        from workloads import WORKLOADS
        from coastsim.runner import COLUMNS, RunLog
        i_u = COLUMNS.index("truth_u")
        slow = [[0.0] * len(COLUMNS) for _ in range(100)]
        for k, row in enumerate(slow):
            row[0], row[i_u] = 0.5 * k, 1.5
        bad = {
            "cruise_tow": RunLog(list(COLUMNS), slow, [], {}),
            "storm_hold": RunLog(list(COLUMNS), [], [], {
                "loiter_fraction_within_2p5": 0.9}),
            "survey": RunLog(list(COLUMNS), [], [], {
                "concluded": False, "truncated": True, "final_phase":
                "wide_area_search", "detections": 1, "confirmations": 0}),
            "crawler_walk": RunLog([], [], [], {"hexapod_faults": 3,
                                                "area_searched": 1.0}),
        }
        for name, log in bad.items():
            workload = WORKLOADS[name](run.ROOT, self.workdir)
            self.expect(workload.check(log) is not None,
                        f"{name} check rejects a log that misses its goal")

    def bare_directory(self):
        bare = self.workdir / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "storm_hold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.expect(proc.returncode != 0 and not proc.stdout.strip(),
                    f"bare directory: exit {proc.returncode}, no result")
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        run.import_coastsim()
    except run.HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    check = SelfCheck(run.WORK_DIR / "selfcheck")
    check.metrics_emitted()
    check.gate_fails()
    check.checks_reject()
    check.bare_directory()
    shutil.rmtree(check.workdir, ignore_errors=True)
    print(f"self-check: {len(check.failures)} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
