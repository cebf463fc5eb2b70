"""Benchmark of `localsgd run` on fixed workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program measured is the localsgd_lab under src/ next to
this directory, imported with PYTHONPATH (nothing is installed or built).
Every measurement runs in a fresh child process (worker.py):

  --trace 0  one set-up measurement and one repeat of the workload
             alternate until S seconds are spent, with at least MIN_REPEATS
             repeats and MIN_SETUPS set-ups. A set-up times the import and
             the construction of the workload's problems; a repeat runs the
             workload once. run_s, agent_steps_per_s, setup_s and
             peak_rss_mb are medians over the measurements that passed.
             Times leave out the share of CPU time the host stole from this
             virtual machine while they ran (worker._timed). Alternating
             spreads both kinds of sample over the whole run, so a slow
             spell of the machine weighs on them alike.
  --trace 1  untraced and per-module traced repeats alternate until S seconds
             are spent; every per_layer metric is the median over the traced
             repeats, and trace.overhead_frac compares their run_s medians.

A repeat fails on a non-zero exit, a missing or empty CSV, a failed verdict,
or CSV digests that differ from the first repeat's. The last line of standard
output is the result object; the line before it carries the digests, the
environment and the raw samples. The exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 10
MIN_REPEATS = 3
DEADLINE_S = 170.0  # every run ends within 180 s

PER_LAYER_UNITS = {
    "objectives.oracle_calls": "count",
    "objectives.oracle_s": "s",
    "objectives.oracle_us_per_call": "us",
    "objectives.metric_oracle_calls": "count",
    "objectives.metric_oracle_s": "s",
    "objectives.setup_s": "s",
    "objectives.problems_built": "count",
    "engine.noise_calls": "count",
    "engine.noise_s": "s",
    "engine.runs": "count",
    "engine.steps": "count",
    "engine.record_points": "count",
    "engine.comm_rounds": "count",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.self_us_per_step": "us",
    "engine.batch_vs_serial": "ratio",
    "engine.aggregate_s": "s",
    "engine.aggregate_values": "count",
    "engine.aggregate_ns_per_value": "ns",
    "harness.s": "s",
    "harness.self_s": "s",
    "harness.sweep_runs": "count",
    "schedules.calls": "count",
    "schedules.s": "s",
    "bounds.calls": "count",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "count",
    "cli.write_us_per_row": "us",
    "trace.overhead_frac": "frac",
}

COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


class Children:
    """Starts worker processes one at a time and never leaves one running."""

    def __init__(self, workload: str, seed: int, workdir: Path, started: float):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.started = started
        self.env = dict(os.environ)
        self.env.pop("LOCALSGD_THREADS", None)  # measure the default pool
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0
        self.errors: list[str] = []

    def run(self, *args: str) -> dict | None:
        """Run worker.py with args; its last stdout line parsed, or None on failure."""
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{args[0]}: timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{args[0]}: exit {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def setup(self) -> dict | None:
        return self.run("setup", self.workload, str(self.seed))

    def repeat(self, trace: bool) -> dict | None:
        self.count += 1
        workdir = self.workdir / f"repeat{self.count}"
        try:
            return self.run("repeat", self.workload, str(self.seed), str(workdir),
                            "1" if trace else "0")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(sample: dict) -> dict:
    """Machine and software facts; numpy and the pool size come from a worker."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "git_commit": _git_commit(),
        "pool_workers": sample["pool_workers"],
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _judge(repeats: list[dict | None], reference: dict | None) -> tuple[list[dict], list[str]]:
    """Passed repeats and failure reasons; the first digest map is the reference."""
    passed, reasons = [], []
    for i, rep in enumerate(repeats):
        if rep is None:
            reasons.append(f"repeat {i + 1}: worker failed")
        elif not rep["ok"]:
            reasons.append(f"repeat {i + 1}: {rep['problem']}")
        elif rep["digests"] != reference["digests"]:
            reasons.append(f"repeat {i + 1}: CSV digests differ from the first repeat")
        else:
            passed.append(rep)
    return passed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="problem seed; the run's seed list starts at 1000*seed")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time spent on repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "localsgd_lab" / "__init__.py").is_file():
        print(f"no localsgd_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    kids = Children(wl.name, args.seed, workdir, started)
    try:
        setups, plain, traced = [], [], []
        budget_end = time.monotonic() + args.seconds
        while True:
            if args.trace:
                plain.append(kids.repeat(trace=False))
                traced.append(kids.repeat(trace=True))
            else:
                setups.append(kids.setup())
                plain.append(kids.repeat(trace=False))
            if time.monotonic() >= budget_end and (args.trace or len(plain) >= MIN_REPEATS):
                break
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(kids.setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    first = next((r for r in plain + traced if r is not None and r["ok"]), None)
    if first is None:
        problems = [r["problem"] for r in plain + traced if r is not None]
        print("no repeat passed: " + "; ".join(problems + kids.errors), file=sys.stderr)
        return 1
    passed, reasons = _judge(plain, first)
    passed_traced, traced_reasons = _judge(traced, first)
    if passed_traced:
        # work counts of a deterministic run must repeat exactly
        counts = {n: passed_traced[0]["layers"][n] for n in COUNTS}
        for rep in passed_traced[1:]:
            if {n: rep["layers"][n] for n in COUNTS} != counts:
                traced_reasons.append("traced repeat: work counts differ from the first")
                passed_traced.remove(rep)
    ok_setups = [s for s in setups if s is not None]
    reasons += traced_reasons + kids.errors
    attempted = len(plain) + len(traced) + len(setups)
    failed = attempted - len(passed) - len(passed_traced) - len(ok_setups)
    if not passed or (args.trace and not passed_traced) or (setups and not ok_setups):
        print("measurements missing: " + "; ".join(reasons), file=sys.stderr)
        return 1

    run_s = [r["run_s"] for r in passed]
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seeds_per_run": wl.seeds,
        "agent_steps": wl.agent_steps(),
        "environment": environment(first),
        "digests": first["digests"],
        "fail_frac": failed / attempted,
        "failures": reasons,
        "samples": {"run_s": run_s,
                    "run_s_quartiles": _quartiles(run_s),
                    "run_wall_s": [r["wall_s"] for r in passed],
                    "run_stolen": [r["stolen"] for r in passed],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in passed],
                    "setup_s": [s["setup_s"] for s in ok_setups],
                    "setup_wall_s": [s["wall_s"] for s in ok_setups]},
    }
    if args.trace:
        traced_s = [r["run_s"] for r in passed_traced]
        layers = {name: passed_traced[0]["layers"][name] if name in COUNTS
                  else statistics.median(r["layers"][name] for r in passed_traced)
                  for name in passed_traced[0]["layers"]}
        layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(run_s) - 1
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        detail["samples"]["traced_run_s"] = traced_s
        detail["spans"] = passed_traced[0]["spans"]
        detail["trace_missing"] = passed_traced[0]["trace_missing"]
    else:
        median_run = statistics.median(run_s)
        metrics = {
            "run_s": {"value": median_run, "unit": "s"},
            "agent_steps_per_s": {"value": wl.agent_steps() / median_run, "unit": "1/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in ok_setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in passed),
                            "unit": "MB"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
