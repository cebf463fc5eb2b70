"""The three benchmark workloads, each driven through `localsgd run`.

A workload knows how to write its config and run it through the user path
(`localsgd_lab.cli.main(["run", cfg, "--out", dir])`, in process), which
problem specs it builds (for the set-up measurement), how many agent-steps its
engine runs simulate, how to judge its output, and one representative cell for
the batch-versus-serial ratio.

The benchmark seed sets the problem seed and the base of the run's seed list
(base = 1000 * seed), so every seed gives different but reproducible inputs.
Nothing here imports numpy or localsgd_lab at module level: the set-up
measurement times those imports in a fresh process. The imports sit inside
the functions that use them, so a call made while the tracer is installed
picks up its wrappers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SEED_BASE_STRIDE = 1000


def seed_list(seed: int, count: int) -> list[int]:
    base = SEED_BASE_STRIDE * seed
    return list(range(base, base + count))


def _seeds_block(seed: int, count: int) -> dict:
    """The config's seeds block for seed_list(seed, count)."""
    return {"count": count, "base": SEED_BASE_STRIDE * seed}


def _quadratic(seed: int, **over) -> dict:
    """The README's strongly convex quadratic family (n=8, d=10)."""
    return {"family": "strongly-convex-quadratic", "n": 8, "d": 10, "mu": 0.1,
            "L": 1.0, "delta": 1.0, "sigma_noise": 1.0, "seed": seed, **over}


def _cli_run(cfg: dict, workdir: Path) -> int:
    from localsgd_lab import cli

    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["run", str(path), "--out", str(workdir / "out")])


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class RttQuadratic:
    """AC4's shape: a rounds-to-target race on the strongly convex quadratic.

    The threshold is 10x the seed-mean r_T of an H=1 pilot run through the
    engine API, as AC4 does; the pilot is part of the timed work.
    """

    name = "rtt-quadratic"
    seeds = 2
    t_max = 10_000
    beta = 200.0
    cells = [{"label": "increasing", "kind": "increasing-power", "a": 2.2, "s": 0.13}] + [
        {"label": f"fixed{H}", "kind": "fixed-width", "H": H} for H in (1, 2, 5, 10, 20, 50)]
    csvs = ("tradeoff.csv",)

    def problem_specs(self, seed: int) -> list[dict]:
        return [_quadratic(seed, delta=4.0)]

    def agent_steps(self) -> int:
        runs = 1 + len(self.cells)  # the pilot plus one run_many per cell
        return runs * self.seeds * 8 * self.t_max

    def _run_config(self, schedule):
        import numpy as np
        from localsgd_lab.engine import InverseTimeStepsize, RunConfig

        return RunConfig(n=8, schedule=schedule, stepsize=InverseTimeStepsize(0.1, self.beta),
                         x0=np.zeros(10), seed=0, record_stride=self.t_max,
                         track_averages=False)

    def run(self, seed: int, workdir: Path) -> int:
        from localsgd_lab.engine import run_many
        from localsgd_lab.objectives import problem_from_spec
        from localsgd_lab.schedules import fixed_width_schedule

        pspec = self.problem_specs(seed)[0]
        seeds = seed_list(seed, self.seeds)
        pilot = run_many(problem_from_spec(pspec),
                         self._run_config(fixed_width_schedule(1, self.t_max)), seeds)
        threshold = 10.0 * float(pilot.mean_r[-1])
        return _cli_run({
            "experiment": {"kind": "rounds-to-target", "t_max": self.t_max,
                           "threshold": threshold, "measure": "r", "cells": self.cells},
            "problem": pspec,
            "stepsize": {"policy": "inverse-time", "beta": self.beta},
            "seeds": _seeds_block(seed, self.seeds),
        }, workdir)

    def verdict(self, outdir: Path) -> str | None:
        rows = _read_rows(outdir / "tradeoff.csv")
        labels = [r["label"] for r in rows]
        if labels != [c["label"] for c in self.cells]:
            return f"expected one row per cell, got {labels}"
        if rows[0]["reached"] != "1":
            return "the increasing cell did not reach the threshold"
        return None

    def representative_cell(self, seed: int):
        from localsgd_lab.objectives import problem_from_spec
        from localsgd_lab.schedules import increasing_power_schedule

        problem = problem_from_spec(self.problem_specs(seed)[0])
        config = self._run_config(increasing_power_schedule(2.2, 0.13, self.t_max))
        return problem, config, seed_list(seed, self.seeds)


class SpeedupLogistic:
    """AC2's shape on the logistic family: error vs n with a swept constant c."""

    name = "speedup-logistic"
    seeds = 2
    T = 2000
    H = 20
    n_list = (1, 2, 4, 8)
    c_sweep = (0.5, 1.0, 2.0)
    csvs = ("speedup.csv",)

    def _problem(self, seed: int, n: int) -> dict:
        return {"family": "logistic", "n": n, "d": 20, "K": 10, "m": 50,
                "shards_per_agent": 2, "lam": 0.1, "seed": seed}

    def problem_specs(self, seed: int) -> list[dict]:
        return [self._problem(seed, n) for n in self.n_list]

    def agent_steps(self) -> int:
        # harness._resolve_c sweeps c at the largest n on at most 10 seeds
        sweep = len(self.c_sweep) * min(10, self.seeds) * max(self.n_list) * self.T
        return sweep + sum(self.seeds * n * self.T for n in self.n_list)

    def run(self, seed: int, workdir: Path) -> int:
        return _cli_run({
            "experiment": {"kind": "speedup", "T": self.T, "n_list": list(self.n_list),
                           "cells": [{"label": f"fw{self.H}", "kind": "fixed-width",
                                      "H": self.H}]},
            "problem": self._problem(seed, 1),
            "stepsize": {"policy": "constant", "c": list(self.c_sweep)},
            "seeds": _seeds_block(seed, self.seeds),
        }, workdir)

    def verdict(self, outdir: Path) -> str | None:
        rows = _read_rows(outdir / "speedup.csv")
        ns = [int(r["n"]) for r in rows]
        if ns != list(self.n_list):
            return f"expected one row per n in {list(self.n_list)}, got {ns}"
        errors = [float(r["mean_error"]) for r in rows]
        if not all(math.isfinite(e) and e > 0 for e in errors):
            return f"errors not all finite and positive: {errors}"
        if float(rows[0]["speedup"]) != 1.0:
            return f"n=1 speedup is {rows[0]['speedup']}, not exactly 1"
        return None

    def representative_cell(self, seed: int):
        import numpy as np
        from localsgd_lab.engine import ConstantStepsize, RunConfig
        from localsgd_lab.objectives import problem_from_spec
        from localsgd_lab.schedules import fixed_width_schedule

        n = max(self.n_list)
        problem = problem_from_spec(self._problem(seed, n))
        config = RunConfig(n=n, schedule=fixed_width_schedule(self.H, self.T),
                           stepsize=ConstantStepsize(1.0, n, self.T),
                           x0=np.zeros(problem.dim), seed=0, record_stride=self.T,
                           track_averages=False)
        return problem, config, seed_list(seed, self.seeds)


class BoundsReadme:
    """The README's `bounds` config, at 20 seeds instead of 200."""

    name = "bounds-readme"
    seeds = 20
    a, s, T = 1.0, 0.5, 2000
    csvs = ("bounds.csv", "metrics.csv")

    def problem_specs(self, seed: int) -> list[dict]:
        return [_quadratic(seed)]

    def agent_steps(self) -> int:
        return self.seeds * 8 * self.T

    def run(self, seed: int, workdir: Path) -> int:
        return _cli_run({
            "experiment": {"kind": "bounds", "theorem": 1},
            "problem": self.problem_specs(seed)[0],
            "schedule": {"strategy": "increasing-power", "a": self.a, "s": self.s,
                         "T": self.T},
            "stepsize": {"policy": "inverse-time", "beta": "auto"},
            "seeds": _seeds_block(seed, self.seeds),
        }, workdir)

    def verdict(self, outdir: Path) -> str | None:
        fields = {r["field"]: r["value"] for r in _read_rows(outdir / "bounds.csv")}
        want = {"holds": "1", "precondition_ok": "1", "vacuous": "0"}
        got = {k: fields.get(k) for k in want}
        return None if got == want else f"bounds.csv reads {got}, expected {want}"

    def representative_cell(self, seed: int):
        import numpy as np
        from localsgd_lab.engine import InverseTimeStepsize, RunConfig
        from localsgd_lab.objectives import problem_from_spec
        from localsgd_lab.schedules import beta_for_increasing, increasing_power_schedule

        problem = problem_from_spec(self.problem_specs(seed)[0])
        # the harness's "auto" beta for theorem 1
        beta = max(beta_for_increasing(self.a, self.s, 0.1, 1.0), 20.0 * 1.0 / 0.1)
        config = RunConfig(n=8, schedule=increasing_power_schedule(self.a, self.s, self.T),
                           stepsize=InverseTimeStepsize(0.1, beta), x0=np.zeros(10),
                           seed=0, record_stride=1, track_averages=False)
        return problem, config, seed_list(seed, self.seeds)


WORKLOADS = {w.name: w for w in (RttQuadratic(), SpeedupLogistic(), BoundsReadme())}
