"""Experiment protocols: bound validation, round-budget tradeoffs, speedup curves.

Four experiment kinds:

  bounds            run one schedule, compare the measured left-hand side
                    against the matching closed-form guarantee
  rounds-to-target  for each strategy, first communication instant at which the
                    seed-mean error crosses a threshold -> (R_used, T_used)
  speedup           fixed T, growing n; speedup = single-worker error / error
  strategy-compare  shared problem and stepsize, one aggregate series per schedule

All experiments start from x0 = 0, average over the spec's seed list, and are
bit-reproducible from (spec, seeds). The nonconvex error measure is the
time-averaged squared gradient norm; families with a minimizer use r_T.
One resolver builds every stepsize: inverse-time 2/(mu(beta+t)), which
theorem 1 needs, or constant c sqrt(n/T), which theorems 2 and 3 need.
Bounds, rounds-to-target and strategy-compare each run as one engine batch.
A speedup runs one batch per n, every cell a lane with its own c when c is
swept, after one c-sweep batch of every (cell, c) pair at the largest n.

Each protocol computes only the series it reads: bounds and strategy-compare
the four they write (r, e, V, h); rounds-to-target its measure (r, e or h);
speedup and its c-sweep r when the family has a minimizer, and none
otherwise, since the nonconvex error is the running average of h. Each
records only the points it reads: speedup and its c-sweep t = 0 and T alone,
so they judge divergence on the final iterate, r_0, r_T and the running
average of h; the others every communication instant too (RunConfig.record_comm).
And each simulates only as far as it reads: a rounds-to-target cell ends at
its first crossing (RunConfig.stop_below) and leaves its batch, so its
divergence is judged only up to there; the others run to T.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, compare, thm1_rhs, thm2_rhs, thm3_rhs
from .engine import (
    _SERIES,
    AggregateMetrics,
    ConstantStepsize,
    InverseTimeStepsize,
    RunConfig,
    _aggregate,
    _divergence,
    run_cells,
)
from .objectives import Problem, problem_from_spec
from .schedules import (
    STRATEGIES,
    Schedule,
    beta_for_increasing,
    check_thm1_condition,
    check_thm2_condition,
    check_thm3_condition,
    schedule_from_spec,
)


class DivergenceError(ArithmeticError):
    """A simulated run stopped being finite (its iterate, a computed series or the
    running average of h), so it measures nothing."""


class PreconditionError(RuntimeError):
    """A theorem precondition failed; the message is `check_thmN_condition: <refusal>`."""


@dataclass(frozen=True)
class RRule:
    """Round-count rule R = floor(coef * T**T_exp * n**n_exp), clamped to [1, T]."""

    coef: float
    T_exp: float
    n_exp: float

    def rounds(self, n: int, T: int) -> tuple[int, bool]:
        raw = math.floor(self.coef * T**self.T_exp * n**self.n_exp)
        clamped = raw < 1 or raw > T
        return min(max(raw, 1), T), clamped


@dataclass(frozen=True)
class StrategyCell:
    """One labeled schedule strategy inside a multi-cell experiment.

    kind is any name of schedules.STRATEGIES, and the fields are that
    strategy's parameters, spelled as a schedule block spells them: H is the
    widths of an explicit cell and the one width of a fixed-width cell. T
    comes from the experiment. A strategy that takes R gets it from R or,
    failing that, from r_rule at the experiment's n.
    """

    label: str
    kind: str
    a: float | None = None
    s: float | None = None
    p: float | None = None
    H: int | tuple[int, ...] | None = None
    R: int | None = None
    r_rule: RRule | None = None

    def __post_init__(self):
        if not self.label or not all(ch.isalnum() or ch in "_-" for ch in self.label):
            raise ValueError(f"cell label {self.label!r} must be nonempty [A-Za-z0-9_-]+")

    def build(self, n: int, T: int) -> tuple[Schedule, bool]:
        """Schedule for this cell at (n, T); second value flags an R-rule clamp."""
        R, clamped = self.R, False
        takes = STRATEGIES[self.kind][1] if self.kind in STRATEGIES else ()
        if R is None and self.r_rule is not None and "R" in takes:
            R, clamped = self.r_rule.rounds(n, T)
        try:
            sched = schedule_from_spec({"strategy": self.kind, "T": T, "R": R, "a": self.a,
                                        "s": self.s, "p": self.p, "H": self.H})
        except ValueError as exc:
            raise ValueError(f"cell {self.label}: {exc}") from None
        return sched, clamped


@dataclass(frozen=True)
class SpeedupRow:
    label: str
    n: int
    R: int
    strategy: str
    mean_error: float
    stderr: float
    speedup: float
    se_speedup: float
    clamped: bool


@dataclass(frozen=True)
class TradeoffRow:
    label: str
    R_used: int
    T_used: int
    reached: bool
    threshold: float


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """Parameters of one experiment; unused fields stay at their defaults."""

    kind: str
    problem: dict
    seeds: tuple[int, ...]
    stepsize_policy: str = "constant"            # "inverse-time" | "constant"
    beta: float | str | None = None              # number, or "auto" (bounds thm1 only)
    c: float | tuple[float, ...] | None = None   # a tuple is swept, best kept
    theorem: int | None = None
    schedule_spec: dict | None = None            # bounds: the schedule block
    record_stride: int = 1
    cells: tuple[StrategyCell, ...] = ()
    n_list: tuple[int, ...] = ()
    T: int | None = None
    t_max: int | None = None
    threshold: float | None = None
    threshold_auto_factor: float | None = None
    measure: str = "e"                           # rounds-to-target: r | e | h

    def __post_init__(self):
        if self.kind not in ("bounds", "rounds-to-target", "speedup", "strategy-compare"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("seed list must be nonempty")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        object.__setattr__(self, "seeds", seeds)
        labels = [cell.label for cell in self.cells]
        if len(set(labels)) != len(labels):
            raise ValueError(f"cell labels must be distinct, got {labels}")
        if self.n_list:
            nl = tuple(int(v) for v in self.n_list)
            if list(nl) != sorted(set(nl)):
                raise ValueError("n list must be sorted ascending without duplicates")
            object.__setattr__(self, "n_list", nl)
        if self.threshold is not None and self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.threshold_auto_factor is not None and self.threshold_auto_factor <= 0:
            raise ValueError("threshold factor must be positive")
        if self.threshold is not None and self.threshold_auto_factor is not None:
            raise ValueError("give threshold or threshold_auto_factor, not both")
        if self.measure not in ("r", "e", "h"):
            raise ValueError(f"measure must be r, e or h, got {self.measure!r}")


def _simulate(problem: Problem, runs, seeds, record_stride: int, track_averages: bool,
              names: list[str] | None, series: tuple[str, ...], record_comm: bool,
              stop_below: float | None = None) -> Iterator[AggregateMetrics]:
    """Seed-mean metrics of each (schedule, stepsize) run from x0 = 0, yielded in order.

    All runs go as one engine batch, compute the given series and record
    communication instants only when record_comm (RunConfig); each is reduced
    over its seeds only when the caller asks for it. With stop_below, each
    run ends at its first crossing of that level (RunConfig.stop_below), so
    divergence is judged only up to there. With names (one per run), the
    first run whose seeds diverged raises DivergenceError naming it; with
    names=None diverged seeds are left in the result.
    """
    x0 = np.zeros(problem.dim)
    cells = run_cells(problem, [
        RunConfig(n=problem.n, schedule=sched, stepsize=stepsize, x0=x0, seed=0,
                  record_stride=record_stride, track_averages=track_averages, series=series,
                  stop_below=stop_below, record_comm=record_comm)
        for sched, stepsize in runs], seeds)
    for k in range(len(cells)):
        agg = _aggregate(cells[k])
        cells[k] = None  # a caller that keeps only its row lets these lanes go
        if agg.diverged and names is not None:
            raise DivergenceError(f"{names[k]}: seeds {list(agg.diverged)} diverged "
                                  f"({_divergence(agg.runs)}); lower the stepsize")
        yield agg


def _stepsize(spec: ExperimentSpec, consts, n: int, T: int, c: float | None = None):
    """The stepsize of a run at (n, T) on a problem with constants `consts`; c
    stands in for a swept spec.c. A bounds run's theorem fixes the policy, and
    a mismatched policy or a missing beta or c raises ValueError.
    """
    need = "inverse-time" if spec.theorem == 1 else "constant"
    if spec.kind == "bounds" and spec.stepsize_policy != need:
        raise ValueError(f"theorem {spec.theorem} needs the {need} stepsize policy, "
                         f"got {spec.stepsize_policy!r}")
    if spec.stepsize_policy == "inverse-time":
        if spec.beta is None or (spec.beta == "auto" and spec.kind != "bounds"):
            raise ValueError(f"{spec.kind} with an inverse-time stepsize needs a numeric beta")
        return InverseTimeStepsize(consts.mu, thm1_beta(spec, consts.mu, consts.L))
    c = spec.c if c is None else c
    if c is None or isinstance(c, tuple):
        raise ValueError(f"{spec.kind} with a constant stepsize needs one c, got {c!r}")
    return ConstantStepsize(float(c), n, T)


def _final_errors(problem: Problem, runs, seeds, names) -> Iterator[tuple[float, float]]:
    """Each (schedule, stepsize) run's final error and its stderr, yielded in order:
    seed-mean r_T on a family with a minimizer, else the time-averaged h. The runs
    share a horizon T and go as one _simulate batch (names as there) recording t = 0 and T."""
    use_r = problem.constants().x_star is not None
    for agg in _simulate(problem, runs, seeds, record_stride=runs[0][0].T, track_averages=not use_r,
                         names=names, series=("r",) if use_r else (), record_comm=False):
        yield ((float(agg.mean_r[-1]), float(agg.se_r[-1])) if use_r else
               (agg.mean_avg_h, agg.se_avg_h))


def _resolve_c(spec: ExperimentSpec, problem: Problem, T: int) -> tuple[list[float], dict]:
    """Pick each cell's constant-stepsize c from the swept tuple spec.c (lowest final error).

    Every (cell, c) pair is a lane of one batch on `problem` at horizon T on at
    most 10 of the spec's seeds. Returns the chosen c of each cell, in order,
    and each cell's sweep by label. Ties go to the smaller c; a c whose error is
    not finite (its run diverged) ranks last, and its error is written as None.
    """
    consts = problem.constants()
    scheds = [cell.build(problem.n, T)[0] for cell in spec.cells]
    errors = _final_errors(problem, [(sched, _stepsize(spec, consts, problem.n, T, c))
                                     for sched in scheds for c in spec.c], spec.seeds[:10], None)
    chosen, sweeps = [], {}
    for cell in spec.cells:
        errs = [next(errors)[0] for _ in spec.c]
        best = min((err if math.isfinite(err) else math.inf, float(c))
                   for err, c in zip(errs, spec.c))[1]
        chosen.append(best)
        sweeps[cell.label] = {"swept_c": [float(c) for c in spec.c], "chosen_c": best,
                              "sweep_errors": [e if math.isfinite(e) else None for e in errs]}
    return chosen, sweeps


def thm1_beta(spec: ExperimentSpec, mu: float, L: float) -> float:
    """The inverse-time offset a theorem-1 bounds run uses: spec.beta, or what "auto" becomes."""
    if spec.beta == "auto":
        ss = spec.schedule_spec or {}
        if STRATEGIES.get(ss.get("strategy")) is not STRATEGIES["increasing-power"]:
            raise ValueError('beta "auto" needs an increasing-power schedule (a, s)')
        return max(beta_for_increasing(ss["a"], ss["s"], mu, L), 20.0 * L / mu)
    return float(spec.beta)


def run_bounds_experiment(problem: Problem, spec: ExperimentSpec) -> tuple[BoundReport, AggregateMetrics]:
    """Run the schedule and compare the measured LHS with the theorem RHS.

    Refuses (PreconditionError) rather than producing a vacuous comparison.
    Theorem 1 measures seed-mean r_T; Theorems 2 and 3 measure the full time
    average of the seed-mean e_t / h_t, so record_stride is forced to 1 there.
    """
    thm = spec.theorem
    if thm not in (1, 2, 3):
        raise ValueError(f"theorem must be 1, 2 or 3, got {thm}")
    if spec.schedule_spec is None:
        raise ValueError("a bounds experiment needs a schedule block")
    consts = problem.constants()
    sched = schedule_from_spec(spec.schedule_spec)
    T = sched.T
    n = problem.n
    x0 = np.zeros(problem.dim)

    if thm == 1 and (consts.mu <= 0 or consts.x_star is None):
        raise ValueError("theorem 1 needs a strongly convex family with a minimizer")
    if thm == 2 and consts.x_star is None:
        raise ValueError("theorem 2 needs a family with a minimizer")
    stepsize = _stepsize(spec, consts, n, T)
    refusal = None
    if thm == 1:
        beta, guard = stepsize.beta, 20.0 * consts.L / consts.mu
        cond = check_thm1_condition(sched, consts.mu, consts.L, beta)
        if beta < guard:
            refusal = (f"beta={beta:g} is below the stepsize guard 20L/mu={guard:g} "
                       f"(eta_0 must be <= 1/(10L))")
        elif not cond.all_pass:
            bad = cond.per_round.index(False)
            refusal = f"round {bad + 1}: H={sched.H[bad]} exceeds cap {cond.caps[bad]:g}"
    else:
        cond = (check_thm2_condition(sched, consts.L, stepsize.c, n) if thm == 2 else
                check_thm3_condition(sched, consts.L, consts.B, stepsize.c, n))
        cap = "sqrt(T)/(7Lc sqrt(n))" if thm == 2 else "sqrt(T)/(7LBc sqrt(n))"
        if not cond.ok:
            refusal = f"max H={cond.max_H} exceeds cap {cap}={cond.cap:g}"
    if refusal is not None:
        raise PreconditionError(f"check_thm{thm}_condition: {refusal}")

    [agg] = _simulate(problem, [(sched, stepsize)], spec.seeds,
                      record_stride=spec.record_stride if thm == 1 else 1,
                      track_averages=False, names=["schedule"], series=_SERIES, record_comm=True)
    r0 = None if consts.x_star is None else float(np.sum((x0 - consts.x_star) ** 2))
    if thm == 1:
        rhs = thm1_rhs(sched, r0=r0, beta=beta, n=n, mu=consts.mu,
                       L=consts.L, sigma_bar_sq=consts.sigma_bar_sq)
        return compare(rhs, float(agg.mean_r[-1])), agg
    if thm == 2:
        rhs = thm2_rhs(sched, r0=r0, c=stepsize.c, n=n, L=consts.L,
                       sigma_bar_sq=consts.sigma_bar_sq)
    else:
        # f*, or a lower bound on it where f* is unknown: the RHS increases in e0
        rhs = thm3_rhs(sched, e0=problem.global_value(x0) - problem.value_lower_bound(),
                       c=stepsize.c, n=n, L=consts.L, sigma_sq=consts.sigma_sq, G=consts.G)
    series = agg.mean_e if thm == 2 else agg.mean_h
    return compare(rhs, math.fsum(series[:-1].tolist()) / T), agg


def noise_floor(consts, n: int, t_max: int) -> float:
    """Stationary-noise level of the inverse-time guarantee at horizon t_max."""
    if consts.mu <= 0 or consts.sigma_bar_sq is None:
        raise ValueError("noise floor needs mu > 0 and a defined sigma_bar_sq")
    return 12.0 * consts.sigma_bar_sq / (n * consts.mu**2 * t_max)


def run_rounds_to_target(problem: Problem, spec: ExperimentSpec) -> list[TradeoffRow]:
    """Rounds and iterations each strategy needs to push the seed-mean error
    under the threshold; crossings count only at t=0 and communication instants.
    Each cell's run ends at its crossing, so a cell that diverges after it is
    reached, not a DivergenceError."""
    if not spec.cells:
        raise ValueError("rounds-to-target needs at least one strategy cell")
    if spec.t_max is None or spec.t_max < 1:
        raise ValueError("rounds-to-target needs t_max >= 1")
    consts = problem.constants()
    if spec.measure in ("r", "e") and consts.x_star is None:
        raise ValueError(f"measure {spec.measure!r} needs a family with a minimizer")

    if spec.threshold is not None:
        threshold = spec.threshold
    elif spec.threshold_auto_factor is not None:
        if spec.measure != "r":
            raise ValueError("the auto noise-floor threshold is defined for measure 'r'")
        threshold = spec.threshold_auto_factor * noise_floor(consts, problem.n, spec.t_max)
    else:
        raise ValueError("rounds-to-target needs threshold or threshold_auto_factor")

    stepsize = _stepsize(spec, consts, problem.n, spec.t_max)

    runs = [(cell.build(problem.n, spec.t_max)[0], stepsize) for cell in spec.cells]
    # a cell that crossed ended there, and t_max is a communication instant
    # (eligible), so a cell reached the threshold iff its last record point is under it
    aggs = _simulate(problem, runs, spec.seeds, record_stride=spec.t_max, track_averages=False,
                     names=[f"cell {cell.label}" for cell in spec.cells], series=(spec.measure,),
                     record_comm=True, stop_below=threshold)
    rows = []
    for cell, (sched, _), agg in zip(spec.cells, runs, aggs):
        if getattr(agg, f"mean_{spec.measure}")[-1] <= threshold:
            t_used = int(agg.t[-1])
            rows.append(TradeoffRow(cell.label, int(np.searchsorted(sched.tau, t_used)), t_used,
                                    True, threshold))
        else:
            rows.append(TradeoffRow(cell.label, sched.R, spec.t_max, False, threshold))
    return rows


def run_speedup_experiment(spec: ExperimentSpec,
                           problems: dict[int, Problem] | None = None) -> tuple[list[SpeedupRow], dict]:
    """Error vs n at fixed T, normalized by the n=1 single-worker run.

    problems maps each n of spec.n_list to its problem; by default each is
    built from spec.problem's generator spec with that n. Each n runs every
    cell as one batch; the c-sweep runs at the largest n. Families with
    a minimizer are scored by seed-mean r_T, the nonconvex family by the
    time-averaged squared gradient norm. Returns the rows and the notes: under "sweeps", the c-sweep of every
    cell that swept c, by label.
    """
    if not spec.cells:
        raise ValueError("speedup needs at least one strategy cell")
    if 1 not in spec.n_list:
        raise ValueError("n list must include the n=1 baseline")
    if spec.T is None or spec.T < 1:
        raise ValueError("speedup needs T >= 1")
    T = spec.T
    if problems is None:
        problems = {n: problem_from_spec({**spec.problem, "n": n}) for n in spec.n_list}

    notes: dict = {}
    cs = [None] * len(spec.cells)
    if spec.stepsize_policy == "constant" and isinstance(spec.c, tuple):
        cs, notes["sweeps"] = _resolve_c(spec, problems[max(problems)], T)
    by_cell: list[list[SpeedupRow]] = [[] for _ in spec.cells]
    for n, problem in problems.items():  # ascending, so n=1 comes first
        built = [cell.build(n, T) for cell in spec.cells]
        errors = _final_errors(problem, [(sched, _stepsize(spec, problem.constants(), n, T, c))
                                         for (sched, _), c in zip(built, cs)], spec.seeds,
                               [f"cell {cell.label} at n={n}" for cell in spec.cells])
        for cell, (sched, clamped), (mean_err, se_err), rows in zip(spec.cells, built, errors, by_cell):
            speedup, se_speedup = 1.0, 0.0
            if n != 1:
                base_mean, base_se = rows[0].mean_error, rows[0].stderr
                speedup = base_mean / mean_err
                rel = 0.0
                if base_mean > 0 and mean_err > 0:
                    rel = math.sqrt((base_se / base_mean) ** 2 + (se_err / mean_err) ** 2)
                se_speedup = speedup * rel
            rows.append(SpeedupRow(
                label=cell.label, n=n, R=sched.R, strategy=cell.kind,
                mean_error=mean_err, stderr=se_err,
                speedup=speedup, se_speedup=se_speedup, clamped=clamped,
            ))
    return [row for rows in by_cell for row in rows], notes


def run_strategy_compare(problem: Problem, spec: ExperimentSpec) -> dict[str, AggregateMetrics]:
    """One aggregate series per labeled schedule, shared stepsize and seeds; their
    mean_avg_h is NaN, since no output reads the running average."""
    if not spec.cells:
        raise ValueError("strategy-compare needs at least one cell")
    if spec.T is None or spec.T < 1:
        raise ValueError("strategy-compare needs T >= 1")
    consts = problem.constants()
    stepsize = _stepsize(spec, consts, problem.n, spec.T)
    runs = [(cell.build(problem.n, spec.T)[0], stepsize) for cell in spec.cells]
    aggs = _simulate(problem, runs, spec.seeds, record_stride=spec.record_stride,
                     track_averages=False, names=[f"cell {cell.label}" for cell in spec.cells],
                     series=_SERIES, record_comm=True)
    return {cell.label: agg for cell, agg in zip(spec.cells, aggs)}
