"""Deterministic local SGD simulation engine.

Runs n agents for T steps: each step every agent takes a local stochastic
gradient step, and whenever t+1 is a communication instant tau_i all states
are replaced by their average. All seeds of a batch share one state array
of shape (S, n, d) and advance together, one numpy pass per step. Gradient
noise at step t comes from a counter-based generator keyed by (seed, t), with
agent i reading row i of the step's noise block, so a seed's trajectory is
bit-identical regardless of schedule, recording stride, or which seeds share
its batch: running the seeds all at once, in chunks, or one at a time writes
the same bytes.

Recorded series (sampled at t = 0, multiples of record_stride, every
communication instant, and t = T). A record point only copies the (S, n, d)
state into a snapshot buffer of about 64 KiB; when the buffer fills, and once
after the last step, the series of every buffered snapshot are computed in one
batched pass, with the same formulas as a per-snapshot evaluation and so with
the same bits. V is computed from the full state: after averaging it is
rounding residue, not exactly 0.

  r_t  = ||xbar_t - x*||^2          (NaN when the family has no x*)
  e_t  = f(xbar_t) - f*             (NaN likewise)
  V_t  = (1/n) sum_i ||x_i - xbar||^2
  h_t  = ||grad f(xbar_t)||^2
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .objectives import Problem
from .schedules import Schedule

_SNAPSHOT_BYTES = 64 * 1024  # state snapshots held between two metric passes
_MEAN_SE_COLUMNS = 1024  # columns per _mean_se pass; bounds its lists of Python floats


@dataclass(frozen=True)
class InverseTimeStepsize:
    """eta_t = 2 / (mu * (beta + t))."""

    mu: float
    beta: float

    def __post_init__(self):
        if self.mu <= 0 or self.beta <= 0:
            raise ValueError(f"need mu > 0 and beta > 0, got mu={self.mu}, beta={self.beta}")

    def at(self, t: int) -> float:
        return 2.0 / (self.mu * (self.beta + t))


@dataclass(frozen=True)
class ConstantStepsize:
    """eta = c * sqrt(n / T) for the whole horizon."""

    c: float
    n: int
    T: int

    def __post_init__(self):
        if self.c <= 0 or self.n < 1 or self.T < 1:
            raise ValueError(f"need c > 0, n >= 1, T >= 1, got c={self.c}, n={self.n}, T={self.T}")

    def at(self, t: int) -> float:
        return self.c * math.sqrt(self.n / self.T)


StepsizePolicy = InverseTimeStepsize | ConstantStepsize


class _StepNoise:
    """Philox generator rekeyed per step.

    at_step(t) yields the same stream as Generator(Philox(key=[seed, t])) but
    reuses one bit generator; rekeying resets the counter and draw buffer.
    """

    def __init__(self, seed: int):
        key = np.zeros(2, dtype=np.uint64)
        key[0] = np.uint64(seed)
        self._bg = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state
        self._key = self._state["state"]["key"]
        self._counter = self._state["state"]["counter"]

    def at_step(self, t: int) -> np.random.Generator:
        self._key[1] = t
        self._counter[:] = 0
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._state["uinteger"] = 0
        self._bg.state = self._state
        return self._gen


def noise_generator(seed: int, t: int) -> np.random.Generator:
    """Reference generator for the (seed, t) noise block; used by tests."""
    key = np.zeros(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(t)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class RunConfig:
    n: int
    schedule: Schedule
    stepsize: StepsizePolicy
    x0: np.ndarray
    seed: int
    record_stride: int = 1
    track_averages: bool = True

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite 1-D vector")
        object.__setattr__(self, "x0", x0)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.record_stride < 1:
            raise ValueError(f"need record_stride >= 1, got {self.record_stride}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")
        if self.schedule.T < 1:
            raise ValueError("schedule must cover at least one step")


@dataclass(eq=False)
class RunMetrics:
    """Sampled trajectory of one seeded run.

    dist_sq and ref_sq are diagnostics for the averaging identity
    (1/n) sum_i ||x_i - ref||^2 = V + ||xbar - ref||^2 with ref = x* when the
    family has one, else the origin. wall_time is the wall time of the whole
    batch that ran this seed, so every seed of one batch reports the same value.
    """

    seed: int
    t: np.ndarray
    r: np.ndarray
    e: np.ndarray
    V: np.ndarray
    h: np.ndarray
    dist_sq: np.ndarray
    ref_sq: np.ndarray
    is_comm: np.ndarray
    final_x_bar: np.ndarray
    rounds_used: int
    avg_e: float
    avg_h: float
    wall_time: float


@dataclass(eq=False)
class AggregateMetrics:
    """Seed-averaged series; stderr uses ddof=1 (0 when only one seed).

    diverged lists the seeds whose final averaged iterate is not finite or
    whose recorded r, e, V or h overflowed to infinity.
    """

    t: np.ndarray
    is_comm: np.ndarray
    mean_r: np.ndarray
    se_r: np.ndarray
    mean_e: np.ndarray
    se_e: np.ndarray
    mean_V: np.ndarray
    se_V: np.ndarray
    mean_h: np.ndarray
    se_h: np.ndarray
    mean_avg_e: float
    se_avg_e: float
    mean_avg_h: float
    se_avg_h: float
    n_seeds: int
    seeds: tuple = field(default_factory=tuple)
    runs: tuple = field(default_factory=tuple)  # per-seed RunMetrics, ascending seed
    diverged: tuple = field(default_factory=tuple)


class _Kahan:
    """Compensated accumulator, one lane per seed."""

    __slots__ = ("s", "c")

    def __init__(self, lanes: int):
        self.s = np.zeros(lanes)
        self.c = np.zeros(lanes)

    def add(self, v: np.ndarray):
        y = v - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def run_local_sgd(problem: Problem, config: RunConfig) -> RunMetrics:
    """Simulate one seeded local SGD run and sample its metrics."""
    return run_batch(problem, config, [config.seed])[0]


def run_batch(problem: Problem, config: RunConfig, seeds) -> list[RunMetrics]:
    """Run one seed per entry of `seeds` (config.seed is ignored), in input order.

    The seeds share one (S, n, d) state and every step is one numpy pass over
    all of them; seed s draws its noise only from its own (seed, t) streams, so
    its metrics are bitwise those of the one-seed batch [s].
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if min(seeds) < 0:
        raise ValueError(f"need seeds >= 0, got {min(seeds)}")
    if config.n != problem.n:
        raise ValueError(f"config.n = {config.n} but problem has n = {problem.n}")
    if config.x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {config.x0.shape}, expected ({problem.dim},)")
    sched = config.schedule
    T = sched.T
    n = problem.n
    d = problem.dim
    S = len(seeds)

    consts = problem.constants()
    x_star = consts.x_star
    f_star = consts.f_star
    have_star = x_star is not None
    ref = x_star if have_star else np.zeros(problem.dim)

    comm_at = np.zeros(T + 1, dtype=bool)
    comm_at[np.asarray(sched.tau[1:], dtype=np.int64)] = True
    record_at = np.zeros(T + 1, dtype=bool)
    record_at[:: config.record_stride] = True
    record_at[0] = record_at[T] = True
    record_at |= comm_at
    rec_t = np.flatnonzero(record_at).astype(np.int64)
    rec_comm = comm_at[rec_t]
    rec = {k: np.full((S, len(rec_t)), np.nan) for k in ("r", "e", "V", "h", "dist_sq", "ref_sq")}

    X = np.tile(config.x0, (S, n, 1))
    noises = [_StepNoise(s) for s in seeds] if problem.has_gradient_noise else None
    grads = problem.stochastic_grads
    eta_at = config.stepsize.at
    value = problem._global_value
    grad = problem._global_grad

    sum_e, sum_h = _Kahan(S), _Kahan(S)
    track = config.track_averages

    snaps = np.empty((max(1, _SNAPSHOT_BYTES // X.nbytes), *X.shape))
    done = held = 0  # record points flushed, snapshots waiting

    def record():
        nonlocal held
        snaps[held] = X
        held += 1
        if held == len(snaps):
            flush()

    def flush():
        """Series of the held snapshots, k of them at once: (k, S, ...) -> columns."""
        nonlocal done, held
        Xs = snaps[:held]
        cols = slice(done, done + held)
        xbar = Xs.mean(axis=2)
        diff = Xs - xbar[:, :, None]
        rec["V"][:, cols] = (np.einsum("ksij,ksij->ks", diff, diff) / n).T
        dref = Xs - ref
        rec["dist_sq"][:, cols] = (np.einsum("ksij,ksij->ks", dref, dref) / n).T
        rv = xbar - ref
        ref_sq = np.vecdot(rv, rv).T
        rows = xbar.reshape(-1, d)
        g = grad(rows)
        rec["h"][:, cols] = np.vecdot(g, g).reshape(held, S).T
        rec["ref_sq"][:, cols] = ref_sq
        if have_star:
            rec["r"][:, cols] = ref_sq
            rec["e"][:, cols] = (value(rows) - f_star).reshape(held, S).T
        done += held
        held = 0

    wall = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # run_many reports divergence
        record()
        for t in range(T):
            if track:
                xbar = X.mean(axis=1)
                g = grad(xbar)
                sum_h.add(np.vecdot(g, g))
                if have_star:
                    sum_e.add(value(xbar) - f_star)
            gens = [noise.at_step(t) for noise in noises] if noises is not None else None
            G = grads(X, gens)
            G *= eta_at(t)
            X -= G
            if comm_at[t + 1]:
                X[:] = X.mean(axis=1, keepdims=True)
            if record_at[t + 1]:
                record()
        if held:
            flush()
        final_x_bar = X.mean(axis=1)
    wall = time.perf_counter() - wall

    avg_e = (sum_e.s / T).tolist() if (track and have_star) else [math.nan] * S
    avg_h = (sum_h.s / T).tolist() if track else [math.nan] * S
    return [
        RunMetrics(seed=seed, t=rec_t, is_comm=rec_comm, final_x_bar=final_x_bar[s],
                   rounds_used=sched.R, avg_e=avg_e[s], avg_h=avg_h[s], wall_time=wall,
                   **{name: series[s] for name, series in rec.items()})
        for s, seed in enumerate(seeds)
    ]


def _mean_se(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard errors via compensated summation, (S, K) -> (K,), (K,).

    A column whose exact sums fail (they overflow, or meet both infinities)
    gets the plain IEEE mean, which is then not finite, and a NaN standard
    error; every other column keeps the exact math.fsum path.
    """
    S, K = columns.shape
    mean = np.empty(K)
    se = np.zeros(K)
    failed = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, K, _MEAN_SE_COLUMNS):
            block = columns[:, lo:lo + _MEAN_SE_COLUMNS]
            for k, col in enumerate(block.T.tolist(), lo):
                try:
                    mean[k] = math.fsum(col) / S
                except (OverflowError, ValueError):
                    mean[k] = math.nan
                    failed.append(k)
            if S > 1:
                dev = block - mean[lo:lo + _MEAN_SE_COLUMNS]
                np.float_power(dev, 2, out=dev)  # libm pow, as a float64 ** 2; not dev * dev
                for k, col in enumerate(dev.T.tolist(), lo):
                    try:
                        se[k] = math.sqrt(math.fsum(col) / (S - 1) / S)
                    except (OverflowError, ValueError):
                        failed.append(k)
        for k in failed:
            mean[k], se[k] = np.sum(columns[:, k]) / S, math.nan
    return mean, se


def _diverged(m: RunMetrics) -> bool:
    return not np.all(np.isfinite(m.final_x_bar)) or any(
        np.isinf(series).any() for series in (m.r, m.e, m.V, m.h))


def run_many(problem: Problem, config: RunConfig, seeds) -> AggregateMetrics:
    """Seed-averaged metrics; reduction happens in ascending-seed order so the
    result is independent of the order and partition of `seeds`."""
    runs = sorted(run_batch(problem, config, seeds), key=lambda m: m.seed)
    stats = {}
    for name in ("r", "e", "V", "h"):
        stats[f"mean_{name}"], stats[f"se_{name}"] = _mean_se(
            np.stack([getattr(m, name) for m in runs]))
    means, ses = _mean_se(np.array([[m.avg_e, m.avg_h] for m in runs]))
    return AggregateMetrics(
        t=runs[0].t.copy(), is_comm=runs[0].is_comm.copy(), **stats,
        mean_avg_e=float(means[0]), se_avg_e=float(ses[0]),
        mean_avg_h=float(means[1]), se_avg_h=float(ses[1]),
        n_seeds=len(runs), seeds=tuple(m.seed for m in runs), runs=tuple(runs),
        diverged=tuple(m.seed for m in runs if _diverged(m)),
    )
