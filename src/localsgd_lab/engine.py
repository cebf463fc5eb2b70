"""Deterministic local SGD simulation engine.

Runs n agents for T steps: each step every agent takes a local stochastic
gradient step, and whenever t+1 is a communication instant tau_i all states
are replaced by their average. One batch runs lanes, one lane per (config,
seed) pair: configs that share n, x0, T and track_averages but differ in
schedule, stepsize or record_stride run together on the same seeds, and all
lanes share one state array of shape (C, S, n, d) that advances in one numpy
pass per step. Each step averages only the configs that communicate after it.
Only the record points, their store and the schedules' H and tau grow with T:
the plans (who averages and who records after each step) and the step sizes
are built for one chunk of steps, a whole number of noise blocks, at a time.

Gradient noise at step t comes from a counter-based generator keyed by
(seed, t), with agent i reading row i of the step's noise block. It does not
depend on the state, so it is drawn ahead in blocks of about 64 KiB, each
holding every seed's noise for a run of steps, and each step hands its
(S, ...) row to stochastic_grads for every config, which writes the step's
gradients into one buffer the batch holds. The process that runs the
step loop draws the first block. When a run has a second block, a child
process forked at its start draws the rest into one pipe while the loop
steps; a one-block run forks no child, and on one CPU,
without os.fork or when the fork fails, the loop's process draws every block
itself. _forked holds that policy, and the CLI's forked CSV formatter uses it
too. The child makes the same draws on the same generators. So a lane's
trajectory is bit-identical regardless of schedule, recording stride, block
size, the process that draws its noise, or which configs and seeds share its
batch: running them all at once, in chunks, or one at a time writes the same
bytes.

A config may stop early: with RunConfig.stop_below, its lanes end at the first
record point, t = 0 or a communication instant, at which the seed mean of its
one series is at most that level, and the batch drops them and steps on
without them. A stop is found at the metric pass after it, so the steps
between the two are discarded, and the lanes are bitwise the prefix of their
unstopped run; that pass ends the current chunk, and the next is built
without their rows. The seed mean is taken over the seeds of the call, so
a stopped lane depends on which seeds share its call, not on which configs do.

Recorded series (sampled at t = 0, the multiples of record_stride and t = T,
and at every communication instant only for a config with record_comm or
stop_below). A config computes only the series it names in RunConfig.series
(all four by default); the others stay NaN, and one that names none copies no
state at all. A record point only copies the (S, n, d) states of the configs
that record there into a snapshot buffer of about 64 KiB; when the buffer
fills, and once after the last step, the series the batch's configs name are
computed for every buffered snapshot in one batched pass, with the same
formulas as a per-snapshot evaluation and so with the same bits, and each
config's columns go to its own series. V is computed from the full state:
after averaging it is rounding residue, not exactly 0.

  r_t  = ||xbar_t - x*||^2          (NaN when the family has no x*)
  e_t  = f(xbar_t) - f*             (NaN likewise)
  V_t  = (1/n) sum_i ||x_i - xbar||^2
  h_t  = ||grad f(xbar_t)||^2
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .objectives import Problem
from .schedules import Schedule

_SNAPSHOT_BYTES = 64 * 1024  # state snapshots held between two metric passes
_PLAN_STEPS = 1024  # steps whose plans and step sizes are held at once, in whole noise blocks
_NOISE_BYTES = 64 * 1024  # noise drawn ahead of the step loop, all seeds of a run of steps
_MEAN_SE_VALUES = 1 << 12  # values (seeds x columns) per _mean_se block; bounds its Python float lists
_SERIES = ("r", "e", "V", "h")


@dataclass(frozen=True)
class InverseTimeStepsize:
    """eta_t = 2 / (mu * (beta + t))."""

    mu: float
    beta: float

    def __post_init__(self):
        if self.mu <= 0 or self.beta <= 0:
            raise ValueError(f"need mu > 0 and beta > 0, got mu={self.mu}, beta={self.beta}")

    def at(self, t: int | np.ndarray) -> float | np.ndarray:
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

    def at(self, t: int | np.ndarray) -> float:
        return self.c * math.sqrt(self.n / self.T)


StepsizePolicy = InverseTimeStepsize | ConstantStepsize


class _StepNoise:
    """Philox generator rekeyed per step.

    at_step(t) yields the same stream as Generator(Philox(key=[seed, t])) but
    reuses one bit generator; rekeying zeroes the counter and empties the draw
    buffer, through a state of Python ints, which the setter reads faster.
    """

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._key = [int(seed), 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": (0, 0, 0, 0), "key": self._key},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def at_step(self, t: int) -> np.random.Generator:
        self._key[1] = t
        self._bg.state = self._state
        return self._gen


class NoiseDrawError(RuntimeError):
    """The child process that draws a run's noise blocks failed."""


def fork_pays() -> bool:
    """os.fork exists and this process may run on two CPUs: on one, a child only waits."""
    one_cpu = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2
    return hasattr(os, "fork") and not one_cpu


@contextlib.contextmanager
def _forked(work):
    """Run work() in a forked child while the with block runs in this process.

    Yields None, and forks nothing, when fork_pays() is false or os.fork
    raises: the caller then does the work itself. Otherwise it yields done(),
    which waits for the child and says whether work() returned. The child ends
    with os._exit, so it flushes none of this process's files: with 0 when
    work() returned, else with 1 after writing its traceback to fd 2. A child
    the block has not waited for is killed and reaped when the block ends,
    whether it completed or raised.
    """
    try:
        pid = os.fork() if fork_pays() else None
    except OSError:
        pid = None
    if pid == 0:
        code = 1
        try:
            work()
            code = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    if pid is None:
        yield None
        return
    status = None

    def done() -> bool:
        nonlocal status
        if status is None:
            status = os.waitpid(pid, 0)[1]
        return status == 0

    try:
        yield done
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _noise_blocks(problem: Problem, steppers, T: int, steps: int):
    """Yield the (k, S, ...) noise of steps [t, t + steps), for t = 0, steps, ... < T.

    The caller's process draws the first block. When there is a second, a
    child forked by _forked draws the rest into one pipe while the caller
    steps, and each block is read into the one buffer the generator holds.
    The child makes the same draw_noise calls on the same generators, so every
    block holds the bits an in-process draw gives; without a child, this
    process draws them all. A child that fails prints its traceback and
    exits, and next() raises NoiseDrawError at the block it did not write.
    Closing the generator kills and reaps the child, whether the run
    completed or raised.
    """
    starts = range(0, T, steps)
    block = problem.noise_block(steps, len(steppers))

    def draw(t, out):
        out = out[:T - t]
        problem.draw_noise((stepper.at_step(u) for u in range(t, min(T, t + steps))
                            for stepper in steppers), out)
        return out

    if len(starts) == 1:
        yield draw(0, block)
        return
    src_fd, sink = os.pipe()

    def draw_ahead():  # the sink stays open until os._exit, so a traceback precedes the EOF
        for t in starts[1:]:
            view = memoryview(draw(t, block)).cast("B")
            while view:
                view = view[os.write(sink, view):]

    # the child is killed before the pipe's read end closes, so it never meets EPIPE
    with open(src_fd, "rb") as src, _forked(draw_ahead) as child:
        os.close(sink)
        yield draw(0, block)
        for t in starts[1:]:
            if child is None:
                yield draw(t, block)
            elif src.readinto(out := block[:T - t]) != out.nbytes:
                raise NoiseDrawError(f"the noise child process failed before step {t}; "
                                     f"its traceback is on stderr")
            else:
                yield out


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One run: it records at t = 0, the multiples of record_stride and T, and at
    every communication instant too when it sets record_comm or stop_below."""

    n: int
    schedule: Schedule
    stepsize: StepsizePolicy
    x0: np.ndarray
    seed: int
    record_stride: int = 1
    track_averages: bool = True
    series: tuple[str, ...] = _SERIES  # the series computed at record points, from _SERIES
    stop_below: float | None = None  # end the lanes at their first crossing of this level
    record_comm: bool = False

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite 1-D vector")
        object.__setattr__(self, "x0", x0)
        unknown = set(self.series) - set(_SERIES)
        if isinstance(self.series, str) or unknown:
            raise ValueError(f"series must name some of {_SERIES}, got {self.series!r}")
        object.__setattr__(self, "series", tuple(s for s in _SERIES if s in self.series))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.record_stride < 1:
            raise ValueError(f"need record_stride >= 1, got {self.record_stride}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")
        if self.stop_below is not None and (len(self.series) != 1 or self.track_averages):
            raise ValueError(f"stop_below needs exactly one series and track_averages=False, "
                             f"got series={self.series!r}, track_averages={self.track_averages}")


@dataclass(eq=False)
class RunMetrics:
    """Sampled trajectory of one seeded run.

    t holds the record points of RunConfig, and r, e, V and h the series at
    them; series names the ones the config computed, and every other one is
    NaN. A lane whose config stops (stop_below) ends at its crossing: t,
    is_comm and the series end there, and final_x_bar is the mean iterate
    there. avg_h, the running average of h over steps 0..T-1, is NaN unless
    track_averages.
    """

    seed: int
    t: np.ndarray
    r: np.ndarray
    e: np.ndarray
    V: np.ndarray
    h: np.ndarray
    is_comm: np.ndarray
    final_x_bar: np.ndarray
    avg_h: float
    series: tuple[str, ...]
    track_averages: bool


@dataclass(eq=False)
class AggregateMetrics:
    """Seed-averaged series; stderr uses ddof=1 (0 when only one seed).

    The series the runs did not compute have NaN means and standard errors.
    diverged lists the seeds whose final averaged iterate is not finite,
    whose computed r, e, V or h overflowed to infinity, or whose tracked
    running average of h is not finite.
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
    mean_avg_h: float
    se_avg_h: float
    n_seeds: int
    runs: tuple  # per-seed RunMetrics, ascending seed
    diverged: tuple


class _Kahan:
    """Compensated accumulator, one sum per lane."""

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
    """Run one seed per entry of `seeds` (config.seed is ignored), in input order."""
    return run_cells(problem, [config], seeds)[0]


def run_cells(problem: Problem, configs, seeds) -> list[list[RunMetrics]]:
    """Run every config on every seed: result[k][j] is configs[k] on seeds[j].

    Each (config, seed) pair is a lane, and all lanes share one (C, S, n, d)
    state that every step advances in one numpy pass. The configs must share
    n, x0, T and track_averages; they may differ in schedule, stepsize,
    record_stride, record_comm, series and stop_below, and each records the
    series of _SERIES it names at its own points (see RunConfig); config.seed
    is ignored. Seed s's noise for step t is drawn once, from its own (seed,
    t) stream, for every config, so a lane's metrics are bitwise those of the
    one-config, one-seed batch. Only the record points and their store grow
    with T: the step loop builds the batch's state (the stepped view of X, the
    gradient buffer, step sizes and plans) at the first step of each chunk of
    about _PLAN_STEPS steps.

    A config with stop_below ends at the first record point, t = 0 or a
    communication instant, where the seed mean of its series (the mean
    _mean_se gives over these seeds) is at most stop_below. The metric pass
    after that point finds it; the config's lanes end there, bitwise the
    prefix of their unstopped run, and leave the batch: the pass ends the
    chunk at its record point, and the next is built without their rows, so a
    lone survivor steps as a one-config batch would. A stop thus depends
    on the whole seed list of the call: a config's result does not depend on
    which other configs share the call, but it does on which seeds do. When
    every config has stopped, the loop ends.

    The noise is drawn ahead in blocks of about _NOISE_BYTES (see
    _noise_blocks); a child process that draws them is reaped before run_cells
    returns or raises, and one that fails raises NoiseDrawError here.
    """
    configs = list(configs)
    seeds = [int(s) for s in seeds]
    if not configs:
        raise ValueError("need at least one config")
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if min(seeds) < 0:
        raise ValueError(f"need seeds >= 0, got {min(seeds)}")
    if max(seeds) >= 2**64:  # a seed keys a uint64 Philox counter
        raise ValueError(f"need seeds < 2**64, got {max(seeds)}")
    first = configs[0]
    for config in configs:
        if config.n != problem.n:
            raise ValueError(f"config.n = {config.n} but problem has n = {problem.n}")
        if config.x0.shape != (problem.dim,):
            raise ValueError(f"x0 has shape {config.x0.shape}, expected ({problem.dim},)")
        if (config.schedule.T != first.schedule.T or config.track_averages != first.track_averages
                or not np.array_equal(config.x0, first.x0)):
            raise ValueError("the configs of one batch must share n, x0, T and track_averages")
    T = first.schedule.T
    n = problem.n
    d = problem.dim
    C, S = len(configs), len(seeds)

    consts = problem.constants()
    x_star = consts.x_star
    f_star = consts.f_star
    have_star = x_star is not None

    rec_t, rec_comm = [], []  # each config's record points, from its own (T + 1,) masks
    for config in configs:
        comm, record = np.zeros((2, T + 1), dtype=bool)
        comm[config.schedule.tau[1:]] = record[::config.record_stride] = record[T] = True
        record |= comm & (config.record_comm or config.stop_below is not None)
        rec_t.append(np.flatnonzero(record))
        rec_comm.append(comm[rec_t[-1]])
    del comm, record
    # the series some config computes, in _SERIES order, and each config's rows of them
    need = [name for name in _SERIES if any(name in config.series for config in configs)]
    picks = [slice(None) if list(config.series) == need else
             [need.index(name) for name in config.series] for config in configs]
    store = [np.empty((len(config.series), S, len(t))) for config, t in zip(configs, rec_t)]
    filled = [0] * C
    # the stopping configs' levels, and the record points a stop may fall on
    stops = {k: config.stop_below for k, config in enumerate(configs)
             if config.stop_below is not None}
    can_stop = {k: rec_comm[k] | (rec_t[k] == 0) for k in stops}
    ends, ended_at = {}, {}  # a stopped config's record count, and its (S, d) mean iterate there

    def lanes(mask):
        ids = np.flatnonzero(mask)
        run = len(ids) and ids[-1] - ids[0] == len(ids) - 1
        return slice(ids[0], ids[-1] + 1) if run else ids if len(ids) else None

    def plans(held_by, t0, t1):
        """plan[t - t0], t0 <= t <= t1: what happens after step t - 1 to the
        configs held_by (indices into configs, held at rows 0, 1, ... of X):
        the rows averaged and the rows copied, each None (no row), a slice (a
        run of rows, indexed as a view) or their indices, and the copied
        configs' indices. One plan per distinct column of (comm; snap), and a
        config that computes no series records its t but copies no state."""
        cols = np.zeros((2 * len(held_by), t1 + 1 - t0), dtype=bool)
        for i, k in enumerate(held_by.tolist()):
            for row, points, on in ((i, configs[k].schedule.tau[1:], True),
                                    (len(held_by) + i, rec_t[k], bool(configs[k].series))):
                lo, hi = np.searchsorted(points, [t0, t1 + 1])
                cols[row, points[lo:hi] - t0] = on
        packed = np.ascontiguousarray(np.packbits(cols, axis=0).T)
        _, first_t, plan_at = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                        return_index=True, return_inverse=True)
        avg, rec = cols[:len(held_by)], cols[len(held_by):]
        made = [(lanes(avg[:, t]), lanes(rec[:, t]), held_by[rec[:, t]]) for t in first_t.tolist()]
        return [made[i] for i in plan_at.tolist()]

    # the distinct stepsizes, and each config's index into them
    policies = list(dict.fromkeys(config.stepsize for config in configs))
    rate_row = [policies.index(config.stepsize) for config in configs]
    held_by = np.arange(C)  # the config of each row of X
    X = np.tile(first.x0, (C, S, n, 1))
    noise = None
    steppers = [_StepNoise(s) for s in seeds] if problem.has_gradient_noise else []
    # block[j] is the (S, ...) noise of step t + j, taken at the t that `steps` divides
    steps = max(1, min(T, _NOISE_BYTES // problem.noise_block(S).nbytes))
    chunk = steps * max(1, _PLAN_STEPS // steps)  # chunks end at its multiples, whole noise blocks
    t0 = end = 0  # the batch's state covers steps t0 <= t < end, and t = end rebuilds it
    grads = problem.stochastic_grads
    value = problem._global_value
    grad = problem._global_grad

    sum_h = _Kahan(C * S)
    track = first.track_averages  # then no config stops, so X keeps every config

    # one snapshot row is one config's (S, n, d) state at one of its record points
    snaps = np.empty((max(C, _SNAPSHOT_BYTES // X[0].nbytes), S, n, d))
    owners = []  # the configs of the held rows, one index array per snapshot
    held = 0

    def snapshot(t):
        """Copy the states of the configs that record at t, after a metric pass
        if the buffer is full; a stop that pass finds ends the chunk at t."""
        nonlocal held, end
        _, rows, ids = plan[t - t0]
        if held + len(ids) > len(snaps) and flush():
            end = t
        snaps[held:held + len(ids)] = X[rows]
        owners.append(ids)
        held += len(ids)

    def flush():
        """The needed series of the held rows at once, (k, S, ...) -> each
        config's columns; whether a config stops at one of them. The rows of
        a config that stopped at an earlier pass are dropped."""
        nonlocal held
        Xs = snaps[:held]
        xbar = np.add.reduce(Xs, axis=2) / n  # ndarray.mean's bits, without its wrapper
        points = xbar.reshape(-1, d)
        out = {} if have_star else dict.fromkeys(("r", "e"), np.full((held, S), np.nan))
        if "r" in need and have_star:
            rv = xbar - x_star
            out["r"] = np.vecdot(rv, rv)
        if "e" in need and have_star:
            out["e"] = (value(points) - f_star).reshape(held, S)
        if "V" in need:
            diff = Xs - xbar[:, :, None]
            out["V"] = np.einsum("ksij,ksij->ks", diff, diff) / n
        if "h" in need:
            g = grad(points)
            out["h"] = np.vecdot(g, g).reshape(held, S)
        vals = np.stack([out[name] for name in need])
        owner = np.concatenate(owners)
        stopped = False
        for k in sorted(set(owner.tolist()) - ends.keys()):  # each config's rows, in time order
            rows = np.flatnonzero(owner == k)
            was = filled[k]
            filled[k] += len(rows)
            store[k][:, :, was:filled[k]] = vals[:, rows][picks[k]].transpose(0, 2, 1)
            if k in stops:
                i = _first_crossing(store[k][0, :, was:filled[k]],
                                    can_stop[k][was:filled[k]], stops[k])
                if i is not None:
                    ends[k] = was + i + 1
                    ended_at[k] = xbar[rows[i]]
                    stopped = True
        owners.clear()
        held = 0
        return stopped

    with (np.errstate(over="ignore", invalid="ignore"),  # _aggregate reports divergence
          contextlib.closing(_noise_blocks(problem, steppers, T, steps)) as blocks):
        for t in range(T):
            if t == end:  # the next chunk's batch state, without the stopped configs' rows
                keep = [i for i, k in enumerate(held_by.tolist()) if k not in ends]
                if not keep:
                    break
                held_by, X = held_by[keep], X[keep]
                t0, end = t, min(T, t - t % chunk + chunk)
                Y = X[0] if len(keep) == 1 else X  # the stepped view: no unit axis for one config
                G = np.empty(Y.shape)  # the stochastic gradient of each step
                # eta[t - t0]: a scalar if the configs share a stepsize, else a (C', 1, 1, 1) column
                own = [rate_row[k] for k in held_by.tolist()]
                rates = [np.broadcast_to(policy.at(np.arange(t0, end)), end - t0)
                         for policy in policies]
                eta = (rates[own[0]] if own.count(own[0]) == len(own) else
                       np.array([rates[i] for i in own]).T.reshape(end - t0, len(own), 1, 1, 1))
                plan = plans(held_by, t0, end)
                if not t and plan[0][1] is not None:  # every config records t = 0
                    snapshot(0)
            if track:
                xbar = (np.add.reduce(X, axis=2) / n).reshape(-1, d)
                g = grad(xbar)
                sum_h.add(np.vecdot(g, g))
            if steppers:
                j = t % steps
                if not j:
                    block = next(blocks)
                noise = block[j]
            grads(Y, noise, out=G)
            G *= eta[t - t0]
            Y -= G
            avg, rec, _ = plan[t + 1 - t0]
            if avg is not None:
                X[avg] = np.add.reduce(X[avg], axis=2, keepdims=True) / n
            if rec is not None:
                snapshot(t + 1)
        if held:
            flush()
        final_x_bar = dict(zip(held_by.tolist(), np.add.reduce(X, axis=2) / n))
    final_x_bar |= ended_at

    avg_h = (sum_h.s / T if track else np.full(C * S, np.nan)).reshape(C, S).tolist()
    lens = [ends.get(k, len(t)) for k, t in enumerate(rec_t)]
    unset = [dict.fromkeys(_SERIES, _unset(m)) for m in lens]  # shared by a config's lanes
    return [
        [RunMetrics(seed=seed, t=rec_t[k][:m], is_comm=rec_comm[k][:m],
                    final_x_bar=final_x_bar[k][j], avg_h=avg_h[k][j],
                    series=config.series, track_averages=track,
                    **(unset[k] | dict(zip(config.series, store[k][:, j, :m]))))
         for j, seed in enumerate(seeds)]
        for k, (config, m) in enumerate(zip(configs, lens))
    ]


def _first_crossing(values: np.ndarray, eligible: np.ndarray, level: float) -> int | None:
    """The first eligible column of (S, K) values whose seed mean, as _mean_se
    gives it, is at most level; None when there is none."""
    cols = np.flatnonzero(eligible)
    if not len(cols):
        return None
    hit = np.flatnonzero(_mean_se(values[:, cols])[0] <= level)
    return int(cols[hit[0]]) if len(hit) else None


def _mean_se(rows) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard errors via compensated summation of the (S, K)
    values whose rows are `rows`, an (S, K) array or S arrays of length K.

    The rows are stacked and reduced one block of _MEAN_SE_VALUES // S columns
    (at least one) at a time, so the working memory beyond the two (K,)
    results is about _MEAN_SE_VALUES values at any S and K. Every column is
    reduced on its own, so the blocks do not change its bits.
    """
    S, K = len(rows), len(rows[0])
    width = max(1, _MEAN_SE_VALUES // S)
    mean, se = np.empty(K), np.empty(K)
    for lo in range(0, K, width):
        cols = slice(lo, lo + width)
        mean[cols], se[cols] = _block_mean_se(np.stack([row[cols] for row in rows]))
    return mean, se


def _block_mean_se(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_mean_se of one (S, K) block.

    A column whose exact sums fail (they overflow, or meet both infinities)
    gets the plain IEEE mean, which is then not finite, and a NaN standard
    error; every other column gets the exact math.fsum results. The exact sum
    of at most two doubles is their IEEE sum, so up to two seeds the sums are
    numpy's, and only the columns whose mean or standard error is not finite
    take the math.fsum loop.
    """
    S, K = columns.shape
    if S > 2:
        return _fsum_mean_se(columns)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = columns.sum(axis=0) / S
        se = np.zeros(K)
        if S == 2:
            dev = columns - mean
            np.float_power(dev, 2, out=dev)
            se = np.sqrt(dev.sum(axis=0) / (S - 1) / S)
    slow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(se)))
    if len(slow):
        mean[slow], se[slow] = _fsum_mean_se(columns[:, slow])
    return mean, se


def _fsum_mean_se(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_block_mean_se with one math.fsum per column and sum. Its lists of
    Python floats hold the block's values, so _mean_se's block size bounds them."""
    S, K = columns.shape
    mean = np.empty(K)
    se = np.zeros(K)
    failed = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, col in enumerate(columns.T.tolist()):
            try:
                mean[k] = math.fsum(col) / S
            except (OverflowError, ValueError):
                mean[k] = math.nan
                failed.append(k)
        if S > 1:
            dev = columns - mean
            np.float_power(dev, 2, out=dev)  # libm pow, as a float64 ** 2; not dev * dev
            for k, col in enumerate(dev.T.tolist()):
                try:
                    se[k] = math.sqrt(math.fsum(col) / (S - 1) / S)
                except (OverflowError, ValueError):
                    failed.append(k)
        for k in failed:
            mean[k], se[k] = np.sum(columns[:, k]) / S, math.nan
    return mean, se


def _unset(k: int) -> np.ndarray:
    """A read-only series of k NaNs: the value of every series a run did not compute."""
    a = np.full(k, np.nan)
    a.flags.writeable = False
    return a


def _divergence(runs) -> str:
    """Why some of the runs diverged, or "" when none did: a final averaged
    iterate that is not finite, else the computed series that overflowed, else
    a tracked running average of h that is not finite."""
    if any(not np.all(np.isfinite(m.final_x_bar)) for m in runs):
        return "non-finite iterate"
    overflowed = [name for name in _SERIES if any(np.isinf(getattr(m, name)).any() for m in runs)]
    if overflowed:
        return f"{', '.join(overflowed)} overflowed"
    # h_t is finite until the run overflows, so a tracked avg_h is finite until then
    if any(m.track_averages and not math.isfinite(m.avg_h) for m in runs):
        return "non-finite running average of h"
    return ""


def _aggregate(runs) -> AggregateMetrics:
    """Seed-averaged metrics of one config's runs; reduction happens in
    ascending-seed order so the result is independent of the order and
    partition of the seeds. Only the series the runs computed are reduced,
    each by _mean_se straight from the runs' rows: no series is stacked
    whole, so beyond the results and the runs this holds one block of about
    _MEAN_SE_VALUES values, not S x (record points)."""
    runs = sorted(runs, key=lambda m: m.seed)
    stats = {}
    unset = _unset(len(runs[0].t))
    for name in _SERIES:
        stats[f"mean_{name}"], stats[f"se_{name}"] = (
            _mean_se([getattr(m, name) for m in runs])
            if name in runs[0].series else (unset, unset))
    [mean_avg_h], [se_avg_h] = _mean_se(np.array([[m.avg_h] for m in runs]))
    return AggregateMetrics(
        t=runs[0].t.copy(), is_comm=runs[0].is_comm.copy(), **stats,
        mean_avg_h=float(mean_avg_h), se_avg_h=float(se_avg_h),
        n_seeds=len(runs), runs=tuple(runs),
        diverged=tuple(m.seed for m in runs if _divergence([m])),
    )


def run_many(problem: Problem, config: RunConfig, seeds) -> AggregateMetrics:
    """Seed-averaged metrics of `config` on `seeds` (see _aggregate)."""
    return _aggregate(run_batch(problem, config, seeds))
