import contextlib
import errno
import math
import os
import signal
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsgd_lab import engine
from localsgd_lab.cli import _cells, write_metrics_csv
from localsgd_lab.engine import (
    ConstantStepsize,
    InverseTimeStepsize,
    NoiseDrawError,
    RunConfig,
    _aggregate,
    _divergence,
    _mean_se,
    run_batch,
    run_cells,
    run_local_sgd,
    run_many,
)
from localsgd_lab.objectives import (
    DiagonalQuadraticProblem,
    make_convex_quadratics,
    make_logistic_family,
    make_nonconvex_family,
    make_strongly_convex_quadratics,
)
from localsgd_lab.schedules import (
    Schedule,
    fixed_schedule,
    fixed_width_schedule,
    increasing_power_schedule,
)


def noise_generator(seed: int, t: int) -> np.random.Generator:
    """Reference generator for the (seed, t) noise block."""
    key = np.zeros(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(t)
    return np.random.Generator(np.random.Philox(key=key))


def scalar_problem():
    return DiagonalQuadraticProblem(np.array([[1.0]]), np.array([[0.0]]), 0.0,
                                    mu=1.0, L=1.0)


def noisy_problem(n=4, d=6, sigma=0.8, seed=17):
    return make_strongly_convex_quadratics(n=n, d=d, mu=0.2, L=1.0, delta=1.0,
                                           sigma_noise=sigma, seed=seed)


def cfg(problem, schedule, stepsize, seed=0, **kw):
    return RunConfig(n=problem.n, schedule=schedule, stepsize=stepsize,
                     x0=np.zeros(problem.dim), seed=seed, **kw)


def test_stepsize_policies():
    assert InverseTimeStepsize(mu=2.0, beta=1.0).at(0) == pytest.approx(1.0)
    assert InverseTimeStepsize(mu=1.0, beta=10.0).at(10) == pytest.approx(0.1)
    assert ConstantStepsize(c=1.0, n=4, T=100).at(0) == pytest.approx(0.2)
    assert ConstantStepsize(c=1.0, n=4, T=100).at(99) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        InverseTimeStepsize(mu=0.0, beta=1.0)
    with pytest.raises(ValueError):
        ConstantStepsize(c=-1.0, n=4, T=100)


def test_single_noiseless_step_oracle():
    # f = x^2/2, x0 = 1, eta = 0.1, one step: x1 = 0.9, r1 = 0.81
    p = scalar_problem()
    config = RunConfig(n=1, schedule=Schedule((1,)), stepsize=ConstantStepsize(0.1, 1, 1),
                       x0=np.array([1.0]), seed=0)
    m = run_local_sgd(p, config)
    assert m.final_x_bar[0] == pytest.approx(0.9)
    assert m.r[-1] == pytest.approx(0.81)
    assert m.r[0] == pytest.approx(1.0)


def test_noiseless_run_matches_closed_form_gd():
    # with eta_t = eta and f = q x^2 / 2: x_T = x0 * prod(1 - eta q)
    p = DiagonalQuadraticProblem(np.array([[0.5, 2.0]]), np.zeros((1, 2)), 0.0,
                                 mu=0.5, L=2.0)
    T = 20
    config = RunConfig(n=1, schedule=fixed_schedule(T, 4), stepsize=ConstantStepsize(0.3, 1, T),
                       x0=np.array([1.0, 1.0]), seed=0)
    m = run_local_sgd(p, config)
    eta = 0.3 * math.sqrt(1 / T)
    expect = np.array([(1 - eta * 0.5) ** T, (1 - eta * 2.0) ** T])
    np.testing.assert_allclose(m.final_x_bar, expect, rtol=1e-12)


def test_reference_implementation_agreement():
    # independent re-implementation of the update rule, noise keyed by (seed, t)
    p = noisy_problem()
    sched = increasing_power_schedule(2, 0.6, 37)
    step = InverseTimeStepsize(mu=0.2, beta=25.0)
    config = cfg(p, sched, step, seed=42)
    m = run_local_sgd(p, config)

    X = np.tile(config.x0, (p.n, 1))
    comm = set(sched.tau[1:])
    scale = p.sigma_noise / math.sqrt(p.dim)
    for t in range(sched.T):
        block = noise_generator(42, t).standard_normal((p.n, p.dim)) * scale
        X = X - step.at(t) * (p.q * (X - p.c) + block)
        if (t + 1) in comm:
            X = np.tile(X.mean(axis=0), (p.n, 1))
    np.testing.assert_array_equal(m.final_x_bar, X.mean(axis=0))


def test_determinism_bitwise():
    p = noisy_problem()
    sched = fixed_schedule(50, 7)
    config = cfg(p, sched, InverseTimeStepsize(0.2, 30.0), seed=5)
    a = run_local_sgd(p, config)
    b = run_local_sgd(p, config)
    for name in ("t", "r", "e", "V", "h", "final_x_bar"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_record_stride_agreement_on_shared_timestamps():
    p = noisy_problem()
    sched = fixed_schedule(60, 5)
    base = cfg(p, sched, InverseTimeStepsize(0.2, 30.0), seed=3)
    fine = run_local_sgd(p, base)
    coarse = run_local_sgd(p, RunConfig(n=base.n, schedule=sched, stepsize=base.stepsize,
                                        x0=base.x0, seed=3, record_stride=17))
    shared, ia, ib = np.intersect1d(fine.t, coarse.t, return_indices=True)
    assert len(shared) == len(coarse.t)
    for name in ("r", "e", "V", "h"):
        np.testing.assert_array_equal(getattr(fine, name)[ia], getattr(coarse, name)[ib])


def test_noise_is_pure_in_seed_agent_step():
    # row i of the (seed, t) block does not depend on how many rows are drawn
    b2 = noise_generator(11, 4).standard_normal((2, 5))
    b4 = noise_generator(11, 4).standard_normal((4, 5))
    np.testing.assert_array_equal(b2, b4[:2])
    # and differs across steps and seeds
    assert not np.array_equal(b4, noise_generator(11, 5).standard_normal((4, 5)))
    assert not np.array_equal(b4, noise_generator(12, 4).standard_normal((4, 5)))


def test_consensus_reset_and_identity():
    p = noisy_problem(n=6, d=4, sigma=1.0, seed=2)
    sched = increasing_power_schedule(1, 1, 40)
    config = cfg(p, sched, InverseTimeStepsize(0.2, 30.0), seed=9)
    m = run_local_sgd(p, config)
    ref = per_record_series(p, config, [9])
    assert_series_bitwise([m], ref)
    comm_rows = m.is_comm
    assert comm_rows.sum() == sched.R
    assert np.all(m.V[comm_rows] <= 1e-12)
    # (1/n) sum ||x_i - ref||^2 = V + ||xbar - ref||^2 at every recorded t,
    # on the reference's states, whose V and r the run matches bitwise
    np.testing.assert_allclose(ref["dist_sq"], ref["V"] + ref["ref_sq"], rtol=1e-9, atol=1e-12)
    # with x* known, ref_sq is exactly the recorded r
    np.testing.assert_array_equal(m.r, ref["ref_sq"][0])


def test_exactly_R_averaging_events():
    p = noisy_problem()
    for sched in (fixed_schedule(30, 3), increasing_power_schedule(3, 1, 50), Schedule((30,))):
        m = run_local_sgd(p, cfg(p, sched, InverseTimeStepsize(0.2, 50.0), seed=1))
        assert int(m.is_comm.sum()) == sched.R
        assert m.t[-1] == sched.T
        assert m.is_comm[-1]


def test_nonconvex_metrics_are_nan_where_undefined():
    p = make_nonconvex_family(n=3, d=4, Q_diag=np.full(4, 0.5), delta=1.0,
                              eps_sin=0.2, sigma_noise=0.5, seed=4)
    config = cfg(p, fixed_schedule(20, 4), ConstantStepsize(0.5, 3, 20), seed=2)
    m = run_local_sgd(p, config)
    assert np.all(np.isnan(m.r)) and np.all(np.isnan(m.e))
    assert np.all(np.isfinite(m.V)) and np.all(np.isfinite(m.h))
    assert math.isfinite(m.avg_h)
    ref = per_record_series(p, config, [2])
    assert_series_bitwise([m], ref)
    np.testing.assert_allclose(ref["dist_sq"], ref["V"] + ref["ref_sq"], rtol=1e-9, atol=1e-12)


def test_time_averages_match_recorded_series():
    p = noisy_problem()
    sched = fixed_schedule(40, 8)
    m = run_local_sgd(p, cfg(p, sched, InverseTimeStepsize(0.2, 30.0), seed=6))
    # stride 1: recorded t = 0..T; averages cover t = 0..T-1
    assert m.avg_h == pytest.approx(math.fsum(m.h[:-1].tolist()) / sched.T, rel=1e-12)
    off = run_local_sgd(p, cfg(p, sched, InverseTimeStepsize(0.2, 30.0), seed=6,
                               track_averages=False))
    assert math.isnan(off.avg_h)
    np.testing.assert_array_equal(off.r, m.r)


def test_logistic_runs_deterministically():
    p = make_logistic_family(n=3, d=3, K=4, m=8, shards_per_agent=2, lam=0.1, seed=3)
    config = cfg(p, fixed_schedule(15, 3), ConstantStepsize(0.2, 3, 15), seed=8)
    a = run_local_sgd(p, config)
    b = run_local_sgd(p, config)
    np.testing.assert_array_equal(a.final_x_bar, b.final_x_bar)
    assert np.all(np.isfinite(a.r))


RUN_FIELDS = ("t", "r", "e", "V", "h", "is_comm", "final_x_bar")


def assert_runs_bitwise_equal(a, b):
    assert a.seed == b.seed
    for name in RUN_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert np.float64(a.avg_h).tobytes() == np.float64(b.avg_h).tobytes()


def test_run_batch_partition_invariance():
    # all seeds at once, in chunks, one at a time, and in another order
    p = noisy_problem()
    config = cfg(p, fixed_schedule(30, 5), InverseTimeStepsize(0.2, 30.0))
    seeds = list(range(8))
    whole = run_batch(p, config, seeds)
    assert [m.seed for m in whole] == seeds
    chunks = [m for i in range(0, 8, 3) for m in run_batch(p, config, seeds[i:i + 3])]
    single = [run_local_sgd(p, replace(config, seed=s)) for s in seeds]
    backwards = run_batch(p, config, seeds[::-1])[::-1]
    for part in (chunks, single, backwards):
        assert len(part) == len(whole)
        for a, b in zip(whole, part):
            assert_runs_bitwise_equal(a, b)


def test_run_many_aggregation_is_seed_order_invariant():
    p = noisy_problem()
    config = cfg(p, fixed_schedule(30, 5), InverseTimeStepsize(0.2, 30.0))
    fwd = run_many(p, config, [0, 1, 2, 3, 4])
    rev = run_many(p, config, [4, 3, 2, 1, 0])
    np.testing.assert_array_equal(fwd.mean_r, rev.mean_r)
    np.testing.assert_array_equal(fwd.se_r, rev.se_r)
    assert [m.seed for m in fwd.runs] == [m.seed for m in rev.runs] == [0, 1, 2, 3, 4]
    # manual check at the final timestamp
    runs = sorted(run_batch(p, config, [0, 1, 2, 3, 4]), key=lambda m: m.seed)
    finals = [m.r[-1] for m in runs]
    mean = math.fsum(finals) / 5
    var = math.fsum((v - mean) ** 2 for v in finals) / 4
    assert fwd.mean_r[-1] == pytest.approx(mean, rel=1e-15)
    assert fwd.se_r[-1] == pytest.approx(math.sqrt(var / 5), rel=1e-12)
    assert fwd.n_seeds == 5


def test_run_validation_errors():
    p = noisy_problem()
    sched = fixed_schedule(10, 2)
    with pytest.raises(ValueError, match="config.n"):
        run_local_sgd(p, RunConfig(n=2, schedule=sched, stepsize=ConstantStepsize(0.1, 2, 10),
                                   x0=np.zeros(p.dim), seed=0))
    with pytest.raises(ValueError, match="x0"):
        run_local_sgd(p, RunConfig(n=p.n, schedule=sched, stepsize=ConstantStepsize(0.1, p.n, 10),
                                   x0=np.zeros(3), seed=0))
    with pytest.raises(ValueError):
        RunConfig(n=p.n, schedule=sched, stepsize=ConstantStepsize(0.1, p.n, 10),
                  x0=np.array([np.inf] * p.dim), seed=0)
    with pytest.raises(ValueError, match="distinct"):
        run_batch(p, cfg(p, sched, ConstantStepsize(0.1, p.n, 10)), [1, 1])
    for series in (("r", "x"), "r"):  # an unknown name, or a bare string
        with pytest.raises(ValueError, match="series"):
            cfg(p, sched, ConstantStepsize(0.1, p.n, 10), series=series)
    with pytest.raises(ValueError, match="seed"):
        run_batch(p, cfg(p, sched, ConstantStepsize(0.1, p.n, 10)), [])
    # the configs of one run_cells batch differ only in schedule, stepsize, record_stride
    # and series
    base = cfg(p, sched, ConstantStepsize(0.1, p.n, 10))
    with pytest.raises(ValueError, match="config"):
        run_cells(p, [], [0])
    for other in (replace(base, schedule=fixed_schedule(12, 2)),
                  replace(base, track_averages=False),
                  replace(base, x0=np.ones(p.dim))):
        with pytest.raises(ValueError, match="must share"):
            run_cells(p, [base, other], [0])
    lanes = run_cells(p, [base, replace(base, schedule=fixed_schedule(10, 5), record_stride=3,
                                        stepsize=InverseTimeStepsize(0.2, 30.0))], [0, 1])
    assert [[m.seed for m in cell] for cell in lanes] == [[0, 1], [0, 1]]


def test_diverging_run_aggregates_to_non_finite_means():
    # c = 50 grows the iterate until r overflows, so fsum cannot sum those columns
    p = make_strongly_convex_quadratics(n=4, d=5, mu=0.1, L=1.0, delta=1.0,
                                        sigma_noise=1.0, seed=0)
    config = cfg(p, fixed_width_schedule(5, 2000), ConstantStepsize(50.0, 4, 2000))
    agg = run_many(p, config, [0, 1, 2])
    assert agg.diverged == (0, 1, 2)
    assert not np.all(np.isfinite(agg.mean_r))
    assert np.isfinite(agg.mean_r[0]) and agg.se_r[0] == 0.0  # all seeds start at x0
    # columns every seed can still sum exactly keep the fsum path
    finite = np.all(np.isfinite(np.stack([m.r for m in agg.runs])), axis=0)
    finite &= np.isfinite(agg.mean_r)
    k = np.flatnonzero(finite)[-1]
    assert agg.mean_r[k] == math.fsum(m.r[k] for m in agg.runs) / 3
    healthy = run_many(p, cfg(p, fixed_width_schedule(5, 2000), ConstantStepsize(0.5, 4, 2000)),
                       [0, 1, 2])
    assert healthy.diverged == ()
    # the cause names the iterate before any overflowed series, and those
    # before the running average of h
    m = healthy.runs[0]
    inf = np.full_like(m.r, math.inf)
    assert _divergence(healthy.runs) == ""
    assert _divergence([m, replace(m, track_averages=True, avg_h=math.inf)]) == \
        "non-finite running average of h"
    assert _divergence([replace(m, h=inf, track_averages=True, avg_h=math.inf),
                        replace(m, r=inf)]) == "r, h overflowed"
    assert _divergence([replace(m, r=inf), replace(m, final_x_bar=m.final_x_bar * math.nan)]) \
        == "non-finite iterate"
    # a series the run did not compute is NaN, which never counts as overflowed
    assert _divergence([replace(m, r=np.full_like(m.r, math.nan), series=("e",))]) == ""


def _family(name, n, d, seed):
    if name == "strongly-convex-quadratic":
        return make_strongly_convex_quadratics(n=n, d=d, mu=0.2, L=1.0, delta=1.0,
                                               sigma_noise=0.7, seed=seed)
    if name == "convex-quadratic":
        return make_convex_quadratics(n=n, d=d, L=1.0, eps_pd=0.01, delta=1.0,
                                      sigma_noise=0.7, seed=seed)
    if name == "nonconvex":
        return make_nonconvex_family(n=n, d=d, Q_diag=np.linspace(0.2, 1.0, d), delta=1.0,
                                     eps_sin=0.3, sigma_noise=0.7, seed=seed)
    return make_logistic_family(n=n, d=d, K=3, m=6, shards_per_agent=2, lam=0.2, seed=seed)


@st.composite
def batch_cases(draw):
    family = draw(st.sampled_from(["strongly-convex-quadratic", "convex-quadratic",
                                   "nonconvex", "logistic"]))
    n = draw(st.integers(1, 5))
    d = draw(st.integers(2, 5))
    T = draw(st.integers(1, 40))
    cells = []
    for _ in range(draw(st.integers(1, 4))):  # (schedule, record_stride, stepsize) per config
        cuts = draw(st.lists(st.integers(1, T - 1), max_size=6, unique=True)) if T > 1 else []
        tau = [0, *sorted(cuts), T]
        cells.append((Schedule(tuple(b - a for a, b in zip(tau, tau[1:]))),
                      draw(st.integers(1, T + 1)),
                      draw(st.one_of(
                          st.builds(ConstantStepsize, st.floats(0.05, 1.0), st.just(n), st.just(T)),
                          st.builds(InverseTimeStepsize, st.floats(0.2, 1.0), st.floats(5.0, 50.0))))))
    track = draw(st.booleans())
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=5, unique=True))
    rows = draw(st.sampled_from([1, 2, 3, 64]))  # snapshot rows per metric pass
    return family, n, d, cells, track, seeds, rows


@settings(max_examples=100, deadline=None)
@given(batch_cases(), st.integers(0, 50))
def test_batch_equals_one_seed_runs(case, problem_seed):
    # every (config, seed) lane of one run_cells call is its own one-seed run
    family, n, d, cells, track, seeds, rows = case
    p = _family(family, n, d, problem_seed)
    T = cells[0][0].T
    configs = [cfg(p, sched, step, record_stride=stride, track_averages=track)
               for sched, stride, step in cells]
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", rows * len(seeds) * n * p.dim * 8):
        lanes = run_cells(p, configs, seeds)
    assert len(lanes) == len(configs)
    for config, cell in zip(configs, lanes):
        assert [m.seed for m in cell] == seeds
        for m in cell:
            assert_runs_bitwise_equal(m, run_local_sgd(p, replace(config, seed=m.seed)))


@settings(max_examples=100, deadline=None)
@given(batch_cases(), st.integers(0, 50))
def test_averaging_identities_hold_on_every_lane(case, problem_seed):
    # (1/n) sum_i ||x_i - ref||^2 = V + ||xbar - ref||^2 at every record point;
    # at a communication instant every agent holds the average m, so V is only
    # the rounding of xbar, at most (n eps)^2 ||m||^2 <= (n eps)^2 2 (dist_sq + ||ref||^2).
    # Both are checked on the reference's states, which every lane matches bitwise.
    family, n, d, cells, track, seeds, _ = case
    p = _family(family, n, d, problem_seed)
    x_star = p.constants().x_star
    ref_norm_sq = 0.0 if x_star is None else float(x_star @ x_star)
    configs = [cfg(p, sched, step, record_stride=stride, track_averages=track, record_comm=True)
               for sched, stride, step in cells]
    residue = (4 * n * np.finfo(float).eps) ** 2
    for config, lanes in zip(configs, run_cells(p, configs, seeds)):
        ref = per_record_series(p, config, seeds)
        assert_series_bitwise(lanes, ref)
        for m, dist_sq, V, ref_sq in zip(lanes, ref["dist_sq"], ref["V"], ref["ref_sq"]):
            assert np.all(np.isfinite(dist_sq))
            np.testing.assert_allclose(dist_sq, V + ref_sq, rtol=1e-9, atol=0)
            comm = m.is_comm
            assert comm.sum() == config.schedule.R
            assert np.all(V[comm] <= residue * 2 * (dist_sq[comm] + ref_norm_sq))


SERIES = ("r", "e", "V", "h")


def per_record_series(p, config, seeds):
    """The engine's step loop with every metric evaluated at its own record point.

    The formulas are those of a per-record evaluation on the (S, n, d) state,
    written out here so the chunked snapshot pass has a reference to match.
    Besides SERIES it returns two diagnostics of the averaging identity
    (1/n) sum_i ||x_i - ref||^2 = V + ||xbar - ref||^2, with ref = x* when the
    family has one, else the origin: dist_sq, the left side, and ref_sq.
    """
    S, n, T = len(seeds), p.n, config.schedule.T
    consts = p.constants()
    have_star = consts.x_star is not None
    ref = consts.x_star if have_star else np.zeros(p.dim)
    comm = set(config.schedule.tau[1:])
    # the communication instants the config records: all of them, or none
    comm_records = comm if config.record_comm or config.stop_below is not None else set()
    out = {name: [] for name in (*SERIES, "dist_sq", "ref_sq")}
    X = np.tile(config.x0, (S, n, 1))

    def record():
        xbar = X.mean(axis=1)
        diff = X - xbar[:, None]
        out["V"].append(np.einsum("sij,sij->s", diff, diff) / n)
        dref = X - ref
        out["dist_sq"].append(np.einsum("sij,sij->s", dref, dref) / n)
        rv = xbar - ref
        ref_sq = np.vecdot(rv, rv)
        g = p._global_grad(xbar)
        out["h"].append(np.vecdot(g, g))
        out["ref_sq"].append(ref_sq)
        out["r"].append(ref_sq if have_star else np.full(S, np.nan))
        out["e"].append(p._global_value(xbar) - consts.f_star if have_star
                        else np.full(S, np.nan))

    with np.errstate(over="ignore", invalid="ignore"):
        record()
        for t in range(T):
            noise = None
            if p.has_gradient_noise:
                noise = p.noise_block(S)
                p.draw_noise([noise_generator(s, t) for s in seeds], noise)
            G = p.stochastic_grads(X, noise)
            G *= config.stepsize.at(t)
            X -= G
            if t + 1 in comm:
                X[:] = X.mean(axis=1, keepdims=True)
            if (t + 1) % config.record_stride == 0 or t + 1 == T or t + 1 in comm_records:
                record()
    return {name: np.stack(values, axis=1) for name, values in out.items()}


def assert_series_bitwise(runs, ref):
    for s, m in enumerate(runs):
        for name in SERIES:
            got, want = getattr(m, name), ref[name][s]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m.seed, name)


@st.composite
def snapshot_cases(draw):
    family = draw(st.sampled_from(["strongly-convex-quadratic", "convex-quadratic",
                                   "nonconvex", "logistic"]))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(2, 4))
    H = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    stride = draw(st.integers(1, sum(H) + 1))
    record_comm = draw(st.booleans())
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True))
    sched = Schedule(tuple(H))
    comm = set(sched.tau) if record_comm else set()
    records = len(set(range(0, sched.T + 1, stride)) | comm | {0, sched.T})
    # snapshots per chunk: more than, exactly, and fewer than the record points
    chunk = draw(st.sampled_from(sorted({records + 1, records, max(1, records - 1), 1, 2})))
    return family, n, d, sched, stride, record_comm, seeds, chunk


@settings(max_examples=80, deadline=None)
@given(snapshot_cases(), st.integers(0, 50), st.booleans())
def test_chunked_metrics_equal_per_record_metrics(case, problem_seed, track):
    family, n, d, sched, stride, record_comm, seeds, chunk = case
    p = _family(family, n, d, problem_seed)
    config = cfg(p, sched, ConstantStepsize(0.5, n, sched.T),
                 record_stride=stride, track_averages=track, record_comm=record_comm)
    state_bytes = len(seeds) * n * p.dim * 8
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", chunk * state_bytes):
        runs = run_batch(p, config, seeds)
    assert_series_bitwise(runs, per_record_series(p, config, seeds))


@st.composite
def series_cases(draw):
    family, n, d, sched, stride, record_comm, seeds, chunk = draw(snapshot_cases())
    subsets = draw(st.lists(st.sets(st.sampled_from(SERIES)), min_size=1, max_size=3))
    # the all-series config and the empty subset sit anywhere in the batch
    picks = draw(st.permutations([SERIES, (), *(tuple(sub) for sub in subsets)]))
    return family, n, d, sched, stride, record_comm, seeds, chunk, picks


@settings(max_examples=80, deadline=None)
@given(series_cases(), st.integers(0, 50), st.booleans())
def test_selected_series_equal_the_all_series_lane(case, problem_seed, track):
    # one batch of configs that differ only in the series they compute: each
    # computed series has the bits of the all-series lane, the others are NaN
    family, n, d, sched, stride, record_comm, seeds, chunk, picks = case
    p = _family(family, n, d, problem_seed)
    configs = [cfg(p, sched, ConstantStepsize(0.5, n, sched.T), record_stride=stride,
                   track_averages=track, series=series, record_comm=record_comm)
               for series in picks]
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", chunk * len(seeds) * n * p.dim * 8):
        lanes = run_cells(p, configs, seeds)
    full = lanes[picks.index(SERIES)]
    every = _aggregate(full)
    for config, runs in zip(configs, lanes):
        assert config.series == tuple(name for name in SERIES if name in config.series)
        unset = np.full(len(full[0].t), np.nan)
        assert_series_bitwise(runs, {
            name: np.stack([getattr(m, name) if name in config.series else unset for m in full])
            for name in SERIES})
        for m, want in zip(runs, full):
            assert m.series == config.series
            for name in ("t", "is_comm", "final_x_bar", "avg_h"):
                assert np.asarray(getattr(m, name)).tobytes() == \
                    np.asarray(getattr(want, name)).tobytes(), name
        agg = _aggregate(runs)
        for name in ("r", "e", "V", "h"):
            for stat in (f"mean_{name}", f"se_{name}"):
                want = getattr(every, stat) if name in config.series else unset
                assert getattr(agg, stat).tobytes() == want.tobytes(), stat


@settings(max_examples=80, deadline=None)
@given(batch_cases(), st.integers(0, 50), st.data())
def test_record_comm_adds_only_the_communication_rows(case, problem_seed, data):
    # without record_comm a config records t = 0, the multiples of its stride and
    # T, and its lanes are the record_comm lanes at those points, bit for bit
    family, n, d, cells, track, seeds, rows = case
    p = _family(family, n, d, problem_seed)
    configs = [cfg(p, sched, step, record_stride=stride, track_averages=track,
                   series=tuple(data.draw(st.sets(st.sampled_from(SERIES)))),
                   record_comm=data.draw(st.booleans()))
               for sched, stride, step in cells]
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", rows * len(seeds) * n * p.dim * 8):
        mixed = run_cells(p, configs, seeds)
        full = run_cells(p, [replace(config, record_comm=True) for config in configs], seeds)
    for config, got, want in zip(configs, mixed, full):
        T = config.schedule.T
        lean_t = sorted({*range(0, T + 1, config.record_stride), T})
        for a, b in zip(got, want):
            assert a.t.tolist() == (b.t.tolist() if config.record_comm else lean_t)
            keep = np.isin(b.t, a.t)
            for name in (name for name in RUN_FIELDS if name != "final_x_bar"):
                x, y = getattr(a, name), getattr(b, name)[keep]
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
            assert a.final_x_bar.tobytes() == b.final_x_bar.tobytes()
            assert np.float64(a.avg_h).tobytes() == np.float64(b.avg_h).tobytes()
    # a stop_below config records its communication instants with or without the flag
    name = data.draw(st.sampled_from(["r", "e", "V", "h"]))
    level = data.draw(st.floats(0.0, 4.0) | st.just(-1.0))
    stopping = [replace(config, series=(name,), track_averages=False, stop_below=level)
                for config in configs]
    lanes = [run_cells(p, [replace(config, record_comm=flag) for config in stopping], seeds)
             for flag in (False, True)]
    for config, got, want in zip(stopping, *lanes):
        for a, b in zip(got, want):
            assert_runs_bitwise_equal(a, b)
            assert set(config.schedule.tau) & set(range(a.t[-1] + 1)) <= set(a.t.tolist())


@st.composite
def stop_cases(draw):
    family = draw(st.sampled_from(["strongly-convex-quadratic", "convex-quadratic", "logistic"]))
    n, d, T = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 200))
    cells = []
    for _ in range(draw(st.integers(1, 4))):  # (schedule, record_stride, c) per config
        sched = draw(st.one_of(
            st.builds(fixed_width_schedule, st.integers(1, 8), st.just(T)),
            st.builds(increasing_power_schedule, st.floats(0.5, 3.0), st.floats(0.0, 1.5),
                      st.just(T))))
        cells.append((sched, draw(st.integers(1, T + 1)), draw(st.sampled_from([0.3, 0.5, 0.8]))))
    # the logistic family has no minimizer, so its r and e are NaN
    series = draw(st.sampled_from(["h", "V"] if family == "logistic" else ["r", "e", "h", "V"]))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True))
    return family, n, d, cells, series, seeds


def eligible_points(agg):
    """The record points a stop may fall on: t = 0 and the communication instants."""
    eligible = agg.is_comm.copy()
    eligible[0] = True
    return eligible


@settings(max_examples=60, deadline=None)
@given(stop_cases(), st.integers(0, 50), st.data())
def test_stopped_lanes_are_the_prefix_of_their_unstopped_runs(case, problem_seed, data):
    family, n, d, cells, series, seeds = case
    p = _family(family, n, d, problem_seed)
    T = cells[0][0].T
    configs = [cfg(p, sched, ConstantStepsize(c, n, T), record_stride=stride,
                   track_averages=False, series=(series,), record_comm=True)
               for sched, stride, c in cells]
    full = run_cells(p, configs, seeds)
    stopping, crossings = [], []
    for config, lanes in zip(configs, full):
        agg = _aggregate(lanes)
        eligible = eligible_points(agg)
        means = getattr(agg, f"mean_{series}")
        # a level some eligible seed mean meets, or one below them all
        level = data.draw(st.sampled_from(sorted(means[eligible].tolist()))
                          | st.just(means[eligible].min() - 1.0))
        stopping.append(replace(config, stop_below=level, record_comm=data.draw(st.booleans())))
        hit = np.flatnonzero(eligible & (means <= level))
        crossings.append(int(hit[0]) if len(hit) else None)
    row_bytes = len(seeds) * n * p.dim * 8
    rows = data.draw(st.integers(1, max(1, engine._SNAPSHOT_BYTES // row_bytes)))
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", rows * row_bytes):
        stopped = run_cells(p, stopping, seeds)
    for config, want, got, i in zip(stopping, full, stopped, crossings):
        if i is None:  # never crossed: the whole run
            for a, b in zip(want, got):
                assert_runs_bitwise_equal(a, b)
        else:
            t_end = int(want[0].t[i])
            # the mean iterate at the crossing ends a run whose schedule ends there
            if t_end:
                (rounds,) = np.flatnonzero(config.schedule.tau == t_end)
                cut = replace(config, schedule=Schedule(config.schedule.H[:rounds]), series=(),
                              stop_below=None)
                x_ends = [m.final_x_bar for m in run_cells(p, [cut], seeds)[0]]
            else:
                x_ends = [np.add.reduce(np.tile(config.x0, (n, 1)), axis=0) / n] * len(seeds)
            for a, b, x_end in zip(want, got, x_ends):
                assert a.seed == b.seed and len(b.t) == i + 1
                for name in (name for name in RUN_FIELDS if name != "final_x_bar"):
                    x, y = getattr(a, name)[:i + 1], getattr(b, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
                assert b.final_x_bar.tobytes() == x_end.tobytes()
                assert math.isnan(b.avg_h)
            assert _aggregate(got).t[-1] == t_end
        # the same lanes when the config runs alone
        with mock.patch.object(engine, "_SNAPSHOT_BYTES", rows * row_bytes):
            alone = run_cells(p, [config], seeds)[0]
        for a, b in zip(got, alone):
            assert_runs_bitwise_equal(a, b)


@pytest.mark.parametrize("case", ["survivor-runs-alone", "stop-at-final-pass", "two-stop-at-once"])
def test_a_stop_rebuilds_the_batch_as_each_config_runs_alone(case):
    # a stop rebuilds the batch's state from the configs left; their stepsizes
    # differ, so a lone survivor steps with its own stepsizes, one per step of
    # the chunk
    p, T, seeds = noisy_problem(), 60, [3, 8]

    def config(c, H, stop_below=None):
        return cfg(p, fixed_width_schedule(H, T), ConstantStepsize(c, p.n, T),
                   record_stride=T + 1, track_averages=False, series=("r",),
                   stop_below=stop_below)

    def level_at(config, t):  # the seed mean of r at t, so the config crosses at t or before
        agg = _aggregate(run_cells(p, [replace(config, record_comm=True)], seeds)[0])
        return float(agg.mean_r[list(agg.t).index(t)])

    survivor = config(0.8, 4)
    if case == "two-stop-at-once":  # both cross at t = 0, so the pass that finds one finds both
        configs = [config(0.3, 5, 1e9), config(0.5, 5, 1e9), survivor]
    else:
        configs = [config(0.3, 5, level_at(config(0.3, 5), 10)), survivor]
    state_bytes = len(seeds) * p.n * p.dim * 8
    # 2 rows: a pass at nearly every record point; else one pass, after step T - 1
    rows = engine._SNAPSHOT_BYTES // state_bytes if case == "stop-at-final-pass" else 2
    assert case != "stop-at-final-pass" or 2 * (T + 1) <= rows
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", rows * state_bytes):
        got = run_cells(p, configs, seeds)
    assert all(m.t[-1] <= 10 for lanes in got[:-1] for m in lanes)
    assert all(m.t[-1] == T for m in got[-1])
    for config, lanes in zip(configs, got):
        for a, b in zip(lanes, run_cells(p, [config], seeds)[0]):
            assert_runs_bitwise_equal(a, b)


def test_a_stop_drops_its_rows_from_the_next_step():
    # one chunk covers the run, and a two-row buffer makes metric passes in
    # mid-chunk: the step after the pass that finds the stop already runs
    # without the stopped config's rows, not the steps to the chunk's end
    p, T, seeds = noisy_problem(), 60, [3, 8]
    configs = [cfg(p, fixed_width_schedule(H, T), ConstantStepsize(c, p.n, T),
                   record_stride=T + 1, track_averages=False, series=("r",))
               for c, H in ((0.3, 5), (0.8, 4))]
    agg = _aggregate(run_cells(p, [replace(configs[0], record_comm=True)], seeds)[0])
    configs[0] = replace(configs[0], stop_below=float(agg.mean_r[list(agg.t).index(10)]))
    grads, first_crossing = p.stochastic_grads, engine._first_crossing
    rows, found = [], []  # the configs stepped at each step; the steps taken at each stop found

    def counted(X, noise, out=None):
        rows.append(X.size // (len(seeds) * p.n * p.dim))
        return grads(X, noise, out=out)

    def crossing(*args):
        i = first_crossing(*args)
        if i is not None:
            found.append(len(rows))
        return i

    state_bytes = len(seeds) * p.n * p.dim * 8
    with (mock.patch.object(engine, "_PLAN_STEPS", 2 * T),
          mock.patch.object(engine, "_SNAPSHOT_BYTES", 2 * state_bytes),
          mock.patch.object(p, "stochastic_grads", counted),
          mock.patch.object(engine, "_first_crossing", crossing)):
        got = run_cells(p, configs, seeds)
    [t] = found
    assert got[0][0].t[-1] < t < T and got[1][0].t[-1] == T
    assert rows == [2] * t + [1] * (T - t)


@st.composite
def chunk_cases(draw):
    family = draw(st.sampled_from(["strongly-convex-quadratic", "logistic"]))
    n, d, T = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 40))
    policies = [ConstantStepsize(0.3, n, T), ConstantStepsize(0.8, n, T),
                InverseTimeStepsize(0.5, 20.0)]
    steps = draw(st.lists(st.sampled_from(policies), min_size=3, max_size=4)
                 .filter(lambda chosen: len(set(chosen)) > 1))
    cells = []
    for step in steps:  # (schedule, record_stride, stepsize, record_comm) per config
        cuts = draw(st.lists(st.integers(1, T - 1), max_size=6, unique=True)) if T > 1 else []
        tau = [0, *sorted(cuts), T]
        cells.append((Schedule(tuple(b - a for a, b in zip(tau, tau[1:]))),
                      draw(st.integers(1, T + 1)), step, draw(st.booleans())))
    series = draw(st.sampled_from(["h", "V"] if family == "logistic" else ["r", "e", "h", "V"]))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=3, unique=True))
    # (plan constant, steps per noise block): chunks of 1, 2 and 3 one-step
    # blocks, and a constant that the k-step block does not divide
    plan, k = draw(st.sampled_from([(1, 1), (2, 1), (3, 1)]) | st.integers(2, 5).flatmap(
        lambda k: st.tuples(st.integers(k + 1, 3 * k).filter(lambda m: m % k), st.just(k))))
    rows = draw(st.sampled_from([1, 2, 1000]))  # snapshot rows per metric pass
    return family, n, d, cells, series, seeds, plan, k, rows


@settings(max_examples=80, deadline=None)
@given(chunk_cases(), st.integers(0, 50), st.data())
def test_plan_chunks_leave_lanes_bitwise_equal(case, problem_seed, data):
    # plans and step sizes rebuilt every 1, 2 or 3 steps, or every whole noise
    # block, give the lanes of one chunk over the whole run. The configs'
    # stepsizes differ, so a stop rebuilds a (steps, C', 1, 1, 1) eta: with
    # one- or two-row metric passes and one-step chunks a stop is found at a
    # chunk's last step, and with 1000 rows the final pass finds it
    family, n, d, cells, series, seeds, plan, k, rows = case
    p = _family(family, n, d, problem_seed)
    configs = [cfg(p, sched, step, record_stride=stride, track_averages=False,
                   series=(series,), record_comm=comm) for sched, stride, step, comm in cells]
    stopping = []
    for i, (config, lanes) in enumerate(zip(configs, run_cells(p, configs, seeds))):
        agg = _aggregate(lanes)
        means = getattr(agg, f"mean_{series}")[eligible_points(agg)]
        # a level some eligible seed mean meets; no stop, or one, for the others
        level = st.sampled_from(sorted(means.tolist()))
        stopping.append(replace(config, stop_below=data.draw(level if i == 0 else
                                                             st.none() | level)))
    row_bytes = len(seeds) * n * p.dim * 8
    with mock.patch.object(engine, "_SNAPSHOT_BYTES", rows * row_bytes):
        want = run_cells(p, stopping, seeds)
        with (mock.patch.object(engine, "_PLAN_STEPS", plan),
              mock.patch.object(engine, "_NOISE_BYTES", k * p.noise_block(len(seeds)).nbytes)):
            got = run_cells(p, stopping, seeds)
    for lanes_want, lanes_got in zip(want, got):
        for a, b in zip(lanes_want, lanes_got):
            assert_runs_bitwise_equal(a, b)


def traced_peak(fn):
    """fn()'s result, and the tracemalloc peak and retained bytes of the call."""
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, retained


def test_run_cells_memory_is_flat_in_the_horizon():
    # run_cells holds plans and step sizes for one chunk of steps at a time, so
    # beyond its record points and store nothing it holds grows with T. Sized
    # (C, T + 1) masks, a (T + 1)-long plan list and (T,) step sizes grew the
    # pilot's peak 0.2 -> 1.65 MB from T = 5000 to 40000, and the race's to 5.5 MB
    p = make_strongly_convex_quadratics(n=8, d=10, mu=0.1, L=1.0, delta=4.0, sigma_noise=1.0,
                                        seed=1)
    step, seeds = InverseTimeStepsize(0.1, 200.0), [1000, 1001]
    peaks = {}
    for T in (5000, 40000):  # AC4's H=1 pilot: two record points at any T
        pilot = cfg(p, fixed_width_schedule(1, T), step, record_stride=T, track_averages=False)
        lanes, peaks[T], _ = traced_peak(lambda: run_cells(p, [pilot], seeds))
    assert peaks[40000] - peaks[5000] < 0.1e6
    # AC4's race at T = 40000, stopping at 10 times the pilot's r_T. Its
    # results hold 2.2 MB (every cell records its communication instants);
    # what it holds besides them stays under 0.5 MB, where whole-horizon
    # plans and step sizes held 3.3 MB
    level = 10 * float(_aggregate(lanes[0]).mean_r[-1])
    race = [cfg(p, sched, step, record_stride=T, track_averages=False, series=("r",),
                record_comm=True, stop_below=level)
            for sched in [increasing_power_schedule(2.2, 0.13, T)] +
            [fixed_width_schedule(H, T) for H in (1, 2, 5, 10, 20, 50)]]
    got, peak, retained = traced_peak(lambda: run_cells(p, race, seeds))
    assert all(cell[0].t[-1] < T for cell in got)  # every cell stops, the last near T = 24000
    assert peak < 3e6 and peak - retained < 0.5e6


def test_stop_below_needs_one_series_and_no_running_averages():
    p = noisy_problem()
    sched, step = fixed_schedule(10, 2), ConstantStepsize(0.1, p.n, 10)
    for series, track in (((), False), (("r", "e"), False), (("r",), True)):
        with pytest.raises(ValueError, match="stop_below"):
            cfg(p, sched, step, series=series, track_averages=track, stop_below=1.0)
    cfg(p, sched, step, series=("r",), track_averages=False, stop_below=1.0)


def test_every_config_stopping_leaves_no_noise_child(monkeypatch):
    # both configs cross at t = 0; the metric pass at t = 5 finds it and the
    # loop ends there, with the noise child still drawing (no_child_process_left)
    p = noisy_problem()
    configs = [cfg(p, fixed_width_schedule(H, 400), ConstantStepsize(0.5, p.n, 400),
                   record_stride=400, track_averages=False, series=("r",), stop_below=1e9)
               for H in (5, 10)]
    grads, steps = p.stochastic_grads, []

    def counted(X, noise, out=None):
        steps.append(None)
        return grads(X, noise, out=out)

    monkeypatch.setattr(engine, "fork_pays", lambda: True)
    state_bytes = 2 * p.n * p.dim * 8
    with (one_step_noise_blocks(), mock.patch.object(engine, "_SNAPSHOT_BYTES", 2 * state_bytes),
          mock.patch.object(p, "stochastic_grads", counted),
          mock.patch.object(os, "fork", wraps=os.fork) as fork):
        lanes = run_cells(p, configs, [3, 5])
    assert fork.call_count == 1 and len(steps) == 5
    for m in (m for cell in lanes for m in cell):
        assert m.t.tolist() == [0] and m.is_comm.tolist() == [False]
        assert m.final_x_bar.tobytes() == np.zeros(p.dim).tobytes()


@st.composite
def noise_block_cases(draw):
    family = draw(st.sampled_from(["strongly-convex-quadratic", "logistic"]))
    n, d, T = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(3, 60))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True))
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        tau = [0, *sorted(draw(st.lists(st.integers(1, T - 1), max_size=6, unique=True))), T]
        cells.append(Schedule(tuple(b - a for a, b in zip(tau, tau[1:]))))
    # steps per noise block that leave a shorter last block
    k = draw(st.integers(2, T - 1).filter(lambda k: T % k))
    return family, n, d, T, seeds, cells, k


@contextlib.contextmanager
def fork_removed():
    """os.fork absent, as on a platform that has none."""
    fork = os.fork
    del os.fork
    try:
        yield
    finally:
        os.fork = fork


@settings(max_examples=60, deadline=None)
@given(noise_block_cases(), st.integers(0, 50))
def test_noise_block_size_leaves_lanes_bitwise_equal(case, problem_seed):
    # the noise drawn ahead one step at a time and k < T steps at a time, both
    # by a forked child, k at a time without os.fork, and in one block at the
    # module's own budget gives the same lanes
    family, n, d, T, seeds, cells, k = case
    p = _family(family, n, d, problem_seed)
    configs = [cfg(p, sched, ConstantStepsize(0.5, n, T), record_stride=3) for sched in cells]
    step_bytes = p.noise_block(len(seeds)).nbytes
    default = run_cells(p, configs, seeds)
    k_bytes = k * step_bytes + step_bytes // 2
    for budget, forks in ((step_bytes, True), (k_bytes, True), (k_bytes, False)):
        with (mock.patch.object(engine, "_NOISE_BYTES", budget),
              contextlib.nullcontext() if forks else fork_removed()):
            lanes = run_cells(p, configs, seeds)
        for want, got in zip(default, lanes):
            for a, b in zip(want, got):
                assert_runs_bitwise_equal(a, b)


def one_step_noise_blocks():
    """Noise drawn one step per block: the parent draws step 0, a child the rest."""
    return mock.patch.object(engine, "_NOISE_BYTES", 1)


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, instead of hanging, if the block runs past `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_noise_child_is_reaped_after_a_completed_run():
    p = noisy_problem()
    config = cfg(p, fixed_schedule(40, 8), InverseTimeStepsize(0.2, 30.0))
    with one_step_noise_blocks(), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        runs = run_batch(p, config, [3, 5])
    assert fork.call_count == 1
    assert_no_child_left()
    for m, seed in zip(runs, [3, 5]):
        assert_runs_bitwise_equal(m, run_local_sgd(p, replace(config, seed=seed)))


@pytest.mark.parametrize("family", ["strongly-convex-quadratic", "logistic"])
def test_one_cpu_draws_noise_in_process(family, monkeypatch):
    # a child would only wait for the one CPU: no fork, and the lanes of a forked run
    p = _family(family, 3, 4, 0)
    configs = [cfg(p, fixed_schedule(40, 8), ConstantStepsize(0.5, p.n, 40)),
               cfg(p, fixed_width_schedule(3, 40), InverseTimeStepsize(0.2, 30.0))]
    with one_step_noise_blocks(), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        forked = run_cells(p, configs, [3, 5])
        assert fork.call_count == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        in_process = run_cells(p, configs, [3, 5])
        assert fork.call_count == 1
    for want, got in zip(forked, in_process):
        for a, b in zip(want, got):
            assert_runs_bitwise_equal(a, b)


def test_failed_fork_draws_noise_in_process(monkeypatch):
    # os.fork raising EAGAIN leaves every block to this process, with the lanes
    # of an in-process run
    p = noisy_problem()
    config = cfg(p, fixed_schedule(40, 8), InverseTimeStepsize(0.2, 30.0))
    monkeypatch.setattr(engine, "fork_pays", lambda: False)
    with one_step_noise_blocks():
        in_process = run_batch(p, config, [3, 5])
    monkeypatch.setattr(engine, "fork_pays", lambda: True)
    eagain = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    with one_step_noise_blocks(), mock.patch.object(os, "fork", side_effect=eagain) as fork:
        runs = run_batch(p, config, [3, 5])
    assert fork.call_count == 1
    for a, b in zip(in_process, runs):
        assert_runs_bitwise_equal(a, b)


def test_noise_child_is_reaped_when_a_step_raises():
    class StepFailed(Exception):
        pass

    p = noisy_problem()
    grads, steps = p.stochastic_grads, []

    def failing_grads(X, noise, out=None):
        steps.append(None)
        if len(steps) == 10:
            raise StepFailed
        return grads(X, noise, out=out)

    config = cfg(p, fixed_schedule(40, 8), InverseTimeStepsize(0.2, 30.0))
    with (one_step_noise_blocks(), mock.patch.object(p, "stochastic_grads", failing_grads),
          pytest.raises(StepFailed)):
        run_batch(p, config, [3, 5])
    assert_no_child_left()


@pytest.mark.parametrize("family", ["strongly-convex-quadratic", "logistic"])
def test_failing_noise_child_raises_named_error(family, capfd):
    p = _family(family, 3, 4, 0)
    draw, parent, drawn = p.draw_noise, os.getpid(), []

    def failing_draw(gens, out):
        drawn.append(None)
        if os.getpid() != parent and len(drawn) == 3:  # the child's block of step 3
            raise RuntimeError("draw failed in the child")
        draw(gens, out)

    config = cfg(p, fixed_schedule(40, 8), ConstantStepsize(0.5, p.n, 40))
    with (deadline(60), one_step_noise_blocks(), mock.patch.object(p, "draw_noise", failing_draw),
          pytest.raises(NoiseDrawError, match="before step 3")):
        run_batch(p, config, [3, 5])
    assert_no_child_left()
    assert "RuntimeError: draw failed in the child" in capfd.readouterr().err


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 9))
def test_step_noise_rekey_matches_reference_generator(seed, t, dirt):
    noise = engine._StepNoise(seed)
    gen = noise.at_step(t + 1)
    gen.standard_normal(dirt)  # leave a used counter, a buffer and a held 32-bit half
    gen.integers(0, 7, size=dirt, dtype=np.int32)
    counts = np.array([1, 3, 8, 1000])
    for draw in (lambda g: g.standard_normal(5), lambda g: g.integers(0, counts),
                 lambda g: g.integers(0, 9, size=3, dtype=np.int32)):
        assert draw(noise.at_step(t)).tobytes() == draw(noise_generator(seed, t)).tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_metrics_across_one_full_snapshot_chunk(extra):
    # at the module's own buffer size: records one below, at and above a chunk
    p = noisy_problem(n=2, d=2)
    chunk = engine._SNAPSHOT_BYTES // (1 * p.n * p.dim * 8)
    T = chunk - 1 + extra  # T + 1 record points at stride 1
    config = cfg(p, fixed_width_schedule(1, T), InverseTimeStepsize(0.2, 30.0))
    runs = run_batch(p, config, [4])
    assert len(runs[0].t) == chunk + extra
    assert_series_bitwise(runs, per_record_series(p, config, [4]))


def test_diverging_metrics_equal_per_record_metrics():
    p = make_strongly_convex_quadratics(n=4, d=5, mu=0.1, L=1.0, delta=1.0,
                                        sigma_noise=1.0, seed=0)
    config = cfg(p, fixed_width_schedule(5, 600), ConstantStepsize(50.0, 4, 600))
    runs = run_batch(p, config, [0, 1, 2])
    assert all(not np.all(np.isfinite(m.r)) and not np.all(np.isfinite(m.V)) for m in runs)
    assert_series_bitwise(runs, per_record_series(p, config, [0, 1, 2]))


def fsum_mean_se(columns):
    """Per-column math.fsum mean and ddof=1 standard error, IEEE mean where fsum fails."""
    S = columns.shape[0]
    means, ses = [], []
    for col in columns.T.tolist():
        try:
            mean = math.fsum(col) / S
            se = 0.0
            if S > 1:
                with np.errstate(over="ignore"):
                    sq = [np.float64(v - mean) ** 2 for v in col]
                se = math.sqrt(math.fsum(sq) / (S - 1) / S)
        except (OverflowError, ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                mean, se = np.sum(col) / S, math.nan
        means.append(mean)
        ses.append(se)
    return np.array(means, dtype=float), np.array(ses, dtype=float)


_EXTREMES = [math.inf, -math.inf, math.nan, 1e308, -1e308, 1e200, -1e160, 5e-324, 0.0, -0.0]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_mean_se_equals_fsum_reference(S, block, data):
    # blocks of `block` columns at every seed count; up to two seeds a block's
    # columns skip the fsum loop unless they are not finite
    K = data.draw(st.integers(1, block + 8))
    values = data.draw(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_EXTREMES)),
                                min_size=S * K, max_size=S * K))
    columns = np.array(values, dtype=float).reshape(S, K)
    with mock.patch.object(engine, "_MEAN_SE_VALUES", block * S):
        mean, se = _mean_se(columns)
    want_mean, want_se = fsum_mean_se(columns)
    assert mean.tobytes() == want_mean.tobytes()
    assert se.tobytes() == want_se.tobytes()


def test_mean_se_non_finite_columns():
    columns = np.array([[1.0, math.inf, 1e308, 1e200, math.nan],
                        [2.0, -math.inf, 1e308, 0.0, 1.0],
                        [4.0, 0.0, 1e308, 0.0, 1.0]])
    mean, se = _mean_se(columns)
    assert mean[0] == 7.0 / 3 and se[0] == math.sqrt(math.fsum(
        [(v - 7.0 / 3) ** 2 for v in (1.0, 2.0, 4.0)]) / 2 / 3)
    assert math.isnan(mean[1]) and math.isnan(se[1])       # inf - inf: IEEE mean, NaN se
    assert mean[2] == math.inf and math.isnan(se[2])        # exact sum overflows
    assert mean[3] == 1e200 / 3 and se[3] == math.inf       # mean exact, squares overflow
    assert math.isnan(mean[4]) and math.isnan(se[4])
    # up to two seeds numpy sums the columns, with fsum's bits down to signed zeros
    for rows in (columns[:1], columns[1:], np.array([[-0.0, 5e-324], [-0.0, 5e-324]])):
        for got, want in zip(_mean_se(rows), fsum_mean_se(rows)):
            assert got.tobytes() == want.tobytes()


def test_mean_se_squares_round_like_pow():
    # libm pow(x, 2) can sit one ulp off x * x; the CSVs carry the pow squares
    col = [2.37, 5.65, 9.81]
    mean = math.fsum(col) / 3
    want = math.sqrt(math.fsum([(v - mean) ** 2 for v in col]) / 2 / 3)
    assert want != math.sqrt(math.fsum([(v - mean) * (v - mean) for v in col]) / 2 / 3)
    assert _mean_se(np.array([col]).T)[1][0] == want


def test_aggregate_and_metrics_csv_work_in_fixed_size_blocks(tmp_path):
    # the README bounds config's shape at 200 seeds: reducing and writing its
    # series take working memory of fixed size, not seeds x record points (a
    # whole-series stack alone is 3.2 MB), with the bits of the one-block
    # reduction and of formatting each block's columns whole
    S, K = 200, 2001
    store = np.random.default_rng(0).lognormal(0.0, 3.0, size=(len(engine._SERIES), S, K))
    store[1, 3, 10], store[2, 5, 20] = math.inf, math.nan
    t, is_comm = np.arange(K), np.arange(K) % 7 == 0
    runs = [engine.RunMetrics(seed=j, t=t, **dict(zip(engine._SERIES, store[:, j])),
                              is_comm=is_comm, final_x_bar=np.zeros(3), avg_h=math.nan,
                              series=engine._SERIES, track_averages=False)
            for j in range(S)]
    tracemalloc.start()
    try:
        agg = _aggregate(runs)
        write_metrics_csv(tmp_path / "metrics.csv", agg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    for name, values in zip(engine._SERIES, store):
        want_mean, want_se = fsum_mean_se(values)
        assert getattr(agg, f"mean_{name}").tobytes() == want_mean.tobytes()
        assert getattr(agg, f"se_{name}").tobytes() == want_se.tobytes()
    assert agg.diverged == (3,)
    # each seed's columns formatted whole, as one unchunked block
    want = "".join([",".join(["seed", "t", *engine._SERIES, "is_comm_round"]) + "\n"] +
                   [f"{j}," + ",".join(row) + "\n" for j in range(S)
                    for row in zip(*map(_cells, (t, *store[:, j], is_comm)))])
    assert (tmp_path / "metrics.csv").read_text() == want
