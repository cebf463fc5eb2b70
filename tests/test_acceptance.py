"""Acceptance suite: one test per shipped guarantee.

Each test prints a single `AC<k> PASS/FAIL: ...` line (visible under
`pytest -s`, or in the captured output on failure) and then asserts.
The heavyweight Monte-Carlo budgets live here, not in the unit tests.
"""

import json
import math
import time

import numpy as np
from test_engine import assert_series_bitwise, per_record_series

from localsgd_lab import cli
from localsgd_lab.engine import (
    ConstantStepsize,
    InverseTimeStepsize,
    RunConfig,
    run_batch,
    run_local_sgd,
    run_many,
)
from localsgd_lab.harness import (
    ExperimentSpec,
    RRule,
    StrategyCell,
    run_bounds_experiment,
    run_rounds_to_target,
    run_speedup_experiment,
)
from localsgd_lab.objectives import (
    make_convex_quadratics,
    make_logistic_family,
    make_nonconvex_family,
    make_strongly_convex_quadratics,
    problem_from_spec,
)
from localsgd_lab.schedules import (
    beta_for_increasing,
    check_thm1_condition,
    decreasing_power_schedule,
    fixed_schedule,
    fixed_width_schedule,
    increasing_power_schedule,
)

BENCH = {"family": "strongly-convex-quadratic", "n": 8, "d": 10, "mu": 0.1,
         "L": 1.0, "delta": 1.0, "sigma_noise": 1.0, "seed": 1}


def _verdict(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _fd_grad(f, x, h=1e-6):
    """Central differences of f at x (..., dim); f gives one value per leading
    index, so f = values differentiates every agent at its own row of x."""
    g = np.empty_like(x)
    for k in range(x.shape[-1]):
        step = h * np.maximum(1.0, np.abs(x[..., k]))
        up, dn = x.copy(), x.copy()
        up[..., k] += step
        dn[..., k] -= step
        g[..., k] = (f(up) - f(dn)) / (2 * step)
    return g


def test_ac1_strongly_convex_bound_holds():
    t0 = time.time()
    spec = ExperimentSpec(
        kind="bounds", problem=BENCH, seeds=range(200),
        stepsize_policy="inverse-time", beta="auto", theorem=1,
        schedule_spec={"strategy": "increasing-power", "a": 1.0, "s": 0.5,
                       "T": 2000},
        record_stride=2000,
    )
    rep, _ = run_bounds_experiment(problem_from_spec(BENCH), spec)
    ok = rep.holds
    _verdict("AC1", ok,
             f"seed-mean r_T {rep.measured:.4g} <= bound {rep.total:.4g} "
             f"(margin {rep.margin:.3g}, 200 seeds, {time.time() - t0:.0f}s)")


def test_ac2_linear_speedup_slope():
    t0 = time.time()
    a, s, T = 1.0, 0.2, 4000
    beta = max(beta_for_increasing(a, s, 0.1, 1.0), 20.0 * 1.0 / 0.1)
    assert check_thm1_condition(increasing_power_schedule(a, s, T),
                                0.1, 1.0, beta).all_pass
    spec = ExperimentSpec(
        kind="speedup", problem={**BENCH, "sigma_noise": 5.0},
        seeds=range(200), stepsize_policy="inverse-time", beta=beta,
        cells=(StrategyCell(label="inc", kind="increasing-power", a=a, s=s),),
        n_list=(1, 2, 4, 8, 16), T=T,
    )
    rows, _ = run_speedup_experiment(spec)
    ns = np.array([row.n for row in rows], dtype=float)
    errs = np.array([row.mean_error for row in rows])
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    ok = -1.3 <= slope <= -0.6
    _verdict("AC2", ok,
             f"log-log slope of final error vs n is {slope:.3f}, "
             f"required [-1.3, -0.6] (200 seeds/n, {time.time() - t0:.0f}s)")


def test_ac3_speedup_needs_enough_rounds():
    t0 = time.time()
    pspec = {"family": "nonconvex", "n": 1, "d": 10,
             "Q_diag": np.linspace(0.25, 1.0, 10).tolist(), "delta": 1.5,
             "eps_sin": 0.1, "sigma_noise": 1.0, "seed": 1}
    spec = ExperimentSpec(
        kind="speedup", problem=pspec, seeds=range(100),
        stepsize_policy="constant", c=3.0,
        cells=(
            StrategyCell(label="A", kind="fixed",
                         r_rule=RRule(0.2, 0.75, 0.75)),
            StrategyCell(label="B", kind="fixed",
                         r_rule=RRule(0.2, 0.75, 0.5)),
        ),
        n_list=(1, 4, 16), T=4000,
    )
    rows, _ = run_speedup_experiment(spec)
    sp = {(row.label, row.n): row.speedup for row in rows}
    full, starved = sp[("A", 16)], sp[("B", 16)]
    ok = full >= 0.6 * math.sqrt(16) and starved < full
    _verdict("AC3", ok,
             f"n=16 speedup {full:.2f} >= 2.4 with R ~ T^0.75 n^0.75, and "
             f"{starved:.2f} < {full:.2f} when rounds scale only as n^0.5 "
             f"(100 seeds, {time.time() - t0:.0f}s)")


def test_ac4_increasing_schedule_not_dominated():
    t0 = time.time()
    pspec = {**BENCH, "delta": 4.0}
    prob = problem_from_spec(pspec)
    seeds = range(100)
    t_max, beta = 10000, 200.0
    # target = 10x the densest-communication noise level, estimated from an
    # H=1 pilot at the same horizon, stepsize, and seeds
    pilot = run_many(prob, RunConfig(
        n=8, schedule=fixed_width_schedule(1, t_max),
        stepsize=InverseTimeStepsize(0.1, beta), x0=np.zeros(10), seed=0,
        record_stride=t_max, track_averages=False, series=("r",)), seeds)
    threshold = 10.0 * float(pilot.mean_r[-1])
    cells = [StrategyCell(label="increasing", kind="increasing-power",
                          a=2.2, s=0.13)]
    cells += [StrategyCell(label=f"fixed{H}", kind="fixed-width", H=H)
              for H in (1, 2, 5, 10, 20, 50)]
    rows = run_rounds_to_target(prob, ExperimentSpec(
        kind="rounds-to-target", problem=pspec, seeds=seeds,
        stepsize_policy="inverse-time", beta=beta, cells=tuple(cells),
        t_max=t_max, threshold=threshold, measure="r"))
    inc = rows[0]
    dominators = [r.label for r in rows[1:]
                  if r.reached and r.R_used < inc.R_used and r.T_used < inc.T_used]
    frontier = ", ".join(f"{r.label}=({r.R_used},{r.T_used})"
                         f"{'' if r.reached else ' unreached'}" for r in rows[1:])
    ok = inc.reached and not dominators
    _verdict("AC4", ok,
             f"increasing (R={inc.R_used}, T={inc.T_used}) vs fixed grid "
             f"[{frontier}]; dominated by {dominators or 'none'} "
             f"(threshold {threshold:.3g}, 100 seeds, {time.time() - t0:.0f}s)")


def test_ac5_beta_formula_certifies_every_round():
    t0 = time.time()
    failures = []
    for a in (1.0, 10.0):
        for s in (0.2, 0.5, 1.0, 2.0):
            sched = increasing_power_schedule(a, s, 10**5)
            for mu, L in ((0.001, 1.0), (0.1, 1.0), (1.0, 10.0)):
                beta = beta_for_increasing(a, s, mu, L)
                if not check_thm1_condition(sched, mu, L, beta).all_pass:
                    failures.append((a, s, mu, L))
    ok = not failures
    _verdict("AC5", ok,
             f"24/24 (a, s, mu, L) combinations pass every round up to T=1e5"
             f"{'' if ok else ': failing ' + repr(failures)} "
             f"({time.time() - t0:.2f}s)")


def test_ac6_reset_and_decomposition_identity():
    t0 = time.time()
    rng = np.random.default_rng(20260815)
    worst_reset, worst_ident = 0.0, 0.0
    for idx in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(3, 9))
        fam = idx % 4
        if fam == 0:
            mu = float(rng.uniform(0.05, 0.3))
            prob = make_strongly_convex_quadratics(
                n=n, d=d, mu=mu, L=float(rng.uniform(0.8, 2.0)),
                delta=float(rng.uniform(0.0, 2.0)),
                sigma_noise=float(rng.uniform(0.0, 1.5)), seed=idx)
        elif fam == 1:
            prob = make_convex_quadratics(
                n=n, d=d, L=float(rng.uniform(0.8, 2.0)), eps_pd=0.05,
                delta=float(rng.uniform(0.0, 2.0)),
                sigma_noise=float(rng.uniform(0.0, 1.5)), seed=idx)
        elif fam == 2:
            prob = make_nonconvex_family(
                n=n, d=d, Q_diag=rng.uniform(0.2, 1.4, size=d),
                delta=float(rng.uniform(0.0, 2.0)),
                eps_sin=float(rng.uniform(0.05, 0.3)),
                sigma_noise=float(rng.uniform(0.0, 1.0)), seed=idx)
        else:
            prob = make_logistic_family(
                n=n, d=d, K=4, m=24, shards_per_agent=2,
                lam=float(rng.uniform(0.05, 0.2)), seed=idx)
        T = int(rng.integers(60, 160))
        kind = idx % 3
        if kind == 0:
            sched = fixed_schedule(T, int(rng.integers(2, 9)))
        elif kind == 1:
            sched = increasing_power_schedule(float(rng.uniform(0.5, 3.0)),
                                              float(rng.uniform(0.2, 1.0)), T)
        else:
            sched = decreasing_power_schedule(float(rng.uniform(0.5, 2.0)),
                                              int(rng.integers(2, 9)), T)
        if fam == 0:
            step = InverseTimeStepsize(mu, 20.0 * prob.constants().L / mu)
        else:
            step = ConstantStepsize(float(rng.uniform(0.3, 1.0)), n, T)
        config = RunConfig(
            n=n, schedule=sched, stepsize=step,
            x0=rng.standard_normal(prob.dim) * 0.5,
            seed=int(rng.integers(0, 2**31)), record_stride=1)
        m = run_local_sgd(prob, config)
        # the identity's two sides come from the reference simulation, whose
        # V and r the engine's run matches bitwise
        ref = per_record_series(prob, config, [config.seed])
        assert_series_bitwise([m], ref)
        dist_sq, V, ref_sq = ref["dist_sq"][0], ref["V"][0], ref["ref_sq"][0]
        comm = m.is_comm.astype(bool)
        assert comm.any()
        scale = np.maximum(dist_sq[comm], 1e-30)
        worst_reset = max(worst_reset, float(np.max(V[comm] / scale)))
        ident = np.abs(dist_sq - (V + ref_sq))
        worst_ident = max(worst_ident, float(
            np.max(ident / np.maximum(dist_sq, 1e-12))))
    ok = worst_reset <= 1e-12 and worst_ident <= 1e-9
    _verdict("AC6", ok,
             f"20 random configs: consensus error at averaging instants "
             f"<= {worst_reset:.2g} (tol 1e-12 rel), decomposition identity "
             f"off by <= {worst_ident:.2g} rel (tol 1e-9) "
             f"({time.time() - t0:.1f}s)")


def test_ac7_oracle_unbiasedness_and_gradients():
    t0 = time.time()
    problems = {
        "strongly-convex-quadratic": make_strongly_convex_quadratics(
            n=4, d=6, mu=0.1, L=1.0, delta=1.0, sigma_noise=0.8, seed=7),
        "convex-quadratic": make_convex_quadratics(
            n=4, d=6, L=1.5, eps_pd=0.05, delta=0.8, sigma_noise=0.6, seed=7),
        "nonconvex": make_nonconvex_family(
            n=4, d=6, Q_diag=np.linspace(0.3, 1.1, 6), delta=1.0, eps_sin=0.2,
            sigma_noise=0.7, seed=7),
        "logistic": make_logistic_family(
            n=3, d=4, K=4, m=30, shards_per_agent=2, lam=0.1, seed=7),
    }
    rng = np.random.default_rng(77)
    N, S = 10**5, 1000  # N draws per agent: N / S engine-shaped calls through S generators
    detail = []
    ok = True
    for k, (family, p) in enumerate(problems.items()):
        x = rng.standard_normal(p.dim) * 0.5
        X = np.broadcast_to(x, (S, p.n, p.dim))
        exact = p.grads(X[0])
        gens = [np.random.default_rng([77, k, s]) for s in range(S)]
        acc = np.zeros((p.n, p.dim))
        second = np.zeros(p.n)
        noise = p.noise_block(S)
        for _ in range(N // S):
            p.draw_noise(gens, noise)
            err = p.stochastic_grads(X, noise) - exact
            acc += err.sum(axis=0)
            second += np.sum(err**2, axis=(0, 2))
        dev = np.linalg.norm(acc / N, axis=1)
        # Gaussian families: E||g - exact||^2 = sigma_noise^2 by construction;
        # the logistic family's per-draw second moment comes from the sample
        sigma = getattr(p, "sigma_noise", None) or np.sqrt(second / N)
        tol = 4.0 * sigma / math.sqrt(N)
        ok &= bool(np.all(dev <= tol))
        detail.append(f"{family} dev <= {np.max(dev / tol):.2f} tol")
        X = rng.standard_normal((p.n, p.dim)) * 0.5  # a point of its own per agent
        G = p.grads(X)
        fd = _fd_grad(p.values, X)
        ok &= bool(np.all(np.linalg.norm(fd - G, axis=1) / (1 + np.linalg.norm(G, axis=1)) < 1e-6))
        g = p.global_grad(x)
        fd = _fd_grad(p.global_value, x)
        ok &= np.linalg.norm(fd - g) / (1 + np.linalg.norm(g)) < 1e-6
    _verdict("AC7", ok,
             f"1e5-draw means of stochastic_grads within 4 sigma on every agent and "
             f"finite differences within 1e-6 rel on all families ({'; '.join(detail)}) "
             f"({time.time() - t0:.0f}s)")


def test_ac8_dissimilarity_identity_pointwise():
    t0 = time.time()
    p = make_nonconvex_family(n=6, d=8, Q_diag=np.linspace(0.2, 1.3, 8),
                              delta=1.2, eps_sin=0.3, sigma_noise=0.4, seed=3)
    G_sq = p.constants().G ** 2
    rng = np.random.default_rng(8)
    N = 10**4
    xs = rng.standard_normal((N, p.dim)) * rng.uniform(0.1, 5.0, size=(N, 1))
    grads = p.grads(np.repeat(xs[:, None], p.n, axis=1))
    lhs = np.mean(np.sum(grads**2, axis=2), axis=1)
    gsq = np.sum(p._global_grad(xs) ** 2, axis=1)
    worst = float(np.max(np.abs(lhs - gsq - G_sq) / (1 + gsq)))
    ok = worst <= 1e-9
    _verdict("AC8", ok,
             f"1e4 points: |mean ||grad_i||^2 - ||grad||^2 - G^2| <= "
             f"{worst:.2g} * (1 + ||grad||^2), tol 1e-9 "
             f"({time.time() - t0:.0f}s)")


def test_ac9_per_step_recursions_within_monte_carlo_slack():
    t0 = time.time()
    prob = problem_from_spec(BENCH)
    consts = prob.constants()
    mu, L, sbsq, n = consts.mu, consts.L, consts.sigma_bar_sq, prob.n
    T = 300
    sched = increasing_power_schedule(1.0, 0.5, T)
    beta = max(beta_for_increasing(1.0, 0.5, mu, L), 20.0 * L / mu)
    step = InverseTimeStepsize(mu, beta)
    runs = run_batch(prob, RunConfig(n=n, schedule=sched, stepsize=step,
                                     x0=np.zeros(10), seed=0, record_stride=1),
                     range(2000))
    r = np.stack([m.r for m in runs])
    e = np.stack([m.e for m in runs])
    V = np.stack([m.V for m in runs])
    eta = np.array([step.at(j) for j in range(T)])
    nseeds = r.shape[0]

    ok = True
    details = []
    # one-step descent recursion: paired per-seed statistic, 3 SE slack
    for t in np.unique(np.linspace(2, T - 2, 10).astype(int)):
        D = (r[:, t + 1] - (1 - mu * eta[t]) * r[:, t]
             + eta[t] * e[:, t] - 2 * L * eta[t] * V[:, t])
        slack = 3 * sbsq * eta[t] ** 2 / n \
            + 3 * float(D.std(ddof=1)) / math.sqrt(nseeds)
        ok &= float(D.mean()) <= slack
        details.append(float(D.mean()) - slack)
    # consensus-error bound inside rounds, same slack convention
    wide = [k for k in range(sched.R) if sched.H[k] >= 2]
    for k in np.unique(np.linspace(0, len(wide) - 1, 10).astype(int)):
        kk = wide[k]
        t = sched.tau[kk] + sched.H[kk] // 2
        w = np.arange(sched.tau[kk], t)
        S = sched.H[kk] * (12 * L * (e[:, w] @ (eta[w] ** 2))
                           + 6 * sbsq * float(np.sum(eta[w] ** 2)))
        D2 = V[:, t] - S
        slack = 3 * float(D2.std(ddof=1)) / math.sqrt(nseeds)
        ok &= float(D2.mean()) <= slack
        details.append(float(D2.mean()) - slack)
    _verdict("AC9", ok,
             f"descent and consensus recursions hold at 10 sampled steps each "
             f"with 3-standard-error slack over 2000 seeds (worst margin "
             f"{max(details):.3g}, {time.time() - t0:.0f}s)")


def test_ac10_determinism_across_seed_partitions(tmp_path, partition_seeds):
    t0 = time.time()
    cfg = {
        "experiment": {"kind": "bounds", "theorem": 1, "record_stride": 100},
        "problem": BENCH,
        "schedule": {"strategy": "increasing-power", "a": 1.0, "s": 0.5,
                     "T": 2000},
        "stepsize": {"policy": "inverse-time", "beta": "auto"},
        "seeds": {"count": 200},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs, batches = [], []
    for chunk, out in ((None, "whole"), (64, "chunks"), (1, "single")):
        sizes = partition_seeds(chunk) if chunk else []
        assert cli.main(["run", str(path), "--out", str(tmp_path / out)]) == 0
        blobs.append((tmp_path / out / "metrics.csv").read_bytes())
        batches.append(len(sizes) or 1)
    ok = (blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
          and batches == [1, 4, 200])
    _verdict("AC10", ok,
             f"metrics.csv byte-identical with the 200 seeds simulated in "
             f"batches of 200, 64 and 1 ({len(blobs[0])} bytes, "
             f"{time.time() - t0:.0f}s)")
