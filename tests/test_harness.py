"""Harness tests: experiment specs, schedule cells, and the four protocols."""

import math

import numpy as np
import pytest

from localsgd_lab import harness
from localsgd_lab.bounds import thm1_rhs
from localsgd_lab.engine import InverseTimeStepsize, RunConfig, run_many
from localsgd_lab.harness import (
    DivergenceError,
    ExperimentSpec,
    PreconditionError,
    RRule,
    StrategyCell,
    TradeoffRow,
    noise_floor,
    run_bounds_experiment,
    run_rounds_to_target,
    run_speedup_experiment,
    run_strategy_compare,
)
from localsgd_lab.objectives import DiagonalQuadraticProblem, problem_from_spec
from localsgd_lab.schedules import Schedule, beta_for_increasing

SC_SPEC = dict(family="strongly-convex-quadratic", n=4, d=6, mu=0.5, L=2.0,
               delta=1.0, sigma_noise=1.0, seed=7)


def sc_problem(**overrides):
    return problem_from_spec({**SC_SPEC, **overrides})


def test_r_rule_values():
    assert RRule(0.2, 0.75, 0.75).rounds(16, 4000) == (804, False)
    assert RRule(1.0, 0.5, 0.0).rounds(1, 100) == (10, False)
    # raw 0 clamps up, raw > T clamps down, both flagged
    assert RRule(0.001, 0.5, 0.0).rounds(1, 100) == (1, True)
    assert RRule(50.0, 1.0, 0.0).rounds(1, 100) == (100, True)


def test_r_rule_clamp_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rule = RRule(float(rng.uniform(0.001, 3.0)), float(rng.uniform(0, 1)),
                     float(rng.uniform(0, 1)))
        n = int(rng.integers(1, 64))
        T = int(rng.integers(1, 5000))
        R, clamped = rule.rounds(n, T)
        raw = math.floor(rule.coef * T**rule.T_exp * n**rule.n_exp)
        assert 1 <= R <= T
        assert clamped == (raw < 1 or raw > T)
        if not clamped:
            assert R == raw


def test_cell_builds():
    assert StrategyCell(label="a", kind="fixed", R=4).build(1, 10)[0].H == (3, 3, 2, 2)
    assert StrategyCell(label="b", kind="fixed-width", H=4).build(1, 10)[0].H == (4, 4, 2)
    assert StrategyCell(label="c", kind="increasing-power", a=1.0, s=1.0).build(1, 10)[0].H == (1, 2, 3, 4)
    dec = StrategyCell(label="d", kind="decreasing-rounds", R=3, p=1.0).build(1, 12)[0]
    assert dec.H == (6, 4, 2)
    inc = StrategyCell(label="e", kind="increasing-rounds", R=3, p=1.0).build(1, 12)[0]
    assert inc.H == (2, 4, 6)
    exp = StrategyCell(label="f", kind="explicit", H=(2, 8)).build(1, 10)[0]
    assert exp.H == (2, 8)


def test_cell_validation():
    with pytest.raises(ValueError):
        StrategyCell(label="bad label!", kind="fixed", R=1)
    with pytest.raises(ValueError):
        StrategyCell(label="", kind="fixed", R=1)
    with pytest.raises(ValueError):
        StrategyCell(label="x", kind="fixed-width").build(1, 10)
    with pytest.raises(ValueError):
        StrategyCell(label="x", kind="increasing-power", a=1.0).build(1, 10)
    with pytest.raises(ValueError):
        StrategyCell(label="x", kind="explicit", H=(2, 3)).build(1, 10)
    with pytest.raises(ValueError):
        StrategyCell(label="x", kind="fixed", R=20).build(1, 10)
    with pytest.raises(ValueError):
        StrategyCell(label="x", kind="nope", R=2).build(1, 10)
    with pytest.raises(ValueError):
        StrategyCell(label="x", kind="fixed").build(1, 10)


def test_experiment_spec_validation():
    ok = dict(kind="speedup", problem={}, seeds=(0, 1))
    ExperimentSpec(**ok)
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "kind": "bogus"})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "seeds": ()})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "seeds": (3, 3)})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "n_list": (4, 2)})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "n_list": (2, 2, 4)})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "threshold": 0.0})
    with pytest.raises(ValueError, match="not both"):
        ExperimentSpec(**{**ok, "threshold": 1.0, "threshold_auto_factor": 10.0})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "measure": "q"})


def test_bounds_thm1_noiseless_homogeneous():
    """With delta=0 and no gradient noise only the init term survives, and the
    deterministic run must sit under it."""
    prob = sc_problem(delta=0.0, sigma_noise=0.0)
    spec = ExperimentSpec(
        kind="bounds", problem={}, seeds=(0,), theorem=1,
        stepsize_policy="inverse-time", beta=80.0,
        schedule_spec=dict(strategy="fixed", T=200, R=200),
    )
    rep, agg = run_bounds_experiment(prob, spec)
    r0 = float(np.sum(prob.constants().x_star ** 2))
    # x* is solved in floats, so sigma_bar_sq is ~1e-34 rather than exactly 0
    assert rep.terms[1] < 1e-30 and rep.terms[2] < 1e-30
    assert rep.total == pytest.approx(79.0**2 * r0 / 200**2, rel=1e-9)
    assert rep.holds
    assert rep.measured == agg.mean_r[-1]


def test_bounds_thm1_auto_beta():
    prob = sc_problem()
    spec = ExperimentSpec(
        kind="bounds", problem={}, seeds=(0, 1, 2, 3), theorem=1,
        stepsize_policy="inverse-time", beta="auto",
        schedule_spec=dict(strategy="increasing-power", a=1.0, s=0.5, T=300),
    )
    rep, _ = run_bounds_experiment(prob, spec)
    assert rep.holds
    # the certificate beta for (mu, L) = (0.5, 2) clears the 20L/mu guard
    assert beta_for_increasing(1.0, 0.5, 0.5, 2.0) > 20 * 2.0 / 0.5
    with pytest.raises(ValueError):
        bad = ExperimentSpec(kind="bounds", problem={}, seeds=(0,), theorem=1,
                             stepsize_policy="inverse-time", beta="auto",
                             schedule_spec=dict(strategy="fixed", T=100, R=10))
        run_bounds_experiment(prob, bad)


def test_bounds_thm1_refuses_low_beta():
    prob = sc_problem()
    spec = ExperimentSpec(kind="bounds", problem={}, seeds=(0,), theorem=1,
                          stepsize_policy="inverse-time", beta=10.0,
                          schedule_spec=dict(strategy="fixed", T=100, R=10))
    with pytest.raises(PreconditionError, match=r"^check_thm1_condition: "):
        run_bounds_experiment(prob, spec)


def test_bounds_thm1_refuses_wide_round():
    # beta=90 passes the guard but H=30 >> mu*(beta+0)/(12L) = 1.875
    prob = sc_problem()
    spec = ExperimentSpec(kind="bounds", problem={}, seeds=(0,), theorem=1,
                          stepsize_policy="inverse-time", beta=90.0,
                          schedule_spec=dict(strategy="fixed", T=90, R=3))
    with pytest.raises(PreconditionError, match=r"^check_thm1_condition: "):
        run_bounds_experiment(prob, spec)


def test_bounds_thm2_measured_matches_manual_average():
    prob = sc_problem()
    T, R, c = 120, 20, 0.05
    spec = ExperimentSpec(kind="bounds", problem={}, seeds=(0, 1, 2), theorem=2,
                          c=c, schedule_spec=dict(strategy="fixed", T=T, R=R))
    rep, agg = run_bounds_experiment(prob, spec)
    assert rep.holds
    manual = math.fsum(agg.mean_e[:-1].tolist()) / T
    assert rep.measured == manual
    assert len(agg.t) == T + 1  # stride forced to 1


def test_bounds_thm2_refuses_wide_round():
    prob = sc_problem()
    # cap = sqrt(100)/(7*2*0.5*2) = 0.714 < H
    spec = ExperimentSpec(kind="bounds", problem={}, seeds=(0,), theorem=2,
                          c=0.5, schedule_spec=dict(strategy="fixed", T=100, R=10))
    with pytest.raises(PreconditionError, match=r"^check_thm2_condition: "):
        run_bounds_experiment(prob, spec)


def test_bounds_thm3_nonconvex_holds():
    npspec = dict(family="nonconvex", n=4, d=6, Q_diag=[2.0, 1.5, 1.0, 0.8, 0.5, 0.3],
                  delta=1.0, eps_sin=0.1, sigma_noise=0.5, seed=3)
    prob = problem_from_spec(npspec)
    spec = ExperimentSpec(kind="bounds", problem=npspec, seeds=tuple(range(6)), theorem=3,
                          c=0.02, schedule_spec=dict(strategy="fixed", T=300, R=30))
    rep, agg = run_bounds_experiment(prob, spec)
    assert rep.holds
    assert rep.measured == math.fsum(agg.mean_h[:-1].tolist()) / 300
    # e0 upper bound: f(0) minus a certified lower bound on f
    e0_used = prob.global_value(np.zeros(prob.dim)) - prob.value_lower_bound()
    assert rep.terms[0] == pytest.approx(
        (8 * e0_used + 4 * 0.02**2 * prob.constants().sigma_sq)
        / (0.02 * math.sqrt(4 * 300)), rel=1e-12)


def test_bounds_thm3_refusal_names_condition():
    npspec = dict(family="nonconvex", n=4, d=4, Q_diag=[2.0, 1.0, 0.5, 0.25],
                  delta=1.0, eps_sin=0.1, sigma_noise=0.5, seed=3)
    prob = problem_from_spec(npspec)
    spec = ExperimentSpec(kind="bounds", problem=npspec, seeds=(0,), theorem=3,
                          c=0.5, schedule_spec=dict(strategy="fixed", T=100, R=5))
    with pytest.raises(PreconditionError, match=r"^check_thm3_condition: "):
        run_bounds_experiment(prob, spec)


def test_bounds_rejects_bad_theorem_and_sweep():
    prob = sc_problem()
    with pytest.raises(ValueError):
        run_bounds_experiment(prob, ExperimentSpec(
            kind="bounds", problem={}, seeds=(0,), theorem=4,
            schedule_spec=dict(strategy="fixed", T=10, R=2)))
    with pytest.raises(ValueError):
        run_bounds_experiment(prob, ExperimentSpec(
            kind="bounds", problem={}, seeds=(0,), theorem=2, c=(0.1, 0.2),
            schedule_spec=dict(strategy="fixed", T=100, R=100)))


def test_noise_floor_value():
    consts = sc_problem().constants()
    want = 12 * consts.sigma_bar_sq / (4 * 0.5**2 * 1000)
    assert noise_floor(consts, 4, 1000) == pytest.approx(want, rel=1e-12)


def test_rounds_to_target_immediate_and_unreached():
    prob = sc_problem()
    r0 = float(np.sum(prob.constants().x_star ** 2))
    cells = (StrategyCell(label="w", kind="fixed-width", H=5),)
    base = dict(kind="rounds-to-target", problem={}, seeds=(0, 1), cells=cells,
                stepsize_policy="inverse-time", beta=80.0, t_max=100, measure="r")
    rows = run_rounds_to_target(prob, ExperimentSpec(**base, threshold=2 * r0))
    assert rows[0] == rows[0].__class__("w", 0, 0, True, 2 * r0)
    rows = run_rounds_to_target(prob, ExperimentSpec(**base, threshold=1e-30))
    assert not rows[0].reached
    assert rows[0].R_used == 20 and rows[0].T_used == 100


def test_rounds_to_target_unit_width_matches_iterations():
    """H=1 communicates every step, so rounds used equals iterations used."""
    prob = sc_problem()
    rows = run_rounds_to_target(prob, ExperimentSpec(
        kind="rounds-to-target", problem={}, seeds=tuple(range(8)),
        cells=(StrategyCell(label="unit", kind="fixed-width", H=1),),
        stepsize_policy="inverse-time", beta=80.0, t_max=400,
        threshold_auto_factor=10.0, measure="r"))
    assert rows[0].reached
    assert rows[0].R_used == rows[0].T_used > 0


def test_rounds_to_target_monotone_in_threshold():
    prob = sc_problem()
    cells = (StrategyCell(label="w", kind="fixed-width", H=4),
             StrategyCell(label="i", kind="increasing-power", a=1.0, s=0.4))
    base = dict(kind="rounds-to-target", problem={}, seeds=tuple(range(6)),
                cells=cells, stepsize_policy="inverse-time", beta=80.0,
                t_max=600, measure="r")
    prev = None
    for thr in (3.0, 0.3, 0.03):
        rows = run_rounds_to_target(prob, ExperimentSpec(**base, threshold=thr))
        if prev is not None:
            for a, b in zip(prev, rows):
                assert a.R_used <= b.R_used and a.T_used <= b.T_used
        prev = rows


def test_rounds_to_target_crossings_only_at_comm_instants():
    prob = sc_problem()
    rows = run_rounds_to_target(prob, ExperimentSpec(
        kind="rounds-to-target", problem={}, seeds=tuple(range(4)),
        cells=(StrategyCell(label="w", kind="fixed-width", H=7),),
        stepsize_policy="inverse-time", beta=80.0, t_max=350,
        threshold=0.5, measure="r"))
    row = rows[0]
    assert row.reached and row.T_used % 7 == 0
    assert row.R_used == row.T_used // 7


def cross_then_diverge_problem():
    """n = 1, f = (1/2)((x_1 - 1)^2 + 4 (x_2 - 1e-3)^2), no noise: at eta = 0.95
    x_1 converges and x_2 oscillates outward by a factor 2.8 a step, so r dips
    to 6.8e-5 at t = 2 and overflows before t = 400."""
    return DiagonalQuadraticProblem(np.array([[1.0, 4.0]]), np.array([[1.0, 1e-3]]), 0.0,
                                    mu=1.0, L=4.0)


def test_rounds_to_target_judges_divergence_only_up_to_the_crossing():
    # eta = c sqrt(n / t_max) = 0.95; the cell crosses 1e-3 at t = 2, then diverges
    base = dict(kind="rounds-to-target", problem={}, seeds=(0,), c=19.0, t_max=400,
                measure="r", cells=(StrategyCell(label="unit", kind="fixed-width", H=1),))
    rows = run_rounds_to_target(cross_then_diverge_problem(), ExperimentSpec(**base,
                                                                             threshold=1e-3))
    assert rows == [TradeoffRow("unit", 2, 2, True, 1e-3)]
    # a cell that never crosses runs to t_max, where it has diverged
    with pytest.raises(DivergenceError, match=r"cell unit: seeds \[0\] diverged \(r overflowed\)"):
        run_rounds_to_target(cross_then_diverge_problem(), ExperimentSpec(**base,
                                                                          threshold=1e-30))


def test_rounds_to_target_validation():
    prob = sc_problem()
    cells = (StrategyCell(label="w", kind="fixed-width", H=5),)
    base = dict(kind="rounds-to-target", problem={}, seeds=(0,), cells=cells,
                stepsize_policy="inverse-time", beta=80.0, t_max=50)
    with pytest.raises(ValueError):  # no threshold at all
        run_rounds_to_target(prob, ExperimentSpec(**base))
    with pytest.raises(ValueError):  # auto floor only defined for measure r
        run_rounds_to_target(prob, ExperimentSpec(**base, measure="e",
                                                  threshold_auto_factor=10.0))
    with pytest.raises(ValueError):  # beta must be numeric here
        run_rounds_to_target(prob, ExperimentSpec(
            kind="rounds-to-target", problem={}, seeds=(0,), cells=cells,
            stepsize_policy="inverse-time", beta="auto", t_max=50, threshold=1.0))
    with pytest.raises(ValueError):  # no cells
        run_rounds_to_target(prob, ExperimentSpec(
            kind="rounds-to-target", problem={}, seeds=(0,),
            stepsize_policy="inverse-time", beta=80.0, t_max=50, threshold=1.0))


def test_speedup_baseline_is_exactly_one():
    spec = ExperimentSpec(
        kind="speedup", problem=SC_SPEC, seeds=tuple(range(6)),
        stepsize_policy="constant", c=0.5, n_list=(1, 2, 4), T=300,
        cells=(StrategyCell(label="f", kind="fixed", r_rule=RRule(1.0, 0.5, 0.5)),))
    rows, _ = run_speedup_experiment(spec)
    assert [r.n for r in rows] == [1, 2, 4]
    assert rows[0].speedup == 1.0 and rows[0].se_speedup == 0.0
    assert all(r.label == "f" and r.strategy == "fixed" for r in rows)
    assert all(r.mean_error > 0 for r in rows)


def test_speedup_error_decreases_with_n():
    """In the noise-dominated regime more agents means lower final error."""
    spec = ExperimentSpec(
        kind="speedup", problem={**SC_SPEC, "sigma_noise": 3.0, "delta": 0.3},
        seeds=tuple(range(10)), stepsize_policy="constant", c=1.0,
        n_list=(1, 4, 16), T=800,
        cells=(StrategyCell(label="f", kind="fixed", r_rule=RRule(1.0, 0.5, 0.5)),))
    rows, _ = run_speedup_experiment(spec)
    errs = [r.mean_error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert rows[2].speedup > rows[1].speedup > 1.0


def test_speedup_propagates_stderr():
    spec = ExperimentSpec(
        kind="speedup", problem=SC_SPEC, seeds=tuple(range(5)),
        stepsize_policy="constant", c=0.5, n_list=(1, 2), T=100,
        cells=(StrategyCell(label="f", kind="fixed", R=10),))
    rows, _ = run_speedup_experiment(spec)
    b, m = rows[0], rows[1]
    want = m.speedup * math.sqrt((b.stderr / b.mean_error) ** 2
                                 + (m.stderr / m.mean_error) ** 2)
    assert m.se_speedup == pytest.approx(want, rel=1e-12)


def test_speedup_clamp_flag_and_missing_baseline():
    spec = ExperimentSpec(
        kind="speedup", problem=SC_SPEC, seeds=(0, 1),
        stepsize_policy="constant", c=0.5, n_list=(1, 2), T=50,
        cells=(StrategyCell(label="f", kind="fixed", r_rule=RRule(100.0, 1.0, 0.0)),))
    rows, _ = run_speedup_experiment(spec)
    assert all(r.clamped and r.R == 50 for r in rows)
    with pytest.raises(ValueError):
        run_speedup_experiment(ExperimentSpec(
            kind="speedup", problem=SC_SPEC, seeds=(0,), c=0.5,
            n_list=(2, 4), T=50,
            cells=(StrategyCell(label="f", kind="fixed", R=5),)))


def test_speedup_c_sweep_picks_lowest_error():
    spec = ExperimentSpec(
        kind="speedup", problem=SC_SPEC, seeds=tuple(range(4)),
        stepsize_policy="constant", c=(0.01, 0.3), n_list=(1, 2), T=200,
        cells=(StrategyCell(label="f", kind="fixed", R=20),))
    rows, notes = run_speedup_experiment(spec)
    note = notes["sweeps"]["f"]
    errs = dict(zip(note["swept_c"], note["sweep_errors"]))
    assert note["chosen_c"] == min(errs, key=lambda c: (errs[c], c))
    assert len(rows) == 2


def test_sweep_ranks_diverged_c_last_and_runs_raise_on_divergence():
    spec = ExperimentSpec(
        kind="speedup", problem=SC_SPEC, seeds=tuple(range(3)),
        stepsize_policy="constant", c=(500.0, 0.3), n_list=(1, 2), T=200,
        cells=(StrategyCell(label="f", kind="fixed", R=20),))
    _, notes = run_speedup_experiment(spec)
    note = notes["sweeps"]["f"]
    assert note["chosen_c"] == 0.3
    assert dict(zip(note["swept_c"], note["sweep_errors"]))[500.0] is None
    with pytest.raises(DivergenceError, match=r"cell f: seeds \[0, 1, 2\] diverged"):
        run_strategy_compare(sc_problem(), ExperimentSpec(
            kind="strategy-compare", problem={}, seeds=(0, 1, 2), c=500.0, T=200,
            cells=(StrategyCell(label="f", kind="fixed", R=20),)))


@pytest.mark.parametrize("problem", [SC_SPEC, dict(
    family="nonconvex", n=1, d=4, Q_diag=[1.0, 0.5, 0.2, 0.1], delta=1.0, eps_sin=0.2,
    sigma_noise=1.0, seed=7)])
def test_speedup_batches_record_only_t0_and_T(problem, monkeypatch):
    # speedup and its c-sweep read r_T or the running average of h, so a cell with
    # many rounds records t = 0 and T alone, and divergence is judged on those
    T, aggregated, aggregate = 200, [], harness._aggregate

    def spy(runs):
        agg = aggregate(runs)
        aggregated.append(agg.t.tolist())
        return agg

    monkeypatch.setattr(harness, "_aggregate", spy)
    run_speedup_experiment(ExperimentSpec(
        kind="speedup", problem=problem, seeds=(0, 1), stepsize_policy="constant",
        c=(0.1, 0.3), n_list=(1, 2), T=T, cells=(StrategyCell(label="f", kind="fixed", R=20),)))
    assert len(aggregated) == 4 and all(t == [0, T] for t in aggregated)


def test_strategy_compare_shares_stepsize_and_seeds():
    prob = sc_problem()
    spec = ExperimentSpec(
        kind="strategy-compare", problem={}, seeds=(0, 1, 2),
        stepsize_policy="inverse-time", beta=80.0, T=120, record_stride=30,
        cells=(StrategyCell(label="A", kind="fixed", R=12),
               StrategyCell(label="B", kind="increasing-power", a=1.0, s=0.5)))
    out = run_strategy_compare(prob, spec)
    assert set(out) == {"A", "B"}
    for agg in out.values():
        assert agg.n_seeds == 3 and agg.t[0] == 0 and agg.t[-1] == 120
    # unit-width baseline run through the engine directly agrees with a cell
    direct = run_many(prob, RunConfig(
        n=prob.n, schedule=StrategyCell(label="A", kind="fixed", R=12).build(prob.n, 120)[0],
        stepsize=InverseTimeStepsize(0.5, 80.0),
        x0=np.zeros(prob.dim), seed=0, record_stride=30, record_comm=True), (0, 1, 2))
    assert np.array_equal(out["A"].mean_r, direct.mean_r)
