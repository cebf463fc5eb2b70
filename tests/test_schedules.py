import itertools
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsgd_lab.cli import CONFIG_SCHEMA, _cell_from_config, _schedule_report, build_parser
from localsgd_lab.schedules import (
    DEFAULTS,
    STRATEGIES,
    CapConditionReport,
    Schedule,
    beta_for_increasing,
    check_thm1_condition,
    check_thm2_condition,
    check_thm3_condition,
    cubic_sum,
    decreasing_power_schedule,
    fixed_schedule,
    fixed_width_schedule,
    increasing_power_schedule,
    schedule_from_spec,
    weighted_cubic_sum,
)


def test_schedule_invariants():
    s = Schedule((3, 1, 2))
    assert s.T == 6
    assert s.R == 3
    assert s.tau.dtype == np.int64 and not s.tau.flags.writeable
    assert s.tau.tolist() == [0, 3, 4, 6]


def test_schedule_rejects_bad_rounds():
    with pytest.raises(ValueError):
        Schedule((3, 0, 2))
    with pytest.raises(ValueError):
        Schedule((1.5, 2))
    with pytest.raises(ValueError, match="past the int64 range"):
        Schedule((2**62, 2**62))


def _reference_checks(H, mu, L, beta):
    """check_thm1_condition's caps and results and weighted_cubic_sum, computed
    round by round from a tuple of Python-int boundaries."""
    tau = tuple(itertools.accumulate(H, initial=0))
    caps = tuple(mu * (beta + tau[i]) / (12 * L) for i in range(len(H)))
    per_round = tuple(h <= cap for h, cap in zip(H, caps))
    weighted = math.fsum(h**3 / (tau[i] + beta) for i, h in enumerate(H))
    return caps, per_round, weighted


def _positive():
    return st.floats(1e-3, 1e3) | st.integers(1, 1000)


@settings(max_examples=200, deadline=None)
@given(narrow=st.lists(st.integers(1, 400), max_size=60), wide=st.integers(2**21 + 1, 2**31),
       at=st.integers(0, 60), mu=_positive(), L=_positive(), beta=_positive())
def test_tau_array_keeps_every_value_of_the_tuple_it_replaced(narrow, wide, at, mu, L, beta):
    # one round is wider than 2**21, so its cube is past the int64 range
    H = tuple(narrow[:at] + [wide] + narrow[at:])
    assert wide**3 > np.iinfo(np.int64).max
    s = Schedule(H)
    assert s.tau.dtype == np.int64 and not s.tau.flags.writeable
    assert s.tau.tolist() == list(itertools.accumulate(H, initial=0))
    with pytest.raises(ValueError):
        s.tau[0] = 1
    assert type(s.T) is int and s.T == sum(H)
    assert s == Schedule(list(H)) and hash(s) == hash(Schedule(H)) and repr(s) == f"Schedule(H={H!r})"

    caps, per_round, weighted = _reference_checks(H, mu, L, beta)
    cond = check_thm1_condition(s, mu, L, beta)
    assert all(type(c) is float for c in cond.caps)
    assert [c.hex() for c in cond.caps] == [c.hex() for c in caps]
    assert all(type(ok) is bool for ok in cond.per_round)
    assert cond.per_round == per_round and cond.all_pass is all(per_round)
    got = weighted_cubic_sum(s, beta)
    assert type(got) is float and got.hex() == weighted.hex()


def test_empty_schedule_is_refused_at_both_entry_points():
    for build in (lambda: Schedule(()),
                  lambda: schedule_from_spec({"strategy": "explicit", "H": []})):
        with pytest.raises(ValueError, match="at least one round"):
            build()


def test_fixed_schedule_worked_example():
    assert fixed_schedule(10, 3).H == (4, 3, 3)


def test_fixed_schedule_exact_split():
    assert fixed_schedule(12, 4).H == (3, 3, 3, 3)
    assert fixed_schedule(5, 5).H == (1, 1, 1, 1, 1)


def test_fixed_schedule_rejects_R_above_T():
    with pytest.raises(ValueError):
        fixed_schedule(3, 4)


def test_fixed_width_schedule():
    assert fixed_width_schedule(10, 25).H == (10, 10, 5)
    assert fixed_width_schedule(5, 20).H == (5, 5, 5, 5)


def test_increasing_power_worked_examples():
    assert increasing_power_schedule(1, 1, 10).H == (1, 2, 3, 4)
    assert increasing_power_schedule(10, 0.2, 30).H == (10, 11, 9)


def test_increasing_power_floor_of_one():
    # a * i**s < 1 early on still yields full unit rounds
    assert increasing_power_schedule(0.1, 1, 6).H == (1, 1, 1, 1, 1, 1)


def test_increasing_power_sums_to_T():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(0.2, 12))
        s = float(rng.uniform(0, 2.5))
        T = int(rng.integers(1, 400))
        sched = increasing_power_schedule(a, s, T)
        assert sched.T == T
        assert all(h >= 1 for h in sched.H)


def test_decreasing_power_worked_examples():
    assert decreasing_power_schedule(0, 5, 10).H == (2, 2, 2, 2, 2)
    assert decreasing_power_schedule(1, 3, 12).H == (6, 4, 2)
    assert decreasing_power_schedule(2, 2, 5).H == (4, 1)


def test_decreasing_power_ties_toward_lower_index():
    # weights (2,1) with T=4: ideal (8/3, 4/3), floors (2,1), one left over,
    # fracs (2/3, 1/3) -> goes to index 0
    assert decreasing_power_schedule(1, 2, 4).H == (3, 1)
    # equal weights, odd leftover -> lower index wins
    assert decreasing_power_schedule(0, 2, 5).H == (3, 2)


def test_decreasing_power_invariants():
    rng = np.random.default_rng(1)
    for _ in range(200):
        R = int(rng.integers(1, 30))
        T = int(rng.integers(R, 400))
        p = float(rng.uniform(0, 3))
        sched = decreasing_power_schedule(p, R, T)
        assert sched.T == T
        assert sched.R == R
        assert all(h >= 1 for h in sched.H)
        # non-increasing up to the +-1 wobble of remainder apportionment
        assert all(sched.H[i] + 1 >= sched.H[i + 1] for i in range(R - 1))


def test_beta_for_increasing_worked_examples():
    assert beta_for_increasing(1, 1, 24, 1) == pytest.approx(1.5)
    assert beta_for_increasing(10, 0.2, 0.001, 1) == pytest.approx(9.0193e5, rel=1e-3)


def test_beta_certifies_its_own_schedule():
    # the certified offset admits H_i = floor(a i**s) at every round
    for a, s in [(1, 1), (10, 0.2), (2, 0.5)]:
        mu, L = 0.1, 1.0
        beta = beta_for_increasing(a, s, mu, L)
        sched = increasing_power_schedule(a, s, 5000)
        assert check_thm1_condition(sched, mu, L, beta).all_pass


def test_check_thm1_condition():
    rep = check_thm1_condition(Schedule((1,) * 10), mu=1, L=1, beta=12)
    assert rep.all_pass
    assert rep.per_round == (True,) * 10
    assert rep.caps[0] == pytest.approx(1.0)

    rep = check_thm1_condition(Schedule((2,)), mu=1, L=1, beta=12)
    assert not rep.all_pass
    assert rep.per_round == (False,)


def test_check_thm1_truncation_keeps_admissibility():
    # truncating the last round only shrinks it, so admissibility survives
    a, s, mu, L = 3, 0.7, 0.05, 1.0
    beta = beta_for_increasing(a, s, mu, L)
    for T in [50, 137, 1000, 4321]:
        sched = increasing_power_schedule(a, s, T)
        assert check_thm1_condition(sched, mu, L, beta).all_pass


def test_check_thm2_condition_worked_example():
    sched = fixed_schedule(4900, 980)  # H_i = 5
    rep = check_thm2_condition(sched, L=1, c=1, n=4)
    assert rep.cap == pytest.approx(5.0)
    assert rep.ok
    rep = check_thm2_condition(fixed_schedule(4900, 900), L=1, c=1, n=4)
    assert not rep.ok


def test_check_thm3_condition_scales_with_B():
    sched = fixed_schedule(4900, 980)
    rep = check_thm3_condition(sched, L=1, B=2, c=1, n=4)
    assert isinstance(rep, CapConditionReport)
    assert rep.cap == pytest.approx(2.5)
    assert not rep.ok
    assert check_thm3_condition(sched, L=1, B=1, c=1, n=4).ok


def test_cubic_sum_worked_example():
    assert cubic_sum(Schedule((1, 2, 3, 4))) == pytest.approx(100.0)


def test_weighted_cubic_sum_worked_examples():
    assert weighted_cubic_sum(Schedule((1, 1, 1)), beta=1) == pytest.approx(11 / 6)
    assert weighted_cubic_sum(Schedule((2, 3)), beta=4) == pytest.approx(6.5)


def test_weighted_cubic_sum_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        weighted_cubic_sum(Schedule((1,)), beta=0)


def test_fixed_schedule_locally_minimizes_cubic_sum():
    # moving one step between any pair of rounds never lowers sum H^3
    rng = np.random.default_rng(2)
    for _ in range(50):
        R = int(rng.integers(2, 12))
        T = int(rng.integers(R, 200))
        sched = fixed_schedule(T, R)
        base = cubic_sum(sched)
        H = list(sched.H)
        for i in range(R):
            for j in range(R):
                if i == j or H[j] <= 1:
                    continue
                trial = H.copy()
                trial[i] += 1
                trial[j] -= 1
                assert cubic_sum(Schedule(tuple(trial))) >= base - 1e-9


def test_schedule_from_spec_round_trips():
    assert schedule_from_spec({"strategy": "fixed", "T": 10, "R": 3}).H == (4, 3, 3)
    assert schedule_from_spec({"strategy": "increasing-power", "a": 1, "s": 1, "T": 10}).H == (1, 2, 3, 4)
    assert schedule_from_spec({"strategy": "decreasing-power", "p": 1, "R": 3, "T": 12}).H == (6, 4, 2)
    assert schedule_from_spec({"strategy": "explicit", "H": [2, 2]}).H == (2, 2)


def test_schedule_from_spec_rejects_mismatched_T():
    with pytest.raises(ValueError, match="sum"):
        schedule_from_spec({"strategy": "explicit", "H": [2, 2], "T": 5})
    with pytest.raises(ValueError, match="strategy"):
        schedule_from_spec({"strategy": "banana"})


# each alias and the strategy it must build, as the README documents them
ALIAS_TARGETS = {"increasing": "increasing-power", "decreasing": "decreasing-power",
                 "decreasing-rounds": "decreasing-power"}


@st.composite
def schedule_params(draw, name):
    """Valid parameters for strategy `name`, plus the ones it ignores; p may be absent."""
    T = draw(st.integers(1, 400))
    params = {"T": T, "R": draw(st.integers(1, T)), "a": draw(st.floats(0.05, 10.0)),
              "s": draw(st.floats(0.0, 2.0)), "p": draw(st.none() | st.floats(0.0, 4.0)),
              "H": draw(st.integers(1, 50))}
    if STRATEGIES[name] is STRATEGIES["explicit"]:
        params["H"] = draw(st.lists(st.integers(1, 30), min_size=1, max_size=30))
        params["T"] = draw(st.sampled_from([None, sum(params["H"])]))
    return params


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(STRATEGIES)))
def test_every_strategy_fills_T_with_rounds_of_at_least_one(data, name):
    params = data.draw(schedule_params(name))
    sched = schedule_from_spec({"strategy": name, **params})
    assert min(sched.H) >= 1
    assert sched.T == (sum(params["H"]) if params["T"] is None else params["T"])
    assert schedule_from_spec({"strategy": ALIAS_TARGETS.get(name, name), **params}) == sched
    if params["p"] is None:
        assert schedule_from_spec({"strategy": name, **params, "p": DEFAULTS["p"]}) == sched


@settings(max_examples=300, deadline=None)
@given(data=st.data(), T=st.integers(1, 300))
def test_fixed_schedule_has_the_least_cubic_sum_of_every_R_round_schedule(data, T):
    # the paper's converse claim at the bound level: sum H^3, the schedule cost
    # of the constant-stepsize bounds, is least at equal widths among all the
    # R-round schedules of T (the power-mean inequality, with integer widths)
    R = data.draw(st.integers(1, T), label="R")
    cuts = sorted(data.draw(st.permutations(range(1, T)), label="order")[:R - 1])
    other = schedule_from_spec({"strategy": "explicit",
                                "H": [b - a for a, b in zip([0, *cuts], [*cuts, T])]})
    assert (other.R, other.T) == (R, T)
    assert cubic_sum(fixed_schedule(T, R)) <= cubic_sum(other)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(STRATEGIES)))
def test_block_cell_and_cli_build_the_same_schedule(data, name):
    params = {k: v for k, v in data.draw(schedule_params(name)).items() if v is not None}
    block = {"strategy": name, **params}
    jsonschema.validate(block, CONFIG_SCHEMA["properties"]["schedule"])
    cell = {"label": "c", "kind": name, **params}
    cell.pop("T", None)
    jsonschema.validate(cell, CONFIG_SCHEMA["properties"]["experiment"]["properties"]["cells"]["items"])
    argv = ["schedule", name]
    for key, value in params.items():
        argv += [f"--{key}", *map(repr, value if isinstance(value, list) else [value])]

    sched = schedule_from_spec(block)
    assert _cell_from_config(cell).build(1, sched.T)[0] == sched
    assert _schedule_report(build_parser().parse_args(argv))[0] == f"H = {list(sched.H)}"


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.01, 20.0), s=st.floats(0.0, 3.0), mu=st.floats(1e-3, 1.0),
       kappa=st.floats(1.0, 1e3), T=st.integers(1, 20000))
def test_beta_for_increasing_certifies_every_round(a, s, mu, kappa, T):
    L = mu * kappa
    beta = beta_for_increasing(a, s, mu, L)
    assert check_thm1_condition(increasing_power_schedule(a, s, T), mu, L, beta).all_pass
