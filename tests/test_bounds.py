import math

import numpy as np
import pytest

from localsgd_lab.bounds import BoundReport, compare, thm1_rhs, thm2_rhs, thm3_rhs
from localsgd_lab.schedules import Schedule, fixed_schedule


def test_thm1_worked_example():
    # mu=L=1, n=1, T=10, beta=12, unit noise and r0, all-ones schedule
    b = thm1_rhs(Schedule((1,) * 10), r0=1, beta=12, n=1, mu=1, L=1, sigma_bar_sq=1)
    assert b.terms[0] == pytest.approx(1.21)
    assert b.terms[1] == pytest.approx(1.2)
    assert b.terms[2] == pytest.approx(1.44 * sum(1 / k for k in range(12, 22)))
    assert b.terms[2] == pytest.approx(0.9007, abs=2e-4)
    # independent one-pass arithmetic: 1.21 + 1.2 + 0.90055... = 3.31055...
    assert b.total == pytest.approx(1.21 + 1.2 + 1.44 * sum(1 / k for k in range(12, 22)), rel=1e-12)
    assert b.total == pytest.approx(3.3106, abs=5e-4)
    assert b.labels == ("init", "noise", "schedule")


def test_thm2_worked_example():
    b = thm2_rhs(Schedule((1, 1, 1, 1)), r0=1, c=1, n=1, L=1, sigma_bar_sq=1)
    assert b.terms == (pytest.approx(4.0), pytest.approx(6.0))
    assert b.total == pytest.approx(10.0)


def test_thm3_worked_example():
    b = thm3_rhs(Schedule((1, 1, 1, 1)), e0=1, c=1, n=1, L=1, sigma_sq=1, G=0)
    assert b.terms == (pytest.approx(6.0), pytest.approx(12.0))
    assert b.total == pytest.approx(18.0)


def test_naive_reevaluation_matches():
    rng = np.random.default_rng(0)
    for _ in range(100):
        R = int(rng.integers(1, 20))
        H = tuple(int(h) for h in rng.integers(1, 30, size=R))
        sched = Schedule(H)
        T = sched.T
        r0 = float(rng.uniform(0, 5))
        beta = float(rng.uniform(0.5, 3000))
        n = int(rng.integers(1, 64))
        mu = float(rng.uniform(0.01, 1))
        L = mu * float(rng.uniform(1, 50))
        sig = float(rng.uniform(0, 9))
        c = float(rng.uniform(0.01, 2))
        G = float(rng.uniform(0, 4))

        tau = 0
        t3 = 0.0
        for h in H:
            t3 += h**3 / (tau + beta)
            tau += h
        naive1 = (beta - 1) ** 2 * r0 / T**2 + 12 * sig / (n * mu**2 * T) \
            + 144 * L * sig / (mu**3 * T**2) * t3
        b1 = thm1_rhs(sched, r0=r0, beta=beta, n=n, mu=mu, L=L, sigma_bar_sq=sig)
        assert b1.total == pytest.approx(naive1, rel=1e-12)
        assert b1.total == pytest.approx(math.fsum(b1.terms), rel=1e-12)

        cs = sum(h**3 for h in H)
        naive2 = (2 * r0 + 6 * c**2 * sig) / (c * math.sqrt(n * T)) \
            + 24 * L * sig * c**2 * n / T**2 * cs
        b2 = thm2_rhs(sched, r0=r0, c=c, n=n, L=L, sigma_bar_sq=sig)
        assert b2.total == pytest.approx(naive2, rel=1e-12)

        naive3 = (8 * r0 + 4 * c**2 * sig) / (c * math.sqrt(n * T)) \
            + 48 * L**2 * (sig + G**2) * c**2 * n / T**2 * cs
        b3 = thm3_rhs(sched, e0=r0, c=c, n=n, L=L, sigma_sq=sig, G=G)
        assert b3.total == pytest.approx(naive3, rel=1e-12)


def test_scale_covariance_in_noise_level():
    sched = fixed_schedule(100, 10)
    kw = dict(r0=0.0, beta=50, n=4, mu=0.5, L=1.0)
    base = thm1_rhs(sched, sigma_bar_sq=1.0, **kw)
    scaled = thm1_rhs(sched, sigma_bar_sq=4.0, **kw)
    assert scaled.terms[1] == pytest.approx(4 * base.terms[1], rel=1e-12)
    assert scaled.terms[2] == pytest.approx(4 * base.terms[2], rel=1e-12)
    assert scaled.total == pytest.approx(4 * base.total, rel=1e-12)


def test_schedule_term_monotone_in_beta():
    sched = fixed_schedule(60, 6)
    prev = math.inf
    for beta in (1, 5, 20, 100, 1000):
        b = thm1_rhs(sched, r0=1, beta=beta, n=2, mu=0.5, L=1, sigma_bar_sq=1)
        assert b.terms[2] <= prev
        prev = b.terms[2]


def test_schedule_term_grows_under_mean_preserving_spread():
    kw = dict(r0=1, c=0.5, n=2, L=1, sigma_bar_sq=1)
    even = thm2_rhs(Schedule((3, 3)), **kw)
    spread = thm2_rhs(Schedule((2, 4)), **kw)
    more = thm2_rhs(Schedule((1, 5)), **kw)
    assert even.terms[1] < spread.terms[1] < more.terms[1]
    assert even.terms[0] == spread.terms[0] == more.terms[0]


def test_parameter_validation():
    sched = fixed_schedule(10, 2)
    with pytest.raises(ValueError):
        thm1_rhs(sched, r0=-1, beta=5, n=1, mu=1, L=1, sigma_bar_sq=1)
    with pytest.raises(ValueError):
        thm2_rhs(sched, r0=1, c=0, n=1, L=1, sigma_bar_sq=1)
    with pytest.raises(ValueError):
        thm3_rhs(sched, e0=1, c=1, n=0, L=1, sigma_sq=1, G=0)


def test_compare_report():
    b = thm2_rhs(Schedule((1, 1, 1, 1)), r0=1, c=1, n=1, L=1, sigma_bar_sq=1)
    rep = compare(b, measured=2.5)
    assert isinstance(rep, BoundReport)
    assert rep.holds
    assert rep.margin == pytest.approx(7.5)
    assert rep.total == pytest.approx(math.fsum(rep.terms), rel=1e-12)

    rep = compare(b, measured=11.0)
    assert not rep.holds and rep.margin == pytest.approx(-1.0)
