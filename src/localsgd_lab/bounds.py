"""Closed-form right-hand sides of the convergence guarantees.

Three regimes, each a sum of interpretable terms:

  inverse-time stepsize, strongly convex (distance to x* at T):
    (beta-1)^2 r_0 / T^2  +  12 sigma_bar^2 / (n mu^2 T)
      +  (144 L sigma_bar^2 / (mu^3 T^2)) * sum_i H_i^3 / (tau_{i-1} + beta)

  constant stepsize c*sqrt(n/T), convex (time-averaged suboptimality):
    (2 r_0 + 6 c^2 sigma_bar^2) / (c sqrt(nT))
      +  (24 L sigma_bar^2 c^2 n / T^2) * sum_i H_i^3

  constant stepsize, nonconvex (time-averaged squared gradient norm):
    (8 e_0 + 4 c^2 sigma^2) / (c sqrt(nT))
      +  (48 L^2 (sigma^2 + G^2) c^2 n / T^2) * sum_i H_i^3

The schedule fixes T = sum_i H_i, so no function takes T. Each evaluates to
a BoundReport whose total, margin and holds derive from its terms and, after
compare, its measured value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .schedules import Schedule, cubic_sum, weighted_cubic_sum


@dataclass(frozen=True)
class BoundReport:
    """Evaluated RHS of one guarantee and, once compared, the measured LHS."""

    theorem: int
    labels: tuple[str, ...]
    terms: tuple[float, ...]
    measured: float = math.nan

    @property
    def total(self) -> float:
        return math.fsum(self.terms)

    @property
    def margin(self) -> float:
        return self.total - self.measured

    @property
    def holds(self) -> bool:
        return bool(self.measured <= self.total)


def thm1_rhs(schedule: Schedule, *, r0: float, beta: float, n: int,
             mu: float, L: float, sigma_bar_sq: float) -> BoundReport:
    """Inverse-time bound on E||xbar_T - x*||^2."""
    if min(r0, sigma_bar_sq) < 0 or beta <= 0 or n < 1 or mu <= 0 or L <= 0:
        raise ValueError("need r0, sigma_bar_sq >= 0, beta > 0, n >= 1, mu > 0, L > 0")
    T = schedule.T
    init = (beta - 1) ** 2 * r0 / T**2
    noise = 12.0 * sigma_bar_sq / (n * mu**2 * T)
    sched = 144.0 * L * sigma_bar_sq / (mu**3 * T**2) * weighted_cubic_sum(schedule, beta)
    return BoundReport(1, ("init", "noise", "schedule"), (init, noise, sched))


def thm2_rhs(schedule: Schedule, *, r0: float, c: float, n: int,
             L: float, sigma_bar_sq: float) -> BoundReport:
    """Constant-stepsize bound on the time-averaged suboptimality of xbar."""
    if min(r0, sigma_bar_sq) < 0 or c <= 0 or n < 1 or L <= 0:
        raise ValueError("need r0, sigma_bar_sq >= 0, c > 0, n >= 1, L > 0")
    T = schedule.T
    stat = (2.0 * r0 + 6.0 * c**2 * sigma_bar_sq) / (c * math.sqrt(n * T))
    sched = 24.0 * L * sigma_bar_sq * c**2 * n / T**2 * cubic_sum(schedule)
    return BoundReport(2, ("stat", "schedule"), (stat, sched))


def thm3_rhs(schedule: Schedule, *, e0: float, c: float, n: int,
             L: float, sigma_sq: float, G: float) -> BoundReport:
    """Constant-stepsize bound on the time-averaged squared gradient norm."""
    if min(e0, sigma_sq, G) < 0 or c <= 0 or n < 1 or L <= 0:
        raise ValueError("need e0, sigma_sq, G >= 0, c > 0, n >= 1, L > 0")
    T = schedule.T
    stat = (8.0 * e0 + 4.0 * c**2 * sigma_sq) / (c * math.sqrt(n * T))
    sched = 48.0 * L**2 * (sigma_sq + G**2) * c**2 * n / T**2 * cubic_sum(schedule)
    return BoundReport(3, ("stat", "schedule"), (stat, sched))


def compare(rhs: BoundReport, measured: float) -> BoundReport:
    """The bound-vs-measurement report of a theorem whose preconditions hold."""
    return replace(rhs, measured=measured)
