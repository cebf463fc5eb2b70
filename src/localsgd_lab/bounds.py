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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schedules import Schedule, cubic_sum, weighted_cubic_sum


@dataclass(frozen=True)
class BoundTerms:
    """Evaluated RHS of one guarantee; total is the exact sum of terms."""

    theorem: int
    labels: tuple[str, ...]
    terms: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class BoundReport:
    theorem: int
    labels: tuple[str, ...]
    terms: tuple[float, ...]
    total: float
    measured: float
    margin: float
    holds: bool


def _check_T(schedule: Schedule, T: int):
    if schedule.T != T:
        raise ValueError(f"schedule covers T={schedule.T} but T={T} was given")


def thm1_rhs(schedule: Schedule, *, r0: float, beta: float, n: int, T: int,
             mu: float, L: float, sigma_bar_sq: float) -> BoundTerms:
    """Inverse-time bound on E||xbar_T - x*||^2."""
    _check_T(schedule, T)
    if min(r0, sigma_bar_sq) < 0 or beta <= 0 or n < 1 or mu <= 0 or L <= 0:
        raise ValueError("need r0, sigma_bar_sq >= 0, beta > 0, n >= 1, mu > 0, L > 0")
    init = (beta - 1) ** 2 * r0 / T**2
    noise = 12.0 * sigma_bar_sq / (n * mu**2 * T)
    sched = 144.0 * L * sigma_bar_sq / (mu**3 * T**2) * weighted_cubic_sum(schedule, beta)
    terms = (init, noise, sched)
    return BoundTerms(1, ("init", "noise", "schedule"), terms, math.fsum(terms))


def thm2_rhs(schedule: Schedule, *, r0: float, c: float, n: int, T: int,
             L: float, sigma_bar_sq: float) -> BoundTerms:
    """Constant-stepsize bound on the time-averaged suboptimality of xbar."""
    _check_T(schedule, T)
    if min(r0, sigma_bar_sq) < 0 or c <= 0 or n < 1 or L <= 0:
        raise ValueError("need r0, sigma_bar_sq >= 0, c > 0, n >= 1, L > 0")
    stat = (2.0 * r0 + 6.0 * c**2 * sigma_bar_sq) / (c * math.sqrt(n * T))
    sched = 24.0 * L * sigma_bar_sq * c**2 * n / T**2 * cubic_sum(schedule)
    terms = (stat, sched)
    return BoundTerms(2, ("stat", "schedule"), terms, math.fsum(terms))


def thm3_rhs(schedule: Schedule, *, e0: float, c: float, n: int, T: int,
             L: float, sigma_sq: float, G: float) -> BoundTerms:
    """Constant-stepsize bound on the time-averaged squared gradient norm."""
    _check_T(schedule, T)
    if min(e0, sigma_sq, G) < 0 or c <= 0 or n < 1 or L <= 0:
        raise ValueError("need e0, sigma_sq, G >= 0, c > 0, n >= 1, L > 0")
    stat = (8.0 * e0 + 4.0 * c**2 * sigma_sq) / (c * math.sqrt(n * T))
    sched = 48.0 * L**2 * (sigma_sq + G**2) * c**2 * n / T**2 * cubic_sum(schedule)
    terms = (stat, sched)
    return BoundTerms(3, ("stat", "schedule"), terms, math.fsum(terms))


def compare(terms: BoundTerms, measured: float) -> BoundReport:
    """Assemble the bound-vs-measurement report of a theorem whose preconditions hold."""
    margin = terms.total - measured
    return BoundReport(
        theorem=terms.theorem,
        labels=terms.labels,
        terms=terms.terms,
        total=terms.total,
        measured=measured,
        margin=margin,
        holds=bool(measured <= terms.total),
    )
