"""Communication schedules for local SGD.

A schedule splits the horizon T into R rounds of local work: H_i is the number
of local steps in round i and tau_i = H_1 + ... + H_i is the step index at
which the i-th averaging happens. STRATEGIES names the constructors (fixed
count, fixed width, increasing and decreasing power law, explicit) for every
surface that builds a schedule. The module also holds the per-round
admissibility checks that the convergence guarantees need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """Immutable round-length sequence with precomputed boundaries tau.

    H stays a tuple of Python ints, so a schedule's equality, hash and repr, and
    every printed width, are those of its widths. tau = (0, H_1, H_1 + H_2, ...,
    T) is one read-only int64 array, 8 bytes a boundary where a tuple would
    hold a Python int of about 36 bytes, and a fixed-width schedule has up to T
    rounds. T is a Python int.
    """

    H: tuple[int, ...]
    tau: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        H = tuple(map(int, self.H))
        if not H:
            raise ValueError("a schedule needs at least one round, got no round lengths H")
        if H != tuple(self.H) or min(H) < 1:  # name the first bad width
            i, h = next((i, h) for i, h in enumerate(self.H) if int(h) != h or int(h) < 1)
            raise ValueError(f"H[{i}] = {h!r}: round lengths must be integers >= 1")
        if (T := sum(H)) > np.iinfo(np.int64).max:
            raise ValueError(f"round lengths sum to T = {T}, past the int64 range of a step index")
        object.__setattr__(self, "H", H)
        tau = np.zeros(len(H) + 1, dtype=np.int64)
        np.cumsum(H, out=tau[1:])
        tau.flags.writeable = False
        object.__setattr__(self, "tau", tau)

    @property
    def T(self) -> int:
        return int(self.tau[-1])

    @property
    def R(self) -> int:
        return len(self.H)


def fixed_schedule(T: int, R: int) -> Schedule:
    """R rounds as equal as possible; the first T mod R rounds get the extra step."""
    if R < 1 or T < R:
        raise ValueError(f"need 1 <= R <= T, got R={R}, T={T}")
    q, r = divmod(T, R)
    return Schedule(tuple([q + 1] * r + [q] * (R - r)))


def fixed_width_schedule(H: int, T: int) -> Schedule:
    """Rounds of width H until T is exhausted; the last round is truncated."""
    if H < 1 or T < 1:
        raise ValueError(f"need H >= 1 and T >= 1, got H={H}, T={T}")
    q, r = divmod(T, H)
    return Schedule(tuple([H] * q + ([r] if r else [])))


def increasing_power_schedule(a: float, s: float, T: int) -> Schedule:
    """H_i = max(1, floor(a * i**s)) for i = 1, 2, ... until the sum reaches T.

    The last round is truncated so the lengths sum to exactly T, and dropped
    if truncation leaves it empty.
    """
    if a <= 0 or s < 0 or T < 1:
        raise ValueError(f"need a > 0, s >= 0, T >= 1, got a={a}, s={s}, T={T}")
    H: list[int] = []
    total = 0
    i = 0
    while total < T:
        i += 1
        h = max(1, math.floor(a * i**s))
        H.append(h)
        total += h
    if total > T:
        H[-1] -= total - T
        if H[-1] == 0:
            H.pop()
    return Schedule(tuple(H))


def decreasing_power_schedule(p: float, R: int, T: int) -> Schedule:
    """R rounds with lengths proportional to (R - i + 1)**p, by largest remainder.

    Apportions T steps to weights w_i = (R-i+1)**p: floor the ideal shares,
    hand the leftover steps to the largest fractional parts (ties toward the
    lower index), then repair any zero-length rounds by taking steps from the
    largest rounds.
    """
    if p < 0 or R < 1 or T < R:
        raise ValueError(f"need p >= 0 and 1 <= R <= T, got p={p}, R={R}, T={T}")
    w = [(R - i) ** p for i in range(R)]
    wsum = math.fsum(w)
    ideal = [T * wi / wsum for wi in w]
    H = [math.floor(x) for x in ideal]
    left = T - sum(H)
    by_frac = sorted(range(R), key=lambda i: (-(ideal[i] - H[i]), i))
    for i in by_frac[:left]:
        H[i] += 1
    while min(H) < 1:
        H[H.index(max(H))] -= 1
        H[H.index(min(H))] += 1
    return Schedule(tuple(H))


def beta_for_increasing(a: float, s: float, mu: float, L: float) -> float:
    """Stepsize offset certified to admit increasing_power_schedule(a, s, T) at every round.

    beta = max(a, 1) * ceil(24 L / mu)**s * (12 L / mu) + 1. Below a = 1, where
    the schedule lifts floor(a * i**s) to 1, the formula is taken at a = 1: no
    round is then wider than its a = 1 width.
    """
    if a <= 0 or s < 0 or mu <= 0 or L <= 0:
        raise ValueError(f"need a > 0, s >= 0, mu > 0, L > 0, got a={a}, s={s}, mu={mu}, L={L}")
    return max(a, 1) * math.ceil(24 * L / mu) ** s * (12 * L / mu) + 1


@dataclass(frozen=True)
class RoundConditionReport:
    """Per-round result of the inverse-time admissibility check."""

    per_round: tuple[bool, ...]
    caps: tuple[float, ...]
    all_pass: bool


@dataclass(frozen=True)
class CapConditionReport:
    """Result of a flat cap check: every H_i must sit at or below `cap`."""

    cap: float
    max_H: int
    ok: bool


def check_thm1_condition(schedule: Schedule, mu: float, L: float, beta: float) -> RoundConditionReport:
    """Round i passes iff H_i <= mu * (beta + tau_{i-1}) / (12 L)."""
    if not (mu > 0 and L > 0 and beta > 0):
        raise ValueError(f"need mu > 0, L > 0 and beta > 0, got mu={mu}, L={L}, beta={beta}")
    caps = tuple((mu * (beta + schedule.tau[:-1]) / (12 * L)).tolist())
    per_round = tuple(h <= cap for h, cap in zip(schedule.H, caps))  # exact for any int width
    return RoundConditionReport(per_round, caps, all(per_round))


def check_thm2_condition(schedule: Schedule, L: float, c: float, n: int) -> CapConditionReport:
    """Every round must satisfy H_i <= sqrt(T) / (7 L c sqrt(n))."""
    return check_thm3_condition(schedule, L, 1.0, c, n)  # the thm3 cap at B = 1, same bits


def check_thm3_condition(schedule: Schedule, L: float, B: float, c: float, n: int) -> CapConditionReport:
    """Every round must satisfy H_i <= sqrt(T) / (7 L B c sqrt(n))."""
    if not (L > 0 and B > 0 and c > 0 and n >= 1):
        raise ValueError(f"need L, B, c > 0 and n >= 1, got L={L}, B={B}, c={c}, n={n}")
    cap = math.sqrt(schedule.T) / (7 * L * B * c * math.sqrt(n))
    max_H = max(schedule.H)
    return CapConditionReport(cap, max_H, max_H <= cap)


def cubic_sum(schedule: Schedule) -> float:
    """sum_i H_i**3, the schedule cost entering the constant-stepsize bounds."""
    return math.fsum(h**3 for h in schedule.H)


def weighted_cubic_sum(schedule: Schedule, beta: float) -> float:
    """sum_i H_i**3 / (tau_{i-1} + beta), the cost entering the inverse-time bound."""
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta}")
    # Python ints, so a cube wider than int64 stays exact until its one division
    return math.fsum(h**3 / (t + beta) for h, t in zip(schedule.H, schedule.tau.tolist()))


def _explicit(H) -> Schedule:
    """The round widths H as given: a list of them, or one bare width."""
    return Schedule(tuple(H) if isinstance(H, (list, tuple)) else (H,))


def _fixed_width(H, T: int) -> Schedule:
    widths = _explicit(H).H
    if len(widths) != 1:
        raise ValueError(f"fixed-width takes one width H, got {list(widths)}")
    return fixed_width_schedule(widths[0], T)


def _increasing_rounds(p: float, R: int, T: int) -> Schedule:
    return Schedule(tuple(reversed(decreasing_power_schedule(p, R, T).H)))


# every accepted strategy name -> (constructor, the parameters it takes by
# keyword); a parameter in DEFAULTS may be left out, and an alias shares the
# entry of the name it stands for
STRATEGIES = {
    "fixed": (fixed_schedule, ("T", "R")),
    "fixed-width": (_fixed_width, ("H", "T")),
    "increasing-power": (increasing_power_schedule, ("a", "s", "T")),
    "increasing-rounds": (_increasing_rounds, ("p", "R", "T")),
    "decreasing-power": (decreasing_power_schedule, ("p", "R", "T")),
    "explicit": (_explicit, ("H",)),
}
ALIASES = {"increasing": "increasing-power", "decreasing": "decreasing-power",
           "decreasing-rounds": "decreasing-power"}
STRATEGIES.update({alias: STRATEGIES[name] for alias, name in ALIASES.items()})
DEFAULTS = {"p": 2.0}


def schedule_from_spec(spec: dict) -> Schedule:
    """The schedule of spec["strategy"] from the rest of spec, the one way to build one.

    A config block, a cell's fields or the CLI's arguments pass whole: keys
    the strategy does not take are ignored and a None value counts as absent.
    A given T must equal the sum of the widths, whatever the strategy.
    """
    name = spec.get("strategy")
    if name not in STRATEGIES:
        raise ValueError(f"unknown schedule strategy {name!r}")
    build, keys = STRATEGIES[name]
    params = {key: DEFAULTS.get(key) if spec.get(key) is None else spec[key] for key in keys}
    for key, value in params.items():
        if value is None:
            raise ValueError(f"schedule strategy {name!r} needs {key}")
    sched = build(**params)
    T = spec.get("T")
    if T is not None and sched.T != T:
        raise ValueError(f"{name} H sums to {sched.T}, violating sum(H) == T with T={T}")
    return sched
