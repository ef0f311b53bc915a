"""Road-user behavior: arrivals, walk-speed choice, and driving strategies.

Pedestrians arrive at the crossing as a Poisson stream (or as a fixed
count for controlled experiments), pick a side, and choose a walk speed
by sampling the interaction model conditioned on the approaching
vehicle's state.  Two driving strategies are provided: a Soft-Yield
profile that commits to a single constant-deceleration phase timed so
the vehicle reaches the crossing as the pedestrian finishes, and a
human-driver baseline that periodically steers its speed toward the
conditional mode of the interaction model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from crossingsim.mixture import (
    Conditioner,
    ConditioningError,
    GaussianMixture,
    conditional_mode,
)
from crossingsim.scenario import (
    Kinematics,
    OBS_INV_RANGE,
    OBS_INV_TIME_ADVANTAGE,
    OBS_VEHICLE_SPEED,
    OBS_WALK_SPEED,
    time_advantage,
)

__all__ = [
    "ArrivalSchedule",
    "sample_arrivals",
    "fixed_count_arrivals",
    "Pedestrian",
    "WalkSpeedDecision",
    "decide_walk_speed",
    "StrategyDecision",
    "SoftYieldParams",
    "SoftYieldPlan",
    "soft_yield_decide",
    "SoftYieldStrategy",
    "HumanDriverParams",
    "HumanDriver",
    "select_governing",
]

SIDES = ("near", "far")


# ---------------------------------------------------------------------------
# Arrivals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSchedule:
    """Pedestrian arrival times (seconds, strictly ascending) and sides.

    Times are offsets from the instant the vehicle first comes within
    the trigger range of the crossing.
    """

    times: np.ndarray
    sides: tuple[str, ...]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be a 1-D array")
        if times.size and (not np.isfinite(times).all() or (times < 0).any()):
            raise ValueError("times must be finite and nonnegative")
        if times.size > 1 and not (np.diff(times) > 0).all():
            raise ValueError("times must be strictly ascending")
        if len(self.sides) != times.size:
            raise ValueError("sides and times must have equal length")
        for side in self.sides:
            if side not in SIDES:
                raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        object.__setattr__(self, "times", times)
        self.times.setflags(write=False)

    def __len__(self) -> int:
        return self.times.size


def _coin_sides(rng: np.random.Generator, count: int) -> tuple[str, ...]:
    return tuple(SIDES[int(b)] for b in rng.integers(0, 2, size=count))


def sample_arrivals(rate: float, horizon: float, seed: int) -> ArrivalSchedule:
    """Poisson arrivals on [0, horizon).

    Exponential inter-arrival gaps are accumulated until the horizon is
    passed; a fair seeded coin assigns each arrival a side.  A zero rate
    yields an empty schedule.  All gaps are drawn before any sides so
    the stream layout is part of the documented contract.
    """
    if rate < 0 or not math.isfinite(rate):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    if horizon < 0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    rng = np.random.Generator(np.random.PCG64(seed))
    times: list[float] = []
    if rate > 0:
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            times.append(t)
    return ArrivalSchedule(np.asarray(times, dtype=float), _coin_sides(rng, len(times)))


def fixed_count_arrivals(rate: float, count: int, seed: int) -> ArrivalSchedule:
    """Exactly ``count`` arrivals: the first at time 0, the rest Poisson-spaced.

    Controlled-experiment mode: every episode sees the same number of
    pedestrians, with the first stepping off the instant the vehicle
    reaches the trigger range.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > 1 and rate <= 0:
        raise ValueError("rate must be positive to space more than one arrival")
    rng = np.random.Generator(np.random.PCG64(seed))
    times = [0.0]
    for _ in range(count - 1):
        times.append(times[-1] + rng.exponential(1.0 / rate))
    times = times[:count]
    return ArrivalSchedule(np.asarray(times, dtype=float), _coin_sides(rng, count))


# ---------------------------------------------------------------------------
# Pedestrians
# ---------------------------------------------------------------------------


@dataclass
class Pedestrian:
    """A pedestrian crossing the road on a straight lateral line.

    The vehicle path sits at lateral coordinate 0, i.e. halfway across
    the crossing (this keeps near/far sides exact mirror images).
    Progress runs from 0 to crossing_length; near-side walkers move in
    +lateral direction, far-side walkers in -lateral.
    """

    arrival_time: float
    side: str
    walk_speed: float
    crossing_length: float
    progress: float = 0.0

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if not self.walk_speed > 0:
            raise ValueError("walk_speed must be positive")
        if self.crossing_length <= 0:
            raise ValueError("crossing_length must be positive")
        if not 0.0 <= self.progress <= self.crossing_length:
            raise ValueError("progress must lie in [0, crossing_length]")

    @property
    def lateral_position(self) -> float:
        """Signed offset from the vehicle path line."""
        half = 0.5 * self.crossing_length
        offset = -half + self.progress
        return offset if self.side == "near" else -offset

    @property
    def lateral_gap(self) -> float:
        """Metres still to walk before reaching the vehicle path line."""
        return max(0.5 * self.crossing_length - self.progress, 0.0)

    @property
    def finished(self) -> bool:
        return self.progress >= self.crossing_length

    def past_path(self, half_width: float) -> bool:
        """True once the pedestrian can no longer meet the vehicle body."""
        return self.progress > 0.5 * self.crossing_length + half_width

    def advance(self, dt: float) -> None:
        self.progress = min(self.progress + self.walk_speed * dt, self.crossing_length)


# ---------------------------------------------------------------------------
# Walk-speed decision
# ---------------------------------------------------------------------------


class WalkSpeedDecision(NamedTuple):
    speed: float
    used_fallback: bool


def decide_walk_speed(
    model: GaussianMixture,
    vehicle_range: float,
    vehicle_speed: float,
    seed: int,
    bounds: tuple[float, float] = (0.3, 3.0),
) -> WalkSpeedDecision:
    """Draw a walk speed from the model conditioned on the vehicle state.

    The model is first marginalized to (1/R, v, v_p): conditioning on
    the time-advantage coordinate would be circular because it already
    depends on the walk speed being chosen.  The 1-D conditional of v_p
    given (1/R, v) is sampled once with the given seed and clamped to
    ``bounds``.  A stopped vehicle conditions on range alone; if
    conditioning fails (singular observed block, or the vehicle state
    falls outside the model's support) the unconditional v_p marginal is
    used and the decision is flagged.
    """
    lo, hi = bounds
    if not 0 < lo <= hi:
        raise ValueError(f"bounds must satisfy 0 < lo <= hi, got {bounds}")
    marginal = model.marginalize([OBS_INV_RANGE, OBS_VEHICLE_SPEED, OBS_WALK_SPEED])
    conditional: GaussianMixture
    used_fallback = False
    try:
        if vehicle_range <= 0:
            raise ValueError("vehicle is at or past the crossing line")
        if vehicle_speed > 0:
            conditional = marginal.condition([0, 1], [1.0 / vehicle_range, vehicle_speed])
        else:
            conditional = marginal.condition([0], [1.0 / vehicle_range]).marginalize([1])
    except (ConditioningError, ValueError):
        conditional = marginal.marginalize([2])
        used_fallback = True
    speed = float(conditional.sample(1, seed)[0, 0])
    return WalkSpeedDecision(speed=min(max(speed, lo), hi), used_fallback=used_fallback)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyDecision:
    """Commanded acceleration plus bookkeeping for diagnostics."""

    acceleration: float
    desired_speed: Optional[float] = None
    decision_time: Optional[float] = None
    committed_acceleration: Optional[float] = None
    committed_duration: Optional[float] = None
    fallback: bool = False


def _advantage_or_inf(
    longitudinal_gap: float, vehicle_speed: float, ped: Pedestrian
) -> float:
    """Time advantage against one pedestrian; inf wherever it is undefined."""
    if longitudinal_gap <= 0 or vehicle_speed <= 0 or ped.walk_speed <= 0:
        return math.inf
    try:
        return time_advantage(
            Kinematics(
                longitudinal_gap=longitudinal_gap,
                lateral_gap=ped.lateral_gap,
                vehicle_speed=vehicle_speed,
                walk_speed=ped.walk_speed,
            )
        )
    except (ZeroDivisionError, ValueError):
        return math.inf


def select_governing(
    longitudinal_gap: float,
    vehicle_speed: float,
    pedestrians: Sequence[Pedestrian],
) -> Optional[Pedestrian]:
    """Pick the pedestrian that drives the strategy's reaction.

    Minimal time advantage wins; ties break toward the earlier arrival.
    Returns None when there is no one to react to or the vehicle is
    already at or past the crossing line.
    """
    if not pedestrians or longitudinal_gap <= 0:
        return None
    return min(
        pedestrians,
        key=lambda p: (_advantage_or_inf(longitudinal_gap, vehicle_speed, p), p.arrival_time),
    )


class SoftYieldPlan(NamedTuple):
    acceleration: float
    brake_duration: float
    full_stop: bool


@dataclass(frozen=True)
class SoftYieldParams:
    """Linear deceleration law a = intercept + per_speed * v + per_range * R."""

    accel_intercept: float = 0.0169  # m/s^2
    accel_per_speed: float = -0.13986  # 1/s
    accel_per_range: float = 0.010115  # 1/s^2


def soft_yield_decide(
    params: SoftYieldParams,
    vehicle_speed: float,
    vehicle_range: float,
    walk_speed: float,
    crossing_length: float,
) -> SoftYieldPlan:
    """Plan one brake-then-coast pass for a newly arrived pedestrian.

    The regression picks a comfortable deceleration from the current
    speed and range.  The brake duration T1 solves the requirement that
    the vehicle cover the remaining range in exactly the time the
    pedestrian needs to finish the crossing (brake for T1, then coast):

        R = v*t_c + a*T1*t_c - a*T1^2/2,   t_c = crossing_length / v_p

    giving T1 = t_c - sqrt(t_c^2 - 2*(R - v*t_c)/a).  A nonpositive T1
    means no conflict, so no braking.  If the radicand is negative the
    regression rate cannot resolve the conflict and the plan falls back
    to a constant deceleration sized to stop exactly at the crossing
    line.
    """
    if walk_speed <= 0 or crossing_length <= 0:
        raise ValueError("walk_speed and crossing_length must be positive")
    accel = (
        params.accel_intercept
        + params.accel_per_speed * vehicle_speed
        + params.accel_per_range * vehicle_range
    )
    if vehicle_speed <= 0 or vehicle_range <= 0:
        # Stopped, or already at the line: nothing to plan.
        return SoftYieldPlan(0.0, 0.0, False)
    time_to_clear = crossing_length / walk_speed
    slack = vehicle_range - vehicle_speed * time_to_clear
    if accel < 0:
        radicand = time_to_clear**2 - 2.0 * slack / accel
        if radicand >= 0:
            duration = time_to_clear - math.sqrt(radicand)
            return SoftYieldPlan(accel, max(duration, 0.0), False)
    elif slack >= 0:
        # Constant speed already clears the pedestrian; keep coasting.
        return SoftYieldPlan(accel, 0.0, False)
    stop_accel = -(vehicle_speed**2) / (2.0 * vehicle_range)
    return SoftYieldPlan(stop_accel, 2.0 * vehicle_range / vehicle_speed, True)


class SoftYieldStrategy:
    """One-shot yield profile committed at pedestrian arrival.

    The decision is taken the instant the governing pedestrian arrives,
    using the vehicle state at that instant.  It is revised only if a
    new pedestrian with a smaller time advantage arrives before the
    braking phase has elapsed; otherwise the committed profile persists
    (brake for the committed duration, then coast).
    """

    def __init__(self, params: SoftYieldParams, crossing_length: float) -> None:
        self.params = params
        self.crossing_length = crossing_length
        self.decision_taken = False
        self.decision_time = 0.0
        self.plan = SoftYieldPlan(0.0, 0.0, False)
        self._governing: Optional[Pedestrian] = None
        self._seen: set[float] = set()

    def _maybe_decide(
        self,
        clock: float,
        longitudinal_gap: float,
        vehicle_speed: float,
        pedestrians: Sequence[Pedestrian],
    ) -> bool:
        """Commit or revise the plan; True when a new plan was taken."""
        new = [p for p in pedestrians if p.arrival_time not in self._seen]
        self._seen.update(p.arrival_time for p in pedestrians)
        if not new or longitudinal_gap <= 0:
            return False
        candidate = min(
            new,
            key=lambda p: (_advantage_or_inf(longitudinal_gap, vehicle_speed, p), p.arrival_time),
        )
        if self.decision_taken:
            if clock - self.decision_time >= self.plan.brake_duration:
                return False  # braking phase over; committed profile persists
            current = (
                _advantage_or_inf(longitudinal_gap, vehicle_speed, self._governing)
                if self._governing is not None and not self._governing.finished
                else math.inf
            )
            if _advantage_or_inf(longitudinal_gap, vehicle_speed, candidate) >= current:
                return False
        self.plan = soft_yield_decide(
            self.params,
            vehicle_speed,
            longitudinal_gap,
            candidate.walk_speed,
            self.crossing_length,
        )
        self.decision_taken = True
        self.decision_time = clock
        self._governing = candidate
        return True

    def command(
        self,
        clock: float,
        longitudinal_gap: float,
        vehicle_speed: float,
        pedestrians: Sequence[Pedestrian],
    ) -> StrategyDecision:
        fresh = self._maybe_decide(clock, longitudinal_gap, vehicle_speed, pedestrians)
        accel = 0.0
        if self.decision_taken and clock - self.decision_time < self.plan.brake_duration:
            accel = self.plan.acceleration
        return StrategyDecision(
            acceleration=accel,
            decision_time=self.decision_time if self.decision_taken else None,
            committed_acceleration=self.plan.acceleration if self.decision_taken else None,
            committed_duration=self.plan.brake_duration if self.decision_taken else None,
            # Flag the fallback once, on the step the plan is committed.
            fallback=fresh and self.plan.full_stop,
        )


@dataclass(frozen=True)
class HumanDriverParams:
    """Knobs of the model-following human baseline."""

    update_interval: float = 1.0  # s between desired-speed recomputations
    max_acceleration: float = 4.0  # |a| clamp, m/s^2
    recovery_acceleration: float = 1.0  # m/s^2 back toward free flow
    free_flow_speed: float = 5.0  # m/s

    def __post_init__(self) -> None:
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if self.max_acceleration <= 0:
            raise ValueError("max_acceleration must be positive")
        if self.recovery_acceleration < 0:
            raise ValueError("recovery_acceleration must be >= 0")
        if self.free_flow_speed <= 0:
            raise ValueError("free_flow_speed must be positive")


class HumanDriver:
    """Speed control by conditional mode of the interaction model.

    Every ``update_interval`` seconds the driver recomputes the desired
    speed as the mode of v conditioned on (1/R, v_p, 1/T_Adv) for the
    governing pedestrian, and commands (desired - current) / interval
    clamped to the acceleration limit.  Between updates the last command
    holds.  With no governing pedestrian the driver recovers toward the
    free-flow speed, cutting to zero acceleration once reached (checked
    every step so recovery does not overshoot).  If the conditional is
    unavailable (stopped vehicle, zero time advantage, singular observed
    block) the driver holds its speed and flags the decision.
    """

    def __init__(self, model: GaussianMixture, params: HumanDriverParams) -> None:
        if model.dim != 4:
            raise ValueError("human driver needs the 4-D interaction model")
        self.model = model
        self.params = params
        self.update_interval = params.update_interval
        self._next_update = 0.0
        self._held = StrategyDecision(acceleration=0.0)
        self._recovering = True
        self._search = self._speed_interval(model)
        # Built once; without it every conditioning attempt falls back.
        self._conditioner: Optional[Conditioner] = None
        try:
            self._conditioner = Conditioner(
                model, [OBS_INV_RANGE, OBS_WALK_SPEED, OBS_INV_TIME_ADVANTAGE]
            )
        except ValueError:  # ConditioningError included
            pass

    @staticmethod
    def _speed_interval(model: GaussianMixture) -> tuple[float, float]:
        """Finite mode-search window covering the model's speed support."""
        means = model.means[:, OBS_VEHICLE_SPEED]
        sds = np.sqrt(model.covariances[:, OBS_VEHICLE_SPEED, OBS_VEHICLE_SPEED])
        lo = float(max(0.0, (means - 6.0 * sds).min()))
        hi = float((means + 6.0 * sds).max())
        if model.truncation is not None:
            lo = max(lo, float(model.truncation.lower[OBS_VEHICLE_SPEED]))
            hi = min(hi, float(model.truncation.upper[OBS_VEHICLE_SPEED]))
        if hi <= lo:
            hi = lo + 1.0
        return lo, hi

    def _recompute(
        self,
        longitudinal_gap: float,
        vehicle_speed: float,
        pedestrians: Sequence[Pedestrian],
    ) -> StrategyDecision:
        governing = select_governing(longitudinal_gap, vehicle_speed, pedestrians)
        if governing is None:
            self._recovering = True
            accel = (
                self.params.recovery_acceleration
                if vehicle_speed < self.params.free_flow_speed
                else 0.0
            )
            return StrategyDecision(
                acceleration=accel, desired_speed=self.params.free_flow_speed
            )
        self._recovering = False
        if self._conditioner is None:
            return StrategyDecision(acceleration=0.0, fallback=True)
        try:
            adv = time_advantage(
                Kinematics(
                    longitudinal_gap=longitudinal_gap,
                    lateral_gap=governing.lateral_gap,
                    vehicle_speed=vehicle_speed,
                    walk_speed=governing.walk_speed,
                )
            )
            if adv == 0.0:
                raise ValueError("zero time advantage")
            conditional = self._conditioner(
                [1.0 / longitudinal_gap, governing.walk_speed, 1.0 / adv]
            )
            desired = conditional_mode(conditional, self._search)
        except (ConditioningError, ValueError, ZeroDivisionError):
            return StrategyDecision(acceleration=0.0, fallback=True)
        accel = (desired - vehicle_speed) / self.params.update_interval
        limit = self.params.max_acceleration
        accel = min(max(accel, -limit), limit)
        return StrategyDecision(acceleration=accel, desired_speed=desired)

    def command(
        self,
        clock: float,
        longitudinal_gap: float,
        vehicle_speed: float,
        pedestrians: Sequence[Pedestrian],
    ) -> StrategyDecision:
        if clock + 1e-9 >= self._next_update:
            decision = self._recompute(longitudinal_gap, vehicle_speed, pedestrians)
            self._next_update += self.update_interval
            # Held copies drop the flag so a failed update is counted once.
            self._held = replace(decision, fallback=False)
            return self._trim_recovery(decision, vehicle_speed)
        decision = self._held
        return self._trim_recovery(decision, vehicle_speed)

    def _trim_recovery(
        self, decision: StrategyDecision, vehicle_speed: float
    ) -> StrategyDecision:
        """Cut recovery acceleration once free-flow speed is reached."""
        if (
            self._recovering
            and decision.acceleration > 0.0
            and vehicle_speed >= self.params.free_flow_speed
        ):
            trimmed = StrategyDecision(
                acceleration=0.0, desired_speed=self.params.free_flow_speed
            )
            self._held = trimmed
            return trimmed
        return decision
