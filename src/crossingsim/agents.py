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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from crossingsim import checks
from crossingsim.mixture import GaussianMixture
from crossingsim.scenario import (
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
    "ModeQuery",
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
    return tuple([SIDES[b] for b in rng.integers(0, 2, size=count).tolist()])


def sample_arrivals(rate: float, horizon: float, seed: int) -> ArrivalSchedule:
    """Poisson arrivals on [0, horizon).

    Exponential inter-arrival gaps are accumulated until the horizon is
    passed; a fair seeded coin assigns each arrival a side.  A zero rate
    yields an empty schedule.  All gaps are drawn before any sides so
    the stream layout is part of the documented contract.
    """
    rate = checks.real("rate", rate, low=0)
    horizon = checks.real("horizon", horizon, low=0)
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
    rate = checks.real("rate", rate)
    count = checks.integer("count", count, low=0)
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
    +lateral direction, far-side walkers in -lateral.  The engine steps
    progress at the constant walk speed.
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
    bounds: tuple[float, float],
) -> WalkSpeedDecision:
    """Draw a walk speed from the model conditioned on the vehicle state.

    The 1-D conditional of v_p given (1/R, v) is sampled once with the
    given seed and clamped to ``bounds``.  The time-advantage coordinate
    is marginalized out, not observed: conditioning on it would be
    circular because it already depends on the walk speed being chosen.
    A stopped vehicle conditions on range alone.  If conditioning fails
    (singular observed block, or the vehicle state falls outside the
    model's support), or the conditional's box holds less mass than
    :meth:`~crossingsim.mixture.GaussianMixture.sample` can draw from
    (below its 1e-6 acceptance floor), the unconditional v_p marginal is
    used and the decision is flagged.
    """
    lo, hi = bounds
    if not 0 < lo <= hi:
        raise ValueError(f"bounds must satisfy 0 < lo <= hi, got {bounds}")
    used_fallback = False
    try:
        if vehicle_range <= 0:
            raise ValueError("vehicle is at or past the crossing line")
        if vehicle_speed > 0:
            conditional = model.condition(
                [OBS_INV_RANGE, OBS_VEHICLE_SPEED],
                [1.0 / vehicle_range, vehicle_speed],
                [OBS_WALK_SPEED],
            )
        else:
            conditional = model.condition(
                [OBS_INV_RANGE], [1.0 / vehicle_range], [OBS_WALK_SPEED]
            )
        if conditional.box_mass() < 1e-6:
            raise ValueError("the conditional's box holds almost no mass")
    except ValueError:  # ConditioningError included
        conditional = model.marginalize([OBS_WALK_SPEED])
        used_fallback = True
    speed = float(conditional.sample(1, seed)[0, 0])
    return WalkSpeedDecision(speed=min(max(speed, lo), hi), used_fallback=used_fallback)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class StrategyDecision(NamedTuple):
    """Commanded acceleration, whether the strategy's fallback fired, and
    the decision's hold: the engine applies it again on every later step
    whose clock is below ``until`` (early, never late), and a hold that is
    not ``final`` also ends when a pedestrian may have become visible."""

    acceleration: float
    fallback: bool = False
    until: float = 0.0
    final: bool = False


def _before(clock: float) -> float:
    """A hold end early enough for a clock test with rounding and 1e-9 s slack."""
    return clock - 2e-9 * (1.0 + abs(clock))


class ModeQuery(NamedTuple):
    """A strategy's request for the mode of a 1-D conditional on an interval.

    A strategy's ``command`` returns one in place of its decision.  The
    episode engine runs the search and answers with the strategy's
    ``resume``, passing the mode or the ValueError of the search.
    """

    model: GaussianMixture
    interval: tuple[float, float]


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
        key=lambda p: (
            time_advantage(longitudinal_gap, p.lateral_gap, vehicle_speed, p.walk_speed),
            p.arrival_time,
        ),
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

    def __post_init__(self) -> None:
        checks.fields(self, checks.real, "accel_intercept", "accel_per_speed", "accel_per_range")


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

    Before a plan only a newly visible pedestrian can change the coast,
    and while braking only one that arrives before the brake ends.  Once
    a call finds the braking phase of a taken plan over, no later
    pedestrian can revise it, so that call's coast is a final hold.
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
        new: list[Pedestrian],
    ) -> bool:
        """Commit or revise the plan for newly seen pedestrians; True when
        a new plan was taken."""
        candidate = select_governing(longitudinal_gap, vehicle_speed, new)
        if candidate is None:
            return False
        if self.decision_taken:
            if clock - self.decision_time >= self.plan.brake_duration:
                return False  # braking phase over; committed profile persists
            governing = self._governing
            current = (
                time_advantage(
                    longitudinal_gap, governing.lateral_gap, vehicle_speed, governing.walk_speed
                )
                if governing is not None and not governing.finished
                else math.inf
            )
            if (
                time_advantage(
                    longitudinal_gap, candidate.lateral_gap, vehicle_speed, candidate.walk_speed
                )
                >= current
            ):
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
        # Only a pedestrian not seen before can commit or revise the plan.
        fresh = False
        if pedestrians:
            seen = self._seen
            new = [p for p in pedestrians if p.arrival_time not in seen]
            if new:
                seen.update(p.arrival_time for p in new)
                fresh = self._maybe_decide(clock, longitudinal_gap, vehicle_speed, new)
        if not self.decision_taken:
            return StrategyDecision(0.0, until=math.inf)  # until someone shows up
        plan = self.plan
        fallback = fresh and plan.full_stop  # flagged once, when committed
        if clock - self.decision_time >= plan.brake_duration:
            # _maybe_decide's test: from here on it takes no new plan.
            return StrategyDecision(0.0, fallback, math.inf, final=True)
        end = _before(self.decision_time + plan.brake_duration)
        return StrategyDecision(plan.acceleration, fallback, end)


@dataclass(frozen=True)
class HumanDriverParams:
    """Knobs of the model-following human baseline."""

    update_interval: float = 1.0  # s between desired-speed recomputations
    max_acceleration: float = 4.0  # |a| clamp, m/s^2
    recovery_acceleration: float = 1.0  # m/s^2 back toward free flow

    def __post_init__(self) -> None:
        checks.fields(self, checks.real, "update_interval", "max_acceleration", low=0, strict=True)
        checks.fields(self, checks.real, "recovery_acceleration", low=0)


class HumanDriver:
    """Speed control by conditional mode of the interaction model.

    Every ``update_interval`` seconds the driver recomputes the desired
    speed as the mode of v conditioned on (1/R, v_p, 1/T_Adv) for the
    governing pedestrian, and commands (desired - current) / interval
    clamped to the acceleration limit.  Each decision holds until the next
    update.  With no governing pedestrian the driver recovers toward
    ``free_flow_speed``, the scenario's approach speed, and cuts to zero
    acceleration on the first step that finds it reached (its ramp holds
    for no step).  The step before the cut can carry the speed past free
    flow, so recovery overshoots by less than ``recovery_acceleration * dt``.
    If the conditional is unavailable (stopped vehicle, zero time
    advantage, singular observed block) the driver holds its speed and
    flags the decision.

    An update that needs a mode returns its :class:`ModeQuery` from
    ``command``, and ``resume`` turns the search's answer into the decision.
    """

    def __init__(
        self, model: GaussianMixture, params: HumanDriverParams, free_flow_speed: float
    ) -> None:
        if model.dim != 4:
            raise ValueError("human driver needs the 4-D interaction model")
        self.model = model
        self.params = params
        self.free_flow_speed = checks.real("free_flow_speed", free_flow_speed, low=0, strict=True)
        self.update_interval = params.update_interval
        self._next_update = 0.0
        self._held = 0.0  # acceleration commanded until the next update
        self._recovering = True
        self._speed = 0.0  # vehicle speed at the pending update
        self._search = self._speed_interval(model)

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

    def _recompute(self, vehicle_speed: float, desired) -> StrategyDecision:
        """The update's decision from the desired speed, the error that
        stopped the update, or None when no pedestrian governs."""
        if desired is None:
            self._recovering = True  # _hold cuts the ramp at free flow
            return StrategyDecision(self.params.recovery_acceleration)
        self._recovering = False
        if isinstance(desired, Exception):
            return StrategyDecision(0.0, fallback=True)
        accel = (desired - vehicle_speed) / self.params.update_interval
        limit = self.params.max_acceleration
        return StrategyDecision(min(max(accel, -limit), limit))

    def command(
        self,
        clock: float,
        longitudinal_gap: float,
        vehicle_speed: float,
        pedestrians: Sequence[Pedestrian],
    ) -> StrategyDecision | ModeQuery:
        """This step's decision, or the :class:`ModeQuery` of an update that
        needs a mode search, for :meth:`resume`."""
        if clock + 1e-9 < self._next_update:
            # Held commands never repeat a failed update's flag.
            return self._hold(vehicle_speed, False)
        self._next_update += self.update_interval
        self._speed = vehicle_speed
        governing = select_governing(longitudinal_gap, vehicle_speed, pedestrians)
        if governing is None:
            return self.resume(None)
        adv = time_advantage(
            longitudinal_gap, governing.lateral_gap, vehicle_speed, governing.walk_speed
        )
        try:
            if adv == 0.0 or adv == math.inf:
                raise ValueError(f"time advantage {adv} has no finite inverse")
            conditional = self.model.condition(
                [OBS_INV_RANGE, OBS_WALK_SPEED, OBS_INV_TIME_ADVANTAGE],
                [1.0 / longitudinal_gap, governing.walk_speed, 1.0 / adv],
            )
        except ValueError as exc:  # ConditioningError included
            return self.resume(exc)
        return ModeQuery(conditional, self._search)

    def resume(self, desired) -> StrategyDecision:
        """Finish the pending update with the mode, the error that stopped
        it, or None when no pedestrian governs."""
        self._held, fallback = self._recompute(self._speed, desired)[:2]
        return self._hold(self._speed, fallback)

    def _hold(self, vehicle_speed: float, fallback: bool) -> StrategyDecision:
        if self._recovering and self._held > 0.0:
            if vehicle_speed < self.free_flow_speed:
                # The cut to 0 depends on the speed: ask every step.
                return StrategyDecision(self._held, fallback)
            self._held = 0.0
        return StrategyDecision(self._held, fallback, _before(self._next_update))
