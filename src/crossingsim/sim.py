"""Forward-Euler episode engine and the paired experiment protocol.

One episode: a vehicle approaches the crossing from beyond detection
range at free-flow speed; once inside the trigger range the arrival
clock starts and scheduled pedestrians begin to cross from either side.
Each step the strategy decides from what it can see, unless its last
decision holds; the vehicle integrates acceleration -> speed -> position,
the pedestrians advance, and the crash predicate is evaluated.  The episode
ends when the vehicle body fully clears the crossing line, a crash is
detected, or the horizon elapses.

Paired protocol: every experiment runs the same pedestrian realization
(arrival times, sides, walk speeds) through the candidate strategy and
the human baseline.  Walk speeds are decided against the vehicle state
of the candidate pass and replayed verbatim in the baseline pass, so
the two episodes differ only in the driving policy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, NamedTuple, Optional, Protocol, Sequence

from crossingsim.agents import (
    ArrivalSchedule,
    ModeQuery,
    Pedestrian,
    StrategyDecision,
    decide_walk_speed,
    fixed_count_arrivals,
    sample_arrivals,
)
from crossingsim.mixture import GaussianMixture, conditional_modes
from crossingsim.seeds import derive_seed

__all__ = [
    "SimConfig",
    "TrajectoryPoint",
    "EpisodeResult",
    "PairResult",
    "DrivingStrategy",
    "detect_crash",
    "experiment_schedule",
    "run_episode",
    "run_paired_experiments",
]


class DrivingStrategy(Protocol):
    """Per-episode controller; instances must not be reused across episodes.

    The engine calls ``command`` on the first step and whenever the hold
    of the last :class:`~crossingsim.agents.StrategyDecision` ends: at its
    ``until`` clock, or, for a hold that is not ``final``, on a step where
    a pedestrian may have become visible.  On the steps in between it
    applies that decision again; its fallback flag counts once, on the
    step that returned it.

    ``command`` returns a :class:`~crossingsim.agents.StrategyDecision`,
    or, on a step whose decision needs a conditional mode, an
    :class:`~crossingsim.agents.ModeQuery`.  A strategy that returns a
    query has a ``resume`` method: the engine finishes the step with
    ``resume(mode)`` once a batched search has answered the query.
    """

    def command(
        self,
        clock: float,
        longitudinal_gap: float,
        vehicle_speed: float,
        pedestrians: Sequence[Pedestrian],
    ) -> StrategyDecision | ModeQuery: ...


@dataclass(frozen=True)
class SimConfig:
    """Geometry, dynamics, and arrival process of one crossing scenario."""

    trigger_range: float = 30.0  # m; arrival clock starts at this range
    crossing_length: float = 9.0  # m of crossing path
    free_flow_speed: float = 5.0  # m/s approach and recovery speed
    arrival_rate: float = 250.0 / 3600.0  # pedestrians per second
    arrival_mode: str = "fixed"  # "fixed" count per episode, or "poisson"
    fixed_count: int = 1
    dt: float = 0.05  # s integration step
    horizon: float = 120.0  # s from clock start before timing out
    vehicle_half_length: float = 2.5  # m
    vehicle_half_width: float = 1.0  # m
    detection_range: float = 50.0  # m visibility cutoff on the range
    walk_speed_min: float = 0.3  # m/s clamp on decided walk speeds
    walk_speed_max: float = 3.0

    def __post_init__(self) -> None:
        positive = (
            "trigger_range",
            "crossing_length",
            "free_flow_speed",
            "dt",
            "horizon",
            "vehicle_half_length",
            "vehicle_half_width",
            "detection_range",
            "walk_speed_min",
            "walk_speed_max",
        )
        for name in positive:
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and math.isfinite(value) and value > 0
            ):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        rate = self.arrival_rate
        if isinstance(rate, bool) or not (
            isinstance(rate, (int, float)) and math.isfinite(rate) and rate >= 0
        ):
            raise ValueError(f"arrival_rate must be finite and >= 0, got {rate!r}")
        if self.arrival_mode not in ("fixed", "poisson"):
            raise ValueError(
                f"arrival_mode must be 'fixed' or 'poisson', got {self.arrival_mode!r}"
            )
        count = self.fixed_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"fixed_count must be a nonnegative integer, got {count!r}")
        if self.arrival_mode == "fixed" and self.fixed_count > 1 and self.arrival_rate == 0:
            raise ValueError("arrival_rate must be positive to space fixed_count > 1 arrivals")
        if self.walk_speed_min > self.walk_speed_max:
            raise ValueError("walk_speed_min must not exceed walk_speed_max")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed horizon")


class TrajectoryPoint(NamedTuple):
    """One trajectory row; pedestrian fields are None on pedestrian-free steps."""

    t: float
    longitudinal_gap: float
    vehicle_speed: float
    pedestrian_id: Optional[int]
    lateral_gap: Optional[float]
    walk_speed: Optional[float]


@dataclass
class EpisodeResult:
    """Outcome of one episode plus the realized pedestrian inputs."""

    passing_time: Optional[float]  # s from clock start to body clearance
    crashed: bool
    crash_time: Optional[float]
    timed_out: bool
    arrival_times: tuple[float, ...]
    sides: tuple[str, ...]
    walk_speeds: tuple[float, ...]
    walk_speed_fallbacks: tuple[bool, ...]
    strategy_fallbacks: int
    trajectory: Optional[list[TrajectoryPoint]] = None

    @property
    def completed(self) -> bool:
        return not self.crashed and not self.timed_out


def detect_crash(
    longitudinal_gap: float, pedestrians: Sequence[Pedestrian], config: SimConfig
) -> bool:
    """True when the vehicle body overlaps the crossing line while some
    pedestrian stands within half a vehicle width of the vehicle path.

    ``longitudinal_gap`` is metres from the vehicle front to the crossing
    line, positive while approaching.
    """
    if not (-2.0 * config.vehicle_half_length <= longitudinal_gap <= 0.0):
        return False
    return any(
        abs(p.lateral_position) <= config.vehicle_half_width
        for p in pedestrians
        if not p.finished
    )


def dt_fits(dt: float, update_interval: float) -> bool:
    """True when updates ``update_interval`` apart fall ten steps or more apart."""
    return dt <= 0.1 * update_interval + 1e-12


def _lead_steps(config: SimConfig) -> int:
    """Steps of free-flow approach needed to start beyond detection range.

    Chosen so the trigger range is reached exactly on a step boundary,
    keeping passing-time discretization error within one dt.
    """
    per_step = config.free_flow_speed * config.dt
    needed = (config.detection_range - config.trigger_range) / per_step
    return max(int(math.floor(needed)) + 1, 1)


def _last_step(step: int, dt: float, deadline: float) -> int:
    """The step at whose end the episode loop times out: the first
    ``s >= step`` with ``(s + 1) * dt >= deadline``, by the loop's own
    float test."""
    last = max(step, math.ceil(deadline / dt) - 1)
    while last > step and last * dt >= deadline:
        last -= 1
    while (last + 1) * dt < deadline:
        last += 1
    return last


Episode = Generator[ModeQuery, object, EpisodeResult]


def run_episode(
    config: SimConfig,
    strategy: DrivingStrategy,
    schedule: ArrivalSchedule,
    model: Optional[GaussianMixture] = None,
    walk_speed_seeds: Optional[Sequence[int]] = None,
    walk_speeds: Optional[Sequence[float]] = None,
    record_trajectory: bool = False,
) -> EpisodeResult:
    """Simulate one pass of the crossing.

    Walk speeds come from two sources: ``walk_speeds`` replays
    previously decided values verbatim (paired baseline pass), and any
    arrival past its end draws a speed from ``model`` conditioned on
    the vehicle state at that instant, seeded by the matching entry of
    ``walk_speed_seeds``.  A replay list shorter than the schedule is
    allowed only when the model and seeds can cover the tail; an episode
    can end before every scheduled pedestrian arrives, so a paired run
    may legitimately replay just a prefix.

    The vehicle starts beyond detection range at free-flow speed; the
    arrival clock starts once the range drops to the trigger range, and
    schedule times are offsets from that instant.  Pedestrians beyond
    detection range or already past the vehicle path strip are invisible
    to the strategy but still simulated for crash purposes.

    Returns an EpisodeResult; a crash or an exceeded horizon yields a
    flagged result with no passing time rather than an exception.
    """
    (result,) = _drive(
        [
            _episode(
                config, strategy, schedule, model, walk_speed_seeds, walk_speeds,
                record_trajectory,
            )
        ]
    )
    return result


def _episode(
    config: SimConfig,
    strategy: DrivingStrategy,
    schedule: ArrivalSchedule,
    model: Optional[GaussianMixture],
    walk_speed_seeds: Optional[Sequence[int]],
    walk_speeds: Optional[Sequence[float]],
    record_trajectory: bool,
) -> Episode:
    """:func:`run_episode` as a resumable episode.

    It yields the :class:`ModeQuery` of every step whose decision waits on
    a mode search, expects the search's result (the mode, or its
    ValueError) sent back, and returns the EpisodeResult.

    A vehicle that a final hold without end keeps at speed 0 short of the
    line is parked until the horizon: without a trajectory to record, the
    episode spawns the pedestrians still due, each as its step would,
    and times out at once instead of stepping there.
    """
    n_replayed = len(walk_speeds) if walk_speeds is not None else 0
    if n_replayed < len(schedule):
        if model is None or walk_speed_seeds is None:
            raise ValueError("need a model and walk_speed_seeds to decide walk speeds")
        if len(walk_speed_seeds) < len(schedule):
            raise ValueError("need one walk-speed seed per scheduled arrival")
    interval = getattr(strategy, "update_interval", None)
    if interval is not None and not dt_fits(config.dt, interval):
        raise ValueError(f"dt={config.dt} too coarse for strategy update interval {interval}")

    dt = config.dt
    lead = _lead_steps(config)
    gap = config.trigger_range + lead * config.free_flow_speed * dt
    speed = config.free_flow_speed
    clock_start: Optional[float] = None
    deadline = lead * dt + config.horizon

    # Loop invariants.  Each step walks every pedestrian at its constant
    # speed up to the far kerb; one is visible until its progress passes
    # path_edge, where it can no longer meet the vehicle body.
    command = strategy.command
    until, final = 0.0, False  # the hold of the decision last returned
    shown = 0  # spawn count at the last look within detection range
    n_scheduled = len(schedule)
    times = schedule.times.tolist()
    trigger_gate = config.trigger_range + 1e-12
    detection_range = config.detection_range
    crossing_length = config.crossing_length
    path_edge = 0.5 * crossing_length + config.vehicle_half_width
    clear_gap = -2.0 * config.vehicle_half_length  # also the crash window's lower end

    active: list[Pedestrian] = []
    spawn_order: dict[int, int] = {}  # object id -> spawn index
    spawned = 0
    decided_speeds: list[float] = []
    decided_fallbacks: list[bool] = []
    strategy_fallbacks = 0
    trajectory: Optional[list[TrajectoryPoint]] = [] if record_trajectory else None

    def spawn(j: int, gap: float, speed: float) -> Pedestrian:
        """Scheduled pedestrian ``j``, its walk speed replayed or decided
        against the vehicle's range and speed now."""
        if j < n_replayed:
            walk_speed, walk_fallback = float(walk_speeds[j]), False
        else:
            walk_speed, walk_fallback = decide_walk_speed(
                model,
                vehicle_range=gap,
                vehicle_speed=speed,
                seed=walk_speed_seeds[j],
                bounds=(config.walk_speed_min, config.walk_speed_max),
            )
        decided_speeds.append(walk_speed)
        decided_fallbacks.append(walk_fallback)
        return Pedestrian(
            # Nominal schedule instant, unique per pedestrian even if
            # several spawn on the same step.
            arrival_time=clock_start + times[j],
            side=schedule.sides[j],
            walk_speed=walk_speed,
            crossing_length=config.crossing_length,
        )

    crashed = False
    crash_time: Optional[float] = None
    passing_time: Optional[float] = None
    timed_out = False

    step = 0
    clock = 0.0
    while True:
        if clock_start is None and gap <= trigger_gate:
            clock_start = clock
        if (
            final
            and speed == 0.0
            and until == math.inf
            and acceleration <= 0.0
            and gap > 0.0
            and trajectory is None
            and clock_start is not None
        ):
            # Parked for good, recording nothing: the speed and gap stay put,
            # so no crash or pass is reachable and only spawns and the
            # time-out remain.  Spawn every pedestrian due by the last step.
            last = _last_step(step, dt, deadline)
            rel = last * dt - clock_start
            while spawned < n_scheduled and times[spawned] <= rel + 1e-12:
                spawn(spawned, gap, speed)
                spawned += 1
            timed_out = True
            break
        if clock_start is not None and spawned < n_scheduled:
            rel = clock - clock_start
            while spawned < n_scheduled and times[spawned] <= rel + 1e-12:
                ped = spawn(spawned, gap, speed)
                active.append(ped)
                spawn_order[id(ped)] = spawned
                spawned += 1

        # Ask when the hold ends, or, unless it is final, when someone
        # spawned since the last look within detection range may be visible.
        if clock >= until or (not final and spawned > shown and gap <= detection_range):
            if gap <= detection_range:
                visible = [p for p in active if p.progress <= path_edge]
                shown = spawned
            else:
                visible = []
            decision = command(clock, gap, speed, visible)
            if decision.__class__ is ModeQuery:
                decision = strategy.resume((yield decision))
            acceleration, fallback, until, final = decision
            strategy_fallbacks += fallback

        if trajectory is not None:
            if active:
                for ped in active:
                    trajectory.append(
                        TrajectoryPoint(
                            clock, gap, speed,
                            spawn_order[id(ped)], ped.lateral_gap, ped.walk_speed,
                        )
                    )
            else:
                trajectory.append(TrajectoryPoint(clock, gap, speed, None, None, None))

        # Integrate: acceleration -> speed -> position; speed clamped at 0.
        speed += acceleration * dt
        if speed < 0.0:
            speed = 0.0
        gap -= speed * dt
        any_finished = False
        for ped in active:
            progress = ped.progress + ped.walk_speed * dt
            if progress >= crossing_length:  # min(progress, crossing_length)
                progress = crossing_length
                any_finished = True
            ped.progress = progress
        step += 1
        clock = step * dt

        if clear_gap <= gap <= 0.0 and detect_crash(gap, active, config):
            crashed = True
            crash_time = clock
            break
        if any_finished:
            active = [p for p in active if p.progress < crossing_length]
        if gap <= clear_gap:
            assert clock_start is not None
            passing_time = clock - clock_start
            break
        if clock >= deadline:
            timed_out = True
            break

    return EpisodeResult(
        passing_time=passing_time,
        crashed=crashed,
        crash_time=crash_time,
        timed_out=timed_out,
        arrival_times=tuple(times[:spawned]),
        sides=tuple(schedule.sides[:spawned]),
        walk_speeds=tuple(decided_speeds),
        walk_speed_fallbacks=tuple(decided_fallbacks),
        strategy_fallbacks=strategy_fallbacks,
        trajectory=trajectory,
    )


def _drive(episodes: list[Episode]) -> list[EpisodeResult]:
    """Run episodes side by side to their results.

    Each round resumes every unfinished episode up to its next mode query
    or its end, then answers all the round's queries with one
    :func:`~crossingsim.mixture.conditional_modes` call.
    """
    results: list = [None] * len(episodes)
    answers: list = [None] * len(episodes)
    live = range(len(episodes))
    while live:
        waiting, queries = [], []
        for i in live:
            try:
                queries.append(episodes[i].send(answers[i]))
            except StopIteration as done:
                results[i] = done.value
            else:
                waiting.append(i)
        modes = conditional_modes(
            [query.model for query in queries], [query.interval for query in queries]
        )
        for i, mode in zip(waiting, modes):
            answers[i] = mode
        live = waiting
    return results


@dataclass
class PairResult:
    """Candidate and baseline episodes over one pedestrian realization."""

    index: int
    candidate: EpisodeResult
    baseline: EpisodeResult

    @property
    def time_ratio(self) -> Optional[float]:
        """Candidate passing time over baseline passing time; None if either
        episode ended without a passing time."""
        if not (self.candidate.completed and self.baseline.completed):
            return None
        return self.candidate.passing_time / self.baseline.passing_time


def experiment_schedule(config: SimConfig, master_seed: int, index: int) -> ArrivalSchedule:
    seed = derive_seed(master_seed, "arrivals", index)
    if config.arrival_mode == "fixed":
        return fixed_count_arrivals(config.arrival_rate, config.fixed_count, seed)
    return sample_arrivals(config.arrival_rate, config.horizon, seed)


def _run_pairs(
    config: SimConfig,
    model: GaussianMixture,
    candidate_factory: Callable[[], DrivingStrategy],
    baseline_factory: Callable[[], DrivingStrategy],
    master_seed: int,
    indices: range,
) -> list[PairResult]:
    """The pairs of a run of indices: every candidate episode side by side,
    then every baseline episode, each pass with batched mode searches.

    The factories are called in pair order, candidate before baseline.
    """
    pairs = []
    for index in indices:
        schedule = experiment_schedule(config, master_seed, index)
        walk_seeds = [
            derive_seed(master_seed, f"walk-{index}", j) for j in range(len(schedule))
        ]
        pairs.append((schedule, walk_seeds, candidate_factory(), baseline_factory()))
    candidates = _drive(
        [
            _episode(config, candidate, schedule, model, walk_seeds, None, False)
            for schedule, walk_seeds, candidate, _ in pairs
        ]
    )
    baselines = _drive(
        [
            _episode(config, baseline, schedule, model, walk_seeds, done.walk_speeds, False)
            for (schedule, walk_seeds, _, baseline), done in zip(pairs, candidates)
        ]
    )
    return [
        PairResult(index=index, candidate=candidate, baseline=baseline)
        for index, candidate, baseline in zip(indices, candidates, baselines)
    ]


def run_paired_experiments(
    config: SimConfig,
    model: GaussianMixture,
    candidate_factory: Callable[[], DrivingStrategy],
    baseline_factory: Callable[[], DrivingStrategy],
    n_experiments: int,
    master_seed: int,
    parallel: int = 1,
) -> list[PairResult]:
    """Run candidate/baseline episode pairs over shared realizations.

    Factories build a fresh strategy per episode.  Every experiment's
    seeds derive from (master_seed, purpose, index) alone, and an
    episode's steps never depend on the episodes run beside it, so
    results are identical for any ``parallel`` level; workers only change
    how the index set is partitioned.  A serial run drives all pairs as
    one chunk; each worker drives its own chunks.  Results come back
    ordered by index.
    """
    if n_experiments < 1:
        raise ValueError("n_experiments must be >= 1")
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    runner = partial(
        _run_pairs,
        config,
        model,
        candidate_factory,
        baseline_factory,
        master_seed,
    )
    if parallel == 1:
        return runner(range(n_experiments))
    # Imported here: the process pool loads multiprocessing, which no
    # serial run needs.
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, n_experiments // (4 * parallel))
    chunks = [range(i, min(i + size, n_experiments)) for i in range(0, n_experiments, size)]
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        return [pair for chunk in pool.map(runner, chunks) for pair in chunk]
