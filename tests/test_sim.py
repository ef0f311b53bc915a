"""Episode engine: kinematics, crash geometry, replay, and pairing."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from crossingsim import sim
from crossingsim.agents import (
    ArrivalSchedule,
    HumanDriver,
    HumanDriverParams,
    Pedestrian,
    SoftYieldParams,
    SoftYieldStrategy,
    StrategyDecision,
)
from crossingsim.ingest import reference_generator
from crossingsim.mixture import GaussianMixture, TruncationBox
from crossingsim.seeds import derive_seed
from crossingsim.sim import (
    EpisodeResult,
    PairResult,
    SimConfig,
    detect_crash,
    experiment_schedule,
    run_episode,
    run_paired_experiments,
)


class NeverBrake:
    """Holds speed no matter what; used to force collisions."""

    def command(self, clock, longitudinal_gap, vehicle_speed, pedestrians):
        return StrategyDecision(acceleration=0.0)


def diagonal_model():
    mu = np.array([0.1, 5.0, 1.3, 0.4])
    cov = np.diag([0.03, 0.5, 0.2, 0.1]) ** 2
    return GaussianMixture(
        np.array([1.0]), mu[None], cov[None], truncation=TruncationBox.positive_orthant(4)
    )


def one_walker(*times):
    times = times or (0.0,)
    return ArrivalSchedule(np.array(times, dtype=float), ("near",) * len(times))


EMPTY = ArrivalSchedule(np.array([]), ())


class TestSimConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.trigger_range == 30.0
        assert cfg.free_flow_speed == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0),
            dict(trigger_range=-1.0),
            dict(free_flow_speed=0.0),
            dict(arrival_mode="burst"),
            dict(fixed_count=-1),
            dict(walk_speed_min=2.0, walk_speed_max=1.0),
            dict(dt=10.0, horizon=5.0),
            dict(arrival_rate=-0.1),
            dict(fixed_count=3, arrival_rate=0.0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("arrival_rate", math.nan),
            ("arrival_rate", math.inf),
            ("fixed_count", 2.5),
            ("fixed_count", True),
        ],
    )
    def test_arrival_fields_are_named_when_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "name",
        [
            "trigger_range",
            "crossing_length",
            "free_flow_speed",
            "arrival_rate",
            "dt",
            "horizon",
            "vehicle_half_length",
            "vehicle_half_width",
            "detection_range",
            "walk_speed_min",
            "walk_speed_max",
        ],
    )
    def test_float_fields_reject_a_bool(self, name):
        # True is an int to isinstance; the config loader rejects it too.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SimConfig(**{name: True})


class TestDetectCrash:
    CFG = SimConfig()

    def crash(self, gap, progress):
        walker = Pedestrian(0.0, "near", 1.0, 9.0, progress=progress)
        return detect_crash(gap, [walker], self.CFG)

    def test_overlap_inside_strip_is_a_crash(self):
        assert self.crash(gap=-2.0, progress=4.5)

    def test_strip_boundary_counts(self):
        # progress 3.5 -> lateral -1.0, exactly half the vehicle width.
        assert self.crash(gap=0.0, progress=3.5)

    def test_vehicle_not_on_the_line_is_safe(self):
        assert not self.crash(gap=0.1, progress=4.5)
        assert not self.crash(gap=-5.1, progress=4.5)

    def test_pedestrian_outside_strip_is_safe(self):
        assert not self.crash(gap=-2.0, progress=2.0)
        assert not self.crash(gap=-2.0, progress=6.0)

    def test_no_pedestrians_is_safe(self):
        assert not detect_crash(-2.0, [], self.CFG)


class TestFreeFlow:
    def test_passing_time_is_range_plus_body_over_speed(self):
        # (30 m + 5 m body) / 5 m/s: the empty-crossing baseline.
        cfg = SimConfig()
        result = run_episode(cfg, NeverBrake(), EMPTY, walk_speeds=[])
        assert result.completed
        assert result.passing_time == pytest.approx(7.0, abs=cfg.dt)
        assert result.strategy_fallbacks == 0
        assert result.walk_speeds == ()

    def test_finer_steps_converge_to_the_same_time(self):
        cfg = SimConfig(dt=0.01)
        result = run_episode(cfg, NeverBrake(), EMPTY, walk_speeds=[])
        assert result.passing_time == pytest.approx(7.0, abs=cfg.dt)

    def test_human_driver_crosses_an_empty_crossing_at_the_scenario_speed(self):
        # The vehicle enters at free flow, and the driver recovers toward
        # the same speed, so with nobody to react to it never speeds up.
        config = SimConfig(free_flow_speed=3.0)
        driver = HumanDriver(diagonal_model(), HumanDriverParams(), config.free_flow_speed)
        result = run_episode(config, driver, EMPTY, walk_speeds=[], record_trajectory=True)
        expected = (config.trigger_range + 2.0 * config.vehicle_half_length) / 3.0
        assert result.completed
        assert abs(result.passing_time - expected) <= config.dt + 1e-12
        assert max(row.vehicle_speed for row in result.trajectory) <= 3.0


class TestConstructedConflicts:
    def test_forced_collision_is_reported(self):
        # Walker at 0.65 m/s is inside the vehicle strip exactly when the
        # never-braking vehicle occupies the crossing line.
        result = run_episode(SimConfig(), NeverBrake(), one_walker(), walk_speeds=[0.65])
        assert result.crashed
        assert not result.completed
        assert result.passing_time is None
        assert result.crash_time is not None

    def test_hand_timed_near_miss_is_clean(self):
        # 1.45 m/s clears the strip at about rel 3.8 s, body arrives at 6.
        result = run_episode(SimConfig(), NeverBrake(), one_walker(), walk_speeds=[1.45])
        assert not result.crashed
        assert result.completed
        assert result.passing_time == pytest.approx(7.0, abs=0.05)

    def test_committed_full_stop_times_out(self):
        # The yield profile is frozen per episode: a full-stop plan never
        # resumes, so the episode must end by horizon, not by clearance,
        # and the fallback is counted once.
        cfg = SimConfig(horizon=20.0)
        strat = SoftYieldStrategy(SoftYieldParams(), cfg.crossing_length)
        result = run_episode(cfg, strat, one_walker(), walk_speeds=[0.75])
        assert result.timed_out
        assert not result.crashed
        assert result.strategy_fallbacks == 1


class TestWalkSpeedPlumbing:
    def test_replay_is_verbatim(self):
        result = run_episode(SimConfig(), NeverBrake(), one_walker(), walk_speeds=[1.31])
        assert result.walk_speeds == (1.31,)
        assert result.walk_speed_fallbacks == (False,)

    def test_model_decides_when_not_replaying(self):
        result = run_episode(
            SimConfig(),
            NeverBrake(),
            one_walker(),
            model=diagonal_model(),
            walk_speed_seeds=[123],
        )
        assert len(result.walk_speeds) == 1
        assert 0.3 <= result.walk_speeds[0] <= 3.0

    def test_missing_model_rejected(self):
        with pytest.raises(ValueError):
            run_episode(SimConfig(), NeverBrake(), one_walker())

    def test_short_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_episode(
                SimConfig(),
                NeverBrake(),
                one_walker(0.0, 1.0),
                model=diagonal_model(),
                walk_speed_seeds=[1],
            )

    def test_prefix_replay_draws_the_tail(self):
        result = run_episode(
            SimConfig(),
            NeverBrake(),
            one_walker(0.0, 1.0),
            model=diagonal_model(),
            walk_speed_seeds=[5, 6],
            walk_speeds=[0.9],
        )
        assert result.walk_speeds[0] == 0.9
        assert len(result.walk_speeds) == 2


class VisibilitySpy:
    """Never brakes; logs the gap and each visible pedestrian's progress."""

    def __init__(self):
        self.steps = []

    def command(self, clock, longitudinal_gap, vehicle_speed, pedestrians):
        self.steps.append((longitudinal_gap, [(p, p.progress) for p in pedestrians]))
        return StrategyDecision(0.0)


def reference_step(progress, walk_speed, crossing_length, dt):
    """The pedestrian model's step: constant walk speed, stopped at the far kerb."""
    return min(progress + walk_speed * dt, crossing_length)


def past_path(progress, crossing_length, half_width):
    """True once a pedestrian can no longer meet the vehicle body."""
    return progress > 0.5 * crossing_length + half_width


class TestVisibility:
    def test_visible_pedestrians_follow_the_pedestrian_model(self):
        # Walkers spawn at 60 m but are visible only from 40 m; the
        # engine's inline stepping must agree with reference_step and
        # past_path.  With dt = 1/16 s the 1 m/s walker lands exactly on
        # the strip edge, 5.5 m, and is still visible.
        cfg = SimConfig(trigger_range=60.0, detection_range=40.0, dt=0.0625)
        schedule = ArrivalSchedule(np.array([0.0, 0.5, 4.0]), ("near", "far", "near"))
        spy = VisibilitySpy()
        result = run_episode(cfg, spy, schedule, walk_speeds=[1.0, 1.2, 0.8])
        assert result.completed and len(result.walk_speeds) == 3
        visible_steps = {}
        for step, (gap, visible) in enumerate(spy.steps):
            if gap > cfg.detection_range:
                assert visible == []
            arrivals = [p.arrival_time for p, _ in visible]
            assert arrivals == sorted(arrivals)  # spawn order
            for ped, progress in visible:
                visible_steps.setdefault(id(ped), (ped, []))[1].append((step, progress))
        assert len(visible_steps) == 3
        edge_hits = 0
        for ped, steps in visible_steps.values():
            first, last = steps[0][0], steps[-1][0]
            assert [step for step, _ in steps] == list(range(first, last + 1))
            length, half_width = ped.crossing_length, cfg.vehicle_half_width
            model = steps[0][1]
            for _, progress in steps:
                assert progress == model
                edge_hits += progress == 0.5 * length + half_width
                assert not past_path(model, length, half_width)
                model = reference_step(model, ped.walk_speed, length, cfg.dt)
            # It left the list by walking past the path, not by vanishing.
            assert past_path(model, length, half_width)
        assert edge_hits == 1


class TestTrajectoryRecording:
    def test_rows_cover_the_whole_episode(self):
        result = run_episode(
            SimConfig(),
            NeverBrake(),
            one_walker(),
            walk_speeds=[1.45],
            record_trajectory=True,
        )
        rows = result.trajectory
        assert rows is not None and rows
        assert rows[0].pedestrian_id is None  # lead-in precedes spawn
        ids = {r.pedestrian_id for r in rows}
        assert ids == {None, 0}
        times = [r.t for r in rows]
        assert times == sorted(times)
        walker_rows = [r for r in rows if r.pedestrian_id == 0]
        assert all(r.walk_speed == 1.45 for r in walker_rows)
        # Lateral gap shrinks to zero and stays clamped there.
        gaps = [r.lateral_gap for r in walker_rows]
        assert gaps[0] == pytest.approx(4.5, abs=0.1)
        assert min(gaps) == 0.0

    def test_not_recorded_by_default(self):
        result = run_episode(SimConfig(), NeverBrake(), EMPTY, walk_speeds=[])
        assert result.trajectory is None


class TestStepGuard:
    def test_coarse_dt_rejected_for_periodic_strategy(self):
        driver = HumanDriver(diagonal_model(), HumanDriverParams(update_interval=1.0), 5.0)
        with pytest.raises(ValueError):
            run_episode(SimConfig(dt=0.2), driver, EMPTY, walk_speeds=[])

    def test_fine_dt_accepted(self):
        driver = HumanDriver(diagonal_model(), HumanDriverParams(update_interval=1.0), 5.0)
        result = run_episode(SimConfig(dt=0.1), driver, EMPTY, walk_speeds=[])
        assert result.completed


class BrakeAndHold:
    """Coasts to 20 m short of the line, then brakes at 4 m/s^2 for good,
    flagging its first braking step.  With ``holds``, that decision is a
    final hold without end; without, the engine asks it on every step."""

    def __init__(self, holds):
        self.holds = holds
        self.braking = False

    def command(self, clock, longitudinal_gap, vehicle_speed, pedestrians):
        if longitudinal_gap > 20.0:
            return StrategyDecision(0.0)
        first, self.braking = not self.braking, True
        if self.holds:
            return StrategyDecision(-4.0, first, math.inf, final=True)
        return StrategyDecision(-4.0, first)


class TestParkedFinish:
    @given(
        dt=st.floats(0.01, 0.5),
        horizon=st.floats(0.05, 50.0),
        lead=st.integers(1, 100),
        share=st.floats(0.0, 1.0),
    )
    def test_last_step_is_the_loops_time_out(self, dt, horizon, lead, share):
        deadline = lead * dt + horizon
        step = int(share * deadline / dt)
        assume(step * dt < deadline)  # the loop has not timed out before step
        last = step
        while (last + 1) * dt < deadline:
            last += 1
        assert sim._last_step(step, dt, deadline) == last

    def test_parked_episode_matches_stepping_to_the_horizon(self, monkeypatch):
        finished = []
        last_step = sim._last_step
        monkeypatch.setattr(
            sim, "_last_step", lambda *args: finished.append(args) or last_step(*args)
        )
        config = SimConfig(arrival_mode="poisson", arrival_rate=0.15)
        schedule = experiment_schedule(config, 5, 0)
        seeds = [derive_seed(5, "walk-0", j) for j in range(len(schedule))]
        parked, stepped = (
            run_episode(
                config, BrakeAndHold(holds), schedule, model=diagonal_model(),
                walk_speed_seeds=seeds,
            )
            for holds in (True, False)
        )
        assert len(finished) == 1
        assert parked.timed_out and len(parked.walk_speeds) == len(schedule) > 10
        assert parked.strategy_fallbacks == 1  # counted on the step that flagged it
        assert parked == stepped


class AskedHuman(HumanDriver):
    """HumanDriver that notes why the engine asked it on each call: an
    update is due, the last decision held for no step (a recovery ramp),
    or a pedestrian it has not been shown before is visible."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []
        self.shown = set()
        self.last = StrategyDecision(0.0)

    def command(self, clock, longitudinal_gap, vehicle_speed, pedestrians):
        new = {p.arrival_time for p in pedestrians} - self.shown
        self.shown |= new
        due = clock + 1e-9 >= self._next_update
        self.calls.append((due, self.last.until == 0.0, bool(new)))
        decision = super().command(clock, longitudinal_gap, vehicle_speed, pedestrians)
        if isinstance(decision, StrategyDecision):
            self.last = decision
        return decision

    def resume(self, desired):
        self.last = super().resume(desired)
        return self.last


class TestHolds:
    def test_human_driver_is_asked_only_when_its_hold_can_end(self):
        config = SimConfig(fixed_count=3, arrival_rate=0.2)
        schedule = experiment_schedule(config, 11, 0)
        seeds = [derive_seed(11, "walk-0", j) for j in range(len(schedule))]
        driver = AskedHuman(reference_generator(), HumanDriverParams(), config.free_flow_speed)
        result = run_episode(
            config, driver, schedule, model=reference_generator(), walk_speed_seeds=seeds,
            record_trajectory=True,
        )
        steps = len({row.t for row in result.trajectory})
        due, ramp, shown = (sum(flags) for flags in zip(*driver.calls))
        assert all(any(flags) for flags in driver.calls)
        assert due == math.ceil(steps * config.dt)  # one update per second
        assert ramp and shown == len(schedule)
        assert len(driver.calls) < steps / 5


class TestExperimentSchedule:
    def test_fixed_mode_counts(self):
        cfg = SimConfig(arrival_mode="fixed", fixed_count=3)
        sched = experiment_schedule(cfg, master_seed=1, index=0)
        assert len(sched) == 3
        assert sched.times[0] == 0.0

    def test_poisson_mode_spreads_over_horizon(self):
        cfg = SimConfig(arrival_mode="poisson", arrival_rate=0.5, horizon=200.0)
        sched = experiment_schedule(cfg, master_seed=1, index=0)
        assert len(sched) > 10
        assert (sched.times < 200.0).all()

    def test_index_changes_the_draw(self):
        cfg = SimConfig(arrival_mode="poisson", arrival_rate=0.5, horizon=200.0)
        a = experiment_schedule(cfg, master_seed=1, index=0)
        b = experiment_schedule(cfg, master_seed=1, index=1)
        assert a.times.shape != b.times.shape or not np.array_equal(a.times, b.times)

    def test_same_triple_same_schedule(self):
        cfg = SimConfig()
        a = experiment_schedule(cfg, master_seed=9, index=4)
        b = experiment_schedule(cfg, master_seed=9, index=4)
        np.testing.assert_array_equal(a.times, b.times)
        assert a.sides == b.sides


def paired_factories(model):
    candidate = partial(SoftYieldStrategy, SoftYieldParams(), 9.0)
    baseline = partial(HumanDriver, model, HumanDriverParams(), SimConfig().free_flow_speed)
    return candidate, baseline


class TestPairedExperiments:
    def test_pairs_share_the_pedestrian_realization(self):
        model = diagonal_model()
        candidate, baseline = paired_factories(model)
        pairs = run_paired_experiments(
            SimConfig(), model, candidate, baseline, n_experiments=3, master_seed=11
        )
        assert [p.index for p in pairs] == [0, 1, 2]
        for pair in pairs:
            assert pair.candidate.walk_speeds == pair.baseline.walk_speeds
            assert pair.candidate.arrival_times == pair.baseline.arrival_times
            assert pair.candidate.sides == pair.baseline.sides

    def test_parallel_identical_to_serial(self):
        model = diagonal_model()
        candidate, baseline = paired_factories(model)
        serial = run_paired_experiments(
            SimConfig(), model, candidate, baseline, n_experiments=4, master_seed=11
        )
        forked = run_paired_experiments(
            SimConfig(), model, candidate, baseline, n_experiments=4, master_seed=11,
            parallel=2,
        )
        assert serial == forked

    def test_pool_asks_for_no_worker_without_a_chunk(self, monkeypatch):
        """2 pairs with parallel=8 are 2 chunks, so the pool gets 2 workers.

        A forking pool starts every worker it is given at the first submit;
        this recording pool runs the chunks in-process and starts none.
        """
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return [fn(chunk) for chunk in chunks]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        model = diagonal_model()
        candidate, baseline = paired_factories(model)
        serial = run_paired_experiments(SimConfig(), model, candidate, baseline, 2, 11)
        pooled = run_paired_experiments(
            SimConfig(), model, candidate, baseline, 2, 11, parallel=8
        )
        assert asked == [2]
        assert pooled == serial

    def test_input_validation(self):
        model = diagonal_model()
        candidate, baseline = paired_factories(model)
        with pytest.raises(ValueError):
            run_paired_experiments(SimConfig(), model, candidate, baseline, 0, 1)
        with pytest.raises(ValueError):
            run_paired_experiments(SimConfig(), model, candidate, baseline, 1, 1, parallel=0)


def pair_by_pair(config, model, candidate_factory, baseline_factory, n, master_seed):
    """Each pair as two run_episode calls, one search at a time."""
    pairs = []
    for index in range(n):
        schedule = experiment_schedule(config, master_seed, index)
        seeds = [derive_seed(master_seed, f"walk-{index}", j) for j in range(len(schedule))]
        candidate = run_episode(
            config, candidate_factory(), schedule, model=model, walk_speed_seeds=seeds
        )
        baseline = run_episode(
            config, baseline_factory(), schedule, model=model, walk_speed_seeds=seeds,
            walk_speeds=candidate.walk_speeds,
        )
        pairs.append(PairResult(index=index, candidate=candidate, baseline=baseline))
    return pairs


class TestBatchedEngine:
    """run_paired_experiments batches the pairs' mode searches; the pairs
    must equal those of running each episode on its own."""

    @pytest.fixture(scope="class")
    def reference_model(self):
        return reference_generator()

    @pytest.fixture(scope="class")
    def one_by_one(self, reference_model):
        candidate, baseline = paired_factories(reference_model)
        return pair_by_pair(SimConfig(), reference_model, candidate, baseline, 200, 10004)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_equals_pair_by_pair(self, reference_model, one_by_one, parallel):
        candidate, baseline = paired_factories(reference_model)
        pairs = run_paired_experiments(
            SimConfig(), reference_model, candidate, baseline, 200, 10004, parallel=parallel
        )
        assert pairs == one_by_one
        assert sum(p.baseline.strategy_fallbacks for p in pairs) > 0

    def test_human_candidate_is_batched_too(self, reference_model):
        # What agents.av_strategy = "human" builds: HumanDriver on both sides.
        _, human = paired_factories(reference_model)
        pairs = run_paired_experiments(SimConfig(), reference_model, human, human, 200, 10004)
        assert pairs == pair_by_pair(SimConfig(), reference_model, human, human, 200, 10004)


class TestPairResult:
    @staticmethod
    def episode(passing_time=None, crashed=False, timed_out=False):
        return EpisodeResult(
            passing_time=passing_time,
            crashed=crashed,
            crash_time=None,
            timed_out=timed_out,
            arrival_times=(),
            sides=(),
            walk_speeds=(),
            walk_speed_fallbacks=(),
            strategy_fallbacks=0,
        )

    def test_ratio_of_two_completions(self):
        pair = PairResult(0, self.episode(8.0), self.episode(10.0))
        assert pair.time_ratio == pytest.approx(0.8)

    def test_ratio_undefined_when_either_fails(self):
        crashed = self.episode(crashed=True)
        timed = self.episode(timed_out=True)
        done = self.episode(7.0)
        assert PairResult(0, crashed, done).time_ratio is None
        assert PairResult(0, done, timed).time_ratio is None

    def test_completed_property(self):
        assert self.episode(7.0).completed
        assert not self.episode(crashed=True).completed
        assert not self.episode(timed_out=True).completed
