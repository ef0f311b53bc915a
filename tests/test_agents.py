"""Arrival processes, pedestrian geometry, and both driving strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pins
from pins import WALK_BOUNDS
from crossingsim.agents import (
    ArrivalSchedule,
    HumanDriver,
    HumanDriverParams,
    ModeQuery,
    Pedestrian,
    SoftYieldParams,
    SoftYieldStrategy,
    StrategyDecision,
    decide_walk_speed,
    fixed_count_arrivals,
    sample_arrivals,
    select_governing,
    soft_yield_decide,
)
from crossingsim.mixture import GaussianMixture, TruncationBox, conditional_modes


def diagonal_model(dim=4, means=(0.1, 5.0, 1.3, 0.4), sds=(0.03, 0.5, 0.2, 0.1)):
    """Independent-coordinate interaction model on the positive orthant."""
    mu = np.array(means[:dim], dtype=float)
    cov = np.diag(np.array(sds[:dim], dtype=float) ** 2)
    return GaussianMixture(
        np.array([1.0]),
        mu[None, :],
        cov[None, :, :],
        truncation=TruncationBox.positive_orthant(dim),
    )


def ped(walk_speed, arrival_time=0.0, side="near", crossing_length=9.0, progress=0.0):
    return Pedestrian(
        arrival_time=arrival_time,
        side=side,
        walk_speed=walk_speed,
        crossing_length=crossing_length,
        progress=progress,
    )


class TestArrivalSchedule:
    def test_ascending_and_matched_sides_required(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(np.array([1.0, 1.0]), ("near", "far"))
        with pytest.raises(ValueError):
            ArrivalSchedule(np.array([1.0]), ("near", "far"))
        with pytest.raises(ValueError):
            ArrivalSchedule(np.array([1.0]), ("left",))

    def test_empty_schedule_is_valid(self):
        assert len(ArrivalSchedule(np.array([]), ())) == 0


class TestSampleArrivals:
    def test_deterministic_and_within_horizon(self):
        a = sample_arrivals(0.5, 60.0, seed=42)
        b = sample_arrivals(0.5, 60.0, seed=42)
        np.testing.assert_array_equal(a.times, b.times)
        assert a.sides == b.sides
        assert (a.times < 60.0).all()
        assert (np.diff(a.times) > 0).all()

    def test_zero_rate_is_empty(self):
        assert len(sample_arrivals(0.0, 100.0, seed=1)) == 0

    def test_interarrival_mean_matches_rate(self):
        # Seeded long stream; the mean gap estimates 1/rate.
        sched = sample_arrivals(2.0, 20_000.0, seed=7)
        gaps = np.diff(np.concatenate([[0.0], sched.times]))
        assert gaps.mean() == pytest.approx(0.5, rel=0.02)

    def test_both_sides_occur(self):
        sched = sample_arrivals(1.0, 500.0, seed=3)
        assert {"near", "far"} == set(sched.sides)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_arrivals(-1.0, 10.0, seed=0)
        with pytest.raises(ValueError):
            sample_arrivals(1.0, math.inf, seed=0)


class TestFixedCountArrivals:
    def test_first_arrival_at_zero(self):
        sched = fixed_count_arrivals(0.1, 3, seed=0)
        assert len(sched) == 3
        assert sched.times[0] == 0.0
        assert (np.diff(sched.times) > 0).all()

    def test_count_zero(self):
        assert len(fixed_count_arrivals(0.1, 0, seed=0)) == 0

    def test_single_arrival_ignores_rate(self):
        sched = fixed_count_arrivals(0.0, 1, seed=0)
        np.testing.assert_array_equal(sched.times, [0.0])

    def test_multiple_arrivals_need_positive_rate(self):
        with pytest.raises(ValueError):
            fixed_count_arrivals(0.0, 2, seed=0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match="^rate must be a finite number"):
            fixed_count_arrivals(rate, 3, seed=1)


class TestPedestrian:
    def test_near_side_geometry(self):
        p = ped(1.5)
        assert p.lateral_position == -4.5
        assert p.lateral_gap == 4.5
        p.progress = 4.5  # exactly on the vehicle path line
        assert p.lateral_position == 0.0
        assert p.lateral_gap == 0.0
        p.progress = 9.0
        assert p.lateral_position == 4.5
        assert p.finished

    def test_far_side_mirrors_near(self):
        near, far = ped(1.0, side="near"), ped(1.0, side="far")
        for step in range(4):
            near.progress = far.progress = 1.3 * step
            assert far.lateral_position == -near.lateral_position
            assert far.lateral_gap == near.lateral_gap

    def test_validation(self):
        with pytest.raises(ValueError):
            ped(0.0)
        with pytest.raises(ValueError):
            ped(1.0, side="middle")
        with pytest.raises(ValueError):
            Pedestrian(0.0, "near", 1.0, 9.0, progress=9.5)


# (range, speed, seed, walk speed, fallback) rows of walk_speed_corpus.json.
WALK_SPEED_ROWS = [(*inputs, *output) for inputs, output in pins.WALK_SPEEDS.rows()]


class TestDecideWalkSpeed:
    @pytest.mark.parametrize("vehicle_range,vehicle_speed,seed,speed,fallback", WALK_SPEED_ROWS)
    def test_recorded_decisions(self, vehicle_range, vehicle_speed, seed, speed, fallback):
        inputs = [vehicle_range, vehicle_speed, seed]
        got = pins.WALK_SPEEDS.compute(inputs)
        assert pins.WALK_SPEEDS.agrees(inputs, [speed, fallback], got)

    def test_deterministic(self):
        model = diagonal_model()
        a = decide_walk_speed(model, 25.0, 6.0, seed=99, bounds=WALK_BOUNDS)
        b = decide_walk_speed(model, 25.0, 6.0, seed=99, bounds=WALK_BOUNDS)
        assert a == b

    def test_diagonal_model_reduces_to_marginal(self):
        # Independence: conditioning must not move the v_p distribution,
        # so the draw equals a draw from the v_p marginal at the same seed.
        model = diagonal_model()
        got = decide_walk_speed(model, 25.0, 6.0, seed=5, bounds=WALK_BOUNDS)
        marginal = model.marginalize([2])
        want = float(marginal.sample(1, seed=5)[0, 0])
        assert got.speed == pytest.approx(want, abs=1e-12)
        assert not got.used_fallback

    def test_bounds_clamp(self):
        fast = diagonal_model(means=(0.1, 5.0, 10.0, 0.4), sds=(0.03, 0.5, 0.01, 0.1))
        got = decide_walk_speed(fast, 25.0, 6.0, seed=1, bounds=(0.3, 3.0))
        assert got.speed == 3.0

    def test_stopped_vehicle_conditions_on_range_alone(self):
        got = decide_walk_speed(diagonal_model(), 25.0, 0.0, seed=2, bounds=WALK_BOUNDS)
        assert not got.used_fallback
        assert 0.3 <= got.speed <= 3.0

    def test_vehicle_past_the_line_falls_back_to_marginal(self):
        model = diagonal_model()
        got = decide_walk_speed(model, -1.0, 6.0, seed=8, bounds=WALK_BOUNDS)
        assert got.used_fallback
        want = float(model.marginalize([2]).sample(1, seed=8)[0, 0])
        assert got.speed == pytest.approx(want, abs=1e-12)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            decide_walk_speed(diagonal_model(), 25.0, 6.0, seed=0, bounds=(0.0, 3.0))

    def test_conditional_without_box_mass_falls_back_to_marginal(self):
        # 1/R and v_p strongly anti-correlated: a vehicle parked 5 mm short
        # of the line (1/R = 200) puts the conditional v_p mean near -1200,
        # where the box v_p >= 0 holds no mass and rejection would stall.
        model = diagonal_model()
        cov = model.covariances[0].copy()
        cov[0, 2] = cov[2, 0] = -0.9 * 0.03 * 0.2
        model = GaussianMixture(np.ones(1), model.means, cov[None], model.truncation)
        assert model.condition([0], [200.0], [2]).box_mass() < 1e-6
        got = decide_walk_speed(model, 0.005, 0.0, seed=8, bounds=WALK_BOUNDS)
        assert got.used_fallback
        want = float(model.marginalize([2]).sample(1, seed=8)[0, 0])
        assert got.speed == min(max(want, 0.3), 3.0)
        assert not decide_walk_speed(model, 25.0, 0.0, seed=8, bounds=WALK_BOUNDS).used_fallback


class TestSelectGoverning:
    def test_minimal_time_advantage_wins(self):
        # v=5, R=30: TTC 6 s.  Walk 1.2 -> 7.5 s (adv 1.5); walk 3.0 ->
        # 1.5 s (adv 4.5).  The slower walker is the tighter conflict.
        tight = ped(1.2, arrival_time=0.0)
        loose = ped(3.0, arrival_time=1.0)
        assert select_governing(30.0, 5.0, [loose, tight]) is tight

    def test_tie_breaks_toward_earlier_arrival(self):
        first = ped(1.5, arrival_time=0.0)
        second = ped(1.5, arrival_time=2.0)
        assert select_governing(30.0, 5.0, [second, first]) is first

    def test_none_without_pedestrians_or_past_line(self):
        assert select_governing(30.0, 5.0, []) is None
        assert select_governing(0.0, 5.0, [ped(1.5)]) is None

    def test_undefined_advantage_ranks_last(self):
        walker = ped(1.2)
        stopped = select_governing(30.0, 0.0, [walker, ped(1.5)])
        # Stopped vehicle: every advantage is undefined, earliest arrival wins.
        assert stopped is walker


class TestSoftYieldParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
    @pytest.mark.parametrize("name", ["accel_intercept", "accel_per_speed", "accel_per_range"])
    def test_coefficients_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            SoftYieldParams(**{name: value})


class TestSoftYieldDecide:
    PARAMS = SoftYieldParams()

    def test_deceleration_regression_frozen_point(self):
        plan = soft_yield_decide(self.PARAMS, 5.0, 30.0, 1.2, 9.0)
        assert plan.acceleration == pytest.approx(-0.37895, abs=1e-9)
        assert not plan.full_stop

    def test_brake_duration_zero_at_exact_slack(self):
        # v*t_c == R: the coast already clears, T1 collapses to zero.
        plan = soft_yield_decide(self.PARAMS, 5.0, 30.0, 1.5, 9.0)
        assert plan.acceleration == pytest.approx(-0.37895, abs=1e-9)
        assert plan.brake_duration == pytest.approx(0.0, abs=1e-9)

    def test_brake_duration_solves_the_rendezvous(self):
        plan = soft_yield_decide(self.PARAMS, 5.0, 30.0, 1.2, 9.0)
        a, t1 = plan.acceleration, plan.brake_duration
        t_c = 9.0 / 1.2
        covered = 5.0 * t_c + a * t1 * t_c - a * t1**2 / 2.0
        assert covered == pytest.approx(30.0, abs=1e-9)
        assert 0.0 < t1 < t_c

    def test_unresolvable_conflict_plans_a_full_stop(self):
        plan = soft_yield_decide(self.PARAMS, 5.0, 30.0, 0.75, 9.0)
        assert plan.full_stop
        assert plan.acceleration == pytest.approx(-(5.0**2) / 60.0, abs=1e-12)
        assert plan.brake_duration == pytest.approx(12.0, abs=1e-12)

    def test_no_conflict_keeps_coasting(self):
        # Positive regression accel with enough slack: nothing to do.
        plan = soft_yield_decide(self.PARAMS, 1.0, 30.0, 3.0, 9.0)
        assert plan.brake_duration == 0.0
        assert not plan.full_stop

    def test_stopped_vehicle_plans_nothing(self):
        plan = soft_yield_decide(self.PARAMS, 0.0, 30.0, 1.5, 9.0)
        assert plan == (0.0, 0.0, False)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            soft_yield_decide(self.PARAMS, 5.0, 30.0, 0.0, 9.0)
        with pytest.raises(ValueError):
            soft_yield_decide(self.PARAMS, 5.0, 30.0, 1.5, 0.0)


class TestSoftYieldStrategy:
    def strategy(self):
        return SoftYieldStrategy(SoftYieldParams(), crossing_length=9.0)

    def test_commits_once_and_holds_the_profile(self):
        strat = self.strategy()
        walker = ped(1.2)
        first = strat.command(0.0, 30.0, 5.0, [walker])
        assert first.acceleration == pytest.approx(-0.37895, abs=1e-9)
        t1 = strat.plan.brake_duration
        # Same pedestrian later, different vehicle state: no re-plan.
        mid = strat.command(t1 / 2.0, 20.0, 4.0, [walker])
        assert mid.acceleration == first.acceleration
        assert strat.plan.brake_duration == t1
        after = strat.command(t1 + 0.1, 15.0, 3.5, [walker])
        assert after.acceleration == 0.0  # coasting phase

    def test_no_pedestrian_no_brake(self):
        strat = self.strategy()
        out = strat.command(0.0, 40.0, 5.0, [])
        assert out.acceleration == 0.0
        assert not strat.decision_taken

    def test_revises_for_tighter_newcomer_during_braking(self):
        strat = self.strategy()
        strat.command(0.0, 30.0, 5.0, [ped(1.2, arrival_time=0.0)])
        first_plan = strat.plan
        tighter = ped(1.05, arrival_time=1.0)  # same adv sign, smaller gap
        strat.command(1.0, 27.0, 4.8, [ped(1.2, arrival_time=0.0), tighter])
        assert strat.plan != first_plan
        assert strat.decision_time == 1.0

    def test_ignores_looser_newcomer(self):
        strat = self.strategy()
        strat.command(0.0, 30.0, 5.0, [ped(1.2, arrival_time=0.0)])
        committed = strat.plan
        strat.command(1.0, 27.0, 4.8, [ped(1.2, arrival_time=0.0), ped(3.0, arrival_time=1.0)])
        assert strat.plan == committed

    def test_no_revision_after_braking_phase(self):
        strat = self.strategy()
        strat.command(0.0, 30.0, 5.0, [ped(1.5, arrival_time=0.0)])  # T1 = 0
        committed = strat.plan
        strat.command(2.0, 20.0, 5.0, [ped(1.5, arrival_time=0.0), ped(0.9, arrival_time=2.0)])
        assert strat.plan == committed

    def test_full_stop_flagged_exactly_once(self):
        strat = self.strategy()
        walker = ped(0.75)
        flags = [strat.command(0.05 * i, 30.0, 5.0, [walker]).fallback for i in range(40)]
        assert flags[0] is True
        assert not any(flags[1:])

    def test_settles_once_the_braking_phase_is_over(self):
        # The three holds: until a pedestrian shows up, until the brake
        # ends, and for good.
        strat = self.strategy()
        walker = ped(1.2)
        assert strat.command(0.0, 40.0, 5.0, []) == (0.0, False, math.inf, False)
        braking = strat.command(0.0, 30.0, 5.0, [walker])
        t1 = strat.plan.brake_duration
        assert braking.acceleration < 0.0 and not braking.final
        # Early, never late: a call at the hold's end still brakes.
        assert t1 - 1e-6 < braking.until < t1
        assert strat.command(braking.until, 20.0, 4.0, [walker]) == braking
        assert strat.command(t1, 15.0, 3.5, [walker]) == (0.0, False, math.inf, True)

    @given(
        walk=st.floats(0.3, 3.0),
        steps=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),  # clock increment
                st.floats(-5.0, 60.0),  # longitudinal gap
                st.floats(0.0, 8.0),  # vehicle speed
                st.floats(0.3, 3.0),  # newcomer's walk speed
                st.floats(0.0, 9.0),  # newcomer's progress
                st.booleans(),  # newcomer ties the vehicle: time advantage 0
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_a_settled_strategy_only_coasts(self, walk, steps):
        # Once a call returns a final hold, every later call returns it.
        strat = self.strategy()
        shown = [ped(walk)]
        held = strat.command(0.0, 30.0, 5.0, shown)
        clock = 0.0
        for index, (step, gap, speed, walk_new, progress, tie) in enumerate(steps, 1):
            decision = strat.command(clock, gap, speed, shown)
            if held.final:
                assert decision == held == (0.0, False, math.inf, True)
            end = strat.decision_time + strat.plan.brake_duration
            if clock - strat.decision_time < strat.plan.brake_duration:
                assert not decision.final and decision.until < end  # never late
            held = decision
            clock += step
            if tie and gap > 0 and speed > 0:
                # Reaches the vehicle path as the vehicle reaches the line.
                progress, walk_new = 0.0, max(4.5 * speed / gap, 1e-3)
            shown = shown + [ped(walk_new, arrival_time=float(index), progress=progress)]


class TestHumanDriverParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HumanDriverParams(update_interval=0.0)
        with pytest.raises(ValueError):
            HumanDriverParams(max_acceleration=-1.0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("update_interval", math.nan),
            ("update_interval", math.inf),
            ("max_acceleration", math.nan),
            ("max_acceleration", math.inf),
            ("recovery_acceleration", math.nan),
            ("recovery_acceleration", math.inf),
            ("recovery_acceleration", -1.0),
            ("update_interval", True),
            ("max_acceleration", True),
            ("recovery_acceleration", True),
        ],
    )
    def test_every_field_is_finite_with_its_sign(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            HumanDriverParams(**{name: value})


def answered(driver, decision):
    """The step's decision, after answering a mode query as the engine does."""
    if isinstance(decision, ModeQuery):
        (mode,) = conditional_modes([decision.model], [decision.interval])
        return driver.resume(mode)
    return decision


class TestHumanDriver:
    def driver(self, **kwargs):
        return HumanDriver(diagonal_model(), HumanDriverParams(**kwargs), 5.0)

    def test_queries_exactly_the_updates_that_search(self):
        drv = self.driver()
        # An update with a governing pedestrian and a defined conditional.
        query = drv.command(0.0, 20.0, 3.0, [ped(1.5)])
        assert isinstance(query, ModeQuery)
        assert query.model.dim == 1
        assert isinstance(answered(drv, query), StrategyDecision)
        # Held step, recovery with nobody to react to, and the two
        # conditioning failures: each is decided without a search.
        tie = ped(1.5, crossing_length=18.0)
        for clock, gap, speed, walkers in [
            (0.5, 20.0, 3.0, [ped(1.5)]),
            (1.0, 40.0, 2.0, []),
            (2.0, 30.0, 5.0, [tie]),
            (3.0, 30.0, 0.0, [ped(1.5)]),
        ]:
            assert isinstance(drv.command(clock, gap, speed, walkers), StrategyDecision)

    def test_requires_four_dimensional_model(self):
        with pytest.raises(ValueError):
            HumanDriver(diagonal_model(dim=2), HumanDriverParams(), 5.0)

    @pytest.mark.parametrize("speed", [0.0, -5.0, math.nan])
    def test_requires_a_positive_free_flow_speed(self, speed):
        with pytest.raises(ValueError, match="free_flow_speed"):
            HumanDriver(diagonal_model(), HumanDriverParams(), speed)

    def test_recovery_toward_free_flow(self):
        # No pedestrians at v0 - 3 must command the recovery accel.
        drv = self.driver()
        out = drv.command(0.0, 40.0, 2.0, [])
        assert out.acceleration == pytest.approx(1.0, abs=1e-12)

    def test_no_acceleration_at_free_flow(self):
        drv = self.driver()
        assert drv.command(0.0, 40.0, 5.0, []).acceleration == 0.0

    def test_recovery_trims_between_updates(self):
        # Held +1 command must cut to zero the step free flow is reached,
        # not at the next scheduled update, so the ramp holds for no step.
        drv = self.driver()
        assert drv.command(0.0, 40.0, 4.9, []) == (1.0, False, 0.0, False)
        assert drv.command(0.05, 40.0, 4.95, []) == (1.0, False, 0.0, False)
        held = drv.command(0.5, 40.0, 5.3, [])
        assert held.acceleration == 0.0 and 1.0 - 1e-6 < held.until < 1.0

    def test_steers_toward_conditional_mode(self):
        # Independent coordinates: the desired speed is the v marginal's
        # mode regardless of the pedestrian, so accel = (5 - v)/interval.
        drv = self.driver()
        out = answered(drv, drv.command(0.0, 20.0, 3.0, [ped(1.5)]))
        assert out.acceleration == pytest.approx(2.0, abs=1e-6)

    def test_acceleration_clamped(self):
        drv = self.driver(max_acceleration=1.5)
        out = answered(drv, drv.command(0.0, 20.0, 1.0, [ped(1.5)]))
        assert out.acceleration == 1.5

    def test_holds_between_updates(self):
        drv = self.driver(update_interval=1.0)
        first = answered(drv, drv.command(0.0, 20.0, 3.0, [ped(1.5)]))
        # The hold ends early, never late: up to its end, even in a very
        # different world, a call returns it verbatim.
        assert 1.0 - 1e-6 < first.until < 1.0 and not first.final
        for clock in (0.4, first.until):
            assert drv.command(clock, 5.0, 1.0, [ped(0.5, progress=2.0)]) == first
        nxt = answered(drv, drv.command(1.0, 5.0, 1.0, [ped(0.5, progress=2.0)]))
        assert nxt.acceleration != first.acceleration

    def test_zero_time_advantage_falls_back_and_flags_once(self):
        drv = self.driver()
        # crossing_length 18: lateral gap 9 at walk 1.5 -> 6 s, equal to
        # TTC 30/5: the arrival tie has no observation-space image.
        tie = ped(1.5, crossing_length=18.0)
        first = drv.command(0.0, 30.0, 5.0, [tie])
        assert first.fallback
        assert first.acceleration == 0.0
        held = drv.command(0.3, 30.0, 5.0, [tie])
        assert not held.fallback  # held copy must not re-count the event

    def test_stopped_vehicle_falls_back(self):
        drv = self.driver()
        out = drv.command(0.0, 30.0, 0.0, [ped(1.5)])
        assert out.fallback
        assert out.acceleration == 0.0
