"""Batch acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single verdict
line (PASS or FAIL) even when pytest captures output, so a plain
``pytest tests/test_acceptance.py`` run reads as a checklist.  Stated
runtime budgets are asserted with wall-clock measurements around the
computational core of each criterion.
"""

import functools
import itertools
import math
import time
from functools import partial

import numpy as np
from scipy import integrate

from crossingsim.agents import (
    ArrivalSchedule,
    HumanDriver,
    HumanDriverParams,
    SoftYieldParams,
    SoftYieldStrategy,
    StrategyDecision,
    sample_arrivals,
    soft_yield_decide,
)
from crossingsim.cli import main as cli_main
from crossingsim.config import EvalConfig, RunConfig
from crossingsim.ingest import reference_generator
from crossingsim.metrics import compute_report
from crossingsim.mixture import (
    FitConfig,
    GaussianComponent,
    GaussianMixture,
    TruncationBox,
    em_fit,
    select_components,
    truncated_moments,
)
from crossingsim.sim import (
    EpisodeResult,
    PairResult,
    SimConfig,
    run_episode,
    run_paired_experiments,
)


def criterion(number, name):
    """Emit one verdict line per criterion, bypassing output capture."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            capsys = kwargs["capsys"]
            try:
                fn(**kwargs)
            except BaseException:
                _verdict(capsys, number, name, passed=False)
                raise
            _verdict(capsys, number, name, passed=True)

        return run

    return wrap


def _verdict(capsys, number, name, passed):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {name}: {'PASS' if passed else 'FAIL'}")


def episode(passing_time=None, crashed=False, timed_out=False):
    return EpisodeResult(
        passing_time=passing_time,
        crashed=crashed,
        crash_time=0.5 if crashed else None,
        timed_out=timed_out,
        arrival_times=(),
        sides=(),
        walk_speeds=(),
        walk_speed_fallbacks=(),
        strategy_fallbacks=0,
    )


class NeverBrake:
    """Holds speed no matter what; used to force collisions."""

    def command(self, clock, longitudinal_gap, vehicle_speed, pedestrians):
        return StrategyDecision(acceleration=0.0)


def three_cluster_data(seed, n=800):
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = rng.multinomial(n, [0.5, 0.3, 0.2])
    parts = [
        rng.multivariate_normal([0, 0], [[1.0, 0.3], [0.3, 0.8]], size=sizes[0]),
        rng.multivariate_normal([6, 1], [[0.6, -0.2], [-0.2, 1.2]], size=sizes[1]),
        rng.multivariate_normal([2, 7], [[0.9, 0.0], [0.0, 0.5]], size=sizes[2]),
    ]
    return np.concatenate(parts)


@criterion(1, "score report matches closed forms")
def test_01_report_closed_forms(capsys):
    rng = np.random.Generator(np.random.PCG64(101))
    start = time.perf_counter()
    for _ in range(20):
        # baseline time 1.0 keeps the intended ratios exact in binary
        taus = rng.uniform(0.3, 2.5, size=int(rng.integers(3, 40)))
        n_crashed = int(rng.integers(0, 3))
        n_timed_out = int(rng.integers(0, 2))
        pairs = [PairResult(i, episode(float(t)), episode(1.0)) for i, t in enumerate(taus)]
        pairs += [
            PairResult(len(pairs) + j, episode(crashed=True), episode(1.0))
            for j in range(n_crashed)
        ]
        pairs += [
            PairResult(len(pairs) + j, episode(timed_out=True), episode(1.0))
            for j in range(n_timed_out)
        ]
        report = compute_report(pairs)

        mean = taus.sum() / taus.size
        sigma = math.sqrt(np.square(taus - mean).sum() / taus.size)
        running = np.cumsum(taus) / np.arange(1, taus.size + 1)
        assert abs(report.mu - mean) < 1e-12
        assert abs(report.sigma - sigma) < 1e-12
        assert abs(report.cv - sigma / mean) < 1e-12
        assert abs(report.kappa - (n_crashed + n_timed_out) / len(pairs)) < 1e-12
        assert np.max(np.abs(np.asarray(report.running_mean) - running)) < 1e-12
    assert time.perf_counter() - start < 1.0


@criterion(2, "conditional density equals renormalized joint slices")
def test_02_conditional_vs_grid_slices(capsys):
    rng = np.random.Generator(np.random.PCG64(202))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k))
        means = rng.uniform(-3.0, 3.0, size=(k, 2))
        covs = np.empty((k, 2, 2))
        for j in range(k):
            a = rng.normal(size=(2, 2))
            covs[j] = a @ a.T + 0.3 * np.eye(2)
        model = GaussianMixture(weights, means, covs)

        obs_dim = int(rng.integers(0, 2))
        free_dim = 1 - obs_dim
        value = float(rng.normal(means[:, obs_dim].mean(), 1.0))
        cond = model.condition([obs_dim], [value])

        # the oracle renormalizes a raw joint slice on a window wide
        # enough that the tail mass lost to it sits far below tolerance
        sd = float(np.sqrt(cond.covariances[:, 0, 0].max()))
        xs = np.linspace(
            float(cond.means.min()) - 14.0 * sd,
            float(cond.means.max()) + 14.0 * sd,
            16385,
        )
        slice_points = np.empty((xs.size, 2))
        slice_points[:, obs_dim] = value
        slice_points[:, free_dim] = xs
        normalizer = integrate.simpson(model.density(slice_points), x=xs)

        grid = np.linspace(
            float(cond.means.min()) - 6.0 * sd, float(cond.means.max()) + 6.0 * sd, 401
        )
        probe = np.empty((grid.size, 2))
        probe[:, obs_dim] = value
        probe[:, free_dim] = grid
        oracle = model.density(probe) / normalizer
        worst = max(worst, float(np.max(np.abs(cond.density(grid[:, None]) - oracle))))
    assert worst < 1e-6
    assert time.perf_counter() - start < 30.0


@criterion(3, "EM recovers a known three-component generator")
def test_03_em_recovery(capsys):
    generator = GaussianMixture(
        np.array([0.5, 0.3, 0.2]),
        np.array([[0.0, 0.0], [6.0, 1.0], [2.0, 7.0]]),
        np.array(
            [
                [[1.0, 0.3], [0.3, 0.8]],
                [[0.6, -0.2], [-0.2, 1.2]],
                [[0.9, 0.0], [0.0, 0.5]],
            ]
        ),
    )
    data = generator.sample(5000, seed=13)
    start = time.perf_counter()
    model, _ = em_fit(data, FitConfig(n_components=3, restarts=5, seed=5))
    elapsed = time.perf_counter() - start

    assert model.log_likelihood(data) >= generator.log_likelihood(data)

    best = None
    for perm in itertools.permutations(range(3)):
        errors = [
            float(np.linalg.norm(generator.means[i] - model.means[p]))
            for i, p in enumerate(perm)
        ]
        if best is None or sum(errors) < sum(best):
            best = errors
    assert max(best) < 0.1
    assert elapsed < 60.0


@criterion(4, "truncation-aware EM removes the boundary bias")
def test_04_truncated_em_superiority(capsys):
    rng = np.random.Generator(np.random.PCG64(7))
    data = np.abs(rng.standard_normal(5000))[:, None]
    start = time.perf_counter()
    fixed, _ = em_fit(
        data,
        FitConfig(n_components=1, truncation_mode="truncated", max_iterations=1000),
    )
    naive, _ = em_fit(data, FitConfig(n_components=1))
    elapsed = time.perf_counter() - start

    assert abs(float(fixed.means[0, 0])) < 0.05
    assert float(naive.means[0, 0]) > 0.7
    assert elapsed < 30.0


@criterion(5, "half-normal truncated moments")
def test_05_truncated_moment_oracle(capsys):
    component = GaussianComponent(np.zeros(1), np.eye(1))
    box = TruncationBox(np.array([0.0]), np.array([np.inf]))
    target_mean = math.sqrt(2.0 / math.pi)
    target_var = 1.0 - 2.0 / math.pi
    # analytic targets agree with the quoted six-digit values
    assert abs(target_mean - 0.797885) < 1e-6
    assert abs(target_var - 0.363380) < 1e-6

    exact = truncated_moments(component, box, method="exact")
    assert abs(exact.mass - 0.5) < 1e-9
    assert abs(float(exact.mean[0]) - target_mean) < 1e-9
    assert abs(float(exact.covariance[0, 0]) - target_var) < 1e-9

    mc = truncated_moments(component, box, method="mc", n_accepted=2_000_000, seed=11)
    assert abs(mc.mass - 0.5) < 1e-3
    assert abs(float(mc.mean[0]) - target_mean) < 1e-3
    assert abs(float(mc.covariance[0, 0]) - target_var) < 1e-3


@criterion(6, "yield plan arithmetic at the reference operating point")
def test_06_yield_plan_arithmetic(capsys):
    params = SoftYieldParams()
    braking = soft_yield_decide(params, 5.0, 30.0, 1.2, 9.0)
    assert abs(braking.acceleration - (-0.37895)) < 1e-6

    exact_tie = soft_yield_decide(params, 5.0, 30.0, 1.5, 9.0)
    assert abs(exact_tie.brake_duration) < 1e-9


@criterion(7, "information-criterion curve flattens at the true count")
def test_07_component_count_selection(capsys):
    start = time.perf_counter()
    hits = 0
    for trial in range(10):
        data = three_cluster_data(trial)
        result = select_components(
            data,
            range(1, 9),
            FitConfig(n_components=1, seed=trial),
            rate_threshold=0.10,
        )
        hits += result.selected_k in (3, 4, 5)
    assert hits >= 9
    assert time.perf_counter() - start < 300.0


@criterion(8, "poisson arrival gap frequencies")
def test_08_poisson_zero_probability(capsys):
    trials = 10_000
    zeros = sum(
        1 for seed in range(trials) if len(sample_arrivals(0.05, 20.0, seed)) == 0
    )
    assert abs(zeros / trials - 0.3679) <= 0.01


@criterion(9, "self-comparison is exactly neutral")
def test_09_paired_protocol_neutrality(capsys):
    model = reference_generator()
    config = SimConfig()
    factory = partial(HumanDriver, model, HumanDriverParams(), config.free_flow_speed)
    pairs = run_paired_experiments(config, model, factory, factory, 50, master_seed=2026)
    report = compute_report(pairs)
    assert report.mu == 1.0
    assert report.cv == 0.0
    assert all(value == 1.0 for value in report.tau)
    for pair in pairs:
        assert pair.candidate.walk_speeds == pair.baseline.walk_speeds
        assert pair.candidate.arrival_times == pair.baseline.arrival_times
        assert pair.candidate.sides == pair.baseline.sides


@criterion(10, "reports are byte-identical across worker counts")
def test_10_parallel_determinism(capsys, tmp_path):
    config = RunConfig(eval=EvalConfig(n_experiments=50))
    cfg_path = tmp_path / "config.json"
    config.save(cfg_path)
    blobs = []
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        reference_generator().save(out / "model.json")
        rc = cli_main(
            [
                "evaluate",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--parallel",
                workers,
                "--seed",
                "99",
            ]
        )
        assert rc == 0
        blobs.append(
            ((out / "report.json").read_bytes(), (out / "series.csv").read_bytes())
        )
    assert blobs[0] == blobs[1]


@criterion(11, "free-flow passing time")
def test_11_free_flow_kinematics(capsys):
    config = SimConfig()
    strategy = SoftYieldStrategy(SoftYieldParams(), config.crossing_length)
    result = run_episode(config, strategy, ArrivalSchedule(np.array([]), ()))
    expected = (
        config.trigger_range + 2.0 * config.vehicle_half_length
    ) / config.free_flow_speed
    assert result.completed
    assert abs(result.passing_time - expected) <= config.dt + 1e-12


@criterion(12, "crash detection separates collision from near miss")
def test_12_crash_sensitivity(capsys):
    schedule = ArrivalSchedule(np.array([0.0]), ("near",))
    collision = run_episode(SimConfig(), NeverBrake(), schedule, walk_speeds=[0.65])
    assert collision.crashed
    assert collision.crash_time is not None

    near_miss = run_episode(SimConfig(), NeverBrake(), schedule, walk_speeds=[1.45])
    assert not near_miss.crashed
    assert near_miss.completed
