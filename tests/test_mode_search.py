"""The fixed-point mode search and the human driver's decisions, against oracles.

``conditional_mode`` is checked against an independent brute-force
oracle (dense grid bracket, then a root of the density derivative), and
the human driver's decision path against desired speeds recorded from
the earlier grid-plus-golden-section search.  The batched search,
``conditional_modes``, is checked bit for bit against
``reference_conditional_mode``, a copy of the one-search-at-a-time
implementation it replaced.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pins
from crossingsim import mixture, sim
from crossingsim.agents import (
    HumanDriver,
    HumanDriverParams,
    Pedestrian,
    SoftYieldParams,
    SoftYieldStrategy,
)
from crossingsim.ingest import reference_generator
from crossingsim.mixture import (
    ConditioningError,
    DegenerateTruncationError,
    GaussianMixture,
    TruncationBox,
    conditional_mode,
    conditional_modes,
)

# ---------------------------------------------------------------------------
# conditional_mode against a brute-force oracle
# ---------------------------------------------------------------------------


def mixture_1d(weights, means, sds, truncation=None):
    return GaussianMixture(
        np.asarray(weights, dtype=float),
        np.asarray(means, dtype=float)[:, None],
        (np.asarray(sds, dtype=float) ** 2)[:, None, None],
        truncation=truncation,
    )


def oracle_mode(model, lo, hi, grid_points=200_001):
    """Argmax of the density on [lo, hi] inside the box, by brute force.

    Brackets every local maximum of a dense grid, solves the density
    derivative for its root inside the bracket, and compares those
    stationary points with the ends of the search range by density.
    """
    w = model.weights
    m = model.means[:, 0]
    s = np.sqrt(model.covariances[:, 0, 0])
    if model.truncation is not None:
        lo = max(lo, float(model.truncation.lower[0]))
        hi = min(hi, float(model.truncation.upper[0]))

    def pdf(x):
        z = (np.asarray(x, dtype=float)[..., None] - m) / s
        return (w * np.exp(-0.5 * z * z) / s).sum(axis=-1)

    def slope(x):
        z = (x - m) / s
        return float((w * np.exp(-0.5 * z * z) * -z / (s * s)).sum())

    xs = np.linspace(lo, hi, grid_points)
    f = pdf(xs)
    peaks = np.flatnonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:])) + 1
    candidates = [lo, hi]
    for i in peaks:
        a, b = xs[i - 1], xs[i + 1]
        if slope(a) > 0 > slope(b):
            candidates.append(brentq(slope, a, b, xtol=1e-15, rtol=4 * np.finfo(float).eps))
        else:
            candidates.append(xs[i])
    candidates = np.array(candidates)
    return float(candidates[np.argmax(pdf(candidates))])


def random_mixture_1d(rng, k):
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-3.0, 3.0, size=k)
    sds = rng.uniform(0.2, 1.5, size=k)
    return weights, means, sds


class TestConditionalModeOracle:
    def test_random_mixtures(self):
        rng = np.random.Generator(np.random.PCG64(2000))
        for _ in range(60):
            model = mixture_1d(*random_mixture_1d(rng, int(rng.integers(1, 5))))
            assert conditional_mode(model, (-6.0, 6.0)) == pytest.approx(
                oracle_mode(model, -6.0, 6.0), abs=1e-9
            )

    def test_random_sub_intervals_put_modes_on_the_boundary(self):
        rng = np.random.Generator(np.random.PCG64(2001))
        on_boundary = 0
        for _ in range(60):
            model = mixture_1d(*random_mixture_1d(rng, int(rng.integers(1, 4))))
            lo, hi = np.sort(rng.uniform(-5.0, 5.0, size=2))
            if hi - lo < 0.1:
                continue
            want = oracle_mode(model, lo, hi)
            on_boundary += want in (lo, hi)
            assert conditional_mode(model, (lo, hi)) == pytest.approx(want, abs=1e-9)
        assert on_boundary >= 10

    def test_truncated_mixtures_and_the_box_edge(self):
        # The interval reaches below the box: a mass piled against the
        # edge has its mode exactly there.
        rng = np.random.Generator(np.random.PCG64(2002))
        box = TruncationBox.positive_orthant(1)
        at_edge = 0
        for _ in range(40):
            weights, means, sds = random_mixture_1d(rng, int(rng.integers(1, 4)))
            model = mixture_1d(weights, means, sds, truncation=box)
            want = oracle_mode(model, -2.0, 6.0)
            at_edge += want == 0.0
            assert conditional_mode(model, (-2.0, 6.0)) == pytest.approx(want, abs=1e-9)
        assert at_edge >= 5

    @pytest.mark.parametrize("tilt", [1e-4, -1e-4, 1e-6, -1e-6])
    def test_near_tied_bimodal(self, tilt):
        model = mixture_1d([0.5 + tilt, 0.5 - tilt], [-2.0, 2.0], [0.5, 0.5])
        got = conditional_mode(model, (-5.0, 5.0))
        assert got == pytest.approx(oracle_mode(model, -5.0, 5.0), abs=1e-9)
        assert (got < 0) == (tilt > 0)

    def test_unequal_widths_overlapping(self):
        # One broad mode made of two components, off both means.
        model = mixture_1d([0.5, 0.5], [0.0, 1.2], [1.0, 0.8])
        got = conditional_mode(model, (-4.0, 5.0))
        assert got == pytest.approx(oracle_mode(model, -4.0, 5.0), abs=1e-9)
        assert 0.0 < got < 1.2

    def test_flat_top_mode(self):
        # Two components just short of merging into one flat peak: the
        # density is flat to rounding within a few 1e-7 of the mode, and
        # the fixed-point iteration alone creeps towards it (error 1e-3 at
        # the step cap); the Newton step on the log density lands on it.
        model = mixture_1d([0.5, 0.5], [-0.999, 0.999], [1.0, 1.0])
        assert conditional_mode(model, (-5.0, 5.0)) == pytest.approx(0.0, abs=1e-6)

    def test_deterministic(self):
        model = mixture_1d([0.3, 0.7], [1.0, 2.5], [0.4, 0.9])
        runs = {conditional_mode(model, (0.0, 6.0)) for _ in range(5)}
        assert len(runs) == 1


class TestConditionalModeErrors:
    def test_underflowing_weight_zero_component_raises_like_the_density(self):
        # A weight-0 component whose box mass underflows makes every
        # density evaluation of the model raise; the mode search must too.
        model = mixture_1d(
            [0.0, 1.0], [-60.0, 3.0], [1.0, 1.0], truncation=TruncationBox.positive_orthant(1)
        )
        with pytest.raises(DegenerateTruncationError):
            model.normalization()
        with pytest.raises(DegenerateTruncationError):
            conditional_mode(model, (0.0, 10.0))

    def test_bad_arguments(self):
        model = mixture_1d([1.0], [0.0], [1.0])
        for interval in [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                conditional_mode(model, interval)

    def test_interval_outside_the_box_returns_its_lower_end(self):
        # Zero density everywhere on the interval: every point ties.
        model = mixture_1d([1.0], [1.0], [1.0], truncation=TruncationBox.positive_orthant(1))
        assert conditional_mode(model, (-3.0, -1.0)) == -3.0


# ---------------------------------------------------------------------------
# Human driver decisions
# ---------------------------------------------------------------------------

# (1/R, v_p, 1/T_adv) conditioning points met by the human baseline on the
# reference model, with the desired speed that the earlier
# grid-plus-golden-section search returned for each, or the error it raised
# (human_corpus.json).
HUMAN = pins.HUMAN_DECISIONS
RAISES = DegenerateTruncationError.__name__
HUMAN_MODES = [(*inputs, outcome) for inputs, outcome in HUMAN.rows() if outcome != RAISES]
# Where the search raised, the 1-D conditional has weights [0, 0, 1] and
# means near -41, and the box mass of a weight-0 component underflows, so
# the driver holds its speed.
HUMAN_RAISING = [tuple(inputs) for inputs, outcome in HUMAN.rows() if outcome == RAISES]


class TestHumanDriverDecisions:
    @pytest.mark.parametrize("inv_r,walk,inv_adv,recorded", HUMAN_MODES)
    def test_recorded_speeds(self, inv_r, walk, inv_adv, recorded):
        # Within 1e-6, and the mode's density no lower than the recording's.
        inputs = [inv_r, walk, inv_adv]
        desired = HUMAN.compute(inputs)
        assert HUMAN.agrees(inputs, recorded, desired)

    @pytest.mark.parametrize("inv_r,walk,inv_adv", HUMAN_RAISING)
    def test_recorded_failures_still_raise(self, inv_r, walk, inv_adv):
        inputs = [inv_r, walk, inv_adv]
        np.testing.assert_array_equal(pins.human_conditional(inputs).weights[:2], 0.0)
        assert HUMAN.agrees(inputs, RAISES, HUMAN.compute(inputs))

    def test_failed_conditioner_build_falls_back_on_every_update(self, monkeypatch):
        def singular(*args):
            raise ConditioningError("an observed-block covariance is singular")

        monkeypatch.setattr(mixture, "Conditioner", singular)
        driver = HumanDriver(reference_generator(), HumanDriverParams(), 5.0)
        walker = Pedestrian(arrival_time=0.0, side="near", walk_speed=1.3, crossing_length=9.0)
        for clock in (0.0, 1.0):
            decision = driver.command(clock, 20.0, 5.0, [walker])
            assert decision.fallback
            assert decision.acceleration == 0.0


# ---------------------------------------------------------------------------
# The batched search against the one-search-at-a-time reference
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)
_MODE_TOLERANCE = 1e-12
_MODE_MAX_STEPS = 500
_MODE_GRID_POINTS = 2048


def _logsumexp_rows(values: np.ndarray) -> np.ndarray:
    top = values.max(axis=1)
    top = np.where(np.isneginf(top), 0.0, top)
    total = np.exp(values - top[:, None]).sum(axis=1)
    return top + np.log(total, out=np.full(total.shape, -np.inf), where=total > 0)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    return np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)


def reference_conditional_mode(model: GaussianMixture, interval: tuple[float, float]) -> float:
    """Highest-density point of a 1-D mixture on a closed interval.

    Scans a uniform grid of _MODE_GRID_POINTS points (endpoints
    included), then runs the fixed-point mode iteration of
    Carreira-Perpinan (2000, "Mode-finding for mixtures of Gaussian
    distributions")

        x <- sum_k r_k(x) m_k / s_k^2  /  sum_k r_k(x) / s_k^2,

    with r_k(x) the responsibility of component k at x, from every
    component mean and from the best grid point at once, each iterate
    clipped to the part of the interval inside the truncation box.  One
    Newton step on the log density then polishes each end point.  Of the
    best grid point and all end points, the one with the highest density
    wins; exact ties resolve toward the lower value, so the result never
    has lower density than any grid point.

    Raises:
        ValueError: the model is not 1-D, or a bad interval.
        DegenerateTruncationError: a component's box mass underflows, as
            in every density evaluation of the model.
    """
    if model.dim != 1:
        raise ValueError("conditional_mode requires a 1-D model")
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"interval must be finite with lo < hi, got ({lo}, {hi})")
    # Column vectors over the components; points run along axis 1.
    means = model.means[:, :1]
    precisions = 1.0 / model.covariances[:, :, 0]
    log_peaks = _log_weights(model.weights)[:, None] + 0.5 * (
        np.log(precisions) - _LOG_2PI
    )
    log_c = 0.0
    support_lo, support_hi = lo, hi
    if model.truncation is not None:
        log_c = math.log(model.normalization())
        support_lo = max(lo, float(model.truncation.lower[0]))
        support_hi = min(hi, float(model.truncation.upper[0]))

    def log_terms(x: np.ndarray) -> np.ndarray:
        """log(w_k N(x; m_k, s_k^2)), one row per component."""
        return log_peaks - 0.5 * precisions * (x - means) ** 2

    def responsibilities(x: np.ndarray) -> np.ndarray:
        terms = log_terms(x)
        return np.exp(terms - terms.max(axis=0))

    def density(x: np.ndarray) -> np.ndarray:
        log_dens = _logsumexp_rows(log_terms(x).T) - log_c
        return np.where((x >= support_lo) & (x <= support_hi), np.exp(log_dens), 0.0)

    grid = np.linspace(lo, hi, _MODE_GRID_POINTS)
    candidates = [grid[[int(np.argmax(density(grid)))]]]  # first max: lowest tie
    if support_lo <= support_hi:
        x = np.clip(np.append(means, candidates[0]), support_lo, support_hi)
        for _ in range(_MODE_MAX_STEPS):
            resp = responsibilities(x) * precisions
            step = (resp * means).sum(axis=0) / resp.sum(axis=0)
            step = np.clip(step, support_lo, support_hi)
            settled = np.abs(step - x) <= _MODE_TOLERANCE * (1.0 + np.abs(x))
            x = step
            if settled.all():
                break
        # Newton on g = log density: g' = E[d], g'' = E[d^2] - g'^2 - E[1/s^2]
        # with d_k = (m_k - x) / s_k^2 and E over the responsibilities.
        resp = responsibilities(x)
        resp /= resp.sum(axis=0)
        pull = (means - x) * precisions
        slope = (resp * pull).sum(axis=0)
        curvature = (resp * (pull * pull - precisions)).sum(axis=0) - slope * slope
        concave = curvature < 0
        polished = x[concave] - slope[concave] / curvature[concave]
        candidates += [x, np.clip(polished, support_lo, support_hi)]
    points = np.concatenate(candidates)
    dens = density(points)
    return float(points[dens == dens.max()].min())


def assert_same_outcome(got, model, interval):
    """``got`` has the bits of the reference search, or its error."""
    try:
        want = reference_conditional_mode(model, interval)
    except ValueError as exc:
        assert type(got) is type(exc) and str(got) == str(exc), (got, exc)
        return "raised"
    assert isinstance(got, float), got
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (got, want)
    return "returned"


class TestBatchedAgainstReference:
    def test_every_search_of_the_200_pair_evaluate(self, monkeypatch):
        # The engine's own batches, as it forms them round by round.
        calls = []

        def recording(models, intervals):
            found = conditional_modes(models, intervals)
            calls.append((models, intervals, found))
            return found

        monkeypatch.setattr(sim, "conditional_modes", recording)
        model = reference_generator()
        config = sim.SimConfig()
        sim.run_paired_experiments(
            config,
            model,
            partial(SoftYieldStrategy, SoftYieldParams(), config.crossing_length),
            partial(HumanDriver, model, HumanDriverParams(), config.free_flow_speed),
            200,
            10004,
        )
        outcomes = [
            assert_same_outcome(got, m, interval)
            for models, intervals, found in calls
            for m, interval, got in zip(models, intervals, found)
        ]
        assert outcomes.count("returned") == 778
        assert outcomes.count("raised") == 21
        assert max(len(models) for models, _, _ in calls) > mixture._MODE_BATCH_ROWS

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_batches(self, data):
        searches = data.draw(st.lists(search_cases(), min_size=1, max_size=12))
        models = [model for model, _ in searches]
        intervals = [interval for _, interval in searches]
        for got, model, interval in zip(conditional_modes(models, intervals), models, intervals):
            assert_same_outcome(got, model, interval)

    def test_raising_rows_leave_the_others_alone(self):
        box = TruncationBox.positive_orthant(1)
        good = mixture_1d([0.3, 0.7], [1.0, 2.5], [0.4, 0.9], truncation=box)
        underflow = mixture_1d([0.0, 1.0], [-60.0, 3.0], [1.0, 1.0], truncation=box)
        two_d = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        models = [good, underflow, good, two_d, good]
        intervals = [(0.0, 6.0), (0.0, 10.0), (0.5, 2.0), (0.0, 1.0), (2.0, 1.0)]
        found = conditional_modes(models, intervals)
        assert isinstance(found[1], DegenerateTruncationError)
        assert isinstance(found[3], ValueError) and isinstance(found[4], ValueError)
        assert found[0] == conditional_mode(good, (0.0, 6.0))
        assert found[2] == conditional_mode(good, (0.5, 2.0))
        assert conditional_modes([], []) == []
        with pytest.raises(ValueError):
            conditional_modes([good], [])


@st.composite
def search_cases(draw):
    """One (1-D model, interval) search: weight-0 components, flat tops,
    intervals the box cuts or misses, subnormal widths, and searches that
    raise."""
    kind = draw(st.sampled_from(["random", "flat-top", "underflow", "bad-interval", "subnormal"]))
    k = draw(st.integers(1, 9))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    if weights.sum() == 0.0:
        weights[0] = 1.0
    weights /= weights.sum()
    means = np.array(draw(st.lists(st.floats(-4.0, 6.0), min_size=k, max_size=k)))
    sds = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k)))
    if kind == "flat-top":
        weights, means, sds = [0.5, 0.5], [-0.999, 0.999], [1.0, 1.0]
    elif kind == "underflow":
        weights, means, sds = [0.0, 1.0], [-60.0, 3.0], [1.0, 1.0]
    box = draw(
        st.sampled_from(
            [None, TruncationBox.positive_orthant(1), TruncationBox(np.array([-1.0]), np.array([2.5]))]
        )
    )
    if kind == "underflow":
        box = TruncationBox.positive_orthant(1)
    lo = draw(st.floats(-6.0, 5.0))
    hi = lo + draw(st.floats(0.01, 8.0))
    if kind == "bad-interval":
        lo, hi = draw(st.sampled_from([(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)]))
    elif kind == "subnormal":  # grid steps that underflow to 0, as linspace scales them
        lo, hi = draw(st.sampled_from([(0.0, 1e-320), (-1e-321, 1e-321), (0.0, 1.5e-320)]))
    return mixture_1d(weights, means, sds, truncation=box), (lo, hi)
