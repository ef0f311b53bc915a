"""The fixed-point mode search and the human driver's decisions, against oracles.

``conditional_mode`` is checked against an independent brute-force
oracle (dense grid bracket, then a root of the density derivative), and
the human driver's decision path against desired speeds recorded from
the earlier grid-plus-golden-section search.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from crossingsim import mixture
from crossingsim.agents import HumanDriver, HumanDriverParams, Pedestrian
from crossingsim.ingest import reference_generator
from crossingsim.mixture import (
    Conditioner,
    ConditioningError,
    DegenerateTruncationError,
    GaussianMixture,
    TruncationBox,
    conditional_mode,
)
from crossingsim.scenario import (
    OBS_INV_RANGE,
    OBS_INV_TIME_ADVANTAGE,
    OBS_WALK_SPEED,
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
# reference model, with the desired speed that the grid-plus-golden-section
# search returned for each.
HUMAN_CORPUS = [
    (0.06097272378999361, 0.8625492972379283, 8.279081456158707, 0.0),
    (0.039603960396039604, 0.6950572829634454, 2.108430138553845, 2.3322457644546355),
    (0.09219697554944506, 0.9429776719769367, 1.41301082196614, 2.6513587168296837),
    (0.052819723285501614, 1.2132265809555502, 1.3125483585929405, 2.954459927447618),
    (0.18492991269252632, 0.9816423601160719, 0.5905408362050523, 3.1736015557242707),
    (0.13118836791969438, 1.355179200779614, 0.7475025148662438, 4.526552438335399),
    (0.1021493338161789, 0.9947417902416787, 0.7440509730134054, 4.6560492523299475),
    (0.11341078696216045, 1.1508720008716853, 0.6034448733398271, 4.829892950236397),
    (0.06746789376019245, 0.5974334371508772, 0.5610529214229277, 5.102319395782124),
    (0.05025939289328012, 1.0684129688960875, 0.8028623948730367, 5.187265159204621),
    (0.0900139310781507, 0.9053663129998071, 0.385821445311856, 5.2829406400472045),
    (0.07231114930714092, 1.1856449850506605, 0.5619662805435746, 5.368409779647109),
    (0.08384920618638937, 1.4245707750132033, 0.46791298504534085, 5.511322493047256),
    (0.08714177172416086, 1.5784675647198276, 0.472709176487147, 5.551246273368231),
    (0.07865912265320812, 1.319117343450344, 0.3724446338406214, 5.702496868938292),
    (0.039603960396039604, 1.1435702417318325, 0.4842719801425047, 5.879923411829849),
    (0.039603960396039604, 1.2132265809555502, 0.43651301214655747, 7.509863188621292),
    (0.046652299227247875, 0.8445567130086167, 0.22534734838559387, 8.085113832281438),
    (0.039603960396039604, 1.4523190444149083, 0.344648455704063, 8.333851175827494),
    (0.039603960396039604, 2.03378197192596, 0.264035225139623, 9.148988882313686),
]

# Points where that search raised: the 1-D conditional has weights
# [0, 0, 1] and means near -41, and the box mass of a weight-0 component
# underflows, so the driver holds its speed.
HUMAN_CORPUS_RAISING = [
    (0.06026768910221262, 0.8445567130086167, 12.098857360871472),
    (0.0590992807971149, 0.8239179585171776, 12.416791622742437),
]


@pytest.fixture(scope="module")
def human_path():
    model = reference_generator()
    conditioner = Conditioner(model, [OBS_INV_RANGE, OBS_WALK_SPEED, OBS_INV_TIME_ADVANTAGE])
    return conditioner, HumanDriver._speed_interval(model)


class TestHumanDriverDecisions:
    @pytest.mark.parametrize("inv_r,walk,inv_adv,recorded", HUMAN_CORPUS)
    def test_recorded_speeds(self, human_path, inv_r, walk, inv_adv, recorded):
        conditioner, interval = human_path
        conditional = conditioner([inv_r, walk, inv_adv])
        desired = conditional_mode(conditional, interval)
        assert desired == pytest.approx(recorded, abs=1e-6)
        # The golden-section result sits within 4e-8 of the mode, where
        # the density is flat to rounding; allow a few ulps.
        new, old = conditional.density(np.array([[desired], [recorded]]))
        assert new >= old * (1.0 - 4 * np.finfo(float).eps)

    @pytest.mark.parametrize("inv_r,walk,inv_adv", HUMAN_CORPUS_RAISING)
    def test_recorded_failures_still_raise(self, human_path, inv_r, walk, inv_adv):
        conditioner, interval = human_path
        conditional = conditioner([inv_r, walk, inv_adv])
        np.testing.assert_array_equal(conditional.weights[:2], 0.0)
        with pytest.raises(DegenerateTruncationError):
            conditional_mode(conditional, interval)

    def test_failed_conditioner_build_falls_back_on_every_update(self, monkeypatch):
        def singular(*args):
            raise ConditioningError("an observed-block covariance is singular")

        monkeypatch.setattr(mixture, "Conditioner", singular)
        driver = HumanDriver(reference_generator(), HumanDriverParams())
        walker = Pedestrian(arrival_time=0.0, side="near", walk_speed=1.3, crossing_length=9.0)
        for clock in (0.0, 1.0):
            decision = driver.command(clock, 20.0, 5.0, [walker])
            assert decision.fallback
            assert decision.acceleration == 0.0
