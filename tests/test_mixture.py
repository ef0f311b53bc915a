"""Truncated mixtures: moments, densities, conditioning, EM, and selection.

Closed-form oracle values are frozen as literals; scipy serves as an
independent implementation for everything that has one there.
"""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp, ndtr
from scipy.stats import multivariate_normal, norm, truncnorm

import pins
from crossingsim import mixture
from crossingsim.mixture import (
    Conditioner,
    ConditioningError,
    DegenerateTruncationError,
    FitConfig,
    GaussianComponent,
    GaussianMixture,
    TruncationBox,
    bic,
    conditional_mode,
    em_fit,
    select_components,
    truncated_moments,
)
from crossingsim.ingest import reference_generator
from crossingsim.seeds import derive_seed

# Unit normal truncated to [0, inf): mass 1/2, mean sqrt(2/pi), var 1 - 2/pi.
HALF_NORMAL_MEAN = 0.7978845608028654
HALF_NORMAL_VAR = 0.3633802276324186
STD_PDF_AT_0 = 0.3989422804014327  # 1/sqrt(2*pi)
MASS_WITHIN_ONE_SIGMA = 0.6826894921370859


def std_component():
    return GaussianComponent(np.zeros(1), np.eye(1))


def random_mixture(rng, dim=2, k=3, truncation=None):
    weights = rng.dirichlet(np.ones(k) * 2.0)
    means = rng.uniform(-3.0, 3.0, size=(k, dim))
    covs = np.empty((k, dim, dim))
    for j in range(k):
        a = rng.uniform(-1.0, 1.0, size=(dim, dim))
        covs[j] = a @ a.T + np.eye(dim) * rng.uniform(0.5, 1.5)
    return GaussianMixture(weights, means, covs, truncation=truncation)


class TestTruncationBox:
    def test_positive_orthant_contains_its_boundary(self):
        box = TruncationBox.positive_orthant(2)
        assert box.contains(np.array([0.0, 0.0]))
        assert box.contains(np.array([1e300, 0.5]))
        assert not box.contains(np.array([-1e-12, 0.5]))

    def test_bounds_must_be_strictly_ordered(self):
        with pytest.raises(ValueError):
            TruncationBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError):
            TruncationBox(np.array([np.nan]), np.array([1.0]))

    def test_sliced_respects_order(self):
        box = TruncationBox(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0]))
        sub = box.sliced([2, 0])
        np.testing.assert_array_equal(sub.lower, [2.0, 0.0])
        np.testing.assert_array_equal(sub.upper, [5.0, 1.0])

    def test_contains_checks_dimension(self):
        with pytest.raises(ValueError):
            TruncationBox.positive_orthant(2).contains(np.array([1.0, 1.0, 1.0]))

    def test_rows_variant_returns_vector(self):
        box = TruncationBox.positive_orthant(1)
        got = box.contains(np.array([[0.5], [-0.5]]))
        np.testing.assert_array_equal(got, [True, False])

    def test_inside_uses_cached_finite_bounds_as_contains(self):
        box = TruncationBox(
            np.array([0.0, -np.inf, -1.0, -np.inf]), np.array([np.inf, 2.0, 1.0, np.inf])
        )
        assert box._finite_lower == ((0, 0.0), (2, -1.0))
        assert box._finite_upper == ((1, 2.0), (2, 1.0))
        points = np.random.default_rng(3).uniform(-3.0, 3.0, size=(500, 4))
        points[:4] = [
            [0.0, 2.0, -1.0, 9.0], [-0.0, 2.0, 1.0, -9.0], [-1e-300, 0, 0, 0], [0, 0, 1.5, 0]
        ]
        np.testing.assert_array_equal(mixture._inside(box, points), box.contains(points))
        # The cached columns take no part in repr or equality.
        shown = [f.name for f in dataclasses.fields(box) if f.repr or f.compare]
        assert shown == ["lower", "upper"]
        assert repr(box) == f"TruncationBox(lower={box.lower!r}, upper={box.upper!r})"

    @given(data=st.data())
    def test_contains_is_the_plain_box_test(self, data):
        dim = data.draw(st.integers(1, 4))
        lower, upper, values = [], [], [math.nan, math.inf, -math.inf, 0.0, -0.0]
        for _ in range(dim):
            a = data.draw(st.floats(-10.0, 10.0))
            b = a + data.draw(st.floats(1e-3, 10.0))
            lower.append(data.draw(st.sampled_from([a, -math.inf])))
            upper.append(data.draw(st.sampled_from([b, math.inf])))
            values += [a, b]
        box = TruncationBox(np.array(lower), np.array(upper))
        coordinate = st.one_of(st.floats(-25.0, 25.0), st.sampled_from(values))
        rows = data.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), max_size=8))
        points = np.array(rows, dtype=float).reshape(len(rows), dim)
        expected = ((points >= box.lower) & (points <= box.upper)).all(axis=1)
        np.testing.assert_array_equal(box.contains(points), expected)
        assert [box.contains(row) for row in points] == expected.tolist()
        finite = np.isfinite(points).all(axis=1)
        np.testing.assert_array_equal(mixture._inside(box, points[finite]), expected[finite])
        one = TruncationBox(np.array([0.0]), np.array([np.inf]))
        assert one == TruncationBox(np.array([0.0]), np.array([np.inf]))

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_equality_compares_bounds(self, dim):
        box = TruncationBox.positive_orthant(dim)
        assert box == TruncationBox(np.zeros(dim), np.full(dim, np.inf))
        assert not box != TruncationBox.positive_orthant(dim)
        upper = np.full(dim, np.inf)
        upper[-1] = 5.0
        assert box != TruncationBox(np.zeros(dim), upper)
        assert box != TruncationBox.positive_orthant(dim + 1)
        assert box != None  # noqa: E711 (a box is never equal to None)
        model = GaussianMixture(np.array([1.0]), np.ones((1, dim)), np.eye(dim)[None], box)
        same = GaussianMixture(np.array([1.0]), np.ones((1, dim)), np.eye(dim)[None], box)
        cut = GaussianMixture(
            np.array([1.0]), np.ones((1, dim)), np.eye(dim)[None], TruncationBox(np.zeros(dim), upper)
        )
        open_ = GaussianMixture(np.array([1.0]), np.ones((1, dim)), np.eye(dim)[None])
        assert model == same and model != cut and model != open_ and open_ != model


class TestTruncatedMomentsExact:
    def test_half_normal_frozen_values(self):
        box = TruncationBox(np.array([0.0]), np.array([np.inf]))
        mom = truncated_moments(std_component(), box)
        assert mom.mass == pytest.approx(0.5, abs=1e-15)
        assert mom.mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=1e-12)
        assert mom.covariance[0, 0] == pytest.approx(HALF_NORMAL_VAR, abs=1e-12)

    def test_symmetric_interval(self):
        box = TruncationBox(np.array([-1.0]), np.array([1.0]))
        mom = truncated_moments(std_component(), box)
        assert mom.mass == pytest.approx(MASS_WITHIN_ONE_SIGMA, abs=1e-12)
        assert mom.mean[0] == pytest.approx(0.0, abs=1e-15)
        _, var = truncnorm.stats(-1, 1, moments="mv")
        assert mom.covariance[0, 0] == pytest.approx(float(var), abs=1e-12)

    def test_shifted_scaled_against_scipy(self):
        comp = GaussianComponent(np.array([2.0]), np.array([[4.0]]))
        box = TruncationBox(np.array([0.0]), np.array([5.0]))
        mom = truncated_moments(comp, box)
        a, b = (0.0 - 2.0) / 2.0, (5.0 - 2.0) / 2.0
        mean, var = truncnorm.stats(a, b, loc=2.0, scale=2.0, moments="mv")
        mass = norm.cdf(b) - norm.cdf(a)
        assert mom.mass == pytest.approx(float(mass), abs=1e-12)
        assert mom.mean[0] == pytest.approx(float(mean), abs=1e-12)
        assert mom.covariance[0, 0] == pytest.approx(float(var), abs=1e-12)

    def test_far_tail_box_is_degenerate(self):
        box = TruncationBox(np.array([40.0]), np.array([41.0]))
        with pytest.raises(DegenerateTruncationError):
            truncated_moments(std_component(), box)

    def test_unbounded_box_returns_raw_moments(self):
        comp = GaussianComponent(np.array([1.0, -2.0]), np.diag([2.0, 3.0]))
        box = TruncationBox(np.full(2, -np.inf), np.full(2, np.inf))
        mom = truncated_moments(comp, box)
        assert mom.mass == 1.0
        np.testing.assert_allclose(mom.mean, comp.mean)
        np.testing.assert_allclose(mom.covariance, comp.covariance)

    def test_exact_method_refuses_bounded_multivariate(self):
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            truncated_moments(comp, TruncationBox.positive_orthant(2), method="exact")

    def test_unknown_method_and_dim_mismatch(self):
        with pytest.raises(ValueError):
            truncated_moments(std_component(), TruncationBox.positive_orthant(1), method="qmc")
        with pytest.raises(ValueError):
            truncated_moments(std_component(), TruncationBox.positive_orthant(2))


def reference_moments_mc(mean, cov, box, n_accepted, seed):
    """Rejection-sampled moments, one component per call, drawing from the seed.

    The loop that EM ran for every component on every iteration before
    it kept one draw block per restart; the Monte Carlo path must still
    give these bits.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    chol = np.linalg.cholesky(cov)
    budget = max(200 * n_accepted, 2_000_000)
    kept, drawn, accepted = [], 0, 0
    chunk = max(4 * n_accepted, 8192)
    while accepted < n_accepted and drawn < budget:
        take = min(chunk, budget - drawn)
        x = mean + rng.standard_normal((take, mean.shape[0])) @ chol.T
        drawn += take
        hits = x[box.contains(x)]
        if hits.size:
            kept.append(hits)
            accepted += hits.shape[0]
        rate = max(accepted / drawn, 1e-3)
        chunk = int(min(max((n_accepted - accepted) / rate * 1.2, 8192), 4_000_000))
    if accepted < max(2, n_accepted // 200):
        raise DegenerateTruncationError("too few accepted draws")
    sample = np.concatenate(kept, axis=0)
    centered = sample - sample.mean(axis=0)
    return mixture.TruncatedMoments(
        mass=accepted / drawn,
        mean=sample.mean(axis=0),
        covariance=centered.T @ centered / sample.shape[0],
    )


def streams(seeds, n_accepted, dim):
    """One _NormalStream per seed, as EM builds them for a restart."""
    first = mixture._first_block_rows(n_accepted)
    return [mixture._NormalStream(seed, first, dim) for seed in seeds]


def assert_same_moments(got, want):
    assert got.mass == want.mass
    np.testing.assert_array_equal(got.mean, want.mean)
    np.testing.assert_array_equal(got.covariance, want.covariance)


class TestTruncatedMomentsMonteCarlo:
    def test_matches_exact_path_in_one_dimension(self):
        comp = GaussianComponent(np.array([0.5]), np.array([[1.44]]))
        box = TruncationBox(np.array([0.0]), np.array([2.0]))
        exact = truncated_moments(comp, box, method="exact")
        mc = truncated_moments(comp, box, method="mc", n_accepted=200_000, seed=11)
        assert mc.mass == pytest.approx(exact.mass, abs=5e-3)
        assert mc.mean[0] == pytest.approx(exact.mean[0], abs=1e-2)
        assert mc.covariance[0, 0] == pytest.approx(exact.covariance[0, 0], abs=2e-2)

    def test_two_dim_diagonal_factorizes(self):
        # With a diagonal covariance the box factorizes, so the 2-D MC
        # moments must agree with the per-axis closed forms.
        comp = GaussianComponent(np.array([0.3, -0.2]), np.diag([1.0, 0.25]))
        box = TruncationBox(np.array([0.0, -1.0]), np.array([np.inf, 1.0]))
        mc = truncated_moments(comp, box, n_accepted=150_000, seed=5)
        m0 = truncated_moments(
            GaussianComponent(np.array([0.3]), np.array([[1.0]])),
            TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        m1 = truncated_moments(
            GaussianComponent(np.array([-0.2]), np.array([[0.25]])),
            TruncationBox(np.array([-1.0]), np.array([1.0])),
        )
        assert mc.mass == pytest.approx(m0.mass * m1.mass, abs=5e-3)
        assert mc.mean[0] == pytest.approx(m0.mean[0], abs=1e-2)
        assert mc.mean[1] == pytest.approx(m1.mean[0], abs=1e-2)
        assert mc.covariance[0, 0] == pytest.approx(m0.covariance[0, 0], abs=2e-2)
        assert mc.covariance[1, 1] == pytest.approx(m1.covariance[0, 0], abs=2e-2)
        assert mc.covariance[0, 1] == pytest.approx(0.0, abs=2e-2)

    def test_seeded_determinism(self):
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        box = TruncationBox.positive_orthant(2)
        a = truncated_moments(comp, box, n_accepted=5_000, seed=3)
        b = truncated_moments(comp, box, n_accepted=5_000, seed=3)
        assert a.mass == b.mass
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    @pytest.mark.parametrize("n_accepted", [0, -5, 2.5, True])
    def test_accepted_draw_target_must_be_a_positive_integer(self, n_accepted):
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="n_accepted"):
            truncated_moments(
                comp, TruncationBox.positive_orthant(2), method="mc", n_accepted=n_accepted
            )

    def test_hopeless_box_raises(self):
        # In both kernels: the moments and the counted mass.
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        box = TruncationBox(np.array([12.0, 12.0]), np.array([13.0, 13.0]))
        with pytest.raises(DegenerateTruncationError):
            truncated_moments(comp, box, method="mc", n_accepted=1_000, seed=0)
        with pytest.raises(DegenerateTruncationError):
            mixture._box_mass_mc(comp.mean, np.eye(2), box, 1_000, 0)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stacked_kernel_matches_per_component_reference(self, dim):
        # Means pulled below the box give masses down to a few percent, so
        # some components accept fewer than n_accepted draws from their
        # first block and continue sampling.
        rng = np.random.Generator(np.random.PCG64(40 + dim))
        n_accepted = 1_000
        box = TruncationBox(
            np.r_[0.0, np.full(dim - 1, -np.inf)], np.r_[np.inf, 1.5, np.full(dim - 2, np.inf)]
        )
        means = rng.uniform(-2.0, 0.5, size=(6, dim))
        covs = np.array([a @ a.T + 0.2 * np.eye(dim) for a in rng.uniform(-1, 1, (6, dim, dim))])
        seeds = [derive_seed(17, "kernel", j) for j in range(6)]
        got = mixture._moments_mc(
            means, np.linalg.cholesky(covs), box, n_accepted, streams(seeds, n_accepted, dim)
        )
        continued = 0
        for j in range(6):
            want = reference_moments_mc(means[j], covs[j], box, n_accepted, seeds[j])
            assert_same_moments(got[j], want)
            one = truncated_moments(
                GaussianComponent(means[j], covs[j]), box, method="mc",
                n_accepted=n_accepted, seed=seeds[j],
            )
            assert_same_moments(one, want)
            continued += want.mass < n_accepted / 8192
        assert continued >= 1

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_stacked_kernel_reuses_its_blocks_across_calls(self, dim):
        # EM passes one list of streams to every iteration of a restart.
        # The means move down and then back up between the three
        # calls here, so a continued component first needs more
        # continuation rows than it has kept and then fewer.
        rng = np.random.Generator(np.random.PCG64(60 + dim))
        n_accepted = 1_000
        upper = np.full(dim, np.inf)
        upper[1:2] = 1.5
        box = TruncationBox(np.r_[0.0, np.full(dim - 1, -np.inf)], upper)
        covs = np.array([a @ a.T + 0.2 * np.eye(dim) for a in rng.uniform(-1, 1, (5, dim, dim))])
        chols = np.linalg.cholesky(covs)
        # First coordinates 0.5 to 2 standard deviations below the box.
        means = rng.uniform(-0.5, 0.5, size=(5, dim))
        means[:, 0] = -np.sqrt(covs[:, 0, 0]) * np.array([0.5, 1.3, 1.5, 1.8, 2.0])
        seeds = [derive_seed(23, "kernel-reuse", j) for j in range(5)]
        kept = streams(seeds, n_accepted, dim)
        continued = 0
        for shift in (0.0, -0.4, 0.6):
            means = means + np.r_[shift, np.zeros(dim - 1)]
            got = mixture._moments_mc(means, chols, box, n_accepted, kept)
            for j in range(5):
                want = reference_moments_mc(means[j], covs[j], box, n_accepted, seeds[j])
                assert_same_moments(got[j], want)
                continued += want.mass < n_accepted / 8192
        assert continued >= 9

    def test_stacked_kernel_raises_for_any_degenerate_component(self):
        box = TruncationBox.positive_orthant(2)
        means = np.array([[1.0, 1.0], [-9.0, -9.0]])
        chols = np.repeat(np.eye(2)[None], 2, axis=0)
        with pytest.raises(DegenerateTruncationError):
            reference_moments_mc(means[1], np.eye(2), box, 1_000, 5)
        with pytest.raises(DegenerateTruncationError):
            mixture._moments_mc(means, chols, box, 1_000, streams([4, 5], 1_000, 2))


class TestNormalStream:
    @pytest.mark.parametrize("dim", [1, 4])
    def test_rows_follow_one_fresh_draw_however_they_are_asked_for(self, dim):
        # The first block, then a short continuation, then a longer one
        # that grows it: all are slices of one draw from the seed.
        first, short, long = 8192, 3000, 20000
        stream = mixture._NormalStream(9, first, dim)
        block = stream.rows(0, first).copy()
        want = np.random.Generator(np.random.PCG64(9)).standard_normal((first + long, dim))
        past = want[first:]
        np.testing.assert_array_equal(block, want[:first])
        np.testing.assert_array_equal(stream.rows(first, first + short), past[:short])
        np.testing.assert_array_equal(stream.rows(first, first + long), past)
        np.testing.assert_array_equal(stream.rows(first + short, first + long), past[short:])
        np.testing.assert_array_equal(stream.rows(0, first), block)

    def test_the_first_block_is_read_whole(self):
        # A stream built for one accepted-draw target and read with another
        # would count draws it did not average over.
        stream = mixture._NormalStream(9, mixture._first_block_rows(1_000), 2)
        with pytest.raises(ValueError, match="read whole"):
            stream.rows(0, mixture._first_block_rows(3_000))

    def test_a_continued_call_does_not_copy_the_first_block(self):
        # The first block is 80 000 x 4 doubles, B = 2.56 MB.  At box mass
        # 0.15 it accepts about 12 000 draws, so the schedule continues with
        # one chunk of about (20 000 - 12 000) / 0.15 * 1.2 = 64 000 rows,
        # C = 2.05 MB.  The call holds those rows and their shift (2C) and
        # accepted draws and masks well under one block; a stream that
        # copied its block into its continuation would hold B more.
        block, continuation = 80_000 * 4 * 8, 64_000 * 4 * 8
        box = TruncationBox(np.r_[norm.ppf(0.85), np.full(3, -np.inf)], np.full(4, np.inf))
        stream = mixture._NormalStream(1, mixture._first_block_rows(20_000), 4)
        tracemalloc.start()
        try:
            got = mixture._moments_mc(np.zeros((1, 4)), np.eye(4)[None], box, 20_000, [stream])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.14 < got[0].mass < 0.16
        assert peak < block + 2 * continuation


class TestCountedBoxMass:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_counted_mass_equals_the_moments_kernel_bit_for_bit(self, dim):
        # First coordinates from 2.3 standard deviations below the orthant
        # to 4 above, the others 4 above: box masses from about 0.01 to 1.
        # Masses below n_accepted / 8192 continue past the first block.
        rng = np.random.Generator(np.random.PCG64(80 + dim))
        n_accepted = 1_000
        box = TruncationBox.positive_orthant(dim)
        offsets = np.array([-2.3, -1.5, -0.5, 0.0, 1.5, 4.0])
        covs = np.array(
            [a @ a.T + 0.2 * np.eye(dim) for a in rng.uniform(-1, 1, (offsets.size, dim, dim))]
        )
        sds = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
        means = 4.0 * sds
        means[:, 0] = offsets * sds[:, 0]
        chols = np.linalg.cholesky(covs)
        masses = []
        for j in range(offsets.size):
            seed = derive_seed(31, "counted-mass", j)
            got = mixture._box_mass_mc(means[j], chols[j], box, n_accepted, seed)
            want = truncated_moments(
                GaussianComponent(means[j], covs[j]), box, method="mc",
                n_accepted=n_accepted, seed=seed,
            ).mass
            assert got == want
            masses.append(got)
        assert min(masses) < 0.03 and max(masses) > 0.97
        assert sum(m < n_accepted / 8192 for m in masses) >= 1

    def test_four_dim_box_masses_hold_one_chunk_not_a_block(self):
        # The first block alone is 80 000 x 4 doubles (2.56 MB); a chunk
        # of 8192 rows is 0.26 MB.
        model = reference_generator()
        tracemalloc.start()
        try:
            model.component_box_masses()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def column_loop_inside(box, points):
    """The box test the kernels ran before they compared every coordinate
    at once: one column per finite bound."""
    inside = np.ones(points.shape[0], dtype=bool)
    for i in np.flatnonzero(np.isfinite(box.lower)):
        inside &= points[:, i] >= box.lower[i]
    for i in np.flatnonzero(np.isfinite(box.upper)):
        inside &= points[:, i] <= box.upper[i]
    return inside


def broadcast_moments_mc(means, chols, box, n_accepted, streams):
    """The moments kernel as it stood with broadcast row shifts and the
    column-loop box test; the kernel must give its bits."""
    out = []
    for mean, chol, stream in zip(means, chols, streams):
        chol_t = np.ascontiguousarray(chol.T)
        kept = []

        def take(start, stop):
            shifted = stream.rows(start, stop) @ chol_t
            shifted += mean
            kept.append(np.compress(column_loop_inside(box, shifted), shifted, axis=0))
            return kept[-1].shape[0]

        accepted, drawn = mixture._rejection_schedule(n_accepted, take)
        sample = kept[0] if len(kept) == 1 else np.concatenate(kept)
        if sample.shape[1] == 1:
            t_mean = sample.mean(axis=0)
        else:
            t_mean = np.einsum("ij->j", sample) / accepted
        sample -= t_mean
        t_cov = sample.T @ sample / accepted
        out.append(mixture.TruncatedMoments(accepted / drawn, t_mean, t_cov))
    return out


class TestContiguousKernelPasses:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 6121, 8192])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_add_row_is_the_broadcast_add_byte_for_byte(self, n, dim):
        rng = np.random.Generator(np.random.PCG64(n + 10 * dim))
        rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, (n, dim))
        for row in (rng.standard_normal(dim) * 100.0, -rng.standard_normal(dim)):
            want = rows.copy()
            want += row
            got = rows.copy()
            mixture._add_row(got, row)
            assert got.tobytes() == want.tobytes()
        # x + (-m) is x - m, which is how the kernel centres its draws.
        want = rows - row
        got = rows.copy()
        mixture._add_row(got, -row)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_inside_is_the_column_loop_for_every_mix_of_bounds(self, dim):
        # Each column is bounded below, above, on both sides or not at all.
        rng = np.random.Generator(np.random.PCG64(70 + dim))
        points = rng.uniform(-3.0, 3.0, size=(300, dim))
        points[rng.random((300, dim)) < 0.1] = np.inf
        points[rng.random((300, dim)) < 0.1] = -np.inf
        points[:3] = [[-1.0] * dim, [1.5] * dim, [-0.0] * dim]  # on the bounds
        kinds = itertools.product(range(4), repeat=dim)
        for kind in kinds:
            lower = np.array([-1.0 if k in (0, 2) else -np.inf for k in kind])
            upper = np.array([1.5 if k in (1, 2) else np.inf for k in kind])
            box = TruncationBox(lower, upper)
            want = column_loop_inside(box, points)
            np.testing.assert_array_equal(mixture._inside(box, points), want)
            np.testing.assert_array_equal(box.contains(points), want)
            holed = points.copy()
            holed[::7, -1] = np.nan
            got = box.contains(holed)
            assert not got[::7].any()
            keep = np.ones(300, dtype=bool)
            keep[::7] = False
            np.testing.assert_array_equal(got[keep], want[keep])

    @pytest.mark.parametrize("shape", ["orthant", "two-sided"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_kernels_match_the_reference_on_the_study_boxes(self, dim, shape):
        # Every column is bounded: below on the orthant, on both sides on
        # the other box.  First coordinates from 2 standard deviations
        # below the lower bound to 1 above it; masses below
        # n_accepted / 8192 continue past the first block.
        rng = np.random.Generator(np.random.PCG64(90 + dim))
        n_accepted = 1_000
        if shape == "orthant":
            box = TruncationBox.positive_orthant(dim)
        else:
            box = TruncationBox(np.full(dim, -1.0), np.full(dim, 2.0))
        offsets = np.array([-2.0, -1.3, -0.5, 0.0, 1.0])
        covs = np.array(
            [a @ a.T + 0.2 * np.eye(dim) for a in rng.uniform(-1, 1, (offsets.size, dim, dim))]
        )
        sds = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
        means = box.lower + 0.5 * np.minimum(sds, 1.0)
        means[:, 0] = box.lower[0] + offsets * sds[:, 0]
        chols = np.linalg.cholesky(covs)
        seeds = [derive_seed(41, f"study-box-{shape}", j) for j in range(offsets.size)]
        got = mixture._moments_mc(means, chols, box, n_accepted, streams(seeds, n_accepted, dim))
        continued = 0
        for j in range(offsets.size):
            want = reference_moments_mc(means[j], covs[j], box, n_accepted, seeds[j])
            assert_same_moments(got[j], want)
            assert mixture._box_mass_mc(means[j], chols[j], box, n_accepted, seeds[j]) == want.mass
            continued += want.mass < n_accepted / 8192
        assert continued >= 1

    def test_em_fit_gives_the_broadcast_kernel_bytes(self, monkeypatch):
        # Four-dimensional rows near the orthant's faces, so both
        # components keep masses well below 1 and some continue.
        truth = GaussianMixture(
            np.array([0.6, 0.4]),
            np.array([[0.2, 0.5, 0.1, 0.4], [1.5, 0.3, 1.0, 2.0]]),
            np.array([np.eye(4), 0.5 * np.eye(4) + 0.2]),
            truncation=TruncationBox.positive_orthant(4),
        )
        data = truth.sample(600, seed=12)
        config = FitConfig(
            n_components=2, truncation_mode="truncated", max_iterations=20,
            mc_moment_draws=2000, seed=4,
        )
        new, _ = em_fit(data, config)
        calls = []

        def counted(*args):
            calls.append(1)
            return broadcast_moments_mc(*args)

        monkeypatch.setattr(mixture, "_moments_mc", counted)
        old, diag = em_fit(data, config)
        assert len(calls) >= diag.n_iterations == 20
        assert new.weights.tobytes() == old.weights.tobytes()
        assert new.means.tobytes() == old.means.tobytes()
        assert new.covariances.tobytes() == old.covariances.tobytes()


class TestMixtureConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([0.6, 0.6]), np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.5, -0.5]), np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 1, 1)))

    def test_covariance_must_be_positive_definite(self):
        cov = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_covariance_symmetric_to_1e_10_of_its_largest_entry(self, scale):
        # The tolerance is absolute, 1e-10 times the largest |entry|.
        def cov(gap):
            return scale * np.array([[2.0, 0.5], [0.5 + gap, 1.0]])

        GaussianComponent(np.zeros(2), cov(1.9e-10))
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            GaussianComponent(np.zeros(2), cov(2.1e-10))

    def test_box_dimension_must_match(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                np.array([1.0]),
                np.zeros((1, 2)),
                np.eye(2)[None],
                truncation=TruncationBox.positive_orthant(3),
            )

    def test_parameters_are_read_only(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        with pytest.raises(ValueError):
            model.weights[0] = 0.5


class TestDensity:
    def test_standard_normal_at_origin(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        assert model.density(np.array([0.0])) == pytest.approx(STD_PDF_AT_0, abs=1e-15)

    def test_matches_scipy_mixture(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        model = random_mixture(rng)
        pts = rng.uniform(-4, 4, size=(200, 2))
        want = np.zeros(200)
        for w, mu, cov in zip(model.weights, model.means, model.covariances):
            want += w * multivariate_normal(mu, cov).pdf(pts)
        np.testing.assert_allclose(model.density(pts), want, rtol=1e-12, atol=1e-300)

    def test_half_normal_density_doubles_and_vanishes_outside(self):
        model = GaussianMixture(
            np.array([1.0]),
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            truncation=TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        assert model.density(np.array([0.0])) == pytest.approx(
            2.0 * STD_PDF_AT_0, abs=1e-12
        )
        assert model.density(np.array([1.3])) == pytest.approx(
            norm.pdf(1.3) / 0.5, rel=1e-12
        )
        assert model.density(np.array([-0.5])) == 0.0
        assert model.log_density_rows(np.array([[-0.5]]))[0] == -np.inf

    def test_truncated_density_integrates_to_one(self):
        model = GaussianMixture(
            np.array([0.7, 0.3]),
            np.array([[0.5], [2.5]]),
            np.array([[[1.0]], [[0.25]]]),
            truncation=TruncationBox(np.array([0.0]), np.array([3.0])),
        )
        total, err = quad(lambda x: model.density(np.array([x])), 0.0, 3.0, limit=200)
        assert err < 1e-9
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_normalization_of_half_normal(self):
        model = GaussianMixture(
            np.array([1.0]),
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            truncation=TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        assert model.normalization() == pytest.approx(0.5, abs=1e-15)

    def test_one_dim_box_masses_equal_truncated_moments(self):
        # The vectorized 1-D path must give the per-component closed form
        # bit for bit, and raise where any one component would.
        rng = np.random.Generator(np.random.PCG64(12))
        for lo, hi in [(0.0, np.inf), (-np.inf, 1.0), (-1.0, 2.5)]:
            box = TruncationBox(np.array([lo]), np.array([hi]))
            model = random_mixture(rng, dim=1, k=4, truncation=box)
            expected = [truncated_moments(c, box).mass for c in model.components]
            np.testing.assert_array_equal(model.component_box_masses(), expected)
        far = GaussianMixture(
            np.array([0.0, 1.0]),
            np.array([[-60.0], [1.0]]),
            np.ones((2, 1, 1)),
            truncation=TruncationBox.positive_orthant(1),
        )
        with pytest.raises(DegenerateTruncationError):
            truncated_moments(far.components[0], far.truncation)
        with pytest.raises(DegenerateTruncationError):
            far.component_box_masses()

    def test_box_mass_is_the_closed_form_over_weighted_components(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for lo, hi in [(0.0, np.inf), (-np.inf, 1.0), (-1.0, 2.5)]:
            box = TruncationBox(np.array([lo]), np.array([hi]))
            model = random_mixture(rng, dim=1, k=4, truncation=box)
            sds = np.sqrt(model.covariances[:, 0, 0])
            means = model.means[:, 0]
            want = model.weights @ (ndtr((hi - means) / sds) - ndtr((lo - means) / sds))
            assert model.box_mass() == pytest.approx(want, rel=1e-14)
            assert model.box_mass() == pytest.approx(model.normalization(), rel=1e-14)
        # A weight-0 component with no mass in the box makes normalization
        # raise; box_mass leaves it out.
        far = GaussianMixture(
            np.array([0.0, 1.0]),
            np.array([[-60.0], [1.0]]),
            np.ones((2, 1, 1)),
            truncation=TruncationBox.positive_orthant(1),
        )
        with pytest.raises(DegenerateTruncationError):
            far.normalization()
        assert far.box_mass() == pytest.approx(ndtr(1.0), rel=1e-15)
        assert GaussianMixture(np.ones(1), np.zeros((1, 1)), np.ones((1, 1, 1))).box_mass() == 1.0
        with pytest.raises(ValueError):
            random_mixture(rng, dim=2, truncation=TruncationBox.positive_orthant(2)).box_mass()

    def test_mass_methods_read_one_table_built_once(self, monkeypatch):
        # box_mass is weight * mass summed over the positive weights in
        # component order, over the masses component_box_masses returns;
        # the three methods build that table once per model between them.
        calls = []
        interval_mass = mixture._scalar_interval_mass

        def counted(alpha, beta):
            calls.append((alpha, beta))
            return interval_mass(alpha, beta)

        monkeypatch.setattr(mixture, "_scalar_interval_mass", counted)

        def sequential_sum(weights, masses):
            total = 0.0
            for weight, mass in zip(weights, masses):
                if weight > 0.0:
                    total += weight * mass
            return total

        rng = np.random.Generator(np.random.PCG64(14))
        bounds = [None, (0.5, np.inf), (-np.inf, 1.0), (-1.0, 2.5), (-np.inf, np.inf)]
        models = [
            random_mixture(
                rng, dim=1, k=4,
                truncation=None if b is None else TruncationBox(np.array([b[0]]), np.array([b[1]])),
            )
            for b in bounds
        ]
        models.append(
            GaussianMixture(
                np.array([0.6, 0.0, 0.4]),
                np.array([[0.0], [3.0], [-1.0]]),
                np.ones((3, 1, 1)),
                truncation=TruncationBox(np.array([-1.0]), np.array([2.5])),
            )
        )
        for model in models:
            del calls[:]
            got = model.box_mass()
            masses = model.component_box_masses()
            assert not masses.flags.writeable
            weights = model.weights.tolist()
            if model.truncation is None:
                assert masses.tolist() == [1.0] * model.n_components
                assert got == model.normalization() == 1.0
            else:
                assert got.hex() == sequential_sum(weights, masses.tolist()).hex()
                assert model.normalization() == float(model.weights @ masses)
            if model.truncation is not None and model.truncation.is_unbounded:
                assert masses.tolist() == [1.0] * model.n_components
            assert model.box_mass() == got
            assert model.component_box_masses() is masses
            assert len(calls) == (0 if model.truncation is None else model.n_components)

        # A weight-0 component with no mass in the box: the table holds its
        # underflowed 0, component_box_masses and normalization raise on it,
        # and box_mass leaves it out.
        far = GaussianMixture(
            np.array([0.0, 1.0]),
            np.array([[-60.0], [1.0]]),
            np.ones((2, 1, 1)),
            truncation=TruncationBox.positive_orthant(1),
        )
        del calls[:]
        got = far.box_mass()
        for method in (far.component_box_masses, far.normalization, far.component_box_masses):
            with pytest.raises(
                DegenerateTruncationError, match=r"^box captures mass 0\.0 of component 0$"
            ):
                method()
        assert far.box_mass() == got
        assert len(calls) == 2
        kept = truncated_moments(far.components[1], far.truncation).mass
        assert got.hex() == (0.0 + 1.0 * kept).hex()

    @pytest.mark.parametrize("n_accepted", [20_000])
    def test_four_dim_box_masses_use_the_documented_seeds(self, n_accepted):
        model = reference_generator()
        want = [
            reference_moments_mc(
                model.means[k], model.covariances[k], model.truncation, n_accepted,
                derive_seed(mixture._MASS_SEED, "box-mass", k),
            ).mass
            for k in range(3)
        ]
        assert model.component_box_masses().tolist() == want

    def test_log_likelihood_is_row_sum(self):
        rng = np.random.Generator(np.random.PCG64(5))
        model = random_mixture(rng)
        data = rng.uniform(-2, 2, size=(50, 2))
        assert model.log_likelihood(data) == pytest.approx(
            float(model.log_density_rows(data).sum()), rel=1e-14
        )


def random_covariances(rng, k, dim, smallest):
    """k covariances whose eigenvalues are log-uniform in [smallest, 100]."""
    covs = np.empty((k, dim, dim))
    for j in range(k):
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eigenvalues = np.exp(rng.uniform(math.log(smallest), math.log(100.0), size=dim))
        cov = basis * eigenvalues @ basis.T
        covs[j] = 0.5 * (cov + cov.T)
    return covs


class TestComponentLogDensities:
    """The batched whitening kernel against scipy's multivariate normal.

    The error is relative to max(1, |reference|), since a log density
    can pass through 0.
    """

    @pytest.mark.parametrize(
        "smallest, rtol", [(1e-2, 1e-10), (1e-6, 1e-7)], ids=["eig-1e-2", "eig-1e-6"]
    )
    @pytest.mark.parametrize("case", range(20))
    def test_matches_scipy_logpdf(self, smallest, rtol, case):
        rng = np.random.Generator(np.random.PCG64(derive_seed(77, "log-density", case)))
        k, dim = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        means = rng.uniform(-3.0, 3.0, size=(k, dim))
        covs = random_covariances(rng, k, dim, smallest)
        chols = np.linalg.cholesky(covs)
        # Points near every component, out to about 4 standard deviations.
        near = [means[j] + rng.normal(scale=2.0, size=(8, dim)) @ chols[j].T for j in range(k)]
        rows = np.concatenate(near + [rng.uniform(-5.0, 5.0, size=(8, dim))])
        got = mixture._component_log_densities(rows, means, chols)
        assert got.shape == (rows.shape[0], k)
        for j in range(k):
            want = np.atleast_1d(multivariate_normal(means[j], covs[j]).logpdf(rows))
            error = np.abs(got[:, j] - want) / np.maximum(1.0, np.abs(want))
            assert error.max() <= rtol


class TestLogSumExpRows:
    def test_matches_scipy_with_weight_zero_columns(self):
        rng = np.random.Generator(np.random.PCG64(31))
        values = rng.normal(scale=300.0, size=(200, 5))
        values[:, 1] = -np.inf
        values[::3, 4] = -np.inf
        np.testing.assert_allclose(
            mixture._logsumexp_rows(values), logsumexp(values, axis=1), rtol=1e-13, atol=1e-13
        )

    def test_all_minus_inf_row_is_minus_inf_without_a_warning(self):
        values = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, math.log(3.0)]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = mixture._logsumexp_rows(values)
        assert got[0] == -np.inf
        assert got[1] == pytest.approx(math.log(4.0), rel=1e-15)


class TestMarginalize:
    def test_parameters_are_sliced(self):
        rng = np.random.Generator(np.random.PCG64(7))
        model = random_mixture(rng, dim=3, truncation=TruncationBox.positive_orthant(3))
        marginal = model.marginalize([2, 0])
        np.testing.assert_array_equal(marginal.weights, model.weights)
        np.testing.assert_allclose(marginal.means, model.means[:, [2, 0]])
        for j in range(model.n_components):
            np.testing.assert_allclose(
                marginal.covariances[j], model.covariances[j][np.ix_([2, 0], [2, 0])]
            )
        np.testing.assert_array_equal(marginal.truncation.lower, [0.0, 0.0])

    def test_untruncated_marginal_matches_scipy(self):
        rng = np.random.Generator(np.random.PCG64(8))
        model = random_mixture(rng, dim=3)
        marginal = model.marginalize([1])
        xs = np.linspace(-5, 5, 41)[:, None]
        want = np.zeros(41)
        for w, mu, cov in zip(model.weights, model.means, model.covariances):
            want += w * norm.pdf(xs[:, 0], loc=mu[1], scale=math.sqrt(cov[1, 1]))
        np.testing.assert_allclose(marginal.density(xs), want, rtol=1e-12)

    def test_bad_dims_rejected(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        for dims in ([], [0, 0], [2], [-1]):
            with pytest.raises(ValueError):
                model.marginalize(dims)

    def test_each_marginal_is_built_once(self):
        model = random_mixture(
            np.random.Generator(np.random.PCG64(9)),
            dim=3,
            truncation=TruncationBox.positive_orthant(3),
        )
        first = model.marginalize([2, 0])
        assert model.marginalize(np.array([2, 0])) is first
        assert model.marginalize((2,)) is model.marginalize([2])
        assert model.marginalize([0, 2]) is not first
        for dims in ([], [2, 2], [3]):
            with pytest.raises(ValueError):
                model.marginalize(dims)


class TestCondition:
    def test_hand_computed_bivariate(self):
        # Unit marginals with correlation 1/2, observing the second
        # coordinate at 1: conditional mean 1/2, variance 3/4.
        model = GaussianMixture(
            np.array([1.0]),
            np.zeros((1, 2)),
            np.array([[[1.0, 0.5], [0.5, 1.0]]]),
        )
        cond = model.condition([1], [1.0])
        assert cond.dim == 1
        assert cond.means[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert cond.covariances[0, 0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_weight_reweighting_matches_observed_marginal(self):
        model = GaussianMixture(
            np.array([0.4, 0.6]),
            np.array([[0.0, -1.0], [0.0, 2.0]]),
            np.array([np.eye(2), np.diag([1.0, 4.0])]),
        )
        y = 0.7
        cond = model.condition([1], [y])
        lik = np.array(
            [
                0.4 * norm.pdf(y, loc=-1.0, scale=1.0),
                0.6 * norm.pdf(y, loc=2.0, scale=2.0),
            ]
        )
        np.testing.assert_allclose(cond.weights, lik / lik.sum(), rtol=1e-12)

    def test_far_out_observation_still_normalizes(self):
        model = GaussianMixture(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [0.0, 5.0]]),
            np.array([np.eye(2), np.eye(2)]),
        )
        cond = model.condition([1], [500.0])
        assert math.isfinite(cond.weights.sum())
        assert cond.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_slice_oracle_untruncated(self):
        """Conditional pdf equals the renormalized joint slice."""
        rng = np.random.Generator(np.random.PCG64(31))
        for trial in range(5):
            model = random_mixture(rng)
            y_obs = float(rng.uniform(-2, 2))
            cond = model.condition([1], [y_obs])
            # Window wide enough that the oracle's own tail loss stays
            # far below the comparison tolerance.
            sd = math.sqrt(float(cond.covariances.max()))
            lo = float(cond.means.min()) - 14 * sd
            hi = float(cond.means.max()) + 14 * sd
            xs = np.linspace(lo, hi, 16_385)
            joint = np.zeros_like(xs)
            for w, mu, cov in zip(model.weights, model.means, model.covariances):
                pts = np.column_stack([xs, np.full_like(xs, y_obs)])
                joint += w * multivariate_normal(mu, cov).pdf(pts)
            from scipy.integrate import simpson

            oracle = joint / simpson(joint, x=xs)
            got = cond.density(xs[:, None])
            assert np.max(np.abs(got - oracle)) < 1e-9

    def test_grid_slice_oracle_truncated(self):
        # Same identity under a box: the indicator factorizes over the
        # axes, so the slice is renormalized over the free-axis section.
        model = GaussianMixture(
            np.array([0.55, 0.45]),
            np.array([[1.0, 1.2], [2.5, 0.6]]),
            np.array([[[0.8, 0.2], [0.2, 0.6]], [[1.1, -0.3], [-0.3, 0.9]]]),
            truncation=TruncationBox.positive_orthant(2),
        )
        y_obs = 0.9
        cond = model.condition([1], [y_obs])
        xs = np.linspace(1e-9, 12, 8193)
        joint = np.zeros_like(xs)
        for w, mu, cov in zip(model.weights, model.means, model.covariances):
            pts = np.column_stack([xs, np.full_like(xs, y_obs)])
            joint += w * multivariate_normal(mu, cov).pdf(pts)
        from scipy.integrate import simpson

        oracle = joint / simpson(joint, x=xs)
        got = cond.density(xs[:, None])
        assert np.max(np.abs(got - oracle)) < 1e-6

    def test_factorization_identity(self):
        """joint(x, y) == marginal(y) * conditional(x | y) off truncation."""
        rng = np.random.Generator(np.random.PCG64(77))
        for trial in range(10):
            model = random_mixture(rng, dim=2, k=2)
            x, y = rng.uniform(-3, 3, size=2)
            joint = model.density(np.array([x, y]))
            marg = model.marginalize([1]).density(np.array([y]))
            cond = model.condition([1], [y]).density(np.array([x]))
            assert joint == pytest.approx(marg * cond, rel=1e-9)

    def test_observed_value_outside_box_rejected(self):
        model = GaussianMixture(
            np.array([1.0]),
            np.ones((1, 2)),
            np.eye(2)[None],
            truncation=TruncationBox.positive_orthant(2),
        )
        with pytest.raises(ValueError):
            model.condition([1], [-0.5])

    def test_full_assignment_rejected(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(ValueError):
            model.condition([0, 1], [0.0, 0.0])

    def test_conditioning_error_is_a_value_error(self):
        # Callers catch ValueError for every conditioning failure.
        assert issubclass(ConditioningError, ValueError)


class TestConditioner:
    def test_factorization_identity(self):
        """p(x_f | x_o) == p(x_f, x_o) / p(x_o) on untruncated mixtures."""
        rng = np.random.Generator(np.random.PCG64(3000))
        for _ in range(20):
            model = random_mixture(rng, dim=4)
            n_obs = int(rng.integers(1, 4))
            obs = np.sort(rng.choice(4, size=n_obs, replace=False))
            free = np.setdiff1d(np.arange(4), obs)
            conditioner = Conditioner(model, obs)
            for _ in range(3):
                x = rng.uniform(-3.0, 3.0, size=4)
                joint = model.density(x)
                marginal = model.marginalize(obs).density(x[obs])
                conditional = conditioner(x[obs])
                assert conditional.dim == free.size
                assert conditional.density(x[free]) == pytest.approx(
                    joint / marginal, rel=1e-9
                )

    def test_reusable_and_matches_condition(self):
        rng = np.random.Generator(np.random.PCG64(3001))
        model = random_mixture(rng, dim=4, truncation=TruncationBox.positive_orthant(4))
        conditioner = Conditioner(model, [0, 2])
        first = conditioner([0.5, 1.5])
        conditioner([2.0, 0.1])
        again = conditioner([0.5, 1.5])
        assert again == first == model.condition([0, 2], [0.5, 1.5])
        assert first.truncation.dim == 2
        assert first.weights.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            first.means[0, 0] = 1.0  # results are read-only

    def test_bad_dims_rejected_at_build(self):
        model = random_mixture(np.random.Generator(np.random.PCG64(3002)), dim=4)
        for dims in [[], [0, 0], [4], [-1], [0, 1, 2, 3]]:
            with pytest.raises(ValueError):
                Conditioner(model, dims)

    def test_bad_values_rejected_per_call(self):
        model = random_mixture(
            np.random.Generator(np.random.PCG64(3003)),
            dim=4,
            truncation=TruncationBox.positive_orthant(4),
        )
        conditioner = Conditioner(model, [1, 3])
        for values in [[0.5], [0.5, 0.5, 0.5], [0.5, math.inf], [0.5, -0.1]]:
            with pytest.raises(ValueError):
                conditioner(values)
        # A box with finite upper bounds: the bound itself lies inside.
        box = TruncationBox(np.array([-np.inf, 0.0, -1.0]), np.array([2.0, np.inf, 1.0]))
        bounded = Conditioner(
            random_mixture(np.random.Generator(np.random.PCG64(3013)), dim=3, truncation=box),
            [0, 2],
        )
        assert bounded([2.0, 1.0]).truncation == box.sliced([1])
        assert bounded([-50.0, -1.0]).dim == 1
        for values in [[2.0 + 1e-12, 0.0], [0.0, 1.5], [0.0, -1.5], [math.nan, 0.0]]:
            with pytest.raises(ValueError):
                bounded(values)


    @given(data=st.data())
    def test_repeated_values_are_served_from_the_memo(self, data):
        def bits(model):
            return [a.tobytes() for a in (model.weights, model.means, model.covariances)]

        seed = data.draw(st.integers(0, 2**32 - 1))
        model = random_mixture(
            np.random.Generator(np.random.PCG64(seed)),
            dim=4,
            truncation=TruncationBox.positive_orthant(4),
        )
        conditioner = Conditioner(model, [0, 2])
        x = data.draw(st.floats(0.0, 5.0))
        first = conditioner([x, 0.0])
        fresh = Conditioner(model, [0, 2])([x, 0.0])
        assert conditioner(np.array([x, 0.0])) is first
        assert bits(first) == bits(fresh)
        # The other zero is other bits: computed afresh, to the same model.
        signed = conditioner([x, -0.0])
        assert signed is not first and bits(signed) == bits(fresh)
        for bad in ([[x, -0.0]], [x, -0.0, 0.0], [x, math.nan], [math.inf, -0.0], [x, -0.1]):
            assert conditioner([x, -0.0]) is signed
            with pytest.raises(ValueError):
                conditioner(bad)

    def test_free_dims_equal_marginalize_then_condition(self):
        rng = np.random.Generator(np.random.PCG64(3004))
        for trial in range(20):
            box = TruncationBox.positive_orthant(4) if trial % 2 else None
            model = random_mixture(rng, dim=4, truncation=box)
            n_obs = int(rng.integers(1, 4))
            dims = rng.permutation(4)
            obs = np.sort(dims[:n_obs])
            free = dims[n_obs : n_obs + int(rng.integers(1, 5 - n_obs))]
            values = rng.uniform(0.1, 2.0, size=n_obs)
            # Free dims first, in the requested order, so the marginal's
            # unobserved dims come out in that order.
            marginal = model.marginalize(np.concatenate([free, obs]))
            want = marginal.condition(np.arange(free.size, free.size + n_obs), values)
            got = model.condition(obs, values, free)
            assert got == want
            np.testing.assert_array_equal(got.sample(20, seed=trial), want.sample(20, seed=trial))

    def test_free_dims_match_condition_then_marginalize(self):
        rng = np.random.Generator(np.random.PCG64(3005))
        for _ in range(20):
            model = random_mixture(rng, dim=4)
            n_obs = int(rng.integers(1, 4))
            obs = np.sort(rng.choice(4, size=n_obs, replace=False))
            rest = np.setdiff1d(np.arange(4), obs)
            keep = rng.permutation(rest.size)[: int(rng.integers(1, rest.size + 1))]
            values = rng.uniform(-3.0, 3.0, size=n_obs)
            want = model.condition(obs, values).marginalize(keep)
            got = model.condition(obs, values, rest[keep])
            for a, b in [
                (got.weights, want.weights),
                (got.means, want.means),
                (got.covariances, want.covariances),
            ]:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_bad_free_dims_rejected(self):
        model = random_mixture(np.random.Generator(np.random.PCG64(3006)), dim=4)
        for free in [[], [1, 2], [0], [2, 2], [4], [-1]]:
            with pytest.raises(ValueError):
                model.condition([0, 1], [0.5, 0.5], free)

    def test_condition_builds_one_conditioner_per_key(self, monkeypatch):
        built = []

        class Counting(Conditioner):
            def __init__(self, *args):
                built.append(args[1:])
                super().__init__(*args)

        monkeypatch.setattr(mixture, "Conditioner", Counting)
        model = random_mixture(np.random.Generator(np.random.PCG64(3007)), dim=4)
        for values in ([0.1, 0.2], [0.3, 0.4], [0.5, 0.6]):
            first = model.condition([0, 2], values)
            assert model.condition(np.array([0, 2]), values) == first
            model.condition([0, 2], values, [3])
            model.condition([0, 2], values, (3,))
        assert built == [((0, 2), None), ((0, 2), (3,))]

    def test_failed_build_is_not_cached(self, monkeypatch):
        attempts = []

        def singular(*args):
            attempts.append(args[1:])
            raise ConditioningError("an observed-block covariance is singular")

        monkeypatch.setattr(mixture, "Conditioner", singular)
        model = random_mixture(np.random.Generator(np.random.PCG64(3008)), dim=4)
        for _ in range(2):
            with pytest.raises(ConditioningError):
                model.condition([1], [0.5])
        assert len(attempts) == 2


class TestSampling:
    def test_deterministic_given_seed(self):
        rng = np.random.Generator(np.random.PCG64(1))
        model = random_mixture(rng, truncation=TruncationBox.positive_orthant(2))
        np.testing.assert_array_equal(model.sample(100, seed=9), model.sample(100, seed=9))
        assert not np.array_equal(model.sample(100, seed=9), model.sample(100, seed=10))

    def test_samples_respect_the_box(self):
        rng = np.random.Generator(np.random.PCG64(2))
        model = random_mixture(rng, truncation=TruncationBox.positive_orthant(2))
        draws = model.sample(5_000, seed=4)
        assert draws.shape == (5_000, 2)
        assert (draws >= 0).all()

    def test_truncated_sample_moments_match_oracle(self):
        # Half-normal sampling: mean/var must match the closed forms.
        model = GaussianMixture(
            np.array([1.0]),
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            truncation=TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        draws = model.sample(200_000, seed=12)[:, 0]
        assert draws.mean() == pytest.approx(HALF_NORMAL_MEAN, abs=5e-3)
        assert draws.var() == pytest.approx(HALF_NORMAL_VAR, abs=5e-3)

    def test_zero_count(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        assert model.sample(0, seed=0).shape == (0, 1)
        assert model.sample(np.int64(2), seed=0).shape == (2, 1)

    @pytest.mark.parametrize("count", [-1, True, False, 2.5, 1.0, "3", None])
    def test_count_must_be_a_nonnegative_integer(self, count):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match="^count must be an integer >= 0"):
            model.sample(count, seed=0)

    def test_one_row_draw_equals_the_array_loop(self):
        """sample(1, seed) of a 1-D mixture: the array loop's row, bit for bit."""

        def array_sample(model, count, seed):
            # The array loop of GaussianMixture.sample, which every count
            # above one and every dimension above one still runs.
            rng = np.random.Generator(np.random.PCG64(seed))
            chols = np.linalg.cholesky(model.covariances)
            cdf = model.weights.cumsum()
            cdf /= cdf[-1]
            out = np.empty((count, model.dim))
            filled = 0
            while filled < count:
                need = count - filled
                idx = cdf.searchsorted(rng.random(need), side="right")
                z = rng.standard_normal((need, model.dim))
                pts = model.means[idx] + np.einsum("nij,nj->ni", chols[idx], z)
                if model.truncation is not None:
                    pts = pts[model.truncation.contains(pts)]
                out[filled : filled + pts.shape[0]] = pts
                filled += pts.shape[0]
            return out

        rng = np.random.Generator(np.random.PCG64(1011))
        seen = {"none": 0, "lower": 0, "upper": 0, "window": 0, "weight 0": 0}
        lowest = 1.0
        pairs = 0
        while pairs < 2000:
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            if k > 1 and rng.random() < 0.3:
                weights[int(rng.integers(k))] = 0.0
                weights /= weights.sum()
            means = rng.uniform(-3.0, 3.0, size=(k, 1))
            sds = rng.uniform(0.2, 2.0, size=k)
            kind = ("none", "lower", "upper", "window")[pairs % 4]
            edge = float(rng.uniform(-4.0, 4.0))
            lower, upper = {
                "none": (None, None),
                "lower": (edge, np.inf),
                "upper": (-np.inf, edge),
                "window": (edge, edge + float(rng.uniform(0.02, 3.0))),
            }[kind]
            box = None if lower is None else TruncationBox(np.array([lower]), np.array([upper]))
            model = GaussianMixture(weights, means, (sds**2)[:, None, None], truncation=box)
            acceptance = model.box_mass()
            if acceptance < 0.015:  # keep the rejection rounds few enough to run fast
                continue
            lowest = min(lowest, acceptance)
            seen[kind] += 1
            seen["weight 0"] += bool((weights == 0.0).any())
            for seed in rng.integers(0, 2**63, size=5):
                got = model.sample(1, int(seed))
                want = array_sample(model, 1, int(seed))
                assert got.shape == want.shape == (1, 1)
                assert got.tobytes() == want.tobytes()  # same bits, same sign of zero
            pairs += 5
        assert lowest < 0.025, lowest
        assert min(seen.values()) >= 50, seen

    def test_one_row_draw_gives_up_like_the_array_loop(self):
        far = GaussianMixture(
            np.array([1.0]),
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            truncation=TruncationBox(np.array([40.0]), np.array([np.inf])),
        )
        with pytest.raises(RuntimeError, match="below 1e-6 after 1000000 draws"):
            far.sample(1, seed=0)

    @pytest.mark.parametrize("count", [1, 2, 7, 500])
    def test_same_draws_as_generator_choice(self, count):
        # The reference loop picks components with Generator.choice(p=...)
        # and tests the box with TruncationBox.contains.
        def reference_sample(model, count, seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            chols = np.linalg.cholesky(model.covariances)
            out = np.empty((0, model.dim))
            while out.shape[0] < count:
                need = count - out.shape[0]
                idx = rng.choice(model.n_components, size=need, p=model.weights)
                z = rng.standard_normal((need, model.dim))
                pts = model.means[idx] + np.einsum("nij,nj->ni", chols[idx], z)
                if model.truncation is not None:
                    pts = pts[model.truncation.contains(pts)]
                out = np.concatenate([out, pts])
            return out

        rng = np.random.Generator(np.random.PCG64(count))
        box = TruncationBox(np.array([0.0, -np.inf]), np.array([2.0, 1.0]))
        weight_zero = GaussianMixture(
            np.array([0.0, 0.25, 0.75]),
            rng.uniform(-1.0, 1.0, size=(3, 2)),
            np.repeat(np.eye(2)[None], 3, axis=0),
            truncation=box,
        )
        for model in (random_mixture(rng, truncation=box), random_mixture(rng), weight_zero):
            for seed in range(20):
                np.testing.assert_array_equal(
                    model.sample(count, seed), reference_sample(model, count, seed)
                )


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(3))
        model = random_mixture(rng, dim=3, truncation=TruncationBox.positive_orthant(3))
        path = tmp_path / "model.json"
        model.save(path)
        back = GaussianMixture.load(path)
        assert back == model
        np.testing.assert_array_equal(back.truncation.lower, model.truncation.lower)
        np.testing.assert_array_equal(back.truncation.upper, model.truncation.upper)

    def test_infinite_bounds_survive_the_trip(self):
        model = GaussianMixture(
            np.array([1.0]),
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            truncation=TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        back = GaussianMixture.from_text(model.to_text())
        assert np.isposinf(back.truncation.upper[0])

    def test_densities_identical_after_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(4))
        model = random_mixture(rng, truncation=TruncationBox.positive_orthant(2))
        back = GaussianMixture.from_text(model.to_text())
        pts = np.abs(rng.standard_normal((20, 2)))
        np.testing.assert_array_equal(model.density(pts), back.density(pts))

    def test_foreign_document_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture.from_text('{"format": "something-else", "version": 1}')


class TestEmFit:
    def test_single_component_closed_form(self):
        """K=1 EM is the sample mean and biased covariance exactly."""
        rng = np.random.Generator(np.random.PCG64(10))
        data = rng.multivariate_normal([1.0, -2.0], [[2.0, 0.6], [0.6, 1.0]], size=400)
        model, diag = em_fit(data, FitConfig(n_components=1, covariance_floor=0.0))
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(
            model.covariances[0], np.cov(data, rowvar=False, bias=True), atol=1e-9
        )
        assert model.weights[0] == 1.0

    def test_single_component_closed_form_far_from_the_origin(self):
        """As above on the same data plus 1e4: the scatter is centered."""
        rng = np.random.Generator(np.random.PCG64(10))
        data = rng.multivariate_normal([1.0, -2.0], [[2.0, 0.6], [0.6, 1.0]], size=400) + 1e4
        model, _ = em_fit(data, FitConfig(n_components=1, covariance_floor=0.0))
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(
            model.covariances[0], np.cov(data, rowvar=False, bias=True), atol=1e-9
        )
        assert model.weights[0] == 1.0

    @pytest.mark.parametrize(
        "mode, max_iterations, event",
        [("none", 3, (2, 1)), ("truncated", 2, (1, 1))],
    )
    def test_singular_component_is_reinitialized(self, mode, max_iterations, event):
        # Six copies of one point far from 200 standard-normal rows: with no
        # covariance floor, component 1 closes in on them until its
        # covariance fails Cholesky, and EM restarts it from a random data
        # row (row 43) with the pooled covariance.  Recorded events; the
        # iteration cap keeps only the first, because the later events of
        # such a singular fit move with last-bit rounding.
        rows = np.random.Generator(np.random.PCG64(0)).standard_normal((200, 2))
        data = np.concatenate([rows, np.tile([6.0, 6.0], (6, 1))])
        if mode == "truncated":
            data = np.abs(data)  # into the positive orthant
        model, diag = em_fit(
            data,
            FitConfig(
                n_components=3, covariance_floor=0.0, seed=0, truncation_mode=mode,
                max_iterations=max_iterations, mc_moment_draws=500,
            ),
        )
        assert diag.reinit_events == [event]
        assert diag.n_iterations == max_iterations
        np.testing.assert_array_equal(model.means[1], data[43])
        pooled = np.cov(data, rowvar=False, bias=True) + 1e-10 * np.eye(2)
        np.testing.assert_allclose(model.covariances[1], pooled, rtol=1e-12)

    def test_loglik_trace_monotone_untruncated(self):
        rng = np.random.Generator(np.random.PCG64(11))
        data = np.concatenate(
            [
                rng.multivariate_normal([0, 0], np.eye(2), size=150),
                rng.multivariate_normal([4, 3], np.eye(2), size=150),
            ]
        )
        _, diag = em_fit(data, FitConfig(n_components=2, seed=1))
        trace = np.array(diag.loglik_trace)
        assert (np.diff(trace) >= -1e-9 * len(data)).all()
        assert diag.converged

    def test_loglik_trace_monotone_truncated_one_dim(self):
        # d=1 runs the closed-form moment path, so the truncated trace
        # carries no Monte Carlo noise and must also be monotone.
        rng = np.random.Generator(np.random.PCG64(12))
        data = np.abs(rng.standard_normal(600))[:, None]
        _, diag = em_fit(
            data,
            FitConfig(n_components=1, truncation_mode="truncated", seed=2),
            box=TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        trace = np.array(diag.loglik_trace)
        assert (np.diff(trace) >= -1e-9 * len(data)).all()

    def test_truncated_mode_removes_boundary_bias(self):
        """Half-normal data: the truncated fit sees through the cut."""
        rng = np.random.Generator(np.random.PCG64(7))
        data = np.abs(rng.standard_normal(3_000))[:, None]
        naive, _ = em_fit(data, FitConfig(n_components=1))
        fixed, _ = em_fit(
            data,
            FitConfig(n_components=1, truncation_mode="truncated", max_iterations=1000),
            box=TruncationBox(np.array([0.0]), np.array([np.inf])),
        )
        assert naive.means[0, 0] > 0.7  # pulled to the truncated sample mean
        assert abs(fixed.means[0, 0]) < 0.15

    def test_truncated_fit_reports_the_box(self):
        rng = np.random.Generator(np.random.PCG64(13))
        data = np.abs(rng.standard_normal((200, 2)))
        model, _ = em_fit(
            data, FitConfig(n_components=1, truncation_mode="truncated")
        )
        assert model.truncation is not None
        np.testing.assert_array_equal(model.truncation.lower, [0.0, 0.0])

    def test_rows_outside_box_rejected(self):
        data = np.array([[1.0], [-0.5]])
        with pytest.raises(ValueError):
            em_fit(
                data,
                FitConfig(n_components=1, truncation_mode="truncated"),
                box=TruncationBox(np.array([0.0]), np.array([np.inf])),
            )

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            em_fit(np.zeros((2, 1)), FitConfig(n_components=3))

    def test_restarts_keep_best_loglik(self):
        rng = np.random.Generator(np.random.PCG64(14))
        data = np.concatenate(
            [
                rng.multivariate_normal([0, 0], np.eye(2) * 0.2, size=100),
                rng.multivariate_normal([5, 0], np.eye(2) * 0.2, size=100),
                rng.multivariate_normal([0, 5], np.eye(2) * 0.2, size=100),
            ]
        )
        _, diag = em_fit(data, FitConfig(n_components=3, restarts=4, seed=3))
        assert diag.final_loglik == pytest.approx(max(diag.restart_logliks), rel=1e-12)
        assert len(diag.restart_logliks) == 4

    def test_non_finite_parameters_are_a_value_error(self):
        # Rows near 1e200 overflow the pooled covariance to inf.
        data = np.random.Generator(np.random.PCG64(18)).uniform(0.0, 1e200, (50, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                em_fit(data, FitConfig(n_components=1, truncation_mode="truncated"))
            with pytest.raises(ValueError, match="every requested component count failed"):
                select_components(data, [1], FitConfig(n_components=1))

    def test_fit_deterministic_given_seed(self):
        rng = np.random.Generator(np.random.PCG64(15))
        data = np.abs(rng.standard_normal((300, 2)))
        cfg = FitConfig(n_components=2, truncation_mode="truncated", seed=9,
                        max_iterations=40)
        a, _ = em_fit(data, cfg)
        b, _ = em_fit(data, cfg)
        assert a == b


class TestFitConfig:
    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"])
    @pytest.mark.parametrize(
        "name", ["n_components", "max_iterations", "restarts", "mc_moment_draws", "seed"]
    )
    def test_count_fields_must_be_integers(self, name, value):
        fields = {"n_components": 2, "truncation_mode": "truncated", name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            FitConfig(**fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
    @pytest.mark.parametrize("name", ["loglik_tolerance", "covariance_floor"])
    def test_float_fields_must_be_finite_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            FitConfig(n_components=1, **{name: value})

    def test_numpy_integers_are_counts(self):
        config = FitConfig(
            n_components=np.int64(2), max_iterations=np.int32(5), restarts=np.uint8(2),
            mc_moment_draws=np.int64(500), seed=np.uint64(7), truncation_mode="truncated",
        )
        plain = FitConfig(
            n_components=2, max_iterations=5, restarts=2, mc_moment_draws=500, seed=7,
            truncation_mode="truncated",
        )
        assert config == plain
        assert all(type(getattr(config, name)) is int for name in ("n_components", "seed"))
        data = np.abs(np.random.Generator(np.random.PCG64(3)).standard_normal((60, 2)))
        assert em_fit(data, config)[0] == em_fit(data, plain)[0]


class TestBic:
    def test_formula_with_hand_counted_parameters(self):
        # K=1, d=1: one weight is pinned, so p = 0 + 1 + 1 = 2.
        rng = np.random.Generator(np.random.PCG64(16))
        data = rng.standard_normal((50, 1))
        model, _ = em_fit(data, FitConfig(n_components=1))
        want = -2.0 * model.log_likelihood(data) + 2.0 * math.log(50)
        assert bic(model, data) == pytest.approx(want, rel=1e-12)

    def test_parameter_count_at_k10_d4(self):
        # p = (K-1) + K*d + K*d*(d+1)/2 = 9 + 40 + 100 = 149.
        rng = np.random.Generator(np.random.PCG64(17))
        means = rng.uniform(-1, 1, size=(10, 4))
        model = GaussianMixture(np.full(10, 0.1), means, np.tile(np.eye(4), (10, 1, 1)))
        data = rng.standard_normal((60, 4))
        penalty = bic(model, data) + 2.0 * model.log_likelihood(data)
        assert penalty == pytest.approx(149.0 * math.log(60), rel=1e-12)


class TestSelectComponents:
    @staticmethod
    def three_cluster_data(seed, n=600):
        rng = np.random.Generator(np.random.PCG64(seed))
        sizes = rng.multinomial(n, [0.5, 0.3, 0.2])
        parts = [
            rng.multivariate_normal([0, 0], [[1.0, 0.3], [0.3, 0.8]], size=sizes[0]),
            rng.multivariate_normal([6, 1], [[0.6, -0.2], [-0.2, 1.2]], size=sizes[1]),
            rng.multivariate_normal([2, 7], [[0.9, 0.0], [0.0, 0.5]], size=sizes[2]),
        ]
        return np.concatenate(parts)

    def test_singleton_range(self):
        data = self.three_cluster_data(100)
        result = select_components(data, [1], FitConfig(n_components=1))
        assert result.selected_k == 1
        assert len(result.curve) == 1
        assert result.curve[0].change_rate is None

    def test_flat_region_rule_picks_small_k(self):
        data = self.three_cluster_data(101)
        result = select_components(
            data, range(1, 6), FitConfig(n_components=1, seed=5), rate_threshold=0.10
        )
        assert result.selected_k in (3, 4)
        ks = [p.n_components for p in result.curve]
        assert ks == sorted(ks)

    def test_zero_threshold_means_argmin(self):
        data = self.three_cluster_data(102)
        result = select_components(
            data, range(1, 6), FitConfig(n_components=1, seed=5), rate_threshold=0.0
        )
        best = min(result.curve, key=lambda p: p.bic_value)
        assert result.selected_k == best.n_components

    def test_unfittable_counts_are_recorded(self):
        data = self.three_cluster_data(103, n=4)
        result = select_components(data, [1, 50], FitConfig(n_components=1))
        assert result.selected_k == 1
        assert [k for k, _ in result.failures] == [50]

    def test_all_failures_raise(self):
        data = self.three_cluster_data(104, n=3)
        with pytest.raises(ValueError):
            select_components(data, [40, 50], FitConfig(n_components=1))

    # Four-dimensional truncated sweeps of reference-generator rows, K = 1..3,
    # against truncated_corpus.json: BIC to relative 1e-9, the rest with ==.
    @pytest.mark.parametrize("seed", [seed for seed, _ in pins.TRUNCATED_SWEEPS.rows()])
    def test_truncated_sweep_matches_recorded_corpus(self, seed):
        recorded = dict(pins.TRUNCATED_SWEEPS.rows())[seed]
        computed = pins.TRUNCATED_SWEEPS.compute(seed)
        assert [row[0] for row in computed] == [1, 2, 3]
        assert pins.TRUNCATED_SWEEPS.agrees(seed, recorded, computed)

    def test_bad_k_range(self):
        with pytest.raises(ValueError):
            select_components(np.zeros((5, 1)), [], FitConfig(n_components=1))
        with pytest.raises(ValueError):
            select_components(np.zeros((5, 1)), [0, 1], FitConfig(n_components=1))


class TestConditionalMode:
    def test_standard_normal(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        assert conditional_mode(model, (-3.0, 3.0)) == pytest.approx(0.0, abs=1e-7)

    def test_interval_clamps_the_search(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        assert conditional_mode(model, (1.0, 3.0)) == pytest.approx(1.0, abs=1e-7)

    def test_picks_the_taller_bump(self):
        model = GaussianMixture(
            np.array([0.35, 0.65]),
            np.array([[-2.0], [2.0]]),
            np.array([[[0.25]], [[0.25]]]),
        )
        assert conditional_mode(model, (-5.0, 5.0)) == pytest.approx(2.0, abs=1e-6)

    def test_never_below_best_grid_point(self):
        rng = np.random.Generator(np.random.PCG64(18))
        for trial in range(5):
            model = random_mixture(rng, dim=1, k=3)
            lo, hi = -6.0, 6.0
            mode = conditional_mode(model, (lo, hi))
            grid = np.linspace(lo, hi, 2048)[:, None]
            assert model.density(np.array([mode])) >= model.density(grid).max() - 1e-12

    def test_requires_one_dimensional_model(self):
        model = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(ValueError):
            conditional_mode(model, (0.0, 1.0))
