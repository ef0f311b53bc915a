"""Truncated mixtures: moments, densities, conditioning, EM, and selection.

Closed-form oracle values are frozen as literals; scipy serves as an
independent implementation for everything that has one there.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm, truncnorm

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

    def test_hopeless_box_raises(self):
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        box = TruncationBox(np.array([12.0, 12.0]), np.array([13.0, 13.0]))
        with pytest.raises(DegenerateTruncationError):
            truncated_moments(comp, box, method="mc", n_accepted=1_000, seed=0)


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

    def test_log_likelihood_is_row_sum(self):
        rng = np.random.Generator(np.random.PCG64(5))
        model = random_mixture(rng)
        data = rng.uniform(-2, 2, size=(50, 2))
        assert model.log_likelihood(data) == pytest.approx(
            float(model.log_density_rows(data).sum()), rel=1e-14
        )


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

    def test_fit_deterministic_given_seed(self):
        rng = np.random.Generator(np.random.PCG64(15))
        data = np.abs(rng.standard_normal((300, 2)))
        cfg = FitConfig(n_components=2, truncation_mode="truncated", seed=9,
                        max_iterations=40)
        a, _ = em_fit(data, cfg)
        b, _ = em_fit(data, cfg)
        assert a == b


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
