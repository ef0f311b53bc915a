"""The scalar normal layer: the Cephes ndtr port, interval masses and
the standardised box, checked bit for bit against scipy or the forms
they replace.
"""

import math

import numpy as np
from scipy.special import ndtr

from crossingsim import mixture, normal


def _cdf_edge_inputs():
    """Branch points of Cephes' ndtr and erfc and extreme magnitudes, each
    of either sign and with its 50 nearest floats on both sides."""
    centres = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7, 38.0,
               1e-300, 5e-324, 1e300]
    values = []
    for centre in centres:
        for x in (centre, -centre):
            below = above = x
            values.append(x)
            for _ in range(50):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                values += [below, above]
    return np.array(values)


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, (bad[:5], got[bad[:5]], want[bad[:5]])


class TestNormalCdfPort:
    """The port of Cephes' ndtr against scipy.special.ndtr, bit for bit."""

    @staticmethod
    def port(xs):
        return np.array([normal._ndtr(x) for x in xs.tolist()])

    def test_branch_edges_and_neighbours(self):
        xs = _cdf_edge_inputs()
        assert_bitwise_equal(self.port(xs), ndtr(xs))

    def test_seeded_sample_on_the_tails(self):
        xs = np.random.default_rng(20170).uniform(-40.0, 40.0, 100_000)
        assert_bitwise_equal(self.port(xs), ndtr(xs))

    def test_infinities_and_nan(self):
        assert normal._ndtr(math.inf) == 1.0
        assert normal._ndtr(-math.inf) == 0.0
        assert math.isnan(normal._ndtr(math.nan))

    def test_interval_mass_matches_the_scipy_formula(self):
        rng = np.random.default_rng(8)
        ends = np.sort(rng.uniform(-12.0, 12.0, size=(20_000, 2)), axis=1)
        ends[:2000, 0] = -np.inf
        ends[2000:4000, 1] = np.inf
        ends[4000:4100] = [-np.inf, np.inf]
        ends[4100:5000] = np.sort(rng.choice(_cdf_edge_inputs(), size=(900, 2)), axis=1)
        alpha, beta = ends[:, 0], ends[:, 1]
        want = np.where(alpha >= 0.0, ndtr(-alpha) - ndtr(-beta), ndtr(beta) - ndtr(alpha))
        got = [normal._scalar_interval_mass(a, b) for a, b in ends.tolist()]
        assert_bitwise_equal(np.array(got), want)


def test_standardize_gives_the_bits_of_the_guarded_form():
    # Before the leaf, the 1-D moments mapped an infinite bound to an
    # infinity of its own; a finite mean and sd > 0 give the same.
    rng = np.random.default_rng(26)
    means = rng.uniform(-50.0, 50.0, 2000).tolist()
    sds = np.exp(rng.uniform(-20.0, 5.0, 2000)).tolist()
    bounds = np.sort(rng.uniform(-60.0, 60.0, size=(2000, 2)), axis=1)
    bounds[:500, 0] = -np.inf
    bounds[500:1000, 1] = np.inf
    bounds[1000:1100] = [-np.inf, np.inf]
    for mean, sd, (lo, hi) in zip(means, sds, bounds.tolist()):
        want = (
            (lo - mean) / sd if math.isfinite(lo) else -math.inf,
            (hi - mean) / sd if math.isfinite(hi) else math.inf,
        )
        got = normal._standardize(lo, hi, mean, sd)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_mixture_raises_the_leafs_error():
    assert mixture.DegenerateTruncationError is normal.DegenerateTruncationError
