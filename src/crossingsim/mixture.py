"""Box-truncated Gaussian mixture models.

Implements the interaction-model machinery: density evaluation, maximum
likelihood fitting by expectation-maximization with truncation-aware
moment corrections, BIC-based component selection, marginalization,
exact Gaussian conditioning, seeded sampling, and mode search on 1-D
conditionals.

Truncation convention: a truncated mixture is the untruncated mixture
density restricted to an axis-aligned box and renormalized by the total
box mass ``c = sum_k w_k * mass_k``.  This matches data produced by
rejection: draw from the untruncated mixture, keep points inside the
box.  The EM treats the discarded draws as missing data, which yields
closed-form M-step corrections built from the first and second moments
of each component over the box.

Moment evaluation is exact for one-dimensional components and Monte
Carlo (seeded rejection sampling) otherwise.  A Monte Carlo evaluation
with accepted-draw target n first draws one block of max(4n, 8192)
standard normals and keeps every accepted draw in it, so n = 2000 on a
box of mass near 1 averages about 8190 draws, not 2000; only a component
that accepts fewer than n goes on sampling.  EM keeps one stream per
restart and component: its first block is drawn once, and the rows past
it are kept apart from it (:class:`FitConfig` gives their memory).

The module needs numpy alone.  The 1-D closed forms (box masses and
truncated moments) come from ``crossingsim/normal.py``, whose port of
Cephes' ``ndtr`` equals ``scipy.special.ndtr`` bit for bit, so no stage
loads scipy.  Code that brings scipy back pays in memory wherever it
runs: importing ``scipy.special`` adds about 25 MB to a process's peak
resident memory, and ``scipy.stats.qmc`` about 46 MB more.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from crossingsim import checks
from crossingsim.normal import (
    _MASS_FLOOR,
    DegenerateTruncationError,
    _moments_1d,
    _scalar_interval_mass,
    _standardize,
)
from crossingsim.seeds import derive_seed

__all__ = [
    "TruncationBox",
    "GaussianComponent",
    "GaussianMixture",
    "TruncatedMoments",
    "FitConfig",
    "FitDiagnostics",
    "SelectionResult",
    "DegenerateTruncationError",
    "ConditioningError",
    "truncated_moments",
    "em_fit",
    "bic",
    "n_free_parameters",
    "select_components",
    "conditional_mode",
    "conditional_modes",
    "Conditioner",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Internal master seed for model-level normalization constants.  Fixed so
# that two models with identical parameters report identical densities in
# every process.
_MASS_SEED = 0x63726F73
# Accepted-draw target of the Monte Carlo box masses.  The draws are
# counted in chunks of at most _MIN_CHUNK rows, never kept.
_MASS_DRAWS = 20_000
# Fewest rows of a Monte Carlo draw block or continuation chunk.
_MIN_CHUNK = 8192


class ConditioningError(ValueError):
    """Conditioning failed because the observed-block covariance is singular."""


# ---------------------------------------------------------------------------
# Truncation box
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TruncationBox:
    """Axis-aligned truncation region ``lower[i] <= y[i] <= upper[i]``.

    Bounds may be infinite on either side; ``lower`` must be strictly
    below ``upper`` in every dimension.  Two boxes are equal when their
    bounds are.
    """

    lower: np.ndarray
    upper: np.ndarray
    # (column, bound) of every finite bound, for Conditioner; _inside
    # tests upper bounds only when _finite_upper is not empty.
    _finite_lower: tuple = field(init=False, repr=False, compare=False)
    _finite_upper: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("box bounds must not be NaN")
        if not (lower < upper).all():
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)
        for name, bounds in (("_finite_lower", lower), ("_finite_upper", upper)):
            finite = np.flatnonzero(np.isfinite(bounds))
            object.__setattr__(self, name, tuple(zip(finite.tolist(), bounds[finite].tolist())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncationBox):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )

    @classmethod
    def positive_orthant(cls, dim: int) -> "TruncationBox":
        """Box [0, inf) in every dimension."""
        return cls(np.zeros(dim), np.full(dim, np.inf))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def is_unbounded(self) -> bool:
        return bool(np.isneginf(self.lower).all() and np.isposinf(self.upper).all())

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean inclusion test; accepts one point or a stack of rows.

        A point with a NaN coordinate lies in no box.
        """
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, box has {self.dim}")
        inside = _inside(self, pts)
        inside &= (pts == pts).all(axis=1)  # False for a row holding a NaN
        return bool(inside[0]) if squeeze else inside

    def sliced(self, dims: Sequence[int]) -> "TruncationBox":
        """Box restricted to a subset of dimensions, in the given order."""
        idx = np.asarray(dims, dtype=int)
        return TruncationBox(self.lower[idx].copy(), self.upper[idx].copy())


# ---------------------------------------------------------------------------
# Components and moments
# ---------------------------------------------------------------------------


def _validate_covariance(cov: np.ndarray, what: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError(f"{what} must be finite")
    scale = float(np.abs(cov).max()) or 1.0
    if not (np.abs(cov - cov.T) <= 1e-10 * scale).all():
        raise ValueError(f"{what} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} must be positive definite") from exc
    return cov


@dataclass(frozen=True)
class GaussianComponent:
    """Mean vector and symmetric positive-definite covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a 1-D array")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        cov = _validate_covariance(self.covariance, "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        self.mean.setflags(write=False)
        self.covariance.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class TruncatedMoments:
    """Box mass plus mean and covariance of the box-restricted normal."""

    mass: float
    mean: np.ndarray
    covariance: np.ndarray


class _NormalStream:
    """One component's seeded standard-normal rows, in generator order.

    The first block of ``first`` rows is drawn when the stream is built;
    ``rows(0, first)`` returns it.  Any other ``rows(start, stop)`` returns
    rows past the block, each drawn once and kept apart from it, so
    growing them never copies the block.
    """

    def __init__(self, seed: int, first: int, dim: int) -> None:
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._block = self._rng.standard_normal((first, dim))
        self._more = np.empty((0, dim))

    def rows(self, start: int, stop: int) -> np.ndarray:
        first = self._block.shape[0]
        if start == 0:
            if stop != first:
                raise ValueError(f"the first block is read whole: rows(0, {first}), not {stop}")
            return self._block
        have = self._more.shape[0]
        if stop - first > have:
            more = self._rng.standard_normal((stop - first - have, self._block.shape[1]))
            self._more = np.concatenate([self._more, more]) if have else more
        return self._more[start - first : stop - first]


def _first_block_rows(n_accepted: int) -> int:
    """Rows of the first draw block for an accepted-draw target of ``n_accepted``."""
    return max(4 * n_accepted, _MIN_CHUNK)


def _rejection_schedule(n_accepted: int, take: Callable[[int, int], int]) -> tuple[int, int]:
    """The draw schedule of the Monte Carlo kernels, for one component.

    ``take(start, stop)`` handles rows ``start`` to ``stop - 1`` of the
    component's standard-normal stream and returns how many of them fall
    inside the box.  The first call takes the first block
    (:func:`_first_block_rows`).  A component that has accepted fewer
    than ``n_accepted`` draws continues in chunks scaled to its observed
    acceptance rate, within a budget of max(200 * n_accepted, 2e6) draws.

    Returns (accepted, drawn).

    Raises:
        DegenerateTruncationError: fewer than max(2, n_accepted // 200)
            draws accepted within the budget.
    """
    budget = max(200 * n_accepted, 2_000_000)
    drawn = _first_block_rows(n_accepted)
    accepted = take(0, drawn)
    while accepted < n_accepted and drawn < budget:
        rate = max(accepted / drawn, 1e-3)
        chunk = int(min(max((n_accepted - accepted) / rate * 1.2, _MIN_CHUNK), 4_000_000))
        stop = drawn + min(chunk, budget - drawn)
        accepted += take(drawn, stop)
        drawn = stop
    if accepted < max(2, n_accepted // 200):
        raise DegenerateTruncationError(
            f"rejection sampling accepted {accepted}/{drawn} draws; "
            "box mass is too small to estimate"
        )
    return accepted, drawn


def _add_row(rows: np.ndarray, row: np.ndarray) -> None:
    """``rows += row`` in place, with the same bits, for C-contiguous (n, d) rows.

    Broadcasting a (d,) row over (n, d) rows runs numpy's inner loop over
    d elements n times; viewing whole groups of 64 rows as one row of 64d
    elements runs it over 64d (about 25 against 55 us on (8192, 4) rows,
    x86_64 Xeon).  The last n mod 64 rows take the row as they are.
    """
    n, d = rows.shape
    whole = n - n % 64
    if whole:
        grouped = rows[:whole].reshape(whole // 64, 64 * d)
        grouped += np.tile(row, 64)
    rows[whole:] += row


def _inside(box: TruncationBox, points: np.ndarray) -> np.ndarray:
    """The bound tests of :meth:`TruncationBox.contains` over (n, d) rows,
    without its NaN rule.

    Compares every coordinate with its lower bound, and with its upper
    bound when some upper bound is finite, into (tests, n) flags that one
    contiguous reduction joins.  An infinite bound passes every value
    but NaN, so a NaN anywhere in a row fails it here; ``contains``
    fails such a row by its own rule, and the Monte Carlo kernels and
    ``sample`` test only finite draws.
    """
    n, d = points.shape
    columns = points.T
    flags = np.empty((2 * d if box._finite_upper else d, n), dtype=bool)
    np.greater_equal(columns, box.lower[:, None], out=flags[:d])
    if box._finite_upper:
        np.less_equal(columns, box.upper[:, None], out=flags[d:])
    return np.logical_and.reduce(flags, axis=0)


def _moments_mc(
    means: np.ndarray,
    chols: np.ndarray,
    box: TruncationBox,
    n_accepted: int,
    streams: Sequence[_NormalStream],
) -> list[TruncatedMoments]:
    """Rejection-sampled moments of box-truncated normals, one per component.

    Component j is N(means[j], chols[j] chols[j]^T), sampled as
    means[j] + chols[j] z over the rows z of ``streams[j]`` as
    :func:`_rejection_schedule` sets out; every accepted draw of the
    first block is kept.  The mass is accepted / drawn; mean and
    covariance are those of the accepted draws, with the bits of
    ``mean(axis=0)`` and ``centered.T @ centered``.
    """
    out = []
    for mean, chol, stream in zip(means, chols, streams):
        chol_t = np.ascontiguousarray(chol.T)
        kept = []

        def take(start: int, stop: int) -> int:
            shifted = stream.rows(start, stop) @ chol_t
            _add_row(shifted, mean)
            kept.append(np.compress(_inside(box, shifted), shifted, axis=0))
            return kept[-1].shape[0]

        accepted, drawn = _rejection_schedule(n_accepted, take)
        sample = kept[0] if len(kept) == 1 else np.concatenate(kept)
        # The reference's mean(axis=0) sums two or more columns row by row,
        # as einsum does in a quarter of the time (43 against 182 us on
        # (8000, 4) rows, x86_64 Xeon), and one column pairwise.
        if sample.shape[1] == 1:
            t_mean = sample.mean(axis=0)
        else:
            t_mean = np.einsum("ij->j", sample) / accepted
        _add_row(sample, -t_mean)  # x + (-m) is x - m, bit for bit
        t_cov = sample.T @ sample / accepted
        out.append(TruncatedMoments(mass=accepted / drawn, mean=t_mean, covariance=t_cov))
    return out


def _box_mass_mc(
    mean: np.ndarray, chol: np.ndarray, box: TruncationBox, n_accepted: int, seed: int
) -> float:
    """``truncated_moments(method="mc")``'s mass for these draws, counted.

    Follows the same draw schedule over the same stream, so the mass is
    the same accepted / drawn bit for bit, but takes the rows in chunks of
    at most 8192 and keeps only the count of those inside the box.  A
    row's shift mean + chol z is the same whatever chunk holds it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    chol_t = np.ascontiguousarray(chol.T)
    z = np.empty((_MIN_CHUNK, mean.shape[0]))

    def count(start: int, stop: int) -> int:
        inside = 0
        for lo in range(start, stop, _MIN_CHUNK):
            chunk = z[: min(stop - lo, _MIN_CHUNK)]
            rng.standard_normal(out=chunk)
            shifted = chunk @ chol_t
            _add_row(shifted, mean)
            inside += int(np.count_nonzero(_inside(box, shifted)))
        return inside

    accepted, drawn = _rejection_schedule(n_accepted, count)
    return accepted / drawn


def truncated_moments(
    component: GaussianComponent,
    box: TruncationBox,
    method: str = "auto",
    n_accepted: int = 20_000,
    seed: int = 0,
) -> TruncatedMoments:
    """Mass, mean, and covariance of a component restricted to a box.

    Args:
        component: untruncated Gaussian parameters.
        box: truncation region; must match the component dimension.
        method: "exact" (1-D closed forms, or any dimension with an
            unbounded box), "mc" (seeded rejection sampling), or "auto"
            which picks exact where available and Monte Carlo otherwise.
        n_accepted: accepted-draw target n for the Monte Carlo path, a
            positive integer.  The first block has max(4n, 8192) draws
            and every accepted draw in it is kept, so the estimate can
            use several times n.
        seed: Monte Carlo seed; identical inputs give identical output.

    Raises:
        DegenerateTruncationError: box mass below ``_MASS_FLOOR`` (exact path)
            or too few accepted draws within the sampling budget (MC path).
        ValueError: n_accepted is not a positive integer (MC path).
    """
    if box.dim != component.dim:
        raise ValueError("box dimension does not match component dimension")
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if box.is_unbounded and method != "mc":
        return TruncatedMoments(
            mass=1.0, mean=component.mean.copy(), covariance=component.covariance.copy()
        )
    if method == "exact" or (method == "auto" and component.dim == 1):
        if component.dim != 1 and not box.is_unbounded:
            raise ValueError("exact moments are only available for 1-D components")
        mass, mean, var = _moments_1d(
            float(component.mean[0]), float(component.covariance[0, 0]),
            float(box.lower[0]), float(box.upper[0]),
        )
        return TruncatedMoments(mass=mass, mean=np.array([mean]), covariance=np.array([[var]]))
    n_accepted = checks.integer("n_accepted", n_accepted, low=1)
    chol = np.linalg.cholesky(component.covariance)
    stream = _NormalStream(seed, _first_block_rows(n_accepted), component.dim)
    return _moments_mc(component.mean[None], chol[None], box, n_accepted, [stream])[0]


# ---------------------------------------------------------------------------
# Mixture model
# ---------------------------------------------------------------------------

_WEIGHT_SUM_TOL = 1e-12


def _dim_index(dims: Sequence[int], dim: int, what: str) -> np.ndarray:
    """``dims`` as an index array; they must be non-empty, unique and below ``dim``."""
    idx = np.asarray(dims, dtype=int)
    if idx.size == 0 or idx.size != np.unique(idx).size:
        raise ValueError(f"{what} must be non-empty and unique")
    if (idx < 0).any() or (idx >= dim).any():
        raise ValueError(f"{what} out of range for dim {dim}")
    return idx


def _component_log_densities(
    rows: np.ndarray, means: np.ndarray, chols: np.ndarray
) -> np.ndarray:
    """Untruncated log densities of N(means[k], chols[k] chols[k]^T), shape (n, K).

    All K components are whitened at once, component-major: with
    W_k = chols[k]^-1 the Mahalanobis term is |W_k (y - means[k])|^2, one
    batched inverse and one batched (K, d, d) @ (K, d, n) product for the
    whole stack.  The result is the transpose of a (K, n) array.
    """
    whiten = np.linalg.inv(chols)
    white = whiten @ (np.ascontiguousarray(rows.T) - means[:, :, None])
    white *= white
    log_norms = -0.5 * means.shape[1] * _LOG_2PI - np.log(
        np.diagonal(chols, axis1=1, axis2=2)
    ).sum(axis=1)
    return (log_norms[:, None] - 0.5 * white.sum(axis=1)).T


def _logsumexp_rows(values: np.ndarray) -> np.ndarray:
    """log(sum(exp(values), axis=1)), shifted by each row's maximum.

    A row that is all -inf (every term has weight 0) gives -inf, with no
    floating-point warning.
    """
    top = values.max(axis=1)
    top = np.where(np.isneginf(top), 0.0, top)
    total = np.exp(values - top[:, None]).sum(axis=1)
    return top + np.log(total, out=np.full(total.shape, -np.inf), where=total > 0)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    # Conditioning can underflow a weight to exactly 0; log it as -inf
    # without tripping numpy's divide warning.
    return np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)


class GaussianMixture:
    """Weighted Gaussian mixture, optionally truncated to a box.

    Instances are treated as immutable: parameter arrays are stored
    read-only and derived quantities (Cholesky factors, box masses,
    conditioners) are cached on first use, so concurrent reads are safe.
    """

    def __init__(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        truncation: Optional[TruncationBox] = None,
        fit_seed: Optional[int] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=float).copy()
        means = np.asarray(means, dtype=float).copy()
        covariances = np.asarray(covariances, dtype=float).copy()
        if weights.ndim != 1:
            raise ValueError("weights must be 1-D")
        n_components = weights.shape[0]
        if n_components == 0:
            raise ValueError("mixture needs at least one component")
        if means.ndim != 2 or means.shape[0] != n_components:
            raise ValueError("means must have shape (n_components, dim)")
        dim = means.shape[1]
        if covariances.shape != (n_components, dim, dim):
            raise ValueError("covariances must have shape (n_components, dim, dim)")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        for k in range(n_components):
            _validate_covariance(covariances[k], f"covariance[{k}]")
        if truncation is not None and truncation.dim != dim:
            raise ValueError("truncation box dimension does not match model")
        self._store(weights, means, covariances, truncation, fit_seed, None)

    @classmethod
    def _trusted(
        cls,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        truncation: Optional[TruncationBox],
        chols: np.ndarray,
    ) -> "GaussianMixture":
        """Wrap parameters that are valid by construction, skipping the checks.

        The arrays are stored as given (and made read-only), not copied;
        ``chols`` are the Cholesky factors of ``covariances``.
        """
        model = cls.__new__(cls)
        model._store(weights, means, covariances, truncation, None, chols)
        return model

    def _store(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        truncation: Optional[TruncationBox],
        fit_seed: Optional[int],
        chols: Optional[np.ndarray],
    ) -> None:
        """Set the parameters, read-only, and empty every cache."""
        for arr in (weights, means, covariances, chols):
            if arr is not None:
                arr.setflags(write=False)
        self.weights = weights
        self.means = means
        self.covariances = covariances
        self.truncation = truncation
        self.fit_seed = fit_seed
        self._chols = chols
        self._box_masses: Optional[np.ndarray] = None
        self._conditioners: dict[tuple, Conditioner] = {}
        self._marginals: dict[tuple, GaussianMixture] = {}

    # -- basic introspection ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def components(self) -> list[GaussianComponent]:
        return [
            GaussianComponent(self.means[k].copy(), self.covariances[k].copy())
            for k in range(self.n_components)
        ]

    def __repr__(self) -> str:
        kind = "truncated" if self.truncation is not None else "untruncated"
        return f"GaussianMixture(K={self.n_components}, d={self.dim}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianMixture):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.fit_seed == other.fit_seed
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.means, other.means)
            and np.array_equal(self.covariances, other.covariances)
        )

    # -- density ------------------------------------------------------------

    def _cholesky_factors(self) -> np.ndarray:
        if self._chols is None:
            self._chols = np.linalg.cholesky(self.covariances)
        return self._chols

    def _mass_table(self) -> np.ndarray:
        """:meth:`component_box_masses` before its underflow check.  In 1-D
        it is the closed form in Python floats (exactly 1 on an unbounded
        box), and a component's mass may underflow to 0 there."""
        if self._box_masses is None:
            box = self.truncation
            if box is not None and self.dim == 1:
                lo, hi = float(box.lower[0]), float(box.upper[0])
                sds = map(math.sqrt, self.covariances[:, 0, 0].tolist())
                masses = np.array(
                    [
                        _scalar_interval_mass(*_standardize(lo, hi, mean, sd))
                        for mean, sd in zip(self.means[:, 0].tolist(), sds)
                    ]
                )
            elif box is None or box.is_unbounded:
                masses = np.ones(self.n_components)
            else:
                chols = self._cholesky_factors()
                masses = np.array(
                    [
                        _box_mass_mc(
                            self.means[k],
                            chols[k],
                            box,
                            _MASS_DRAWS,
                            derive_seed(_MASS_SEED, "box-mass", k),
                        )
                        for k in range(self.n_components)
                    ]
                )
            masses.setflags(write=False)
            self._box_masses = masses
        return self._box_masses

    def component_box_masses(self) -> np.ndarray:
        """Per-component probability mass inside the truncation box.

        Exact for 1-D or unbounded boxes; otherwise seeded Monte Carlo
        per component: the share of draws inside the box over every row
        of a first block of 80 000 draws (4 x ``_MASS_DRAWS``), continued
        while fewer than 20 000 are inside.  The draws are counted in
        chunks of at most 8192 rows and never kept, so the transient is
        one chunk whatever the draw count.  The masses are built once per
        model and cached read-only: they normalize every truncated density
        evaluation, and :meth:`normalization` and :meth:`box_mass` read them.

        Raises:
            DegenerateTruncationError: as :func:`truncated_moments`, for
                any one component, weight 0 included.
        """
        masses = self._mass_table()
        if (masses < _MASS_FLOOR).any():
            k = int(np.argmin(masses))
            raise DegenerateTruncationError(f"box captures mass {masses[k]} of component {k}")
        return masses

    def normalization(self) -> float:
        """Total mixture mass inside the truncation box (1 when untruncated)."""
        if self.truncation is None:
            return 1.0
        return float(self.weights @ self.component_box_masses())

    def box_mass(self) -> float:
        """Mass of a 1-D mixture inside its box (1 when untruncated): the
        per-component masses of :meth:`component_box_masses`, weighted and
        summed in component order.

        Unlike :meth:`normalization`, it does not raise for a weight-0
        component that holds no mass in the box: that component adds 0.
        """
        if self.dim != 1:
            raise ValueError("box_mass needs a 1-D mixture")
        if self.truncation is None:
            return 1.0
        total = 0.0
        for weight, mass in zip(self.weights.tolist(), self._mass_table().tolist()):
            total += weight * mass
        return total

    def _as_rows(self, y: object) -> tuple[np.ndarray, bool]:
        arr = np.asarray(y, dtype=float)
        if arr.ndim == 0:
            if self.dim != 1:
                raise ValueError("scalar input only valid for 1-D models")
            return arr.reshape(1, 1), True
        if arr.ndim == 1:
            if arr.shape[0] != self.dim:
                raise ValueError(f"point has length {arr.shape[0]}, model dim is {self.dim}")
            return arr.reshape(1, self.dim), True
        if arr.ndim == 2 and arr.shape[1] == self.dim:
            return arr, False
        raise ValueError(f"cannot interpret shape {arr.shape} as points of dim {self.dim}")

    def log_density_rows(self, rows: np.ndarray) -> np.ndarray:
        """Log mixture density per row; -inf outside the truncation box."""
        rows = np.asarray(rows, dtype=float)
        log_dens = _component_log_densities(rows, self.means, self._cholesky_factors())
        log_mix = _logsumexp_rows(log_dens + _log_weights(self.weights))
        if self.truncation is not None:
            log_mix = log_mix - math.log(self.normalization())
            log_mix = np.where(self.truncation.contains(rows), log_mix, -np.inf)
        return log_mix

    def density(self, y: object) -> np.ndarray | float:
        """Mixture density at one point (scalar result) or stacked rows."""
        rows, single = self._as_rows(y)
        values = np.exp(self.log_density_rows(rows))
        return float(values[0]) if single else values

    def log_likelihood(self, data: np.ndarray) -> float:
        """Sum of log densities; 0.0 for an empty data set.

        Raises:
            ValueError: under truncation, if any row falls outside the box
                (its contribution would be -inf).
        """
        rows = np.asarray(data, dtype=float)
        if rows.size == 0:
            return 0.0
        rows = np.atleast_2d(rows)
        if rows.shape[1] != self.dim:
            raise ValueError(f"data has dimension {rows.shape[1]}, model has {self.dim}")
        if self.truncation is not None:
            inside = self.truncation.contains(rows)
            if not inside.all():
                bad = int(np.flatnonzero(~inside)[0])
                raise ValueError(f"row {bad} lies outside the truncation box")
        return float(self.log_density_rows(rows).sum())

    # -- structure operations ------------------------------------------------

    def marginalize(self, dims: Sequence[int]) -> "GaussianMixture":
        """Marginal mixture over ``dims``, in the order given.

        Weights carry over unchanged; under truncation the box is sliced
        to the retained dimensions.  The marginal for each ``dims`` is
        built on first use and cached on the model.
        """
        idx = _dim_index(dims, self.dim, "dims")
        key = tuple(idx.tolist())
        marginal = self._marginals.get(key)
        if marginal is None:
            box = self.truncation.sliced(idx) if self.truncation is not None else None
            marginal = self._marginals[key] = GaussianMixture(
                self.weights.copy(),
                self.means[:, idx],
                self.covariances[np.ix_(range(self.n_components), idx, idx)],
                truncation=box,
                fit_seed=self.fit_seed,
            )
        return marginal

    def condition(
        self,
        observed_dims: Sequence[int],
        observed_values: Sequence[float],
        free_dims: Optional[Sequence[int]] = None,
    ) -> "GaussianMixture":
        """Exact conditional mixture given values on a subset of dimensions.

        The result covers ``free_dims`` in the order given, by default
        every unobserved dimension in ascending order; see
        :class:`Conditioner`.  The conditioner for each pair of
        ``observed_dims`` and ``free_dims`` is built on first use and
        cached on the model.  A build that fails is not cached, so it
        raises again on the next call.
        """
        key = (tuple(observed_dims), None if free_dims is None else tuple(free_dims))
        conditioner = self._conditioners.get(key)
        if conditioner is None:
            conditioner = self._conditioners[key] = Conditioner(self, *key)
        return conditioner(observed_values)

    # -- sampling -----------------------------------------------------------

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` rows with a dedicated seeded generator.

        Under truncation, rejected draws are regenerated (component
        re-picked each round) so the accepted sample follows the
        box-renormalized mixture exactly.  One row of a 1-D mixture is
        drawn in Python floats; it makes the array path's generator calls
        (one uniform for the component, then one normal, per round), so it
        returns the same bits.

        Raises:
            ValueError: ``count`` is not a nonnegative integer.
            RuntimeError: acceptance rate below 1e-6 after a bounded
                number of attempts.
        """
        count = checks.integer("count", count, low=0)
        if count == 0:
            return np.empty((0, self.dim))
        rng = np.random.Generator(np.random.PCG64(seed))
        if count == 1 and self.dim == 1:
            return np.array([[self._draw_scalar(rng)]])
        chols = self._cholesky_factors()
        # Component picks as Generator.choice(p=weights) makes them, from
        # the same uniforms, without its per-call validation of p.
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        out = np.empty((count, self.dim))
        filled = 0
        drawn = 0
        while filled < count:
            need = count - filled
            idx = cdf.searchsorted(rng.random(need), side="right")
            z = rng.standard_normal((need, self.dim))
            pts = self.means[idx] + np.einsum("nij,nj->ni", chols[idx], z)
            drawn += need
            if self.truncation is not None:
                pts = pts[_inside(self.truncation, pts)]
            accepted = filled + pts.shape[0]
            out[filled:accepted] = pts
            filled = accepted
            if drawn >= 1_000_000 and filled / drawn < 1e-6:
                raise RuntimeError(
                    f"truncation acceptance rate {filled / drawn:.2e} below 1e-6 "
                    f"after {drawn} draws"
                )
        return out

    def _draw_scalar(self, rng: np.random.Generator) -> float:
        """One draw of a 1-D mixture: :meth:`sample`'s loop at one row."""
        cdf = list(itertools.accumulate(self.weights.tolist()))  # as cumsum
        cdf = [c / cdf[-1] for c in cdf]
        means = self.means[:, 0].tolist()
        sds = self._cholesky_factors()[:, 0, 0].tolist()
        # An infinite bound passes every finite draw, as in _inside.
        lo, hi = (-math.inf, math.inf) if self.truncation is None else (
            float(self.truncation.lower[0]), float(self.truncation.upper[0])
        )
        for _ in range(1_000_000):
            k = bisect.bisect_right(cdf, rng.random())  # searchsorted(side="right")
            x = means[k] + sds[k] * rng.standard_normal()
            if lo <= x <= hi:
                return x
        raise RuntimeError("truncation acceptance rate 0.00e+00 below 1e-6 after 1000000 draws")

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to a self-describing JSON document.

        Finite values round-trip bit-exactly (shortest-repr floats);
        infinite box bounds are encoded as nulls.
        """
        if self.truncation is None:
            box_doc = None
        else:
            box_doc = {
                "lower": [None if math.isinf(v) else v for v in self.truncation.lower],
                "upper": [None if math.isinf(v) else v for v in self.truncation.upper],
            }
        doc = {
            "format": "crossingsim-mixture",
            "version": 1,
            "dim": self.dim,
            "n_components": self.n_components,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            # Row-major flattening of each component covariance.
            "covariances": [self.covariances[k].reshape(-1).tolist() for k in range(self.n_components)],
            "truncation": box_doc,
            "fit_seed": self.fit_seed,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GaussianMixture":
        """Inverse of :meth:`to_text`; validates the document shape."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != "crossingsim-mixture":
            raise ValueError("not a crossingsim mixture document")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported model version {doc.get('version')!r}")
        dim, n_components = (
            checks.integer(repr(key), checks.present(repr(key), doc, key), low=1)
            for key in ("dim", "n_components")
        )
        weights, means, covariances = (
            checks.reals(repr(key), checks.present(repr(key), doc, key), shape)
            for key, shape in (
                ("weights", (n_components,)),
                ("means", (n_components, dim)),
                # Row-major flattening of each component covariance.
                ("covariances", (n_components, dim * dim)),
            )
        )
        box_doc = doc.get("truncation")
        truncation = None
        if box_doc is not None:
            if not isinstance(box_doc, dict):
                raise ValueError("truncation must be an object or null")
            # Infinite bounds are written as nulls.
            bounds = []
            for side, infinity in (("lower", -math.inf), ("upper", math.inf)):
                entries = checks.present(repr(side), box_doc, side)
                if not isinstance(entries, list) or len(entries) != dim:
                    raise ValueError(f"{side!r} must be a list of {dim} entries, got {entries!r}")
                bounds.append([
                    infinity if v is None else checks.real(f"{side!r}[{i}]", v)
                    for i, v in enumerate(entries)
                ])
            truncation = TruncationBox(*bounds)
        fit_seed = doc.get("fit_seed")
        if fit_seed is not None:
            fit_seed = checks.integer("'fit_seed'", fit_seed)
        return cls(
            weights,
            means,
            np.reshape(covariances, (n_components, dim, dim)),
            truncation=truncation,
            fit_seed=fit_seed,
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_text())

    @classmethod
    def load(cls, path) -> "GaussianMixture":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())


class Conditioner:
    """Exact conditioning of one mixture on a fixed set of observed dimensions.

    Per component the conditional mean and covariance follow the
    Gaussian conditioning identities; component weights are reweighted
    by the untruncated marginal density of the observed values (in log
    space, so far-out conditioning values still renormalize) and the box
    is sliced to the free dimensions.

    The free dimensions are ``free_dims`` in the order given, by default
    every unobserved dimension in ascending order.  An unobserved
    dimension left out of ``free_dims`` is marginalized out: only the
    covariance sub-blocks of the observed and free dimensions enter, so
    the result equals :meth:`GaussianMixture.marginalize` to the observed
    and free dimensions followed by conditioning.

    Everything that does not depend on the observed values is computed
    once, stacked over the components: the Cholesky factor L of each
    observed-block covariance, the regression matrix Sigma_fo Sigma_oo^-1,
    the conditional covariance (validated here, once), the log-determinant,
    the log-weights and the sliced boxes.  A call then costs one batched
    product for the conditional means and the reweighting.  The last
    result is kept with the exact bits of its values, so a repeated call
    returns the same model without computing it again.

    Raises:
        ValueError: bad or overlapping dimension subsets, or a conditional
            covariance that is not positive definite.
        ConditioningError: an observed-block covariance is singular.
    """

    def __init__(
        self,
        model: GaussianMixture,
        observed_dims: Sequence[int],
        free_dims: Optional[Sequence[int]] = None,
    ) -> None:
        obs = _dim_index(observed_dims, model.dim, "observed_dims")
        if free_dims is None:
            free = np.setdiff1d(np.arange(model.dim), obs)
            if free.size == 0:
                raise ValueError("observed_dims must be a proper subset of dimensions")
        else:
            free = _dim_index(free_dims, model.dim, "free_dims")
            if np.isin(free, obs).any():
                raise ValueError("free_dims must not overlap observed_dims")
        covs = model.covariances
        try:
            chol = np.linalg.cholesky(covs[:, obs[:, None], obs])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("an observed-block covariance is singular") from exc
        whiten = np.linalg.inv(chol)  # L^-1, so |L^-1 d|^2 is the Mahalanobis term
        cross = whiten @ covs[:, obs[:, None], free]  # L^-1 Sigma_of
        cond_covs = covs[:, free[:, None], free] - cross.transpose(0, 2, 1) @ cross
        cond_covs = 0.5 * (cond_covs + cond_covs.transpose(0, 2, 1))
        for k in range(model.n_components):
            _validate_covariance(cond_covs[k], f"conditional covariance[{k}]")
        # Rows 0..f-1 map the offset from the observed mean to the shift of
        # the conditional mean; rows f.. whiten it.
        self._projection = np.concatenate(
            [cross.transpose(0, 2, 1) @ whiten, whiten], axis=1
        )
        self._n_free = free.size
        self._obs_means = model.means[:, obs]
        self._free_means = model.means[:, free]
        self._log_norms = (
            _log_weights(model.weights)
            - 0.5 * obs.size * _LOG_2PI
            - np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        )
        self._covariances = cond_covs
        self._chols = np.linalg.cholesky(cond_covs)
        self._obs_box = self._free_box = None
        if model.truncation is not None:
            self._obs_box = model.truncation.sliced(obs)
            self._free_box = model.truncation.sliced(free)
        # (value bytes, conditional) of the last call, as one attribute so a
        # concurrent reader never pairs one call's key with another's model.
        self._last: Optional[tuple[bytes, GaussianMixture]] = None

    def __call__(self, observed_values: Sequence[float]) -> GaussianMixture:
        """Conditional mixture over the free dimensions.

        Raises:
            ValueError: values not finite, of the wrong length, or outside
                the truncation box.
        """
        vals = np.asarray(observed_values, dtype=float)
        bad = "observed_values must be finite and match observed_dims"
        if vals.shape != (self._obs_means.shape[1],):
            raise ValueError(bad)
        key = vals.tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        # The checks run on Python floats: numpy calls cost more on a 2-vector.
        values = vals.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(bad)
        box = self._obs_box
        if box is not None and not (
            all(values[i] >= bound for i, bound in box._finite_lower)
            and all(values[i] <= bound for i, bound in box._finite_upper)
        ):
            raise ValueError("observed values lie outside the truncation box")
        projected = np.einsum("kij,kj->ki", self._projection, vals - self._obs_means)
        white = projected[:, self._n_free :]
        log_w = self._log_norms - 0.5 * (white * white).sum(axis=1)
        weights = np.exp(log_w - log_w.max())
        conditional = GaussianMixture._trusted(
            weights / weights.sum(),
            self._free_means + projected[:, : self._n_free],
            self._covariances,
            self._free_box,
            self._chols,
        )
        self._last = (key, conditional)
        return conditional


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """EM fitting knobs.

    truncation_mode selects between a plain mixture fit ("none") and the
    missing-data corrected fit over a box ("truncated").
    mc_moment_draws is the accepted-draw target n for Monte Carlo moment
    evaluations inside the truncated M-step (dimensions above one).  Each
    evaluation keeps every accepted draw of a first block of max(4n, 8192)
    draws, so n = 2000 uses about 8190 draws when the box mass is near 1.
    EM keeps one stream per restart and component: its first block,
    max(4n, 8192) rows of d doubles, is drawn once, and the rows past it
    are kept apart from it, at most max(200n, 2e6) - max(4n, 8192).  A
    component of box mass 0.01 at n = 20 000 keeps about 74 MB of them
    at d = 4.
    """

    n_components: int
    max_iterations: int = 300
    loglik_tolerance: float = 1e-10
    restarts: int = 1
    covariance_floor: float = 1e-6
    seed: int = 0
    truncation_mode: str = "none"
    mc_moment_draws: int = 20_000

    def __post_init__(self) -> None:
        # Counts come back as int: derive_seed takes int alone.
        checks.fields(self, checks.integer, "n_components", "max_iterations", "restarts", low=1)
        checks.fields(self, checks.integer, "mc_moment_draws", low=100)
        checks.fields(self, checks.integer, "seed")
        checks.fields(self, checks.real, "loglik_tolerance", low=0, strict=True)
        checks.fields(self, checks.real, "covariance_floor", low=0)
        if self.truncation_mode not in ("none", "truncated"):
            raise ValueError(
                f"truncation_mode must be 'none' or 'truncated', got {self.truncation_mode!r}"
            )


@dataclass
class FitDiagnostics:
    """What happened during the winning EM run."""

    loglik_trace: list[float]
    final_loglik: float
    n_iterations: int
    converged: bool
    restart_index: int
    restart_logliks: list[float]
    reinit_events: list[tuple[int, int]] = field(default_factory=list)


def _kmeanspp_means(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial means according to squared distance."""
    n = data.shape[0]
    means = np.empty((k, data.shape[1]))
    means[0] = data[rng.integers(n)]
    closest_sq = ((data - means[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            means[j] = data[rng.integers(n)]
        else:
            means[j] = data[rng.choice(n, p=closest_sq / total)]
        closest_sq = np.minimum(closest_sq, ((data - means[j]) ** 2).sum(axis=1))
    return means


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    """Symmetrized covariance plus ``floor * I``; also over a (K, d, d) stack."""
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return cov + floor * np.eye(cov.shape[-1])


def _outer(rows: np.ndarray) -> np.ndarray:
    """Outer product of each row of a (K, d) stack with itself, shape (K, d, d)."""
    return rows[:, :, None] * rows[:, None, :]


def _complement_moments(
    means: np.ndarray,
    covs: np.ndarray,
    masses: np.ndarray,
    in_means: np.ndarray,
    in_covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariances of K components outside the box, stacked.

    ``masses``, ``in_means`` and ``in_covs`` are the box masses (each
    below 1) and the moments inside the box.  Derived from the
    total-moment decomposition E[X] = mass * E_in[X] + (1 - mass) * E_out[X]
    and its second-moment analogue, so it works for any region shape.
    """
    rest = 1.0 - masses
    m_out = (means - masses[:, None] * in_means) / rest[:, None]
    second_total = covs + _outer(means)
    second_in = in_covs + _outer(in_means)
    second_out = (second_total - masses[:, None, None] * second_in) / rest[:, None, None]
    v_out = second_out - _outer(m_out)
    return m_out, 0.5 * (v_out + v_out.transpose(0, 2, 1))


def _m_step(
    data: np.ndarray,
    resp: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    inside: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]],
    floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One M-step for all K components at once.

    ``resp`` holds the (n, K) responsibilities; ``inside`` the box
    masses, means and covariances of the components in truncated mode,
    None otherwise.  The data means are ``resp.T @ data`` over the
    responsibility masses, and the scatter about them is one batched
    (K, d, n) @ (K, n, d) product of the centered data, so it keeps its
    accuracy for data far from the origin.  In truncated mode a component
    whose box mass is below 1 - 1e-12 blends these statistics with its
    moments outside the box, weighted as the draws the box rejected.

    Returns the unnormalized weights, the means, the floored covariances
    and the responsibility masses.  A component whose responsibility mass
    is below 1e-8 gets meaningless parameters, for the caller to
    reinitialize.
    """
    n = data.shape[0]
    resp_mass = resp.sum(axis=0)
    mass = np.where(resp_mass < 1e-8, 1.0, resp_mass)
    ybar = resp.T @ data / mass[:, None]
    diff = np.ascontiguousarray(data.T) - ybar[:, :, None]
    scatter = (diff * resp.T[:, None, :]) @ diff.transpose(0, 2, 1) / mass[:, None, None]
    new_weights, new_means, new_covs = resp_mass / n, ybar, scatter
    if inside is not None:
        masses, in_means, in_covs = inside
        total_mass = float(weights @ masses)
        corrected = masses < 1.0 - 1e-12
        # Components left uncorrected enter as mass 0, which divides by nothing.
        cut = np.where(corrected, masses, 0.0)
        m_out, v_out = _complement_moments(means, covs, cut, in_means, in_covs)
        virtual = n * weights * (1.0 - cut) / total_mass
        blend = mass + virtual
        mu = (mass[:, None] * ybar + virtual[:, None] * m_out) / blend[:, None]
        d1 = ybar - mu
        d2 = m_out - mu
        sigma = (
            mass[:, None, None] * (scatter + _outer(d1))
            + virtual[:, None, None] * (v_out + _outer(d2))
        ) / blend[:, None, None]
        new_weights = np.where(
            corrected, total_mass * resp_mass / n + weights * (1.0 - masses), new_weights
        )
        new_means = np.where(corrected[:, None], mu, ybar)
        new_covs = np.where(corrected[:, None, None], sigma, scatter)
    return new_weights, new_means, _floor_covariance(new_covs, floor), resp_mass


def _positive_definite(cov: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


def _em_run(
    data: np.ndarray,
    config: FitConfig,
    box: Optional[TruncationBox],
    pooled: np.ndarray,
    restart: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], FitDiagnostics]:
    """EM from the initialization of one restart; truncated mode when ``box`` is given.

    Returns the final (weights, means, covariances) and the diagnostics.
    The Monte Carlo streams belong to the run and are freed when it returns.
    """
    n, dim = data.shape
    k = config.n_components
    rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "em-init", restart)))
    weights = np.full(k, 1.0 / k)
    means = _kmeanspp_means(data, k, rng)
    covs = np.repeat(pooled[None, :, :], k, axis=0)
    if box is not None and dim > 1:
        # Common random numbers: one stream per component, reused by every
        # iteration, so the Monte Carlo log-likelihood is a deterministic
        # function of the parameters and the convergence test sees real
        # progress instead of resampling noise.
        first = _first_block_rows(config.mc_moment_draws)
        streams = [
            _NormalStream(derive_seed(config.seed, f"em-mc-{restart}", j), first, dim)
            for j in range(k)
        ]
    trace: list[float] = []
    reinits: list[tuple[int, int]] = []
    converged = False
    chols = None  # factors of covs; None before the first and after a reinitialization
    for iteration in range(config.max_iterations + 1):
        # An overflowing fit stops here with a ValueError, which
        # select_components records as a failure for this K.
        for name, values in (("weights", weights), ("means", means), ("covariances", covs)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if chols is None:
            chols = np.linalg.cholesky(covs)
        log_weighted = _component_log_densities(data, means, chols) + np.log(weights)
        row_ll = _logsumexp_rows(log_weighted)
        ll = float(row_ll.sum())
        inside = None
        if box is not None:
            if dim == 1:
                lo, hi = float(box.lower[0]), float(box.upper[0])
                masses, t_means, t_vars = np.array([
                    _moments_1d(float(means[j, 0]), float(covs[j, 0, 0]), lo, hi)
                    for j in range(k)
                ]).T.copy()
                inside = (masses, t_means.reshape(k, 1), t_vars.reshape(k, 1, 1))
            else:
                moments = _moments_mc(means, chols, box, config.mc_moment_draws, streams)
                masses = np.array([m.mass for m in moments])
                inside = (
                    masses,
                    np.array([m.mean for m in moments]),
                    np.array([m.covariance for m in moments]),
                )
            ll -= n * math.log(float(weights @ masses))
        trace.append(ll)
        if iteration > 0 and abs(ll - trace[-2]) / n < config.loglik_tolerance:
            converged = True
            break
        if iteration == config.max_iterations:
            break

        resp = np.exp(log_weighted - row_ll[:, None])
        new_weights, means, covs, resp_mass = _m_step(
            data, resp, weights, means, covs, inside, config.covariance_floor
        )
        collapsed = resp_mass < 1e-8
        chols = None
        if not collapsed.any():
            try:
                chols = np.linalg.cholesky(covs)
            except np.linalg.LinAlgError:
                pass
        if chols is None:
            # Reinitialize from a random data point, in component order, every
            # component whose mass collapsed or whose covariance is not
            # positive definite.
            for j in range(k):
                if collapsed[j] or not _positive_definite(covs[j]):
                    means[j] = data[rng.integers(n)]
                    covs[j] = pooled
                    new_weights[j] = 1.0 / k
                    reinits.append((iteration, j))
        weights = new_weights / new_weights.sum()

    diag = FitDiagnostics(
        loglik_trace=trace,
        final_loglik=trace[-1],
        n_iterations=len(trace) - 1,
        converged=converged,
        restart_index=restart,
        restart_logliks=[],
        reinit_events=reinits,
    )
    return (weights, means, covs), diag


def em_fit(
    data: np.ndarray,
    config: FitConfig,
    box: Optional[TruncationBox] = None,
) -> tuple[GaussianMixture, FitDiagnostics]:
    """Fit a Gaussian mixture by (truncation-aware) EM.

    Initialization per restart: k-means++ mean seeding, pooled sample
    covariance, uniform weights.  Every M-step floors covariances by
    ``covariance_floor * I``; a component whose covariance still fails
    Cholesky, or whose responsibility mass collapses, is reinitialized
    from a random data point and the event recorded.

    In truncated mode the M-step treats draws rejected by the box as
    missing data: each component's update blends the responsibility-
    weighted data statistics with the moments of the component outside
    the box, which de-biases means pulled toward the box interior.

    Each iteration is batched over the K components: one log-density
    kernel for the E-step, one M-step over the stack (:func:`_m_step`),
    and one Cholesky factorization of the new covariances, which the
    next E-step and the Monte Carlo moments reuse.

    Args:
        data: (n, d) observations; in truncated mode all rows must lie
            inside the box.
        config: fitting knobs; ``config.seed`` drives initialization,
            restarts, and Monte Carlo moments.
        box: truncation region for truncated mode (defaults to the
            positive orthant); ignored in mode "none".

    Returns:
        (model, diagnostics) for the restart with the best final
        log-likelihood.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty (n, d) array")
    if not np.isfinite(data).all():
        raise ValueError("data must be finite")
    n, dim = data.shape
    if n < config.n_components:
        raise ValueError(
            f"need at least n_components={config.n_components} rows, got {n}"
        )
    truncated = config.truncation_mode == "truncated"
    if truncated:
        if box is None:
            box = TruncationBox.positive_orthant(dim)
        if box.dim != dim:
            raise ValueError("box dimension does not match data")
        if not box.contains(data).all():
            raise ValueError("all training rows must lie inside the truncation box")
        if box.is_unbounded:
            truncated = False
    pooled = np.cov(data, rowvar=False, bias=True).reshape(dim, dim)
    pooled = _floor_covariance(pooled, max(config.covariance_floor, 1e-10))

    best: Optional[tuple[tuple[np.ndarray, ...], FitDiagnostics]] = None
    restart_lls: list[float] = []
    for restart in range(config.restarts):
        params, diag = _em_run(data, config, box if truncated else None, pooled, restart)
        restart_lls.append(diag.final_loglik)
        if best is None or diag.final_loglik > best[1].final_loglik:
            best = (params, diag)

    assert best is not None
    (weights, means, covs), diag = best
    diag.restart_logliks = restart_lls
    model = GaussianMixture(
        weights,
        means,
        covs,
        truncation=box if truncated else None,
        fit_seed=config.seed,
    )
    return model, diag


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------


def n_free_parameters(n_components: int, dim: int) -> int:
    """(K-1) free weights plus K*d means plus K*d*(d+1)/2 covariance entries."""
    k, d = n_components, dim
    return (k - 1) + k * d + k * d * (d + 1) // 2


def bic(model: GaussianMixture, data: np.ndarray) -> float:
    """Bayesian information criterion: -2 log L + p log n.

    p is :func:`n_free_parameters` of the model.  Uses the model's own
    (possibly truncated) likelihood.
    """
    rows = np.atleast_2d(np.asarray(data, dtype=float))
    n = rows.shape[0]
    if n == 0 or rows.size == 0:
        raise ValueError("BIC undefined for empty data")
    p = n_free_parameters(model.n_components, model.dim)
    return -2.0 * model.log_likelihood(rows) + p * math.log(n)


@dataclass(frozen=True)
class SelectionCurvePoint:
    n_components: int
    bic_value: float
    change_rate: Optional[float]  # None for the first fitted K


@dataclass
class SelectionResult:
    selected_k: int
    model: GaussianMixture
    curve: list[SelectionCurvePoint]
    failures: list[tuple[int, str]]


def select_components(
    data: np.ndarray,
    k_range: Iterable[int],
    config: FitConfig,
    rate_threshold: float = 0.10,
) -> SelectionResult:
    """Sweep component counts and pick where the BIC curve flattens.

    Fits each K in ascending order (per-K seeds derived from
    ``config.seed``) and computes the relative BIC improvement over the
    previous fitted K.  Selected is the smallest K whose improvement
    falls below ``rate_threshold``; if none qualifies (including the
    degenerate threshold 0) the argmin-BIC K is returned.  Fit failures
    (e.g. K exceeding the sample size) are recorded and skipped.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k_range must contain positive integers")
    curve: list[SelectionCurvePoint] = []
    failures: list[tuple[int, str]] = []
    models: dict[int, GaussianMixture] = {}
    prev_bic: Optional[float] = None
    for k in ks:
        cfg = replace(config, n_components=k, seed=derive_seed(config.seed, "select-k", k))
        try:
            model, _ = em_fit(data, cfg)
            value = bic(model, data)
        except (ValueError, DegenerateTruncationError) as exc:
            failures.append((k, str(exc)))
            continue
        rate = None
        if prev_bic is not None:
            rate = (prev_bic - value) / abs(prev_bic)
        curve.append(SelectionCurvePoint(k, value, rate))
        models[k] = model
        prev_bic = value
    if not curve:
        raise ValueError("every requested component count failed to fit")
    selected = None
    if rate_threshold > 0:
        for point in curve:
            if point.change_rate is not None and point.change_rate < rate_threshold:
                selected = point.n_components
                break
    if selected is None:
        selected = min(curve, key=lambda p: p.bic_value).n_components
    return SelectionResult(
        selected_k=selected, model=models[selected], curve=curve, failures=failures
    )


# ---------------------------------------------------------------------------
# Mode search
# ---------------------------------------------------------------------------

# The fixed-point iteration stops once no start moves by more than this
# relative amount, or after the step cap.
_MODE_TOLERANCE = 1e-12
_MODE_MAX_STEPS = 500
_MODE_GRID_POINTS = 2048
# The grid scan bounds the density block by block and evaluates only the
# blocks that can hold its maximum.
_MODE_BLOCK = 64
# Searches per batched pass; a pass's temporaries hold at most this many
# rows of K x _MODE_GRID_POINTS floats.
_MODE_BATCH_ROWS = 16
# Below the smallest normal float, exp can round densities whose logs
# differ to one value, so block bounds cannot rule out ties there.
_MODE_TINY = sys.float_info.min


def conditional_mode(model: GaussianMixture, interval: tuple[float, float]) -> float:
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

    This is the one-search call of :func:`conditional_modes`.

    Raises:
        ValueError: the model is not 1-D, or a bad interval.
        DegenerateTruncationError: a component's box mass underflows, as
            in every density evaluation of the model.
    """
    (mode,) = conditional_modes([model], [interval])
    if isinstance(mode, ValueError):
        raise mode
    return mode


def conditional_modes(
    models: Sequence[GaussianMixture], intervals: Sequence[tuple[float, float]]
) -> list:
    """:func:`conditional_mode` of each model on its interval, in one batch.

    Returns one entry per search: the mode as a float, or the ValueError
    (DegenerateTruncationError included) that the search raises, which
    leaves the other searches unaffected.  Searches over models with the
    same component count run together, _MODE_BATCH_ROWS at a time, and
    each returns the bits it returns alone: every row does the arithmetic
    of a lone search, and stops iterating at the step where it would.

    The grid scan evaluates the density only where its maximum can be.
    Each block of _MODE_BLOCK points gets an upper bound on its log
    density, the log-sum-exp of every component at its nearest point of
    the block.  The block with the highest bound is evaluated, then every
    block whose bound, plus a margin of 1e-9 (1 + |bound|) for rounding,
    reaches the log of the best density found.  Every other point has a
    lower density, so the first maximum is the whole grid's.  When the
    best density found is below the smallest normal float, the whole
    grid is evaluated.
    """
    if len(models) != len(intervals):
        raise ValueError("need one interval per model")
    modes: list = [None] * len(models)
    by_size: dict[int, list] = {}
    for i, (model, interval) in enumerate(zip(models, intervals)):
        try:
            setup = _mode_setup(model, interval)
        except ValueError as exc:
            # Without its traceback, which holds this frame and so this list.
            modes[i] = exc.with_traceback(None)
            continue
        by_size.setdefault(model.n_components, []).append((i, model, setup))
    for rows in by_size.values():
        for start in range(0, len(rows), _MODE_BATCH_ROWS):
            chunk = rows[start : start + _MODE_BATCH_ROWS]
            found = _batched_modes([row[1] for row in chunk], np.array([row[2] for row in chunk]))
            for (i, _, _), mode in zip(chunk, found):
                modes[i] = mode
    return modes


def _mode_setup(model: GaussianMixture, interval: tuple[float, float]) -> tuple:
    """(lo, hi, log c, support lo, support hi) of one search.

    The support is the part of the interval inside the truncation box.
    Raises as :func:`conditional_mode`.
    """
    if model.dim != 1:
        raise ValueError("conditional_mode requires a 1-D model")
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"interval must be finite with lo < hi, got ({lo}, {hi})")
    if model.truncation is None:
        return lo, hi, 0.0, lo, hi
    return (
        lo,
        hi,
        math.log(model.normalization()),
        max(lo, float(model.truncation.lower[0])),
        min(hi, float(model.truncation.upper[0])),
    )


class _ModeBatch:
    """The 1-D mixtures of a batch of searches, one row each.

    Parameters are (B, K, 1) columns and per-row scalars are (B, 1), so
    against (B, P) points each row repeats a lone search's arithmetic, and
    every sum over the components runs in component order.
    """

    def __init__(self, log_peaks, precisions, means, log_c, support_lo, support_hi):
        self.log_peaks = log_peaks
        self.precisions = precisions
        self.half_precisions = 0.5 * precisions
        self.means = means
        self.log_c = log_c
        self.support_lo = support_lo
        self.support_hi = support_hi

    def take(self, rows: np.ndarray) -> "_ModeBatch":
        return _ModeBatch(
            self.log_peaks[rows],
            self.precisions[rows],
            self.means[rows],
            self.log_c[rows],
            self.support_lo[rows],
            self.support_hi[rows],
        )

    def log_terms(self, x: np.ndarray) -> np.ndarray:
        """log(w_k N(x; m_k, s_k^2)), shape (B, K, P)."""
        return self.log_peaks - self.half_precisions * (x[:, None, :] - self.means) ** 2

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        terms = self.log_terms(x)
        return np.exp(terms - terms.max(axis=1, keepdims=True))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log density at x; -inf off the support."""
        log_dens = _logsumexp_rows(self.log_terms(x)) - self.log_c
        inside = (x >= self.support_lo) & (x <= self.support_hi)
        return np.where(inside, log_dens, -np.inf)


def _batched_modes(models: Sequence[GaussianMixture], setup: np.ndarray) -> list:
    """Modes of B searches over K-component models; ``setup`` rows from :func:`_mode_setup`."""
    lo, hi, log_c, support_lo, support_hi = setup.T
    means = np.array([model.means[:, 0] for model in models])
    precisions = 1.0 / np.array([model.covariances[:, 0, 0] for model in models])
    log_peaks = _log_weights(np.array([model.weights for model in models])) + 0.5 * (
        np.log(precisions) - _LOG_2PI
    )
    batch = _ModeBatch(
        log_peaks[:, :, None],
        precisions[:, :, None],
        means[:, :, None],
        log_c[:, None],
        support_lo[:, None],
        support_hi[:, None],
    )
    # np.linspace(lo, hi, _MODE_GRID_POINTS), row by row.
    count = _MODE_GRID_POINTS - 1
    ramp = np.arange(_MODE_GRID_POINTS, dtype=float)
    delta = hi - lo
    step = delta / count
    grid = ramp * step[:, None]
    flat = step == 0
    if flat.any():  # subnormal steps, scaled as linspace scales them
        grid[flat] = ramp / count * delta[flat, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    rows = np.arange(len(models))
    best = grid[rows, _grid_argmax(batch, grid)]
    modes = best.copy()
    live = np.flatnonzero(support_lo <= support_hi)
    if live.size:
        batch = batch.take(live)
        starts = np.concatenate([means[live], best[live, None]], axis=1)
        x = _fixed_points(batch, np.clip(starts, batch.support_lo, batch.support_hi))
        # Newton on g = log density: g' = E[d], g'' = E[d^2] - g'^2 - E[1/s^2]
        # with d_k = (m_k - x) / s_k^2 and E over the responsibilities.
        resp = batch.responsibilities(x)
        resp /= resp.sum(axis=1, keepdims=True)
        pull = (batch.means - x[:, None, :]) * batch.precisions
        slope = (resp * pull).sum(axis=1)
        curvature = (resp * (pull * pull - batch.precisions)).sum(axis=1) - slope * slope
        concave = curvature < 0
        # A point with no concave step stands in for itself: a duplicate
        # changes neither the highest density nor the lowest tie.
        polished = np.where(concave, x - slope / np.where(concave, curvature, -1.0), x)
        points = np.concatenate(
            [best[live, None], x, np.clip(polished, batch.support_lo, batch.support_hi)],
            axis=1,
        )
        dens = np.exp(batch.log_density(points))
        top = dens == dens.max(axis=1, keepdims=True)
        modes[live] = np.where(top, points, np.inf).min(axis=1)
    return modes.tolist()


def _grid_argmax(batch: _ModeBatch, grid: np.ndarray) -> np.ndarray:
    """np.argmax of each row's density over its grid row, from the blocks
    that can hold the maximum (see :func:`conditional_modes`)."""
    n_rows = grid.shape[0]
    rows = np.arange(n_rows)
    blocks = grid.reshape(n_rows, -1, _MODE_BLOCK)
    nearest = np.clip(batch.means, blocks[:, None, :, 0], blocks[:, None, :, -1])
    bound = (
        _logsumexp_rows(
            batch.log_peaks - batch.half_precisions * (nearest - batch.means) ** 2
        )
        - batch.log_c
    )
    density = np.zeros(blocks.shape)
    top = bound.argmax(axis=1)
    first = batch.log_density(blocks[rows, top])
    density[rows, top] = np.exp(first)
    peak = first.max(axis=1, keepdims=True)
    needed = (bound + 1e-9 * (1.0 + np.abs(bound)) >= peak) | (np.exp(peak) < _MODE_TINY)
    needed[rows, top] = False
    pending_rows, pending_blocks = np.nonzero(needed)
    if pending_rows.size:
        density[pending_rows, pending_blocks] = np.exp(
            batch.take(pending_rows).log_density(blocks[pending_rows, pending_blocks])
        )
    return density.reshape(n_rows, -1).argmax(axis=1)


def _fixed_points(batch: _ModeBatch, x: np.ndarray) -> np.ndarray:
    """The fixed-point iteration from the (B, S) starts ``x``.

    A row stops once none of its starts moves by more than the tolerance,
    at the step where its search alone stops, and leaves the batch.
    """
    out = np.empty_like(x)
    rows = np.arange(x.shape[0])
    for _ in range(_MODE_MAX_STEPS):
        resp = batch.responsibilities(x) * batch.precisions
        step = (resp * batch.means).sum(axis=1) / resp.sum(axis=1)
        step = np.clip(step, batch.support_lo, batch.support_hi)
        settled = (np.abs(step - x) <= _MODE_TOLERANCE * (1.0 + np.abs(x))).all(axis=1)
        x = step
        if settled.any():
            out[rows[settled]] = x[settled]
            going = ~settled
            rows, x = rows[going], x[going]
            if not rows.size:
                return out
            batch = batch.take(going)
    out[rows] = x
    return out
