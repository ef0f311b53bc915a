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
Carlo (seeded rejection sampling) otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp, ndtr

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
    "select_components",
    "conditional_mode",
    "Conditioner",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Internal master seed for model-level normalization constants.  Fixed so
# that two models with identical parameters report identical densities in
# every process.
_MASS_SEED = 0x63726F73


class DegenerateTruncationError(ValueError):
    """The truncation box captures essentially no probability mass."""


class ConditioningError(ValueError):
    """Conditioning failed because the observed-block covariance is singular."""


# ---------------------------------------------------------------------------
# Truncation box
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationBox:
    """Axis-aligned truncation region ``lower[i] <= y[i] <= upper[i]``.

    Bounds may be infinite on either side; ``lower`` must be strictly
    below ``upper`` in every dimension.
    """

    lower: np.ndarray
    upper: np.ndarray

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
        """Boolean inclusion test; accepts one point or a stack of rows."""
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, box has {self.dim}")
        inside = ((pts >= self.lower) & (pts <= self.upper)).all(axis=1)
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
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * scale):
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


def _std_pdf(x: float) -> float:
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _x_times_pdf(x: float) -> float:
    # x * phi(x) -> 0 in both tails; guard the inf * 0 indeterminate form.
    if math.isinf(x):
        return 0.0
    return x * _std_pdf(x)


def _interval_mass(alpha, beta):
    # Difference of normal CDFs, evaluated on whichever tail avoids
    # cancellation; elementwise on arrays.
    return np.where(alpha >= 0.0, ndtr(-alpha) - ndtr(-beta), ndtr(beta) - ndtr(alpha))


def _moments_1d(mean: float, var: float, lo: float, hi: float) -> TruncatedMoments:
    """Closed-form mass, mean, and variance of a box-truncated 1-D normal."""
    sigma = math.sqrt(var)
    alpha = (lo - mean) / sigma if math.isfinite(lo) else -math.inf
    beta = (hi - mean) / sigma if math.isfinite(hi) else math.inf
    mass = float(_interval_mass(alpha, beta))
    if mass < 1e-300:
        raise DegenerateTruncationError(
            f"box [{lo}, {hi}] captures mass {mass} of N({mean}, {var})"
        )
    pdf_lo, pdf_hi = _std_pdf(alpha), _std_pdf(beta)
    ratio = (pdf_lo - pdf_hi) / mass
    t_mean = mean + sigma * ratio
    t_var = var * (1.0 + (_x_times_pdf(alpha) - _x_times_pdf(beta)) / mass - ratio * ratio)
    return TruncatedMoments(
        mass=mass, mean=np.array([t_mean]), covariance=np.array([[t_var]])
    )


def _moments_mc(
    mean: np.ndarray,
    cov: np.ndarray,
    box: TruncationBox,
    n_accepted: int,
    seed: int,
    max_draws: Optional[int] = None,
) -> TruncatedMoments:
    """Rejection-sampled moments of a box-truncated multivariate normal."""
    dim = mean.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    chol = np.linalg.cholesky(cov)
    budget = max_draws if max_draws is not None else max(200 * n_accepted, 2_000_000)
    kept: list[np.ndarray] = []
    drawn = 0
    accepted = 0
    chunk = max(4 * n_accepted, 8192)
    while accepted < n_accepted and drawn < budget:
        take = min(chunk, budget - drawn)
        z = rng.standard_normal((take, dim))
        x = mean + z @ chol.T
        inside = box.contains(x)
        drawn += take
        hits = x[inside]
        if hits.size:
            kept.append(hits)
            accepted += hits.shape[0]
        # Scale the next chunk to the observed acceptance rate.
        rate = max(accepted / drawn, 1e-3)
        chunk = int(min(max((n_accepted - accepted) / rate * 1.2, 8192), 4_000_000))
    if accepted < max(2, n_accepted // 200):
        raise DegenerateTruncationError(
            f"rejection sampling accepted {accepted}/{drawn} draws; "
            "box mass is too small to estimate"
        )
    sample = np.concatenate(kept, axis=0)
    mass = accepted / drawn
    t_mean = sample.mean(axis=0)
    centered = sample - t_mean
    t_cov = centered.T @ centered / sample.shape[0]
    return TruncatedMoments(mass=mass, mean=t_mean, covariance=t_cov)


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
        n_accepted: accepted-draw target for the Monte Carlo path.
        seed: Monte Carlo seed; identical inputs give identical output.

    Raises:
        DegenerateTruncationError: box mass below 1e-300 (exact path) or
            too few accepted draws within the sampling budget (MC path).
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
        return _moments_1d(
            float(component.mean[0]),
            float(component.covariance[0, 0]),
            float(box.lower[0]),
            float(box.upper[0]),
        )
    return _moments_mc(component.mean, component.covariance, box, n_accepted, seed)


# ---------------------------------------------------------------------------
# Mixture model
# ---------------------------------------------------------------------------

_WEIGHT_SUM_TOL = 1e-12


def _log_weights(weights: np.ndarray) -> np.ndarray:
    # Conditioning can underflow a weight to exactly 0; log it as -inf
    # without tripping numpy's divide warning.
    return np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)


def _doc_field(doc: dict, key: str, kind: type):
    """``doc[key]``, which must be a ``kind`` (bools are not numbers)."""
    if key not in doc:
        raise ValueError(f"model document lacks {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _doc_count(doc: dict, key: str) -> int:
    value = _doc_field(doc, key, int)
    if value < 1:
        raise ValueError(f"{key!r} must be positive, got {value}")
    return value


def _floats(value: object, what: str, nulls: Optional[float] = None) -> np.ndarray:
    """Nested JSON lists of numbers as a float array.

    Nulls become ``nulls`` where that is given.  Any other entry that is
    not a number, a number out of float range, or ragged nesting raises
    ValueError.
    """

    def number(entry: object) -> object:
        if isinstance(entry, list):
            return [number(e) for e in entry]
        if entry is None and nulls is not None:
            return nulls
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValueError(f"{what} holds {entry!r}, expected a number")
        try:
            return float(entry)
        except OverflowError as exc:
            raise ValueError(f"{what} holds {entry}, out of float range") from exc

    return np.asarray(number(value), dtype=float)


class GaussianMixture:
    """Weighted Gaussian mixture, optionally truncated to a box.

    Instances are treated as immutable: parameter arrays are stored
    read-only and derived quantities (Cholesky factors, box masses) are
    cached on first use, so concurrent reads are safe.
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
        for arr in (weights, means, covariances):
            arr.setflags(write=False)
        self.weights = weights
        self.means = means
        self.covariances = covariances
        self.truncation = truncation
        self.fit_seed = fit_seed
        self._chols: Optional[np.ndarray] = None
        self._box_masses: Optional[np.ndarray] = None

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
        for arr in (weights, means, covariances, chols):
            arr.setflags(write=False)
        model.weights = weights
        model.means = means
        model.covariances = covariances
        model.truncation = truncation
        model.fit_seed = None
        model._chols = chols
        model._box_masses = None
        return model

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
        same_box = (self.truncation is None) == (other.truncation is None)
        if same_box and self.truncation is not None:
            same_box = np.array_equal(
                self.truncation.lower, other.truncation.lower
            ) and np.array_equal(self.truncation.upper, other.truncation.upper)
        return (
            same_box
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

    def _component_log_densities(self, rows: np.ndarray) -> np.ndarray:
        """Untruncated per-component log densities, shape (n, K)."""
        chols = self._cholesky_factors()
        n = rows.shape[0]
        out = np.empty((n, self.n_components))
        for k in range(self.n_components):
            chol = chols[k]
            solved = solve_triangular(
                chol, (rows - self.means[k]).T, lower=True, check_finite=False
            )
            log_det = np.log(np.diagonal(chol)).sum()
            out[:, k] = -0.5 * self.dim * _LOG_2PI - log_det - 0.5 * (solved * solved).sum(axis=0)
        return out

    def component_box_masses(self, n_accepted: int = 20_000) -> np.ndarray:
        """Per-component probability mass inside the truncation box.

        Exact for 1-D or unbounded boxes; otherwise seeded Monte Carlo.
        The default-precision result is cached because it normalizes
        every truncated density evaluation.

        Raises:
            DegenerateTruncationError: as :func:`truncated_moments`, for
                any one component.
        """
        if self.truncation is None or self.truncation.is_unbounded:
            return np.ones(self.n_components)
        if self._box_masses is not None and n_accepted == 20_000:
            return self._box_masses
        if self.dim == 1:
            # The closed form of truncated_moments, for all components at once.
            means = self.means[:, 0]
            sds = np.sqrt(self.covariances[:, 0, 0])
            masses = _interval_mass(
                (self.truncation.lower[0] - means) / sds,
                (self.truncation.upper[0] - means) / sds,
            )
            if (masses < 1e-300).any():
                k = int(np.argmin(masses))
                raise DegenerateTruncationError(
                    f"box captures mass {masses[k]} of component {k}"
                )
            self._box_masses = masses
            return masses
        masses = np.array(
            [
                truncated_moments(
                    GaussianComponent(self.means[k], self.covariances[k]),
                    self.truncation,
                    n_accepted=n_accepted,
                    seed=derive_seed(_MASS_SEED, "box-mass", k),
                ).mass
                for k in range(self.n_components)
            ]
        )
        if n_accepted == 20_000:
            self._box_masses = masses
        return masses

    def normalization(self) -> float:
        """Total mixture mass inside the truncation box (1 when untruncated)."""
        if self.truncation is None:
            return 1.0
        return float(self.weights @ self.component_box_masses())

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
        log_mix = logsumexp(
            self._component_log_densities(rows) + _log_weights(self.weights), axis=1
        )
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
        to the retained dimensions.
        """
        idx = np.asarray(dims, dtype=int)
        if idx.size == 0:
            raise ValueError("must keep at least one dimension")
        if idx.size != np.unique(idx).size:
            raise ValueError("dims must be unique")
        if (idx < 0).any() or (idx >= self.dim).any():
            raise ValueError(f"dims out of range for model of dim {self.dim}")
        box = self.truncation.sliced(idx) if self.truncation is not None else None
        return GaussianMixture(
            self.weights.copy(),
            self.means[:, idx],
            self.covariances[np.ix_(range(self.n_components), idx, idx)],
            truncation=box,
            fit_seed=self.fit_seed,
        )

    def condition(
        self, observed_dims: Sequence[int], observed_values: Sequence[float]
    ) -> "GaussianMixture":
        """Exact conditional mixture given values on a subset of dimensions.

        Shorthand for ``Conditioner(self, observed_dims)(observed_values)``;
        build the :class:`Conditioner` once to condition many times on
        the same dimensions.
        """
        return Conditioner(self, observed_dims)(observed_values)

    # -- sampling -----------------------------------------------------------

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` rows with a dedicated seeded generator.

        Under truncation, rejected draws are regenerated (component
        re-picked each round) so the accepted sample follows the
        box-renormalized mixture exactly.

        Raises:
            RuntimeError: acceptance rate below 1e-6 after a bounded
                number of attempts.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.empty((0, self.dim))
        rng = np.random.Generator(np.random.PCG64(seed))
        chols = self._cholesky_factors()
        out = np.empty((count, self.dim))
        filled = 0
        drawn = 0
        while filled < count:
            need = count - filled
            idx = rng.choice(self.n_components, size=need, p=self.weights)
            z = rng.standard_normal((need, self.dim))
            pts = self.means[idx] + np.einsum("nij,nj->ni", chols[idx], z)
            drawn += need
            if self.truncation is not None:
                keep = self.truncation.contains(pts)
                pts = pts[keep]
            accepted = filled + pts.shape[0]
            out[filled:accepted] = pts
            filled = accepted
            if drawn >= 1_000_000 and filled / drawn < 1e-6:
                raise RuntimeError(
                    f"truncation acceptance rate {filled / drawn:.2e} below 1e-6 "
                    f"after {drawn} draws"
                )
        return out

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
        dim = _doc_count(doc, "dim")
        n_components = _doc_count(doc, "n_components")
        weights = _floats(_doc_field(doc, "weights", list), "weights")
        means = _floats(_doc_field(doc, "means", list), "means")
        if means.size != n_components * dim:
            raise ValueError("means do not match n_components and dim")
        covs_flat = _doc_field(doc, "covariances", list)
        if len(covs_flat) != n_components:
            raise ValueError("covariance count does not match n_components")
        covariances = []
        for k, flat in enumerate(covs_flat):
            entries = _floats(flat, f"covariances[{k}]")
            if entries.size != dim * dim:
                raise ValueError(f"covariances[{k}] must have dim * dim entries")
            covariances.append(entries.reshape(dim, dim))
        box_doc = doc.get("truncation")
        truncation = None
        if box_doc is not None:
            if not isinstance(box_doc, dict):
                raise ValueError("truncation must be an object or null")
            # Infinite bounds are written as nulls.
            truncation = TruncationBox(
                _floats(_doc_field(box_doc, "lower", list), "lower", nulls=-np.inf),
                _floats(_doc_field(box_doc, "upper", list), "upper", nulls=np.inf),
            )
        fit_seed = doc.get("fit_seed")
        if fit_seed is not None:
            fit_seed = _doc_field(doc, "fit_seed", int)
        return cls(
            weights,
            means.reshape(n_components, dim),
            np.asarray(covariances),
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

    Everything that does not depend on the observed values is computed
    once, stacked over the components: the Cholesky factor L of each
    observed-block covariance, the regression matrix Sigma_fo Sigma_oo^-1,
    the conditional covariance (validated here, once), the log-determinant,
    the log-weights and the sliced boxes.  A call then costs one batched
    product for the conditional means and the reweighting.

    Raises:
        ValueError: bad dimension subset, or a conditional covariance
            that is not positive definite.
        ConditioningError: an observed-block covariance is singular.
    """

    def __init__(self, model: GaussianMixture, observed_dims: Sequence[int]) -> None:
        obs = np.asarray(observed_dims, dtype=int)
        if obs.size == 0 or obs.size != np.unique(obs).size:
            raise ValueError("observed_dims must be non-empty and unique")
        if (obs < 0).any() or (obs >= model.dim).any():
            raise ValueError(f"observed_dims out of range for dim {model.dim}")
        if obs.size >= model.dim:
            raise ValueError("observed_dims must be a proper subset of dimensions")
        free = np.setdiff1d(np.arange(model.dim), obs)
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

    def __call__(self, observed_values: Sequence[float]) -> GaussianMixture:
        """Conditional mixture over the free dimensions, in ascending order.

        Raises:
            ValueError: values not finite, of the wrong length, or outside
                the truncation box.
        """
        vals = np.asarray(observed_values, dtype=float)
        if vals.shape != (self._obs_means.shape[1],) or not np.isfinite(vals).all():
            raise ValueError("observed_values must be finite and match observed_dims")
        if self._obs_box is not None and not self._obs_box.contains(vals):
            raise ValueError("observed values lie outside the truncation box")
        projected = np.einsum("kij,kj->ki", self._projection, vals - self._obs_means)
        white = projected[:, self._n_free :]
        log_w = self._log_norms - 0.5 * (white * white).sum(axis=1)
        weights = np.exp(log_w - log_w.max())
        return GaussianMixture._trusted(
            weights / weights.sum(),
            self._free_means + projected[:, : self._n_free],
            self._covariances,
            self._free_box,
            self._chols,
        )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """EM fitting knobs.

    truncation_mode selects between a plain mixture fit ("none") and the
    missing-data corrected fit over a box ("truncated").
    mc_moment_draws is the accepted-draw target for Monte Carlo moment
    evaluations inside the truncated M-step (dimensions above one).
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
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.loglik_tolerance <= 0:
            raise ValueError("loglik_tolerance must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.covariance_floor < 0:
            raise ValueError("covariance_floor must be >= 0")
        if self.truncation_mode not in ("none", "truncated"):
            raise ValueError(f"unknown truncation_mode {self.truncation_mode!r}")
        if self.mc_moment_draws < 100:
            raise ValueError("mc_moment_draws must be >= 100")


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
    cov = 0.5 * (cov + cov.T)
    return cov + floor * np.eye(cov.shape[0])


def _complement_moments(
    mean: np.ndarray, cov: np.ndarray, mom: TruncatedMoments
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the component outside the box.

    Derived from the total-moment decomposition
    E[X] = mass * E_in[X] + (1 - mass) * E_out[X] and its second-moment
    analogue, so it works for any region shape.
    """
    rest = 1.0 - mom.mass
    m_out = (mean - mom.mass * mom.mean) / rest
    second_total = cov + np.outer(mean, mean)
    second_in = mom.covariance + np.outer(mom.mean, mom.mean)
    second_out = (second_total - mom.mass * second_in) / rest
    v_out = second_out - np.outer(m_out, m_out)
    return m_out, 0.5 * (v_out + v_out.T)


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
    k = config.n_components
    pooled = np.cov(data, rowvar=False, bias=True).reshape(dim, dim)
    pooled = _floor_covariance(pooled, max(config.covariance_floor, 1e-10))

    best: Optional[tuple[float, tuple[np.ndarray, ...], FitDiagnostics]] = None
    restart_lls: list[float] = []
    for restart in range(config.restarts):
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(config.seed, "em-init", restart))
        )
        weights = np.full(k, 1.0 / k)
        means = _kmeanspp_means(data, k, rng)
        covs = np.repeat(pooled[None, :, :], k, axis=0)
        trace: list[float] = []
        reinits: list[tuple[int, int]] = []
        converged = False
        prev_ll = -np.inf
        for iteration in range(config.max_iterations + 1):
            model_like = GaussianMixture(weights / weights.sum(), means, covs)
            log_dens = model_like._component_log_densities(data)
            log_weighted = log_dens + np.log(weights)
            row_ll = logsumexp(log_weighted, axis=1)
            moments = None
            if truncated:
                # Moment seeds are fixed per restart and component (not per
                # iteration): with common random numbers the Monte Carlo
                # log-likelihood is a deterministic function of the
                # parameters, so the convergence test sees real progress
                # instead of resampling noise.
                moments = [
                    truncated_moments(
                        GaussianComponent(means[j], covs[j]),
                        box,
                        n_accepted=config.mc_moment_draws,
                        seed=derive_seed(config.seed, f"em-mc-{restart}", j),
                    )
                    for j in range(k)
                ]
                masses = np.array([m.mass for m in moments])
                total_mass = float(weights @ masses)
                ll = float(row_ll.sum()) - n * math.log(total_mass)
            else:
                ll = float(row_ll.sum())
            trace.append(ll)
            if iteration > 0 and abs(ll - prev_ll) / n < config.loglik_tolerance:
                converged = True
                break
            if iteration == config.max_iterations:
                break
            prev_ll = ll

            # E-step responsibilities, then the mode-dependent M-step.
            resp = np.exp(log_weighted - row_ll[:, None])
            resp_mass = resp.sum(axis=0)
            new_weights = np.empty(k)
            for j in range(k):
                if resp_mass[j] < 1e-8:
                    means[j] = data[rng.integers(n)]
                    covs[j] = pooled.copy()
                    new_weights[j] = 1.0 / k
                    reinits.append((iteration, j))
                    continue
                ybar = resp[:, j] @ data / resp_mass[j]
                diff = data - ybar
                scatter = (resp[:, j][:, None] * diff).T @ diff / resp_mass[j]
                if truncated and moments[j].mass < 1.0 - 1e-12:
                    mom = moments[j]
                    m_out, v_out = _complement_moments(means[j], covs[j], mom)
                    virtual = n * weights[j] * (1.0 - mom.mass) / total_mass
                    w_data, w_virt = resp_mass[j], virtual
                    mu_new = (w_data * ybar + w_virt * m_out) / (w_data + w_virt)
                    d1 = ybar - mu_new
                    d2 = m_out - mu_new
                    sigma_new = (
                        w_data * (scatter + np.outer(d1, d1))
                        + w_virt * (v_out + np.outer(d2, d2))
                    ) / (w_data + w_virt)
                    new_weights[j] = (
                        total_mass * resp_mass[j] / n
                        + weights[j] * (1.0 - mom.mass)
                    )
                else:
                    mu_new = ybar
                    sigma_new = scatter
                    new_weights[j] = resp_mass[j] / n
                means[j] = mu_new
                covs[j] = _floor_covariance(sigma_new, config.covariance_floor)
                try:
                    np.linalg.cholesky(covs[j])
                except np.linalg.LinAlgError:
                    means[j] = data[rng.integers(n)]
                    covs[j] = pooled.copy()
                    new_weights[j] = 1.0 / k
                    reinits.append((iteration, j))
            weights = new_weights / new_weights.sum()

        final_ll = trace[-1]
        restart_lls.append(final_ll)
        if best is None or final_ll > best[0]:
            diag = FitDiagnostics(
                loglik_trace=trace,
                final_loglik=final_ll,
                n_iterations=len(trace) - 1,
                converged=converged,
                restart_index=restart,
                restart_logliks=[],
                reinit_events=reinits,
            )
            best = (final_ll, (weights, means, covs), diag)

    assert best is not None
    _, (weights, means, covs), diag = best
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


def bic(model: GaussianMixture, data: np.ndarray) -> float:
    """Bayesian information criterion: -2 log L + p log n.

    The parameter count p is (K-1) free weights plus K*d means plus
    K*d*(d+1)/2 covariance entries.  Uses the model's own (possibly
    truncated) likelihood.
    """
    rows = np.atleast_2d(np.asarray(data, dtype=float))
    n = rows.shape[0]
    if n == 0 or rows.size == 0:
        raise ValueError("BIC undefined for empty data")
    k, d = model.n_components, model.dim
    p = (k - 1) + k * d + k * d * (d + 1) // 2
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


def conditional_mode(
    model: GaussianMixture,
    interval: tuple[float, float],
    grid_points: int = 2048,
) -> float:
    """Highest-density point of a 1-D mixture on a closed interval.

    Scans a uniform grid (endpoints included), then runs the fixed-point
    mode iteration of Carreira-Perpinan (2000, "Mode-finding for
    mixtures of Gaussian distributions")

        x <- sum_k r_k(x) m_k / s_k^2  /  sum_k r_k(x) / s_k^2,

    with r_k(x) the responsibility of component k at x, from every
    component mean and from the best grid point at once, each iterate
    clipped to the part of the interval inside the truncation box.  One
    Newton step on the log density then polishes each end point.  Of the
    best grid point and all end points, the one with the highest density
    wins; exact ties resolve toward the lower value, so the result never
    has lower density than any grid point.

    Raises:
        ValueError: the model is not 1-D, or a bad interval or grid size.
        DegenerateTruncationError: a component's box mass underflows, as
            in every density evaluation of the model.
    """
    if model.dim != 1:
        raise ValueError("conditional_mode requires a 1-D model")
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"interval must be finite with lo < hi, got ({lo}, {hi})")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
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
        terms = log_terms(x)
        top = terms.max(axis=0)
        log_dens = top + np.log(np.exp(terms - top).sum(axis=0)) - log_c
        return np.where((x >= support_lo) & (x <= support_hi), np.exp(log_dens), 0.0)

    grid = np.linspace(lo, hi, grid_points)
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
