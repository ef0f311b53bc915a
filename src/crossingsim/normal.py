"""Scalar normal math: a bit-exact port of Cephes' normal CDF, and the
closed-form mass, mean and variance of a normal truncated to an interval.

This is a leaf module: it imports only ``math``, so any module of the
package can use it, and it loads no numpy and no scipy.  The 1-D queries
of the box-truncated mixture (the walk-speed draw, the human driver's
conditional mode, the 1-D EM) take their box masses and moments from
here, in Python floats.

It also owns the policy for a box that holds no mass: a box mass below
``_MASS_FLOOR`` counts as none, and the code that finds one raises
:class:`DegenerateTruncationError`.
"""

from __future__ import annotations

import math

__all__ = ["DegenerateTruncationError"]

# A box mass below this counts as none: the truncated density and moments
# divide by it.
_MASS_FLOOR = 1e-300

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DegenerateTruncationError(ValueError):
    """The truncation box captures essentially no probability mass."""


def _std_pdf(x: float) -> float:
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _x_times_pdf(x: float) -> float:
    # x * phi(x) -> 0 in both tails; guard the inf * 0 indeterminate form.
    if math.isinf(x):
        return 0.0
    return x * _std_pdf(x)


# Cephes' normal CDF (S. L. Moshier, as in scipy.special's ``ndtr``),
# ported operation for operation: the same coefficient tables, Horner
# order, branch points and libm ``exp`` (through ``math.exp``), so every
# result equals scipy's bit for bit without importing it.
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024); erfc(x) is 0 once x*x passes it
# erfc(x) = exp(-x**2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) beyond.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x**2) / U(x**2) for |x| <= 1.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x: float, coefs: tuple) -> float:
    # Horner's rule, highest power first.  Cephes' p1evl, which leaves a
    # leading 1 out of its table, gives the same bits, as 1.0 * x == x.
    value = coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _erf(x: float) -> float:
    # Only |x| <= 1 is asked for, where Cephes' erf is the T/U quotient.
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    # Only x >= 0 is asked for, so Cephes' 2 - erfc(-x) branch is left out.
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    return z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)


def _ndtr(a: float) -> float:
    """Standard normal CDF at ``a``, equal to ``scipy.special.ndtr(a)``.

    NaN propagates through the erfc branch, as in Cephes.
    """
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _scalar_interval_mass(alpha: float, beta: float) -> float:
    # Difference of normal CDFs, evaluated on whichever tail avoids
    # cancellation.
    if alpha >= 0.0:
        return _ndtr(-alpha) - _ndtr(-beta)
    return _ndtr(beta) - _ndtr(alpha)


def _standardize(lo: float, hi: float, mean: float, sd: float) -> tuple[float, float]:
    """The interval [lo, hi] in standard units of N(mean, sd**2).

    The mean and sd are finite and sd > 0, so an infinite bound stays
    infinite with its sign.
    """
    return (lo - mean) / sd, (hi - mean) / sd


def _moments_1d(mean: float, var: float, lo: float, hi: float) -> tuple[float, float, float]:
    """Closed-form (mass, mean, variance) of N(mean, var) truncated to [lo, hi].

    Raises:
        DegenerateTruncationError: the mass is below ``_MASS_FLOOR``.
    """
    sigma = math.sqrt(var)
    alpha, beta = _standardize(lo, hi, mean, sigma)
    mass = _scalar_interval_mass(alpha, beta)
    if mass < _MASS_FLOOR:
        raise DegenerateTruncationError(
            f"box [{lo}, {hi}] captures mass {mass} of N({mean}, {var})"
        )
    pdf_lo, pdf_hi = _std_pdf(alpha), _std_pdf(beta)
    ratio = (pdf_lo - pdf_hi) / mass
    t_mean = mean + sigma * ratio
    t_var = var * (1.0 + (_x_times_pdf(alpha) - _x_times_pdf(beta)) / mass - ratio * ratio)
    return mass, t_mean, t_var
