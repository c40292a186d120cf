"""Sensitivity bounds and Gaussian mechanism calibration.

Sensitivities are estimated from sample suprema of the data at hand
(largest absolute response residual, largest residual row norm).  That
estimate is data dependent: it bounds the effect of removing one of the
observed samples, not of an arbitrary worst-case neighbour, so the privacy
guarantee is conditional on those suprema being representative.  Budgets
are spent per released vector; no composition across releases is applied.
One table, :attr:`SampleBounds.sensitivities`, gives the sensitivities of
a component's four releases in ``CALIBRATION_TARGETS`` order.

The calibration returns sigma alone, and :mod:`dppls.pls` records it
with its release.  It inverts the exact Gaussian privacy profile by
bisection, so it is valid for every epsilon, unlike the classic closed
form sigma = delta_f * sqrt(2 ln(1.25/delta)) / epsilon, which holds only
for epsilon <= 1 and which the tests keep as a reference.

The profile depends on sigma and delta_f only through sigma/delta_f, so
the analytic sigma is delta_f * r(epsilon, delta), where r is the sigma at
sensitivity 1.  r is bisected once per (epsilon, delta) and kept in a
module-level LRU cache of fixed size (``_UNIT_SIGMA_CACHE_SIZE``).  Since
delta_f * r is rounded, every calibration evaluates the profile once more
at it and, where that exceeds delta, steps sigma up one ulp at a time, at
most ``_MAX_ULP_STEPS`` times before raising NumericalError.  Over 20,000
random calibrations (sensitivity 1e-4..1e4, epsilon 0.01..1000, delta
1e-10..0.3) no step was needed, and the scaled sigma was within 1.3e-15
relative of a bisection run at the sensitivity itself.
:func:`analytic_gaussian_sigmas` calibrates a sequence of sensitivities
under one budget, each with those operations, and
:func:`analytic_gaussian_sigma` is its one-value case.  The profile's
arithmetic is one function, which :func:`gaussian_privacy_profile` calls
after checking its arguments.

The analytic profile is that of Balle & Wang, "Improving the Gaussian
Mechanism for Differential Privacy" (ICML 2018).  It needs Phi, the
standard normal CDF, and log Phi at Python floats; both are computed with
the ``math`` module, so importing this package loads no scipy.
Phi(x) = erfc(-x/sqrt 2)/2, within 1e-12 relative of ``scipy.special.ndtr``
wherever that exceeds 1e-300.  log Phi(x) is computed as log(Phi(x)) for
-30 < x <= 0 and as log1p(-Phi(-x)) for x > 0.  Below -30 it is the
asymptotic series
    -x^2/2 - log(-x) - log(2 pi)/2 + log(1 - 1/x^2 + 3/x^4 - ...)
summed through the 1/x^20 term; the first term left out is below 1e-22
there.  On [-1e8, 0] log Phi is within 1e-14 relative of
``scipy.special.log_ndtr``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DpplsError, NumericalError, ShapeError
from .core import PrivacyBudget

# Bisection control for analytic calibration.  Halving a bracket no
# wider than the largest float down to 1e-9 of a sigma above its bottom,
# 1e-6 of the sensitivity, takes about log2(1.8e308 / 1e-15) = 1074 steps.
_REL_TOL = 1e-9
_MAX_HALVINGS = 1100
# Unit sigmas cached, one per (epsilon, delta); a sweep uses a handful.
_UNIT_SIGMA_CACHE_SIZE = 256
# Ulp steps allowed to make the scaled unit sigma feasible.
_MAX_ULP_STEPS = 64

# Below this argument log Phi comes from its asymptotic series, summed
# through the 1/x^(2 * _LOG_NDTR_SERIES_TERMS) term.
_LOG_NDTR_SERIES_BELOW = -30.0
_LOG_NDTR_SERIES_TERMS = 10
_SQRT_HALF = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SampleBounds:
    """Per-component sample suprema of the residual matrices.

    y_max_abs is max_i |f_i| over the response residual, max_row_norm is
    max_i ||E_i||_2 over the rows of the predictor residual.
    """

    y_max_abs: float
    max_row_norm: float

    def __post_init__(self):
        if self.y_max_abs < 0 or self.max_row_norm < 0:
            raise ArgumentError("sample bounds must be nonnegative")

    @property
    def sensitivities(self) -> tuple:
        """Sensitivities of the four releases, in CALIBRATION_TARGETS order,
        to removing one sample (estimated from the sample suprema):

        - weights: the covariance vector E^T f changes by f_i E_i when
          row i is removed, so y_max_abs * max_row_norm;
        - scores: a score entry E_i^T w with unit w is at most the largest
          row norm, max_row_norm;
        - x-loadings: E^T t with unit-norm scores drops the term t_i E_i,
          of norm at most max_row_norm;
        - y-loading: f^T t with unit-norm scores, at most y_max_abs.
        """
        y, r = self.y_max_abs, self.max_row_norm
        return (y * r, r, r, y)


def sample_bounds(E: np.ndarray, f: np.ndarray) -> SampleBounds:
    """Compute sample suprema of the current residuals.

    Recomputed at every component, because deflation shrinks the residuals
    and with them the sensitivity of later releases.
    """
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    if E.ndim != 2 or f.ndim != 1 or E.shape[0] != f.shape[0]:
        raise ShapeError("E must be n x m and f length n")
    if E.shape[0] < 1:
        raise ShapeError("residuals must contain at least one sample")
    if not np.all(np.isfinite(E)) or not np.all(np.isfinite(f)):
        raise ArgumentError("residuals contain NaN or infinite entries")
    return SampleBounds(
        y_max_abs=float(np.max(np.abs(f))),
        max_row_norm=float(np.max(np.linalg.norm(E, axis=1))),
    )


# ---------------------------------------------------------------------------
# analytic calibration
# ---------------------------------------------------------------------------

def _ndtr(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _log_ndtr(x: float) -> float:
    """log Phi(x), accurate where Phi(x) underflows or rounds to 1."""
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x > _LOG_NDTR_SERIES_BELOW:
        return math.log(_ndtr(x))
    # Phi(x) = phi(x)/(-x) * (1 - u + 3u^2 - 15u^3 + ...) with u = 1/x^2,
    # the bracket summed by Horner's rule as 1 - u(1 - 3u(1 - 5u(...))).
    u = 1.0 / (x * x)
    r = 1.0
    for k in range(_LOG_NDTR_SERIES_TERMS, 1, -1):
        r = 1.0 - (2 * k - 1) * u * r
    return -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI + math.log1p(-u * r)


def gaussian_privacy_profile(sigma: float, delta_f: float, epsilon: float) -> float:
    """Exact delta achieved by Gaussian noise of scale sigma.

    profile = Phi(delta_f/(2 sigma) - eps sigma/delta_f)
              - e^eps * Phi(-delta_f/(2 sigma) - eps sigma/delta_f),
    strictly decreasing in sigma.  The second term is evaluated in log
    space so very large eps cannot overflow.
    """
    for name, v in (("sigma", sigma), ("delta_f", delta_f), ("epsilon", epsilon)):
        if not math.isfinite(v) or v <= 0:
            raise ArgumentError(f"{name} must be finite and positive, got {v}")
    return _profile(sigma, delta_f, epsilon)


def _profile(sigma: float, delta_f: float, epsilon: float) -> float:
    """The privacy profile's arithmetic, for arguments known to be finite
    and positive."""
    a = delta_f / (2.0 * sigma) - epsilon * sigma / delta_f
    b = -delta_f / (2.0 * sigma) - epsilon * sigma / delta_f
    log_second = epsilon + _log_ndtr(b)
    second = math.exp(log_second) if log_second < 700.0 else math.inf
    return _ndtr(a) - second


def _bisect_sigma(delta_f: float, epsilon: float, delta: float) -> float:
    """Bisect the privacy profile for sensitivity delta_f > 0 to relative
    width 1e-9; returns the feasible end of the final bracket.

    The bracket runs from delta_f * 1e-6 to twice the classic closed form
    (taken without its epsilon <= 1 condition), or 10 delta_f if that is
    larger.  The top was feasible at every budget tried: 3,008,453 grid
    points over epsilon 1e-300..1e300 and delta 1e-300..1 - 2^-53.  A
    top that overflows (epsilon below about 3.5e-308 at delta 0.01) or
    is not feasible, or halvings that run out before the bracket
    converges, raise NumericalError.
    """
    lo = delta_f * 1e-6
    # In Python floats, an overflow gives inf and no numpy warning.
    lenient = delta_f * math.sqrt(2.0 * np.log(1.25 / delta)) / epsilon
    hi = delta_f * max(10.0, 2.0 * lenient / delta_f)
    if not math.isfinite(hi) or gaussian_privacy_profile(hi, delta_f, epsilon) > delta:
        raise NumericalError(
            f"cannot bracket the privacy profile at epsilon {epsilon}, delta {delta}")
    if gaussian_privacy_profile(lo, delta_f, epsilon) <= delta:
        # Already feasible at the bottom of the bracket; lo is conservative
        # enough that no smaller sigma is worth distinguishing.
        return float(lo)

    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if gaussian_privacy_profile(mid, delta_f, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= _REL_TOL * hi:
            return float(hi)
    raise NumericalError(
        f"the privacy profile's bisection did not converge in {_MAX_HALVINGS} "
        f"halvings (epsilon {epsilon}, delta {delta})")


@functools.lru_cache(maxsize=_UNIT_SIGMA_CACHE_SIZE)
def _unit_sigma(epsilon: float, delta: float) -> float:
    """r(epsilon, delta): the calibrated sigma at sensitivity 1."""
    return _bisect_sigma(1.0, epsilon, delta)


def analytic_gaussian_sigmas(delta_f: Sequence[float], budget: PrivacyBudget) -> tuple:
    """Minimal Gaussian noise scales meeting ``budget`` for a sequence of
    sensitivities, found by inverting the privacy profile.

    Returns an array of sigmas and None, or, where a sensitivity fails,
    the sigmas of those before it and the DpplsError it raised: a
    sensitivity that is negative or not finite, a budget whose bisection
    cannot converge in floats (NumericalError naming it), or a sigma
    that no ulp step makes feasible.

    A zero sensitivity needs no noise and yields sigma 0.  Otherwise sigma
    is delta_f * r, where r is the sigma bisected at sensitivity 1 to
    relative tolerance 1e-9 (the feasible end of the final bracket) and
    cached per (epsilon, delta), looked up once per call.  The profile at
    delta_f * r is then evaluated once more; where rounding puts it above
    delta, sigma steps up one ulp at a time until it is not, at most
    ``_MAX_ULP_STEPS`` times.  So the profile as computed never exceeds
    delta at a returned sigma.  The exact profile can exceed delta by at
    most the computed one's error, which comes from two terms that nearly
    cancel near the calibrated sigma: against a 50-digit evaluation it
    was at most 4.6e-17 absolute at delta 0.01 and epsilon 1 to 100, and
    at most 1.1e-15 (1e-11 of delta) over 2,000 random calibrations
    (sensitivity 1e-4..1e4, epsilon 0.01..1000, delta 1e-10..0.3).
    """
    eps, delta = budget.epsilon, budget.delta
    sigmas, unit = [], None
    try:
        for s in delta_f:
            if not 0.0 <= s < math.inf:
                raise ArgumentError(f"sensitivity must be finite and nonnegative, got {s}")
            if s == 0.0:
                sigmas.append(0.0)
                continue
            if unit is None:
                unit = _unit_sigma(eps, delta)
            sigma = s * unit
            for _ in range(_MAX_ULP_STEPS):
                # gaussian_privacy_profile's check; s and eps are valid already.
                if not 0.0 < sigma < math.inf:
                    raise ArgumentError(f"sigma must be finite and positive, got {sigma}")
                if _profile(sigma, s, eps) <= delta:
                    break
                sigma = math.nextafter(sigma, math.inf)
            else:
                raise NumericalError(
                    f"privacy profile stays above delta {_MAX_ULP_STEPS} ulps past the "
                    f"scaled unit sigma (sensitivity {s}, epsilon {eps})")
            sigmas.append(sigma)
    except DpplsError as exc:
        return np.array(sigmas), exc
    return np.array(sigmas), None


def analytic_gaussian_sigma(delta_f: float, budget: PrivacyBudget) -> float:
    """The sigma :func:`analytic_gaussian_sigmas` gives ``delta_f`` under
    ``budget``; raises its error."""
    sigmas, error = analytic_gaussian_sigmas((delta_f,), budget)
    if error is not None:
        raise error
    return float(sigmas[0])
