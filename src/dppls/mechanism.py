"""Sensitivity bounds and Gaussian mechanism calibration.

Sensitivities are estimated from sample suprema of the data at hand
(largest absolute response residual, largest residual row norm).  That
estimate is data dependent: it bounds the effect of removing one of the
observed samples, not of an arbitrary worst-case neighbour, so the privacy
guarantee is conditional on those suprema being representative.  Budgets
are spent per released vector; no composition across releases is applied.

Two calibrations are provided.  The classic one uses the closed form
sigma = delta_f * sqrt(2 ln(1.25/delta)) / epsilon, which is only a valid
(epsilon, delta) mechanism for epsilon <= 1.  The analytic one inverts the
exact Gaussian privacy profile by bisection and is valid in both regimes;
it is the default everywhere in this package.

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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError, ShapeError
from .core import NoiseCalibration, PrivacyBudget

# Bisection control for analytic calibration.
_REL_TOL = 1e-9
_MAX_STEPS = 200

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
# sensitivities (removal of one sample, estimated from sample suprema)
# ---------------------------------------------------------------------------

def weights_sensitivity(bounds: SampleBounds) -> float:
    """Sensitivity of the covariance vector E^T f: removing row i changes
    it by f_i E_i, so the worst case is y_max_abs * max_row_norm."""
    return bounds.y_max_abs * bounds.max_row_norm

def scores_sensitivity(bounds: SampleBounds) -> float:
    """Sensitivity of a score entry E_i^T w with unit w: at most the
    largest row norm."""
    return bounds.max_row_norm

def x_loadings_sensitivity(bounds: SampleBounds) -> float:
    """Sensitivity of E^T t with unit-norm scores: the dropped term t_i E_i
    has norm at most max_row_norm."""
    return bounds.max_row_norm

def y_loading_sensitivity(bounds: SampleBounds) -> float:
    """Sensitivity of f^T t with unit-norm scores: at most y_max_abs."""
    return bounds.y_max_abs


_SENSITIVITIES = {
    "weights": weights_sensitivity,
    "scores": scores_sensitivity,
    "x_loadings": x_loadings_sensitivity,
    "y_loading": y_loading_sensitivity,
}


def sensitivity_for(target: str, bounds: SampleBounds) -> float:
    try:
        fn = _SENSITIVITIES[target]
    except KeyError:
        raise ArgumentError(f"unknown sensitivity target {target!r}") from None
    return fn(bounds)


# ---------------------------------------------------------------------------
# classic calibration
# ---------------------------------------------------------------------------

def classic_gaussian_sigma(delta_f: float, budget: PrivacyBudget) -> float:
    """Closed-form Gaussian noise scale sqrt(2 ln(1.25/delta)) * delta_f / eps.

    Only a valid (epsilon, delta) mechanism for epsilon <= 1; for larger
    epsilon the value is still returned but flagged advisory-only via a
    warning.
    """
    if not np.isfinite(delta_f) or delta_f < 0:
        raise ArgumentError(f"sensitivity must be finite and nonnegative, got {delta_f}")
    if budget.epsilon > 1:
        warnings.warn(
            "classic Gaussian calibration is only valid for epsilon <= 1; "
            f"epsilon={budget.epsilon} makes this value advisory-only",
            UserWarning,
            stacklevel=2,
        )
    return delta_f * np.sqrt(2.0 * np.log(1.25 / budget.delta)) / budget.epsilon


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
    a = delta_f / (2.0 * sigma) - epsilon * sigma / delta_f
    b = -delta_f / (2.0 * sigma) - epsilon * sigma / delta_f
    log_second = epsilon + _log_ndtr(b)
    second = math.exp(log_second) if log_second < 700.0 else math.inf
    return _ndtr(a) - second


def analytic_gaussian_sigma(
    delta_f: float,
    budget: PrivacyBudget,
    target: str | None = None,
) -> NoiseCalibration:
    """Minimal Gaussian noise scale meeting ``budget`` for sensitivity
    ``delta_f``, found by inverting the privacy profile.

    A zero sensitivity needs no noise and yields sigma 0.  Otherwise the
    profile is bracketed (doubling the upper end until feasible) and
    bisected to relative tolerance 1e-9 on sigma; the returned sigma is the
    feasible end of the final bracket, so its profile never exceeds delta.
    """
    if not np.isfinite(delta_f) or delta_f < 0:
        raise ArgumentError(f"sensitivity must be finite and nonnegative, got {delta_f}")
    if delta_f == 0.0:
        return NoiseCalibration(sensitivity=0.0, sigma=0.0, method="analytic", target=target)

    eps, delta = budget.epsilon, budget.delta
    lo = delta_f * 1e-6
    # Lenient closed form (no epsilon <= 1 check) just to size the bracket.
    lenient = delta_f * np.sqrt(2.0 * np.log(1.25 / delta)) / eps
    hi = delta_f * max(10.0, 2.0 * lenient / delta_f)

    steps = 0
    while gaussian_privacy_profile(hi, delta_f, eps) > delta:
        hi *= 2.0
        steps += 1
        if steps > _MAX_STEPS:
            raise NumericalError("failed to bracket the privacy profile from above")
    if gaussian_privacy_profile(lo, delta_f, eps) <= delta:
        # Already feasible at the bottom of the bracket; lo is conservative
        # enough that no smaller sigma is worth distinguishing.
        return NoiseCalibration(sensitivity=float(delta_f), sigma=float(lo),
                                method="analytic", target=target)

    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if gaussian_privacy_profile(mid, delta_f, eps) <= delta:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= _REL_TOL * hi:
            break
    return NoiseCalibration(sensitivity=float(delta_f), sigma=float(hi),
                            method="analytic", target=target)
