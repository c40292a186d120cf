"""Sensitivity bounds and Gaussian calibration.

The leave-one-out oracles here recompute each released quantity with one
sample removed and check the actual change against the advertised bound;
the privacy profile is cross-checked against a from-scratch erf-based
evaluation that shares no code with the implementation, and its Phi and
log Phi against scipy.special, which the package itself does not load.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dppls.core import PrivacyBudget, RngStream
from dppls.errors import ArgumentError, ShapeError
from dppls.mechanism import (
    _LOG_NDTR_SERIES_BELOW,
    SampleBounds,
    _log_ndtr,
    _ndtr,
    analytic_gaussian_sigma,
    classic_gaussian_sigma,
    gaussian_privacy_profile,
    sample_bounds,
    scores_sensitivity,
    sensitivity_for,
    weights_sensitivity,
    x_loadings_sensitivity,
    y_loading_sensitivity,
)


def _random_residuals(seed, n=12, m=6):
    rng = RngStream(seed)
    E = rng.uniform(-3, 3, (n, m))
    f = rng.uniform(-2, 2, n)
    return E, f


def _phi(x: float) -> float:
    # Standard normal CDF from first principles; the implementation uses
    # erfc and an asymptotic series for log Phi, so this 1 + erf route is
    # independent of it.
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _profile_oracle(sigma: float, delta_f: float, eps: float) -> float:
    a = delta_f / (2 * sigma) - eps * sigma / delta_f
    b = -delta_f / (2 * sigma) - eps * sigma / delta_f
    return _phi(a) - math.exp(eps) * _phi(b)


# ---------------------------------------------------------------------------
# sample bounds
# ---------------------------------------------------------------------------

def test_sample_bounds_match_definitions():
    E, f = _random_residuals(0)
    b = sample_bounds(E, f)
    assert b.y_max_abs == np.max(np.abs(f))
    assert b.max_row_norm == max(np.linalg.norm(row) for row in E)


def test_sample_bounds_validation():
    with pytest.raises(ShapeError):
        sample_bounds(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ShapeError):
        sample_bounds(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ArgumentError):
        sample_bounds(np.array([[np.nan, 1.0]]), np.array([1.0]))
    with pytest.raises(ArgumentError):
        SampleBounds(y_max_abs=-1.0, max_row_norm=0.0)


# ---------------------------------------------------------------------------
# leave-one-out sensitivity oracles
# ---------------------------------------------------------------------------

def test_weights_sensitivity_bounds_covariance_change():
    for seed in range(30):
        E, f = _random_residuals(seed)
        bound = weights_sensitivity(sample_bounds(E, f))
        cov = E.T @ f
        for i in range(E.shape[0]):
            cov_wo = np.delete(E, i, axis=0).T @ np.delete(f, i)
            assert np.linalg.norm(cov - cov_wo) <= bound + 1e-12


def test_weights_sensitivity_is_tight_when_suprema_coincide():
    # One row holds both suprema, so the bound is attained exactly.
    E = np.array([[3.0, 4.0], [0.1, 0.1]])
    f = np.array([2.0, 0.05])
    bound = weights_sensitivity(sample_bounds(E, f))
    change = np.linalg.norm(E.T @ f - (np.delete(E, 0, 0).T @ np.delete(f, 0)))
    assert change == pytest.approx(bound, rel=1e-15)


def test_scores_sensitivity_bounds_score_entries():
    for seed in range(30):
        E, f = _random_residuals(seed)
        bound = scores_sensitivity(sample_bounds(E, f))
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        # Removing row i deletes score entry t_i; the l2 change is |t_i|.
        assert np.max(np.abs(t)) <= bound + 1e-12


def test_x_loadings_sensitivity_bounds_loading_change():
    for seed in range(30):
        E, f = _random_residuals(seed)
        bound = x_loadings_sensitivity(sample_bounds(E, f))
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        t = t / np.linalg.norm(t)
        p = E.T @ t
        for i in range(E.shape[0]):
            p_wo = np.delete(E, i, axis=0).T @ np.delete(t, i)
            assert np.linalg.norm(p - p_wo) <= bound + 1e-12


def test_y_loading_sensitivity_bounds_scalar_change():
    for seed in range(30):
        E, f = _random_residuals(seed)
        bound = y_loading_sensitivity(sample_bounds(E, f))
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        t = t / np.linalg.norm(t)
        c = f @ t
        for i in range(E.shape[0]):
            c_wo = np.delete(f, i) @ np.delete(t, i)
            assert abs(c - c_wo) <= bound + 1e-12


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_sensitivities_scale_covariantly(alpha):
    E, f = _random_residuals(7)
    b1 = sample_bounds(E, f)
    b2 = sample_bounds(alpha * E, alpha * f)
    assert weights_sensitivity(b2) == pytest.approx(
        alpha ** 2 * weights_sensitivity(b1), rel=1e-12)
    assert scores_sensitivity(b2) == pytest.approx(
        alpha * scores_sensitivity(b1), rel=1e-12)
    assert x_loadings_sensitivity(b2) == pytest.approx(
        alpha * x_loadings_sensitivity(b1), rel=1e-12)
    assert y_loading_sensitivity(b2) == pytest.approx(
        alpha * y_loading_sensitivity(b1), rel=1e-12)


def test_sensitivity_dispatch():
    b = SampleBounds(y_max_abs=2.0, max_row_norm=3.0)
    assert sensitivity_for("weights", b) == 6.0
    assert sensitivity_for("scores", b) == 3.0
    assert sensitivity_for("x_loadings", b) == 3.0
    assert sensitivity_for("y_loading", b) == 2.0
    with pytest.raises(ArgumentError):
        sensitivity_for("b", b)


# ---------------------------------------------------------------------------
# classic calibration
# ---------------------------------------------------------------------------

def test_classic_sigma_closed_form():
    budget = PrivacyBudget(1.0, 0.01)
    assert classic_gaussian_sigma(1.0, budget) == pytest.approx(
        math.sqrt(2.0 * math.log(125.0)), rel=1e-15)
    # Linear in the sensitivity, inverse in epsilon.
    assert classic_gaussian_sigma(7.0, budget) == pytest.approx(
        7.0 * classic_gaussian_sigma(1.0, budget), rel=1e-15)
    half = PrivacyBudget(0.5, 0.01)
    assert classic_gaussian_sigma(1.0, half) == pytest.approx(
        2.0 * classic_gaussian_sigma(1.0, budget), rel=1e-15)


def test_classic_sigma_warns_above_one():
    with pytest.warns(UserWarning, match="only valid for epsilon <= 1"):
        classic_gaussian_sigma(1.0, PrivacyBudget(2.0, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        classic_gaussian_sigma(1.0, PrivacyBudget(1.0, 0.01))


def test_classic_sigma_validation():
    with pytest.raises(ArgumentError):
        classic_gaussian_sigma(-1.0, PrivacyBudget(1.0, 0.01))


# ---------------------------------------------------------------------------
# privacy profile
# ---------------------------------------------------------------------------

def _max_relative_error(fn, x, ref):
    ours = np.array([fn(float(v)) for v in x])
    return np.max(np.abs(ours - ref) / np.abs(ref))


def test_ndtr_matches_scipy_oracle():
    from scipy.special import ndtr

    x = np.concatenate([np.linspace(-38.5, 9.0, 20_001),
                        RngStream(5).uniform(-38.5, 9.0, 5_000), [0.0]])
    ref = ndtr(x)
    keep = ref > 1e-300
    assert keep.sum() > 20_000
    assert _max_relative_error(_ndtr, x[keep], ref[keep]) <= 1e-12


def test_log_ndtr_matches_scipy_oracle_across_the_series_cut_off():
    from scipy.special import log_ndtr

    cut = _LOG_NDTR_SERIES_BELOW
    x = np.concatenate([
        -np.logspace(-8.0, 8.0, 4_001),
        np.linspace(cut - 1.0, cut + 1.0, 4_001),  # both branches, densely
        [cut, np.nextafter(cut, 0.0), np.nextafter(cut, -np.inf), 0.0, -1e8],
        RngStream(6).uniform(-60.0, 0.0, 5_000),
    ])
    assert (x < cut).sum() > 3_000 and (x > cut).sum() > 3_000
    assert _max_relative_error(_log_ndtr, x, log_ndtr(x)) <= 1e-14


def test_log_ndtr_positive_arguments_keep_relative_accuracy():
    # log Phi(x) ~ -Phi(-x) for large x: log of a rounded Phi would read 0.
    from scipy.special import log_ndtr

    x = np.linspace(0.0, 37.0, 10_001)
    ref = log_ndtr(x)
    assert np.all(ref < 0)
    assert _max_relative_error(_log_ndtr, x, ref) <= 1e-12


def test_profile_matches_erf_oracle():
    for sigma in (0.3, 1.0, 2.0, 10.0):
        for delta_f in (0.5, 1.0, 7.0):
            for eps in (0.1, 1.0, 5.0):
                ours = gaussian_privacy_profile(sigma, delta_f, eps)
                ref = _profile_oracle(sigma, delta_f, eps)
                assert ours == pytest.approx(ref, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=1.01, max_value=3.0),
)
def test_profile_strictly_decreasing_in_sigma(sigma, factor):
    lo = gaussian_privacy_profile(sigma, 1.0, 1.0)
    hi = gaussian_privacy_profile(sigma * factor, 1.0, 1.0)
    # Strictness is only claimable while the computed profile is neither
    # saturated at 1 (tiny sigma) nor drowned in cancellation noise near 0
    # (huge sigma); that band covers every delta a calibration can target.
    assume(1e-12 < lo < 1.0 - 1e-12)
    assert hi < lo


def test_profile_survives_huge_epsilon():
    # e^eps overflows a float for eps ~ 1e9; the log-space route must not.
    val = gaussian_privacy_profile(1.0, 1.0, 1e9)
    assert np.isfinite(val) or val == -np.inf
    assert val < 1.0


def test_profile_validation():
    for bad in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                (-1.0, 1.0, 1.0), (np.inf, 1.0, 1.0)):
        with pytest.raises(ArgumentError):
            gaussian_privacy_profile(*bad)


# ---------------------------------------------------------------------------
# analytic calibration
# ---------------------------------------------------------------------------

def test_analytic_sigma_feasible_and_minimal():
    for eps in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        for delta in (1e-4, 1e-2, 0.1):
            for delta_f in (0.5, 1.0, 7.0):
                cal = analytic_gaussian_sigma(delta_f, PrivacyBudget(eps, delta))
                assert gaussian_privacy_profile(cal.sigma, delta_f, eps) <= delta
                shrunk = cal.sigma * (1.0 - 1e-6)
                assert gaussian_privacy_profile(shrunk, delta_f, eps) > delta


def test_analytic_beats_classic_at_low_epsilon():
    for eps in (0.1, 0.5, 1.0):
        for delta in (1e-4, 1e-2, 0.1):
            budget = PrivacyBudget(eps, delta)
            cal = analytic_gaussian_sigma(1.0, budget)
            assert cal.sigma <= classic_gaussian_sigma(1.0, budget)


def test_analytic_sigma_is_homogeneous_in_sensitivity():
    budget = PrivacyBudget(1.0, 0.01)
    base = analytic_gaussian_sigma(1.0, budget).sigma
    for scale in (0.5, 7.0, 300.0):
        scaled = analytic_gaussian_sigma(scale, budget).sigma
        # Bisection stops at relative width 1e-9, so allow a little slack.
        assert scaled == pytest.approx(scale * base, rel=1e-8)


def test_analytic_sigma_large_epsilon_asymptote():
    # For huge epsilon the minimal scale approaches delta_f / sqrt(2 eps).
    eps = 1e9
    cal = analytic_gaussian_sigma(1.0, PrivacyBudget(eps, 0.01))
    assert cal.sigma == pytest.approx(1.0 / math.sqrt(2.0 * eps), rel=0.05)


def test_analytic_sigma_zero_sensitivity():
    cal = analytic_gaussian_sigma(0.0, PrivacyBudget(1.0, 0.01), target="weights")
    assert cal.sigma == 0.0
    assert cal.sensitivity == 0.0
    assert cal.method == "analytic"
    assert cal.target == "weights"


def test_analytic_sigma_records_inputs():
    cal = analytic_gaussian_sigma(2.5, PrivacyBudget(1.0, 0.01), target="scores")
    assert cal.sensitivity == 2.5
    assert cal.target == "scores"
    assert cal.method == "analytic"
    with pytest.raises(ArgumentError):
        analytic_gaussian_sigma(-1.0, PrivacyBudget(1.0, 0.01))


def test_analytic_sigma_reference_value():
    # Known minimal scale for (eps=1, delta=0.01, sensitivity=1): about
    # 1.8779, noticeably below the classic 3.1075.
    cal = analytic_gaussian_sigma(1.0, PrivacyBudget(1.0, 0.01))
    assert cal.sigma == pytest.approx(1.8779, abs=2e-4)
