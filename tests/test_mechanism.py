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

from dppls.core import CALIBRATION_TARGETS, Dataset, PrivacyBudget, RngStream
import dppls.mechanism as mechanism_module
from dppls.errors import ArgumentError, DpplsError, NumericalError, ShapeError
from dppls.mechanism import (
    _LOG_NDTR_SERIES_BELOW,
    _MAX_ULP_STEPS,
    SampleBounds,
    _bisect_sigma,
    _log_ndtr,
    _ndtr,
    _unit_sigma,
    analytic_gaussian_sigma,
    analytic_gaussian_sigmas,
    gaussian_privacy_profile,
    sample_bounds,
)
from dppls.pls import FitConfig, nipals_path, release


def _random_residuals(seed, n=12, m=6):
    rng = RngStream(seed)
    E = rng.uniform(-3, 3, (n, m))
    f = rng.uniform(-2, 2, n)
    return E, f


def classic_gaussian_sigma(delta_f: float, budget: PrivacyBudget) -> float:
    """The classic closed-form noise scale sqrt(2 ln(1.25/delta)) *
    delta_f / epsilon, a valid (epsilon, delta) mechanism for epsilon <= 1
    only; the reference the analytic calibration must never exceed."""
    return delta_f * np.sqrt(2.0 * np.log(1.25 / budget.delta)) / budget.epsilon


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
        bound, _, _, _ = sample_bounds(E, f).sensitivities
        cov = E.T @ f
        for i in range(E.shape[0]):
            cov_wo = np.delete(E, i, axis=0).T @ np.delete(f, i)
            assert np.linalg.norm(cov - cov_wo) <= bound + 1e-12


def test_weights_sensitivity_is_tight_when_suprema_coincide():
    # One row holds both suprema, so the bound is attained exactly.
    E = np.array([[3.0, 4.0], [0.1, 0.1]])
    f = np.array([2.0, 0.05])
    bound, _, _, _ = sample_bounds(E, f).sensitivities
    change = np.linalg.norm(E.T @ f - (np.delete(E, 0, 0).T @ np.delete(f, 0)))
    assert change == pytest.approx(bound, rel=1e-15)


def test_scores_sensitivity_bounds_score_entries():
    for seed in range(30):
        E, f = _random_residuals(seed)
        _, bound, _, _ = sample_bounds(E, f).sensitivities
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        # Removing row i deletes score entry t_i; the l2 change is |t_i|.
        assert np.max(np.abs(t)) <= bound + 1e-12


def test_x_loadings_sensitivity_bounds_loading_change():
    for seed in range(30):
        E, f = _random_residuals(seed)
        _, _, bound, _ = sample_bounds(E, f).sensitivities
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
        _, _, _, bound = sample_bounds(E, f).sensitivities
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        t = t / np.linalg.norm(t)
        c = f @ t
        for i in range(E.shape[0]):
            c_wo = np.delete(f, i) @ np.delete(t, i)
            assert abs(c - c_wo) <= bound + 1e-12


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_sensitivities_scale_covariantly(alpha):
    E, f = _random_residuals(7)
    w1, t1, p1, c1 = sample_bounds(E, f).sensitivities
    w2, t2, p2, c2 = sample_bounds(alpha * E, alpha * f).sensitivities
    assert w2 == pytest.approx(alpha ** 2 * w1, rel=1e-12)
    assert t2 == pytest.approx(alpha * t1, rel=1e-12)
    assert p2 == pytest.approx(alpha * p1, rel=1e-12)
    assert c2 == pytest.approx(alpha * c1, rel=1e-12)


def test_sensitivity_dispatch():
    # weights, scores, x-loadings, y-loading: CALIBRATION_TARGETS order.
    b = SampleBounds(y_max_abs=2.0, max_row_norm=3.0)
    assert b.sensitivities == (6.0, 3.0, 3.0, 2.0)


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
    st.floats(min_value=0.06, max_value=7.0),
    st.floats(min_value=1.01, max_value=3.0),
)
def test_profile_strictly_decreasing_in_sigma(sigma, factor):
    lo = gaussian_privacy_profile(sigma, 1.0, 1.0)
    hi = gaussian_privacy_profile(sigma * factor, 1.0, 1.0)
    # Strictness is only claimable while the computed profile is neither
    # saturated at 1 (tiny sigma) nor drowned in cancellation noise near 0
    # (huge sigma); that band covers every delta a calibration can target.
    # It spans sigma from about 0.0695 to 6.56, so the sigma range above
    # holds all of it while the filter drops few draws (a wider range let
    # Hypothesis's too-much-filtering health check fail the test).
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
                sigma = analytic_gaussian_sigma(delta_f, PrivacyBudget(eps, delta))
                assert gaussian_privacy_profile(sigma, delta_f, eps) <= delta
                shrunk = sigma * (1.0 - 1e-6)
                assert gaussian_privacy_profile(shrunk, delta_f, eps) > delta


def test_analytic_beats_classic_at_low_epsilon():
    for eps in (0.1, 0.5, 1.0):
        for delta in (1e-4, 1e-2, 0.1):
            budget = PrivacyBudget(eps, delta)
            sigma = analytic_gaussian_sigma(1.0, budget)
            assert sigma <= classic_gaussian_sigma(1.0, budget)


def test_analytic_sigma_is_homogeneous_in_sensitivity():
    budget = PrivacyBudget(1.0, 0.01)
    base = analytic_gaussian_sigma(1.0, budget)
    for scale in (0.5, 7.0, 300.0):
        scaled = analytic_gaussian_sigma(scale, budget)
        # Bisection stops at relative width 1e-9, so allow a little slack.
        assert scaled == pytest.approx(scale * base, rel=1e-8)


def test_analytic_sigma_large_epsilon_asymptote():
    # For huge epsilon the minimal scale approaches delta_f / sqrt(2 eps).
    eps = 1e9
    sigma = analytic_gaussian_sigma(1.0, PrivacyBudget(eps, 0.01))
    assert sigma == pytest.approx(1.0 / math.sqrt(2.0 * eps), rel=0.05)


def test_analytic_sigma_zero_sensitivity():
    sigma = analytic_gaussian_sigma(0.0, PrivacyBudget(1.0, 0.01))
    assert sigma == 0.0 and type(sigma) is float


def test_analytic_sigma_records_inputs():
    # A release records each sigma with its target and its sensitivity
    # from the component's table.
    E, f = _random_residuals(3)
    budget = PrivacyBudget(1.0, 0.01)
    path = nipals_path(Dataset(X=E, y=f), 2)
    model = release(path, FitConfig(k=2, privacy=budget, rng=RngStream(0)))
    assert [(cal.target, cal.sensitivity, cal.sigma) for cal in model.calibration_log] == [
        (target, s, analytic_gaussian_sigma(s, budget))
        for bounds in path.bounds
        for target, s in zip(CALIBRATION_TARGETS, bounds.sensitivities)
    ]
    with pytest.raises(ArgumentError):
        analytic_gaussian_sigma(-1.0, PrivacyBudget(1.0, 0.01))


def test_analytic_sigma_reference_value():
    # Known minimal scale for (eps=1, delta=0.01, sensitivity=1): about
    # 1.8779, noticeably below the classic 3.1075.
    sigma = analytic_gaussian_sigma(1.0, PrivacyBudget(1.0, 0.01))
    assert sigma == pytest.approx(1.8779, abs=2e-4)


# ---------------------------------------------------------------------------
# the unit-sigma cache
# ---------------------------------------------------------------------------

def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(delta_f=_log_uniform(1e-4, 1e4), eps=_log_uniform(0.01, 1000.0),
       delta=_log_uniform(1e-10, 0.3))
def test_scaled_unit_sigma_is_feasible_and_matches_a_fresh_bisection(delta_f, eps, delta):
    sigma = analytic_gaussian_sigma(delta_f, PrivacyBudget(eps, delta))
    assert gaussian_privacy_profile(sigma, delta_f, eps) <= delta
    # The bisection stops at relative width 1e-9, and the two routes may
    # end one step apart.
    assert sigma == pytest.approx(_bisect_sigma(delta_f, eps, delta), rel=1e-8)


def test_bisection_converges_at_an_epsilon_far_below_one():
    # At delta 0.01 the bracket tops out near 6e60: converging to 1e-9 of
    # sigma 39.9 takes about 227 halvings.
    eps, delta = 1e-60, 0.01
    sigma = analytic_gaussian_sigma(1.0, PrivacyBudget(eps, delta))
    assert gaussian_privacy_profile(sigma, 1.0, eps) <= delta
    assert gaussian_privacy_profile(sigma * (1 - 1e-8), 1.0, eps) > delta


def test_a_bracket_that_overflows_is_refused_by_name():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="profile at epsilon 1e-310, delta 0.01"):
            analytic_gaussian_sigma(1.0, PrivacyBudget(1e-310, 0.01))


def test_a_bracket_whose_top_is_not_feasible_is_refused(monkeypatch):
    _count_profile_evals(monkeypatch, answer=1.0)
    with pytest.raises(NumericalError, match="cannot bracket the privacy profile at epsilon 1.0"):
        _bisect_sigma(1.0, 1.0, 0.01)


def test_a_bisection_that_runs_out_of_halvings_is_refused(monkeypatch):
    monkeypatch.setattr(mechanism_module, "_MAX_HALVINGS", 10)
    with pytest.raises(NumericalError, match="did not converge in 10 halvings"):
        _bisect_sigma(1.0, 1.0, 0.01)


def test_bisection_returns_the_bottom_of_its_bracket_when_that_is_feasible():
    # At epsilon 1e12 the profile is within delta already at delta_f * 1e-6.
    delta_f, eps, delta = 2.0, 1e12, 0.01
    assert gaussian_privacy_profile(delta_f * 1e-6, delta_f, eps) <= delta
    assert _bisect_sigma(delta_f, eps, delta) == delta_f * 1e-6


def _count_profile_evals(monkeypatch, answer=None):
    """Count profile evaluations from here on, at the function that holds
    the profile's arithmetic, which the bisection (through
    gaussian_privacy_profile) and the ulp steps both call; ``answer``
    replaces their result when given."""
    calls = []
    profile = mechanism_module._profile

    def counting(sigma, delta_f, epsilon):
        calls.append(sigma)
        return profile(sigma, delta_f, epsilon) if answer is None else answer

    monkeypatch.setattr(mechanism_module, "_profile", counting)
    return calls


def test_second_calibration_under_a_budget_evaluates_the_profile_once_per_ulp(monkeypatch):
    budget = PrivacyBudget(0.7315, 0.0123)
    _unit_sigma.cache_clear()
    calls = _count_profile_evals(monkeypatch)
    analytic_gaussian_sigma(2.0, budget)
    assert len(calls) > 20  # the bisection ran
    for delta_f in (3.7, 1e-3, 812.5):
        del calls[:]
        sigma = analytic_gaussian_sigma(delta_f, budget)
        bumps, s = 0, delta_f * _unit_sigma(budget.epsilon, budget.delta)
        while s < sigma:
            s, bumps = math.nextafter(s, math.inf), bumps + 1
        assert len(calls) == 1 + bumps


def test_ulp_steps_past_the_cap_raise(monkeypatch):
    budget = PrivacyBudget(1.0, 0.01)
    analytic_gaussian_sigma(1.0, budget)  # r(1, 0.01) now cached
    calls = _count_profile_evals(monkeypatch, answer=1.0)
    with pytest.raises(NumericalError, match="ulps"):
        analytic_gaussian_sigma(2.0, budget)
    assert len(calls) == _MAX_ULP_STEPS
    # Each evaluation after the first is one ulp above the one before.
    assert all(b == math.nextafter(a, math.inf) for a, b in zip(calls, calls[1:]))


# Budgets of the ulp tests above, with a sensitivity each whose scaled
# unit sigma rounds below the feasible one: subnormal sensitivities are
# a few ulps wide, so s * r rounds by up to half an ulp of s.
_ULP_CASES = [(PrivacyBudget(0.7315, 0.0123), 2e-323), (PrivacyBudget(1.0, 0.01), 2.5e-323)]


@pytest.mark.parametrize("budget, stepped", _ULP_CASES)
def test_one_sigma_is_the_batched_routine_on_one_value(monkeypatch, budget, stepped):
    calls = _count_profile_evals(monkeypatch)
    for delta_f in (0.0, 1.0, 3.7, 1e-3, 812.5, stepped):
        one = analytic_gaussian_sigma(delta_f, budget)
        del calls[:]
        sigmas, error = analytic_gaussian_sigmas([delta_f], budget)
        assert error is None and sigmas.dtype == np.float64 and sigmas.shape == (1,)
        assert one.hex() == float(sigmas[0]).hex()
        if delta_f == stepped:
            assert len(calls) >= 2 and one > delta_f * _unit_sigma(budget.epsilon, budget.delta)
    # A batch gives each value's sigma, the profile once a value where
    # no ulp step is needed.
    values = [3.7, 0.0, 1e-3, stepped, 812.5]
    del calls[:]
    sigmas, error = analytic_gaussian_sigmas(values, budget)
    assert error is None
    assert [s.hex() for s in sigmas.tolist()] == [
        analytic_gaussian_sigma(v, budget).hex() for v in values]


def test_one_sigma_raises_what_the_batch_returns(monkeypatch):
    refused = PrivacyBudget(1e-310, 0.01)
    budget = PrivacyBudget(1.0, 0.01)
    for delta_f, b in ((1.0, refused), (-1.0, budget), (math.inf, budget), (math.nan, budget),
                       (1e308, PrivacyBudget(1e-3, 0.01)), (5e-324, PrivacyBudget(10.0, 0.01))):
        with pytest.raises(DpplsError) as one:
            analytic_gaussian_sigma(delta_f, b)
        sigmas, error = analytic_gaussian_sigmas([delta_f], b)
        assert sigmas.shape == (0,)
        assert type(error) is type(one.value) and str(error) == str(one.value)
    assert "epsilon 1e-310, delta 0.01" in str(analytic_gaussian_sigmas([1.0], refused)[1])
    # A batch keeps the sigmas ahead of its first failure, and stops there.
    sigmas, error = analytic_gaussian_sigmas([1.0, 0.0, -2.0, 3.0], budget)
    assert sigmas.tolist() == [analytic_gaussian_sigma(1.0, budget), 0.0]
    assert str(error) == "sensitivity must be finite and nonnegative, got -2.0"
    # The ulp cap, in both.
    _count_profile_evals(monkeypatch, answer=1.0)
    with pytest.raises(NumericalError) as one:
        analytic_gaussian_sigma(2.0, budget)
    sigmas, error = analytic_gaussian_sigmas([0.0, 2.0], budget)
    assert sigmas.tolist() == [0.0] and str(error) == str(one.value)
