"""Model fitting, privatization plumbing, prediction, serialization.

The correctness anchor is `_nipals_reference`, a from-scratch textbook
PLS1 implementation with unnormalized scores.  The package normalizes its
score vectors before releasing them, which changes every intermediate
quantity but provably not the regression vector, so the two routes must
agree to rounding error.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import dppls.pls as pls_module
from dppls.core import (
    CALIBRATION_TARGETS,
    Dataset,
    NoiseCalibration,
    PlsModel,
    PrivacyBudget,
    RngStream,
    gaussian_vector,
)
from dppls.errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    DpplsError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    SingularSystemError,
)
from dppls.pls import (
    FitConfig,
    fit,
    load_model,
    nipals_path,
    predict,
    regression_coefficients,
    release,
    release_many,
    save_model,
)


def _nipals_reference(X, y, k):
    """Textbook PLS1/NIPALS with unnormalized scores; returns b for
    centered data plus the means, sharing no code with the package."""
    x_means = X.mean(axis=0)
    y_mean = y.mean()
    E = X - x_means
    f = y - y_mean
    W, P, C = [], [], []
    for _ in range(k):
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        tt = float(t @ t)
        p = (E.T @ t) / tt
        c = float(f @ t) / tt
        E = E - np.outer(t, p)
        f = f - c * t
        W.append(w)
        P.append(p)
        C.append(c)
    W = np.column_stack(W)
    P = np.column_stack(P)
    C = np.array(C)
    b = W @ np.linalg.solve(P.T @ W, C)
    return b, x_means, y_mean


def _random_dataset(seed, n=20, m=10):
    rng = RngStream(seed)
    X = rng.uniform(-2, 2, (n, m))
    y = rng.uniform(0, 5, n)
    return Dataset(X=X, y=y)


def _rank3_dataset(seed, n=40, m=25):
    """Noiseless three-factor data: y is exactly linear in X's factors."""
    rng = RngStream(seed)
    S = rng.uniform(-1, 1, (m, 3))
    C = rng.uniform(0, 10, (n, 3))
    return Dataset(X=C @ S.T, y=C[:, 0].copy())


# ---------------------------------------------------------------------------
# baseline correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_fit_matches_textbook_oracle(k):
    for seed in range(10):
        d = _random_dataset(seed)
        model = fit(d, FitConfig(k=k))
        b_ref, x_means, y_mean = _nipals_reference(d.X, d.y, k)
        assert np.linalg.norm(model.b - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        np.testing.assert_allclose(model.x_means, x_means, atol=1e-12)
        assert model.y_mean == pytest.approx(y_mean, abs=1e-12)


def test_fit_recovers_noiseless_data():
    d = _rank3_dataset(1)
    model = fit(d, FitConfig(k=3))
    pred = predict(model, d.X)
    assert np.sqrt(np.mean((pred - d.y) ** 2)) < 1e-8


def test_nipals_path_centers_and_keeps_the_means():
    rng = RngStream(2)
    X = rng.uniform(-5, 5, (20, 7))
    y = rng.uniform(0, 10, 20)
    d = Dataset(X=X.copy(), y=y.copy())
    path = nipals_path(d, 3)
    np.testing.assert_array_equal(path.x_means, X.mean(axis=0))
    assert path.y_mean == float(y.mean())
    np.testing.assert_array_equal(d.X, X)
    np.testing.assert_array_equal(d.y, y)
    # The first component comes from the centered data.
    E, f = X - X.mean(axis=0), y - y.mean()
    w = E.T @ f
    np.testing.assert_allclose(path.components[0].w, w / np.linalg.norm(w), atol=1e-12)
    np.testing.assert_allclose(path.components[0].t.sum(), 0.0, atol=1e-12)


def test_fit_scores_are_orthonormal():
    model = fit(_random_dataset(4), FitConfig(k=5))
    G = model.T.T @ model.T
    np.testing.assert_allclose(G, np.eye(5), atol=1e-8)


def test_fit_weight_columns_are_unit_norm():
    model = fit(_random_dataset(5), FitConfig(k=5))
    np.testing.assert_allclose(np.linalg.norm(model.W, axis=0), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_fit_rejects_constant_response():
    d = Dataset(X=np.random.default_rng(0).normal(size=(8, 4)), y=np.full(8, 3.0))
    with pytest.raises(DegenerateInputError):
        fit(d, FitConfig(k=1))


def test_nipals_path_refusals_keep_their_order():
    bad = np.ones((3, 2))
    bad[1, 1] = np.nan
    cases = [
        # A constant response is refused first, whatever else is wrong.
        (Dataset(X=np.ones((1, 3)), y=np.ones(1)), "response is constant"),
        (Dataset(X=bad, y=np.full(3, 2.0)), "response is constant"),
        (Dataset(X=np.zeros((0, 3)), y=np.zeros(0)), "centering needs at least 2 samples"),
        (Dataset(X=bad, y=np.arange(3.0)), "NaN or infinite"),
        (Dataset(X=np.ones((3, 2)), y=np.array([0.0, np.inf, 1.0])), "NaN or infinite"),
    ]
    for d, message in cases:
        with pytest.raises(DegenerateInputError, match=message):
            nipals_path(d, 1)


def test_fit_rejects_excessive_k():
    d = _random_dataset(7, n=6, m=10)
    with pytest.raises(ArgumentError, match="exceeds"):
        fit(d, FitConfig(k=6))


def test_fit_requires_rng_with_privacy():
    with pytest.raises(ConfigurationError):
        fit(_random_dataset(8), FitConfig(k=1, privacy=PrivacyBudget(1.0, 0.01)))


def test_fit_config_validation():
    with pytest.raises(ArgumentError):
        FitConfig(k=0)
    with pytest.raises(ArgumentError, match="residual_tolerance"):
        nipals_path(_random_dataset(8), 1, -1.0)


def test_fit_rejects_nonfinite_rows():
    for bad in (np.inf, np.nan):
        X = np.random.default_rng(1).normal(size=(6, 3))
        X[2, 1] = bad
        with pytest.raises(DegenerateInputError):
            fit(Dataset(X=X, y=np.arange(6.0)), FitConfig(k=1))


# ---------------------------------------------------------------------------
# early stop and degeneracy
# ---------------------------------------------------------------------------

def test_fit_stops_early_on_rank_deficit():
    rng = RngStream(9)
    s = rng.uniform(-1, 1, 12)
    c = rng.uniform(1, 2, 15)
    d = Dataset(X=np.outer(c, s), y=c.copy())
    model = release(nipals_path(d, 4, 1e-8), FitConfig(k=4))
    assert model.early_stop
    assert model.k == 1
    assert model.W.shape == (12, 1)
    pred = predict(model, d.X)
    assert np.sqrt(np.mean((pred - d.y) ** 2)) < 1e-8


def test_fit_zero_tolerance_on_rank_deficit_raises_singular():
    # With the stop disabled the second component is numerical junk and
    # the loading system degenerates.
    rng = RngStream(10)
    s = rng.uniform(-1, 1, 12)
    c = rng.uniform(1, 2, 15)
    d = Dataset(X=np.outer(c, s), y=c.copy())
    with pytest.raises(SingularSystemError) as err:
        release(nipals_path(d, 3, 0.0), FitConfig(k=3))
    assert "reduce the component count" in str(err.value)


def test_all_components_skipped_predicts_mean():
    d = _random_dataset(11)
    model = release(nipals_path(d, 2, 1e12), FitConfig(k=2))
    assert model.k == 0
    assert model.early_stop
    np.testing.assert_array_equal(model.b, np.zeros(d.m))
    np.testing.assert_allclose(predict(model, d.X), d.y.mean(), atol=1e-12)


def test_regression_coefficients_shape_checks():
    with pytest.raises(ShapeError):
        regression_coefficients(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        regression_coefficients(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        regression_coefficients(np.zeros(4), np.zeros((4, 1)), np.zeros(1))


# ---------------------------------------------------------------------------
# privatized fitting
# ---------------------------------------------------------------------------

def test_private_fit_with_forced_zero_noise_is_bit_identical(monkeypatch):
    def zero_noise(delta_f, budget, target=None):
        return NoiseCalibration(sensitivity=float(delta_f), sigma=0.0, target=target)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", zero_noise)
    for seed in range(20):
        d = _random_dataset(seed)
        base = fit(d, FitConfig(k=3))
        noisy = fit(d, FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                                 rng=RngStream(seed)))
        np.testing.assert_array_equal(base.W, noisy.W)
        np.testing.assert_array_equal(base.P, noisy.P)
        np.testing.assert_array_equal(base.c, noisy.c)
        np.testing.assert_array_equal(base.b, noisy.b)
        assert len(noisy.calibration_log) == 12


def test_private_fit_calibration_log_layout():
    d = _random_dataset(12)
    model = fit(d, FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                             rng=RngStream(0)))
    log = model.calibration_log
    assert len(log) == 4 * 3
    cycle = ["weights", "scores", "x_loadings", "y_loading"]
    assert [cal.target for cal in log] == cycle * 3
    assert all(cal.sigma > 0 for cal in log)
    # Deflation shrinks the residuals, so later weight releases never need
    # more noise than the first.
    weight_sigmas = [cal.sigma for cal in log if cal.target == "weights"]
    assert weight_sigmas[-1] <= weight_sigmas[0]


def test_baseline_fit_has_empty_log_and_no_privacy():
    model = fit(_random_dataset(13), FitConfig(k=2))
    assert model.privacy is None
    assert model.calibration_log == []
    assert model.rng_seed is None


def test_private_fit_is_deterministic_per_stream():
    d = _random_dataset(14)
    cfg = lambda s: FitConfig(k=3, privacy=PrivacyBudget(10.0, 0.01),
                              rng=RngStream(s))
    a = fit(d, cfg(5))
    b = fit(d, cfg(5))
    c = fit(d, cfg(6))
    np.testing.assert_array_equal(a.b, b.b)
    assert not np.array_equal(a.b, c.b)
    assert a.rng_seed == 5 and a.rng_stream == 0


def test_private_fit_released_columns_are_unit_norm():
    d = _random_dataset(15)
    model = fit(d, FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                             rng=RngStream(2)))
    np.testing.assert_allclose(np.linalg.norm(model.W, axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(model.T, axis=0), 1.0, atol=1e-10)


def test_private_fit_huge_epsilon_approaches_baseline():
    d = _rank3_dataset(16)
    base = predict(fit(d, FitConfig(k=3)), d.X)
    noisy = predict(
        fit(d, FitConfig(k=3, privacy=PrivacyBudget(1e9, 0.01),
                         rng=RngStream(3))),
        d.X,
    )
    # Residual noise scale is delta_f/sqrt(2 eps), around 1e-4 of the data
    # scale here, so predictions track the baseline closely.
    assert np.max(np.abs(noisy - base)) < 1e-2 * np.std(d.y)


def test_private_fit_perturbs_the_model():
    d = _random_dataset(17)
    base = fit(d, FitConfig(k=2))
    noisy = fit(d, FitConfig(k=2, privacy=PrivacyBudget(1.0, 0.01),
                             rng=RngStream(0)))
    assert not np.array_equal(base.W, noisy.W)
    assert not np.array_equal(base.b, noisy.b)


# ---------------------------------------------------------------------------
# shared path and batched release
# ---------------------------------------------------------------------------

def _score_stop_dataset():
    """A strong rank-1 part plus 1e-9 noise and a response far outside
    X's span: the second component's covariance norm clears 1e-8 while
    its score norm does not."""
    rng = RngStream(31)
    c = rng.uniform(1, 2, 16)
    s = rng.uniform(-1, 1, 8)
    X = np.outer(c, s) + 1e-9 * rng.uniform(-1, 1, (16, 8))
    return Dataset(X=X, y=c + 100.0 * rng.uniform(-1, 1, 16))


def _covariance_stop_dataset():
    rng = RngStream(9)
    c = rng.uniform(1, 2, 15)
    return Dataset(X=np.outer(c, rng.uniform(-1, 1, 12)), y=c.copy())


def _assert_models_identical(a, b):
    for name in ("W", "P", "c", "b", "T", "x_means"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.calibration_log == b.calibration_log
    assert (a.k, a.early_stop, a.y_mean) == (b.k, b.early_stop, b.y_mean)
    assert (a.rng_seed, a.rng_stream) == (b.rng_seed, b.rng_stream)


@pytest.mark.parametrize("case, tol, stop", [
    ("random", 1e-12, None),
    ("score-stop", 1e-8, "scores"),
    ("covariance-stop", 1e-8, "covariance"),
])
def test_release_of_a_deeper_path_equals_fit(case, tol, stop):
    d = {
        "random": lambda: _random_dataset(40, n=12, m=9),
        "score-stop": _score_stop_dataset,
        "covariance-stop": _covariance_stop_dataset,
    }[case]()
    K = 4
    path = nipals_path(d, K, tol)
    assert (len(path.components) < K) == (stop is not None)
    budgets = [None, PrivacyBudget(1.0, 0.01), PrivacyBudget(10.0, 0.01)]
    # Deepest first, so shallower releases read calibrations memoized by
    # deeper ones.
    for k in range(K, 0, -1):
        for bi, budget in enumerate(budgets):
            def cfg():
                rng = None if budget is None else RngStream(k, bi)
                return FitConfig(k=k, privacy=budget, rng=rng)
            replayed = release(path, cfg())
            _assert_models_identical(replayed, release(nipals_path(d, k, tol), cfg()))
            if budget is not None:
                # Only the released components are calibrated, not the
                # one the recursion stopped on.
                assert len(replayed.calibration_log) == 4 * replayed.k


def test_release_rejects_configs_the_path_cannot_serve():
    d = _random_dataset(41, n=6, m=10)
    path = nipals_path(d, 3)
    with pytest.raises(ArgumentError, match="path's 3 components"):
        release(path, FitConfig(k=6))
    with pytest.raises(ArgumentError, match="path's 3 components"):
        release(path, FitConfig(k=4))
    with pytest.raises(ConfigurationError, match="rng"):
        release(path, FitConfig(k=2, privacy=PrivacyBudget(1.0, 0.01)))


def _sequential_release(path, k, log, rng):
    """The release rebuilt from one gaussian_vector call per released
    vector, in the documented order."""
    W, T, P, c = [], [], [], []
    for j, comp in enumerate(path.components[:k]):
        sig = [cal.sigma for cal in log[4 * j:4 * j + 4]]
        w = comp.w + gaussian_vector(comp.w.size, sig[0], rng)
        t = comp.t + gaussian_vector(comp.t.size, sig[1], rng)
        W.append(w / np.linalg.norm(w))
        T.append(t / np.linalg.norm(t))
        P.append(comp.p + gaussian_vector(comp.p.size, sig[2], rng))
        c.append(float((np.array([comp.c]) + gaussian_vector(1, sig[3], rng))[0]))
    W, T, P, c = np.column_stack(W), np.column_stack(T), np.column_stack(P), np.array(c)
    return W, T, P, c, regression_coefficients(W, P, c)


@pytest.mark.parametrize("silenced", [None, "scores"])
def test_batched_noise_equals_sequential_draws(monkeypatch, silenced):
    if silenced is not None:
        # A zero-sigma release must take no draws from the stream.
        calibrate = pls_module.analytic_gaussian_sigma

        def partly_silent(delta_f, budget, target=None):
            if target == silenced:
                return NoiseCalibration(float(delta_f), 0.0, target)
            return calibrate(delta_f, budget, target)

        monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", partly_silent)
    d = _random_dataset(42)
    path = nipals_path(d, 3)
    model = release(path, FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                                    rng=RngStream(5, 9)))
    W, T, P, c, b = _sequential_release(path, 3, model.calibration_log, RngStream(5, 9))
    for got, want in ((model.W, W), (model.T, T), (model.P, P), (model.c, c), (model.b, b)):
        np.testing.assert_array_equal(got, want)
    assert (silenced is None) == all(cal.sigma > 0 for cal in model.calibration_log)


def test_path_memoizes_calibrations_per_budget(monkeypatch):
    calls = []
    calibrate = pls_module.analytic_gaussian_sigma

    def counting(delta_f, budget, target=None):
        calls.append(budget)
        return calibrate(delta_f, budget, target)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", counting)
    path = nipals_path(_random_dataset(43), 3)
    budgets = (PrivacyBudget(1.0, 0.01), PrivacyBudget(10.0, 0.01))
    for rep in range(3):
        for budget in budgets:
            release(path, FitConfig(k=3, privacy=budget, rng=RngStream(rep)))
    assert calls.count(budgets[0]) == calls.count(budgets[1]) == 4 * 3


def test_a_calibration_failing_within_a_component_memoizes_none_of_it(monkeypatch):
    calibrate = pls_module.analytic_gaussian_sigma
    armed = []

    def fails_once_on_x_loadings(delta_f, budget, target=None):
        if armed and target == "x_loadings":
            armed.clear()
            raise NumericalError("synthetic calibration failure")
        return calibrate(delta_f, budget, target)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", fails_once_on_x_loadings)
    d = _random_dataset(45)
    path = nipals_path(d, 3)
    budget = PrivacyBudget(1.0, 0.01)
    cfg = lambda k, s: FitConfig(k=k, privacy=budget, rng=RngStream(s))
    release(path, cfg(1, 0))  # memoizes the first component
    armed.append(True)  # the second component's x-loadings calibration fails
    failed, after = release_many(path, [cfg(3, 1), cfg(3, 2)])
    assert isinstance(failed, NumericalError) and not armed
    for got in (after, release(path, cfg(3, 2))):
        _assert_models_identical(got, release(nipals_path(d, 3), cfg(3, 2)))


def _silence_all_but(monkeypatch, *noised):
    """Calibrate every target outside ``noised`` to sigma 0."""
    calibrate = pls_module.analytic_gaussian_sigma

    def partly_silent(delta_f, budget, target=None):
        if target not in noised:
            return NoiseCalibration(float(delta_f), 0.0, target)
        return calibrate(delta_f, budget, target)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", partly_silent)


def _one_by_one(path, cfgs):
    """release() per config, each error kept in place of its model."""
    out = []
    for cfg in cfgs:
        try:
            out.append(release(path, cfg))
        except DpplsError as exc:
            out.append(exc)
    return out


def _assert_outcomes_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, DpplsError):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            _assert_models_identical(g, w)


@pytest.mark.parametrize("silenced", [None, "scores"])
def test_release_many_equals_one_release_per_config(monkeypatch, silenced):
    if silenced is not None:
        _silence_all_but(monkeypatch, *(t for t in CALIBRATION_TARGETS if t != silenced))
    path = nipals_path(_random_dataset(44, n=12, m=9), 4)
    b1, b2 = PrivacyBudget(1.0, 0.01), PrivacyBudget(100.0, 1e-5)

    def cfgs():
        return [
            FitConfig(k=3, privacy=b1, rng=RngStream(6, 0)),
            FitConfig(k=1),
            FitConfig(k=4, privacy=b2, rng=RngStream(6, 1)),
            FitConfig(k=9, privacy=b1, rng=RngStream(6, 2)),  # deeper than the path
            FitConfig(k=2, privacy=b1),  # no rng
            FitConfig(k=1, privacy=b2, rng=RngStream(6, 3)),
            FitConfig(k=4, privacy=b1, rng=RngStream(6, 4)),
        ]

    got = release_many(path, cfgs())
    _assert_outcomes_identical(got, _one_by_one(path, cfgs()))
    assert [type(r).__name__ for r in got[3:5]] == ["ArgumentError", "ConfigurationError"]
    assert "path's 4 components" in str(got[3])
    assert (silenced is None) == all(cal.sigma > 0 for cal in got[0].calibration_log)
    assert release_many(path, []) == []


def test_release_many_keeps_a_failed_solve_to_its_own_config(monkeypatch):
    # Rank-1 data with the stop disabled: k >= 2 gives a singular loading
    # system.  Noising only the y-loadings leaves that system singular, so
    # the private k=2 release draws its noise and then fails its solve.
    _silence_all_but(monkeypatch, "y_loading")
    rng = RngStream(10)
    s = rng.uniform(-1, 1, 12)
    c = rng.uniform(1, 2, 15)
    path = nipals_path(Dataset(X=np.outer(c, s), y=c.copy()), 3, 0.0)
    budget = PrivacyBudget(1.0, 0.01)

    def cfgs():
        private = lambda k, s: FitConfig(k=k, privacy=budget, rng=RngStream(8, s))
        return [private(1, 0), private(2, 1), private(1, 2),
                FitConfig(k=3), FitConfig(k=1)]

    got = release_many(path, cfgs())
    _assert_outcomes_identical(got, _one_by_one(path, cfgs()))
    assert [type(r).__name__ for r in got] == [
        "PlsModel", "SingularSystemError", "PlsModel", "SingularSystemError", "PlsModel"]


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_shape_validation():
    model = fit(_random_dataset(18), FitConfig(k=2))
    with pytest.raises(ShapeError):
        predict(model, np.zeros(10))
    with pytest.raises(ShapeError, match="expects"):
        predict(model, np.zeros((4, 7)))


def test_predict_single_row():
    d = _random_dataset(19)
    model = fit(d, FitConfig(k=2))
    full = predict(model, d.X)
    one = predict(model, d.X[:1])
    assert one.shape == (1,)
    # Not bit-equal: BLAS may sum a single-row product in a different
    # order than the batched one.
    assert one[0] == pytest.approx(full[0], rel=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_round_trip_predicts_identically(tmp_path):
    d = _random_dataset(20)
    model = fit(d, FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                             rng=RngStream(7)))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(predict(model, d.X), predict(back, d.X))
    np.testing.assert_array_equal(back.W, model.W)
    np.testing.assert_array_equal(back.b, model.b)
    assert back.k == model.k
    assert back.T is None
    assert back.privacy == model.privacy
    assert back.early_stop == model.early_stop
    assert back.rng_seed == 7 and back.rng_stream == 0
    assert len(back.calibration_log) == len(model.calibration_log)
    assert back.calibration_log[0] == model.calibration_log[0]


@pytest.mark.parametrize("case, logged", [
    ("score-stop", 4 * 1), ("covariance-stop", 4 * 1), ("all-skipped", 0),
])
def test_early_stopped_private_models_load(tmp_path, case, logged):
    d, tol = {
        "score-stop": (_score_stop_dataset(), 1e-8),
        "covariance-stop": (_covariance_stop_dataset(), 1e-8),
        "all-skipped": (_random_dataset(22), 1e12),
    }[case]
    model = release(nipals_path(d, 4, tol),
                    FitConfig(k=4, privacy=PrivacyBudget(1.0, 0.01), rng=RngStream(3)))
    assert model.early_stop and len(model.calibration_log) == logged
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json").calibration_log == model.calibration_log


def test_a_score_stopped_model_logging_the_cut_off_weights_still_loads():
    # Written by an earlier version, which also logged the weights
    # calibration of the component the recursion stopped on.
    old = load_model(Path(__file__).parent / "data" / "score_stop_model_with_cut_off_entry.json")
    assert old.early_stop and old.k == 1
    assert [cal.target for cal in old.calibration_log] == [*CALIBRATION_TARGETS, "weights"]
    model = release(nipals_path(_score_stop_dataset(), 4, 1e-8),
                    FitConfig(k=4, privacy=PrivacyBudget(1.0, 0.01), rng=RngStream(3)))
    np.testing.assert_allclose(old.b, model.b, rtol=1e-12)
    np.testing.assert_allclose([cal.sigma for cal in old.calibration_log[:4]],
                               [cal.sigma for cal in model.calibration_log], rtol=1e-12)


def test_model_file_is_byte_stable(tmp_path):
    d = _random_dataset(21)
    model = fit(d, FitConfig(k=2))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(fit(d, FitConfig(k=2)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ArgumentError, match="not a model file"):
        load_model(path)
    path.write_text('{"format": "dppls-model", "version": 99}')
    with pytest.raises(ArgumentError, match="unsupported model version"):
        load_model(path)


def _resaved_log(tmp_path, model, **changes):
    """The path of ``model`` saved with every logged field in ``changes``
    replaced by fn(entry) -> new value."""
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    for entry in doc["calibration_log"]:
        for key, fn in changes.items():
            entry[key] = fn(entry)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    return tmp_path / "model.json"


def test_load_model_ties_each_sigma_to_the_budget(tmp_path, monkeypatch):
    model = fit(_random_dataset(23), FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                                               rng=RngStream(4)))
    # Within the bisection's tolerance a sigma still loads.
    path = _resaved_log(tmp_path, model, sigma=lambda e: e["sigma"] * (1 + 1e-10))
    assert len(load_model(path).calibration_log) == 12
    for changes in (dict(sigma=lambda e: e["sigma"] * (1 + 1e-8)),
                    dict(sensitivity=lambda e: 0.0)):
        with pytest.raises(ModelFormatError, match="sigma"):
            load_model(_resaved_log(tmp_path, model, **changes))
    # A zero sensitivity with sigma 0 is consistent.
    path = _resaved_log(tmp_path, model, sensitivity=lambda e: 0.0, sigma=lambda e: 0.0)
    assert all(cal.sigma == 0.0 for cal in load_model(path).calibration_log)

    def failing(delta_f, budget, target=None):
        raise NumericalError("synthetic calibration failure")

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", failing)
    with pytest.raises(ModelFormatError, match="recalibrated"):
        load_model(_resaved_log(tmp_path, model))
