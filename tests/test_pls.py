"""Model fitting, privatization plumbing, prediction, serialization.

The correctness anchor is `_nipals_reference`, a from-scratch textbook
PLS1 implementation with unnormalized scores.  The package normalizes its
score vectors before releasing them, which changes every intermediate
quantity but provably not the regression vector, so the two routes must
agree to rounding error.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dppls.pls as pls_module
from dppls.attack import AttackReport
from dppls.core import (
    CALIBRATION_TARGETS,
    Dataset,
    NoiseCalibration,
    PlsModel,
    PrivacyBudget,
    RngStream,
    norm_ppf,
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
from dppls.mechanism import SampleBounds, analytic_gaussian_sigma
from dppls.pls import (
    FitConfig,
    fit,
    load_model,
    nipals_path,
    predict,
    release,
    release_b,
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


def _nipals_path_at(tol, d, k_max):
    """nipals_path with its stop tolerance monkeypatched to ``tol``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pls_module, "RESIDUAL_TOLERANCE", tol)
        return nipals_path(d, k_max)


def _b_jobs(path, cfgs):
    """release_b's jobs: each config's (k, budget, stream) on ``path``."""
    return [(path, cfg.k, cfg.privacy, cfg.rng) for cfg in cfgs]


def _outcomes(path, cfgs, one=release):
    """``one(path, cfg)`` per config, each error kept in place of its model."""
    out = []
    for cfg in cfgs:
        try:
            out.append(one(path, cfg))
        except DpplsError as exc:
            out.append(exc)
    return out


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
    # Deflation works on the path's own copy: the dataset keeps its bits.
    assert d.X.tobytes() == X.tobytes() and d.y.tobytes() == y.tobytes()
    # The first component comes from the centered data.
    E, f = X - X.mean(axis=0), y - y.mean()
    w = E.T @ f
    m = path.sizes[0]
    np.testing.assert_allclose(path.releases[0, :m], w / np.linalg.norm(w), atol=1e-12)
    np.testing.assert_allclose(path.scores[0].sum(), 0.0, atol=1e-12)


def test_fit_scores_are_orthonormal():
    path = nipals_path(_random_dataset(4), 5)
    t = path.scores  # one component's unit scores per row
    G = t @ t.T
    np.testing.assert_allclose(G, np.eye(5), atol=1e-8)


def test_array_records_compare_by_identity():
    d = _random_dataset(6)
    path = nipals_path(d, 2)
    model = release(path, FitConfig(k=2))
    records = [
        (d, Dataset(X=d.X, y=d.y)),
        (path, dataclasses.replace(path)),
        (model, dataclasses.replace(model)),
        (AttackReport(residual=d.X, similarities=d.y, component_argmax=0),
         AttackReport(residual=d.X, similarities=d.y, component_argmax=0)),
    ]
    for record, twin in records:
        assert (record == record) is True and (record == twin) is False
        assert len({record, twin}) == 2
    # Value records keep value equality.
    assert PrivacyBudget(1.0, 0.01) == PrivacyBudget(1.0, 0.01)
    assert path.bounds[0] == dataclasses.replace(path.bounds[0])
    assert FitConfig(k=2) == FitConfig(k=2)


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
    for k in (0, -1, 1.5, True):
        with pytest.raises(ArgumentError, match=f"k must be a positive integer, got {k}"):
            FitConfig(k=k)


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
    model = release(_nipals_path_at(1e-8, d, 4), FitConfig(k=4))
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
        release(_nipals_path_at(0.0, d, 3), FitConfig(k=3))
    assert "reduce the component count" in str(err.value)


def test_zero_tolerance_stops_on_an_exactly_vanishing_residual():
    # The first component explains X and y exactly, so the second one's
    # covariance norm is 0.0, which a tolerance of 0 must stop on.
    d = Dataset(X=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
                y=np.array([1.0, 2.0, 3.0, 4.0]))
    path = _nipals_path_at(0.0, d, 2)
    assert path.releases.shape[0] == 1 and np.all(np.isfinite(path.releases))
    one, two = (release(path, FitConfig(k=k)) for k in (1, 2))
    assert (one.k, one.early_stop) == (1, False)
    assert (two.k, two.early_stop) == (1, True)
    np.testing.assert_allclose(predict(two, d.X), d.y, rtol=1e-12)


def test_all_components_skipped_predicts_mean():
    d = _random_dataset(11)
    model = release(_nipals_path_at(1e12, d, 2), FitConfig(k=2))
    assert model.k == 0
    assert model.early_stop
    np.testing.assert_array_equal(model.b, np.zeros(d.m))
    np.testing.assert_allclose(predict(model, d.X), d.y.mean(), atol=1e-12)


# ---------------------------------------------------------------------------
# privatized fitting
# ---------------------------------------------------------------------------

def test_private_fit_with_forced_zero_noise_is_bit_identical(monkeypatch):
    def zero_noise(delta_f, budget):
        return np.zeros(len(delta_f)), None

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigmas", zero_noise)
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
    for name in ("W", "P", "c", "b", "x_means"):
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
    path = _nipals_path_at(tol, d, K)
    assert (len(path.releases) < K) == (stop is not None)
    budgets = [None, PrivacyBudget(1.0, 0.01), PrivacyBudget(10.0, 0.01)]
    for k in range(K, 0, -1):
        for bi, budget in enumerate(budgets):
            def cfg():
                rng = None if budget is None else RngStream(k, bi)
                return FitConfig(k=k, privacy=budget, rng=rng)
            replayed = release(path, cfg())
            _assert_models_identical(replayed, release(_nipals_path_at(tol, d, k), cfg()))
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


def gaussian_vector(length, sigma, rng):
    """``length`` iid N(0, sigma^2) draws from ``rng``, at sigma 0 too;
    zeros without a stream."""
    if rng is None:
        return np.zeros(length)
    return sigma * norm_ppf(rng.open_unit(length))


def _reference_release(path, cfg, noised=CALIBRATION_TARGETS):
    """cfg's release of ``path`` rebuilt one config and one vector at a
    time: one analytic_gaussian_sigmas call per calibration, in
    CALIBRATION_TARGETS order, each target outside ``noised`` then set
    to sigma 0 (as _silence_all_but sets it in the release), one
    gaussian_vector call per released vector in the documented order (a
    private config draws for every release, whatever its sigma, the
    scores' too, which no model holds; a clean one draws nothing),
    np.linalg.norm per weight vector and np.linalg.solve(P.T @ W, c).
    Raises what release raises for the config."""
    if cfg.privacy is not None and cfg.rng is None:
        raise ConfigurationError("a privacy budget requires an rng stream")
    if cfg.k > path.k_max:
        raise ArgumentError(f"k={cfg.k} exceeds the path's {path.k_max} components")
    k = min(cfg.k, len(path.releases))
    m = path.sizes[0]
    W, P, c, log = np.empty((m, k)), np.empty((m, k)), np.empty(k), []
    rng = None if cfg.privacy is None else cfg.rng
    for j, (row, comp_t, bounds) in enumerate(zip(path.releases[:k], path.scores, path.bounds)):
        comp_w, comp_p, comp_c = np.split(row, [m, 2 * m])
        sig = [0.0] * 4
        if cfg.privacy is not None:
            four = []
            for target, s in zip(CALIBRATION_TARGETS, bounds.sensitivities):
                sigmas, error = pls_module.analytic_gaussian_sigmas([s], cfg.privacy)
                if error is not None:
                    raise error
                sigma = float(sigmas[0])
                four.append(NoiseCalibration(sensitivity=s, target=target,
                                             sigma=sigma if target in noised else 0.0))
            log += four
            sig = [cal.sigma for cal in four]
        w = comp_w + gaussian_vector(comp_w.size, sig[0], rng)
        gaussian_vector(comp_t.size, sig[1], rng)  # the scores' draws, then dropped
        W[:, j] = w / np.linalg.norm(w)
        P[:, j] = comp_p + gaussian_vector(comp_p.size, sig[2], rng)
        c[j:j + 1] = comp_c + gaussian_vector(1, sig[3], rng)
    b = np.zeros(m)
    if k:
        PtW = P.T @ W
        cond = np.linalg.cond(PtW)
        if not np.isfinite(cond) or cond > pls_module._COND_LIMIT:
            raise SingularSystemError(
                f"loading system is singular within tolerance "
                f"(condition estimate {cond:.3e}); reduce the component count"
            )
        b = W @ np.linalg.solve(PtW, c)
    return PlsModel(
        W=W, P=P, c=c, b=b, k=k, x_means=path.x_means, y_mean=path.y_mean,
        privacy=cfg.privacy, calibration_log=log, early_stop=cfg.k > k,
        rng_seed=None if cfg.rng is None else cfg.rng.seed,
        rng_stream=None if cfg.rng is None else cfg.rng.stream_id,
    )


def _assert_score_noise_reaches_no_model(path, cfgs):
    """Released with noise on the scores alone, every private config of
    cfgs() that gives a model gives its clean release's W, P, c and b bit
    for bit, and its row of one release_b call over cfgs() that b, while
    its log holds 4k calibrations with positive score sigmas."""
    with pytest.MonkeyPatch.context() as mp:
        _silence_all_but(mp, "scores")
        noised = _outcomes(path, cfgs())
        B, errors = release_b(_b_jobs(path, cfgs()))
    clean = _outcomes(path, [dataclasses.replace(cfg, privacy=None) for cfg in cfgs()])
    models = [(a, b, row, error) for a, b, row, error in zip(noised, clean, B, errors)
              if isinstance(a, PlsModel) and a.privacy is not None]
    assert models
    for a, b, row, error in models:
        for name in ("W", "P", "c", "b"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert error is None
        np.testing.assert_array_equal(row, b.b)
        assert len(a.calibration_log) == 4 * a.k
        scores = a.calibration_log[1::4]
        assert all(cal.target == "scores" and cal.sigma > 0 for cal in scores)


@pytest.mark.parametrize("silenced", [None, "scores"])
def test_batched_noise_equals_sequential_draws(monkeypatch, silenced):
    d = _random_dataset(42)
    path = nipals_path(d, 3)
    cfg = lambda: FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01), rng=RngStream(5, 9))
    noised = CALIBRATION_TARGETS
    if silenced is not None:
        _assert_score_noise_reaches_no_model(path, lambda: [cfg()])
        # A zero-sigma release still takes its draws from the stream.
        noised = _silence_all_but(
            monkeypatch, *(t for t in CALIBRATION_TARGETS if t != silenced))
    model = release(path, cfg())
    _assert_models_identical(model, _reference_release(path, cfg(), noised))
    assert (silenced is None) == all(cal.sigma > 0 for cal in model.calibration_log)


@pytest.mark.parametrize("case", ["noised", "silenced", "score-stop"])
def test_a_private_release_consumes_k_row_widths_of_its_stream(monkeypatch, case):
    # k (2m + n + 1) words for the k released components, whatever their
    # sigmas; a clean config takes none, even with a stream.
    if case == "silenced":
        _silence_all_but(monkeypatch)
    path = (_nipals_path_at(1e-8, _score_stop_dataset(), 4) if case == "score-stop"
            else nipals_path(_random_dataset(46), 3))
    k = len(path.releases)
    assert k == (1 if case == "score-stop" else 3)
    budget = PrivacyBudget(1.0, 0.01)

    def cfgs():
        streams = [RngStream(11, s) for s in range(3)]
        return [FitConfig(k=path.k_max, privacy=budget, rng=streams[0]),
                FitConfig(k=path.k_max, rng=streams[1]),
                FitConfig(k=1, privacy=budget, rng=streams[2])]

    # Alike in one release_b call and in one release per config.
    batched, one_by_one = cfgs(), cfgs()
    release_b(_b_jobs(path, batched))
    for cfg in one_by_one:
        release(path, cfg)
    for released in (batched, one_by_one):
        for used, cfg in zip((k, 0, 1), released):
            fresh = RngStream(cfg.rng.seed, cfg.rng.stream_id)
            fresh.open_unit(used * sum(path.sizes))
            np.testing.assert_array_equal(cfg.rng.open_unit(8), fresh.open_unit(8))


def test_release_b_calibrates_each_budget_once_within_the_call(monkeypatch):
    calls = []
    calibrate = pls_module.analytic_gaussian_sigmas

    def counting(delta_f, budget):
        calls.append((budget, len(delta_f)))
        return calibrate(delta_f, budget)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigmas", counting)
    path = nipals_path(_random_dataset(43), 3)
    budgets = (PrivacyBudget(1.0, 0.01), PrivacyBudget(10.0, 0.01))
    # Shallow first: each budget is still calibrated once, through the
    # deepest component released under it.
    cfgs = lambda: [FitConfig(k=k, privacy=budget, rng=RngStream(k, rep))
                    for k in (1, 3, 2) for rep in range(3) for budget in budgets]
    B, errors = release_b(_b_jobs(path, cfgs()))
    # Three sigmas per component: the scores and x-loadings share r.
    assert calls == [(budgets[0], 3 * 3), (budgets[1], 3 * 3)]
    # The path keeps nothing: the next call calibrates afresh.
    assert [f.name for f in dataclasses.fields(path)] == [
        "releases", "scores", "bounds", "x_means", "y_mean", "k_max"]
    again, errors_again = release_b(_b_jobs(path, cfgs()))
    assert calls == [(budgets[0], 3 * 3), (budgets[1], 3 * 3)] * 2
    np.testing.assert_array_equal(again, B)
    assert errors == errors_again == [None] * 18
    # Each row is the b of its config's release.
    _assert_rows_are_the_b_of((B, errors), _outcomes(path, cfgs()))


def test_a_calibration_failing_within_a_component_memoizes_none_of_it(monkeypatch):
    calibrate = pls_module.analytic_gaussian_sigmas
    calls = []

    def fails_at_the_fifth_sigma(delta_f, budget):
        calls.append(len(delta_f))
        # Component 1's y r, r and y calibrate, then component 2's y r;
        # its r, the sigma of its scores and x-loadings, fails.
        sigmas, _ = calibrate(delta_f[:4], budget)
        return sigmas, NumericalError("synthetic calibration failure")

    d = _random_dataset(45)
    path = nipals_path(d, 3)
    budget = PrivacyBudget(1.0, 0.01)
    cfg = lambda k, s: FitConfig(k=k, privacy=budget, rng=RngStream(s))
    want = release(nipals_path(d, 3), cfg(1, 0))
    monkeypatch.setattr(pls_module, "analytic_gaussian_sigmas", fails_at_the_fifth_sigma)
    cfgs = lambda: [cfg(1, 0), cfg(2, 1), cfg(3, 2), FitConfig(k=3)]
    jobs = _b_jobs(path, cfgs())
    B, errors = release_b(jobs)
    # One call for the budget, through component 3.  Component 2's
    # calibrated y r is stored nowhere: the jobs that release component
    # 2 fail and draw nothing, and the one that does not gets its b.
    assert calls == [3 * 3]
    for error in errors[1:3]:
        assert isinstance(error, NumericalError) and str(error) == "synthetic calibration failure"
    assert errors[0] is None and errors[3] is None
    np.testing.assert_array_equal(B[0], want.b)
    np.testing.assert_array_equal(B[3], release(path, FitConfig(k=3)).b)
    # Alone, the k=1 config gets its model, with component 1's four
    # calibrations, and the deeper ones fail the same way.
    single = cfgs()
    first, failed, deeper, clean = _outcomes(path, single)
    for error in (failed, deeper):
        assert isinstance(error, NumericalError) and str(error) == "synthetic calibration failure"
    _assert_models_identical(first, want)
    assert len(first.calibration_log) == 4
    assert clean.k == 3 and clean.calibration_log == []
    for c in [rng for *_, rng in jobs[1:3]] + [c.rng for c in single[1:3]]:
        np.testing.assert_array_equal(c.open_unit(4), RngStream(c.seed).open_unit(4))


def test_component_calibrations_calibrate_each_sensitivity_once(monkeypatch):
    calibrate = pls_module.analytic_gaussian_sigmas
    calls = []

    def counting(delta_f, budget):
        calls.append((list(delta_f), budget))
        if budget.epsilon == 2.0:
            # Fails at y = 3.0, after its component's y r and r.
            sigmas, _ = calibrate(delta_f[:list(delta_f).index(3.0)], budget)
            return sigmas, NumericalError("synthetic calibration failure")
        return calibrate(delta_f, budget)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigmas", counting)
    bounds = [SampleBounds(y_max_abs=3.0, max_row_norm=5.0),
              SampleBounds(y_max_abs=0.5, max_row_norm=4.0)]
    budget = PrivacyBudget(1.0, 0.01)
    table = pls_module._calibrate(bounds, budget)
    sens, sigmas, error = table
    want = [[15.0, 5.0, 5.0, 3.0], [2.0, 4.0, 4.0, 0.5]]
    assert error is None and sens.tolist() == want
    assert sigmas.tolist() == [[analytic_gaussian_sigma(s, budget) for s in row] for row in want]
    assert pls_module._calibration_log(table) == [
        NoiseCalibration(sensitivity=s, sigma=analytic_gaussian_sigma(s, budget), target=target)
        for row in want for target, s in zip(CALIBRATION_TARGETS, row)]
    # One call, each component's distinct sensitivities in target order.
    assert calls == [([15.0, 5.0, 3.0, 2.0, 4.0, 0.5], budget)]
    # Nothing is kept between calls: the next one makes the same call.
    again = pls_module._calibrate(bounds, budget)
    np.testing.assert_array_equal(again[1], sigmas)
    assert calls == [([15.0, 5.0, 3.0, 2.0, 4.0, 0.5], budget)] * 2
    # A budget whose y fails after its y r and r calibrated keeps no
    # component's sigmas, and leaves no state behind.
    failing = PrivacyBudget(2.0, 0.01)
    sens, sigmas, error = pls_module._calibrate(bounds, failing)
    assert isinstance(error, NumericalError) and sigmas.shape == (0, 4)
    assert sens.tolist() == want
    assert calls[2:] == [([15.0, 5.0, 3.0, 2.0, 4.0, 0.5], failing)]
    np.testing.assert_array_equal(pls_module._calibrate(bounds, budget)[1], table[1])


def _silence_all_but(monkeypatch, *noised):
    """Calibrate every target outside ``noised`` to sigma 0, at the seam
    that gives a path's calibration table: the scores and the x-loadings
    share one sigma calibration, so the hook cannot sit on
    analytic_gaussian_sigmas.  Returns ``noised``, for _reference_release."""
    calibrate = pls_module._calibrate
    silent = np.array([target not in noised for target in CALIBRATION_TARGETS])

    def partly_silent(bounds, budget):
        sens, sigmas, error = calibrate(bounds, budget)
        sigmas = sigmas.copy()
        sigmas[:, silent] = 0.0
        return sens, sigmas, error

    monkeypatch.setattr(pls_module, "_calibrate", partly_silent)
    return noised


def _reference_outcomes(path, cfgs, noised=CALIBRATION_TARGETS):
    """_reference_release per config, each error kept in place of its model."""
    return _outcomes(path, cfgs, lambda p, cfg: _reference_release(p, cfg, noised))


def _assert_outcomes_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, DpplsError):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            _assert_models_identical(g, w)


def _assert_rows_are_the_b_of(got, want):
    """release_b's (B, errors) against ``want``'s models and errors: each
    row its model's b bit for bit, or zero beside the same error."""
    B, errors = got
    assert B.shape[0] == len(errors) == len(want)
    for row, error, w in zip(B, errors, want):
        if isinstance(w, DpplsError):
            assert type(error) is type(w) and str(error) == str(w)
            np.testing.assert_array_equal(row, 0.0)
        else:
            assert error is None
            np.testing.assert_array_equal(row, w.b)


def _assert_both_equal_the_reference(path, cfgs, noised=CALIBRATION_TARGETS):
    """One release_b call over cfgs() gives the reference's b rows and
    errors, and release per config its models and errors, W, P, c and
    calibration log included; returns release's outcomes."""
    want = _reference_outcomes(path, cfgs(), noised)
    _assert_rows_are_the_b_of(release_b(_b_jobs(path, cfgs())), want)
    got = _outcomes(path, cfgs())
    _assert_outcomes_identical(got, want)
    return got


@pytest.mark.parametrize("silenced", [None, "scores"])
def test_release_b_equals_one_release_per_config(monkeypatch, silenced):
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

    noised = CALIBRATION_TARGETS
    if silenced is not None:
        _assert_score_noise_reaches_no_model(path, cfgs)
        noised = _silence_all_but(
            monkeypatch, *(t for t in CALIBRATION_TARGETS if t != silenced))
    got = _assert_both_equal_the_reference(path, cfgs, noised)
    assert [type(r).__name__ for r in got[3:5]] == ["ArgumentError", "ConfigurationError"]
    assert "path's 4 components" in str(got[3])
    assert (silenced is None) == all(cal.sigma > 0 for cal in got[0].calibration_log)


def _rank1_path():
    """Rank-1 data with the stop disabled: k >= 2 gives a loading system
    singular within tolerance unless noise on w, t or p lifts it."""
    rng = RngStream(10)
    s = rng.uniform(-1, 1, 12)
    c = rng.uniform(1, 2, 15)
    return _nipals_path_at(0.0, Dataset(X=np.outer(c, s), y=c.copy()), 3)


def test_release_b_keeps_a_failed_solve_to_its_own_job(monkeypatch):
    # Noising only the y-loadings leaves the rank-1 path's loading system
    # singular, so the private k=2 release draws its noise and then fails
    # its solve.
    noised = _silence_all_but(monkeypatch, "y_loading")
    path = _rank1_path()
    budget = PrivacyBudget(1.0, 0.01)

    def cfgs():
        private = lambda k, s: FitConfig(k=k, privacy=budget, rng=RngStream(8, s))
        return [private(1, 0), private(2, 1), private(1, 2),
                FitConfig(k=3), FitConfig(k=1)]

    got = _assert_both_equal_the_reference(path, cfgs, noised)
    assert [type(r).__name__ for r in got] == [
        "PlsModel", "SingularSystemError", "PlsModel", "SingularSystemError", "PlsModel"]


_PATHS = {
    "random": lambda: nipals_path(_random_dataset(44, n=12, m=9), 4),
    "score-stop": lambda: _nipals_path_at(1e-8, _score_stop_dataset(), 4),
    "rank-1": _rank1_path,
}
_BUDGETS = (None, PrivacyBudget(1.0, 0.01), PrivacyBudget(100.0, 1e-5))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_release_b_and_release_equal_the_per_config_reference(data):
    case = data.draw(st.sampled_from(sorted(_PATHS)), label="path")
    noised = data.draw(st.sets(st.sampled_from(CALIBRATION_TARGETS)), label="noised")
    k_max = {"random": 4, "score-stop": 4, "rank-1": 3}[case]
    # (k, budget, stream or None); k_max + 1 is deeper than the path allows.
    specs = data.draw(st.lists(st.tuples(
        st.integers(1, k_max + 1),
        st.sampled_from(range(len(_BUDGETS))),
        st.sampled_from([None, 0, 1, 2, 3]),
    ), max_size=8), label="configs")

    def cfgs():
        return [
            FitConfig(k=k, privacy=_BUDGETS[bi], rng=None if s is None else RngStream(s, i))
            for i, (k, bi, s) in enumerate(specs)
        ]

    # 7 splits a config's kept words across norm_ppf blocks.
    map_block = data.draw(st.sampled_from([pls_module._MAP_BLOCK, 7]), label="map block")

    with pytest.MonkeyPatch.context() as mp:
        _silence_all_but(mp, *noised)
        mp.setattr(pls_module, "_MAP_BLOCK", map_block)
        _assert_both_equal_the_reference(_PATHS[case](), cfgs, noised)


def _rank4_path():
    """Rank-4 data of 16 rows and 12 channels: up to 5 components asked
    for, the path stops after 4."""
    rng = RngStream(12)
    C = rng.uniform(0.0, 10.0, (16, 4))
    S = rng.uniform(-1.0, 1.0, (4, 12))
    return _nipals_path_at(1e-8, Dataset(X=C @ S, y=C[:, 0].copy()), 5)


def test_release_b_over_several_paths_equals_one_call_per_path(monkeypatch):
    calibrate = pls_module.analytic_gaussian_sigmas
    failing = PrivacyBudget(2.0, 0.01)
    calls = []

    def fails_on_one_budget(delta_f, budget):
        calls.append((budget, len(delta_f)))
        if budget == failing:
            return np.array([]), NumericalError("synthetic calibration failure")
        return calibrate(delta_f, budget)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigmas", fails_on_one_budget)
    short = nipals_path(_random_dataset(47, n=14, m=12), 5)
    tall = nipals_path(_random_dataset(48, n=19, m=12), 5)
    stopped, rank1 = _rank4_path(), _rank1_path()
    paths = (short, tall, stopped, rank1)
    assert [p.sizes[:2] for p in paths] == [(12, 14), (12, 19), (12, 16), (12, 15)]
    assert [len(p.bounds) for p in paths] == [5, 5, 4, 3]
    b1, b2 = PrivacyBudget(1.0, 0.01), PrivacyBudget(100.0, 1e-5)

    def jobs():
        def private(path, k, budget, s):
            return path, k, budget, RngStream(9, s)
        return [
            private(short, 4, b1, 0),
            (tall, 4, None, None),
            private(stopped, 5, b1, 1),  # releases 4, stacked with the k=4 jobs
            (rank1, 3, None, None),  # a singular solve
            private(tall, 4, b2, 2),
            (short, 2, None, None),
            private(short, 5, b1, 3),  # short again: extends its b1 calibrations
            private(tall, 3, failing, 4),  # a failed calibration
            private(stopped, 2, b2, 5),
            private(short, 3, b2, 6),  # stacked with the singular solve
            private(rank1, 1, b1, 7),
            (stopped, 5, None, None),
        ]

    B, errors = release_b(jobs())
    # One call per (path, budget), through the deepest component released
    # under it, three sigmas each: short's b1 calibrates 5 components
    # once.  The failing budget fails at its first sigma.
    assert calls == [(b1, 3 * 5), (b1, 3 * 4), (b2, 3 * 4), (failing, 3 * 3), (b2, 3 * 2),
                     (b2, 3 * 3), (b1, 3 * 1)]
    assert [type(e).__name__ for e in errors] == (
        ["NoneType"] * 3 + ["SingularSystemError"] + ["NoneType"] * 3 + ["NumericalError"]
        + ["NoneType"] * 4)
    all_jobs, want = jobs(), [None] * len(errors)
    for path in paths:
        index = [j for j, job in enumerate(all_jobs) if job[0] is path]
        B_path, errors_path = release_b([all_jobs[j] for j in index])
        for j, row, error in zip(index, B_path, errors_path):
            want[j] = row, error
    np.testing.assert_array_equal(B, [row for row, _ in want])
    assert [(type(e), str(e)) for e in errors] == [(type(e), str(e)) for _, e in want]
    # Against the reference, and release alone per config.
    cfgs = lambda: [(path, FitConfig(k=k, privacy=budget, rng=rng))
                    for path, k, budget, rng in jobs()]
    reference = [_reference_outcomes(path, [cfg])[0] for path, cfg in cfgs()]
    _assert_rows_are_the_b_of((B, errors), reference)
    got = [_outcomes(path, [cfg])[0] for path, cfg in cfgs()]
    _assert_outcomes_identical(got, reference)
    assert (got[2].k, got[2].early_stop, got[11].k, got[11].early_stop) == (4, True, 4, True)


def test_release_b_refuses_paths_of_differing_channel_counts(monkeypatch):
    calls = []
    monkeypatch.setattr(pls_module, "analytic_gaussian_sigmas",
                        lambda delta_f, budget: calls.append(budget))
    wide = nipals_path(_random_dataset(47, n=14, m=12), 5)
    narrow = nipals_path(_random_dataset(44, n=12, m=9), 4)
    single = nipals_path(_random_dataset(50, n=10, m=1), 1)
    budget = PrivacyBudget(1.0, 0.01)
    for other, count in ((single, 1), (narrow, 9)):
        streams = [RngStream(9, s) for s in range(2)]
        with pytest.raises(ShapeError, match=f"one channel count, got {count} and 12"):
            release_b([(wide, 2, budget, streams[0]), (other, 1, budget, streams[1])])
        # Refused before any calibration or draw.
        assert calls == []
        for s, stream in enumerate(streams):
            np.testing.assert_array_equal(stream.open_unit(4), RngStream(9, s).open_unit(4))


@pytest.mark.parametrize("k", [0, -1, 1.5, True])
def test_a_job_whose_k_is_not_a_positive_integer_fails_alone(k):
    path = nipals_path(_random_dataset(46), 3)
    budget = PrivacyBudget(1.0, 0.01)
    streams = [RngStream(13, s) for s in range(2)]
    B, errors = release_b([(path, k, budget, streams[0]), (path, 2, budget, streams[1])])
    assert type(errors[0]) is ArgumentError
    assert str(errors[0]) == f"k must be a positive integer, got {k}"
    np.testing.assert_array_equal(B[0], 0.0)
    assert errors[1] is None
    model = release(path, FitConfig(k=2, privacy=budget, rng=RngStream(13, 1)))
    np.testing.assert_array_equal(B[1], model.b)
    # The refused job draws nothing.
    np.testing.assert_array_equal(streams[0].open_unit(4), RngStream(13, 0).open_unit(4))


def test_release_b_equals_the_b_of_release():
    short = nipals_path(_random_dataset(47, n=14, m=12), 5)
    tall = nipals_path(_random_dataset(48, n=19, m=12), 5)
    stopped, rank1 = _rank4_path(), _rank1_path()
    empty = _nipals_path_at(1e12, _random_dataset(49, n=14, m=12), 2)
    assert len(empty.bounds) == 0
    b1, b2 = PrivacyBudget(1.0, 0.01), PrivacyBudget(100.0, 1e-5)

    def jobs():
        return [
            (short, 4, b1, RngStream(9, 0)),
            (tall, 4, None, None),
            (stopped, 5, b1, RngStream(9, 1)),  # releases 4
            (rank1, 3, None, RngStream(9, 2)),  # a singular solve
            (tall, 4, b2, RngStream(9, 3)),
            (short, 6, b1, RngStream(9, 4)),  # deeper than the path
            (tall, 2, b2, None),  # no stream
            (empty, 2, b1, RngStream(9, 5)),  # releases nothing, draws nothing
            (rank1, 1, b1, RngStream(9, 6)),
            (short, 5, b2, RngStream(9, 7)),
        ]

    via_b, via_release = jobs(), jobs()
    B, errors = release_b(via_b)
    models = [_outcomes(path, [FitConfig(k=k, privacy=budget, rng=stream)])[0]
              for path, k, budget, stream in via_release]
    assert B.shape == (10, 12)
    assert [type(e).__name__ for e in errors] == [
        "NoneType"] * 3 + ["SingularSystemError", "NoneType", "ArgumentError",
                           "ConfigurationError"] + ["NoneType"] * 3
    _assert_rows_are_the_b_of((B, errors), models)
    # Both take the same draws from each stream.
    for (*_, a), (*_, b) in zip(via_b, via_release):
        if a is not None:
            np.testing.assert_array_equal(a.open_unit(4), b.open_unit(4))
    B, errors = release_b([])
    assert B.shape == (0, 0) and errors == []


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
    model = release(_nipals_path_at(tol, d, 4),
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
    model = release(_nipals_path_at(1e-8, _score_stop_dataset(), 4),
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


@pytest.mark.parametrize("key, value, message", [
    ("k", -1, "k must be a nonnegative integer, got -1"),
    ("k", 2.5, "k must be a nonnegative integer, got 2.5"),
    ("b", [[1.0, 2.0]], "b has shape (1, 2), expected one value per channel"),
    ("b", [], "b has shape (0,), expected one value per channel"),
    ("rng_seed", 7.5, "rng_seed must be an integer or null"),
    ("rng_stream", "0", "rng_stream must be an integer or null"),
    ("early_stop", 0, "early_stop must be true or false"),
    ("sensitivity", math.nan, "calibration_log holds non-finite values"),
    ("sigma", math.inf, "calibration_log holds non-finite values"),
])
def test_load_model_refuses_mistyped_fields(tmp_path, key, value, message):
    model = fit(_random_dataset(24), FitConfig(k=2, privacy=PrivacyBudget(1.0, 0.01),
                                               rng=RngStream(4)))
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    (doc["calibration_log"][0] if key in ("sensitivity", "sigma") else doc)[key] = value
    # json writes NaN and Infinity, and reads them back as floats.
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as caught:
        load_model(tmp_path / "model.json")
    assert str(caught.value) == f"{tmp_path / 'model.json'}: malformed model: {message}"


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
    # Zero sensitivities with sigma 0 are consistent sigmas, but a released
    # component's residual suprema are positive.
    path = _resaved_log(tmp_path, model, sensitivity=lambda e: 0.0, sigma=lambda e: 0.0)
    with pytest.raises(ModelFormatError, match="component 1 has sensitivities"):
        load_model(path)

    def failing(delta_f, budget):
        raise NumericalError("synthetic calibration failure")

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", failing)
    with pytest.raises(ModelFormatError, match="recalibrated"):
        load_model(_resaved_log(tmp_path, model))
