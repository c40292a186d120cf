"""Metrics, splitting, cross-validation, and the privacy-utility sweep."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dppls import evaluate
from dppls.core import Dataset, NoiseCalibration, PlsModel, PrivacyBudget, RngStream
from dppls.errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    DpplsError,
    NumericalError,
    ShapeError,
    SingularSystemError,
)
from dppls.evaluate import EvalReport, r2_score, rmse, sweep, train_test_split
from dppls.pls import FitConfig, fit, nipals_path, predict, release, release_b
from dppls.preprocess import parse_pipeline


def _rank3_dataset(n=60, m=25, seed=0):
    rng = RngStream(seed)
    C = rng.uniform(0.0, 10.0, (n, 3))
    S = rng.uniform(-1.0, 1.0, (3, m))
    return Dataset(X=C @ S, y=C[:, 0].copy())


def _rank1_dataset(n=24, m=12, seed=1):
    rng = RngStream(seed)
    c = rng.uniform(1.0, 3.0, n)
    s = rng.uniform(-1.0, 1.0, m)
    return Dataset(X=np.outer(c, s), y=c.copy())


def _cv(d, folds, grid, rng, spec=""):
    """The driver's CV report, CV alone."""
    return sweep(d, rng, pipeline_spec=spec, grid=grid, folds=folds)["cv_report"]


def _holdout(d, eps_list, k, rng, **kwargs):
    """The driver's holdout report, the holdout sweep alone."""
    return sweep(d, rng, k=k, eps_list=eps_list, **kwargs)["holdout_report"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_rmse_hand_cases():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, -3.0]) == pytest.approx(3.0, abs=1e-15)


def test_rmse_matches_formula():
    rng = RngStream(2)
    y = rng.uniform(-5, 5, 40)
    y_hat = rng.uniform(-5, 5, 40)
    expected = np.sqrt(np.mean((y - y_hat) ** 2))
    assert rmse(y, y_hat) == pytest.approx(expected, rel=1e-12)


def test_rmse_accepts_column_vectors():
    y = np.array([[1.0], [2.0]])
    assert rmse(y, np.array([1.0, 2.0])) == 0.0


def test_rmse_validation():
    with pytest.raises(ShapeError):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ArgumentError):
        rmse([], [])


def test_r2_reference_points():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r2_score(y, y) == pytest.approx(1.0, abs=1e-15)
    # Predicting the mean everywhere explains none of the variance.
    assert r2_score(y, np.full(4, y.mean())) == pytest.approx(0.0, abs=1e-15)


def test_r2_matches_formula():
    rng = RngStream(3)
    y = rng.uniform(-2, 2, 30)
    y_hat = y + 0.3 * rng.uniform(-1, 1, 30)
    sse = np.sum((y - y_hat) ** 2)
    sst = np.sum((y - y.mean()) ** 2)
    assert r2_score(y, y_hat) == pytest.approx(1.0 - sse / sst, rel=1e-12)


def test_r2_validation():
    with pytest.raises(DegenerateInputError):
        r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        r2_score([1.0, 2.0], [1.0])
    # SST 1.3e-309 is subnormal; 2^-1021 is not.
    with pytest.raises(DegenerateInputError, match="subnormal"):
        r2_score([0.0, 5.188149624689684e-155], [0.0, 1.0])
    assert r2_score([0.0, 2.0 ** -510], [0.0, 2.0 ** -510]) == 1.0


# ---------------------------------------------------------------------------
# train/test split
# ---------------------------------------------------------------------------

def test_split_sizes_follow_ceil_rule():
    d = _rank3_dataset(n=80)
    train, test = train_test_split(d, 0.3, RngStream(4))
    assert (train.n, test.n) == (56, 24)
    # ceil(7 * 0.5) keeps the extra sample on the training side.
    d7 = _rank3_dataset(n=7)
    train7, test7 = train_test_split(d7, 0.5, RngStream(4))
    assert (train7.n, test7.n) == (4, 3)


def test_split_is_a_partition():
    d = _rank3_dataset(n=30)
    train, test = train_test_split(d, 0.25, RngStream(5))
    recovered = np.vstack([train.X, test.X])
    assert recovered.shape == d.X.shape
    # Every original row appears exactly once across the two sides.
    order = np.lexsort(recovered.T)
    base = np.lexsort(d.X.T)
    np.testing.assert_array_equal(recovered[order], d.X[base])
    ys = np.sort(np.concatenate([train.y, test.y]))
    np.testing.assert_array_equal(ys, np.sort(d.y))


def test_split_determinism():
    d = _rank3_dataset(n=40)
    a = train_test_split(d, 0.3, RngStream(6))
    b = train_test_split(d, 0.3, RngStream(6))
    np.testing.assert_array_equal(a[0].X, b[0].X)
    np.testing.assert_array_equal(a[1].y, b[1].y)
    c = train_test_split(d, 0.3, RngStream(7))
    assert not np.array_equal(a[0].X, c[0].X)


def test_split_validation():
    d = _rank3_dataset(n=20)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ArgumentError):
            train_test_split(d, bad, RngStream(0))
    # 5 samples at 0.2 leave a single test row.
    with pytest.raises(DegenerateInputError):
        train_test_split(_rank3_dataset(n=5), 0.2, RngStream(0))


# ---------------------------------------------------------------------------
# k-fold cross-validation
# ---------------------------------------------------------------------------

def test_cv_noiseless_rank1_has_zero_error():
    report = _cv(_rank1_dataset(), 4, [FitConfig(k=1)], RngStream(8))
    assert report.best["k"] == 1
    assert report.best["rmsecv"] < 1e-8
    assert report.entries[0]["status"] == "ok"
    assert report.entries[0]["kind"] == "cv"


def test_cv_prefers_sufficient_rank():
    d = _rank3_dataset()
    grid = [FitConfig(k=1), FitConfig(k=3)]
    report = _cv(d, 5, grid, RngStream(9))
    assert report.best["k"] == 3
    assert report.entries[1]["rmsecv"] < report.entries[0]["rmsecv"]
    assert report.entries[1]["rmsecv"] < 1e-8


def test_cv_tie_breaks_toward_smaller_k():
    # On rank-1 data the k=2 fit stops early and predicts identically to
    # k=1, so the RMSECV values tie exactly and the smaller k must win.
    d = _rank1_dataset()
    report = _cv(d, 3, [FitConfig(k=2), FitConfig(k=1)], RngStream(10))
    assert report.entries[0]["rmsecv"] == report.entries[1]["rmsecv"]
    assert report.best["k"] == 1


def test_cv_flags_failures_and_keeps_going():
    d = _rank3_dataset(n=20, m=3)
    # k=5 exceeds the 3 channels on every fold; k=2 is fine.
    report = _cv(d, 4, [FitConfig(k=5), FitConfig(k=2)], RngStream(11))
    assert [e["status"] for e in report.entries] == ["failed", "ok"]
    assert report.entries[0]["rmsecv"] is None
    assert report.best["k"] == 2


def test_cv_leave_one_out_runs():
    d = _rank1_dataset(n=10)
    report = _cv(d, 10, [FitConfig(k=1)], RngStream(12))
    assert report.best["rmsecv"] < 1e-8


def test_cv_private_grid_points_get_derived_streams():
    d = _rank3_dataset()
    budget = PrivacyBudget(epsilon=100.0, delta=0.01)
    grid = [FitConfig(k=3, privacy=budget)]
    a = _cv(d, 4, grid, RngStream(13))
    b = _cv(d, 4, grid, RngStream(13))
    assert a.entries == b.entries
    assert a.entries[0]["epsilon"] == 100.0
    assert a.entries[0]["delta"] == 0.01
    c = _cv(d, 4, grid, RngStream(14))
    assert c.entries[0]["rmsecv"] != a.entries[0]["rmsecv"]


def test_cv_records_pipeline_spec():
    d = _rank3_dataset()
    report = _cv(d, 4, [FitConfig(k=3)], RngStream(15), "sg:5,2,0|center")
    assert report.metadata["preprocess"] == "sg:5,2,0|center"
    assert report.entries[0]["preprocess"] == "sg:5,2,0|center"
    assert report.entries[0]["status"] == "ok"


def test_cv_refuses_a_bad_pipeline_spec():
    d = _rank3_dataset(n=20)
    with pytest.raises(ConfigurationError, match="unknown"):
        _cv(d, 4, [FitConfig(k=1)], RngStream(0), "bogus")
    with pytest.raises(ArgumentError, match="window"):
        _cv(d, 4, [FitConfig(k=1)], RngStream(0), "sg:4,2,1|center")


def test_cv_validation():
    d = _rank3_dataset(n=20)
    with pytest.raises(ArgumentError, match="folds"):
        _cv(d, 1, [FitConfig(k=1)], RngStream(0))
    with pytest.raises(ArgumentError, match="folds"):
        _cv(d, 21, [FitConfig(k=1)], RngStream(0))
    # No grid and no k: neither protocol runs, so folds goes unchecked.
    assert sweep(d, RngStream(0), folds=1) == {}


# ---------------------------------------------------------------------------
# privacy-utility sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_grid_is_baseline_only():
    d = _rank3_dataset()
    report = _holdout(d, [], 3, RngStream(17))
    assert len(report.entries) == 1
    assert len(report.aggregates) == 1
    entry = report.entries[0]
    assert entry["kind"] == "baseline"
    assert entry["epsilon"] is None
    assert entry["rmsep"] < 1e-8
    agg = report.aggregates[0]
    assert agg["repeats"] == 1 and agg["rmsep_se"] is None


def test_sweep_entry_and_aggregate_layout():
    d = _rank3_dataset()
    report = _holdout(d, [1.0, 10.0], 3, RngStream(19), repeats=3)
    assert len(report.entries) == 1 + 2 * 3
    assert len(report.aggregates) == 3
    holdouts = [e for e in report.entries if e["kind"] == "holdout"]
    assert [e["repeat"] for e in holdouts] == [0, 1, 2, 0, 1, 2]
    assert {e["epsilon"] for e in holdouts} == {1.0, 10.0}
    assert all(e["delta"] == 0.01 for e in holdouts)
    assert report.metadata["protocol"] == "privacy_utility_sweep"


def test_sweep_aggregates_match_entry_recomputation():
    d = _rank3_dataset()
    report = _holdout(d, [5.0], 3, RngStream(21), repeats=4)
    vals = [e["rmsep"] for e in report.entries
            if e["kind"] == "holdout" and e["status"] == "ok"]
    agg = report.aggregates[1]
    assert agg["rmsep_mean"] == float(np.mean(vals))
    assert agg["rmsep_se"] == float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    assert agg["repeats"] == 4


def test_a_failed_holdout_repeat_is_recorded_and_left_out_of_its_aggregate(monkeypatch):
    d = _rank3_dataset()
    def one_fails(jobs):
        B, errors = release_b(jobs)
        errors[2] = SingularSystemError("synthetic singular system")  # eps 5, repeat 1
        return B, errors

    monkeypatch.setattr(evaluate, "release_b", one_fails)
    report = _holdout(d, [5.0], 3, RngStream(21), repeats=4)
    failed = report.entries[2]
    assert (failed["kind"], failed["repeat"], failed["status"]) == ("holdout", 1, "failed")
    assert failed["rmsep"] is None and failed["r2p"] is None
    ok = [e for e in report.entries[1:] if e["status"] == "ok"]
    assert [e["repeat"] for e in ok] == [0, 2, 3]
    agg = report.aggregates[1]
    assert agg["repeats"] == 3
    assert agg["rmsep_mean"] == float(np.mean([e["rmsep"] for e in ok]))


def test_sweep_huge_epsilon_tracks_baseline():
    d = _rank3_dataset()
    report = _holdout(d, [1e9], 3, RngStream(23), repeats=2)
    _, test = train_test_split(d, 0.3, RngStream(23).derive(evaluate._STREAM_SPLIT))
    scale = float(np.std(test.y))
    for e in report.entries:
        if e["kind"] == "holdout":
            assert e["rmsep"] < 0.05 * scale
            assert e["r2p"] > 0.99


def test_sweep_deterministic_reports(tmp_path):
    d = _rank3_dataset()
    paths = []
    for tag in ("a", "b"):
        report = _holdout(d, [1.0], 3, RngStream(25), repeats=3)
        jp = tmp_path / f"{tag}.json"
        cp = tmp_path / f"{tag}.csv"
        report.to_json(jp)
        report.to_csv(cp)
        paths.append((jp, cp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_sweep_releases_in_one_call(monkeypatch):
    d = _rank3_dataset()
    calls = []

    def counted(jobs):
        calls.append([budget for _, _, budget, _ in jobs])
        assert len({id(path) for path, *_ in jobs}) == 1
        assert {k for _, k, _, _ in jobs} == {3}
        return release_b(jobs)

    monkeypatch.setattr(evaluate, "release_b", counted)
    report = _holdout(d, [10.0, 10.0, 1.0], 3, RngStream(25), repeats=4)
    # The baseline first, then each epsilon's repeats, in order.
    assert len(calls) == 1
    assert calls[0] == [None] + [PrivacyBudget(eps, 0.01)
                                 for eps in (10.0, 10.0, 1.0) for _ in range(4)]
    assert [e["epsilon"] for e in report.entries] == [None] + [10.0] * 8 + [1.0] * 4
    # Equal budgets at different positions draw from different streams.
    assert report.aggregates[1]["rmsep_mean"] != report.aggregates[2]["rmsep_mean"]


def test_cv_releases_in_one_call(monkeypatch):
    d = _rank3_dataset(n=23)
    calls = []

    def counted(jobs):
        calls.append(jobs)
        return release_b(jobs)

    monkeypatch.setattr(evaluate, "release_b", counted)
    budget = PrivacyBudget(10.0, 0.01)
    grid = [FitConfig(k=1), FitConfig(k=3, privacy=budget), FitConfig(k=2, privacy=budget)]
    rng = RngStream(26)
    report = _cv(d, 4, grid, rng)
    # Folds x grid jobs, fold-major: each fold's path, then its grid in order.
    assert len(calls) == 1 and len(calls[0]) == 4 * len(grid)
    paths = [path for path, *_ in calls[0][::len(grid)]]
    assert len({id(path) for path in paths}) == 4
    # 23 rows in 4 folds: training splits of 17 and 18 rows.
    assert sorted({path.sizes[1] for path in paths}) == [17, 18]
    cv = rng.derive(evaluate._STREAM_CV)
    for j, (path, k, budget, stream) in enumerate(calls[0]):
        fold_i, gi = divmod(j, len(grid))
        assert path is paths[fold_i]
        assert (k, budget) == (grid[gi].k, grid[gi].privacy)
        want = cv.derive(gi, fold_i)
        assert stream is None if budget is None else (
            (stream.seed, stream.stream_id) == (want.seed, want.stream_id))
    assert [e["status"] for e in report.entries] == ["ok"] * 3


def _fresh(stream):
    """A stream at the start of ``stream``'s draws, or None."""
    return None if stream is None else RngStream(stream.seed, stream.stream_id)


def _models_of(jobs):
    """What release gives each of release_b's jobs, one at a time on a
    fresh stream: its model, or the DpplsError it raised."""
    out = []
    for path, k, budget, stream in jobs:
        try:
            out.append(release(path, FitConfig(k=k, privacy=budget, rng=_fresh(stream))))
        except DpplsError as exc:
            out.append(exc)
    return out


def test_scorer_equals_predict_bit_for_bit():
    d = _noisy_rank3_dataset()
    path = nipals_path(Dataset(X=d.X[:30], y=d.y[:30]), 4)
    budget = PrivacyBudget(1.0, 0.01)
    jobs = [(path, k, None, None) for k in (1, 4)] + [
        (path, k, budget, RngStream(3, k)) for k in (1, 2, 4)]
    models = _models_of(jobs)
    B, released = release_b(jobs)
    assert released == [None] * 5
    failed = ShapeError("synthetic")
    with_failed = np.insert(B, 2, 7.0, axis=0), released[:2] + [failed] + released[2:]
    # The whole stack, a failed entry among the models, a stack of one
    # model, and one held-out row, whose 1 x m products are dot products.
    for X_test, (B_s, errors_s), stack in (
            (d.X[30:], (B, released), models),
            (d.X[30:], with_failed, models[:2] + [failed] + models[2:]),
            (d.X[30:], (B[3:4], released[3:4]), models[3:4]),
            (d.X[30:31], (B, released), models),
            (d.X[39:], (B[:1], released[:1]), [models[0]])):
        pred, errors = evaluate._predictions(path, X_test, B_s, errors_s)
        assert pred.shape == (len(stack), X_test.shape[0])
        for row, model, error in zip(pred, stack, errors):
            if model is failed:
                assert error is failed
                continue
            assert error is None
            np.testing.assert_array_equal(row, predict(model, X_test))
    # Non-finite rows give every entry predict's error, a failed entry its own.
    X_bad = d.X[30:].copy()
    X_bad[2, 3] = np.nan
    with pytest.raises(DegenerateInputError) as want:
        predict(models[0], X_bad)
    pred, errors = evaluate._predictions(path, X_bad, B[:3], [None, failed, None])
    assert pred is None and errors[1] is failed
    assert [type(e) for e in errors[::2]] == [DegenerateInputError] * 2
    assert all(str(e) == str(want.value) for e in errors[::2])
    # Every entry failed.
    pred, errors = evaluate._predictions(path, d.X[30:], B[:2], [failed, failed])
    assert errors == [failed, failed]


def _constructions(monkeypatch):
    """Counts of PlsModel and NoiseCalibration objects built from here on."""
    counts = dict.fromkeys((PlsModel, NoiseCalibration), 0)
    for cls, init in [(cls, cls.__init__) for cls in counts]:
        def counting(self, *args, _cls=cls, _init=init, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_only_callers_that_receive_a_model_build_one(monkeypatch):
    counts = _constructions(monkeypatch)
    d = _rank3_dataset()
    budgets = [PrivacyBudget(10.0, 0.01), PrivacyBudget(1.0, 0.01)]
    grid = [FitConfig(k=k, privacy=b) for k in (1, 2, 3) for b in [None] + budgets]
    reports = sweep(d, RngStream(29), grid=grid, folds=4, k=3, eps_list=[10.0, 1.0],
                    repeats=3)
    assert all(e["status"] == "ok" for r in reports.values() for e in r.entries)
    assert counts == {PlsModel: 0, NoiseCalibration: 0}
    # A private fit builds its one model, which logs four calibrations a
    # component.
    model = fit(d, FitConfig(k=3, privacy=budgets[1], rng=RngStream(29)))
    assert counts == {PlsModel: 1, NoiseCalibration: 12}
    assert len(model.calibration_log) == 12


@st.composite
def _response_and_predictions(draw):
    t = draw(st.integers(1, 40), label="rows")
    R = draw(st.integers(0, 6), label="models")
    values = st.floats(-1e3, 1e3, allow_nan=False)
    y = np.array(draw(st.lists(values, min_size=t, max_size=t), label="y"))
    pred = np.array(draw(st.lists(st.lists(values, min_size=t, max_size=t),
                                  min_size=R, max_size=R), label="pred")).reshape(R, t)
    return y, pred


@settings(max_examples=60, deadline=None)
@given(case=_response_and_predictions())
# A subnormal total sum of squares, where 1 / SST overflows.
@example(case=(np.array([0.0, 5.188149624689684e-155]), np.array([[0.0, 1.0]])))
# A normal SST that SSE / SST still overflows: -inf in both.
@example(case=(np.array([0.0, 3e-153]), np.array([[0.0, 50.0]])))
def test_rmsep_r2p_equal_rmse_and_r2_score_per_row(case):
    y, pred = case
    try:
        r2_score(y, y)
    except DegenerateInputError as exc:  # zero or subnormal total sum of squares
        with pytest.raises(DegenerateInputError, match=re.escape(str(exc))):
            evaluate._rmsep_r2p(y, pred)
        return
    rmseps, r2ps = evaluate._rmsep_r2p(y, pred)
    assert rmseps == [rmse(y, row) for row in pred]
    assert r2ps == [r2_score(y, row) for row in pred]


def _failing_release(positions, outcomes):
    """release_b with the entries at ``positions`` replaced by errors;
    appends to ``outcomes`` each call's outcomes as models: those
    release gives the same jobs on fresh streams, with the same errors
    in place."""
    def failing(jobs):
        models = _models_of(jobs)
        B, errors = release_b(jobs)
        for i in positions:
            if i < len(errors):
                errors[i] = models[i] = SingularSystemError(f"synthetic failure {i}")
        outcomes.append(models)
        return B, errors
    return failing


_SCORED_GRID = [FitConfig(k=1), FitConfig(k=2, privacy=PrivacyBudget(10.0, 0.01)),
                FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01)), FitConfig(k=3)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_scores_equal_the_per_model_metrics(data):
    # The protocols score each split's models as one stack; the reference
    # calls predict per model and reduces as the metrics do: RMSECV over
    # the list each grid point's fold errors extend, in fold order.
    d = _noisy_rank3_dataset()
    fitted = parse_pipeline("").split()[1]
    folds = data.draw(st.sampled_from([2, 3, 7, d.n]), label="folds")
    G = len(_SCORED_GRID)
    failing = set(data.draw(st.lists(st.integers(0, folds * G - 1), max_size=6), label="cv"))
    if data.draw(st.booleans(), label="a fold fails whole"):
        fold = data.draw(st.integers(0, folds - 1), label="failing fold")
        failing |= set(range(fold * G, (fold + 1) * G))
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "release_b", _failing_release(failing, outcomes))
        report = evaluate._kfold_cv(d, folds, _SCORED_GRID, "", fitted, RngStream(31, 2))
    (models,) = outcomes
    errors, status = [[] for _ in _SCORED_GRID], ["ok"] * G
    for fold_i, rows in enumerate(np.array_split(RngStream(31, 2).permutation(d.n), folds)):
        for gi, model in enumerate(models[fold_i * G:(fold_i + 1) * G]):
            if isinstance(model, DpplsError):
                status[gi] = "failed"
                continue
            errors[gi].extend(((d.y[rows] - predict(model, d.X[rows])) ** 2).tolist())
    assert [e["status"] for e in report.entries] == status
    assert [e["rmsecv"] for e in report.entries] == [
        float(np.sqrt(np.mean(e))) if st_ == "ok" else None for e, st_ in zip(errors, status)]

    train, test = Dataset(X=d.X[:28], y=d.y[:28]), Dataset(X=d.X[28:], y=d.y[28:])
    repeats, budgets = 3, [PrivacyBudget(100.0, 0.01), PrivacyBudget(1.0, 0.01)]
    failing = set(data.draw(st.lists(st.integers(0, 6), max_size=7), label="holdout"))
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "release_b", _failing_release(failing, outcomes))
        if 0 in failing:  # a failed baseline is the sweep's error
            with pytest.raises(SingularSystemError, match="synthetic failure 0"):
                evaluate._privacy_utility_sweep(train, test, FitConfig(k=3), budgets, repeats,
                                                0.01, "", fitted, RngStream(31, 3))
            return
        report = evaluate._privacy_utility_sweep(train, test, FitConfig(k=3), budgets, repeats,
                                                 0.01, "", fitted, RngStream(31, 3))
    (models,) = outcomes
    want = []
    for model in models:
        if isinstance(model, DpplsError):
            want.append(("failed", None, None))
            continue
        pred = predict(model, test.X)
        want.append(("ok", rmse(test.y, pred), r2_score(test.y, pred)))
    assert [(e["status"], e["rmsep"], e["r2p"]) for e in report.entries] == want


def test_sweep_supports_stateful_pipelines():
    d = _rank3_dataset()
    report = _holdout(d, [100.0], 3, RngStream(27), pipeline_spec="center", repeats=2)
    assert all(e["status"] == "ok" for e in report.entries)
    assert report.metadata["preprocess"] == "center"


def test_sweep_validation():
    d = _rank3_dataset()
    rng = RngStream(28)
    with pytest.raises(ArgumentError, match="repeats"):
        _holdout(d, [1.0], 3, rng, repeats=0)
    # Counts that are bools or not integers are refused before any row is
    # mapped: these rows would raise once mapped.
    bad_rows = Dataset(X=np.where(d.X > 0, d.X, np.nan), y=d.y)
    for bad in (2.5, True):
        with pytest.raises(ArgumentError, match=f"^repeats must be an integer, got {bad}$"):
            _holdout(bad_rows, [1.0], 3, rng, repeats=bad)
        with pytest.raises(ArgumentError, match=f"^folds must be an integer, got {bad}$"):
            _cv(bad_rows, bad, [FitConfig(k=2)], rng)
    for bad in (0.0, -1.0):
        with pytest.raises(ArgumentError, match="positive"):
            _holdout(d, [bad], 3, rng)
    # float() would read True as 1 and "5" as 5.
    for bad in (True, "5"):
        with pytest.raises(ArgumentError, match=f"^epsilon must be a number, got {bad!r}$"):
            _holdout(bad_rows, [1.0, bad], 3, rng)
    with pytest.raises(ArgumentError, match="^delta must be a number, got '0.1'$"):
        _holdout(bad_rows, [1.0], 3, rng, delta="0.1")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match=f"epsilon must be finite, got {bad}"):
            _holdout(d, [bad], 3, rng)
    # delta is checked even when no epsilon uses it.
    for bad in (0.0, 1.0, 5.0, float("nan")):
        with pytest.raises(ArgumentError, match="delta"):
            _holdout(d, [], 3, rng, delta=bad)
    with pytest.raises(ArgumentError, match="positive integer"):
        _holdout(d, [], 0, rng)
    # 60 rows at 0.3 leave 42 to train on, and there are 25 channels.
    with pytest.raises(ArgumentError, match=r"k=26 exceeds min\(n-1, m\)=25"):
        _holdout(d, [], 26, rng)
    with pytest.raises(DegenerateInputError, match="split of 60 samples"):
        _holdout(d, [], 3, rng, test_fraction=0.99)
    # A budget no calibration can serve is refused, not failed per entry.
    with pytest.raises(NumericalError, match="epsilon 1e-310, delta 0.01"):
        _holdout(d, [1.0, 1e-310], 3, rng)
    with pytest.raises(NumericalError, match="epsilon 1e-310, delta 0.01"):
        _cv(d, 4, [FitConfig(k=2, privacy=PrivacyBudget(1e-310, 0.01))], rng)


# ---------------------------------------------------------------------------
# shared paths against one fit per protocol unit
# ---------------------------------------------------------------------------

def _report_bytes(report, tmp_path, tag):
    report.to_json(tmp_path / f"{tag}.json")
    report.to_csv(tmp_path / f"{tag}.csv")
    return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("json", "csv")]


def _reference_kfold(d, folds, grid, spec, rng, early_stops=None):
    """k-fold CV that preprocesses and fits afresh for every (grid point,
    fold), grid points outermost; each model's early_stop flag is appended
    to ``early_stops`` when given."""
    blocks = np.array_split(rng.permutation(d.n), folds)
    report = EvalReport(metadata={
        "protocol": "kfold_cv", "folds": folds, "preprocess": spec,
        "seed": rng.seed, "stream": rng.stream_id,
    })
    for gi, cfg in enumerate(grid):
        sq_errors, status = [], "ok"
        for fold_i in range(folds):
            test_idx = blocks[fold_i]
            train_idx = np.concatenate([blocks[j] for j in range(folds) if j != fold_i])
            try:
                pipe = parse_pipeline(spec).fit(d.X[train_idx])
                model = fit(Dataset(X=pipe.transform(d.X[train_idx]), y=d.y[train_idx]),
                            replace(cfg, rng=rng.derive(gi, fold_i)))
                pred = predict(model, pipe.transform(d.X[test_idx]))
                if early_stops is not None:
                    early_stops.append(model.early_stop)
            except DpplsError:
                status = "failed"
                break
            sq_errors.extend(((d.y[test_idx] - pred) ** 2).tolist())
        report.entries.append({
            "kind": "cv",
            "epsilon": cfg.privacy.epsilon if cfg.privacy else None,
            "delta": cfg.privacy.delta if cfg.privacy else None,
            "k": cfg.k, "preprocess": spec, "fold": None, "repeat": None,
            "rmsecv": float(np.sqrt(np.mean(sq_errors))) if status == "ok" else None,
            "rmsep": None, "r2p": None, "status": status,
        })
    usable = [e for e in report.entries if e["status"] == "ok"]
    if usable:
        report.best = min(usable, key=lambda e: (e["rmsecv"], e["k"]))
    return report


def _reference_sweep(train, test, eps_list, k, spec, repeats, rng, delta):
    """Holdout sweep with one fit per (epsilon, repeat)."""
    pipe = parse_pipeline(spec).fit(train.X)
    train_ds = Dataset(X=pipe.transform(train.X), y=train.y)
    X_test = pipe.transform(test.X)
    report = EvalReport(metadata={
        "protocol": "privacy_utility_sweep", "k": k, "delta": delta,
        "repeats": repeats, "preprocess": spec, "seed": rng.seed,
        "stream": rng.stream_id,
    })

    def entry(kind, eps, rep, rmsep=None, r2p=None, status="ok"):
        return {
            "kind": kind, "epsilon": eps,
            "delta": delta if eps is not None else None, "k": k,
            "preprocess": spec, "fold": None, "repeat": rep, "rmsecv": None,
            "rmsep": rmsep, "r2p": r2p, "status": status,
        }

    def se(vals):
        return float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else None

    pred = predict(fit(train_ds, FitConfig(k=k)), X_test)
    r, q = rmse(test.y, pred), r2_score(test.y, pred)
    report.entries.append(entry("baseline", None, None, r, q))
    report.aggregates.append({"epsilon": None, "rmsep_mean": r, "rmsep_se": None,
                              "r2p_mean": q, "r2p_se": None, "repeats": 1})
    for ei, eps in enumerate(eps_list):
        r_vals, q_vals = [], []
        for rep in range(repeats):
            try:
                model = fit(train_ds, FitConfig(
                    k=k, privacy=PrivacyBudget(float(eps), delta), rng=rng.derive(ei, rep)))
                pred = predict(model, X_test)
                r, q = rmse(test.y, pred), r2_score(test.y, pred)
            except DpplsError:
                report.entries.append(entry("holdout", float(eps), rep, status="failed"))
                continue
            r_vals.append(r)
            q_vals.append(q)
            report.entries.append(entry("holdout", float(eps), rep, r, q))
        agg = {"epsilon": float(eps), "repeats": len(r_vals)}
        if r_vals:
            agg.update(rmsep_mean=float(np.mean(r_vals)), rmsep_se=se(r_vals),
                       r2p_mean=float(np.mean(q_vals)), r2p_se=se(q_vals))
        report.aggregates.append(agg)
    return report


def _noisy_rank3_dataset(n=40, m=12, seed=30):
    d = _rank3_dataset(n=n, m=m, seed=seed)
    rng = RngStream(seed + 1)
    return Dataset(X=d.X + 0.05 * rng.uniform(-1, 1, d.X.shape),
                   y=d.y + 0.1 * rng.uniform(-1, 1, n))


# Pipelines with row steps, which run once per protocol.
_HOISTED_SPECS = ["airpls|center", "airpls:1e3,15,1|sg:5,2,1|msc|center", "sg:5,2,1|airpls",
                  "airpls:1e3,15,2|center"]


@pytest.mark.parametrize("spec", ["", "sg:5,2,1|center", "msc|center"] + _HOISTED_SPECS)
def test_cv_report_equals_one_fit_per_grid_point_and_fold(tmp_path, spec):
    d = _noisy_rank3_dataset()
    grid = []
    for k in (1, 2, 3, 4, 13):
        grid.append(FitConfig(k=k))
        for eps in (100.0, 1.0):
            grid.append(FitConfig(k=k, privacy=PrivacyBudget(eps, 0.01)))
    got = _cv(d, 5, grid, RngStream(31), spec)
    want = _reference_kfold(d, 5, grid, spec, RngStream(31).derive(evaluate._STREAM_CV))
    assert [e["status"] for e in got.entries].count("failed") == 3  # k=13 > m
    assert _report_bytes(got, tmp_path, "got") == _report_bytes(want, tmp_path, "want")

    # Exactly rank-deficient data: under a linear pipeline every fold's
    # path stops early at the default tolerance, short of the grid's k.
    # airPLS is not linear, so it need not keep the rank at 3.
    exact = _rank3_dataset(n=40, m=12, seed=30)
    grid = [FitConfig(k=5), FitConfig(k=5, privacy=PrivacyBudget(10.0, 0.01))]
    got = _cv(exact, 4, grid, RngStream(35), spec)
    early_stops = []
    want = _reference_kfold(exact, 4, grid, spec, RngStream(35).derive(evaluate._STREAM_CV),
                            early_stops)
    if "airpls" not in spec:
        assert [e["status"] for e in got.entries] == ["ok", "ok"]
        assert early_stops == [True] * 8
    assert _report_bytes(got, tmp_path, "exact") == _report_bytes(want, tmp_path, "exact_want")


def test_cv_report_equals_reference_when_every_fold_fails(tmp_path):
    d = _noisy_rank3_dataset()
    d.X[7] = 0.0  # no slope against any reference: scatter correction fails
    grid = [FitConfig(k=1), FitConfig(k=2, privacy=PrivacyBudget(1.0, 0.01))]
    got = _cv(d, 4, grid, RngStream(32), "msc")
    want = _reference_kfold(d, 4, grid, "msc", RngStream(32).derive(evaluate._STREAM_CV))
    assert [e["status"] for e in got.entries] == ["failed", "failed"]
    assert _report_bytes(got, tmp_path, "got") == _report_bytes(want, tmp_path, "want")

    # Data no fold could use is refused before any fold is taken: a NaN
    # with or without row steps, and rows the row steps refuse.
    with pytest.raises(ShapeError, match="window needs 13"):
        _cv(d, 4, grid, RngStream(32), "sg:13,2,1|center")
    d.X[7] = np.nan
    for spec in ("", "sg:5,2,1|center"):
        with pytest.raises(DegenerateInputError, match="NaN or infinite"):
            _cv(d, 4, grid, RngStream(32), spec)


@pytest.mark.parametrize("spec", ["", "sg:5,2,1|msc|center"] + _HOISTED_SPECS)
def test_sweep_report_equals_one_fit_per_repeat(tmp_path, spec):
    d = _noisy_rank3_dataset()
    rng = RngStream(34)
    got = _holdout(d, [100.0, 10.0, 1.0], 3, rng, pipeline_spec=spec, repeats=4)
    train, test = train_test_split(d, 0.3, rng.derive(evaluate._STREAM_SPLIT))
    want = _reference_sweep(train, test, [100.0, 10.0, 1.0], 3, spec, 4,
                            rng.derive(evaluate._STREAM_HOLDOUT), 0.01)
    assert _report_bytes(got, tmp_path, "got") == _report_bytes(want, tmp_path, "want")


def test_both_protocols_in_one_sweep_equal_each_run_alone(tmp_path):
    # Each protocol draws from its own substream and refits the fitted
    # steps on its own splits, so running the other changes none of its bytes.
    d = _noisy_rank3_dataset()
    spec = "sg:5,2,1|msc|center"
    grid = [FitConfig(k=2), FitConfig(k=3, privacy=PrivacyBudget(10.0, 0.01))]
    both = sweep(d, RngStream(36), pipeline_spec=spec, grid=grid, folds=4,
                 k=3, eps_list=[10.0], repeats=2)
    alone = {
        "cv_report": _cv(d, 4, grid, RngStream(36), spec),
        "holdout_report": _holdout(d, [10.0], 3, RngStream(36), pipeline_spec=spec,
                                   repeats=2),
    }
    assert list(both) == list(alone)
    for name in both:
        assert (_report_bytes(both[name], tmp_path, f"both-{name}")
                == _report_bytes(alone[name], tmp_path, f"alone-{name}"))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_json_round_trip(tmp_path):
    report = EvalReport(
        entries=[{"kind": "cv", "rmsecv": 1.5, "status": "ok"}],
        aggregates=[{"epsilon": 1.0, "rmsep_mean": 2.0}],
        best={"k": 2},
        metadata={"protocol": "kfold_cv"},
    )
    path = tmp_path / "report.json"
    report.to_json(path)
    raw = path.read_text()
    assert raw.endswith("\n")
    doc = json.loads(raw)
    assert doc["entries"] == report.entries
    assert doc["aggregates"] == report.aggregates
    assert doc["best"] == {"k": 2}
    assert doc["metadata"] == {"protocol": "kfold_cv"}


def test_report_csv_layout(tmp_path):
    entry = {
        "kind": "holdout", "epsilon": 1.0, "delta": 0.01, "k": 3,
        "preprocess": "", "fold": None, "repeat": 2,
        "rmsecv": None, "rmsep": 1.0 / 3.0, "r2p": 0.5, "status": "ok",
    }
    report = EvalReport(entries=[entry])
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("kind,epsilon,delta,k,preprocess,fold,repeat,"
                        "rmsecv,rmsep,r2p,status")
    fields = lines[1].split(",")
    assert fields[0] == "holdout"
    assert fields[5] == "" and fields[7] == ""
    # repr round-trips the float exactly.
    assert float(fields[8]) == 1.0 / 3.0
    assert fields[10] == "ok"


def test_report_csv_writes_numpy_scalars_as_python_numbers(tmp_path):
    plain = {
        "kind": "holdout", "epsilon": 0.1, "delta": 0.25, "k": 3,
        "preprocess": "", "fold": None, "repeat": 2,
        "rmsecv": None, "rmsep": 1.0 / 3.0, "r2p": float("inf"), "status": "ok",
    }
    scalars = dict(plain, epsilon=np.float64(0.1), delta=np.float32(0.25), k=np.int64(3),
                   repeat=np.int64(2), rmsep=np.float64(1.0 / 3.0), r2p=np.float64(np.inf))
    for tag, entry in (("plain", plain), ("numpy", scalars)):
        EvalReport(entries=[entry]).to_csv(tmp_path / f"{tag}.csv")
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "plain.csv").read_text().splitlines()[1] == (
        "holdout,0.1,0.25,3,,,2,,0.3333333333333333,inf,ok")
