"""Metrics, splitting, cross-validation, and the privacy-utility sweep."""

import json
from dataclasses import replace

import numpy as np
import pytest

from dppls.core import Dataset, PrivacyBudget, RngStream
from dppls.errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    DpplsError,
    ShapeError,
)
from dppls.evaluate import (
    EvalReport,
    kfold_cv,
    privacy_utility_sweep,
    r2_score,
    rmse,
    train_test_split,
)
from dppls.pls import FitConfig, fit, predict
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
    report = kfold_cv(_rank1_dataset(), 4, [FitConfig(k=1)], rng=RngStream(8))
    assert report.best["k"] == 1
    assert report.best["rmsecv"] < 1e-8
    assert report.entries[0]["status"] == "ok"
    assert report.entries[0]["kind"] == "cv"


def test_cv_prefers_sufficient_rank():
    d = _rank3_dataset()
    grid = [FitConfig(k=1), FitConfig(k=3)]
    report = kfold_cv(d, 5, grid, rng=RngStream(9))
    assert report.best["k"] == 3
    assert report.entries[1]["rmsecv"] < report.entries[0]["rmsecv"]
    assert report.entries[1]["rmsecv"] < 1e-8


def test_cv_tie_breaks_toward_smaller_k():
    # On rank-1 data the k=2 fit stops early and predicts identically to
    # k=1, so the RMSECV values tie exactly and the smaller k must win.
    d = _rank1_dataset()
    report = kfold_cv(d, 3, [FitConfig(k=2), FitConfig(k=1)], rng=RngStream(10))
    assert report.entries[0]["rmsecv"] == report.entries[1]["rmsecv"]
    assert report.best["k"] == 1


def test_cv_flags_failures_and_keeps_going():
    d = _rank3_dataset(n=20, m=3)
    # k=5 exceeds the 3 channels on every fold; k=2 is fine.
    report = kfold_cv(d, 4, [FitConfig(k=5), FitConfig(k=2)], rng=RngStream(11))
    assert [e["status"] for e in report.entries] == ["failed", "ok"]
    assert report.entries[0]["rmsecv"] is None
    assert report.best["k"] == 2


def test_cv_leave_one_out_runs():
    d = _rank1_dataset(n=10)
    report = kfold_cv(d, 10, [FitConfig(k=1)], rng=RngStream(12))
    assert report.best["rmsecv"] < 1e-8


def test_cv_private_grid_points_get_derived_streams():
    d = _rank3_dataset()
    budget = PrivacyBudget(epsilon=100.0, delta=0.01)
    grid = [FitConfig(k=3, privacy=budget)]
    a = kfold_cv(d, 4, grid, rng=RngStream(13))
    b = kfold_cv(d, 4, grid, rng=RngStream(13))
    assert a.entries == b.entries
    assert a.entries[0]["epsilon"] == 100.0
    assert a.entries[0]["delta"] == 0.01
    c = kfold_cv(d, 4, grid, rng=RngStream(14))
    assert c.entries[0]["rmsecv"] != a.entries[0]["rmsecv"]


def test_cv_records_pipeline_spec():
    d = _rank3_dataset()
    report = kfold_cv(d, 4, [FitConfig(k=3)], pipeline_spec="sg:5,2,0|center",
                      rng=RngStream(15))
    assert report.metadata["preprocess"] == "sg:5,2,0|center"
    assert report.entries[0]["preprocess"] == "sg:5,2,0|center"
    assert report.entries[0]["status"] == "ok"


def test_cv_refuses_a_bad_pipeline_spec():
    d = _rank3_dataset(n=20)
    with pytest.raises(ConfigurationError, match="unknown"):
        kfold_cv(d, 4, [FitConfig(k=1)], pipeline_spec="bogus", rng=RngStream(0))
    with pytest.raises(ArgumentError, match="window"):
        kfold_cv(d, 4, [FitConfig(k=1)], pipeline_spec="sg:4,2,1|center", rng=RngStream(0))


def test_cv_validation():
    d = _rank3_dataset(n=20)
    with pytest.raises(ArgumentError, match="grid"):
        kfold_cv(d, 4, [], rng=RngStream(0))
    with pytest.raises(ArgumentError, match="folds"):
        kfold_cv(d, 1, [FitConfig(k=1)], rng=RngStream(0))
    with pytest.raises(ArgumentError, match="folds"):
        kfold_cv(d, 21, [FitConfig(k=1)], rng=RngStream(0))


# ---------------------------------------------------------------------------
# privacy-utility sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_grid_is_baseline_only():
    d = _rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(16))
    report = privacy_utility_sweep(train, test, [], k=3, rng=RngStream(17))
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
    train, test = train_test_split(d, 0.3, RngStream(18))
    report = privacy_utility_sweep(
        train, test, [1.0, 10.0], k=3, repeats=3, rng=RngStream(19))
    assert len(report.entries) == 1 + 2 * 3
    assert len(report.aggregates) == 3
    holdouts = [e for e in report.entries if e["kind"] == "holdout"]
    assert [e["repeat"] for e in holdouts] == [0, 1, 2, 0, 1, 2]
    assert {e["epsilon"] for e in holdouts} == {1.0, 10.0}
    assert all(e["delta"] == 0.01 for e in holdouts)
    assert report.metadata["protocol"] == "privacy_utility_sweep"


def test_sweep_aggregates_match_entry_recomputation():
    d = _rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(20))
    report = privacy_utility_sweep(
        train, test, [5.0], k=3, repeats=4, rng=RngStream(21))
    vals = [e["rmsep"] for e in report.entries
            if e["kind"] == "holdout" and e["status"] == "ok"]
    agg = report.aggregates[1]
    assert agg["rmsep_mean"] == float(np.mean(vals))
    assert agg["rmsep_se"] == float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    assert agg["repeats"] == 4


def test_sweep_huge_epsilon_tracks_baseline():
    d = _rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(22))
    report = privacy_utility_sweep(
        train, test, [1e9], k=3, repeats=2, rng=RngStream(23))
    scale = float(np.std(test.y))
    for e in report.entries:
        if e["kind"] == "holdout":
            assert e["rmsep"] < 0.05 * scale
            assert e["r2p"] > 0.99


def test_sweep_deterministic_reports(tmp_path):
    d = _rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(24))
    paths = []
    for tag in ("a", "b"):
        report = privacy_utility_sweep(
            train, test, [1.0], k=3, repeats=3, rng=RngStream(25))
        jp = tmp_path / f"{tag}.json"
        cp = tmp_path / f"{tag}.csv"
        report.to_json(jp)
        report.to_csv(cp)
        paths.append((jp, cp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_sweep_supports_stateful_pipelines():
    d = _rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(26))
    report = privacy_utility_sweep(
        train, test, [100.0], k=3, pipeline_spec="center",
        repeats=2, rng=RngStream(27))
    assert all(e["status"] == "ok" for e in report.entries)
    assert report.metadata["preprocess"] == "center"


def test_sweep_validation():
    d = _rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(28))
    with pytest.raises(ArgumentError, match="repeats"):
        privacy_utility_sweep(train, test, [1.0], k=3, repeats=0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ArgumentError, match="positive"):
            privacy_utility_sweep(train, test, [bad], k=3)
    # delta is checked even when no epsilon uses it.
    for bad in (0.0, 1.0, 5.0, float("nan")):
        with pytest.raises(ArgumentError, match="delta"):
            privacy_utility_sweep(train, test, [], k=3, delta=bad)
    with pytest.raises(ShapeError):
        narrow = Dataset(X=test.X[:, :-1], y=test.y)
        privacy_utility_sweep(train, narrow, [], k=3)


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
    got = kfold_cv(d, 5, grid, pipeline_spec=spec, rng=RngStream(31))
    want = _reference_kfold(d, 5, grid, spec, RngStream(31))
    assert [e["status"] for e in got.entries].count("failed") == 3  # k=13 > m
    assert _report_bytes(got, tmp_path, "got") == _report_bytes(want, tmp_path, "want")

    # Exactly rank-deficient data: under a linear pipeline every fold's
    # path stops early at the default tolerance, short of the grid's k.
    # airPLS is not linear, so it need not keep the rank at 3.
    exact = _rank3_dataset(n=40, m=12, seed=30)
    grid = [FitConfig(k=5), FitConfig(k=5, privacy=PrivacyBudget(10.0, 0.01))]
    got = kfold_cv(exact, 4, grid, pipeline_spec=spec, rng=RngStream(35))
    early_stops = []
    want = _reference_kfold(exact, 4, grid, spec, RngStream(35), early_stops)
    if "airpls" not in spec:
        assert [e["status"] for e in got.entries] == ["ok", "ok"]
        assert early_stops == [True] * 8
    assert _report_bytes(got, tmp_path, "exact") == _report_bytes(want, tmp_path, "exact_want")


def test_cv_report_equals_reference_when_every_fold_fails(tmp_path):
    d = _noisy_rank3_dataset()
    d.X[7] = 0.0  # no slope against any reference: scatter correction fails
    grid = [FitConfig(k=1), FitConfig(k=2, privacy=PrivacyBudget(1.0, 0.01))]
    got = kfold_cv(d, 4, grid, pipeline_spec="msc", rng=RngStream(32))
    want = _reference_kfold(d, 4, grid, "msc", RngStream(32))
    assert [e["status"] for e in got.entries] == ["failed", "failed"]
    assert _report_bytes(got, tmp_path, "got") == _report_bytes(want, tmp_path, "want")

    # The row steps refuse the whole data set before any fold is taken.
    d.X[7] = np.nan
    got = kfold_cv(d, 4, grid, pipeline_spec="sg:5,2,1|center", rng=RngStream(32))
    want = _reference_kfold(d, 4, grid, "sg:5,2,1|center", RngStream(32))
    assert [e["status"] for e in got.entries] == ["failed", "failed"]
    assert _report_bytes(got, tmp_path, "rows") == _report_bytes(want, tmp_path, "rows_want")


@pytest.mark.parametrize("spec", ["", "sg:5,2,1|msc|center"] + _HOISTED_SPECS)
def test_sweep_report_equals_one_fit_per_repeat(tmp_path, spec):
    d = _noisy_rank3_dataset()
    train, test = train_test_split(d, 0.3, RngStream(33))
    args = ([100.0, 10.0, 1.0], 3, spec, 4, RngStream(34), 0.01)
    got = privacy_utility_sweep(train, test, *args)
    want = _reference_sweep(train, test, *args)
    assert _report_bytes(got, tmp_path, "got") == _report_bytes(want, tmp_path, "want")


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
