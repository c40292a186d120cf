"""Metrics, data splitting, cross-validation, and privacy-utility sweeps.

Preprocessing inside every protocol is fitted on the training rows only
and replayed on held-out rows, so no statistic of the evaluation data
leaks into the transform.  All randomness (splits, shuffles, noise) comes
from the caller's RngStream; per-task substreams are derived with
documented indices, which makes every report reproducible from one master
seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, PrivacyBudget, RngStream
from .errors import ArgumentError, DegenerateInputError, DpplsError, ShapeError
from .pls import FitConfig, nipals_path, predict, release, release_many
from .preprocess import parse_pipeline


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    if y.size == 0:
        raise ArgumentError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def r2_score(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination, 1 - SSE/SST."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateInputError("r2 is undefined for a constant response")
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


def train_test_split(d: Dataset, test_fraction: float, rng: RngStream):
    """Random split into (train, test) datasets.

    The training side gets ceil(n * (1 - test_fraction)) samples of a
    seeded permutation, the test side the remainder.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ArgumentError(
            f"test_fraction must lie strictly inside (0, 1), got {test_fraction}"
        )
    n = d.n
    n_train = int(np.ceil(n * (1.0 - test_fraction)))
    n_test = n - n_train
    if n_train < 2 or n_test < 2:
        raise DegenerateInputError(
            f"split of {n} samples at fraction {test_fraction} leaves "
            f"{n_train} train / {n_test} test; need at least 2 on each side"
        )
    perm = rng.permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(X=d.X[tr], y=d.y[tr]),
        Dataset(X=d.X[te], y=d.y[te]),
    )


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "kind", "epsilon", "delta", "k", "preprocess",
    "fold", "repeat", "rmsecv", "rmsep", "r2p", "status",
)


def _entry(**fields) -> dict:
    """One report entry: every CSV column, None where ``fields`` is silent."""
    return {col: fields.get(col) for col in _CSV_COLUMNS}


def _aggregate(epsilon, rmseps: list, r2ps: list) -> dict:
    """Mean and standard error (None below 2 values) of RMSEP and R2."""
    agg = {"epsilon": epsilon, "repeats": len(rmseps)}
    for name, values in (("rmsep", rmseps), ("r2p", r2ps)):
        if values:
            agg[f"{name}_mean"] = float(np.mean(values))
            agg[f"{name}_se"] = (float(np.std(values, ddof=1) / np.sqrt(len(values)))
                                 if len(values) > 1 else None)
    return agg


@dataclass
class EvalReport:
    """Evaluation results: one entry per protocol unit plus aggregates."""

    entries: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    best: Optional[dict] = None
    metadata: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        doc = {
            "metadata": self.metadata,
            "entries": self.entries,
            "aggregates": self.aggregates,
            "best": self.best,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")

    def to_csv(self, path) -> None:
        """Tidy layout: one row per entry, fixed column set."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            for e in self.entries:
                writer.writerow([
                    "" if e.get(col) is None else
                    (repr(float(e[col])) if isinstance(e.get(col), float) else e[col])
                    for col in _CSV_COLUMNS
                ])


def _predict(model, X: np.ndarray) -> np.ndarray:
    """predict() for an entry of release_many, raising the error it holds."""
    if isinstance(model, DpplsError):
        raise model
    return predict(model, X)


# ---------------------------------------------------------------------------
# k-fold cross-validation
# ---------------------------------------------------------------------------

def kfold_cv(
    d: Dataset,
    folds: int,
    grid: Sequence[FitConfig],
    pipeline_spec: str = "",
    rng: Optional[RngStream] = None,
) -> EvalReport:
    """Cross-validate every configuration in ``grid``.

    Folds are contiguous blocks of one seeded permutation, shared by all
    grid points.  Each fold is preprocessed once and runs one clean NIPALS
    path, at the default residual tolerance, up to the largest grid k (at
    most min(n-1, m)); every grid point is a release of that path, with
    noise stream ``rng.derive(gi, fold)``.
    RMSECV pools the squared errors of all held-out samples.
    The best entry has the smallest RMSECV, ties resolved toward smaller
    k; a configuration whose fit fails on any fold is flagged and skipped
    in that ranking.
    """
    if rng is None:
        rng = RngStream(0)
    if not grid:
        raise ArgumentError("grid must contain at least one configuration")
    if not (2 <= folds <= d.n):
        raise ArgumentError(f"folds must lie in [2, n={d.n}], got {folds}")

    perm = rng.permutation(d.n)
    blocks = np.array_split(perm, folds)

    report = EvalReport(metadata={
        "protocol": "kfold_cv",
        "folds": folds,
        "preprocess": pipeline_spec,
        "seed": rng.seed,
        "stream": rng.stream_id,
    })

    k_top = max(cfg.k for cfg in grid)
    status = ["ok"] * len(grid)
    sq_errors = [[] for _ in grid]
    for fold_i in range(folds):
        test_idx = blocks[fold_i]
        train_idx = np.concatenate(
            [blocks[j] for j in range(folds) if j != fold_i]
        )
        try:
            pipe = parse_pipeline(pipeline_spec)
            train = Dataset(X=pipe.fit_transform(d.X[train_idx]), y=d.y[train_idx])
            X_test = pipe.transform(d.X[test_idx])
            path = nipals_path(train, min(k_top, train.n - 1, train.m))
        except DpplsError:
            status = ["failed"] * len(grid)
            break
        live = [gi for gi in range(len(grid)) if status[gi] == "ok"]
        models = release_many(
            path, [replace(grid[gi], rng=rng.derive(gi, fold_i)) for gi in live],
        )
        for gi, model in zip(live, models):
            try:
                pred = _predict(model, X_test)
            except DpplsError:
                status[gi] = "failed"
                continue
            sq_errors[gi].extend(((d.y[test_idx] - pred) ** 2).tolist())

    for cfg, st, errors in zip(grid, status, sq_errors):
        p = cfg.privacy
        report.entries.append(_entry(
            kind="cv", k=cfg.k, preprocess=pipeline_spec, status=st,
            epsilon=p.epsilon if p else None, delta=p.delta if p else None,
            rmsecv=float(np.sqrt(np.mean(errors))) if st == "ok" else None,
        ))

    usable = [e for e in report.entries if e["status"] == "ok"]
    if usable:
        report.best = min(usable, key=lambda e: (e["rmsecv"], e["k"]))
    return report


# ---------------------------------------------------------------------------
# privacy-utility sweep
# ---------------------------------------------------------------------------

def privacy_utility_sweep(
    train: Dataset,
    test: Dataset,
    eps_list: Sequence[float],
    k: int,
    pipeline_spec: str = "",
    repeats: int = 20,
    rng: Optional[RngStream] = None,
    delta: float = 0.01,
) -> EvalReport:
    """Measure held-out error across privacy levels.

    One clean NIPALS path of the training set serves every fit.  For each
    epsilon it is released ``repeats`` times with noise substreams
    ``rng.derive(ei, rep)``; RMSEP and R2 on the test set are recorded per
    repeat and aggregated as mean with standard error.  A no-noise
    baseline row is always included.  An empty ``eps_list`` yields the
    baseline only.
    """
    if rng is None:
        rng = RngStream(0)
    if repeats < 1:
        raise ArgumentError(f"repeats must be at least 1, got {repeats}")
    if not (0 < delta < 1):
        raise ArgumentError(f"delta must lie in (0, 1), got {delta}")
    for e in eps_list:
        if not np.isfinite(e) or e <= 0:
            raise ArgumentError(f"epsilon values must be positive, got {e}")
    if train.m != test.m:
        raise ShapeError(f"channel counts differ: {train.m} vs {test.m}")

    pipe = parse_pipeline(pipeline_spec)
    X_train = pipe.fit_transform(train.X)
    X_test = pipe.transform(test.X)
    train_ds = Dataset(X=X_train, y=train.y)

    report = EvalReport(metadata={
        "protocol": "privacy_utility_sweep",
        "k": k,
        "delta": delta,
        "repeats": repeats,
        "preprocess": pipeline_spec,
        "seed": rng.seed,
        "stream": rng.stream_id,
    })

    def entry(kind, eps, rep, pred_ok, rmsep=None, r2p=None):
        return _entry(
            kind=kind, epsilon=eps, delta=delta if eps is not None else None,
            k=k, preprocess=pipeline_spec, repeat=rep, rmsep=rmsep, r2p=r2p,
            status="ok" if pred_ok else "failed",
        )

    path = nipals_path(train_ds, k)
    baseline_model = release(path, FitConfig(k=k))
    baseline_pred = predict(baseline_model, X_test)
    base_r, base_q = rmse(test.y, baseline_pred), r2_score(test.y, baseline_pred)
    report.entries.append(entry("baseline", None, None, True, rmsep=base_r, r2p=base_q))
    report.aggregates.append(_aggregate(None, [base_r], [base_q]))

    for ei, eps in enumerate(eps_list):
        budget = PrivacyBudget(epsilon=float(eps), delta=delta)
        r_vals, q_vals = [], []
        models = release_many(path, [
            FitConfig(k=k, privacy=budget, rng=rng.derive(ei, rep))
            for rep in range(repeats)
        ])
        for rep, model in enumerate(models):
            try:
                pred = _predict(model, X_test)
                r, q = rmse(test.y, pred), r2_score(test.y, pred)
            except DpplsError:
                report.entries.append(entry("holdout", float(eps), rep, False))
                continue
            r_vals.append(r)
            q_vals.append(q)
            report.entries.append(entry(
                "holdout", float(eps), rep, True, rmsep=r, r2p=q,
            ))
        report.aggregates.append(_aggregate(float(eps), r_vals, q_vals))
    return report
