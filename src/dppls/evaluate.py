"""Metrics, data splitting, cross-validation, and privacy-utility sweeps.

Preprocessing inside every protocol is fitted on the training rows only
and replayed on held-out rows, so no statistic of the evaluation data
leaks into the transform.  The pipeline's row steps (its leading steps
that learn nothing, see :meth:`Pipeline.split`) run once over all of a
protocol's rows before the splits are taken, or, with ``rows_mapped``,
not at all, because the caller mapped the rows already: the ``sweep``
command maps its input once and hands the same rows to both protocols.
That leaks nothing either: each of their output rows depends on its own
input row alone, so the rows equal those of a per-split run bit for bit.
All randomness (splits, shuffles, noise) comes from the caller's
RngStream; per-task substreams are derived with documented indices,
which makes every report reproducible from one master seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, PrivacyBudget, RngStream, save_json
from .errors import ArgumentError, DegenerateInputError, DpplsError, ShapeError
from .pls import FitConfig, nipals_path, predict, release_many
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
        save_json(path, {
            "metadata": self.metadata,
            "entries": self.entries,
            "aggregates": self.aggregates,
            "best": self.best,
        })

    def to_csv(self, path) -> None:
        """Tidy layout: one row per entry, fixed column set."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            # csv writes None as "" and a float, numpy's float64 included, as repr.
            writer.writerows([e.get(col) for col in _CSV_COLUMNS] for e in self.entries)


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
    *,
    rows_mapped: bool = False,
) -> EvalReport:
    """Cross-validate every configuration in ``grid``.

    Folds are contiguous blocks of one seeded permutation, shared by all
    grid points.  The pipeline's row steps run once over all of ``d.X``;
    each fold slices those rows, fits the remaining steps on its training
    rows and replays them on its held-out rows, and runs one clean NIPALS
    path up to the largest grid k (at most min(n-1, m)); every grid point
    is a release of that path, with noise stream ``rng.derive(gi, fold)``.
    RMSECV pools the squared errors of all held-out samples.
    The best entry has the smallest RMSECV, ties resolved toward smaller
    k; a configuration whose fit fails on any fold is flagged and skipped
    in that ranking.  A bad ``pipeline_spec``, rows or responses holding
    NaN or infinite entries, and rows the row steps refuse raise.
    With ``rows_mapped`` the rows of ``d.X`` have been through the row
    steps already, and only the fitted steps run.
    """
    if rng is None:
        rng = RngStream(0)
    if not grid:
        raise ArgumentError("grid must contain at least one configuration")
    if not (2 <= folds <= d.n):
        raise ArgumentError(f"folds must lie in [2, n={d.n}], got {folds}")
    if not np.all(np.isfinite(d.X)) or not np.all(np.isfinite(d.y)):
        raise DegenerateInputError("dataset contains NaN or infinite entries")
    row_steps, fitted = parse_pipeline(pipeline_spec).split()
    X = d.X if rows_mapped else row_steps.transform(d.X)

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
            train = Dataset(X=fitted.fit_transform(X[train_idx]), y=d.y[train_idx])
            X_test = fitted.transform(X[test_idx])
            path = nipals_path(train, min(k_top, train.n - 1, train.m))
        except DpplsError:
            status = ["failed"] * len(grid)
            break
        models = release_many(
            path, [replace(cfg, rng=rng.derive(gi, fold_i)) for gi, cfg in enumerate(grid)],
        )
        for gi, model in enumerate(models):
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
    *,
    rows_mapped: bool = False,
) -> EvalReport:
    """Measure held-out error across privacy levels.

    The pipeline's row steps run once over the training and test rows
    together; the remaining steps are fitted on the training rows and
    replayed on the test rows.  With ``rows_mapped`` the rows of both
    sets have been through the row steps already, and only the fitted
    steps run.
    One clean NIPALS path of the training set serves every fit, released
    in one :func:`release_many` call: once without noise for the baseline
    row, which is always included, then ``repeats`` times per epsilon with
    noise substreams ``rng.derive(ei, rep)``.  RMSEP and R2 on the test
    set are recorded per repeat and aggregated as mean with standard
    error.  An empty ``eps_list`` yields the baseline only.
    """
    if rng is None:
        rng = RngStream(0)
    if repeats < 1:
        raise ArgumentError(f"repeats must be at least 1, got {repeats}")
    if not (0 < delta < 1):
        raise ArgumentError(f"delta must lie in (0, 1), got {delta}")
    budgets = [PrivacyBudget(epsilon=float(eps), delta=delta) for eps in eps_list]
    cfgs = [FitConfig(k=k)] + [
        FitConfig(k=k, privacy=budget, rng=rng.derive(ei, rep))
        for ei, budget in enumerate(budgets) for rep in range(repeats)
    ]
    if train.m != test.m:
        raise ShapeError(f"channel counts differ: {train.m} vs {test.m}")

    row_steps, fitted = parse_pipeline(pipeline_spec).split()
    if rows_mapped:
        train_X, test_X = train.X, test.X
    else:
        rows = row_steps.transform(np.vstack([train.X, test.X]))
        train_X, test_X = rows[:train.n], rows[train.n:]
    train_ds = Dataset(X=fitted.fit_transform(train_X), y=train.y)
    X_test = fitted.transform(test_X)

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

    baseline, *noisy = release_many(nipals_path(train_ds, k), cfgs)
    baseline_pred = _predict(baseline, X_test)
    base_r, base_q = rmse(test.y, baseline_pred), r2_score(test.y, baseline_pred)
    report.entries.append(entry("baseline", None, None, True, rmsep=base_r, r2p=base_q))
    report.aggregates.append(_aggregate(None, [base_r], [base_q]))

    for ei, budget in enumerate(budgets):
        eps = budget.epsilon
        r_vals, q_vals = [], []
        for rep, model in enumerate(noisy[ei * repeats:(ei + 1) * repeats]):
            try:
                pred = _predict(model, X_test)
                r, q = rmse(test.y, pred), r2_score(test.y, pred)
            except DpplsError:
                report.entries.append(entry("holdout", eps, rep, False))
                continue
            r_vals.append(r)
            q_vals.append(q)
            report.entries.append(entry("holdout", eps, rep, True, rmsep=r, r2p=q))
        report.aggregates.append(_aggregate(eps, r_vals, q_vals))
    return report
