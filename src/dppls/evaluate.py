"""Metrics, data splitting, and the sweep: cross-validation and a
privacy-utility holdout sweep over one dataset.

:func:`sweep` is the one entry to both protocols.  It checks every
argument before it maps a row, then runs the pipeline's row steps (its
leading steps that learn nothing, see :meth:`Pipeline.split`) once over
all of the dataset's rows; both protocols take their splits from those
rows and fit the remaining steps on each training split only, replaying
them on its held-out rows.  That leaks nothing: each row step's output
row depends on its own input row alone, so the rows equal those of a
per-split run bit for bit.  Each protocol releases all its configs in
one :func:`release_b` call, which returns their regression vectors as
one array and builds no model, and scores each split's vectors as one
stack (:func:`_predictions`), with the bits a per-model predict() gives.
All randomness (splits, shuffles, noise) comes from substreams of the
caller's RngStream with fixed indices, which makes every report
reproducible from one master seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, PrivacyBudget, RngStream, check_integer, check_number, save_json
from .errors import ArgumentError, DegenerateInputError, DpplsError, ShapeError
from .mechanism import analytic_gaussian_sigma
from .pls import FitConfig, NipalsPath, nipals_path, release_b
from .preprocess import Pipeline, parse_pipeline


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
    """Coefficient of determination, 1 - SSE/SST, in Python floats: an
    SSE/SST beyond the float range gives -inf, with no warning."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    sst = _total_sum_of_squares(y)
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


def _total_sum_of_squares(y: np.ndarray) -> float:
    """SST, the sum of squared deviations of y from its mean; r2 is refused
    when it is zero (a constant response) or subnormal, where it has lost
    its relative precision and even an SSE of 1 overflows SSE/SST."""
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateInputError("r2 is undefined for a constant response")
    if sst < np.finfo(float).tiny:
        raise DegenerateInputError(
            f"r2 is undefined for a response whose total sum of squares {sst!r} is subnormal"
        )
    return sst


def _train_size(n: int, test_fraction: float) -> int:
    """Training rows of a split of ``n`` rows: ceil(n * (1 - test_fraction)),
    refused unless both sides get at least 2."""
    if not (0.0 < test_fraction < 1.0):
        raise ArgumentError(
            f"test_fraction must lie strictly inside (0, 1), got {test_fraction}"
        )
    n_train = int(np.ceil(n * (1.0 - test_fraction)))
    n_test = n - n_train
    if n_train < 2 or n_test < 2:
        raise DegenerateInputError(
            f"split of {n} samples at fraction {test_fraction} leaves "
            f"{n_train} train / {n_test} test; need at least 2 on each side"
        )
    return n_train


def train_test_split(d: Dataset, test_fraction: float, rng: RngStream):
    """Random split into (train, test) datasets.

    The training side gets ceil(n * (1 - test_fraction)) samples of a
    seeded permutation, the test side the remainder.
    """
    n_train = _train_size(d.n, test_fraction)
    perm = rng.permutation(d.n)
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


def _predictions(path: NipalsPath, X: np.ndarray, B: np.ndarray, errors: list) -> tuple:
    """predict() for the rows of release_b on ``path``, as one stack.

    Returns an array whose row r is ``predict(model, X)`` bit for bit for
    the model whose b is ``B[r]``, and per row None or the error predict()
    would raise: ``errors[r]``, else predict's error when ``X`` holds NaN
    or infinite entries (the array is then None).  A failed row's
    prediction holds no meaning.  Every release of a path shares its
    means, so ``X`` is checked and centred once, and the b vectors take
    one ``np.matmul``: each of its slices is the matrix-vector product
    that predict's ``Xc @ b`` makes.
    """
    if not np.all(np.isfinite(X)):
        error = DegenerateInputError("X_new contains NaN or infinite entries")
        return None, [e or error for e in errors]
    pred = np.matmul(X - path.x_means, B[:, :, None])[:, :, 0]
    pred += path.y_mean
    return pred, errors


def _rmsep_r2p(y: np.ndarray, pred: np.ndarray) -> tuple:
    """``rmse(y, row)`` and ``r2_score(y, row)`` for each row of ``pred``,
    bit for bit, as two lists: the same reductions, one per row, with the
    total sum of squares taken once and divided by in Python floats, as
    r2_score divides.  A ``y`` whose total sum of squares r2_score refuses
    raises its error."""
    sst = _total_sum_of_squares(y)
    sse = np.sum((y - pred) ** 2, axis=1)
    return np.sqrt(sse / y.size).tolist(), [1.0 - s / sst for s in sse.tolist()]


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

# Substreams of the caller's stream, one per task, so no two share one.
_STREAM_SPLIT = 1
_STREAM_CV = 2
_STREAM_HOLDOUT = 3


def sweep(
    d: Dataset,
    rng: RngStream,
    *,
    pipeline_spec: str = "",
    grid: Sequence[FitConfig] = (),
    folds: int = 10,
    k: Optional[int] = None,
    eps_list: Sequence[float] = (),
    delta: float = 0.01,
    repeats: int = 20,
    test_fraction: float = 0.3,
) -> dict:
    """Cross-validate ``grid`` and sweep the held-out error over ``eps_list``.

    Returns ``{"cv_report": ..., "holdout_report": ...}``, holding the
    report of each protocol that ran: CV when ``grid`` is non-empty, the
    holdout sweep at ``k`` components when ``k`` is given.  Before any
    row is mapped it refuses a bad ``pipeline_spec``; for CV, ``folds``
    not an integer in [2, n]; for the holdout sweep, ``repeats`` not an
    integer of at least 1, ``delta`` not a number in (0, 1), an epsilon
    that is not a positive finite number (a bool is none), a
    split at ``test_fraction`` leaving fewer than 2 rows on a side, and a
    ``k`` beyond the training split; a budget of either protocol that no
    calibration can serve; and responses holding NaN or infinite
    entries.  The row steps then map ``d.X`` once; rows they refuse, or
    that hold NaN or infinite entries once mapped, raise.  The holdout
    split is taken on ``rng.derive(1)``, CV runs on ``rng.derive(2)`` and
    the holdout sweep on ``rng.derive(3)``.
    """
    row_steps, fitted = parse_pipeline(pipeline_spec).split()
    if grid:
        check_integer("folds", folds)
        if not (2 <= folds <= d.n):
            raise ArgumentError(f"folds must lie in [2, n={d.n}], got {folds}")
    budgets = []
    if k is not None:
        check_integer("repeats", repeats)
        if repeats < 1:
            raise ArgumentError(f"repeats must be at least 1, got {repeats}")
        check_number("delta", delta)
        if not (0 < delta < 1):
            raise ArgumentError(f"delta must lie in (0, 1), got {delta}")
        for eps in eps_list:
            check_number("epsilon", eps)
        budgets = [PrivacyBudget(epsilon=float(eps), delta=delta) for eps in eps_list]
        base = FitConfig(k=k)
        # Every step keeps the channel count, so this is the path's own limit.
        k_limit = min(_train_size(d.n, test_fraction) - 1, d.m)
        if base.k > k_limit:
            raise ArgumentError(f"k={base.k} exceeds min(n-1, m)={k_limit} for this dataset")
    for budget in {cfg.privacy for cfg in grid if cfg.privacy is not None}.union(budgets):
        analytic_gaussian_sigma(1.0, budget)
    if not np.all(np.isfinite(d.y)):
        raise DegenerateInputError("dataset contains NaN or infinite entries")
    d = Dataset(X=row_steps.transform(d.X), y=d.y)
    if not np.all(np.isfinite(d.X)):
        raise DegenerateInputError("dataset contains NaN or infinite entries")

    reports = {}
    if grid:
        reports["cv_report"] = _kfold_cv(
            d, folds, grid, pipeline_spec, fitted, rng.derive(_STREAM_CV))
    if k is not None:
        train, test = train_test_split(d, test_fraction, rng.derive(_STREAM_SPLIT))
        reports["holdout_report"] = _privacy_utility_sweep(
            train, test, base, budgets, repeats, delta, pipeline_spec, fitted,
            rng.derive(_STREAM_HOLDOUT))
    return reports


def _kfold_cv(d: Dataset, folds: int, grid: Sequence[FitConfig], pipeline_spec: str,
              fitted: Pipeline, rng: RngStream) -> EvalReport:
    """Cross-validate every configuration in ``grid`` on rows the row
    steps have mapped.

    Folds are contiguous blocks of one seeded permutation, shared by all
    grid points.  Each fold fits the ``fitted`` steps on its training
    rows and replays them on its held-out rows, and runs one clean NIPALS
    path up to the largest grid k (at most min(n-1, m)); every grid point
    is a release of that path.  Every fold's path and held-out rows are
    built first, and then all folds x grid points are released in one
    :func:`release_b` call, fold-major; a fold that fails to build
    fails every grid point, and nothing is released.  A private grid
    point gi draws its noise from ``rng.derive(gi, fold)``; a clean one
    draws nothing, and no stream is derived for it.  Each fold's b
    vectors predict its held-out rows as one stack (:func:`_predictions`), which
    are checked and centred once.  RMSECV pools the squared errors of
    all held-out samples: each grid point's rows of every fold, in fold
    order.
    The best entry has the smallest RMSECV, ties resolved toward smaller
    k; a configuration whose fit fails on any fold is flagged and skipped
    in that ranking.
    """
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
    splits = []  # (path, held-out rows, held-out responses) per fold
    for fold_i in range(folds):
        test_idx = blocks[fold_i]
        train_idx = np.concatenate(
            [blocks[j] for j in range(folds) if j != fold_i]
        )
        try:
            train = Dataset(X=fitted.fit_transform(d.X[train_idx]), y=d.y[train_idx])
            X_test = fitted.transform(d.X[test_idx])
            path = nipals_path(train, min(k_top, train.n - 1, train.m))
        except DpplsError:
            status = ["failed"] * len(grid)
            splits = []
            break
        splits.append((path, X_test, d.y[test_idx]))

    B, released = release_b([
        (path, cfg.k, cfg.privacy, None if cfg.privacy is None else rng.derive(gi, fold_i))
        for fold_i, (path, _, _) in enumerate(splits)
        for gi, cfg in enumerate(grid)
    ])
    fold_errors = []  # per fold, one row of squared errors per grid point
    for fold_i, (path, X_test, y_test) in enumerate(splits):
        rows = slice(fold_i * len(grid), (fold_i + 1) * len(grid))
        pred, errors = _predictions(path, X_test, B[rows], released[rows])
        fold_errors.append(None if pred is None else (y_test - pred) ** 2)
        for gi, error in enumerate(errors):
            if error is not None:
                status[gi] = "failed"

    for gi, (cfg, st) in enumerate(zip(grid, status)):
        p = cfg.privacy
        report.entries.append(_entry(
            kind="cv", k=cfg.k, preprocess=pipeline_spec, status=st,
            epsilon=p.epsilon if p else None, delta=p.delta if p else None,
            rmsecv=(float(np.sqrt(np.mean(np.concatenate([sq[gi] for sq in fold_errors]))))
                    if st == "ok" else None),
        ))

    usable = [e for e in report.entries if e["status"] == "ok"]
    if usable:
        report.best = min(usable, key=lambda e: (e["rmsecv"], e["k"]))
    return report


def _privacy_utility_sweep(train: Dataset, test: Dataset, base: FitConfig,
                           budgets: Sequence[PrivacyBudget], repeats: int, delta: float,
                           pipeline_spec: str, fitted: Pipeline, rng: RngStream) -> EvalReport:
    """Measure held-out error across privacy levels on rows the row steps
    have mapped.

    The ``fitted`` steps are fitted on the training rows and replayed on
    the test rows.  One clean NIPALS path of the training set serves
    every fit, released in one :func:`release_b` call: at ``base.k``,
    without noise, for the baseline row, which is always included, then
    ``repeats`` times per budget with noise substreams
    ``rng.derive(ei, rep)``.  All the b vectors predict the test set as
    one stack (:func:`_predictions`); RMSEP and R2 are reduced per row with
    the total sum of squares taken once, recorded per repeat and
    aggregated as mean with standard error.  No budgets yield the
    baseline only.
    """
    k = base.k
    train_ds = Dataset(X=fitted.fit_transform(train.X), y=train.y)
    X_test = fitted.transform(test.X)

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
    pred, errors = _predictions(path, X_test, *release_b([(path, k, None, None)] + [
        (path, k, budget, rng.derive(ei, rep))
        for ei, budget in enumerate(budgets) for rep in range(repeats)
    ]))
    if errors[0] is not None:
        raise errors[0]
    rmseps, r2ps = _rmsep_r2p(test.y, pred)
    report.entries.append(entry("baseline", None, None, True, rmsep=rmseps[0], r2p=r2ps[0]))
    report.aggregates.append(_aggregate(None, rmseps[:1], r2ps[:1]))

    for ei, budget in enumerate(budgets):
        eps = budget.epsilon
        r_vals, q_vals = [], []
        block = slice(1 + ei * repeats, 1 + (ei + 1) * repeats)
        for rep, (error, r, q) in enumerate(zip(errors[block], rmseps[block], r2ps[block])):
            if error is not None:
                report.entries.append(entry("holdout", eps, rep, False))
                continue
            r_vals.append(r)
            q_vals.append(q)
            report.entries.append(entry("holdout", eps, rep, True, rmsep=r, r2p=q))
        report.aggregates.append(_aggregate(eps, r_vals, q_vals))
    return report
