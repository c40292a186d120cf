"""PLS1 regression with optional per-component Gaussian privatization.

A fit has two stages.  :func:`nipals_path` centers the clean data and
runs the NIPALS recursion on it.  It writes each component, as it is
extracted, into one row of a table: the unit weight vector w, the
x-loadings p and the y-loading c end to end, what a release noises.
Beside it the path keeps the unit score vector t and the sample suprema
of the residuals the component was extracted from.
Deflation uses only these clean quantities, so a path depends on the
training data alone: not on the noise, the budget or the final component
count.  One path therefore serves every fit of the same data.

:func:`release` turns the first k components of a path into a model.
With a privacy budget set, it releases noisy copies of each component's
weights, scores, x-loadings and y-loading, re-normalizes the weights to
unit length, and solves for the regression vector b = W (P^T W)^-1 c
from the released quantities only.  Sensitivities come from each
component's residual suprema, and every calibration budgets the full
(epsilon, delta) for its own release.  A private release logs each
released component's calibrations, in ``CALIBRATION_TARGETS`` order,
and none for a component the recursion stopped on: no noise is drawn for
it.  Each release call calibrates each (path, budget) once, through the
deepest component a config releases: the components' (y r, r, y)
sensitivities go to :func:`analytic_gaussian_sigmas` as one array, whose
(components x 3) sigmas, widened to the four targets, scale the noise.
The path holds none of them.  Log entries (NoiseCalibration records) are
built from those arrays only for a caller that receives a model.  The
noisy scores are calibrated, drawn and logged like the other releases,
but no model holds them and b reads none, so they are never built:
their draws are dropped before the normal transform.  Dropping a release is post-processing, so each remaining
release keeps its own guarantee.

A release draws all its noise from its stream in one call: one vector of
k (2m + n + 1) raw words, whatever the sigmas, cut into segments in the
order weights, scores, x-loadings, y-loading of component 1, then of
component 2, and so on.  The score segments are left out; the rest are
mapped to uniforms and then to standard normals, each segment scaled by
its release's sigma.  Each Gaussian value consumes one word of the
stream and both maps work element by element, so this equals drawing
each release's noise in turn from the same stream, value for value.

:func:`release_many` releases many ``(path, config)`` jobs, and
:func:`release` is its one-job case.  The jobs that release the same
number of components k from paths of the same channel count m are
released as one stack, whatever path each comes from: cross-validation
releases every fold's grid in one call.  Each config still draws its
words from its own stream, in the same count as alone; a stack's kept
words are mapped to uniforms and through :func:`norm_ppf` in fixed-size
blocks.  Because those maps work element by element, every config gets
the normals it would get alone, value for value.  The stack then gets
its noisy w, p and c in one buffer, each config's clean rows from its
own path, the unit scaling of the weights through one stacked dot
product, P^T W through one stacked matrix product, and one stacked
condition estimate, k x k solve and W z.  Per config, each of these runs
the elementwise operation, or the BLAS or LAPACK call on the same memory
layout, that np.linalg.norm, P.T @ W and np.linalg.solve run on one
config's vectors, so every model equals that per-config release bit for
bit.  A config that fails gets its own error without touching the
others' draws or models.  :func:`fit` is ``release(nipals_path(d, cfg.k),
cfg)``.  :func:`release_b` releases ``(path, k, budget, stream)`` jobs the
same way and returns only their stacked b vectors and errors, with no
model, log or config built per job: the sweep's protocols read nothing
else.

Note the intentional scale asymmetry inherited from the method: the
weight sensitivity is that of the unnormalized covariance E^T f, yet the
noise is added to the unit-normalized weight vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CALIBRATION_TARGETS,
    Dataset,
    NoiseCalibration,
    PlsModel,
    PrivacyBudget,
    RngStream,
    norm_ppf,
    open_unit_of,
    save_json,
)
from .errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    DpplsError,
    ModelFormatError,
    ShapeError,
    SingularSystemError,
)
from .mechanism import (
    SampleBounds,
    analytic_gaussian_sigma,
    analytic_gaussian_sigmas,
    sample_bounds,
)

# Condition number beyond which the k x k loading system is treated as
# singular; roughly machine epsilon times a safety margin.
_COND_LIMIT = 1e12

# The residual norm at or below which nipals_path stops.
RESIDUAL_TOLERANCE = 1e-12

# Values _release_group maps from words to normals per norm_ppf call, so
# that the map's temporaries stay this size however many configs stack.
_MAP_BLOCK = 8192


def _check_depth(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ArgumentError(f"k must be a positive integer, got {k}")
    return int(k)


@dataclass
class FitConfig:
    """Settings for one model fit.

    ``privacy`` of None fits the plain (no-noise) baseline.  ``rng`` must
    be supplied whenever privacy is set; the fit takes all its noise from
    it in one batched draw, in the order weights, scores, x-loadings,
    y-loading per component, which equals drawing the four releases of
    each component in turn from the stream.  The early-stop tolerance is
    not a fit setting; see :func:`nipals_path`.
    """

    k: int
    privacy: Optional[PrivacyBudget] = None
    rng: Optional[RngStream] = None

    def __post_init__(self):
        self.k = _check_depth(self.k)


def _solve_loading_system(W: np.ndarray, P: np.ndarray, c: np.ndarray) -> tuple:
    """Solve b = W (P^T W)^{-1} c through k x k linear solves, for a stack
    of R systems: W and P are R x m x k, c is R x k.

    Returns the R x m regression vectors and, per system, None or the
    SingularSystemError of a system singular within tolerance; such a
    system's row of b is zero.
    """
    R, m, k = W.shape
    b = np.zeros((R, m))
    if k == 0:
        return b, [None] * R
    PtW = np.matmul(P.transpose(0, 2, 1), W)
    cond = np.linalg.cond(PtW)
    ok = np.isfinite(cond) & (cond <= _COND_LIMIT)
    if ok.any():
        z = np.linalg.solve(PtW[ok], c[ok][:, :, None])
        b[ok] = np.matmul(W[ok], z)[:, :, 0]
    return b, [
        None if good else SingularSystemError(
            f"loading system is singular within tolerance "
            f"(condition estimate {cond_r:.3e}); reduce the component count"
        )
        for good, cond_r in zip(ok, cond)
    ]


# ---------------------------------------------------------------------------
# the clean path and its releases
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NipalsPath:
    """The clean NIPALS recursion of one dataset, up to ``k_max`` components.

    Row j of the ``releases`` table is component j's w, p and c end to
    end, row j of ``scores`` its unit scores t, and ``bounds[j]`` holds
    the suprema of the residuals it was extracted from.  Fewer than k_max
    rows means the recursion stopped early.  A private release logs four
    calibrations per component it releases, and none for a component the
    recursion stopped on.
    """

    releases: np.ndarray
    scores: np.ndarray
    bounds: list
    x_means: np.ndarray
    y_mean: float
    k_max: int

    @property
    def sizes(self) -> tuple:
        """The lengths of w, t, p and c: a private release's draws per component."""
        m = self.x_means.size
        return (m, self.scores.shape[1], m, 1)


def nipals_path(d: Dataset, k_max: int) -> NipalsPath:
    """Run the clean NIPALS recursion for up to ``k_max`` components.

    This is where the data is centered; the means are kept on the path.
    The recursion stops early once the covariance norm or the score norm
    of the residuals is at most ``RESIDUAL_TOLERANCE``.
    """
    k_max = _check_depth(k_max)
    if d.n >= 1 and np.max(d.y) == np.min(d.y):
        raise DegenerateInputError("response is constant")
    if d.n < 2:
        raise DegenerateInputError(f"centering needs at least 2 samples, got {d.n}")
    if not np.all(np.isfinite(d.X)) or not np.all(np.isfinite(d.y)):
        raise DegenerateInputError("dataset contains NaN or infinite entries")

    n, m = d.X.shape
    k_limit = min(n - 1, m)
    if k_max > k_limit:
        raise ArgumentError(
            f"k={k_max} exceeds min(n-1, m)={k_limit} for this dataset"
        )

    x_means = d.X.mean(axis=0)
    E = d.X - x_means
    y_mean = float(d.y.mean())
    f = d.y - y_mean
    releases, scores = np.empty((k_max, 2 * m + 1)), np.empty((k_max, n))
    bounds = []
    for row, t in zip(releases, scores):
        cov = E.T @ f
        cov_norm = float(np.linalg.norm(cov))
        if cov_norm <= RESIDUAL_TOLERANCE:
            break
        w = cov / cov_norm

        s = E @ w
        s_norm = float(np.linalg.norm(s))
        if s_norm <= RESIDUAL_TOLERANCE:
            break
        t[:] = s / s_norm
        bounds.append(sample_bounds(E, f))

        tt = float(t @ t)
        p = (E.T @ t) / tt
        c = float(f @ t) / tt
        E -= np.outer(t, p)  # E is the path's own copy, never d.X
        f = f - c * t
        row[:m], row[m:-1], row[-1] = w, p, c

    return NipalsPath(releases=releases[:len(bounds)], scores=scores[:len(bounds)],
                      bounds=bounds, x_means=x_means, y_mean=y_mean, k_max=k_max)


# The column of a component's (y r, r, y) sigmas that each of
# CALIBRATION_TARGETS takes: the scores and the x-loadings share r.
_TARGET_COLUMNS = (0, 1, 1, 2)


def _calibrate(bounds: list, budget: PrivacyBudget) -> tuple:
    """The calibrations of every component of ``bounds`` under ``budget``:
    (components x 4) sensitivities and sigmas in CALIBRATION_TARGETS
    order, and None or the error of the first component whose
    calibration failed.  The sigmas then hold only the components before
    that one.  The components' (y r, r, y) sensitivities are calibrated
    in one analytic_gaussian_sigmas call: three sigmas a component, not
    four."""
    sens = np.array([b.sensitivities for b in bounds]).reshape(-1, 4)
    sigmas, error = analytic_gaussian_sigmas(sens[:, (0, 1, 3)].ravel().tolist(), budget)
    done = sigmas.size // 3
    return sens, sigmas[:3 * done].reshape(done, 3)[:, _TARGET_COLUMNS], error


def _calibration_log(table: tuple) -> list:
    """The NoiseCalibrations of the calibrated components of a
    ``_calibrate`` table, four a component."""
    sens, sigmas, _ = table
    return [NoiseCalibration(sensitivity=s, sigma=sigma, target=target)
            for s, sigma, target in zip(sens.ravel().tolist(), sigmas.ravel().tolist(),
                                        CALIBRATION_TARGETS * len(sigmas))]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """v scaled along its last axis to unit length.  The stacked dot
    product takes the BLAS call np.linalg.norm takes on one vector, so
    each row gets the same bits."""
    return v / np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0]


def _release_group(jobs: list, k: int, sigmas: list) -> tuple:
    """The releases of R (path, k, budget, stream) jobs that release k
    components each from paths of one channel count m, given each
    private job's (k x 4) sigmas and None for a clean one; the private
    jobs come first.  Returns the stacked W and P (R x m x k), c (R x k),
    b (R x m) and, per job, None or the SingularSystemError of its solve,
    whose row of b is zero.

    Each private job draws its k (2m + n + 1) words, n its own path's
    row count, and keeps those of w, p and c; they are gathered in the
    noise buffer itself and mapped to normals in place, in blocks of
    ``_MAP_BLOCK`` values.  Each component's w, p and c gets sigma times
    the next segment of its job's normals, scaled in place one segment
    at a time by one stacked array of the jobs' sigmas, or zeros when the
    job is clean.  The first k rows of each job's own path's
    ``releases`` are then added: IEEE addition commutes.  The noisy
    weights are then scaled to unit length.
    """
    m = jobs[0][0].sizes[0]
    R, width = len(jobs), 2 * m + 1
    private = sum(sigma is not None for sigma in sigmas)
    noisy = np.zeros((R, k, width))
    if private:
        words = noisy[:private].view(np.uint64)
        for dst, (path, _, _, rng) in zip(words, jobs):
            raw = rng.raw_words(k * sum(path.sizes)).reshape(k, -1)
            dst[:, :m], dst[:, m:] = raw[:, :m], raw[:, m + path.sizes[1]:]
        flat, words = noisy.reshape(-1), words.reshape(-1)
        for at in range(0, words.size, _MAP_BLOCK):
            block = words[at:at + _MAP_BLOCK]
            flat[at:at + block.size] = norm_ppf(open_unit_of(block))
        # The scores' sigmas (column 1) scale nothing: their noise is not drawn.
        sigma = np.array(sigmas[:private])
        head = noisy[:private]
        head[..., :m] *= sigma[..., 0, None]
        head[..., m:2 * m] *= sigma[..., 2, None]
        head[..., -1] *= sigma[..., 3]
    for rows, (path, *_) in zip(noisy, jobs):
        rows += path.releases[:k]

    # Each job's W and P as a C-ordered m x k block, the layout of one
    # model's matrices, so that the stacked products make the BLAS calls
    # that P.T @ W and W @ z make on one model.
    W, P = (
        np.ascontiguousarray(v.transpose(0, 2, 1))
        for v in (_unit_rows(noisy[:, :, :m]), noisy[:, :, m:2 * m])
    )
    c = noisy[:, :, -1].copy()
    b, singular = _solve_loading_system(W, P, c)
    return W, P, c, b, singular


def _release_stacks(jobs: Sequence[tuple]) -> tuple:
    """Check, calibrate and release (path, k, budget, stream) jobs.

    Returns, per job, None or the DpplsError it raised; the calibration
    table of each (path, budget) a private job releases components of;
    and per stack, its jobs' indexes, k and _release_group's W, P, c and
    b.  Each (path, budget) is calibrated once, through the most
    components a job releases under it; a calibration that fails at
    component j fails the jobs that release j components or more, and
    only those.  Jobs that release the same k from paths of the same
    channel count form one stack.
    """
    errors = [None] * len(jobs)
    checked = []  # (index, released k) of each job that passes its checks
    depth: dict = {}  # (path, budget) -> the most components a job releases
    for i, (path, k, budget, rng) in enumerate(jobs):
        if budget is not None and rng is None:
            errors[i] = ConfigurationError("a privacy budget requires an rng stream")
        elif k > path.k_max:
            errors[i] = ArgumentError(f"k={k} exceeds the path's {path.k_max} components")
        else:
            k = min(k, len(path.bounds))
            checked.append((i, k))
            if budget is not None and k > depth.get((path, budget), 0):
                depth[path, budget] = k
    tables = {key: _calibrate(key[0].bounds[:k], key[1]) for key, k in depth.items()}
    groups: dict = {}  # (channel count, released k) -> [(index, sigmas or None)]
    for i, k in checked:
        path, _, budget, _ = jobs[i]
        sigmas = None
        if budget is not None and k:
            _, sigmas, error = tables[path, budget]
            if len(sigmas) < k:
                errors[i] = error
                continue
            sigmas = sigmas[:k]
        groups.setdefault((path.sizes[0], k), []).append((i, sigmas))
    stacks = []
    for (_, k), group in groups.items():
        group.sort(key=lambda entry: entry[1] is None)  # private jobs first, in order
        index, sigmas = zip(*group)
        W, P, c, b, singular = _release_group([jobs[i] for i in index], k, sigmas)
        for i, error in zip(index, singular):
            errors[i] = error
        stacks.append((index, k, W, P, c, b))
    return errors, tables, stacks


def release_many(jobs: Sequence[tuple]) -> list:
    """Release each ``(path, cfg)`` job; one entry per job, in order: its
    model, or the DpplsError it raised.

    Each (path, budget) is calibrated once within the call, through the
    deepest component a config releases under it, in one array.  Each
    private config draws its k (2m + n + 1)
    words from its own stream, as :func:`release` would, scores included,
    and only its w, p and c words are mapped to normals.  Jobs that
    release the same number of components from paths of the same channel
    count are assembled and solved together, as one stack, whatever their
    paths' row counts; each config's clean rows, means and draws come from
    its own path.  A config that fails its checks, calibration or solve
    takes no draws from the others' streams and leaves their models
    unchanged.  The calibration logs are built from the arrays the noise
    was scaled by, once per (path, budget); each model holds the first 4k
    entries.
    """
    errors, tables, stacks = _release_stacks(
        [(path, cfg.k, cfg.privacy, cfg.rng) for path, cfg in jobs])
    logs = {key: _calibration_log(table) for key, table in tables.items()}
    out = list(errors)
    for index, k, W, P, c, b in stacks:
        for r, i in enumerate(index):
            if errors[i] is not None:
                continue
            path, cfg = jobs[i]
            out[i] = PlsModel(
                W=W[r], P=P[r], c=c[r], b=b[r], k=k, x_means=path.x_means.copy(),
                y_mean=path.y_mean, privacy=cfg.privacy,
                calibration_log=logs[path, cfg.privacy][:4 * k] if k and cfg.privacy else [],
                early_stop=cfg.k > k,
                rng_seed=cfg.rng.seed if cfg.rng is not None else None,
                rng_stream=cfg.rng.stream_id if cfg.rng is not None else None,
            )
    return out


def release_b(jobs: Sequence[tuple]) -> tuple:
    """The regression vectors of ``(path, k, budget, stream)`` jobs, from
    paths of one channel count m, with no model built.

    Returns an R x m array whose row r is b of the model that
    :func:`release_many` gives ``(path, FitConfig(k, budget, stream))``,
    bit for bit, from the same draws, and per job None or the DpplsError
    release_many would give it; a failed job's row is zero.
    """
    errors, _, stacks = _release_stacks(jobs)
    B = np.zeros((len(jobs), jobs[0][0].sizes[0] if jobs else 0))
    for index, _, _, _, _, b in stacks:
        B[list(index)] = b
    return B, errors


def release(path: NipalsPath, cfg: FitConfig) -> PlsModel:
    """Release the first cfg.k components of ``path`` as a model.

    Without a privacy budget the clean quantities are released.  A path
    holding fewer than cfg.k components gives a model flagged as stopped
    early.
    """
    (result,) = release_many([(path, cfg)])
    if isinstance(result, DpplsError):
        raise result
    return result


def fit(d: Dataset, cfg: FitConfig) -> PlsModel:
    """Fit a PLS1 model, privatized when cfg.privacy is set.

    The data is centered internally and the means stored on the model.
    Stops early, flagging the model, if a residual norm drops to
    ``RESIDUAL_TOLERANCE`` or below before k components are extracted.
    """
    return release(nipals_path(d, cfg.k), cfg)


def predict(model: PlsModel, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for new rows: (X_new - x_means) b + y_mean.

    Rows holding NaN or infinite entries raise DegenerateInputError."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise ShapeError("X_new must be 2-d (samples x channels)")
    if X_new.shape[1] != model.m:
        raise ShapeError(
            f"X_new has {X_new.shape[1]} columns but the model expects {model.m}"
        )
    if not np.all(np.isfinite(X_new)):
        raise DegenerateInputError("X_new contains NaN or infinite entries")
    return (X_new - model.x_means) @ model.b + model.y_mean


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT = "dppls-model"
_VERSION = 1


def save_model(model: PlsModel, path) -> None:
    """Write a model as a single JSON document.

    Floats serialize via their shortest round-trip representation, so a
    reloaded model predicts bit-for-bit identically.  Training scores are
    not persisted.
    """
    save_json(path, {
        "format": _FORMAT,
        "version": _VERSION,
        "k": int(model.k),
        "W": model.W.tolist(),
        "P": model.P.tolist(),
        "c": model.c.tolist(),
        "b": model.b.tolist(),
        "x_means": model.x_means.tolist(),
        "y_mean": float(model.y_mean),
        "privacy": (
            None if model.privacy is None
            else {"epsilon": model.privacy.epsilon, "delta": model.privacy.delta}
        ),
        "calibration_log": [
            {
                "target": cal.target,
                "sensitivity": cal.sensitivity,
                "sigma": cal.sigma,
                "method": "analytic",
            }
            for cal in model.calibration_log
        ],
        "early_stop": bool(model.early_stop),
        "rng_seed": model.rng_seed,
        "rng_stream": model.rng_stream,
    })


# Norm-wise relative tolerance for a stored b against W (P^T W)^-1 c; on
# the machine that wrote the file the recomputation is bit-identical.
_B_RTOL = 1e-8

# Relative tolerance for a logged sigma against its recalibration: the
# bisection's own, so a file reloads wherever its sigmas were calibrated.
_SIGMA_RTOL = 1e-9

_KEYS = (
    "format", "version", "k", "W", "P", "c", "b", "x_means", "y_mean",
    "privacy", "calibration_log", "early_stop", "rng_seed", "rng_stream",
)


def _is_number(v) -> bool:
    """A JSON number: json reads true and false as bools, which float()
    and numpy take for 1 and 0."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _all_numbers(v) -> bool:
    """v is a JSON number or a nested list of them."""
    return all(map(_all_numbers, v)) if isinstance(v, list) else _is_number(v)


def _finite_array(doc: dict, key: str, shape=None) -> np.ndarray:
    try:
        arr = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        arr = None
    # Walked only once numpy took it: at most its dimension limit deep.
    if arr is None or not _all_numbers(doc[key]):
        raise ModelFormatError(f"{key} is not a numeric array")
    if shape is not None and arr.shape != shape:
        raise ModelFormatError(f"{key} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{key} holds non-finite values")
    return arr


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_log(log: list, k: int, privacy, early_stop: bool) -> None:
    """A private model logs 4 releases per component, in CALIBRATION_TARGETS
    order, each with the analytic sigma of its sensitivity under the
    model's budget; a clean model logs none.  A released component passed
    the stop test, so its residual suprema, logged as the y-loading (y)
    and scores (r) sensitivities, are positive, and its four sensitivities
    are SampleBounds(y, r)'s.  An early-stopped model may hold one more
    weights entry, not checked against the table: earlier versions logged
    the calibration of the component the recursion stopped on."""
    if privacy is None:
        if log:
            raise ModelFormatError("calibration_log must be empty without a privacy budget")
        return
    sizes = (4 * k, 4 * k + 1) if early_stop else (4 * k,)
    if len(log) not in sizes:
        raise ModelFormatError(
            f"calibration_log holds {len(log)} entries; k={k} with early_stop "
            f"{str(early_stop).lower()} needs {' or '.join(map(str, sizes))}"
        )
    for i, (cal, target) in enumerate(zip(log, CALIBRATION_TARGETS * (k + 1))):
        if cal.target != target:
            raise ModelFormatError(
                f"calibration_log entry {i} targets {cal.target!r}, expected {target!r}"
            )
        try:
            want = analytic_gaussian_sigma(cal.sensitivity, privacy)
        except DpplsError as exc:
            raise ModelFormatError(
                f"calibration_log entry {i}: sigma cannot be recalibrated: {exc}"
            ) from None
        if abs(cal.sigma - want) > _SIGMA_RTOL * want:
            raise ModelFormatError(
                f"calibration_log entry {i} has sigma {cal.sigma!r}; its sensitivity "
                f"and the model's budget give {want!r}"
            )
    # Whole components only: a trailing weights entry is left out.
    for j, four in enumerate(zip(*[iter(log)] * 4)):
        logged = tuple(cal.sensitivity for cal in four)
        y, r = logged[3], logged[1]
        if not (y > 0 and r > 0 and logged == SampleBounds(y, r).sensitivities):
            raise ModelFormatError(
                f"calibration_log component {j + 1} has sensitivities {logged!r}; a fit "
                "gives (y r, r, r, y) with positive residual suprema y and r"
            )


def _model_from_doc(doc: dict) -> PlsModel:
    k = doc["k"]
    if not _is_int(k) or k < 0:
        raise ModelFormatError(f"k must be a nonnegative integer, got {k!r}")
    b = _finite_array(doc, "b")
    if b.ndim != 1 or b.size == 0:
        raise ModelFormatError(f"b has shape {b.shape}, expected one value per channel")
    m = b.size
    W = _finite_array(doc, "W", (m, k))
    P = _finite_array(doc, "P", (m, k))
    c = _finite_array(doc, "c", (k,))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite b_ref is refused
        (b_ref,), (singular,) = _solve_loading_system(W[None], P[None], c[None])
    if singular is not None:
        raise ModelFormatError(f"W and P do not determine b: {singular}")
    # Both scaled by their largest magnitude, so that neither norm overflows.
    scale = np.max(np.abs([b, b_ref])) or 1.0
    if not np.isfinite(scale) or (
            np.linalg.norm(b_ref / scale - b / scale) > _B_RTOL * np.linalg.norm(b / scale)):
        raise ModelFormatError("b disagrees with W (P^T W)^-1 c")
    x_means = _finite_array(doc, "x_means", (m,))
    y_mean = float(_finite_array(doc, "y_mean", ()))
    for key in ("rng_seed", "rng_stream"):
        if doc[key] is not None and not _is_int(doc[key]):
            raise ModelFormatError(f"{key} must be an integer or null")
    if not isinstance(doc["early_stop"], bool):
        raise ModelFormatError("early_stop must be true or false")
    privacy = None
    if doc["privacy"] is not None:
        epsilon, delta = doc["privacy"]["epsilon"], doc["privacy"]["delta"]
        if not (_is_number(epsilon) and _is_number(delta)):
            raise ModelFormatError("privacy epsilon and delta must be numbers")
        privacy = PrivacyBudget(epsilon, delta)
    log = []
    for i, e in enumerate(doc["calibration_log"]):
        if e["method"] != "analytic":
            raise ModelFormatError(
                f"calibration_log entry {i} uses method {e['method']!r}, expected 'analytic'"
            )
        sensitivity, sigma = e["sensitivity"], e["sigma"]
        if not (_is_number(sensitivity) and _is_number(sigma)):
            raise ModelFormatError(
                f"calibration_log entry {i}: sensitivity and sigma must be numbers"
            )
        sensitivity, sigma = float(sensitivity), float(sigma)
        if not (np.isfinite(sensitivity) and np.isfinite(sigma)):
            raise ModelFormatError("calibration_log holds non-finite values")
        log.append(NoiseCalibration(sensitivity=sensitivity, sigma=sigma, target=e["target"]))
    _check_log(log, k, privacy, doc["early_stop"])
    return PlsModel(
        W=W, P=P, c=c, b=b, k=k, x_means=x_means, y_mean=y_mean,
        privacy=privacy, calibration_log=log, early_stop=doc["early_stop"],
        rng_seed=doc["rng_seed"], rng_stream=doc["rng_stream"],
    )


def load_model(path) -> PlsModel:
    """Read a model written by :func:`save_model`.

    Raises ModelFormatError for anything else: invalid JSON, JSON nested
    too deeply to parse, a version other than the integer 1, missing
    keys, values of the wrong type, arrays whose shapes disagree with k
    and the channel count, non-finite numbers or integers beyond float
    range, a singular P^T W, a b that differs from W (P^T W)^-1 c by more
    than 1e-8 of its norm (``_B_RTOL``; both are scaled by their largest
    entry first, so no norm overflows), or a calibration_log that does
    not match the model: entries without a privacy budget; with one, a
    count other than 4k (or 4k+1 when early_stop is true: files of
    earlier versions log the weights of the component the recursion
    stopped on), targets out of CALIBRATION_TARGETS order, a method
    other than "analytic", a sigma more than 1e-9 relative
    (``_SIGMA_RTOL``) from the analytic sigma of the entry's sensitivity
    under the model's budget, or a component whose sensitivities are not
    (y r, r, r, y) for positive residual suprema y and r.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, deep nesting
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ModelFormatError(f"{path}: not a model file")
    if not _is_int(doc.get("version")) or doc["version"] != _VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {doc.get('version')}")
    missing = [key for key in _KEYS if key not in doc]
    if missing:
        raise ModelFormatError(f"{path}: missing keys {', '.join(missing)}")
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model: {exc}") from None
