"""PLS1 regression with optional per-component Gaussian privatization.

A fit has two stages.  :func:`nipals_path` runs the NIPALS recursion on
the clean data.  For every component it keeps the unit weight vector w,
the unit score vector t, the x-loadings p, the y-loading c, and the
sample suprema of the residuals the component was extracted from.
Deflation uses only these clean quantities, so a path depends on the
training data alone: not on the noise, the budget or the final component
count.  One path therefore serves every fit of the same data.

:func:`release` turns the first k components of a path into a model.
With a privacy budget set, it releases noisy copies of each component's
weights, scores, x-loadings and y-loading, re-normalizes the weights and
scores to unit length, and solves for the regression vector from the
released quantities only.  Sensitivities come from each component's
residual suprema, and every calibration budgets the full (epsilon, delta)
for its own release.  The path memoizes its calibrations per budget.

A release draws all its noise in one call: one standard normal vector,
cut into segments in the order weights, scores, x-loadings, y-loading of
component 1, then of component 2, and so on, each segment scaled by its
release's sigma.  Releases with sigma 0 take no draws.  Each Gaussian
value consumes one word of the stream and the normal transform works
element by element, so this equals drawing each release's noise in turn
from the same stream, value for value.  :func:`fit` is
``release(nipals_path(d, cfg.k, cfg.residual_tolerance), cfg)``.

Note the intentional scale asymmetry inherited from the method: the
weight sensitivity is that of the unnormalized covariance E^T f, yet the
noise is added to the unit-normalized weight vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    CALIBRATION_TARGETS,
    Dataset,
    NoiseCalibration,
    PlsModel,
    PrivacyBudget,
    RngStream,
    gaussian_vector,
    mean_center,
)
from .errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    ModelFormatError,
    ShapeError,
    SingularSystemError,
)
from .mechanism import (
    SampleBounds,
    analytic_gaussian_sigma,
    sample_bounds,
    sensitivity_for,
)

# Condition number beyond which the k x k loading system is treated as
# singular; roughly machine epsilon times a safety margin.
_COND_LIMIT = 1e12

DEFAULT_RESIDUAL_TOLERANCE = 1e-12


def _check_depth(k, residual_tolerance) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ArgumentError(f"k must be a positive integer, got {k}")
    if residual_tolerance < 0:
        raise ArgumentError("residual_tolerance must be nonnegative")
    return int(k)


@dataclass
class FitConfig:
    """Settings for one model fit.

    ``privacy`` of None fits the plain (no-noise) baseline.  ``rng`` must
    be supplied whenever privacy is set; the fit takes all its noise from
    it in one batched draw, in the order weights, scores, x-loadings,
    y-loading per component, which equals drawing the four releases of
    each component in turn from the stream.  The recursion stops early
    once a residual norm falls below ``residual_tolerance``.
    """

    k: int
    privacy: Optional[PrivacyBudget] = None
    rng: Optional[RngStream] = None
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE

    def __post_init__(self):
        self.k = _check_depth(self.k, self.residual_tolerance)


def _solve_loading_system(W: np.ndarray, P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve b = W (P^T W)^{-1} c through a k x k linear solve."""
    PtW = P.T @ W
    if PtW.size == 0:
        return np.zeros(W.shape[0])
    cond = np.linalg.cond(PtW)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            f"loading system is singular within tolerance "
            f"(condition estimate {cond:.3e}); reduce the component count",
            components=W.shape[1],
            condition=float(cond),
        )
    z = np.linalg.solve(PtW, c)
    return W @ z


def regression_coefficients(W: np.ndarray, P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Combine weights and loadings into the regression vector.

    W and P must be m x k with c of length k; the k x k system is solved
    directly rather than forming an explicit inverse.
    """
    W = np.asarray(W, dtype=float)
    P = np.asarray(P, dtype=float)
    c = np.asarray(c, dtype=float)
    if W.ndim != 2 or P.ndim != 2 or c.ndim != 1:
        raise ShapeError("W and P must be 2-d and c 1-d")
    if W.shape != P.shape or W.shape[1] != c.shape[0]:
        raise ShapeError(
            f"inconsistent shapes: W {W.shape}, P {P.shape}, c {c.shape}"
        )
    return _solve_loading_system(W, P, c)


# ---------------------------------------------------------------------------
# the clean path and its releases
# ---------------------------------------------------------------------------

class PathComponent(NamedTuple):
    """One clean component and the suprema of the residuals it came from."""

    w: np.ndarray
    t: np.ndarray
    p: np.ndarray
    c: float
    bounds: SampleBounds


@dataclass
class NipalsPath:
    """The clean NIPALS recursion of one dataset, up to ``k_max`` components.

    Fewer than k_max ``components`` means the recursion stopped early.
    ``cut_bounds`` is set when it stopped on the score norm: the weights
    of that cut-off component were already calibrated, so a private
    release logs their calibration.
    """

    components: list
    x_means: np.ndarray
    y_mean: float
    n: int
    k_max: int
    residual_tolerance: float
    cut_bounds: Optional[SampleBounds] = None
    # Calibrations per (budget, component), in release order, filled on demand.
    _calibrations: dict = field(default_factory=dict, repr=False, compare=False)


def nipals_path(
    d: Dataset,
    k_max: int,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
) -> NipalsPath:
    """Run the clean NIPALS recursion for up to ``k_max`` components.

    Uncentered data is centered here and the means kept on the path.  The
    recursion stops early once the covariance norm or the score norm of
    the residuals drops below ``residual_tolerance``.
    """
    k_max = _check_depth(k_max, residual_tolerance)
    if not d.centered:
        if d.n >= 1 and np.max(d.y) == np.min(d.y):
            raise DegenerateInputError("response is constant")
        d = mean_center(d)
    else:
        if d.n < 2:
            raise DegenerateInputError(f"fit needs at least 2 samples, got {d.n}")
        if not np.all(np.isfinite(d.X)) or not np.all(np.isfinite(d.y)):
            raise DegenerateInputError("dataset contains NaN or infinite entries")
        if np.all(d.y == 0.0):
            # A centered response that is identically zero was constant.
            raise DegenerateInputError("response is constant")

    n, m = d.X.shape
    k_limit = min(n - 1, m)
    if k_max > k_limit:
        raise ArgumentError(
            f"k={k_max} exceeds min(n-1, m)={k_limit} for this dataset"
        )

    E = d.X.copy()
    f = d.y.copy()
    components = []
    cut_bounds = None
    for _ in range(k_max):
        cov = E.T @ f
        cov_norm = float(np.linalg.norm(cov))
        if cov_norm < residual_tolerance:
            break
        w = cov / cov_norm
        bounds = sample_bounds(E, f)

        s = E @ w
        s_norm = float(np.linalg.norm(s))
        if s_norm < residual_tolerance:
            cut_bounds = bounds
            break
        t = s / s_norm

        tt = float(t @ t)
        p = (E.T @ t) / tt
        c = float(f @ t) / tt
        E = E - np.outer(t, p)
        f = f - c * t
        components.append(PathComponent(w, t, p, c, bounds))

    return NipalsPath(
        components=components,
        x_means=np.asarray(d.x_means if d.x_means is not None else np.zeros(m), dtype=float),
        y_mean=float(d.y_mean if d.y_mean is not None else 0.0),
        n=n, k_max=k_max, residual_tolerance=residual_tolerance,
        cut_bounds=cut_bounds,
    )


def _calibrations(path: NipalsPath, budget: PrivacyBudget, j: int, count: int) -> list:
    """The first ``count`` calibrations of component ``j`` under ``budget``,
    in release order; j == len(path.components) is the cut-off component."""
    cals = path._calibrations.setdefault((budget, j), [])
    bounds = path.components[j].bounds if j < len(path.components) else path.cut_bounds
    for target in CALIBRATION_TARGETS[len(cals):count]:
        cals.append(analytic_gaussian_sigma(sensitivity_for(target, bounds), budget, target))
    return cals[:count]


def _add_noise(vecs: list, sigmas: list, rng: Optional[RngStream]) -> list:
    """vec + N(0, sigma^2) noise for each pair, from one batched draw."""
    if not np.all(np.isfinite(sigmas)):
        raise ArgumentError("noise scales must be finite")
    total = sum(v.size for v, s in zip(vecs, sigmas) if s != 0.0)
    z = gaussian_vector(total, 1.0, rng) if total else None
    out, at = [], 0
    for v, s in zip(vecs, sigmas):
        if s == 0.0:
            # Adding zeros keeps the clean values' signed zeros as a
            # zero-noise release always treated them.
            out.append(v + 0.0)
        else:
            out.append(v + s * z[at:at + v.size])
            at += v.size
    return out


def _columns(cols: list, rows: int) -> np.ndarray:
    return np.column_stack(cols) if cols else np.zeros((rows, 0))


def release(path: NipalsPath, cfg: FitConfig) -> PlsModel:
    """Release the first cfg.k components of ``path`` as a model.

    Without a privacy budget the clean quantities are released.  A path
    holding fewer than cfg.k components gives a model flagged as stopped
    early.  cfg.residual_tolerance must be the path's.
    """
    if cfg.privacy is not None and cfg.rng is None:
        raise ConfigurationError("a privacy budget requires an rng stream")
    m = path.x_means.shape[0]
    k_limit = min(path.n - 1, m)
    if cfg.k > k_limit:
        raise ArgumentError(
            f"k={cfg.k} exceeds min(n-1, m)={k_limit} for this dataset"
        )
    if cfg.k > path.k_max:
        raise ArgumentError(f"k={cfg.k} exceeds the path's {path.k_max} components")
    if cfg.residual_tolerance != path.residual_tolerance:
        raise ConfigurationError(
            f"residual_tolerance {cfg.residual_tolerance} differs from the "
            f"path's {path.residual_tolerance}"
        )

    comps = path.components[:cfg.k]
    early_stop = cfg.k > len(comps)
    log: list[NoiseCalibration] = []
    if cfg.privacy is None:
        sigmas = [0.0] * (4 * len(comps))
    else:
        for j in range(len(comps)):
            log.extend(_calibrations(path, cfg.privacy, j, 4))
        sigmas = [cal.sigma for cal in log]
        if early_stop and path.cut_bounds is not None:
            log.extend(_calibrations(path, cfg.privacy, len(comps), 1))

    noisy = _add_noise(
        [v for comp in comps for v in (comp.w, comp.t, comp.p, np.array([comp.c]))],
        sigmas, cfg.rng,
    )
    W_cols, T_cols, P_cols, c_vals = [], [], [], []
    for j in range(len(comps)):
        w_rel, t_rel, p_rel, c_rel = noisy[4 * j:4 * j + 4]
        W_cols.append(w_rel / np.linalg.norm(w_rel))
        T_cols.append(t_rel / np.linalg.norm(t_rel))
        P_cols.append(p_rel)
        c_vals.append(float(c_rel[0]))

    W = _columns(W_cols, m)
    P = _columns(P_cols, m)
    c_vec = np.array(c_vals, dtype=float)
    b = _solve_loading_system(W, P, c_vec)
    return PlsModel(
        W=W, P=P, c=c_vec, b=b, k=len(comps),
        x_means=path.x_means.copy(), y_mean=path.y_mean,
        T=_columns(T_cols, path.n), privacy=cfg.privacy,
        calibration_log=log, early_stop=early_stop,
        rng_seed=cfg.rng.seed if cfg.rng is not None else None,
        rng_stream=cfg.rng.stream_id if cfg.rng is not None else None,
    )


def fit(d: Dataset, cfg: FitConfig) -> PlsModel:
    """Fit a PLS1 model, privatized when cfg.privacy is set.

    Uncentered data is centered internally and the means stored on the
    model.  Stops early, flagging the model, if a residual norm drops
    below cfg.residual_tolerance before k components are extracted.
    """
    return release(nipals_path(d, cfg.k, cfg.residual_tolerance), cfg)


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


def _matrix_to_lists(M: np.ndarray) -> list:
    return [[float(v) for v in row] for row in M]


def save_model(model: PlsModel, path) -> None:
    """Write a model as a single JSON document.

    Floats serialize via their shortest round-trip representation, so a
    reloaded model predicts bit-for-bit identically.  Training scores are
    not persisted.
    """
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "k": int(model.k),
        "W": _matrix_to_lists(model.W),
        "P": _matrix_to_lists(model.P),
        "c": [float(v) for v in model.c],
        "b": [float(v) for v in model.b],
        "x_means": [float(v) for v in model.x_means],
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
                "method": cal.method,
            }
            for cal in model.calibration_log
        ],
        "early_stop": bool(model.early_stop),
        "rng_seed": model.rng_seed,
        "rng_stream": model.rng_stream,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# Norm-wise relative tolerance for a stored b against W (P^T W)^-1 c; on
# the machine that wrote the file the recomputation is bit-identical.
_B_RTOL = 1e-8

_KEYS = (
    "format", "version", "k", "W", "P", "c", "b", "x_means", "y_mean",
    "privacy", "calibration_log", "early_stop", "rng_seed", "rng_stream",
)


def _finite_array(doc: dict, key: str, shape=None) -> np.ndarray:
    try:
        arr = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError(f"{key} is not a numeric array") from None
    if shape is not None and arr.shape != shape:
        raise ModelFormatError(f"{key} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{key} holds non-finite values")
    return arr


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
    try:
        b_ref = _solve_loading_system(W, P, c)
    except SingularSystemError as exc:
        raise ModelFormatError(f"W and P do not determine b: {exc}") from None
    if np.linalg.norm(b_ref - b) > _B_RTOL * np.linalg.norm(b):
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
        privacy = PrivacyBudget(doc["privacy"]["epsilon"], doc["privacy"]["delta"])
    log = []
    for e in doc["calibration_log"]:
        sensitivity, sigma = float(e["sensitivity"]), float(e["sigma"])
        if not (np.isfinite(sensitivity) and np.isfinite(sigma)):
            raise ModelFormatError("calibration_log holds non-finite values")
        log.append(NoiseCalibration(
            sensitivity=sensitivity, sigma=sigma,
            method=e["method"], target=e["target"],
        ))
    return PlsModel(
        W=W, P=P, c=c, b=b, k=k, x_means=x_means, y_mean=y_mean, T=None,
        privacy=privacy, calibration_log=log, early_stop=doc["early_stop"],
        rng_seed=doc["rng_seed"], rng_stream=doc["rng_stream"],
    )


def load_model(path) -> PlsModel:
    """Read a model written by :func:`save_model`.

    Raises ModelFormatError for anything else: invalid JSON, JSON nested
    too deeply to parse, missing keys, values of the wrong type, arrays
    whose shapes disagree with k and the channel count, non-finite numbers
    or integers beyond float range, a singular P^T W, or a b that differs
    from W (P^T W)^-1 c by more than 1e-8 of its norm (``_B_RTOL``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, deep nesting
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ModelFormatError(f"{path}: not a model file")
    if doc.get("version") != _VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {doc.get('version')}")
    missing = [key for key in _KEYS if key not in doc]
    if missing:
        raise ModelFormatError(f"{path}: missing keys {', '.join(missing)}")
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model: {exc}") from None
