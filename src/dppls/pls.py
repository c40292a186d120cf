"""PLS1 regression with optional per-component Gaussian privatization.

A fit has two stages.  :func:`nipals_path` centers the clean data and
runs the NIPALS recursion on it.  For every component it keeps the unit
weight vector w, the unit score vector t, the x-loadings p, the
y-loading c, and the sample suprema of the residuals the component was
extracted from.
Deflation uses only these clean quantities, so a path depends on the
training data alone: not on the noise, the budget or the final component
count.  One path therefore serves every fit of the same data.

:func:`release` turns the first k components of a path into a model.
With a privacy budget set, it releases noisy copies of each component's
weights, scores, x-loadings and y-loading, re-normalizes the weights and
scores to unit length, and solves for the regression vector from the
released quantities only.  Sensitivities come from each component's
residual suprema, and every calibration budgets the full (epsilon, delta)
for its own release.  A private release logs exactly four calibrations
per released component, in ``CALIBRATION_TARGETS`` order, and none for
a component the recursion stopped on: no noise is drawn for it.  The
path memoizes its calibrations per budget as one list, extended one
whole component at a time.

A release draws all its noise from its stream in one call: one vector of
uniforms, mapped to standard normals and cut into segments in the order
weights, scores, x-loadings, y-loading of component 1, then of component
2, and so on, each segment scaled by its release's sigma.  Releases with
sigma 0 take no draws.  Each Gaussian value consumes one word of the
stream and the normal transform works element by element, so this equals
drawing each release's noise in turn from the same stream, value for
value.

:func:`release_many` releases one path under many configs, and
:func:`release` is its one-config case.  Each config still draws its
uniforms from its own stream, in the same count as alone; the uniforms of
all configs are then concatenated, pass through one :func:`norm_ppf`
call, and are split back per config.  Because that transform is element
by element, every config gets the normals it would get alone, value for
value; one call only saves the per-call overhead.  Normalization, the
k x k solve and the model stay per config, and a config that fails gets
its own error without touching the others' draws.  :func:`fit` is
``release(nipals_path(d, cfg.k), cfg)``.

Note the intentional scale asymmetry inherited from the method: the
weight sensitivity is that of the unnormalized covariance E^T f, yet the
noise is added to the unit-normalized weight vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    CALIBRATION_TARGETS,
    Dataset,
    NoiseCalibration,
    PlsModel,
    PrivacyBudget,
    RngStream,
    norm_ppf,
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
    sample_bounds,
    sensitivity_for,
)

# Condition number beyond which the k x k loading system is treated as
# singular; roughly machine epsilon times a safety margin.
_COND_LIMIT = 1e12

DEFAULT_RESIDUAL_TOLERANCE = 1e-12


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
    A private release logs four calibrations per component it releases,
    and none for a component the recursion stopped on.
    """

    components: list
    x_means: np.ndarray
    y_mean: float
    n: int
    k_max: int
    # Per budget, the calibrations of the leading components, four each in
    # CALIBRATION_TARGETS order, filled one whole component at a time.
    _calibrations: dict = field(default_factory=dict, repr=False, compare=False)


def nipals_path(
    d: Dataset,
    k_max: int,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
) -> NipalsPath:
    """Run the clean NIPALS recursion for up to ``k_max`` components.

    This is where the data is centered; the means are kept on the path.
    The recursion stops early once the covariance norm or the score norm
    of the residuals drops below ``residual_tolerance``.  :func:`fit`,
    cross-validation and the sweep use the default; this argument is the
    only way to change it.
    """
    k_max = _check_depth(k_max)
    if residual_tolerance < 0:
        raise ArgumentError("residual_tolerance must be nonnegative")
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
    components = []
    for _ in range(k_max):
        cov = E.T @ f
        cov_norm = float(np.linalg.norm(cov))
        if cov_norm < residual_tolerance:
            break
        w = cov / cov_norm

        s = E @ w
        s_norm = float(np.linalg.norm(s))
        if s_norm < residual_tolerance:
            break
        t = s / s_norm
        bounds = sample_bounds(E, f)

        tt = float(t @ t)
        p = (E.T @ t) / tt
        c = float(f @ t) / tt
        E = E - np.outer(t, p)
        f = f - c * t
        components.append(PathComponent(w, t, p, c, bounds))

    return NipalsPath(components=components, x_means=x_means, y_mean=y_mean, n=n, k_max=k_max)


def _calibrate(path: NipalsPath, cfg: FitConfig) -> tuple:
    """Check cfg against the path; its calibration log and the number of
    standard normals its release takes."""
    if cfg.privacy is not None and cfg.rng is None:
        raise ConfigurationError("a privacy budget requires an rng stream")
    if cfg.k > path.k_max:
        raise ArgumentError(f"k={cfg.k} exceeds the path's {path.k_max} components")
    if cfg.privacy is None:
        return [], 0
    k = min(cfg.k, len(path.components))
    memo = path._calibrations.setdefault(cfg.privacy, [])
    for comp in path.components[len(memo) // 4:k]:
        # All four before storing any, so a failure memoizes no part of it.
        memo.extend([
            analytic_gaussian_sigma(sensitivity_for(target, comp.bounds), cfg.privacy, target)
            for target in CALIBRATION_TARGETS
        ])
    log = memo[:4 * k]
    if not np.all(np.isfinite([cal.sigma for cal in log])):
        raise ArgumentError("noise scales must be finite")
    m = path.x_means.shape[0]
    sizes = (m, path.n, m, 1)
    return log, sum(sizes[i % 4] for i, cal in enumerate(log) if cal.sigma != 0.0)


def _assemble(path: NipalsPath, cfg: FitConfig, log: list, z: np.ndarray) -> PlsModel:
    """cfg's model from its calibration log and its standard normals ``z``.

    Each component's w, t, p and c, in CALIBRATION_TARGETS order, gets
    sigma times the next segment of z, or no segment when sigma is 0;
    the noisy weights and scores are then scaled to unit length.
    """
    k = min(cfg.k, len(path.components))
    m = path.x_means.shape[0]
    W, T, P, c = np.empty((m, k)), np.empty((path.n, k)), np.empty((m, k)), np.empty(k)
    at = 0
    for j, comp in enumerate(path.components[:k]):
        released = []
        for i, clean in enumerate((comp.w, comp.t, comp.p, np.array([comp.c]))):
            sigma = log[4 * j + i].sigma if log else 0.0
            if sigma == 0.0:
                # Adding zeros keeps the clean values' signed zeros as a
                # zero-noise release always treated them.
                released.append(clean + 0.0)
            else:
                released.append(clean + sigma * z[at:at + clean.size])
                at += clean.size
        w, t, P[:, j], c[j:j + 1] = released
        W[:, j] = w / np.linalg.norm(w)
        T[:, j] = t / np.linalg.norm(t)

    return PlsModel(
        W=W, P=P, c=c, b=_solve_loading_system(W, P, c), k=k,
        x_means=path.x_means.copy(), y_mean=path.y_mean, T=T, privacy=cfg.privacy,
        calibration_log=log, early_stop=cfg.k > k,
        rng_seed=cfg.rng.seed if cfg.rng is not None else None,
        rng_stream=cfg.rng.stream_id if cfg.rng is not None else None,
    )


def release_many(path: NipalsPath, cfgs: Sequence[FitConfig]) -> list:
    """Release ``path`` once per config; one entry per config, in order:
    its model, or the DpplsError it raised.

    Each config draws its uniforms from its own stream, as
    :func:`release` would; all of them then pass through one
    :func:`norm_ppf` call.  A config that fails its checks, calibration or
    solve takes no draws from the others' streams and leaves their models
    unchanged.
    """
    out: list = [None] * len(cfgs)
    drawn = []
    for i, cfg in enumerate(cfgs):
        try:
            log, count = _calibrate(path, cfg)
            drawn.append((i, log, cfg.rng.open_unit(count) if count else np.empty(0)))
        except DpplsError as exc:
            out[i] = exc
    if not drawn:
        return out
    z = norm_ppf(np.concatenate([uniforms for _, _, uniforms in drawn]))
    at = 0
    for i, log, uniforms in drawn:
        try:
            out[i] = _assemble(path, cfgs[i], log, z[at:at + uniforms.size])
        except DpplsError as exc:
            out[i] = exc
        at += uniforms.size
    return out


def release(path: NipalsPath, cfg: FitConfig) -> PlsModel:
    """Release the first cfg.k components of ``path`` as a model.

    Without a privacy budget the clean quantities are released.  A path
    holding fewer than cfg.k components gives a model flagged as stopped
    early.
    """
    (result,) = release_many(path, [cfg])
    if isinstance(result, DpplsError):
        raise result
    return result


def fit(d: Dataset, cfg: FitConfig) -> PlsModel:
    """Fit a PLS1 model, privatized when cfg.privacy is set.

    The data is centered internally and the means stored on the model.
    Stops early, flagging the model, if a residual norm drops below
    ``DEFAULT_RESIDUAL_TOLERANCE`` before k components are extracted.
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
                "method": "analytic",
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

# Relative tolerance for a logged sigma against its recalibration: the
# bisection's own, so a file reloads wherever its sigmas were calibrated.
_SIGMA_RTOL = 1e-9

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


def _check_log(log: list, k: int, privacy, early_stop: bool) -> None:
    """A private model logs 4 releases per component, in CALIBRATION_TARGETS
    order, each with the analytic sigma of its sensitivity under the
    model's budget; a clean model logs none.  An early-stopped model may
    hold one more weights entry: earlier versions logged the calibration
    of the component the recursion stopped on."""
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
    for i, cal in enumerate(log):
        if cal.target != CALIBRATION_TARGETS[i % 4]:
            raise ModelFormatError(
                f"calibration_log entry {i} targets {cal.target!r}, "
                f"expected {CALIBRATION_TARGETS[i % 4]!r}"
            )
        try:
            want = analytic_gaussian_sigma(cal.sensitivity, privacy, cal.target).sigma
        except DpplsError as exc:
            raise ModelFormatError(
                f"calibration_log entry {i}: sigma cannot be recalibrated: {exc}"
            ) from None
        if abs(cal.sigma - want) > _SIGMA_RTOL * want:
            raise ModelFormatError(
                f"calibration_log entry {i} has sigma {cal.sigma!r}; its sensitivity "
                f"and the model's budget give {want!r}"
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
    for i, e in enumerate(doc["calibration_log"]):
        if e["method"] != "analytic":
            raise ModelFormatError(
                f"calibration_log entry {i} uses method {e['method']!r}, expected 'analytic'"
            )
        sensitivity, sigma = float(e["sensitivity"]), float(e["sigma"])
        if not (np.isfinite(sensitivity) and np.isfinite(sigma)):
            raise ModelFormatError("calibration_log holds non-finite values")
        log.append(NoiseCalibration(sensitivity=sensitivity, sigma=sigma, target=e["target"]))
    _check_log(log, k, privacy, doc["early_stop"])
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
    or integers beyond float range, a singular P^T W, a b that differs
    from W (P^T W)^-1 c by more than 1e-8 of its norm (``_B_RTOL``), or a
    calibration_log that does not match the model: entries without a
    privacy budget; with one, a count other than 4k (or 4k+1 when
    early_stop is true: files of earlier versions log the weights of the
    component the recursion stopped on), targets out of
    CALIBRATION_TARGETS order, a
    method other than "analytic", or a sigma more than 1e-9 relative
    (``_SIGMA_RTOL``) from the analytic sigma of the entry's sensitivity
    under the model's budget, which is 0 for sensitivity 0.
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
