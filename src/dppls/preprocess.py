"""Row-wise spectral preprocessing and train-fitted pipelines.

Three transforms plus centering:

* Savitzky-Golay smoothing/derivatives via exact least-squares polynomial
  kernels, with one-sided polynomial fits over the boundary windows so the
  output keeps the input width.
* Multiplicative scatter correction against a reference spectrum (the
  training column mean unless one is supplied).
* Adaptive iteratively reweighted baseline removal built on a Whittaker
  smoother with a banded difference penalty.

A :class:`Pipeline` of named steps fixes its one data-dependent state,
the training column mean (the MSC reference and the centering means), on
the training split only and replays it unchanged on later splits.  Its
leading steps with a config (sg, airpls) learn nothing and map each row
on its own, bit for bit, so :meth:`Pipeline.split` hands them out as row
steps that may run once over rows that later splits divide.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    NumericalError,
    ShapeError,
    StateError,
)


# ---------------------------------------------------------------------------
# Savitzky-Golay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SgConfig:
    window: int = 5
    polyorder: int = 2
    derivative: int = 1

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ArgumentError(f"window must be odd and >= 3, got {self.window}")
        if not (0 <= self.polyorder < self.window):
            raise ArgumentError(
                f"polyorder must satisfy 0 <= polyorder < window, got {self.polyorder}"
            )
        if not (0 <= self.derivative <= self.polyorder):
            raise ArgumentError(
                f"derivative must satisfy 0 <= derivative <= polyorder, "
                f"got {self.derivative}"
            )


def sg_kernel(cfg: SgConfig, offset: int = 0) -> np.ndarray:
    """Least-squares polynomial kernel evaluated ``offset`` channels from
    the window center.

    The kernel is in ascending channel order: dotting it with a window of
    the signal gives the fitted polynomial's ``derivative``-th derivative
    at that position (unit channel spacing).  offset=0 is the interior
    kernel; negative/positive offsets give the one-sided boundary kernels.
    """
    half = (cfg.window - 1) // 2
    if abs(offset) > half:
        raise ArgumentError(f"offset {offset} outside window half-width {half}")
    x = np.arange(cfg.window, dtype=float) - half
    A = np.vander(x, cfg.polyorder + 1, increasing=True)
    # Row j of pinv maps a window to the j-th polynomial coefficient.
    pinv = np.linalg.pinv(A)
    d = cfg.derivative
    kernel = np.zeros(cfg.window)
    for j in range(d, cfg.polyorder + 1):
        kernel += (factorial(j) // factorial(j - d)) * offset ** (j - d) * pinv[j]
    return kernel


def savitzky_golay(X: np.ndarray, cfg: SgConfig = SgConfig()) -> np.ndarray:
    """Apply the filter along each row, same output width.

    Interior points use the central kernel; the first and last half-window
    points re-fit the polynomial over the boundary window and evaluate it
    one-sidedly instead of shortening the output.  Each output row depends
    on its own input row alone, bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, m = X.shape
    if m < cfg.window:
        raise ShapeError(f"rows have {m} channels but the window needs {cfg.window}")
    half = (cfg.window - 1) // 2

    center = sg_kernel(cfg, 0)
    windows = np.lib.stride_tricks.sliding_window_view(X, cfg.window, axis=1)
    out = np.empty_like(X)
    out[:, half:m - half] = windows @ center

    left = np.stack([sg_kernel(cfg, i - half) for i in range(half)])
    right = np.stack([sg_kernel(cfg, i + 1) for i in range(half)])
    # BLAS sums a single row with another kernel, which rounds differently;
    # a second copy keeps it on the kernel of two or more rows, so every
    # output row is the same whichever rows come with it.
    E = X if n > 1 else np.repeat(X, 2, axis=0)
    out[:, :half] = (E[:, :cfg.window] @ left.T)[:n]
    out[:, m - half:] = (E[:, m - cfg.window:] @ right.T)[:n]
    return out


# ---------------------------------------------------------------------------
# multiplicative scatter correction
# ---------------------------------------------------------------------------

_MSC_SLOPE_TOL = 1e-12


def msc(X: np.ndarray, reference: np.ndarray | None = None) -> np.ndarray:
    """Regress each row on the reference and undo slope and intercept.

    Each row x is fit as x ~ a + b * reference by ordinary least squares
    and replaced with (x - a) / b.  Without an explicit reference the
    column mean of X is used.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, m = X.shape
    if reference is None:
        if n < 2:
            raise DegenerateInputError(
                "mean reference needs at least 2 rows; pass a reference explicitly"
            )
        reference = X.mean(axis=0)
    reference = np.asarray(reference, dtype=float).ravel()
    if reference.shape[0] != m:
        raise ShapeError(
            f"reference has {reference.shape[0]} channels, rows have {m}"
        )
    ref_centered = reference - reference.mean()
    ref_var = float(ref_centered @ ref_centered)
    if ref_var <= 0.0:
        raise DegenerateInputError("reference spectrum is constant")

    slopes = (X @ ref_centered) / ref_var
    bad = np.abs(slopes) < _MSC_SLOPE_TOL
    if np.any(bad):
        row = int(np.argmax(bad))
        raise DegenerateInputError(
            f"row {row} has near-zero slope against the reference; "
            "scatter correction is undefined for it"
        )
    intercepts = X.mean(axis=1) - slopes * reference.mean()
    return (X - intercepts[:, None]) / slopes[:, None]


# ---------------------------------------------------------------------------
# airPLS baseline removal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AirPlsConfig:
    lam: float = 100.0
    max_iterations: int = 15
    diff_order: int = 1

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ArgumentError(f"lam must be positive, got {self.lam}")
        if self.max_iterations < 1:
            raise ArgumentError("max_iterations must be at least 1")
        if self.diff_order < 1:
            raise ArgumentError("diff_order must be at least 1")


_PENALTY_CACHE: dict = {}


def _penalty_bands(m: int, order: int) -> np.ndarray:
    """Upper banded form of D^T D for the ``order``-th difference matrix.

    The first r entries of superdiagonal row ``order - r`` are zero, so
    copies tiled side by side form a block-diagonal band."""
    key = (m, order)
    if key not in _PENALTY_CACHE:
        if m <= order:
            raise ShapeError(
                f"need more than {order} channels for a difference penalty, got {m}"
            )
        D = np.diff(np.eye(m), n=order, axis=0)
        DtD = D.T @ D
        ab = np.zeros((order + 1, m))
        for r in range(order + 1):
            ab[order - r, r:] = np.diagonal(DtD, offset=r)
        _PENALTY_CACHE[key] = ab
    return _PENALTY_CACHE[key]


def airpls_correct(X: np.ndarray, cfg: AirPlsConfig = AirPlsConfig()) -> np.ndarray:
    """Estimate and subtract a smooth baseline from each row.

    Iteratively reweighted Whittaker smoothing: each iteration solves
    (diag(w) + lam D^T D) z = w x for the baseline z; then points above
    z get weight zero and points below get weight
    exp(iteration * |d_i| / l1(d)), where d collects the negative
    residuals.  A row stops once l1(d) < 0.001 * l1(x), or once fewer
    than diff_order residuals are negative (an all-zero row, with none,
    comes back as zeros; with fewer, the next solve would be singular),
    and otherwise after max_iterations; it keeps the baseline of its last
    solve.  Returns the baseline-subtracted rows.

    Each iteration makes one banded Cholesky solve for all rows still
    iterating, stacked into one system of length n_active * m.  The
    stacked matrix is block diagonal: each row's band block has zero
    couplings to the next row's channels, so the factorisation and the
    triangular solves give every row exactly the numbers of its own
    solve.  The stopping test and the weights are computed per row, with
    each row's l1(d) summed over that row's own residuals, so the output
    equals solving each row on its own, bit for bit.
    """
    # Imported here so that only airPLS pipelines load scipy.
    from scipy.linalg import solveh_banded

    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("input contains NaN or infinite entries")
    n, m = X.shape
    baseline = np.zeros_like(X)
    if n == 0:
        return X - baseline
    band = cfg.lam * _penalty_bands(m, cfg.diff_order)
    abs_total = np.abs(X).sum(axis=1)
    active = np.arange(n)
    weights = np.ones_like(X)
    for iteration in range(1, cfg.max_iterations + 1):
        rows = X[active]
        ab = np.tile(band, active.size)
        ab[cfg.diff_order] += weights.ravel()
        try:
            z = solveh_banded(ab, (weights * rows).ravel(), lower=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"banded baseline solve failed: {exc}") from exc
        z = z.reshape(rows.shape)
        baseline[active] = z
        d = rows - z
        neg = d < 0
        counts = neg.sum(axis=1)
        absneg = np.abs(d[neg])
        # Summed row by row: a masked sum over the (rows, m) array pairs
        # the terms differently and moves l1(d) in the last bits.
        ends = np.cumsum(counts).tolist()
        dssn = np.array([absneg[s:e].sum() for s, e in zip([0] + ends[:-1], ends)])
        going = (dssn >= 0.001 * abs_total[active]) & (counts >= cfg.diff_order)
        if not going.any():
            break
        weights = np.zeros_like(d)
        weights[neg] = np.exp(iteration * absneg / np.repeat(dssn, counts))
        weights = weights[going]
        active = active[going]
    return X - baseline


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

# Every pipeline step by name: (argument types, config class, transform).
# Omitted arguments take the config class's defaults.  A step without a
# config class takes no arguments and learns the training column mean,
# which ``transform(X, cfg, mean)`` receives: msc's reference, center's
# means.  The transforms look the row functions up when they run.
_STEPS = {
    "sg": ((int, int, int), SgConfig, lambda X, cfg, mean: savitzky_golay(X, cfg)),
    "msc": ((), None, lambda X, cfg, mean: msc(X, mean)),
    "airpls": ((float, int, int), AirPlsConfig, lambda X, cfg, mean: airpls_correct(X, cfg)),
    "center": ((), None, lambda X, cfg, mean: X - mean),
}


class Step:
    """One named step of :data:`_STEPS` with its config.

    A step with a config is stateless.  A step without one learns the
    column mean of at least 2 training rows in :meth:`fit` and refuses
    to transform before that.
    """

    def __init__(self, name: str, cfg=None):
        self.name = name
        self.cfg = cfg
        self.mean = None

    def fit(self, X) -> "Step":
        if self.cfg is None:
            X = np.atleast_2d(np.asarray(X, dtype=float))
            if X.shape[0] < 2:
                raise DegenerateInputError(f"{self.name} needs at least 2 training rows")
            self.mean = X.mean(axis=0)
        return self

    def transform(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.cfg is None:
            if self.mean is None:
                raise StateError(f"{self.name} step used before fitting")
            if X.shape[1] != self.mean.shape[0]:
                raise ShapeError(
                    f"rows have {X.shape[1]} channels, training had {self.mean.shape[0]}"
                )
        return _STEPS[self.name][2](X, self.cfg, self.mean)


class Pipeline:
    """Ordered preprocessing steps with fit-on-train, replay-on-test
    semantics.  An empty pipeline is the identity; a pipeline with steps
    refuses rows holding NaN or infinite entries (DegenerateInputError).
    :meth:`split` separates the leading stateless steps, which may run
    once over all of a protocol's rows, from the steps fitted per split."""

    def __init__(self, steps=()):
        self.steps = list(steps)

    def split(self) -> tuple["Pipeline", "Pipeline"]:
        """(row steps, fitted steps): the leading steps with a config, and
        the rest from the first step without one.  A row step maps each
        row on its own, bit for bit, so running the row steps once and
        slicing equals running them per split."""
        cut = next((i for i, step in enumerate(self.steps) if step.cfg is None),
                   len(self.steps))
        return Pipeline(self.steps[:cut]), Pipeline(self.steps[cut:])

    def fit(self, X) -> "Pipeline":
        self.fit_transform(X)
        return self

    def _rows(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.steps and not np.all(np.isfinite(X)):
            raise DegenerateInputError("input contains NaN or infinite entries")
        return X

    def transform(self, X) -> np.ndarray:
        cur = self._rows(X)
        for step in self.steps:
            cur = step.transform(cur)
        return cur

    def fit_transform(self, X) -> np.ndarray:
        """Fit every step on the output of the steps before it and return
        the transformed rows; each step is fitted before its own transform,
        so this equals ``fit(X)`` followed by ``transform(X)``."""
        cur = self._rows(X)
        for step in self.steps:
            cur = step.fit(cur).transform(cur)
        return cur


def _parse_args(parts, what, types):
    """Convert spec arguments to ``types``; integer arguments must be
    integral."""
    if not types:
        raise ConfigurationError(f"{what} takes no arguments")
    if len(parts) != len(types):
        raise ConfigurationError(
            f"{what} takes {len(types)} arguments, got {len(parts)}"
        )
    values = []
    for text, kind in zip(parts, types):
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(f"{what}: non-numeric argument {text!r}") from None
        if kind is int:
            if not value.is_integer():
                raise ConfigurationError(f"{what}: argument {text!r} must be an integer")
            value = int(value)
        values.append(value)
    return values


def parse_pipeline(text: str) -> Pipeline:
    """Build a pipeline from a compact spec string.

    Steps are separated by ``|`` with colon-separated arguments, e.g.
    ``"sg:5,2,1|msc|airpls:100,15,1|center"``; :data:`_STEPS` lists the
    steps, their argument types and their defaults (``sg`` (5, 2, 1),
    ``airpls`` (100, 15, 1) when arguments are omitted).  airPLS's lambda
    is a float (``airpls:1e5,15,2``); every other argument must be an
    integral number.
    """
    text = text.strip()
    if not text:
        return Pipeline([])
    steps = []
    for token in text.split("|"):
        token = token.strip()
        if not token:
            raise ConfigurationError("empty pipeline step")
        name, _, argtext = token.partition(":")
        if name not in _STEPS:
            raise ConfigurationError(f"unknown pipeline step {name!r}")
        types, config, _ = _STEPS[name]
        args = [a for a in argtext.split(",") if a]
        values = _parse_args(args, name, types) if args else ()
        steps.append(Step(name, None if config is None else config(*values)))
    return Pipeline(steps)
