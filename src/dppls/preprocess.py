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

from .core import check_integer, check_number
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
        for name in ("window", "polyorder", "derivative"):
            check_integer(name, getattr(self, name))
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
    column mean of X is used.  Rows or a reference with NaN or infinite
    entries raise DegenerateInputError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("input contains NaN or infinite entries")
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
    if not np.all(np.isfinite(reference)):
        raise DegenerateInputError("reference contains NaN or infinite entries")
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
    out = X - intercepts[:, None]
    out /= slopes[:, None]
    return out


# ---------------------------------------------------------------------------
# airPLS baseline removal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AirPlsConfig:
    lam: float = 100.0
    max_iterations: int = 15
    diff_order: int = 1

    def __post_init__(self):
        check_number("lam", self.lam)
        check_integer("max_iterations", self.max_iterations)
        check_integer("diff_order", self.diff_order)
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ArgumentError(f"lam must be positive, got {self.lam}")
        if self.max_iterations < 1:
            raise ArgumentError("max_iterations must be at least 1")
        if self.diff_order < 1:
            raise ArgumentError("diff_order must be at least 1")


def _penalty_bands(m: int, order: int) -> np.ndarray:
    """Upper banded form of D^T D for the ``order``-th difference matrix D.

    Row i of D holds the difference stencil s in columns i .. i + order,
    so entry (j, j + off) of D^T D is the sum of s_a s_(a+off) over the
    rows i = j - a that cover both columns.  The entries are small
    integers, so the sums are exact."""
    if m <= order:
        raise ShapeError(
            f"need more than {order} channels for a difference penalty, got {m}"
        )
    s = np.diff(np.eye(order + 1), n=order, axis=0)[0]
    ab = np.zeros((order + 1, m))
    for off in range(order + 1):
        for a in range(order + 1 - off):
            ab[order - off, off + a:off + a + m - order] += s[a] * s[a + off]
    return ab


class _BandedSolver:
    """Solves (A + diag(w)) z = rhs for r systems at once, A fixed.

    A is the symmetric band matrix of bandwidth p in the upper form of
    :func:`_penalty_bands` (``band[p - s, j]`` holds A[j - s, j]).  Each
    system, with entries a and pivots d, is solved by symmetric Gaussian
    elimination without pivoting (LDL^T): at channel j,
    l_s = a_(j, j+s) / d_j for s = 1 .. p, a_(j+s, j+t) -= l_s a_(j, j+t)
    for s <= t <= p, and b_(j+s) -= b_j l_s; then b /= d, and backwards
    b_j -= b_(j+s) l_s for s = 1 .. p.  At p = 1 these are LAPACK
    ``ptsv``'s steps in its order, each one IEEE operation, so every row
    gets the bits of ``scipy.linalg.solveh_banded`` on its own system.
    At larger p, LAPACK's ``pbsv`` takes a Cholesky route whose bits
    depend on its BLAS's fused multiply-adds; these steps give the same
    bits on every BLAS, within 4 eps cond(A) max |z| of LAPACK's (the
    tests' bound; at most 0.7 measured up to p = 4).

    The systems are stored channel-major (m x r) and step together: each
    step is one ufunc call over all r systems, written into a view of the
    solver's buffers.  Building the solver binds those views once, per
    channel and step, so every :meth:`solve` of r systems runs only the
    ufunc calls; a solver is built for one row count and kept while that
    count holds.
    """

    def __init__(self, band: np.ndarray, r: int):
        p, m = band.shape[0] - 1, band.shape[1]
        self.band = band
        # a[s, j] holds row j's entry s channels right of the diagonal, for
        # j + s < m.  No step updates the outermost band, so the rows share it.
        self.a = np.empty((p, m, r))
        self.b = np.empty((m, r))
        self.tmp = np.empty(r)
        A = [list(x) for x in self.a] + [list(np.broadcast_to(band[0, p:, None], (m - p, r)))]
        L = [None] + [list(x) for x in np.empty((p, m - 1, r))]
        B = list(self.b)
        # Per channel j, one step per s = 1 .. min(p, m - 1 - j), its width:
        # (a_(j, j+s), d_j, l_s, b_j, b_(j+s), and per t = s .. width the
        # (l_s, a_(j, j+t), a_(j+s, j+t)) of a_(j+s, j+t) -= l_s a_(j, j+t)).
        # Channels 0 .. m-1-p have width p; each later one has a width of
        # its own, one less than the channel before.
        self.steps = []
        for lo, hi, width in [(0, m - p, p)] + [(m - 1 - w, m - w, w) for w in range(p - 1, 0, -1)]:
            per_s = []
            for s in range(1, width + 1):
                updates = zip(*[zip(L[s][lo:hi], A[t][lo:hi], A[t - s][lo + s:hi + s])
                                for t in range(s, width + 1)])
                per_s.append(zip(A[s][lo:hi], A[0][lo:hi], L[s][lo:hi],
                                 B[lo:hi], B[lo + s:hi + s], updates))
            self.steps.extend(zip(*per_s))

    def solve(self, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The solutions z (m x r) of the systems with the given channel-
        major weights and right-hand sides, in the solver's own buffer,
        which the next solve overwrites.  A non-positive pivot raises
        NumericalError, as LAPACK does."""
        band, a, b, tmp = self.band, self.a, self.b, self.tmp
        p, m = a.shape[0], b.shape[0]
        np.add(weights, band[p, :, None], out=a[0])
        for s in range(1, p):
            a[s, :m - s] = band[p - s, s:, None]
        np.copyto(b, rhs)
        divide, multiply, subtract = np.divide, np.multiply, np.subtract
        # A non-positive pivot stays in a[0]; the steps after it may divide
        # by zero, so they run silenced and the pivots are checked at the end.
        with np.errstate(divide="ignore", invalid="ignore"):
            for channel in self.steps:
                for num, d, l, bj, bs, updates in channel:
                    divide(num, d, l)
                    for x, y, z in updates:
                        multiply(x, y, tmp)
                        subtract(z, tmp, z)
                    multiply(bj, l, tmp)
                    subtract(bs, tmp, bs)
            # Every b_j / d_j reads a b_j the backward steps have not
            # touched yet, so all of them are taken in one call.
            divide(b, a[0], b)
            for channel in reversed(self.steps):
                for _, _, l, bj, bs, _ in channel:
                    multiply(bs, l, tmp)
                    subtract(bj, tmp, bj)
        if not (a[0] > 0).all():
            j = int(np.flatnonzero(~(a[0] > 0).all(axis=1))[0])
            raise NumericalError(
                f"banded baseline solve failed: {j + 1}th leading minor not positive definite"
            )
        return b


def _solve_banded(band: np.ndarray, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + diag(weights[i])) z = rhs[i] for every row i, with a
    :class:`_BandedSolver` of its own; ``band`` is as there, and the
    weights, right-hand sides and solutions are row-major (r x m)."""
    return _BandedSolver(band, rhs.shape[0]).solve(weights.T, rhs.T).T


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of the consecutive segments of ``values``, ``counts[i]`` long,
    each with the bits of ``values[start:end].sum()``.

    ``np.add.reduceat`` adds a segment's first term outside the pairwise
    sum of the rest, which moves the last bits; the 0.0 put before every
    segment makes that first term zero and gives an empty segment 0.0.
    """
    starts = np.cumsum(counts) - counts
    return np.add.reduceat(np.insert(values, starts, 0.0), starts + np.arange(counts.size))


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

    Each iteration solves the systems of all rows still iterating at
    once with a :class:`_BandedSolver`, in numpy, at every diff_order.
    Those rows are kept channel-major from round to round, and one
    solver serves every round while none of them stops; it is rebuilt
    for the rows left when some do, and nothing outlives the call.  The
    stopping test and the weights are computed per row, with each row's
    l1(d) summed over that row's own residuals, so the output equals
    solving each row on its own, bit for bit.  A ``lam`` for which
    lam D^T D overflows raises ArgumentError, a row whose l1(x) overflows
    DegenerateInputError, and a ``lam`` so large that a system is not
    numerically positive definite NumericalError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("input contains NaN or infinite entries")
    n, m = X.shape
    if n == 0:
        return X.copy()
    with np.errstate(over="ignore"):
        band = cfg.lam * _penalty_bands(m, cfg.diff_order)
        abs_total = np.abs(X).sum(axis=1)
    if not np.isfinite(band).all():
        raise ArgumentError(
            f"lam {cfg.lam!r} overflows the order-{cfg.diff_order} difference penalty"
        )
    if not np.isfinite(abs_total).all():
        row = int(np.argmin(np.isfinite(abs_total)))
        raise DegenerateInputError(f"row {row} has an l1 norm beyond float range")
    # The rows still iterating, channel-major: column i is row active[i].
    active = np.arange(n)
    rows = X.T.copy()
    weights = np.ones_like(rows)
    baseline = np.zeros_like(rows)
    solver = None
    for iteration in range(1, cfg.max_iterations + 1):
        if solver is None:
            solver = _BandedSolver(band, active.size)
        try:
            z = solver.solve(weights, weights * rows)
        except NumericalError as exc:
            raise NumericalError(
                f"lam {cfg.lam!r} is too large for the order-{cfg.diff_order} difference "
                f"penalty; a smaller lam is needed ({exc})"
            ) from None
        baseline[:, active] = z
        d = rows - z
        neg = d < 0
        counts = neg.sum(axis=0)
        # Each row's negative residuals in channel order, one row after another.
        absneg = np.abs(d.T[neg.T])
        dssn = _segment_sums(absneg, counts)
        going = (dssn >= 0.001 * abs_total[active]) & (counts >= cfg.diff_order)
        if not going.any():
            break
        weights = np.zeros_like(d)
        weights.T[neg.T] = np.exp(iteration * absneg / np.repeat(dssn, counts))
        if not going.all():
            weights, rows, active = weights[:, going], rows[:, going], active[going]
            solver = None
    return X - baseline.T


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
    if "" in parts:
        raise ConfigurationError(f"{what}: empty argument")
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
    ``airpls`` (100, 15, 1) when the colon and arguments are omitted).
    An empty step or argument (``sg:5,,1``, ``sg:``) is refused.  airPLS's
    lambda is a float (``airpls:1e5,15,2``); every other argument must be
    an integral number.
    """
    text = text.strip()
    if not text:
        return Pipeline([])
    steps = []
    for token in text.split("|"):
        token = token.strip()
        if not token:
            raise ConfigurationError("empty pipeline step")
        name, colon, argtext = token.partition(":")
        if name not in _STEPS:
            raise ConfigurationError(f"unknown pipeline step {name!r}")
        types, config, _ = _STEPS[name]
        values = _parse_args(argtext.split(","), name, types) if colon else ()
        steps.append(Step(name, None if config is None else config(*values)))
    return Pipeline(steps)
