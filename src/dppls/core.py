"""Core data containers, deterministic random streams, and file formats.

The types here are shared by every other module: datasets, fitted model
containers, privacy budgets, and per-release noise calibration records.
Randomness is funneled through :class:`RngStream`, a thin wrapper over the
counter-based Philox generator keyed by ``(seed, stream_id)``.  Gaussian
draws use a fixed, documented inverse-CDF transform so that identical
``(seed, stream_id)`` pairs reproduce identical sequences across platforms
and library versions.

CSV layout used throughout: one sample per line, UTF-8, ``.`` decimal,
``,`` separator, optional single header line, response in a designated
column (first by default) with the remaining columns the spectral
channels in ascending order.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, CsvFormatError, ShapeError

_U64_MASK = 0xFFFFFFFFFFFFFFFF

# Valid values for NoiseCalibration.target, in the order a release noises them.
CALIBRATION_TARGETS = ("weights", "scores", "x_loadings", "y_loading")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """A spectral regression dataset: X is n x m, y has length n.

    Rows are kept as given; :func:`dppls.pls.nipals_path` centers them.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ShapeError(f"X must be 2-d, got ndim={self.X.ndim}")
        if self.y.ndim != 1:
            raise ShapeError(f"y must be 1-d, got ndim={self.y.ndim}")
        if self.X.shape[0] != self.y.shape[0]:
            raise ShapeError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]} entries"
            )
        # Zero-row datasets are allowed structurally (they arise as neutral
        # elements of concatenation); operations that need samples enforce
        # their own minimum counts.
        if self.X.shape[1] < 1:
            raise ShapeError("X must have at least one column")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget for one release."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ArgumentError(f"epsilon must be positive, got {self.epsilon}")
        if not (0 < self.delta < 1):
            raise ArgumentError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class NoiseCalibration:
    """Record of one Gaussian release, calibrated analytically.

    ``target`` names which model quantity the noise was added to, or is
    None for ad-hoc calibrations outside a model fit.
    """

    sensitivity: float
    sigma: float
    target: Optional[str] = None

    def __post_init__(self):
        if self.sensitivity < 0:
            raise ArgumentError("sensitivity must be nonnegative")
        if self.sigma < 0:
            raise ArgumentError("sigma must be nonnegative")
        if self.target is not None and self.target not in CALIBRATION_TARGETS:
            raise ArgumentError(f"target must be one of {CALIBRATION_TARGETS}")


@dataclass
class PlsModel:
    """A fitted PLS1 model, possibly privatized.

    W, P are m x k weight / x-loading matrices, c the length-k y-loading
    vector, T the n x k training score matrix (None for models loaded from
    disk), b the length-m regression vector.  Released columns of W and T
    are unit length by construction.  ``calibration_log`` holds one entry
    per noisy release, in release order.
    """

    W: np.ndarray
    P: np.ndarray
    c: np.ndarray
    b: np.ndarray
    k: int
    x_means: np.ndarray
    y_mean: float
    T: Optional[np.ndarray] = None
    privacy: Optional[PrivacyBudget] = None
    calibration_log: list = field(default_factory=list)
    early_stop: bool = False
    rng_seed: Optional[int] = None
    rng_stream: Optional[int] = None

    @property
    def m(self) -> int:
        return self.b.shape[0]


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

def _splitmix64(z: int) -> int:
    """One round of the SplitMix64 mixing function (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Wraps the counter-based Philox bit generator.  Each logical task must
    derive its own stream via :meth:`derive`; streams are stateful and must
    not be shared.  Identical ``(seed, stream_id)`` pairs reproduce
    identical draw sequences.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, v in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(v, (int, np.integer)):
                raise ArgumentError(f"{name} must be an integer, got {type(v).__name__}")
            if not (0 <= int(v) < 2 ** 64):
                raise ArgumentError(f"{name} must fit in an unsigned 64-bit integer")
        self.seed = int(self.seed)
        self.stream_id = int(self.stream_id)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def derive(self, *indices: int) -> "RngStream":
        """Return a fresh stream for a subtask, keyed by integer indices.

        The child id is a SplitMix64 hash chain over (stream_id, indices),
        so the mapping is deterministic and documented rather than relying
        on draw order.
        """
        child = _splitmix64(self.stream_id)
        for idx in indices:
            child = _splitmix64(child ^ _splitmix64(int(idx) & _U64_MASK))
        return RngStream(self.seed, child)

    def open_unit(self, size: int) -> np.ndarray:
        """Uniform draws strictly inside (0, 1).

        Uses 53-bit integers offset by half a step, so neither endpoint can
        occur and the inverse normal CDF below stays finite.
        """
        r = self._gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
        return (r.astype(np.float64) + 0.5) * (2.0 ** -53)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        if not (high > low):
            raise ArgumentError("uniform requires high > low")
        return low + (high - low) * self._gen.random(size=size, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        if n < 0:
            raise ArgumentError("permutation length must be nonnegative")
        return self._gen.permutation(n)


# Coefficients of Wichura's algorithm AS 241 (PPND16): rational
# approximations to the standard normal quantile function, accurate to
# roughly 1e-16 relative error.  Used so Gaussian sampling depends only on
# the documented uniform bit stream, not on a library's sampler choice.
_PPND16_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND16_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND16_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND16_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND16_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND16_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, x):
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def norm_ppf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile function (inverse CDF), algorithm AS 241.

    Accepts values strictly inside (0, 1); vectorized.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ArgumentError("norm_ppf requires probabilities strictly inside (0, 1)")
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly(_PPND16_A, r) / _poly(_PPND16_B, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0, p[tail], 1.0 - p[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = _poly(_PPND16_C, rn) / _poly(_PPND16_D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            val[~near] = _poly(_PPND16_E, rf) / _poly(_PPND16_F, rf)
        out[tail] = np.where(qt < 0, -val, val)
    return out


def gaussian_vector(length: int, sigma: float, rng: RngStream) -> np.ndarray:
    """Sample a vector of iid N(0, sigma^2) entries from ``rng``.

    sigma = 0 returns the zero vector without consuming any draws, which
    keeps the no-noise code path draw-for-draw identical to a noisy path
    whose sigmas happen to be zero.
    """
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ArgumentError(f"length must be a positive integer, got {length}")
    if not np.isfinite(sigma) or sigma < 0:
        raise ArgumentError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return np.zeros(int(length))
    return sigma * norm_ppf(rng.open_unit(int(length)))


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def load_matrix(path, header: bool = False) -> np.ndarray:
    """Read a numeric CSV into an array, one sample per row.

    numpy's C reader parses the whole file in one call; it converts each
    cell with the C routine ``float()`` uses, so the values are the same
    bit for bit.
    Only when it refuses the file does :func:`_raise_first_bad_line` scan
    it line by line, to name the first faulty line.
    """
    # An open file, not the path: given a path, numpy would also
    # decompress .gz/.bz2/.xz files and fetch URLs.
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # An empty file is refused below, as "no data rows".
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", dtype=float, comments=None, quotechar='"',
                              skiprows=1 if header else 0, ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError included
        _raise_first_bad_line(path, header)
        raise CsvFormatError(f"{path}: {exc}", path=str(path)) from None
    if data.size == 0:
        raise CsvFormatError(f"{path}: no data rows", path=str(path))
    return data


def _raise_first_bad_line(path, header: bool) -> None:
    """Raise CsvFormatError for the first line that ``csv.reader`` and
    ``float()`` refuse, or that has another width than the first row;
    return if there is none (``1_0`` is such a cell: float() reads it,
    numpy's reader does not)."""
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, cells in enumerate(reader, start=1):
                if header and lineno == 1 or not cells:
                    continue
                try:
                    for c in cells:
                        float(c)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: non-numeric value",
                        path=str(path), line=lineno,
                    ) from None
                if width is None:
                    width = len(cells)
                elif len(cells) != width:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: expected {width} columns, got {len(cells)}",
                        path=str(path), line=lineno,
                    )
        except UnicodeDecodeError:
            raise CsvFormatError(f"{path}: not UTF-8 text", path=str(path)) from None
        except csv.Error as exc:  # e.g. a field over the size limit
            raise CsvFormatError(
                f"{path}: line {reader.line_num}: {exc}", path=str(path), line=reader.line_num,
            ) from None


def load_dataset(path, response_col: int = 0, header: bool = False) -> Dataset:
    """Read a CSV of samples where one column is the response.

    The response column (first by default) becomes y; the remaining
    columns, in file order, become the rows of X.
    """
    data = load_matrix(path, header=header)
    ncols = data.shape[1]
    if ncols < 2:
        raise CsvFormatError(
            f"{path}: need at least 2 columns (response + 1 channel), got {ncols}",
            path=str(path),
        )
    if not (0 <= response_col < ncols):
        raise ArgumentError(
            f"response column {response_col} out of range for {ncols} columns"
        )
    y = data[:, response_col]
    X = np.delete(data, response_col, axis=1)
    return Dataset(X=X, y=y)


def save_matrix(path, X: np.ndarray, header: Optional[Sequence[str]] = None) -> None:
    """Write one row per line.  repr of a Python float is the shortest
    string that round-trips, so written files are lossless and byte-stable
    across runs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError("save_matrix expects a 2-d array")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in X.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def save_dataset(path, d: Dataset, header: bool = False) -> None:
    """Write a dataset with the response in the first column."""
    data = np.column_stack([d.y, d.X])
    names = None
    if header:
        names = ["y"] + [f"x{j}" for j in range(d.m)]
    save_matrix(path, data, header=names)
