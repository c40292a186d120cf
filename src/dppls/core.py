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
import json
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

@dataclass(eq=False)
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
        # Zero-row datasets are allowed structurally; operations that need
        # samples enforce their own minimum counts.
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

    ``target`` names which model quantity the noise was added to.
    """

    sensitivity: float
    sigma: float
    target: str

    def __post_init__(self):
        if self.sensitivity < 0:
            raise ArgumentError("sensitivity must be nonnegative")
        if self.sigma < 0:
            raise ArgumentError("sigma must be nonnegative")
        if self.target not in CALIBRATION_TARGETS:
            raise ArgumentError(f"target must be one of {CALIBRATION_TARGETS}")


@dataclass(eq=False)
class PlsModel:
    """A fitted PLS1 model, possibly privatized.

    W, P are m x k weight / x-loading matrices, c the length-k y-loading
    vector, b the length-m regression vector.  Released columns of W are
    unit length by construction.  No model holds training scores: b =
    W (P^T W)^-1 c reads none, and the clean ones stay on the path
    (:attr:`dppls.pls.NipalsPath.scores`).  ``calibration_log`` holds one
    entry per noisy release, in release order, scores included.
    """

    W: np.ndarray
    P: np.ndarray
    c: np.ndarray
    b: np.ndarray
    k: int
    x_means: np.ndarray
    y_mean: float
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


class _PhiloxKey:
    """A seed sequence that hands Philox the key ``[seed, stream_id]``.

    ``Philox(key=...)`` also builds an OS-entropy ``SeedSequence()`` that
    it never reads; given this object as its seed it builds none and
    takes the same key, at counter 0.  :meth:`generator` registers the
    class as an ``ISeedSequence`` on first use, so that importing dppls
    loads no ``numpy.random``; at module level, its generators pickle.
    """

    __slots__ = ("key",)
    registered = False

    def __init__(self, seed: int, stream_id: int):
        self.key = (seed, stream_id)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        """The key: Philox asks for its two 64-bit key words."""
        return np.array(self.key, dtype=np.uint64)

    @classmethod
    def generator(cls, seed: int, stream_id: int):
        """A Philox generator at counter 0 keyed by ``[seed, stream_id]``."""
        if not cls.registered:
            np.random.bit_generator.ISeedSequence.register(cls)
            cls.registered = True
        return np.random.Generator(np.random.Philox(cls(seed, stream_id)))


@dataclass
class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Wraps the counter-based Philox bit generator keyed by the two words
    ``[seed, stream_id]`` at counter 0, which draws what
    ``Philox(key=np.array([seed, stream_id], dtype=np.uint64))`` draws (a
    key given as a list rounds words of 2^53 and above through float).
    Each logical task must derive its own stream via :meth:`derive`;
    streams are stateful and must not be shared.  Identical
    ``(seed, stream_id)`` pairs reproduce identical draw sequences.
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
        self._gen = _PhiloxKey.generator(self.seed, self.stream_id)

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

    def raw_words(self, size: int) -> np.ndarray:
        """The next ``size`` raw 64-bit words of the stream: the draws that
        :meth:`open_unit` maps, through :func:`open_unit_of`."""
        return self._gen.bit_generator.random_raw(size)

    def open_unit(self, size: int) -> np.ndarray:
        """Uniform draws strictly inside (0, 1): ``open_unit_of(raw_words(size))``."""
        return open_unit_of(self.raw_words(size))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        if not (high > low):
            raise ArgumentError("uniform requires high > low")
        return low + (high - low) * self._gen.random(size=size, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        if n < 0:
            raise ArgumentError("permutation length must be nonnegative")
        return self._gen.permutation(n)


def open_unit_of(words: np.ndarray) -> np.ndarray:
    """Raw 64-bit words mapped to uniforms strictly inside (0, 1), each
    word to one value.

    Uses 53-bit integers offset by half a step, so neither endpoint can
    occur and the inverse normal CDF below stays finite.  The integers
    are the top 53 bits of each word: the same values, from the same
    draws, as ``integers(0, 1 << 53, dtype=np.uint64)``, whose Lemire
    method rejects nothing for a power-of-two range.
    """
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


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
    """The polynomial with ``coeffs`` (constant term first) at x, by
    Horner's rule in one buffer."""
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        np.multiply(acc, x, out=acc)
        np.add(acc, c, out=acc)
    return acc


def norm_ppf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile function (inverse CDF), algorithm AS 241.

    Accepts values strictly inside (0, 1), NaN refused; vectorized.  The
    central formula runs over every value and the tail formulas overwrite
    the values with |p - 0.5| > 0.425; each value's result depends on
    that value alone.
    """
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ArgumentError("norm_ppf requires probabilities strictly inside (0, 1)")
    shape, p = p.shape, p.ravel()
    q = p - 0.5

    r = q * q
    np.subtract(0.180625, r, out=r)
    out = q * _poly(_PPND16_A, r)
    np.divide(out, _poly(_PPND16_B, r), out=out)

    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt, pt = q[tail], p[tail]
        r = np.where(qt < 0, pt, 1.0 - pt)
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
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# CSV and JSON I/O
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
        raise CsvFormatError(f"{path}: {exc}") from None
    if data.size == 0:
        raise CsvFormatError(f"{path}: no data rows")
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
                    raise CsvFormatError(f"{path}: line {lineno}: non-numeric value",
                                         line=lineno) from None
                if width is None:
                    width = len(cells)
                elif len(cells) != width:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: expected {width} columns, got {len(cells)}",
                        line=lineno,
                    )
        except UnicodeDecodeError:
            raise CsvFormatError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:  # e.g. a field over the size limit
            raise CsvFormatError(
                f"{path}: line {reader.line_num}: {exc}", line=reader.line_num,
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
            f"{path}: need at least 2 columns (response + 1 channel), got {ncols}"
        )
    if not (0 <= response_col < ncols):
        raise ArgumentError(
            f"response column {response_col} out of range for {ncols} columns"
        )
    # A copy of y, so that no view keeps ``data`` alive beside X.
    y = data[:, response_col].copy()
    X = np.delete(data, response_col, axis=1)
    return Dataset(X=X, y=y)


def save_matrix(path, X: np.ndarray, header: Optional[Sequence[str]] = None) -> None:
    """Write one row per line.  repr of a Python float is the shortest
    string that round-trips, so written files are lossless and byte-stable
    across runs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError("save_matrix expects a 2-d array")
    _write_rows(path, header, (row.tolist() for row in X))


def save_dataset(path, d: Dataset, header: bool = False) -> None:
    """Write a dataset with the response in the first column: the bytes
    :func:`save_matrix` writes for ``[y, X]``, without building that
    matrix."""
    names = ["y"] + [f"x{j}" for j in range(d.m)] if header else None
    _write_rows(path, names, ([y, *row.tolist()] for y, row in zip(d.y.tolist(), d.X)))


def _write_rows(path, header, rows) -> None:
    """Write the header line, if any, then each row of Python floats as one
    line.  Rows are formatted as they come, so a matrix is never held as
    Python floats all at once."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def save_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON with sorted keys, a one-space indent and
    a final newline: the layout of every JSON file dppls writes.  Floats
    take their shortest round-trip form, as in :func:`save_matrix`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
