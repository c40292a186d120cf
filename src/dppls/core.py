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
channels in ascending order.  Each value is written as ``repr`` writes
it, the shortest decimal that reads back to the same float; the writers
make those bytes in numpy, a block of values at a time, with Schubfach's
integer algorithm on the float64 bit patterns (:func:`_shortest`), and
build each value's text as one fixed-width record of 64-bit words, its
digits left-aligned and the rest put in with masks and shifts
(:func:`_format`).
Files of finite values so written are read back in numpy too, with the
Eisel-Lemire algorithm on the exact decimal mantissas (:func:`_read_fast`),
others by numpy's ``loadtxt``; either way each cell gets the bits
``float()`` gives it.  Both directions rest on exact 64 x 64 -> 128-bit
products of uint64 arrays, made by the one :func:`_mul128`.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
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


def check_integer(name: str, value) -> None:
    """Refuse a count or index that is a bool or not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")


def check_number(name: str, value) -> None:
    """Refuse a parameter that is a bool or not an integer or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ArgumentError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget for one release."""

    epsilon: float
    delta: float

    def __post_init__(self):
        check_number("epsilon", self.epsilon)
        check_number("delta", self.delta)
        if not np.isfinite(self.epsilon):
            raise ArgumentError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon <= 0:
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
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
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
        on draw order.  An index that is a bool, not an integer or outside
        [0, 2^64) is refused, so no two indices share a stream by
        truncation or wrap-around.
        """
        child = _splitmix64(self.stream_id)
        for idx in indices:
            check_integer("derive index", idx)
            if not 0 <= idx < 2 ** 64:
                raise ArgumentError(
                    f"derive index must fit in an unsigned 64-bit integer, got {idx}")
            child = _splitmix64(child ^ _splitmix64(int(idx)))
        return RngStream(self.seed, child)

    def raw_words(self, size: int) -> np.ndarray:
        """The next ``size`` raw 64-bit words of the stream: the draws that
        :meth:`open_unit` maps, through :func:`open_unit_of`."""
        return self._gen.bit_generator.random_raw(size)

    def open_unit(self, size: int) -> np.ndarray:
        """Uniform draws strictly inside (0, 1): ``open_unit_of(raw_words(size))``."""
        return open_unit_of(self.raw_words(size))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """``size`` draws uniform on [low, high): low, high and the width
        high - low must be finite, and high above low."""
        if not all(map(math.isfinite, (low, high, float(high) - float(low)))):
            raise ArgumentError(
                f"uniform requires finite bounds and width, got low {low}, high {high}")
        if not (high > low):
            raise ArgumentError("uniform requires high > low")
        return low + (high - low) * self._gen.random(size=size, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ArgumentError(
                f"permutation length must be an integer, got {type(n).__name__}")
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

    A file in the grammar dppls writes for finite values is read by
    :func:`_read_fast`; any other file, from its first byte, by numpy's C
    ``loadtxt`` (:func:`_loadtxt`), which names the first faulty line of
    a file it refuses.  Both give each cell the bits ``float()`` gives it.
    """
    fast = _read_fast(path, header)
    return _loadtxt(path, header) if fast is None else fast[0]


def _loadtxt(path, header: bool) -> np.ndarray:
    """numpy's C reader over the whole file, in one call; it converts each
    cell with the C routine ``float()`` uses.  Only when it refuses the
    file does :func:`_raise_first_bad_line` scan it line by line, to name
    the first faulty line."""
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
    columns, in file order, become the rows of X: C-contiguous, beside a
    y that owns its memory.  The fast path (:func:`_read_fast`) fills both
    a chunk of rows at a time, with no whole-file block beside them.
    """
    fast = _read_fast(path, header, response_col)
    if fast is not None:
        return Dataset(X=fast[1], y=fast[0])
    data = _loadtxt(path, header)
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
    """Write one row per line, each value as ``repr`` writes it: the
    shortest string that reads back to the same float, so written files
    are lossless and byte-stable across runs.  :func:`_format` makes
    those bytes from the float64 bit patterns, a block at a time."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError("save_matrix expects a 2-d array")
    _write_csv(path, header, X.shape, lambda lo, hi: X[lo:hi])


def save_dataset(path, d: Dataset, header: bool = False) -> None:
    """Write a dataset with the response in the first column: the bytes
    :func:`save_matrix` writes for ``[y, X]``, with y put beside X one
    block of rows at a time."""
    names = ["y"] + [f"x{j}" for j in range(d.m)] if header else None
    _write_csv(path, names, (d.n, d.m + 1),
               lambda lo, hi: np.column_stack((d.y[lo:hi], d.X[lo:hi])))


# Values formatted per block.  A write holds at most about 180 bytes per
# value of a block at once (0.7 MiB at 4,096), whatever the matrix size.
_BLOCK = 4096


def _write_csv(path, header, shape, rows) -> None:
    """Write the header line, if any, then the ``shape`` matrix whose rows
    lo..hi ``rows(lo, hi)`` returns, in blocks of ``_BLOCK`` values;
    a block may end inside a row."""
    n, width = shape
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode("utf-8"))
        if not width:
            fh.write(b"\n" * n)
        for a in range(0, n * width, _BLOCK):
            b = min(a + _BLOCK, n * width)
            lo = a // width
            block = np.ascontiguousarray(rows(lo, -(-b // width)), dtype=np.float64).ravel()
            fh.write(_format(block[a - lo * width:b - lo * width].view(np.uint64), width, a))


# Shortest round-trip decimals in numpy: Giulietti's Schubfach ("The
# Schubfach way to render doubles", 2020) on uint64 arrays, laid out by
# Python's ``repr`` rules.  No float arithmetic runs on the values.
_M32 = 0xFFFFFFFF
_ZEROS = 0x3030303030303030  # eight ASCII zeros


def _mul128(a, b):
    """The high and low 64-bit words of the 128-bit products a b of uint64
    arrays, exact for any words: the partial sums t and w stay below 2^64.
    Both codecs use it: the writer for Schubfach's g (:func:`_shortest`),
    the reader for Eisel-Lemire's powers of five (:func:`_eisel_lemire`)."""
    a1, a0, b1, b0 = a >> 32, a & _M32, b >> 32, b & _M32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _M32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32), a * b


@functools.cache
def _format_tables():
    """Built on the first write, read-only: Schubfach's 126-bit g for
    10^-k, k in -324..292, as two uint64 rows, its high and its low 63 bits,
    which :func:`_mul128` takes whole; 10^0..10^17; per float64 exponent
    field, the digit count of that power of two and, for a word of ASCII
    digits less ``0``, the number of the digit in its highest nonzero byte
    when the word starts at the 2nd or the 10th digit; the ASCII of
    0000..9999 in the low half of a word; the masks and the word of
    :func:`_format`'s records for each layout class, significant digit
    count and sign; and the exponent suffixes with their separator,
    ``e-324,``..``e+308,``."""
    g = np.empty((2, 617), np.uint64)
    for k in range(-324, 293):
        e, sh = -k, 125 - ((-k * 913124641741) >> 38)
        x = (10 ** max(e, 0) << max(sh, 0)) // (10 ** max(-e, 0) << max(-sh, 0)) + 1
        g[:, k + 324] = x >> 63, x & _U64_MASK >> 1
    p10 = np.array([10 ** i for i in range(18)], dtype=np.int64)
    exponents = np.zeros((3, 1087), np.int8)
    exponents[0, 1023:] = [len(str(2 ** i)) for i in range(64)]
    exponents[1:, 1023:] = np.arange(64) // 8 + np.array([[2], [10]])
    ascii4 = np.zeros(10000, np.uint64)
    for j in range(4):
        ascii4 |= (np.arange(10000, dtype=np.uint64) // 10 ** (3 - j) % 10 + 48) << (8 * j)
    # Classes: decimal point position clipped to -4..17, plus 4; 22 inf,
    # 23 nan.  The point goes after the first p digits of the 17, and the
    # first `keep` bytes of digits and point stay.
    layouts = np.zeros((3, 24, 18, 2, 4), np.uint64)
    for c, nd, neg in np.ndindex(24, 18, 2):
        decpt = c - 4
        if c >= 22:
            p, keep, head = 17, 0, ("inf", "nan")[c - 22]
        elif 0 < decpt < 17:
            p, keep, head = decpt, max(nd, decpt + 1) + 1, ""
        elif -4 < decpt <= 0:
            p, keep, head = 17, nd, "0." + "0" * -decpt
        else:  # exponent form: the suffix brings the separator
            p, keep, head = 1, nd + (nd > 1), ""
        text = ("-" if neg and c != 23 else "") + head
        word = (int.from_bytes(text.encode(), "little") << 8 * (7 - len(text))
                | (0x2E << 8 * (7 + p) if p < keep else 0)
                | (0x2C << 8 * (7 + keep) if -4 < decpt < 17 or c >= 22 else 0))
        before, after = (1 << 8 * min(p, keep)) - 1, (1 << 8 * keep) - (1 << 8 * min(p + 1, keep))
        for t, v in enumerate((before << 56, after << 56, word)):
            layouts[t, c, nd, neg] = [v >> 64 * w & _U64_MASK for w in range(4)]
    layouts = layouts.reshape(3, -1, 4)
    suffixes = np.array([int.from_bytes(b"e%+03d," % x, "little") for x in range(-324, 309)],
                        np.uint64)
    for table in (g, p10, exponents, ascii4, layouts, suffixes):  # shared by every caller
        table.flags.writeable = False
    return g, p10, exponents, ascii4, layouts, suffixes


def _rop(hi, lo):
    """cp g / 2^127 rounded to odd, from the products of cp with g's high
    and low 63 bits as (high, low) word pairs: of the low product Schubfach's
    proof keeps only the high word."""
    z = (hi[1] >> 1) + lo[0]
    return hi[0] + (z >> 63) | (z << 1 != 0)


def _offset(prod, v, s, down):
    """The (high, low) words ``prod`` of a product v x, made those of
    v (x + 2^s), or with ``down`` of v (x - 2^s); s in 1..63."""
    high, low = prod
    vh, vl = v >> 64 - s, v << s
    if down:
        out = low - vl
        return high - vh - (out > low), out
    out = low + vl
    return high + vh + (out < low), out


def _shortest(bits):
    """Schubfach on float64 bit patterns: (f, e) with f 10^e the shortest
    decimal that rounds to each value, the closest one of that length, ties
    to an even last digit; f may end in zeros.  Zeros, infinities and NaNs
    give f = e = 0.  Python's ``repr`` also takes one-digit results, which
    Java's ``toString`` skips: so the one-digit-shorter candidates are
    tried at every length, which also covers Schubfach's narrowed interval
    for the subnormals with significand below 3 (5e-324 and 1e-323)."""
    g = _format_tables()[0]
    c = bits & (2 ** 52 - 1)
    q = (bits >> 52 & 0x7FF).astype(np.int64)
    special = (q == 0x7FF) | ((q == 0) & (c == 0))
    irregular = (c == 0) & (q > 1) & ~special
    c = np.where(q != 0, c | 2 ** 52, c)
    c[special] = 2 ** 52
    q = np.where(special, 0, np.maximum(q, 1) - 1075)
    tiny = c < 3
    c[tiny] *= 10
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    q += ((-k * 913124641741) >> 38) + 2
    h = q.view(np.uint64)
    cp = c << h + 2
    ghi, glo = g.take(k + 324, axis=1)
    hi, lo = _mul128(ghi, cp), _mul128(glo, cp)
    del cp
    # 4v and the ends of its rounding interval, cp + 2^(h+1) and cp - 2^(h+1)
    # (2^h for an irregular spacing), in units of 10^k.  The ends' products
    # are vb's plus or minus g shifted.
    vb = _rop(hi, lo)
    up = h + 1
    vbr = _rop(_offset(hi, ghi, up, False), _offset(lo, glo, up, False))
    up -= irregular
    vbl = _rop(_offset(hi, ghi, up, True), _offset(lo, glo, up, True))
    del hi, lo, ghi, glo
    out = c & 1
    s = vb >> 2
    st2 = (s << 1) + 1 << 1
    uin, win = vbl + out <= s << 2, (s + 1 << 2) + out <= vbr
    f = s + np.where(uin != win, win, (vb > st2) | ((vb == st2) & (s & 1 != 0)))
    sp10 = s // 10 * 10
    upin, wpin = vbl + out <= sp10 << 2, (sp10 + 10 << 2) + out <= vbr
    f = np.where(upin != wpin, (s // 10 + wpin) * 10, f).astype(np.int64)
    f[special] = 0
    return f, np.where(special, 0, k - tiny)


def _format(bits, width, start) -> bytes:
    """The bytes ``repr`` writes for each float64 bit pattern, each value
    followed by ``,`` or, at the end of a ``width``-value row, a newline;
    ``start`` is the index of the first value in the matrix.

    Each value is built as a 32-byte record of four uint64 words, bytes in
    text order.  Its shortest digits (:func:`_shortest`), left-aligned to
    17 as f 10^(17 - len f), go to bytes 7..23 in ASCII, four at a time.
    Its layout class (decimal point position, significant digits, sign)
    selects two masks and a word that move the digits after the point one
    byte on, cut those after the last significant one (but the 0 of
    ``.0``), and put in the sign and ``0.000`` zeros (ending at byte 6),
    the point and the separator; an exponent suffix is shifted in after
    the digits.  As in ``repr``, the exponent form is taken when the point
    falls 4 or more places before the first digit or more than 16 after
    it.  The records' other bytes are zero and are deleted."""
    _, p10, exponents, ascii4, layouts, suffixes = _format_tables()
    n = bits.size
    f, e = _shortest(bits)
    special = np.flatnonzero(f == 0)
    # f's digit count: its power of two's, or one more.  Below 2^53 the
    # float64 exponent is exact; above, no power of ten lies close enough
    # below a power of two for its rounding to matter.
    d = exponents[0].take(f.astype(np.float64).view(np.int64) >> 52)
    d += f >= p10.take(d)
    decpt = e + d
    f *= p10.take(17 - d)
    head = f // 10 ** 8  # the first 9 digits; f keeps the last 8
    f -= head * 10 ** 8
    first = head // 10 ** 8
    head -= first * 10 ** 8
    rec = np.empty((n, 4), np.uint64)
    np.left_shift(first.view(np.uint64) + 48, 56, out=rec[:, 0])
    rec[:, 3] = 0
    nd = np.ones(n, np.int64)
    for w, v in ((1, head), (2, f)):
        q = v // 10 ** 4
        v -= q * 10 ** 4
        np.bitwise_or(ascii4.take(q), ascii4.take(v) << 32, out=rec[:, w])
        # The highest byte of the word that is not ASCII 0 holds its last
        # significant digit.
        last = (rec[:, w] ^ _ZEROS).astype(np.float64).view(np.int64) >> 52
        np.maximum(nd, exponents[w].take(last), out=nd)
    del f, e, d, head, first, q, v, last  # before the records' temporaries
    c = np.clip(decpt, -4, 17)
    c += 4
    if special.size:  # zeros read 0.0 in class 4 (decpt 0); inf and nan get 22, 23
        t = bits[special]
        c[special] = np.where(t >> 52 & 0x7FF == 0x7FF, 22 + (t & 2 ** 52 - 1 != 0), 4)
    c *= 36  # the row of the layout tables: class, digit count, sign
    c += nd << 1
    c += (bits >> 63).view(np.int64)
    moved = np.empty_like(rec)  # the records' bytes, one place on
    moved.view(np.uint8).reshape(-1)[1:] = rec.view(np.uint8).reshape(-1)[:-1]
    rec &= layouts[0].take(c, axis=0)
    moved &= layouts[1].take(c, axis=0)
    rec |= moved
    del moved
    rec |= layouts[2].take(c, axis=0)
    x = np.flatnonzero((decpt < -3) | (decpt > 16))  # zeros, inf and nan have decpt 0
    if x.size:
        sfx = suffixes.take(decpt[x] + 323)
        at = nd[x] + (nd[x] > 1) + 7  # the record byte after the digits
        i = x * 4 + (at >> 3)
        shift = (at & 7).view(np.uint64) << 3
        words = rec.reshape(-1)
        words[i] |= sfx << shift
        # Past a record's last word only zero bits remain.
        i = np.minimum(i + 1, words.size - 1)
        words[i] |= sfx >> 64 - shift
    text = rec.view(np.uint8)  # a row's last value: its comma becomes a newline
    ends = np.arange((-start - 1) % width, n, width)
    last = text[ends]
    last[last == 44] = 10
    text[ends] = last
    return rec.tobytes().translate(None, b"\0")


# Correctly rounded decimals in numpy: the Eisel-Lemire algorithm
# (Lemire, "Number Parsing at a Gigabyte per Second", 2021) on the exact
# decimal mantissas of a CSV chunk, as uint64 arrays.  No float arithmetic
# runs on the values.

# Bytes read per step.  A chunk's temporaries peak at about 6 times its size;
# at 96 KiB they stayed resident, about 1 MiB more peak RSS on holders-10x.
_CHUNK = 1 << 16


@functools.cache
def _parse_tables():
    """Built on the first read, read-only: 5^q for q in -342..308,
    normalized to 128 bits and cut as in Lemire's fast_float, as two uint64
    rows (high and low word); each byte's token rank (0 ``,`` or newline,
    1 ``-``, 2 ``.``, 3 ``e``, 4 ``+``, 5 outside the grammar); and the
    allowed token steps."""
    t = np.empty((2, 651), np.uint64)
    for q in range(-342, 309):
        if q < 0:
            p = 5 ** -q
            z = (p - 1).bit_length()
            c = 2 ** (z + 127 if q >= -27 else 2 * z + 128) // p + 1
            c >>= max(c.bit_length() - 128, 0)
        else:
            c = 5 ** q << 128 >> (5 ** q).bit_length()
        t[:, q + 342] = c >> 64, c & _U64_MASK
    rank = np.full(256, 5, np.uint8)
    rank[list(b",\n-.e+")] = 0, 0, 1, 2, 3, 4
    # Indexed by previous rank << 4 | rank << 1 | (no digit in between):
    # a separator, point or e after digits, a sign right after a separator
    # (the line start counts as one), an exponent sign right after e.
    steps = np.zeros(96, bool)
    for cur, prevs, adjacent in ((0, (0, 1, 2, 4), 0), (1, (0,), 1), (2, (0, 1), 0),
                                 (3, (0, 1, 2), 0), (4, (3,), 1)):
        steps[np.array(prevs) << 4 | cur << 1 | adjacent] = True
    for table in (t, rank, steps):  # shared by every caller
        table.flags.writeable = False
    return t, rank, steps


def _eisel_lemire(w, q, neg):
    """The float64 bit patterns of (-1)^neg w 10^q, rounded to nearest,
    ties to even, and a mask of the values left to ``float()``: w at
    either int64 limit (where the parse saturates), q outside -342..308, and
    subnormal or overflowing results.  With the 128-bit table no other
    value needs a fallback (Mushtak and Lemire, "Fast Number Parsing
    Without Fallback", 2023).  Takes over w and q."""
    t = _parse_tables()[0]
    slow = (w == 2 ** 63 - 1) | (w < 0) | (q < -342) | (q > 308)
    np.minimum(np.maximum(q, -342, out=q), 308, out=q)
    w = w.view(np.uint64)
    zero = w == 0
    # w's leading zeros: 63 - e, for e the float64 exponent of w | 1 (w's
    # bit length less one, or one more where w rounded up to 2^e), and one
    # more where w < 2^e, a zero w included.
    e = ((w | 1).astype(np.float64).view(np.int64) >> 52) - 1023
    lz = 63 - e + (w >> e.view(np.uint64) == 0)
    del e
    w <<= lz.view(np.uint64)
    k = q + 342
    hi, lo = _mul128(w, t[0].take(k))
    # Only when the high word's low 9 bits are all ones can the second
    # product carry into the bits that rounding reads.
    i = (hi & 0x1FF == 0x1FF).nonzero()[0]
    if i.size:
        carry = _mul128(w[i], t[1].take(k[i]))[0]
        lo[i] += carry
        hi[i] += lo[i] < carry
    del w, k
    upper = hi >> 63
    p2 = (217706 * q >> 16) + 1086 + upper.view(np.int64) - lz
    slow |= (p2 <= 0) & ~zero
    upper += 9
    mant = hi >> upper
    # A product that dropped only zero bits is a tie, which goes to even.
    i = (lo <= 1).nonzero()[0]
    if i.size:
        tie = (q[i] >= -4) & (q[i] <= 23) & (mant[i] & 3 == 1) & (mant[i] << upper[i] == hi[i])
        mant[i[tie]] -= 1
    del hi, lo, upper
    mant += mant & 1
    mant >>= 1
    p2 += mant >> 53 == 1
    slow |= p2 >= 0x7FF
    mant &= 2 ** 52 - 1
    mant |= p2.view(np.uint64) << 52
    mant[zero] = 0
    mant |= neg.astype(np.uint64) << 63
    return mant, slow


def _decimals(data, cut, width):
    """The fields of ``data[:cut]``, whole lines, as exact decimals
    (-1)^neg w 10^q, and the row width; None when a byte leaves the
    grammar.  Width 0 takes the first line's.

    Only the non-digit bytes are looked at: their ranks and the digit
    counts between them check the grammar.  Then the integers, with the
    points deleted, are parsed in C; q is a field's exponent minus its
    digits after the point, and the signs of the mantissas are read from
    the text, so that ``-0`` keeps its bit."""
    rank, steps = _parse_tables()[1:]
    b = np.frombuffer(data, np.uint8, cut)
    # Token 0 stands for the line break before the chunk: position -1
    # reads the chunk's last byte, a newline.
    pos = np.concatenate(([-1], (b - 48 > 9).nonzero()[0]),
                         dtype=np.int32 if cut < 2 ** 31 else np.int64)
    c = b[pos]
    r = rank.take(c)
    step = pos[1:] - pos[:-1]  # one more than the digits before each token
    adjacent = step == 1
    prev, cur = r[:-1], r[1:]
    cur[(c[1:] == 45) & (prev == 3) & adjacent] = 4
    if not steps.take(prev << 4 | cur << 1 | adjacent).all():
        return None
    sep = (r == 0).nonzero()[0]
    newline = c[sep[1:]] == 10
    width = width or int(newline.argmax()) + 1
    if (newline.size % width or np.count_nonzero(newline) != newline.size // width
            or not newline[width - 1::width].all()):
        return None
    neg = r[sep[:-1] + 1] == 1
    # Each integer ends at a separator or an e; an exponent follows its
    # mantissa.
    ends = ((cur == 0) | (cur == 3)).nonzero()[0]
    before = prev[ends]
    q = np.where(before == 2, 1 - step[ends], 0).astype(np.int64)
    del pos, c, r, prev, cur, step, adjacent, sep  # before the text is copied
    text = data.replace(b".", b"").replace(b"\n", b",").replace(b"e", b",")
    ints = np.fromstring(text, np.int64, ends.size, sep=",")
    del text
    x = (before == 4).nonzero()[0]
    # A saturated exponent leaves q far out of range, wrapped or not.
    q[x - 1] += ints[x]
    mantissa = before != 4
    return np.abs(ints[mantissa]), q[mantissa], neg, width


def _read_fast(path, header: bool, response_col=None):
    """The file's matrix, or with ``response_col`` its response column and
    the rest, as a list of arrays; None when any line leaves the grammar
    dppls writes: fields ``-?D+(.D+)?(e[+-]D+)?``, ``,`` between them,
    a newline after each row, rows of equal width.

    The file is read in chunks of ``_CHUNK`` bytes, each cut after its
    last newline.  The outputs are sized from the bytes per row read so
    far, grown when short and trimmed at the end."""
    with open(path, "rb") as fh:
        if header:  # loadtxt would fail on its bytes or read it otherwise
            head = fh.readline().decode("utf-8", "replace")
            if '"' in head or "\r" in head or "\ufffd" in head:
                return None
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        outs, width, n, cap, done, carry = None, 0, 0, 0, 0, b""
        while True:
            data = carry + fh.read(_CHUNK)
            if len(data) == len(carry):
                break
            cut = data.rfind(b"\n") + 1
            carry = data[cut:]
            if not cut:
                continue
            fields = _decimals(data, cut, width)
            if fields is None:
                return None
            bits, slow = _eisel_lemire(*fields[:3])
            values = bits.view(np.float64)
            if slow.any():
                stops = np.flatnonzero(np.isin(np.frombuffer(data, np.uint8, cut), (44, 10)))
                for f in np.flatnonzero(slow):
                    values[f] = float(data[stops[f - 1] + 1 if f else 0:stops[f]])
            values = values.reshape(-1, fields[3])
            rows, width = values.shape
            done += cut
            if outs is None:
                if response_col is not None and not (width > 1 and 0 <= response_col < width):
                    return None  # loadtxt's path names the error
                outs = ([np.empty((0, width))] if response_col is None else
                        [np.empty(0), np.empty((0, width - 1))])
            if n + rows > cap:
                cap = max(n + rows, size * (n + rows) // done * 17 // 16 + 1)
                for out in outs:
                    out.resize((cap,) + out.shape[1:], refcheck=False)
            if response_col is None:
                outs[0][n:n + rows] = values
            else:  # X takes the columns on either side of y's
                outs[0][n:n + rows] = values[:, response_col]
                outs[1][n:n + rows, :response_col] = values[:, :response_col]
                outs[1][n:n + rows, response_col:] = values[:, response_col + 1:]
            n += rows
    if carry or not n:
        return None
    for out in outs:
        out.resize((n,) + out.shape[1:], refcheck=False)
    return outs


def save_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON with sorted keys, a one-space indent and
    a final newline: the layout of every JSON file dppls writes.  Floats
    take their shortest round-trip form, as in :func:`save_matrix`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
