"""Containers, deterministic randomness, and CSV round-trips."""

import csv
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import dppls.core as core_module
from dppls.core import (
    Dataset,
    NoiseCalibration,
    PrivacyBudget,
    RngStream,
    load_dataset,
    load_matrix,
    norm_ppf,
    save_dataset,
    save_matrix,
)
from dppls.errors import (
    ArgumentError,
    CsvFormatError,
    DegenerateInputError,
    ShapeError,
)
from dppls.pls import nipals_path


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_dataset_shape_validation():
    with pytest.raises(ShapeError):
        Dataset(X=np.zeros(4), y=np.zeros(4))
    with pytest.raises(ShapeError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
    with pytest.raises(ShapeError):
        Dataset(X=np.zeros((3, 0)), y=np.zeros(3))
    with pytest.raises(ShapeError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros((3, 1)))


def test_dataset_accepts_zero_rows():
    # Empty datasets are legal containers; they show up as concatenation
    # neutral elements.  Operations that need samples reject them later.
    d = Dataset(X=np.zeros((0, 5)), y=np.zeros(0))
    assert d.n == 0 and d.m == 5


@pytest.mark.parametrize("eps,delta", [
    (0.0, 0.01), (-1.0, 0.01), (float("nan"), 0.01), (float("inf"), 0.01),
    (1.0, 0.0), (1.0, 1.0), (1.0, -0.5), (1.0, 2.0),
])
def test_privacy_budget_rejects_bad_values(eps, delta):
    with pytest.raises(ArgumentError):
        PrivacyBudget(epsilon=eps, delta=delta)


def test_privacy_budget_is_frozen():
    b = PrivacyBudget(1.0, 0.01)
    with pytest.raises(AttributeError):
        b.epsilon = 2.0


def test_noise_calibration_validation():
    NoiseCalibration(sensitivity=1.0, sigma=2.0, target="weights")
    with pytest.raises(ArgumentError):
        NoiseCalibration(sensitivity=-1.0, sigma=1.0, target="weights")
    with pytest.raises(ArgumentError):
        NoiseCalibration(sensitivity=1.0, sigma=-1.0, target="weights")
    with pytest.raises(ArgumentError):
        NoiseCalibration(sensitivity=1.0, sigma=1.0, target="b")
    with pytest.raises(ArgumentError):
        NoiseCalibration(sensitivity=1.0, sigma=1.0, target=None)


def test_mean_center_rejects_nonfinite():
    # Centering happens inside nipals_path; a NaN feature is refused there.
    X = np.ones((3, 2))
    X[1, 1] = np.nan
    with pytest.raises(DegenerateInputError, match="NaN or infinite"):
        nipals_path(Dataset(X=X, y=np.arange(3.0)), 1)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def test_rng_same_key_same_sequence():
    a = RngStream(42, 7).open_unit(64)
    b = RngStream(42, 7).open_unit(64)
    np.testing.assert_array_equal(a, b)


def test_rng_distinct_streams_differ():
    a = RngStream(42, 0).open_unit(64)
    b = RngStream(42, 1).open_unit(64)
    c = RngStream(43, 0).open_unit(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_validation():
    with pytest.raises(ArgumentError):
        RngStream(-1)
    with pytest.raises(ArgumentError):
        RngStream(2 ** 64)
    with pytest.raises(ArgumentError):
        RngStream(1.5)


def test_derive_is_deterministic_and_order_sensitive():
    root = RngStream(5)
    assert root.derive(1, 2).stream_id == RngStream(5).derive(1, 2).stream_id
    assert root.derive(1, 2).stream_id != root.derive(2, 1).stream_id
    assert root.derive(0).stream_id != root.derive(1).stream_id
    # Deriving keeps the seed and changes only the stream id.
    child = root.derive(3)
    assert child.seed == 5


def test_derive_chain_matches_stepwise():
    root = RngStream(9)
    np.testing.assert_array_equal(
        root.derive(4, 8).open_unit(16),
        RngStream(9, root.derive(4, 8).stream_id).open_unit(16),
    )


def test_open_unit_stays_inside_interval():
    u = RngStream(0).open_unit(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_open_unit_equals_the_bounded_integer_reference():
    # The raw-bit draws equal integers(0, 2**53) from a generator on the
    # documented Philox key, bit for bit, with the stream's other draws
    # interleaved, over 400 random keys.
    keys = np.random.default_rng(13).integers(0, 2 ** 64, size=(400, 2), dtype=np.uint64)
    sizes = np.random.default_rng(14).integers(0, 40, size=(400, 3))
    for (seed, stream_id), counts in zip(keys.tolist(), sizes.tolist()):
        rng = RngStream(seed, stream_id)
        ref = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))
        )
        for count in counts:
            want = ref.integers(0, 1 << 53, size=count, dtype=np.uint64)
            got = rng.open_unit(count)
            np.testing.assert_array_equal(
                got.view(np.uint64),
                ((want.astype(np.float64) + 0.5) * (2.0 ** -53)).view(np.uint64),
            )
            np.testing.assert_array_equal(rng.uniform(0.0, 1.0, 3), ref.random(3))
            np.testing.assert_array_equal(rng.permutation(count), ref.permutation(count))


_U64 = st.integers(0, 2 ** 64 - 1)


@settings(deadline=None)
@given(seed=_U64, stream_id=_U64)
@example(seed=0, stream_id=0)
@example(seed=2 ** 64 - 1, stream_id=2 ** 64 - 1)
@example(seed=0, stream_id=2 ** 64 - 1)
@example(seed=2 ** 64 - 1, stream_id=0)
def test_a_stream_draws_what_philox_keyed_directly_draws(seed, stream_id):
    # The reference keys Philox through its key argument; the stream
    # hands it the same two words as a seed sequence.  A pickled copy
    # resumes the same draws.
    rng = RngStream(seed, stream_id)
    ref = np.random.Generator(
        np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    )

    def draws(gen):
        return (gen.open_unit(5), gen.uniform(0.0, 1.0, 4), gen.permutation(9))

    for got, want in zip(draws(rng), (
            (ref.integers(0, 1 << 53, size=5, dtype=np.uint64) + 0.5) * (2.0 ** -53),
            ref.random(4), ref.permutation(9))):
        np.testing.assert_array_equal(got, want)
    copy = pickle.loads(pickle.dumps(rng))
    assert (copy.seed, copy.stream_id) == (seed, stream_id)
    for got, want in zip(draws(copy), draws(rng)):
        np.testing.assert_array_equal(got, want)


@settings(deadline=None)
@given(seed=_U64, stream_id=_U64)
@example(seed=0, stream_id=0)
@example(seed=2 ** 64 - 1, stream_id=2 ** 64 - 1)
def test_raw_words_then_uniforms_then_a_permutation_draw_what_philox_draws(seed, stream_id):
    # Raw words, uniforms and permutations advance one Philox counter, in
    # either order of the first two.  A copy pickled between any two
    # draws resumes the same stream.
    raw = (lambda s: s.raw_words(7), lambda g: g.bit_generator.random_raw(7))
    uniform = (lambda s: s.uniform(0.0, 1.0, 4), lambda g: g.random(4))
    permutation = (lambda s: s.permutation(9), lambda g: g.permutation(9))
    for steps in ((raw, uniform, permutation), (uniform, raw, permutation)):
        ref = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))
        )
        want = [draw(ref) for _, draw in steps]
        for cut in range(len(steps) + 1):
            rng = RngStream(seed, stream_id)
            got = [step(rng) for step, _ in steps[:cut]]
            rng = pickle.loads(pickle.dumps(rng))
            got += [step(rng) for step, _ in steps[cut:]]
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


def test_uniform_range_and_validation():
    rng = RngStream(3)
    u = rng.uniform(2.0, 5.0, 1000)
    assert u.min() >= 2.0 and u.max() < 5.0
    with pytest.raises(ArgumentError):
        rng.uniform(1.0, 1.0, 10)
    # Infinite bounds, and finite bounds whose width overflows, are refused
    # before any draw: no nan, infinity or overflow warning comes back.
    for low, high in ((-np.inf, 0.0), (0.0, np.inf), (-1e308, 1e308), (np.nan, 1.0)):
        with pytest.raises(ArgumentError, match="finite bounds and width"):
            rng.uniform(low, high, 3)
    np.testing.assert_array_equal(rng.uniform(2.0, 5.0, 4), RngStream(3).uniform(2.0, 5.0, 1004)[1000:])


def test_permutation_is_a_permutation():
    p = RngStream(1).permutation(50)
    assert sorted(p.tolist()) == list(range(50))
    np.testing.assert_array_equal(p, RngStream(1).permutation(50))
    with pytest.raises(ArgumentError):
        RngStream(1).permutation(-1)
    # A length that is not an integer, or is a bool, is refused by name.
    for bad, name in ((3.5, "float"), (True, "bool"), (np.float64(3.0), "float64")):
        with pytest.raises(ArgumentError, match=f"must be an integer, got {name}"):
            RngStream(1).permutation(bad)
    np.testing.assert_array_equal(RngStream(1).permutation(np.int64(50)), p)


# ---------------------------------------------------------------------------
# inverse normal CDF and Gaussian sampling
# ---------------------------------------------------------------------------

def test_norm_ppf_matches_scipy_oracle():
    from scipy.stats import norm as scipy_norm

    p = np.concatenate([
        np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9]),
        np.linspace(0.01, 0.99, 197),
    ])
    ours = norm_ppf(p)
    ref = scipy_norm.ppf(p)
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_norm_ppf_rejects_boundaries():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ArgumentError):
            norm_ppf(np.array([bad]))


def test_norm_ppf_rejects_nan_and_keeps_empty_input():
    with pytest.raises(ArgumentError):
        norm_ppf(np.array([np.nan, 0.3]))
    empty = norm_ppf(np.empty(0))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_norm_ppf_median_is_zero():
    assert norm_ppf(np.array([0.5]))[0] == 0.0


@settings(deadline=None)
@given(st.floats(min_value=0.05, max_value=0.49))
def test_norm_ppf_symmetry(p):
    # Central range only: in the tails the rounding of 1 - p is amplified
    # by 1/pdf, so exact antisymmetry is not a fair ask there (the scipy
    # oracle above covers the tails instead).
    lo, hi = norm_ppf(np.array([p, 1.0 - p]))
    assert lo < 0 < hi
    assert abs(lo + hi) <= 1e-13


def _horner(coeffs, x):
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _masked_norm_ppf(p):
    """AS 241 with each branch gathered by a boolean mask and scattered
    back: the form norm_ppf had before it ran the central branch over the
    whole array in place."""
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _horner(core_module._PPND16_A, r) / _horner(core_module._PPND16_B, r)
    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt < 0, p[tail], 1.0 - p[tail])))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = _horner(core_module._PPND16_C, rn) / _horner(core_module._PPND16_D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            val[~near] = _horner(core_module._PPND16_E, rf) / _horner(core_module._PPND16_F, rf)
        out[tail] = np.where(qt < 0, -val, val)
    return out


def _neighbours(x, steps=4):
    """x and the ``steps`` floats on either side of it."""
    out = [x]
    below = above = x
    for _ in range(steps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        out += [below, above]
    return np.array(out)


def test_norm_ppf_equals_the_masked_reference_across_branch_switches():
    # r = sqrt(-log p) = 5 at p = exp(-25), where one step of p moves r by
    # far less than one step of r: spread by 1e-15 relative instead.
    far_low = np.exp(-25.0) * (1.0 + 1e-15 * np.arange(-20, 21))
    far_high = _neighbours(-np.expm1(-25.0))
    switches = np.concatenate([
        _neighbours(0.075), _neighbours(0.925), far_low, far_high,
        [2.0 ** -54, 1.0 - 2.0 ** -53, 0.5],
    ])
    for tail in (far_low, 1.0 - far_high):
        r = np.sqrt(-np.log(tail))
        assert np.any(r < 5.0) and np.any(r > 5.0)
    for central in (_neighbours(0.075), _neighbours(0.925)):
        q = np.abs(central - 0.5)
        assert np.any(q <= 0.425) and np.any(q > 0.425)

    p = np.concatenate([switches, RngStream(13).open_unit(100_000)])
    got = norm_ppf(p)
    np.testing.assert_array_equal(got, _masked_norm_ppf(p))
    # Each value's result does not depend on the rest of the batch.
    np.testing.assert_array_equal(
        got[:switches.size], [norm_ppf(np.array([v]))[0] for v in switches])


def test_gaussian_vector_deterministic_and_scaled():
    # A release's noise is sigma * norm_ppf(open_unit(n)) from its stream.
    base = norm_ppf(RngStream(4).open_unit(100))
    np.testing.assert_array_equal(base, norm_ppf(RngStream(4).open_unit(100)))
    np.testing.assert_allclose(
        2.5 * norm_ppf(RngStream(4).open_unit(100)), 2.5 * base, rtol=1e-15,
    )


def test_gaussian_vector_moments():
    # 200k draws pin the sample std to within 1% of sigma.
    x = 3.0 * norm_ppf(RngStream(12345).open_unit(200_000))
    assert abs(x.std() - 3.0) / 3.0 < 0.01
    assert abs(x.mean()) < 0.02


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def test_matrix_round_trip_is_lossless(tmp_path):
    X = np.array([[1 / 3, np.pi, -2.5e-17], [1e300, -1e-300, 0.1 + 0.2]])
    path = tmp_path / "m.csv"
    save_matrix(path, X)
    np.testing.assert_array_equal(load_matrix(path), X)


def test_dataset_round_trip_with_header(tmp_path):
    rng = RngStream(8)
    d = Dataset(X=rng.uniform(-1, 1, (6, 4)), y=rng.uniform(0, 1, 6))
    path = tmp_path / "d.csv"
    save_dataset(path, d, header=True)
    assert path.read_text().splitlines()[0] == "y,x0,x1,x2,x3"
    back = load_dataset(path, header=True)
    np.testing.assert_array_equal(back.X, d.X)
    np.testing.assert_array_equal(back.y, d.y)


def test_load_dataset_response_column_selection(tmp_path):
    path = tmp_path / "d.csv"
    save_matrix(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    d = load_dataset(path, response_col=1)
    np.testing.assert_array_equal(d.y, [2.0, 5.0])
    np.testing.assert_array_equal(d.X, [[1.0, 3.0], [4.0, 6.0]])
    with pytest.raises(ArgumentError):
        load_dataset(path, response_col=3)


def test_load_matrix_reports_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5,oops\n")
    with pytest.raises(CsvFormatError) as err:
        load_matrix(path)
    assert err.value.line == 3


def test_load_matrix_reports_ragged_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(CsvFormatError) as err:
        load_matrix(path)
    assert err.value.line == 2


def test_load_matrix_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        load_matrix(path)


def test_load_dataset_needs_two_columns(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(CsvFormatError):
        load_dataset(path)


def test_save_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ShapeError):
        save_matrix(tmp_path / "x.csv", np.zeros(3))


def _reference_save_matrix(path, X, header=None):
    """The writer that turned the whole matrix into Python floats before
    writing; it stays here as the oracle for the bytes of save_matrix."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in np.asarray(X, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _reference_save_dataset(path, d, header=False):
    """The dataset writer that stacked ``[y, X]`` into one matrix first."""
    names = ["y"] + [f"x{j}" for j in range(d.m)] if header else None
    _reference_save_matrix(path, np.column_stack([d.y, d.X]), header=names)


_WRITER_VALUES = [-0.0, 5e-324, 1e-5, 1e16, np.nan, np.inf, -np.inf]


@st.composite
def _written_dataset(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.one_of(st.sampled_from(_WRITER_VALUES), st.floats(width=64))
    return (draw(hnp.arrays(np.float64, (n, m), elements=cells)),
            draw(hnp.arrays(np.float64, n, elements=cells)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_written_dataset(), header=st.booleans())
@example(case=(np.array([[-0.0]]), np.array([5e-324])), header=True)
@example(case=(np.array([[1e-5], [np.nan], [-np.inf]]), np.array([1e16, np.inf, -0.0])),
         header=False)
@example(case=(np.array([[np.inf, -0.0, 1e16, 5e-324, np.nan, 1e-5]]), np.array([np.nan])),
         header=True)
def test_writers_write_the_bytes_of_the_whole_matrix_writers(tmp_path, case, header):
    X, y = case
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    names = [f"c{j}" for j in range(X.shape[1])] if header else None
    save_matrix(got, X, header=names)
    _reference_save_matrix(want, X, header=names)
    assert got.read_bytes() == want.read_bytes()
    d = Dataset(X=X, y=y)
    save_dataset(got, d, header=header)
    _reference_save_dataset(want, d, header=header)
    assert got.read_bytes() == want.read_bytes()


def test_save_dataset_leaves_its_arrays_unchanged(tmp_path):
    rng = RngStream(4)
    d = Dataset(X=rng.uniform(-1, 1, (5, 3)), y=rng.uniform(0, 1, 5))
    X, y = d.X.copy(), d.y.copy()
    save_dataset(tmp_path / "d.csv", d, header=True)
    assert d.X.tobytes() == X.tobytes() and d.y.tobytes() == y.tobytes()


def _assert_writes_repr(tmp_path, X, header=None):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_matrix(got, X, header=header)
    _reference_save_matrix(want, X, header=header)
    assert got.read_bytes() == want.read_bytes()


def _binade_edges(ulps):
    """The first and last ``ulps`` bit patterns of every binade, subnormals
    and the non-finite exponent included, with both signs."""
    tops = np.arange(2048, dtype=np.uint64) << np.uint64(52)
    steps = np.arange(ulps, dtype=np.uint64)
    offsets = np.concatenate((steps, np.uint64(2 ** 52 - 1) - steps))
    bits = (tops[:, None] + offsets).ravel()
    return np.concatenate((bits, bits | np.uint64(1 << 63))).view(np.float64)


def test_save_matrix_writes_repr_on_a_million_raw_bit_patterns(tmp_path):
    # Raw words hold about 500 subnormals and 500 NaNs of assorted
    # payloads; zeros and infinities are set by hand.
    X = RngStream(27).raw_words(1_000_000).view(np.float64).reshape(10_000, 100)
    X[0, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    bits = X.view(np.uint64)
    exponents = bits >> np.uint64(52) & np.uint64(0x7FF)
    assert (exponents == 0).sum() > 300 and (exponents == 0x7FF).sum() > 300
    _assert_writes_repr(tmp_path, X)


def test_save_matrix_writes_repr_at_the_ends_of_every_binade(tmp_path):
    _assert_writes_repr(tmp_path, _binade_edges(24).reshape(-1, 96))


# Each value with the bytes repr gives it: halfway ties, where the layout
# changes form, around 2^53, and the smallest and largest subnormals.
_LAYOUT_EDGES = [
    (2.0 ** 50 + 0.25, "1125899906842624.2"), (2.0 ** 50 + 0.75, "1125899906842624.8"),
    (9999999999999998.0, "9999999999999998.0"), (1e16, "1e+16"),
    (0.0001, "0.0001"), (1e-05, "1e-05"), (1e22, "1e+22"), (1e23, "1e+23"),
    (2.0 ** 53 - 2, "9007199254740990.0"), (2.0 ** 53 - 1, "9007199254740991.0"),
    (2.0 ** 53, "9007199254740992.0"), (2.0 ** 53 + 2, "9007199254740994.0"),
    (2.0 ** 53 + 4, "9007199254740996.0"), (5e-324, "5e-324"), (1e-323, "1e-323"),
    (np.nextafter(2.0 ** -1022, 0), "2.225073858507201e-308"),
    (-0.0, "-0.0"), (-np.inf, "-inf"), (np.nan, "nan"), (123.0, "123.0"),
    (-1.5e300, "-1.5e+300"), (0.001234, "0.001234"),
]


@pytest.mark.parametrize("value,text", _LAYOUT_EDGES)
def test_save_matrix_writes_the_layout_edges_as_repr_does(tmp_path, value, text):
    assert repr(float(value)) == text
    path = tmp_path / "x.csv"
    save_matrix(path, np.array([[value, value]]))
    assert path.read_text() == f"{text},{text}\n"


def _decimal_layout(text):
    """The decimal point position and significant digit count of a repr:
    its value is 0.d1..dn 10^decpt."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    leading = len(digits) - len(digits.lstrip("0"))
    return len(whole) - leading + int(exponent or 0), len(digits.strip("0"))


def _layout_grid():
    """For each decimal point position -5..18 (both switches to the
    exponent form and every place of the point in 17 digits) and each
    significant digit count 1..17, the first float from 0.123..  10^decpt
    up whose repr has that layout."""
    values = []
    for decpt in range(-5, 19):
        for nd in range(1, 18):
            x = float(f"0.{'12345678912345678'[:nd]}e{decpt}")
            while _decimal_layout(repr(x)) != (decpt, nd):
                x = math.nextafter(x, math.inf)
            values.append(x)
    return np.array(values)


@pytest.mark.parametrize("block", [7, core_module._BLOCK])
def test_writers_write_every_decimal_layout_as_repr_does(tmp_path, monkeypatch, block):
    monkeypatch.setattr(core_module, "_BLOCK", block)
    values = _layout_grid()
    X = np.concatenate((values, -values)).reshape(-1, 17)
    texts = [[repr(float(v)) for v in row] for row in X]
    assert {_decimal_layout(t) for row in texts for t in row} == {
        (decpt, nd) for decpt in range(-5, 19) for nd in range(1, 18)}
    assert sum(t.startswith("-") for row in texts for t in row) == values.size
    want = "".join(",".join(row) + "\n" for row in texts)
    path = tmp_path / "x.csv"
    save_matrix(path, X)
    assert path.read_text() == want
    save_dataset(path, Dataset(X=X[:, 1:], y=X[:, 0]))
    assert path.read_text() == want


@pytest.mark.parametrize("block", [7, core_module._BLOCK])
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (9, 1), (3, 101), (29, 5)])
@pytest.mark.parametrize("header", [False, True])
def test_writers_write_repr_for_every_width_and_block(tmp_path, monkeypatch, block, shape,
                                                      header):
    # A 7-value block ends inside most rows.
    monkeypatch.setattr(core_module, "_BLOCK", block)
    values = np.array([value for value, _ in _LAYOUT_EDGES])
    X = np.resize(np.concatenate((values, RngStream(3).uniform(-2, 2, 50))), shape)
    names = [f"c{j}" for j in range(shape[1])] if header else None
    _assert_writes_repr(tmp_path, X, header=names)
    d = Dataset(X=X[:, 1:] if shape[1] > 1 else X, y=X[:, 0])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_dataset(got, d, header=header)
    _reference_save_dataset(want, d, header=header)
    assert got.read_bytes() == want.read_bytes()


def test_save_matrix_writes_an_empty_line_for_each_row_without_columns(tmp_path):
    _assert_writes_repr(tmp_path, np.zeros((3, 0)))
    _assert_writes_repr(tmp_path, np.zeros((3, 0)), header=[])


def test_save_matrix_round_trips_every_non_nan_class_bit_for_bit(tmp_path):
    X = _binade_edges(4)
    X = X[~np.isnan(X)].reshape(-1, 6)
    path = tmp_path / "x.csv"
    save_matrix(path, X)
    assert (load_matrix(path).view(np.int64) == X.view(np.int64)).all()


def test_save_matrix_holds_at_most_1_mib_while_writing(tmp_path):
    X = RngStream(2).uniform(-1, 1, (2000, 101))
    save_matrix(tmp_path / "warm.csv", X[:1])  # builds the tables
    tracemalloc.start()
    try:
        save_matrix(tmp_path / "x.csv", X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


@pytest.mark.parametrize("response_col", [0, 2, 3])
def test_load_dataset_y_holds_no_part_of_the_parsed_block(tmp_path, response_col):
    # A view would keep the whole parsed block alive beside X.  The file
    # as written takes the fast path, its CRLF copy the loadtxt path.
    M = np.arange(12.0).reshape(3, 4)
    fast, crlf = tmp_path / "d.csv", tmp_path / "crlf.csv"
    save_matrix(fast, M)
    crlf.write_bytes(fast.read_bytes().replace(b"\n", b"\r\n"))
    for path, takes_fast_path in ((fast, True), (crlf, False)):
        assert (core_module._read_fast(path, False) is not None) == takes_fast_path
        d = load_dataset(path, response_col=response_col)
        assert d.y.base is None
        assert not np.shares_memory(d.y, d.X)
        assert d.X.flags.c_contiguous
        np.testing.assert_array_equal(d.y, M[:, response_col])
        np.testing.assert_array_equal(d.X, np.delete(M, response_col, axis=1))


def _reference_load_matrix(path, header=False):
    """The per-line ``csv.reader`` + ``float()`` reader that load_matrix
    replaced; it stays here as the oracle for the values load_matrix
    returns."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if header and lineno == 1 or not cells:
                continue
            rows.append([float(c) for c in cells])
    return np.array(rows, dtype=float)


def _assert_same_bits(path, header=False):
    got, want = load_matrix(path, header=header), _reference_load_matrix(path, header)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1 + 0.2, 1e16, 1e-5, 1 / 3, np.pi]
# Cells that are not the shortest repr of their value: rounding ties,
# long digit strings, underflow and overflow.
_EDGE_CELLS = ["0.1e1", "1.000000000000000000000000001", "2.4703282292062328e-324",
               "2.4703282292062327e-324", "9007199254740993", "1e-400", "-1e400",
               "0." + "0" * 300 + "1", "123456789012345678901234567890e-30", "+.5", "5.",
               "1E5", "-0"]


def test_load_matrix_matches_reference_on_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(5).integers(0, 2 ** 64, size=(500, 8), dtype=np.uint64)
    X = bits.view(np.float64)
    X[:2] = np.resize(_EDGE_VALUES, (2, 8))
    path = tmp_path / "bits.csv"
    save_matrix(path, X)
    _assert_same_bits(path)
    np.testing.assert_array_equal(load_matrix(path), X)


@pytest.mark.parametrize("text,header", [
    (",".join(_EDGE_CELLS) + "\n" + ",".join(reversed(_EDGE_CELLS)) + "\n", False),
    ("nan,inf,-Infinity\nNaN,+inf,INFINITY\n-nan,1,2\n", False),
    ("y,x0,x1\n1,2,3\n4,5,6\n", True),
    ("1,2,3\n4,5,6\n", False),
    ("prediction\n1.5\n-2.25\n", True),
    ("1.5\n-2.25\n", False),
    ("1,2\r\n3,4\r\n", False),
    ("1,2\r3,4\r", False),
    ("\n1,2\n\n\n3,4\n\r\n5,6\n\n", False),
    ("y,x\n\n1,2\n\n3,4\n", True),
    (" 1 ,\t2\n3 , 4 \n", False),
    ('"1.5",2\n" -3e2 ","4"\n', False),
    ('"y","x"\n"1",2\n', True),
], ids=["edge-cells", "nan-inf", "header", "no-header", "one-column-header",
        "one-column", "crlf", "cr", "blank-lines", "header-blank-lines", "spaces",
        "quoted", "quoted-header"])
def test_load_matrix_matches_reference(tmp_path, text, header):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    _assert_same_bits(path, header)


def test_load_matrix_refuses_a_comment_line(tmp_path):
    path = tmp_path / "hash.csv"
    path.write_text("1,2\n# note\n3,4\n")
    with pytest.raises(CsvFormatError) as err:
        load_matrix(path)
    assert err.value.line == 2


@pytest.mark.parametrize("text,header", [("", False), ("\n\n", False),
                                         ("y,x0\n", True), ("y,x0\n\n", True)])
def test_load_matrix_refuses_no_data_without_a_warning(tmp_path, text, header):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_matrix(path, header=header)


def test_load_matrix_refuses_digit_separators(tmp_path):
    # float() reads "1_0" as 10.0; the documented grammar has no "_".
    path = tmp_path / "sep.csv"
    path.write_text("1,2\n1_0,3\n")
    with pytest.raises(CsvFormatError, match="1_0"):
        load_matrix(path)


def test_load_matrix_maps_csv_field_limit_to_csv_format_error(tmp_path):
    # An unterminated quote makes csv.reader's field run past its size
    # limit while the line scan looks for the faulty line.
    path = tmp_path / "quote.csv"
    path.write_text('1,2\n3,"4\n' + "5,6\n" * 40000)
    with pytest.raises(CsvFormatError, match="field larger than field limit"):
        load_matrix(path)


def test_load_matrix_reads_a_long_numeric_cell(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("1,0." + "0" * 150000 + "1\n2,3\n")
    np.testing.assert_array_equal(load_matrix(path), [[1.0, 0.0], [2.0, 3.0]])


def _floor_log2(x):
    """floor(log2 x) of a positive Fraction, exactly."""
    p, q = x.numerator, x.denominator
    t = p.bit_length() - q.bit_length()
    return t - ((p << max(-t, 0)) < (q << max(t, 0)))


def test_mul128_and_schubfach_table_are_exact():
    # The writer and the reader multiply with the one _mul128: its words are
    # those of the product in Python integers, for the edge words and for
    # random ones.
    edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]
    pairs = np.array([(a, b) for a in edges for b in edges], dtype=np.uint64)
    rng = np.random.default_rng(32)
    pairs = np.concatenate((pairs, rng.integers(0, 2 ** 64, (10 ** 5, 2), np.uint64,
                                                endpoint=False)))
    hi, lo = core_module._mul128(pairs[:, 0], pairs[:, 1])
    assert hi.dtype == lo.dtype == np.uint64
    want = [divmod(a * b, 2 ** 64) for a, b in pairs.tolist()]
    assert list(zip(hi.tolist(), lo.tolist())) == want
    # Schubfach's g for 10^-k is floor(10^-k 2^s) + 1 with s such that
    # 10^-k 2^s lies in [2^125, 2^126); the table keeps its high and low
    # 63 bits.
    g = core_module._format_tables()[0]
    assert g.shape == (2, 617)
    for k in range(-324, 293):
        v = Fraction(10) ** -k
        s = 125 - _floor_log2(v)
        x = math.floor(v * Fraction(2) ** s) + 1
        assert 2 ** 125 < x <= 2 ** 126
        assert (int(g[0, k + 324]), int(g[1, k + 324])) == (x >> 63, x & 2 ** 63 - 1), k


# ---------------------------------------------------------------------------
# the fast reader
# ---------------------------------------------------------------------------

def _write_rows(path, cells, width, header=None):
    """Rows of ``width`` cells, ``,`` between cells and a newline after
    each row, under an optional header line."""
    rows = [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    text = "".join(f"{row}\n" for row in ([header] if header is not None else []) + rows)
    path.write_bytes(text.encode())


def _assert_fast_reads_float(path, header=False):
    """The file takes the fast path, and load_matrix gives each cell the
    bits float() gives it."""
    assert core_module._read_fast(path, header) is not None
    _assert_same_bits(path, header)


def _finite(X):
    """X with the non-finite values made finite by clearing the top bit
    of their exponents."""
    bits = X.view(np.uint64)
    bits[~np.isfinite(X)] &= np.uint64(~(1 << 62) & (2 ** 64 - 1))
    return X


def test_fast_reader_reads_a_million_raw_bit_patterns(tmp_path):
    X = _finite(RngStream(28).raw_words(1_000_000).view(np.float64).reshape(10_000, 100))
    X[0, :2] = [0.0, -0.0]
    exponents = X.view(np.uint64) >> np.uint64(52) & np.uint64(0x7FF)
    assert (exponents == 0).sum() > 300 and np.isfinite(X).all()
    path = tmp_path / "raw.csv"
    save_matrix(path, X)
    _assert_fast_reads_float(path)
    assert (load_matrix(path).view(np.int64) == X.view(np.int64)).all()


def test_fast_reader_reads_the_ends_of_every_finite_binade(tmp_path):
    X = _binade_edges(24)
    path = tmp_path / "edges.csv"
    save_matrix(path, X[np.isfinite(X)].reshape(-1, 96))
    _assert_fast_reads_float(path)


def _random_decimals(rng, count):
    """Decimal strings of 1 to 25 digits in the fast grammar: a sign, a
    point and an exponent of up to 339 in size, each optional."""
    cells = []
    for _ in range(count):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 26))))
        point = int(rng.integers(1, len(digits))) if len(digits) > 1 and rng.random() < 0.7 else 0
        cell = digits[:point] + "." + digits[point:] if point else digits
        if rng.random() < 0.5:
            cell = "-" + cell
        if rng.random() < 0.6:
            cell += "e%+03d" % rng.integers(-339, 340)
        cells.append(cell)
    return cells


def test_fast_reader_reads_random_decimal_strings(tmp_path):
    path = tmp_path / "random.csv"
    _write_rows(path, _random_decimals(np.random.default_rng(28), 100_000), 10)
    _assert_fast_reads_float(path)


def _midpoint_cells(rng, count):
    """For random positive doubles, the 17- and 18-digit decimals just
    below and above the midpoint to the next double, and the midpoints
    whose exact expansion fits 19 digits (ties, which go to even)."""
    cells = []
    for b in rng.integers(1, 0x7FE << 52, count):
        lo, hi = (Fraction(float(np.int64(v).view(np.float64))) for v in (b, b + 1))
        mid = (lo + hi) / 2
        e10 = len(str(mid.numerator)) - len(str(mid.denominator))
        e10 -= mid < Fraction(10) ** e10
        for digits in (17, 18):
            k = e10 + 1 - digits
            scaled = mid / Fraction(10) ** k
            whole = scaled.numerator // scaled.denominator
            cells += [f"{whole}e{k:+d}", f"{whole + 1}e{k:+d}"]
    for b in rng.integers(0x430 << 52, 0x43E << 52, count):  # 2^49 .. 2^63
        lo, hi = (Fraction(float(np.int64(v).view(np.float64))) for v in (b, b + 1))
        mid = (lo + hi) / 2
        places = mid.denominator.bit_length() - 1
        text = str(mid.numerator * 5 ** places)
        if len(text) <= 19:
            cells.append(f"{text[:-places]}.{text[-places:]}" if places else text)
    return cells


def test_fast_reader_rounds_near_and_at_midpoints_as_float_does(tmp_path):
    cells = _midpoint_cells(np.random.default_rng(28), 4000)
    assert sum("e" not in c for c in cells) > 2000  # ties
    path = tmp_path / "midpoints.csv"
    _write_rows(path, cells[:len(cells) // 8 * 8], 8)
    _assert_fast_reads_float(path)


# Cells in the fast grammar that float() converts one by one: mantissas and
# exponents past the int64 limit, exponents past 10^+-342, and subnormal,
# underflowing and overflowing values; then zeros and the dotless forms
# repr writes, which the fast path converts.
_SLOW_CELLS = [
    "1" + "0" * 25, "9" * 20, "-12345678901234567890123", "0.000000000000000000000000001234",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "1e+99999999999999999999", "1e-99999999999999999999",
    "-0e+99999999999999999999", "1.5e+9223372036854775807", "1.5e-9223372036854775808",
    "0." + "0" * 30 + "1e+4611686018427387904", "1e-343", "1e+309",
    "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "4.9406564584124654e-324",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
    "1.7976931348623157e+308", "1.7976931348623158e+308", "1.7976931348623159e+308",
    "1e-400", "-1e+400", "-0.0", "0e+0", "-0", "1e+308", "1e-05", "1e+16", "123",
]


@pytest.mark.parametrize("width", [1, 5, len(_SLOW_CELLS)])
def test_fast_reader_leaves_out_of_range_cells_to_float(tmp_path, width):
    path = tmp_path / "slow.csv"
    cells = _SLOW_CELLS * width
    _write_rows(path, cells, width)
    _assert_fast_reads_float(path)
    got = load_matrix(path).ravel()
    assert np.signbit(got[cells.index("-0.0")]) and np.isinf(got[cells.index("-1e+400")])


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("width", [1, 3, 5])
def test_fast_reader_reads_across_chunk_boundaries(tmp_path, monkeypatch, chunk, header, width):
    # Seven-byte chunks end inside most cells, and the long cell makes a
    # line longer than several chunks.
    monkeypatch.setattr(core_module, "_CHUNK", chunk)
    cells = _random_decimals(np.random.default_rng(width), 60 * width)
    cells[7] = "-0.000" + "1234567890" * 6 + "e+17"
    path = tmp_path / "chunks.csv"
    _write_rows(path, cells, width, header="a,b" if header else None)
    _assert_fast_reads_float(path, header)


def test_fast_reader_restarts_through_loadtxt_on_a_late_nan(tmp_path, monkeypatch):
    # The last chunk holds the nan, after every earlier chunk was parsed.
    X = RngStream(5).uniform(-1, 1, (4000, 10))
    path = tmp_path / "late.csv"
    save_matrix(path, X)
    with open(path, "ab") as fh:
        fh.write(b"nan" + b",1.5" * 9 + b"\n")
    assert path.stat().st_size > 2 * core_module._CHUNK
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    got = load_matrix(path)
    assert calls == [1]
    _assert_same_bits(path)
    np.testing.assert_array_equal(got[:-1], X)
    assert np.isnan(got[-1, 0])


def _outcome(read, path, header):
    """What ``read(path, header)`` gives: the shape and bytes of the
    matrix, or the message and line of its CsvFormatError."""
    try:
        data = read(path, header)
    except CsvFormatError as exc:
        return str(exc), exc.line
    return data.shape, data.tobytes()


# Files outside the fast grammar, with their header flag.
_FALLBACK_FILES = {
    "quoted": ('"1.5",2\n3,4\n', False),
    "spaces": ("1, 2\n3,4\n", False),
    "crlf": ("1,2\r\n3,4\r\n", False),
    "cr": ("1,2\r3,4\r", False),
    "blank-line": ("1,2\n\n3,4\n", False),
    "leading-blank-line": ("\n1,2\n", False),
    "nan": ("1,nan\n3,4\n", False),
    "inf": ("1,2\n-inf,4\n", False),
    "plus": ("+5,2\n", False),
    "leading-point": (".5,2\n", False),
    "trailing-point": ("5.,2\n", False),
    "capital-e": ("1E+05,2\n", False),
    "unsigned-exponent": ("1e5,2\n", False),
    "digit-separator": ("1_0,2\n", False),
    "ragged": ("1,2\n3,4,5\n", False),
    "ragged-short": ("1,2,3\n4,5\n", False),
    "ragged-split": ("1,2\n3\n4\n", False),
    "header-quote": ('"y",x\n1,2\n', True),
    "header-quoted-newline": ('"y\n,x"\n1,2\n', True),
    "header-cr": ("y,x\r\n1,2\n", True),
    "header-not-utf8": ("y\xff,x\n1,2\n", True),
    "lone-minus": ("-,2\n", False),
    "space-before-separator": ("1 ,2\n", False),
    "trailing-separator": ("1,2,\n3,4,\n", False),
    "empty-field": ("1,,2\n3,4,5\n", False),
    "no-final-newline": ("1,2\n3,4", False),
    "comment": ("1,2\n# c\n", False),
    "empty": ("", False),
    "header-only": ("y,x\n", True),
    "zero-columns": ("\n\n", False),
    "double-point": ("1.2.3,4\n", False),
    "double-exponent": ("1e+2e+3,4\n", False),
    "exponent-point": ("1e+2.5,4\n", False),
    "minus-minus": ("--1,4\n", False),
    "minus-inside": ("1-2,4\n", False),
    "bare-exponent": ("1e+,4\n", False),
    "bom": ("\ufeff1,2\n", False),
}


@pytest.mark.parametrize("name", list(_FALLBACK_FILES))
def test_files_outside_the_grammar_read_as_loadtxt_reads_them(tmp_path, name):
    text, header = _FALLBACK_FILES[name]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("latin-1" if name == "header-not-utf8" else "utf-8"))
    assert core_module._read_fast(path, header) is None
    assert _outcome(load_matrix, path, header) == _outcome(core_module._loadtxt, path, header)


def test_fast_reader_reads_what_save_matrix_writes_in_every_layout(tmp_path):
    values = np.array([value for value, _ in _LAYOUT_EDGES if np.isfinite(value)])
    for header in (None, [f"c{j}" for j in range(values.size)]):
        path = tmp_path / "layouts.csv"
        save_matrix(path, np.vstack([values, -values]), header=header)
        _assert_fast_reads_float(path, header is not None)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fast_reader_holds_little_beside_its_output(tmp_path):
    # A 1.54 MiB matrix.  loadtxt peaked at 1.89 MiB on this file, and
    # load_dataset at 3.08 MiB with np.delete's copy.  The fast reader
    # holds its output, sized a sixteenth over, and one chunk's
    # temporaries: 2.13 and 2.16 MiB measured.
    path = tmp_path / "x.csv"
    save_matrix(path, RngStream(2).uniform(-1, 1, (2000, 101)))
    load_matrix(path)  # builds the tables
    assert core_module._read_fast(path, False) is not None
    assert _peak(lambda: load_matrix(path)) <= 2.2 * 2 ** 20
    assert _peak(lambda: load_dataset(path)) <= 2.2 * 2 ** 20
