"""Containers, deterministic randomness, and CSV round-trips."""

import csv
import pickle
import tracemalloc
import warnings

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


def test_permutation_is_a_permutation():
    p = RngStream(1).permutation(50)
    assert sorted(p.tolist()) == list(range(50))
    np.testing.assert_array_equal(p, RngStream(1).permutation(50))
    with pytest.raises(ArgumentError):
        RngStream(1).permutation(-1)


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
    # A view would keep the whole parsed block alive beside X.
    path = tmp_path / "d.csv"
    save_matrix(path, np.arange(12.0).reshape(3, 4))
    d = load_dataset(path, response_col=response_col)
    assert d.y.base is None
    assert not np.shares_memory(d.y, d.X)
    np.testing.assert_array_equal(d.y, np.arange(12.0).reshape(3, 4)[:, response_col])


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
