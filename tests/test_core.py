"""Containers, deterministic randomness, and CSV round-trips."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dppls.core import (
    Dataset,
    NoiseCalibration,
    PrivacyBudget,
    RngStream,
    gaussian_vector,
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
        NoiseCalibration(sensitivity=-1.0, sigma=1.0)
    with pytest.raises(ArgumentError):
        NoiseCalibration(sensitivity=1.0, sigma=-1.0)
    with pytest.raises(ArgumentError):
        NoiseCalibration(sensitivity=1.0, sigma=1.0, target="b")


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


def test_norm_ppf_median_is_zero():
    assert norm_ppf(np.array([0.5]))[0] == 0.0


@given(st.floats(min_value=0.05, max_value=0.49))
def test_norm_ppf_symmetry(p):
    # Central range only: in the tails the rounding of 1 - p is amplified
    # by 1/pdf, so exact antisymmetry is not a fair ask there (the scipy
    # oracle above covers the tails instead).
    lo, hi = norm_ppf(np.array([p, 1.0 - p]))
    assert lo < 0 < hi
    assert abs(lo + hi) <= 1e-13


def test_gaussian_vector_zero_sigma_consumes_no_draws():
    a = RngStream(11)
    b = RngStream(11)
    z = gaussian_vector(5, 0.0, a)
    np.testing.assert_array_equal(z, np.zeros(5))
    # a must still be draw-for-draw aligned with the untouched stream b.
    np.testing.assert_array_equal(a.open_unit(8), b.open_unit(8))


def test_gaussian_vector_deterministic_and_scaled():
    base = gaussian_vector(100, 1.0, RngStream(4))
    np.testing.assert_array_equal(base, gaussian_vector(100, 1.0, RngStream(4)))
    np.testing.assert_allclose(
        gaussian_vector(100, 2.5, RngStream(4)), 2.5 * base, rtol=1e-15,
    )


def test_gaussian_vector_moments():
    # 200k draws pin the sample std to within 1% of sigma.
    x = gaussian_vector(200_000, 3.0, RngStream(12345))
    assert abs(x.std() - 3.0) / 3.0 < 0.01
    assert abs(x.mean()) < 0.02


def test_gaussian_vector_validation():
    rng = RngStream(0)
    with pytest.raises(ArgumentError):
        gaussian_vector(0, 1.0, rng)
    with pytest.raises(ArgumentError):
        gaussian_vector(5, -1.0, rng)
    with pytest.raises(ArgumentError):
        gaussian_vector(5, float("nan"), rng)


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
