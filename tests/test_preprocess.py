"""Savitzky-Golay, MSC, airPLS, and pipeline state handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solveh_banded

from dppls.core import RngStream
from dppls.datagen import simulate_two_holders
from dppls.errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    DpplsError,
    NumericalError,
    ShapeError,
    StateError,
)
from dppls.preprocess import (
    AirPlsConfig,
    SgConfig,
    Step,
    _STEPS,
    _BandedSolver,
    _penalty_bands,
    _segment_sums,
    _solve_banded,
    airpls_correct,
    msc,
    parse_pipeline,
    savitzky_golay,
    sg_kernel,
)


# ---------------------------------------------------------------------------
# Savitzky-Golay kernels
# ---------------------------------------------------------------------------

def test_sg_kernel_5_2_1_analytic_solution():
    # For window 5, order 2, first derivative, the least-squares solution
    # is the classic [-0.2, -0.1, 0, 0.1, 0.2] ramp.
    kernel = sg_kernel(SgConfig(5, 2, 1))
    np.testing.assert_allclose(kernel, [-0.2, -0.1, 0.0, 0.1, 0.2], atol=1e-12)


def test_sg_smoothing_kernel_sums_to_one():
    for window, order in ((5, 2), (7, 3), (9, 4)):
        k = sg_kernel(SgConfig(window, order, 0))
        assert np.sum(k) == pytest.approx(1.0, abs=1e-12)


def test_sg_derivative_kernel_annihilates_constants():
    for d in (1, 2):
        k = sg_kernel(SgConfig(7, 3, d))
        assert np.sum(k) == pytest.approx(0.0, abs=1e-12)


def test_sg_kernel_offset_validation():
    with pytest.raises(ArgumentError):
        sg_kernel(SgConfig(5, 2, 1), offset=3)


def test_sg_config_validation():
    with pytest.raises(ArgumentError):
        SgConfig(4, 2, 1)
    with pytest.raises(ArgumentError):
        SgConfig(1, 0, 0)
    with pytest.raises(ArgumentError):
        SgConfig(5, 5, 1)
    with pytest.raises(ArgumentError):
        SgConfig(5, 2, 3)


@pytest.mark.parametrize("make,kwargs,name", [
    (SgConfig, {"window": 5.0}, "window"),
    (SgConfig, {"polyorder": 1.5}, "polyorder"),
    (SgConfig, {"derivative": True}, "derivative"),
    (AirPlsConfig, {"lam": True}, "lam"),
    (AirPlsConfig, {"lam": "5"}, "lam"),
    (AirPlsConfig, {"max_iterations": True}, "max_iterations"),
    (AirPlsConfig, {"max_iterations": 2.5}, "max_iterations"),
    (AirPlsConfig, {"diff_order": True}, "diff_order"),
    (AirPlsConfig, {"diff_order": 1.5}, "diff_order"),
])
def test_configs_refuse_bools_and_non_integers_by_name(make, kwargs, name):
    # A bool would run as 0 or 1 and a fractional count would fail later
    # with a TypeError; both are refused when the config is made.
    with pytest.raises(ArgumentError, match=f"^{name} must be an? (integer|number), got "):
        make(**kwargs)


def test_configs_take_numpy_numbers():
    assert SgConfig(np.int64(7), np.int32(2), np.int64(1)) == SgConfig(7, 2, 1)
    assert AirPlsConfig(np.float64(1e3), np.int64(15), np.int64(2)) == AirPlsConfig(1e3, 15, 2)
    assert AirPlsConfig(lam=100) == AirPlsConfig()


def test_sg_constant_rows_have_zero_derivative():
    X = np.full((3, 20), 7.5)
    out = savitzky_golay(X, SgConfig(5, 2, 1))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_sg_reproduces_polynomials_everywhere():
    # A fit of the same order as the signal is exact, including at the
    # boundaries where one-sided kernels take over.
    x = np.arange(30, dtype=float)
    row = 2.0 - 3.0 * x + 0.25 * x ** 2
    out0 = savitzky_golay(row[None, :], SgConfig(5, 2, 0))[0]
    out1 = savitzky_golay(row[None, :], SgConfig(5, 2, 1))[0]
    out2 = savitzky_golay(row[None, :], SgConfig(5, 2, 2))[0]
    np.testing.assert_allclose(out0, row, atol=1e-9)
    np.testing.assert_allclose(out1, -3.0 + 0.5 * x, atol=1e-9)
    np.testing.assert_allclose(out2, 0.5, atol=1e-9)


def test_sg_is_linear():
    rng = RngStream(0)
    X = rng.uniform(-1, 1, (4, 25))
    Y = rng.uniform(-1, 1, (4, 25))
    cfg = SgConfig(7, 2, 1)
    lhs = savitzky_golay(2.5 * X - 1.5 * Y, cfg)
    rhs = 2.5 * savitzky_golay(X, cfg) - 1.5 * savitzky_golay(Y, cfg)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_sg_output_keeps_width():
    X = RngStream(1).uniform(-1, 1, (2, 40))
    assert savitzky_golay(X, SgConfig(9, 3, 1)).shape == (2, 40)


def test_sg_rejects_narrow_rows():
    with pytest.raises(ShapeError):
        savitzky_golay(np.zeros((2, 4)), SgConfig(5, 2, 1))


def test_sg_smooths_noise():
    rng = RngStream(2)
    x = np.arange(200, dtype=float)
    clean = np.sin(x / 15.0)
    noisy = clean + 0.1 * (rng.open_unit(200) - 0.5)
    smoothed = savitzky_golay(noisy[None, :], SgConfig(9, 2, 0))[0]
    assert np.std(smoothed - clean) < np.std(noisy - clean)


# ---------------------------------------------------------------------------
# multiplicative scatter correction
# ---------------------------------------------------------------------------

def _reference_spectrum(m=50):
    i = np.arange(m, dtype=float)
    return np.exp(-((i - 25) ** 2) / 60.0) + 0.3


def test_msc_leaves_reference_row_unchanged():
    ref = _reference_spectrum()
    rows = np.vstack([ref, 2.0 * ref + 5.0])
    out = msc(rows, reference=ref)
    np.testing.assert_allclose(out[0], ref, atol=1e-10)


def test_msc_inverts_affine_distortion():
    ref = _reference_spectrum()
    distorted = np.vstack([2.0 * ref + 5.0, 0.5 * ref - 1.0, -3.0 * ref + 2.0])
    out = msc(distorted, reference=ref)
    for row in out:
        np.testing.assert_allclose(row, ref, atol=1e-10)


def test_msc_outputs_have_unit_slope_zero_intercept():
    rng = RngStream(3)
    ref = _reference_spectrum()
    X = np.array([a * ref + b + 0.01 * rng.uniform(-1, 1, ref.size)
                  for a, b in ((1.5, 2.0), (0.7, -1.0), (2.2, 0.3))])
    out = msc(X, reference=ref)
    rc = ref - ref.mean()
    for row in out:
        slope = float(row @ rc) / float(rc @ rc)
        intercept = row.mean() - slope * ref.mean()
        assert slope == pytest.approx(1.0, abs=1e-10)
        assert intercept == pytest.approx(0.0, abs=1e-10)


def test_msc_idempotent_with_fixed_reference():
    rng = RngStream(4)
    ref = _reference_spectrum()
    X = rng.uniform(0.5, 2.0, (5, 1))[:, :1] * ref + rng.uniform(-1, 1, (5, 1))
    once = msc(X, reference=ref)
    twice = msc(once, reference=ref)
    np.testing.assert_allclose(twice, once, atol=1e-8)


def test_msc_default_reference_is_column_mean():
    rng = RngStream(5)
    X = rng.uniform(1, 2, (6, 30))
    np.testing.assert_array_equal(msc(X), msc(X, reference=X.mean(axis=0)))


def test_msc_degenerate_cases():
    ref = _reference_spectrum()
    with pytest.raises(DegenerateInputError, match="constant"):
        msc(np.ones((3, 10)), reference=np.ones(10))
    with pytest.raises(ShapeError):
        msc(np.ones((3, 10)), reference=np.ones(11))
    with pytest.raises(DegenerateInputError, match="at least 2 rows"):
        msc(ref[None, :])
    # A row orthogonal to the centered reference has slope zero.
    flat = np.vstack([ref, np.full(ref.size, 4.0)])
    with pytest.raises(DegenerateInputError, match="row 1"):
        msc(flat, reference=ref)
    # NaN fails both comparisons above, so non-finite entries are refused
    # before them: in a row, with the mean or a given reference, and in a
    # given reference.
    for bad in (np.nan, np.inf, -np.inf):
        X = np.vstack([ref, 2.0 * ref + 1.0])
        X[1, 3] = bad
        with pytest.raises(DegenerateInputError, match="input contains NaN or infinite"):
            msc(X)
        with pytest.raises(DegenerateInputError, match="input contains NaN or infinite"):
            msc(X, reference=ref)
        given = ref.copy()
        given[3] = bad
        with pytest.raises(DegenerateInputError, match="reference contains NaN or infinite"):
            msc(np.vstack([ref, 2.0 * ref + 1.0]), reference=given)


# ---------------------------------------------------------------------------
# airPLS baseline removal
# ---------------------------------------------------------------------------

def _peak(m=200, center=100.0, width=8.0, height=5.0):
    i = np.arange(m, dtype=float)
    return height * np.exp(-((i - center) ** 2) / (2 * width ** 2))


def test_airpls_flat_row_goes_to_zero():
    out = airpls_correct(np.full((2, 100), 3.0))
    np.testing.assert_allclose(out, 0.0, atol=1e-6)


def test_airpls_preserves_peak_on_zero_baseline():
    peak = _peak()
    out = airpls_correct(peak[None, :])[0]
    assert abs(out.max() - peak.max()) <= 0.05 * peak.max()
    assert np.max(np.abs(out - peak)) <= 0.05 * peak.max()


def test_airpls_removes_linear_ramp():
    # A first-difference penalty cannot follow a linear trend, so the ramp
    # oracle runs the second-order penalty whose null space contains
    # straight lines, with lambda large enough to enforce it.
    peak = _peak()
    i = np.arange(peak.size, dtype=float)
    x = peak + 0.05 * i + 2.0
    out = airpls_correct(x[None, :], AirPlsConfig(1e5, 15, 2))[0]
    assert np.max(np.abs(out - peak)) <= 0.05 * peak.max()


def test_airpls_baseline_stays_under_peaks():
    peak = _peak()
    out = airpls_correct(peak[None, :])[0]
    # corrected = x - z, so z exceeding x shows up as negative output.
    assert out.min() >= -0.01 * peak.max()


def test_airpls_rows_processed_independently():
    peak = _peak()
    flat = np.full_like(peak, 1.0)
    stacked = airpls_correct(np.vstack([peak, flat]))
    np.testing.assert_array_equal(stacked[0], airpls_correct(peak[None, :])[0])
    np.testing.assert_array_equal(stacked[1], airpls_correct(flat[None, :])[0])


def _dense_penalty_bands(m, order):
    """Upper banded form of D^T D, built from the dense difference matrix."""
    D = np.diff(np.eye(m), n=order, axis=0)
    DtD = D.T @ D
    ab = np.zeros((order + 1, m))
    for r in range(order + 1):
        ab[order - r, r:] = np.diagonal(DtD, offset=r)
    return ab


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_penalty_bands_equal_the_dense_construction_bit_for_bit(order):
    for m in range(order + 1, 301):
        assert _penalty_bands(m, order).tobytes() == _dense_penalty_bands(m, order).tobytes(), m
    with pytest.raises(ShapeError, match="more than"):
        _penalty_bands(order, order)


def _reference_airpls(X, cfg):
    """airPLS one row at a time: one banded solve per row per iteration,
    each a system of its own.

    Returns the corrected rows, the number of solves each row made and
    whether each row ran into max_iterations without stopping.
    """
    out = np.empty_like(X)
    solves, capped = [], []
    for i, x in enumerate(X):
        m = x.shape[0]
        weights = np.ones(m)
        abs_total = float(np.sum(np.abs(x)))
        for iteration in range(1, cfg.max_iterations + 1):
            band = cfg.lam * _dense_penalty_bands(m, cfg.diff_order)
            z = _solve_banded(band, weights[None], (weights * x)[None])[0]
            d = x - z
            neg = d < 0
            dssn = float(np.sum(np.abs(d[neg])))
            if dssn < 0.001 * abs_total or neg.sum() < cfg.diff_order:
                capped.append(False)
                break
            weights = np.zeros(m)
            weights[neg] = np.exp(iteration * np.abs(d[neg]) / dssn)
        else:
            capped.append(True)
        out[i] = x - z
        solves.append(iteration)
    return out, solves, capped


def _baseline_rows(n, m=120, seed=0):
    """Peaks of random height, place and width on random offsets and
    slopes, with random noise levels, so rows stop at different
    iterations."""
    rng = np.random.default_rng(seed)
    i = np.arange(m, dtype=float)
    centers = rng.uniform(20, m - 20, (n, 1))
    widths = rng.uniform(2, 10, (n, 1))
    peaks = rng.uniform(0.5, 5, (n, 1)) * np.exp(-((i - centers) ** 2) / (2 * widths ** 2))
    ramps = rng.uniform(-2, 2, (n, 1)) + rng.uniform(-0.03, 0.03, (n, 1)) * i
    return peaks + ramps + rng.uniform(0, 0.2, (n, 1)) * rng.normal(size=(n, m))


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("cfg", [AirPlsConfig(100.0, 15, 1), AirPlsConfig(1e5, 15, 2),
                                 AirPlsConfig(1e3, 10, 3)], ids=["order1", "order2", "order3"])
def test_airpls_equals_per_row_reference(n, cfg):
    X = _baseline_rows(n)
    want, _, _ = _reference_airpls(X, cfg)
    np.testing.assert_array_equal(airpls_correct(X, cfg), want)


@pytest.mark.parametrize("cfg,stop_counts,some_capped", [
    (AirPlsConfig(100.0, 15, 1), 3, False),
    (AirPlsConfig(1e3, 6, 3), 3, True),
    (AirPlsConfig(1e5, 1, 2), 1, True),
], ids=["staggered", "capped", "one"])
def test_airpls_rows_stopping_apart_equal_reference(cfg, stop_counts, some_capped):
    X = _baseline_rows(37, seed=1)
    want, solves, capped = _reference_airpls(X, cfg)
    assert len(set(solves)) >= stop_counts
    assert any(capped) == some_capped
    np.testing.assert_array_equal(airpls_correct(X, cfg), want)


def test_airpls_whose_active_rows_change_every_round_equals_reference():
    # On the seed-1 corpus at order 3 rows stop in every round, so every
    # round builds a solver for a new row count.
    X = np.vstack([d.X for d in simulate_two_holders(100, 100, RngStream(1))])
    cfg = AirPlsConfig(1e3, 15, 3)
    want, solves, _ = _reference_airpls(X, cfg)
    active = [sum(s >= i for s in solves) for i in range(1, max(solves) + 1)]
    assert active[0] == 200 and len(active) >= 6
    assert all(a > b for a, b in zip(active, active[1:]))
    np.testing.assert_array_equal(airpls_correct(X, cfg), want)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_airpls_of_a_lone_row_and_of_rows_with_a_zero_row_equals_reference(order):
    cfg = AirPlsConfig(10.0 ** (order + 1), 15, order)
    X = _baseline_rows(5, m=60, seed=order)
    X[2] = 0.0
    for rows in (X[:1], X):
        np.testing.assert_array_equal(airpls_correct(rows, cfg), _reference_airpls(rows, cfg)[0])
    np.testing.assert_array_equal(airpls_correct(X, cfg)[2], 0.0)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_reused_solver_gives_every_solve_the_bits_of_per_row_solves(order):
    # A solver keeps its buffers and bound steps from solve to solve; each
    # solve must still equal solving each row on its own, also when the
    # channels barely outnumber the bandwidth.
    rng = np.random.default_rng(order)
    for m in (order + 1, order + 2, order + 5, 40):
        band = 10.0 ** rng.uniform(0, 5) * _penalty_bands(m, order)
        solver = _BandedSolver(band, 3)
        for _ in range(3):
            weights = np.exp(rng.uniform(0.0, 8.0, (3, m)))
            weights[rng.uniform(size=(3, m)) < 0.5] = 0.0
            weights[:, :order + 1] = 1.0
            rhs = weights * rng.normal(size=(3, m))
            got = solver.solve(weights.T, rhs.T)
            for i in range(3):
                want = _solve_banded(band, weights[i:i + 1], rhs[i:i + 1])[0]
                assert got[:, i].tobytes() == want.tobytes(), (m, i)


def test_airpls_row_with_too_few_negative_residuals_keeps_its_last_baseline():
    # After its fourth solve this row has a single negative residual, so a
    # fifth solve under a second-order penalty would be singular.
    X = _baseline_rows(6, m=40, seed=4529)
    cfg = AirPlsConfig(1e3, 15, 2)
    out = airpls_correct(X, cfg)
    np.testing.assert_array_equal(out[5], airpls_correct(X[5:], AirPlsConfig(1e3, 4, 2))[0])
    assert np.sum(out[5] < 0) == 1
    np.testing.assert_array_equal(out, _reference_airpls(X, cfg)[0])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_banded_solve_at_bandwidth_1_equals_solveh_banded_bit_for_bit(data):
    # airPLS's first-order systems: lam D^T D plus weights of which many
    # are exact zeros, against scipy's solve of each row's own system.
    m = data.draw(st.integers(2, 150), label="m")
    n = data.draw(st.integers(1, 40), label="rows")
    lam = data.draw(st.floats(1e-2, 1e8), label="lam")
    zeros = data.draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]), label="zero share")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    weights = np.exp(rng.uniform(0.0, 15.0, (n, m)))
    weights[rng.uniform(size=(n, m)) < zeros] = 0.0
    # Without any weight the system is singular; every airPLS row that
    # solves again keeps one.
    weights[np.arange(n), rng.integers(0, m, n)] = 1.0
    x = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    band = lam * _penalty_bands(m, 1)
    got = _solve_banded(band, weights, weights * x)
    for i in range(n):
        ab = band.copy()
        ab[1] += weights[i]
        want = solveh_banded(ab, weights[i] * x[i], lower=False)
        np.testing.assert_array_equal(got[i].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_banded_solve_is_within_eps_times_condition_of_solveh_banded(order):
    # At bandwidth 2 and more LAPACK's pbsv factors by Cholesky with its
    # BLAS's fused multiply-adds, so its bits cannot be matched; both
    # solvers are backward stable, so they differ by about eps cond(A)
    # max |z|.  Over 450 systems like these (orders 2-4, condition numbers
    # up to 9e15) the largest measured ratio was 0.7; the bound is 4.
    rng = np.random.default_rng(order)
    for _ in range(20):
        m = int(rng.integers(order + 1, 120))
        lam = 10.0 ** rng.uniform(-2, 8)
        weights = np.exp(rng.uniform(0.0, 15.0, (3, m)))
        weights[rng.uniform(size=(3, m)) < rng.choice([0.0, 0.5, 0.9])] = 0.0
        for w in weights:
            w[rng.choice(m, order + 1, replace=False)] = 1.0
        x = rng.normal(size=(3, m)) * 10.0 ** rng.uniform(-3, 3, (3, 1))
        band = lam * _penalty_bands(m, order)
        got = _solve_banded(band, weights, weights * x)
        D = np.diff(np.eye(m), n=order, axis=0)
        for i in range(3):
            ab = band.copy()
            ab[order] += weights[i]
            want = solveh_banded(ab, weights[i] * x[i], lower=False)
            cond = np.linalg.cond(lam * D.T @ D + np.diag(weights[i]))
            bound = 4 * np.finfo(float).eps * cond * np.max(np.abs(want))
            assert np.max(np.abs(got[i] - want)) <= bound


@pytest.mark.parametrize("diag,off", [
    ([[1.0, 1.0, 1.0]], [-2.0, 0.5]),    # the second pivot is -3
    ([[2.0, 2.0], [0.0, 1.0]], [-1.0]),  # the second row's first pivot is 0
    ([[1.0, 1.0, 2.0]], [-1.0, -1.0]),   # the second pivot is 0; inf and NaN follow
])
def test_tridiagonal_solve_refuses_a_non_positive_pivot_without_warnings(diag, off):
    diag = np.array(diag)
    band = np.zeros((2, diag.shape[1]))
    band[0, 1:] = off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="leading minor not positive definite"):
            _solve_banded(band, diag, np.ones_like(diag))


def test_banded_solve_refuses_an_indefinite_band_at_bandwidth_2_without_warnings():
    # Pivots 1 and 0.75, then 1 - 1.5^2 - 0.25^2 / 0.75 < 0: the third
    # leading minor, made indefinite by the second superdiagonal.
    band = np.array([[0.0, 0.0, 1.5, 0.0], [0.0, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="3th leading minor not positive definite"):
            _solve_banded(band, np.zeros((2, 4)), np.ones((2, 4)))


def test_airpls_whose_system_has_a_non_positive_pivot_exits_5(monkeypatch, tmp_path, capsys):
    # An indefinite penalty band makes the solve meet a negative pivot, at
    # first and at second order; the CLI ends with the numerical exit code.
    from dppls import cli, preprocess

    def indefinite(m, order):
        ab = np.zeros((order + 1, m))
        ab[order - 1, 1:], ab[order] = -3.0, 1.0
        return ab

    monkeypatch.setattr(preprocess, "_penalty_bands", indefinite)
    np.savetxt(tmp_path / "x.csv", _baseline_rows(4, m=60), delimiter=",")
    for spec in ("airpls", "airpls:100,15,2"):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["preprocess", "--input", str(tmp_path / "x.csv"),
                             "--output", str(out), "--pipeline", spec])
        assert code == cli.EXIT_NUMERICAL == 5
        assert "leading minor not positive definite" in capsys.readouterr().err
        assert not out.exists()


@settings(deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=30),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_segment_sums_equal_each_slice_s_sum_bit_for_bit(counts, empty_last, seed):
    # Lengths past 8 and 128 reach numpy's unrolled and blocked pairwise
    # summation; a numpy whose reduceat sums in another order fails here.
    counts = np.array(counts + [0] * empty_last)
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(size=counts.sum())) * 10.0 ** rng.uniform(-8, 8, counts.sum())
    ends = np.cumsum(counts)
    want = np.array([values[e - c:e].sum() for c, e in zip(counts, ends)])
    got = _segment_sums(values, counts)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_airpls_of_no_rows_is_empty():
    for order in (1, 3):
        out = airpls_correct(np.empty((0, 50)), AirPlsConfig(diff_order=order))
        assert out.shape == (0, 50)


def test_airpls_all_zero_row_comes_back_as_zeros():
    X = np.vstack([_peak(), np.zeros(200), _peak() + 1.0])
    out = airpls_correct(X)
    np.testing.assert_array_equal(out[1], 0.0)
    np.testing.assert_array_equal(out[[0, 2]], airpls_correct(X[[0, 2]]))
    np.testing.assert_array_equal(out, _reference_airpls(X, AirPlsConfig())[0])


def test_airpls_validation():
    with pytest.raises(ArgumentError):
        AirPlsConfig(lam=0.0)
    with pytest.raises(ArgumentError):
        AirPlsConfig(max_iterations=0)
    with pytest.raises(ArgumentError):
        AirPlsConfig(diff_order=0)
    with pytest.raises(DegenerateInputError):
        airpls_correct(np.array([[1.0, np.nan, 2.0]]))
    with pytest.raises(ShapeError):
        airpls_correct(np.ones((1, 1)), AirPlsConfig(diff_order=2))
    # lam D^T D must be finite: its largest entry is 2 at order 1, 6 at 2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, order in ((1e308, 1), (1e308, 2), (3e307, 2)):
            with pytest.raises(ArgumentError, match="overflows the order"):
                airpls_correct(np.ones((1, 10)), AirPlsConfig(lam, 15, order))


def test_airpls_refuses_a_row_whose_l1_norm_overflows():
    # l1(x) of each row is near 1e307, finite: corrected without a warning,
    # bit for bit as one row at a time.  Row 2 scaled by 100 overflows it.
    X = _baseline_rows(4) * 1e305
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(airpls_correct(X),
                                      _reference_airpls(X, AirPlsConfig())[0])
        X[2] *= 100.0
        assert np.isfinite(X).all()
        with pytest.raises(DegenerateInputError,
                           match="^row 2 has an l1 norm beyond float range$"):
            airpls_correct(X)


@pytest.mark.parametrize("order, minor", [(1, 100), (2, 99)])
def test_airpls_whose_lam_is_too_large_names_lam(order, minor):
    # Weights near 1 drown in the rounding of lam D^T D at lam 1e16.
    X = simulate_two_holders(100, 100, RngStream(1))[0].X[:6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            airpls_correct(X, AirPlsConfig(1e16, 15, order))
    assert str(err.value) == (
        f"lam 1e+16 is too large for the order-{order} difference penalty; a smaller "
        f"lam is needed (banded baseline solve failed: {minor}th leading minor not "
        "positive definite)"
    )


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def test_empty_pipeline_is_identity():
    X = RngStream(6).uniform(-1, 1, (3, 10))
    pipe = parse_pipeline("")
    np.testing.assert_array_equal(pipe.fit_transform(X), X)
    np.testing.assert_array_equal(pipe.transform(X), X)


def test_pipeline_replays_msc_reference_on_test_rows():
    rng = RngStream(7)
    train = rng.uniform(1, 2, (8, 30))
    test = rng.uniform(1, 2, (4, 30))
    pipe = parse_pipeline("msc")
    pipe.fit(train)
    np.testing.assert_array_equal(pipe.transform(train), msc(train))
    # Test rows are corrected against the train mean, not their own.
    np.testing.assert_array_equal(
        pipe.transform(test), msc(test, reference=train.mean(axis=0)))
    assert not np.array_equal(pipe.transform(test), msc(test))


def test_pipeline_center_uses_train_means():
    rng = RngStream(8)
    train = rng.uniform(-1, 1, (10, 12))
    test = rng.uniform(5, 6, (4, 12))
    # Smoothing kernel, not a derivative: a derivative would erase the
    # constant shift this test uses to detect leaked test-set means.
    pipe = parse_pipeline("sg:5,2,0|center")
    pipe.fit(train)
    manual = savitzky_golay(test, SgConfig(5, 2, 0))
    manual = manual - savitzky_golay(train, SgConfig(5, 2, 0)).mean(axis=0)
    np.testing.assert_allclose(pipe.transform(test), manual, atol=1e-12)
    # Centered train rows average to zero; shifted test rows must not.
    assert np.max(np.abs(pipe.transform(train).mean(axis=0))) < 1e-12
    assert np.max(np.abs(pipe.transform(test).mean(axis=0))) > 1.0


def test_pipeline_fitted_state_ignores_test_rows():
    rng = RngStream(9)
    train = rng.uniform(1, 2, (6, 20))
    p1 = parse_pipeline("msc|center").fit(train)
    p2 = parse_pipeline("msc|center").fit(train)
    np.testing.assert_array_equal(p1.steps[0].mean, p2.steps[0].mean)
    np.testing.assert_array_equal(p1.steps[1].mean, p2.steps[1].mean)
    # Transforming different test rows never touches the fitted state.
    p1.transform(rng.uniform(5, 9, (3, 20)))
    np.testing.assert_array_equal(p1.steps[0].mean, p2.steps[0].mean)
    np.testing.assert_array_equal(p1.steps[1].mean, p2.steps[1].mean)


@pytest.mark.parametrize("spec", ["msc", "center", "sg:5,2,1|msc|center", "airpls|msc"])
def test_pipeline_and_msc_leave_their_inputs_bit_identical(spec):
    rng = RngStream(11)
    train, test = rng.uniform(1, 2, (6, 20)), rng.uniform(1, 2, (3, 20))
    ref = rng.uniform(1, 2, 20)
    kept = [a.copy() for a in (train, test, ref)]
    pipe = parse_pipeline(spec)
    pipe.fit_transform(train)
    pipe.transform(test)
    msc(test)
    msc(test, reference=ref)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((train, test, ref), kept))


@pytest.mark.parametrize("spec", ["center", "msc", "sg:5,2,1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pipeline_refuses_non_finite_rows(spec, bad):
    rows = RngStream(10).uniform(1, 2, (6, 12))
    pipe = parse_pipeline(spec).fit(rows)
    rows[4, 3] = bad
    with pytest.raises(DegenerateInputError, match="NaN or infinite"):
        pipe.transform(rows)
    with pytest.raises(DegenerateInputError, match="NaN or infinite"):
        parse_pipeline(spec).fit_transform(rows)
    # The empty pipeline is the identity and passes such rows through.
    np.testing.assert_array_equal(parse_pipeline("").fit_transform(rows), rows)


def test_unfitted_stateful_pipeline_refuses_transform():
    with pytest.raises(StateError):
        parse_pipeline("msc").transform(np.ones((2, 5)))
    with pytest.raises(StateError):
        parse_pipeline("center").transform(np.ones((2, 5)))
    with pytest.raises(StateError):
        Step("msc").transform(np.ones((2, 5)))
    with pytest.raises(StateError):
        Step("center").transform(np.ones((2, 5)))


@pytest.mark.parametrize("spec", ["msc", "center"])
def test_fitted_mean_step_refuses_other_channel_counts(spec):
    pipe = parse_pipeline(spec).fit(RngStream(11).uniform(1, 2, (5, 20)))
    with pytest.raises(ShapeError, match="training had 20"):
        pipe.transform(np.ones((2, 21)))


def test_stateless_pipeline_is_born_fitted():
    X = RngStream(10).uniform(-1, 1, (2, 15))
    out = parse_pipeline("sg:5,2,1").transform(X)
    np.testing.assert_array_equal(out, savitzky_golay(X, SgConfig(5, 2, 1)))


def test_parse_pipeline_defaults():
    pipe = parse_pipeline("sg|msc|airpls|center")
    assert [step.name for step in pipe.steps] == ["sg", "msc", "airpls", "center"]
    assert pipe.steps[0].cfg == SgConfig(5, 2, 1)
    assert pipe.steps[1].cfg is None
    assert pipe.steps[2].cfg == AirPlsConfig(100.0, 15, 1)
    assert pipe.steps[3].cfg is None


def test_parse_pipeline_explicit_arguments():
    pipe = parse_pipeline("sg:9,3,2|airpls:1000,10,2")
    assert pipe.steps[0].cfg == SgConfig(9, 3, 2)
    assert pipe.steps[1].cfg == AirPlsConfig(1000.0, 10, 2)


def test_parse_pipeline_rejects_garbage():
    with pytest.raises(ConfigurationError, match="unknown"):
        parse_pipeline("snv")
    with pytest.raises(ConfigurationError):
        parse_pipeline("sg:1,2")
    with pytest.raises(ConfigurationError):
        parse_pipeline("sg:a,b,c")
    with pytest.raises(ConfigurationError, match="no arguments"):
        parse_pipeline("msc:3")
    with pytest.raises(ConfigurationError, match="empty"):
        parse_pipeline("sg||center")
    for spec in ("sg:5,,2,1", "sg:5,2,1,", "airpls:,,,", "sg:"):
        with pytest.raises(ConfigurationError, match="empty argument"):
            parse_pipeline(spec)


def test_parse_pipeline_reads_airpls_lambda_as_float():
    pipe = parse_pipeline("airpls:1e5,15,2|center")
    assert pipe.steps[0].cfg == AirPlsConfig(1e5, 15, 2)
    assert parse_pipeline("airpls:2.5,3,1").steps[0].cfg == AirPlsConfig(2.5, 3, 1)


def test_parse_pipeline_rejects_fractional_integer_arguments():
    with pytest.raises(ConfigurationError, match="integer"):
        parse_pipeline("sg:5.5,2,1")
    with pytest.raises(ConfigurationError, match="integer"):
        parse_pipeline("airpls:100,2.5,1")
    with pytest.raises(ConfigurationError, match="integer"):
        parse_pipeline("sg:nan,2,1")
    assert parse_pipeline("sg:7.0,2,1").steps[0].cfg == SgConfig(7, 2, 1)


# Configs of every step that learns nothing: the row steps, which run
# once over all of a protocol's rows before the splits are taken.
_ROW_STEP_CONFIGS = {
    "sg": [SgConfig(5, 2, 1), SgConfig(3, 1, 0), SgConfig(7, 2, 1),
           SgConfig(9, 3, 2), SgConfig(11, 4, 4)],
    "airpls": [AirPlsConfig(100.0, 15, 1), AirPlsConfig(1e3, 15, 2),
               AirPlsConfig(1e4, 10, 2), AirPlsConfig(1e5, 4, 3)],
}


def test_every_config_bearing_step_is_checked_for_row_locality():
    stateless = {name for name, (_, config, _) in _STEPS.items() if config is not None}
    assert stateless == set(_ROW_STEP_CONFIGS)


@settings(deadline=None)
@given(st.data())
def test_row_steps_transform_every_row_on_its_own_bit_for_bit(data):
    name = data.draw(st.sampled_from(sorted(_ROW_STEP_CONFIGS)), label="step")
    cfg = data.draw(st.sampled_from(_ROW_STEP_CONFIGS[name]), label="cfg")
    n = data.draw(st.integers(1, 9), label="n")
    X = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale") * _baseline_rows(
        n, m=data.draw(st.integers(40, 90), label="m"),
        seed=data.draw(st.integers(0, 2 ** 16), label="seed"))
    keep = np.array(data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any), label="keep"))
    step = Step(name, cfg)
    whole, part = step.transform(X), step.transform(X[keep])
    np.testing.assert_array_equal(whole[keep].view(np.int64), part.view(np.int64))


@pytest.mark.parametrize("spec,row_names,fitted_names", [
    ("sg|msc|airpls|center", ["sg"], ["msc", "airpls", "center"]),
    ("airpls|sg:9,2,1|center", ["airpls", "sg"], ["center"]),
    ("sg|airpls", ["sg", "airpls"], []),
    ("center|sg", [], ["center", "sg"]),
    ("", [], []),
])
def test_split_puts_the_leading_config_bearing_steps_in_the_row_part(
        spec, row_names, fitted_names):
    pipe = parse_pipeline(spec)
    row_steps, fitted = pipe.split()
    assert [step.name for step in row_steps.steps] == row_names
    assert [step.name for step in fitted.steps] == fitted_names
    assert row_steps.steps + fitted.steps == pipe.steps


def test_fit_transform_equals_fit_then_transform():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 30)) + np.linspace(0.0, 3.0, 30)
    spec = "airpls:50,5,1|sg:5,2,1|msc|center"
    once = parse_pipeline(spec).fit_transform(X)
    np.testing.assert_array_equal(once, parse_pipeline(spec).fit(X).transform(X))


# Spec-like text: step names, digits and the separators, plus any text.
_SPEC_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        ["sg", "msc", "airpls", "center", ":", ",", "|", " ", ".", "-", "e",
         "0", "1", "2", "5", "9", "1e5", "nan", "inf", "snv"]),
        max_size=12).map("".join),
)


@settings(deadline=None)
@given(_SPEC_TEXT)
def test_parse_pipeline_returns_a_pipeline_or_a_library_error(text):
    try:
        pipe = parse_pipeline(text)
    except DpplsError:
        return
    assert all(step.name in ("sg", "msc", "airpls", "center") for step in pipe.steps)
