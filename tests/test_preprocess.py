"""Savitzky-Golay, MSC, airPLS, and pipeline state handling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import solveh_banded

from dppls.core import RngStream
from dppls.errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateInputError,
    DpplsError,
    ShapeError,
    StateError,
)
from dppls.preprocess import (
    AirPlsConfig,
    SgConfig,
    Step,
    _STEPS,
    _penalty_bands,
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


def _reference_airpls(X, cfg):
    """airPLS one row at a time: one banded solve per row per iteration.

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
            ab = cfg.lam * _penalty_bands(m, cfg.diff_order)
            ab[cfg.diff_order] += weights
            z = solveh_banded(ab, weights * x, lower=False)
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


def test_airpls_row_with_too_few_negative_residuals_keeps_its_last_baseline():
    # After its fourth solve this row has a single negative residual, so a
    # fifth solve under a second-order penalty would be singular.
    X = _baseline_rows(6, m=40, seed=4529)
    cfg = AirPlsConfig(1e3, 15, 2)
    out = airpls_correct(X, cfg)
    np.testing.assert_array_equal(out[5], airpls_correct(X[5:], AirPlsConfig(1e3, 4, 2))[0])
    assert np.sum(out[5] < 0) == 1
    np.testing.assert_array_equal(out, _reference_airpls(X, cfg)[0])


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


@given(_SPEC_TEXT)
def test_parse_pipeline_returns_a_pipeline_or_a_library_error(text):
    try:
        pipe = parse_pipeline(text)
    except DpplsError:
        return
    assert all(step.name in ("sg", "msc", "airpls", "center") for step in pipe.steps)
