"""Synthetic two-holder data generation."""

import numpy as np
import pytest

from dppls.core import RngStream
from dppls.datagen import (
    ANALYTE,
    CONCENTRATION_HIGH,
    CONCENTRATION_LOW,
    DEFAULT_SPECS,
    SHARED_INTERFERENT,
    UNIQUE_HOLDER1,
    UNIQUE_HOLDER2,
    SignalSpec,
    gaussian_signal,
    simulate_two_holders,
)
from dppls.errors import ArgumentError
from pooled import concat_rows


# ---------------------------------------------------------------------------
# pure-component signals
# ---------------------------------------------------------------------------

def test_gaussian_signal_peak_and_shoulders():
    s = gaussian_signal(100, ANALYTE)
    assert s.shape == (100,)
    assert s[50] == 8.0
    # Height drops to h * exp(-1/2) one width away from the center.
    assert s[65] == pytest.approx(8.0 * np.exp(-0.5), rel=1e-12)
    assert s[35] == pytest.approx(8.0 * np.exp(-0.5), rel=1e-12)


def test_gaussian_signal_is_symmetric_about_center():
    s = gaussian_signal(101, SignalSpec(center=50.0, width=7.0, height=2.0))
    np.testing.assert_allclose(s, s[::-1], atol=1e-15)


def test_gaussian_signal_wide_limit_is_flat():
    s = gaussian_signal(100, SignalSpec(center=50.0, width=1e9, height=3.0))
    np.testing.assert_allclose(s, 3.0, rtol=1e-12)


def test_gaussian_signal_validation():
    with pytest.raises(ArgumentError):
        gaussian_signal(0, ANALYTE)
    with pytest.raises(ArgumentError):
        SignalSpec(center=0.0, width=0.0, height=1.0)
    with pytest.raises(ArgumentError):
        SignalSpec(center=np.nan, width=1.0, height=1.0)


def test_default_signal_parameters():
    assert (ANALYTE.center, ANALYTE.width, ANALYTE.height) == (50.0, 15.0, 8.0)
    assert (SHARED_INTERFERENT.center, SHARED_INTERFERENT.width,
            SHARED_INTERFERENT.height) == (70.0, 10.0, 10.0)
    assert (UNIQUE_HOLDER1.center, UNIQUE_HOLDER1.width,
            UNIQUE_HOLDER1.height) == (40.0, 1.0, 0.5)
    assert (UNIQUE_HOLDER2.center, UNIQUE_HOLDER2.width,
            UNIQUE_HOLDER2.height) == (30.0, 1.0, 0.5)
    assert set(DEFAULT_SPECS) == {
        "analyte", "shared_interferent", "unique_holder1", "unique_holder2",
    }


# ---------------------------------------------------------------------------
# two-holder simulation
# ---------------------------------------------------------------------------

def test_simulate_shapes_and_ranges():
    d1, d2 = simulate_two_holders(100, 100, RngStream(0))
    for d in (d1, d2):
        assert d.X.shape == (100, 100)
        assert d.y.shape == (100,)
        assert d.y.min() >= CONCENTRATION_LOW
        assert d.y.max() < CONCENTRATION_HIGH


def test_simulate_is_deterministic():
    a1, a2 = simulate_two_holders(50, 80, RngStream(42))
    b1, b2 = simulate_two_holders(50, 80, RngStream(42))
    np.testing.assert_array_equal(a1.X, b1.X)
    np.testing.assert_array_equal(a2.X, b2.X)
    np.testing.assert_array_equal(a1.y, b1.y)
    # Holders see different concentration draws.
    assert not np.array_equal(a1.y, a2.y)


def test_simulate_rank_is_three():
    d1, _ = simulate_two_holders(100, 100, RngStream(1))
    svals = np.linalg.svd(d1.X, compute_uv=False)
    assert svals[2] / svals[0] > 1e-6
    assert svals[3] / svals[0] < 1e-12


def test_simulate_decomposes_exactly_over_its_signals():
    m = 100
    d1, d2 = simulate_two_holders(60, m, RngStream(2))
    S1 = np.column_stack([
        gaussian_signal(m, ANALYTE),
        gaussian_signal(m, SHARED_INTERFERENT),
        gaussian_signal(m, UNIQUE_HOLDER1),
    ])
    # Recover concentrations by least squares; the fit must be exact and
    # the first column must equal the response.
    C, *_ = np.linalg.lstsq(S1, d1.X.T, rcond=None)
    C = C.T
    np.testing.assert_allclose(C @ S1.T, d1.X, atol=1e-9)
    np.testing.assert_allclose(C[:, 0], d1.y, atol=1e-9)
    assert C.min() > CONCENTRATION_LOW - 1e-9
    assert C.max() < CONCENTRATION_HIGH


def test_holder_one_carries_no_unique_holder2_energy():
    m = 100
    d1, d2 = simulate_two_holders(80, m, RngStream(3))
    base = np.column_stack([
        gaussian_signal(m, ANALYTE),
        gaussian_signal(m, SHARED_INTERFERENT),
        gaussian_signal(m, UNIQUE_HOLDER1),
    ])
    s4 = gaussian_signal(m, UNIQUE_HOLDER2)
    # Orthogonalize s4 against holder 1's span; projections of holder 1
    # rows on the leftover direction must vanish.
    resid = s4 - base @ np.linalg.lstsq(base, s4, rcond=None)[0]
    resid = resid / np.linalg.norm(resid)
    assert np.max(np.abs(d1.X @ resid)) < 1e-9
    # Holder 2 rows do carry that direction.
    assert np.max(np.abs(d2.X @ resid)) > 1e-3


def test_simulate_validation():
    rng = RngStream(0)
    with pytest.raises(ArgumentError):
        simulate_two_holders(1, 10, rng)
    with pytest.raises(ArgumentError):
        simulate_two_holders(10, 0, rng)


# ---------------------------------------------------------------------------
# the tests' pooled view, the rows of simulate's combined.csv
# ---------------------------------------------------------------------------

def test_concat_stacks_in_order():
    d1, d2 = simulate_two_holders(30, 40, RngStream(4))
    pooled = concat_rows(d1, d2)
    assert pooled.n == 60
    np.testing.assert_array_equal(pooled.X[:30], d1.X)
    np.testing.assert_array_equal(pooled.X[30:], d2.X)
    np.testing.assert_array_equal(pooled.y[:30], d1.y)
    np.testing.assert_array_equal(pooled.y[30:], d2.y)


def test_concat_with_empty_is_identity():
    from dppls.core import Dataset

    d1, _ = simulate_two_holders(10, 20, RngStream(5))
    empty = Dataset(X=np.zeros((0, 20)), y=np.zeros(0))
    pooled = concat_rows(d1, empty)
    np.testing.assert_array_equal(pooled.X, d1.X)
    np.testing.assert_array_equal(pooled.y, d1.y)
