"""Weight orthogonalization attack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dppls.attack import (
    AttackReport,
    attack_and_score,
    cosine_similarity,
    orthogonal_complement_weights,
)
from dppls.core import RngStream
from dppls.datagen import (
    UNIQUE_HOLDER2,
    gaussian_signal,
    simulate_two_holders,
)
from dppls.errors import ArgumentError, DegenerateInputError, ShapeError, SingularSystemError
from dppls.pls import FitConfig, fit
from pooled import concat_rows


def _random_matrices(seed, m=30, k_global=4, k_local=3):
    rng = RngStream(seed)
    return (
        rng.uniform(-1, 1, (m, k_global)),
        rng.uniform(-1, 1, (m, k_local)),
    )


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_residual_is_orthogonal_to_local_span():
    for seed in range(10):
        Vg, Vl = _random_matrices(seed)
        resid = orthogonal_complement_weights(Vg, Vl)
        assert np.max(np.abs(Vl.T @ resid)) < 1e-8


def test_projection_is_idempotent():
    Vg, Vl = _random_matrices(1)
    once = orthogonal_complement_weights(Vg, Vl)
    twice = orthogonal_complement_weights(once, Vl)
    np.testing.assert_allclose(twice, once, atol=1e-10)


def test_global_inside_local_span_projects_to_zero():
    _, Vl = _random_matrices(2)
    mix = RngStream(3).uniform(-2, 2, (Vl.shape[1], 5))
    resid = orthogonal_complement_weights(Vl @ mix, Vl)
    assert np.max(np.abs(resid)) < 1e-10


def test_empty_local_matrix_returns_copy():
    Vg, _ = _random_matrices(4)
    resid = orthogonal_complement_weights(Vg, np.zeros((Vg.shape[0], 0)))
    np.testing.assert_array_equal(resid, Vg)
    resid[0, 0] += 1.0
    assert resid[0, 0] != Vg[0, 0]


def test_rank_deficient_local_matrix_raises():
    _, Vl = _random_matrices(5)
    doubled = np.column_stack([Vl, Vl[:, 0]])
    with pytest.raises(SingularSystemError, match="rank deficient"):
        orthogonal_complement_weights(np.zeros((Vl.shape[0], 2)), doubled)


def test_projection_shape_validation():
    with pytest.raises(ShapeError):
        orthogonal_complement_weights(np.zeros(5), np.zeros((5, 1)))
    with pytest.raises(ShapeError):
        orthogonal_complement_weights(np.zeros((5, 2)), np.zeros((6, 1)))


# ---------------------------------------------------------------------------
# cosine scores
# ---------------------------------------------------------------------------

def test_cosine_similarity_reference_cases():
    u = np.array([1.0, 0.0, 0.0])
    assert cosine_similarity(u, 2 * u) == 1.0
    assert cosine_similarity(u, -3 * u) == 1.0
    assert cosine_similarity(u, np.array([0.0, 1.0, 0.0])) == 0.0
    assert cosine_similarity(u, np.zeros(3)) == 0.0
    assert cosine_similarity(np.zeros(3), u) == 0.0
    with pytest.raises(ShapeError):
        cosine_similarity(u, np.zeros(4))


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_similarity_is_scale_invariant(a, b):
    u = np.array([1.0, 2.0, -0.5])
    v = np.array([0.3, -1.0, 2.0])
    base = cosine_similarity(u, v)
    assert cosine_similarity(a * u, b * v) == pytest.approx(base, rel=1e-9)
    assert 0.0 <= base <= 1.0


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_attack_and_score_flags_best_column():
    rng = RngStream(6)
    truth = rng.uniform(-1, 1, 30)
    Vl = rng.uniform(-1, 1, (30, 2))
    # Column 1 of the global matrix is the truth signal hidden behind a
    # local-span component; the attack must strip the local part away,
    # leaving exactly the part of the truth outside the local span.
    Vg = np.column_stack([Vl[:, 0], truth + Vl @ np.array([0.5, -1.0])])
    report = attack_and_score(Vg, Vl, truth)
    assert report.component_argmax == 1
    truth_perp = orthogonal_complement_weights(truth[:, None], Vl)[:, 0]
    expected = np.linalg.norm(truth_perp) / np.linalg.norm(truth)
    assert report.best_similarity == pytest.approx(expected, abs=1e-10)
    assert report.similarities.shape == (2,)
    assert report.similarities[0] < 0.5


def test_attack_and_score_validation():
    Vg, Vl = _random_matrices(7)
    with pytest.raises(ShapeError, match="truth"):
        attack_and_score(Vg, Vl, np.zeros(Vg.shape[0] + 1))
    with pytest.raises(ArgumentError, match="no columns"):
        attack_and_score(np.zeros((10, 0)), np.zeros((10, 0)), np.zeros(10))
    for bad in (np.nan, np.inf, -np.inf):
        truth = np.ones(Vg.shape[0])
        truth[3] = bad
        with pytest.raises(DegenerateInputError, match="truth"):
            attack_and_score(Vg, Vl, truth)


def test_attack_without_truth_reports_the_residual_only():
    Vg, Vl = _random_matrices(8)
    report = attack_and_score(Vg, Vl)
    np.testing.assert_array_equal(report.residual, orthogonal_complement_weights(Vg, Vl))
    assert report.similarities is None
    assert report.component_argmax is None and report.best_similarity is None


def test_report_without_scores_refuses_best():
    report = AttackReport(residual=np.zeros((3, 1)))
    assert report.component_argmax is None and report.best_similarity is None


# ---------------------------------------------------------------------------
# end to end on simulated holders
# ---------------------------------------------------------------------------

def test_pooled_model_leaks_the_other_holders_peak():
    rng = RngStream(0)
    d1, d2 = simulate_two_holders(100, 100, rng)
    pooled = concat_rows(d1, d2)
    k = 3
    global_model = fit(pooled, FitConfig(k=k))
    local_model = fit(d1, FitConfig(k=k))
    truth = gaussian_signal(100, UNIQUE_HOLDER2)
    report = attack_and_score(global_model.W, local_model.W, truth)
    # Holder 1's model spans its own three factors, so the residual is
    # dominated by holder 2's unique peak.
    assert report.best_similarity > 0.8


def test_attack_on_own_data_finds_nothing():
    d1, _ = simulate_two_holders(100, 100, RngStream(1))
    model = fit(d1, FitConfig(k=3))
    resid = orthogonal_complement_weights(model.W, model.W)
    assert np.max(np.abs(resid)) < 1e-10
