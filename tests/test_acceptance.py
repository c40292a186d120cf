"""Release gate: every acceptance check in one module.

Run ``pytest -s tests/test_acceptance.py`` to see one summary line per
criterion.  Each check prints its measured margins so a reviewer can see
how much headroom the pass has, then asserts.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dppls import cli
from dppls import pls as pls_module
from dppls.attack import attack_and_score
from dppls.core import (
    Dataset,
    NoiseCalibration,
    PrivacyBudget,
    RngStream,
    load_dataset,
)
from dppls.datagen import (
    UNIQUE_HOLDER2,
    concat_rows,
    gaussian_signal,
    simulate_two_holders,
)
from dppls.evaluate import privacy_utility_sweep, train_test_split
from dppls.mechanism import (
    analytic_gaussian_sigma,
    classic_gaussian_sigma,
    gaussian_privacy_profile,
    sample_bounds,
    sensitivity_for,
)
from dppls.pls import FitConfig, fit
from dppls.preprocess import AirPlsConfig, SgConfig, airpls_correct, msc, sg_kernel


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  :: {detail}"
    print(line)
    assert ok, line


def _textbook_pls1(X, y, k):
    """Independent plain-NIPALS oracle with unnormalized scores."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    x_means = X.mean(axis=0)
    y_mean = y.mean()
    E = X - x_means
    f = y - y_mean
    W, P, C = [], [], []
    for _ in range(k):
        w = E.T @ f
        w = w / np.linalg.norm(w)
        t = E @ w
        tt = float(t @ t)
        p = E.T @ t / tt
        c = float(f @ t) / tt
        E = E - np.outer(t, p)
        f = f - c * t
        W.append(w)
        P.append(p)
        C.append(c)
    W = np.column_stack(W)
    P = np.column_stack(P)
    b = W @ np.linalg.solve(P.T @ W, np.asarray(C))
    return b


def test_criterion_01_baseline_matches_textbook_nipals():
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = RngStream(1000 + i)
        X = rng.uniform(-1.0, 1.0, (20, 10))
        y = rng.uniform(-1.0, 1.0, 20)
        k = (i % 5) + 1
        model = fit(Dataset(X=X, y=y), FitConfig(k=k))
        oracle = _textbook_pls1(X, y, k)
        rel = np.linalg.norm(model.b - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        1, worst <= 1e-8 and elapsed < 5.0,
        "baseline fit matches textbook NIPALS on 100 instances",
        f"worst rel l2 {worst:.3e} (limit 1e-8), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_zero_noise_is_bit_identical(monkeypatch):
    def zero_noise(delta_f, budget, target=None):
        return NoiseCalibration(sensitivity=float(delta_f), sigma=0.0, target=target)

    monkeypatch.setattr(pls_module, "analytic_gaussian_sigma", zero_noise)
    identical = True
    for i in range(20):
        rng = RngStream(2000 + i)
        X = rng.uniform(-1.0, 1.0, (25, 12))
        y = rng.uniform(0.0, 5.0, 25)
        d = Dataset(X=X, y=y)
        base = fit(d, FitConfig(k=3))
        zeroed = fit(d, FitConfig(k=3, privacy=PrivacyBudget(1.0, 0.01),
                                  rng=RngStream(i)))
        for a, b in ((base.W, zeroed.W), (base.P, zeroed.P),
                     (base.c, zeroed.c), (base.b, zeroed.b),
                     (base.x_means, zeroed.x_means)):
            identical = identical and np.array_equal(a, b)
        identical = identical and base.y_mean == zeroed.y_mean
    _report(
        2, identical,
        "privatized fit with noise forced to zero is bit-identical "
        "to the baseline on 20 instances",
    )


def test_criterion_03_calibration_soundness():
    start = time.perf_counter()
    min_slack = np.inf        # delta - profile(sigma*), must stay >= 0
    min_minimality = np.inf   # profile(sigma* shrunk) - delta, must stay > 0
    classic_ok = True
    for eps in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        for delta in (1e-4, 1e-2, 0.1):
            for delta_f in (0.5, 1.0, 7.0):
                budget = PrivacyBudget(eps, delta)
                sigma = analytic_gaussian_sigma(delta_f, budget).sigma
                achieved = gaussian_privacy_profile(sigma, delta_f, eps)
                min_slack = min(min_slack, delta - achieved)
                shrunk = gaussian_privacy_profile(
                    sigma * (1.0 - 1e-6), delta_f, eps)
                min_minimality = min(min_minimality, shrunk - delta)
                if eps <= 1.0:
                    classic_ok = classic_ok and (
                        sigma <= classic_gaussian_sigma(delta_f, budget))
    reference = classic_gaussian_sigma(1.0, PrivacyBudget(1.0, 0.01))
    closed_form = math.sqrt(2.0 * math.log(125.0))
    elapsed = time.perf_counter() - start
    ok = (min_slack >= 0.0 and min_minimality > 0.0 and classic_ok
          and abs(reference - closed_form) <= 1e-6 and elapsed < 1.0)
    _report(
        3, ok,
        "analytic calibration is feasible, minimal, and never beaten by "
        "the classic formula at eps <= 1",
        f"profile slack {min_slack:.2e}, minimality margin "
        f"{min_minimality:.2e}, classic(1,1,0.01) err "
        f"{abs(reference - closed_form):.2e}, {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_04_sensitivities_dominate_leave_one_out():
    start = time.perf_counter()
    worst_ratio = 0.0
    for i in range(200):
        rng = RngStream(3000 + i)
        n = 8 + (i % 17)
        m = 4 + (i % 9)
        E = rng.uniform(-2.0, 2.0, (n, m))
        f = rng.uniform(-3.0, 3.0, n)
        bounds = sample_bounds(E, f)
        dw = sensitivity_for("weights", bounds)
        dt = sensitivity_for("scores", bounds)
        dp = sensitivity_for("x_loadings", bounds)
        dc = sensitivity_for("y_loading", bounds)

        w = E.T @ f
        w = w / np.linalg.norm(w)
        t_raw = E @ w
        t = t_raw / np.linalg.norm(t_raw)
        cov = E.T @ f
        p_num = E.T @ t
        c_num = float(f @ t)
        for j in range(n):
            keep = np.arange(n) != j
            # Released statistics recomputed with row j removed; the
            # direction vectors w and t keep the remaining entries.
            d_cov = np.linalg.norm(cov - E[keep].T @ f[keep])
            d_score = abs(t_raw[j])
            d_p = np.linalg.norm(p_num - E[keep].T @ t[keep])
            d_c = abs(c_num - float(f[keep] @ t[keep]))
            for actual, bound in ((d_cov, dw), (d_score, dt),
                                  (d_p, dp), (d_c, dc)):
                worst_ratio = max(worst_ratio, actual / bound)
    elapsed = time.perf_counter() - start
    _report(
        4, worst_ratio <= 1.0 + 1e-12 and elapsed < 10.0,
        "leave-one-out changes never exceed the published sensitivities "
        "on 200 residual pairs",
        f"worst actual/bound ratio {worst_ratio:.6f}, "
        f"{elapsed:.2f}s (limit 10s)",
    )


def _attack_protocol(seeds=20):
    """Shared two-holder attack experiment for criteria 5 and 6.

    Per seed: fresh simulated holders, one pooled fit per privacy level,
    holder 1 attacks with its own local model, and the score is the best
    |cosine| against holder 2's unique signal.
    """
    truth = gaussian_signal(100, UNIQUE_HOLDER2)
    scores = {None: [], 100.0: [], 10.0: [], 1.0: []}
    for seed in range(seeds):
        rng = RngStream(seed)
        d1, d2 = simulate_two_holders(100, 100, rng)
        pooled = concat_rows(d1, d2)
        local = fit(d1, FitConfig(k=3))
        base = fit(pooled, FitConfig(k=3))
        scores[None].append(
            attack_and_score(base.W, local.W, truth).best_similarity)
        for ei, eps in enumerate((100.0, 10.0, 1.0)):
            noisy = fit(pooled, FitConfig(
                k=3, privacy=PrivacyBudget(eps, 0.01), rng=rng.derive(ei)))
            scores[eps].append(
                attack_and_score(noisy.W, local.W, truth).best_similarity)
    return {key: float(np.median(vals)) for key, vals in scores.items()}


def test_criterion_05_attack_recovers_unique_signal():
    medians = _attack_protocol()
    _report(
        5, medians[None] > 0.8,
        "no-noise pooled model leaks the other holder's unique signal",
        f"median best |cosine| {medians[None]:.4f} (threshold 0.8)",
    )


def test_criterion_06_noise_mitigates_attack():
    start = time.perf_counter()
    medians = _attack_protocol()
    elapsed = time.perf_counter() - start
    ok = (medians[1.0] < medians[100.0]
          and medians[1.0] < 0.5 * medians[None]
          and elapsed < 60.0)
    _report(
        6, ok,
        "attack medians drop with the privacy budget",
        f"medians: no-noise {medians[None]:.3f}, eps=100 "
        f"{medians[100.0]:.3f}, eps=10 {medians[10.0]:.3f}, eps=1 "
        f"{medians[1.0]:.3f}; {elapsed:.1f}s (limit 60s)",
    )


def _utility_sweep(master_seed=1):
    rng = RngStream(master_seed)
    d1, d2 = simulate_two_holders(100, 100, rng)
    pooled = concat_rows(d1, d2)
    train, test = train_test_split(pooled, 0.3, rng.derive(1))
    return privacy_utility_sweep(
        train, test, [1.0, 10.0, 100.0, 1e9], k=3, repeats=20,
        rng=rng.derive(3), delta=0.01,
    )


def test_criterion_07_utility_improves_with_epsilon():
    report = _utility_sweep()
    base = report.entries[0]["rmsep"]
    meds, ses = {}, {}
    for eps in (1.0, 10.0, 100.0, 1e9):
        vals = [e["rmsep"] for e in report.entries
                if e["kind"] == "holdout" and e["epsilon"] == eps]
        meds[eps] = float(np.median(vals))
        ses[eps] = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    monotone = meds[1.0] >= meds[10.0] >= meds[100.0] >= meds[1e9]
    near_baseline = abs(meds[1e9] - base) <= 2.0 * ses[1e9]
    _report(
        7, monotone and near_baseline,
        "median RMSEP is non-increasing in epsilon and converges to the "
        "baseline",
        f"medians {meds[1.0]:.3f} >= {meds[10.0]:.3f} >= {meds[100.0]:.3f} "
        f">= {meds[1e9]:.5f}, baseline {base:.5f}, "
        f"|gap| {abs(meds[1e9] - base):.2e} vs 2se {2 * ses[1e9]:.2e}",
    )


def test_criterion_08_preprocessing_oracles():
    kernel = sg_kernel(SgConfig(5, 2, 1))
    sg_ok = np.allclose(kernel, [-0.2, -0.1, 0.0, 0.1, 0.2], atol=1e-12)

    i = np.arange(60, dtype=float)
    ref = np.exp(-((i - 30.0) ** 2) / 50.0) + 0.2
    out = msc(np.vstack([ref, 2.0 * ref + 1.0]), reference=ref)
    msc_ok = np.allclose(out[0], ref, atol=1e-10)

    # Linear ramps live in the null space of the second-difference
    # penalty, so that is the configuration the ramp oracle runs.
    i = np.arange(200, dtype=float)
    peak = 5.0 * np.exp(-((i - 100.0) ** 2) / (2.0 * 8.0 ** 2))
    ramped = peak + 0.05 * i + 2.0
    corrected = airpls_correct(ramped[None, :], AirPlsConfig(1e5, 15, 2))[0]
    air_err = float(np.max(np.abs(corrected - peak)))
    air_ok = air_err <= 0.05 * float(peak.max())

    _report(
        8, sg_ok and msc_ok and air_ok,
        "SG kernel, MSC reference identity, and airPLS ramp removal all "
        "match their oracles",
        f"airPLS sup err {air_err:.4f} vs bound {0.05 * peak.max():.3f}",
    )


def test_criterion_09_optional_corn_workflow(tmp_path):
    corn = os.environ.get("DPPLS_CORN_CSV")
    path = Path(corn) if corn else Path(__file__).parent.parent / "data" / "corn_m5.csv"
    if not path.is_file():
        print("criterion  9 [SKIP] corn workflow (supply the CSV via "
              "DPPLS_CORN_CSV or data/corn_m5.csv to enable)")
        pytest.skip("corn CSV not supplied")
    load_dataset(path)
    produced = []
    for tag, pipeline in (("sg", "sg:5,2,1|center"), ("msc", "msc|center"),
                          ("airpls", "airpls:100,15,1|center")):
        out = tmp_path / tag
        code = cli.main([
            "sweep", "--input", str(path), "--output", str(out),
            "--mode", "both", "--k", "5", "--k-max", "5",
            "--epsilons", "1,10,100", "--folds", "10",
            "--test-fraction", "0.3", "--pipeline", pipeline, "--seed", "0",
        ])
        produced.append(code == 0 and all(
            (out / name).stat().st_size > 0
            for name in ("cv_report.json", "cv_report.csv",
                         "holdout_report.json", "holdout_report.csv")))
    _report(9, all(produced),
            "corn CV + holdout workflow completed structurally for all "
            "three pipelines")


def test_criterion_10_reports_are_byte_reproducible(tmp_path):
    matched = True
    pieces = []

    sim_dirs = [tmp_path / "sim_a", tmp_path / "sim_b"]
    for out in sim_dirs:
        assert cli.main(["simulate", "--n", "100", "--m", "100",
                         "--seed", "1", "--output", str(out)]) == 0
    for name in ("holder1.csv", "holder2.csv", "combined.csv",
                 "manifest.json"):
        same = (sim_dirs[0] / name).read_bytes() == \
            (sim_dirs[1] / name).read_bytes()
        matched = matched and same
        pieces.append(f"simulate/{name}:{'=' if same else '!'}")

    sweep_dirs = [tmp_path / "sweep_a", tmp_path / "sweep_b"]
    for out in sweep_dirs:
        assert cli.main([
            "sweep", "--input", str(sim_dirs[0] / "combined.csv"),
            "--output", str(out), "--mode", "both", "--k", "3",
            "--k-max", "3", "--epsilons", "100,10,1", "--folds", "5",
            "--repeats", "5", "--seed", "1",
        ]) == 0
    for name in ("cv_report.json", "cv_report.csv",
                 "holdout_report.json", "holdout_report.csv"):
        same = (sweep_dirs[0] / name).read_bytes() == \
            (sweep_dirs[1] / name).read_bytes()
        matched = matched and same
        pieces.append(f"sweep/{name}:{'=' if same else '!'}")

    # The in-memory protocol behind criterion 7 must reproduce too.
    first, second = _utility_sweep(), _utility_sweep()
    for tag, writer in (("json", "to_json"), ("csv", "to_csv")):
        a, b = tmp_path / f"u1.{tag}", tmp_path / f"u2.{tag}"
        getattr(first, writer)(a)
        getattr(second, writer)(b)
        same = a.read_bytes() == b.read_bytes()
        matched = matched and same
        pieces.append(f"utility.{tag}:{'=' if same else '!'}")

    _report(10, matched,
            "same master seed reproduces every report file byte for byte",
            " ".join(pieces))
