"""End-to-end CLI runs, config resolution, and exit codes."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dppls import cli, datagen, evaluate, preprocess
from dppls.core import (
    Dataset, PrivacyBudget, RngStream, load_dataset, load_matrix, save_dataset, save_matrix,
)
from dppls.errors import NumericalError
from dppls.mechanism import analytic_gaussian_sigma
from dppls.pls import FitConfig, fit, load_model, predict, save_model
from pooled import concat_rows


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One simulated two-holder corpus shared by the read-only tests."""
    out = tmp_path_factory.mktemp("sim")
    code = cli.main([
        "simulate", "--n", "30", "--m", "60", "--seed", "3",
        "--output", str(out),
    ])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_expected_files(sim_dir):
    for name in ("holder1.csv", "holder2.csv", "combined.csv",
                 "manifest.json", "simulate.config.json"):
        assert (sim_dir / name).is_file()
    combined = load_dataset(sim_dir / "combined.csv")
    assert (combined.n, combined.m) == (60, 60)
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["n_per_holder"] == 30
    assert set(manifest["signals"]) == {
        "analyte", "shared_interferent", "unique_holder1", "unique_holder2",
    }
    resolved = json.loads((sim_dir / "simulate.config.json").read_text())
    assert resolved["command"] == "simulate"
    assert resolved["n"] == 30 and resolved["seed"] == 3


def test_simulate_matches_library_call(sim_dir):
    d1, d2 = datagen.simulate_two_holders(30, 60, RngStream(3))
    loaded = load_dataset(sim_dir / "holder1.csv")
    np.testing.assert_array_equal(loaded.X, d1.X)
    np.testing.assert_array_equal(loaded.y, d1.y)


def test_simulate_reruns_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["simulate", "--n", "8", "--m", "25", "--seed", "9",
                         "--output", str(out)]) == 0
        outs.append(out)
    for name in ("holder1.csv", "holder2.csv", "combined.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    other = tmp_path / "c"
    assert cli.main(["simulate", "--n", "8", "--m", "25", "--seed", "10",
                     "--output", str(other)]) == 0
    assert (outs[0] / "holder1.csv").read_bytes() != \
        (other / "holder1.csv").read_bytes()


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
def test_simulate_files_equal_save_dataset(tmp_path, header):
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--n", "7", "--m", "5", "--seed", "4", "--output", str(out)]
                    + ["--header"] * header) == 0
    d1, d2 = datagen.simulate_two_holders(7, 5, RngStream(4))
    for name, d in (("holder1.csv", d1), ("holder2.csv", d2),
                    ("combined.csv", concat_rows(d1, d2))):
        save_dataset(tmp_path / name, d, header=header)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


# ---------------------------------------------------------------------------
# fit / predict
# ---------------------------------------------------------------------------

def test_fit_matches_library_and_is_reproducible(sim_dir, tmp_path):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "3"]) == 0
    assert (tmp_path / "model.config.json").is_file()

    model = load_model(model_path)
    reference = fit(load_dataset(sim_dir / "combined.csv"), FitConfig(k=3))
    np.testing.assert_array_equal(model.b, reference.b)

    again = tmp_path / "model2.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(again), "--k", "3"]) == 0
    assert model_path.read_bytes() == again.read_bytes()


def test_fit_with_privacy_records_calibrations(sim_dir, tmp_path):
    model_path = tmp_path / "private.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "3",
                     "--epsilon", "1.0", "--delta", "0.01",
                     "--seed", "5"]) == 0
    doc = json.loads(model_path.read_text())
    assert len(doc["calibration_log"]) == 4 * 3
    model = load_model(model_path)
    baseline = fit(load_dataset(sim_dir / "combined.csv"), FitConfig(k=3))
    assert not np.array_equal(model.b, baseline.b)

    # Same seed reproduces the file exactly; a new seed does not.
    rerun = tmp_path / "private2.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(rerun), "--k", "3",
                     "--epsilon", "1.0", "--seed", "5"]) == 0
    assert model_path.read_bytes() == rerun.read_bytes()
    reseeded = tmp_path / "private3.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(reseeded), "--k", "3",
                     "--epsilon", "1.0", "--seed", "6"]) == 0
    assert model_path.read_bytes() != reseeded.read_bytes()


def test_predict_drops_response_column(sim_dir, tmp_path):
    model_path = tmp_path / "model.json"
    cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
              "--output", str(model_path), "--k", "3"])
    pred_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(sim_dir / "combined.csv"),
                     "--output", str(pred_path),
                     "--response-col", "0"]) == 0
    got = load_matrix(pred_path).ravel()
    d = load_dataset(sim_dir / "combined.csv")
    expected = predict(load_model(model_path), d.X)
    np.testing.assert_array_equal(got, expected)
    assert (tmp_path / "pred.config.json").is_file()


def test_predict_plain_matrix_input(sim_dir, tmp_path):
    model_path = tmp_path / "model.json"
    cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
              "--output", str(model_path), "--k", "2"])
    d = load_dataset(sim_dir / "combined.csv")
    matrix_path = tmp_path / "features.csv"
    save_matrix(matrix_path, d.X[:5])
    pred_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(matrix_path),
                     "--output", str(pred_path)]) == 0
    got = load_matrix(pred_path).ravel()
    np.testing.assert_array_equal(got, predict(load_model(model_path), d.X[:5]))


@pytest.mark.parametrize("width, column, code, message", [
    (1, 0, cli.EXIT_IO, "{input}: need at least 2 columns (response + 1 channel), got 1"),
    (1, 1, cli.EXIT_IO, "{input}: need at least 2 columns (response + 1 channel), got 1"),
    (61, 61, cli.EXIT_ARGUMENT, "response column 61 out of range for 61 columns"),
    (61, -1, cli.EXIT_ARGUMENT, "response column -1 out of range for 61 columns"),
], ids=["one-column-0", "one-column-1", "past-the-end", "negative"])
def test_predict_refuses_a_response_column_it_cannot_drop(sim_dir, tmp_path, capsys,
                                                          width, column, code, message):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2"]) == 0
    data, out = tmp_path / "data.csv", tmp_path / "pred.csv"
    save_matrix(data, np.ones((4, width)))
    assert cli.main(["predict", "--model", str(model_path), "--input", str(data),
                     "--output", str(out), "--response-col", str(column)]) == code
    assert capsys.readouterr().err == f"error: {message.format(input=data)}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def test_attack_end_to_end_with_truth(sim_dir, tmp_path):
    model_path = tmp_path / "pooled.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "3"]) == 0
    truth_path = tmp_path / "truth.csv"
    save_matrix(truth_path,
                datagen.gaussian_signal(60, datagen.UNIQUE_HOLDER2)[None, :])
    report_path = tmp_path / "attack.json"
    assert cli.main(["attack", "--global-model", str(model_path),
                     "--input", str(sim_dir / "holder1.csv"),
                     "--truth", str(truth_path),
                     "--output", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["matrix"] == "weights" and doc["k"] == 3
    assert len(doc["similarities"]) == 3
    # Holder 2's private signal leaks through the pooled weights.
    assert doc["best_similarity"] > 0.8
    assert np.asarray(doc["residual"]).shape == (60, 3)


def test_attack_without_truth_reports_residual_only(sim_dir, tmp_path):
    model_path = tmp_path / "pooled.json"
    cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
              "--output", str(model_path), "--k", "2"])
    report_path = tmp_path / "attack.json"
    assert cli.main(["attack", "--global-model", str(model_path),
                     "--input", str(sim_dir / "holder1.csv"),
                     "--output", str(report_path),
                     "--matrix", "x_loadings"]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["matrix"] == "x_loadings"
    assert doc["similarities"] is None
    assert doc["best_similarity"] is None


def test_attack_k_mismatch_is_a_config_error(sim_dir, tmp_path):
    model_path = tmp_path / "pooled.json"
    cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
              "--output", str(model_path), "--k", "3"])
    code = cli.main(["attack", "--global-model", str(model_path),
                     "--input", str(sim_dir / "holder1.csv"),
                     "--output", str(tmp_path / "attack.json"),
                     "--k", "5"])
    assert code == cli.EXIT_ARGUMENT


def test_attack_truth_must_be_one_column_or_one_row(sim_dir, tmp_path):
    model_path = tmp_path / "pooled.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "3"]) == 0
    signal = datagen.gaussian_signal(60, datagen.UNIQUE_HOLDER2)

    def attack(truth, tag):
        truth_path = tmp_path / f"truth_{tag}.csv"
        save_matrix(truth_path, truth)
        report_path = tmp_path / f"attack_{tag}.json"
        code = cli.main(["attack", "--global-model", str(model_path),
                         "--input", str(sim_dir / "holder1.csv"),
                         "--truth", str(truth_path), "--output", str(report_path)])
        return code, report_path

    code_row, row = attack(signal[None, :], "row")
    code_column, column = attack(signal[:, None], "column")
    assert code_row == code_column == 0
    assert row.read_bytes() == column.read_bytes()
    # Same cell count, but the channel order of a 30 x 2 file is ambiguous.
    code, report_path = attack(signal.reshape(30, 2), "grid")
    assert code == cli.EXIT_SHAPE
    assert not report_path.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_attack_with_a_non_finite_truth_exits_2(sim_dir, tmp_path, capsys, cell):
    model_path = tmp_path / "pooled.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2"]) == 0
    cells = [repr(v) for v in datagen.gaussian_signal(60, datagen.UNIQUE_HOLDER2).tolist()]
    cells[7] = cell
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text("\n".join(cells) + "\n")
    report_path = tmp_path / "attack.json"
    code = cli.main(["attack", "--global-model", str(model_path),
                     "--input", str(sim_dir / "holder1.csv"),
                     "--truth", str(truth_path), "--output", str(report_path)])
    assert code == cli.EXIT_ARGUMENT
    assert capsys.readouterr().err.startswith("error: truth signal contains NaN")
    assert not report_path.exists()


def test_attack_calls_attack_and_score_once(sim_dir, tmp_path, monkeypatch):
    model_path = tmp_path / "pooled.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2"]) == 0
    truth_path = tmp_path / "truth.csv"
    save_matrix(truth_path, datagen.gaussian_signal(60, datagen.UNIQUE_HOLDER2)[:, None])
    calls = []
    real = cli.attack_and_score
    monkeypatch.setattr(cli, "attack_and_score",
                        lambda *args: calls.append(args) or real(*args))
    for extra in ([], ["--truth", str(truth_path)]):
        calls.clear()
        assert cli.main(["attack", "--global-model", str(model_path),
                         "--input", str(sim_dir / "holder1.csv"),
                         "--output", str(tmp_path / "attack.json"), *extra]) == 0
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_both_modes_write_reports(sim_dir, tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "both",
                     "--k", "2", "--k-max", "2", "--epsilons", "10",
                     "--folds", "4", "--repeats", "2", "--seed", "1"]) == 0
    for name in ("cv_report.json", "cv_report.csv",
                 "holdout_report.json", "holdout_report.csv",
                 "sweep.config.json"):
        assert (out / name).is_file()
    cv = json.loads((out / "cv_report.json").read_text())
    # Grid: for each k in 1..2, a no-noise entry plus one per epsilon.
    assert len(cv["entries"]) == 4
    assert [e["epsilon"] for e in cv["entries"]] == [None, 10.0, None, 10.0]
    holdout = json.loads((out / "holdout_report.json").read_text())
    assert len(holdout["entries"]) == 1 + 2
    assert holdout["metadata"]["k"] == 2


def test_sweep_reports_are_reproducible(sim_dir, tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                         "--output", str(out), "--mode", "both",
                         "--k", "2", "--k-max", "1", "--epsilons", "10,1",
                         "--folds", "3", "--repeats", "2", "--seed", "7"]) == 0
        outs.append(out)
    for name in ("cv_report.json", "cv_report.csv",
                 "holdout_report.json", "holdout_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_cv_only_and_holdout_requirements(sim_dir, tmp_path):
    out = tmp_path / "cvonly"
    assert cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "cv", "--k-max", "1",
                     "--epsilons", "", "--folds", "3", "--seed", "2"]) == 0
    assert (out / "cv_report.json").is_file()
    assert not (out / "holdout_report.json").exists()
    # Holdout mode cannot run without --k.
    code = cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(tmp_path / "h"), "--mode", "holdout",
                     "--epsilons", "10", "--repeats", "2", "--seed", "2"])
    assert code == cli.EXIT_ARGUMENT


def test_sweep_refuses_delta_outside_unit_interval_without_epsilons(sim_dir, tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "holdout", "--k", "2",
                     "--epsilons", "", "--delta", "5", "--seed", "2"])
    assert code == cli.EXIT_ARGUMENT
    assert not (out / "holdout_report.json").exists()


@pytest.mark.parametrize("epsilons", ["10,,1", "10,1,", ",10", ","])
def test_sweep_refuses_an_empty_epsilon_entry(sim_dir, tmp_path, capsys, epsilons):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "cv", "--k-max", "1",
                     "--epsilons", epsilons, "--folds", "3", "--seed", "2"])
    assert code == cli.EXIT_ARGUMENT
    assert capsys.readouterr().err == f"error: bad epsilon list {epsilons!r}\n"
    assert not out.exists()


def test_sweep_cv_only_refuses_a_bad_pipeline_spec(sim_dir, tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "cv", "--k-max", "1",
                     "--folds", "3", "--pipeline", "bogus", "--seed", "2"])
    assert code == cli.EXIT_ARGUMENT
    assert not list(out.glob("*_report.*"))


@pytest.fixture
def protocol_calls(monkeypatch):
    """The names of the evaluate protocols called, in call order."""
    calls = []
    for name in ("_kfold_cv", "_privacy_utility_sweep"):
        protocol = getattr(evaluate, name)
        monkeypatch.setattr(evaluate, name, lambda *a, name=name, protocol=protocol, **kw:
                            calls.append(name) or protocol(*a, **kw))
    return calls


@pytest.mark.parametrize("flags", [
    ["--k", "2", "--epsilons", "", "--delta", "5"],
    ["--epsilons", "10"],
    ["--k", "2", "--pipeline", "bogus"],
    ["--k", "2", "--pipeline", "sg:4,2,1|center"],
    # Refused by the holdout split, which is taken before CV runs.
    ["--k", "2", "--test-fraction", "0.99"],
], ids=["delta", "missing-k", "unknown-step", "even-window", "holdout-split"])
def test_refused_sweep_leaves_no_report(sim_dir, tmp_path, protocol_calls, flags):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "both", "--k-max", "1",
                     "--folds", "3", "--repeats", "2", "--seed", "2", *flags])
    assert code == cli.EXIT_ARGUMENT
    assert not list(out.glob("*_report.*"))
    assert protocol_calls == []


@pytest.mark.parametrize("flags, message", [
    (["--repeats", "0"], "repeats must be at least 1, got 0"),
    (["--k-max", "0"], "--k-max must be at least 1, got 0"),
    (["--epsilons", "-1"], "epsilon must be positive, got -1.0"),
    (["--epsilons", "inf"], "epsilon must be finite, got inf"),
    (["--epsilons", "nan"], "epsilon must be finite, got nan"),
    (["--folds", "1"], "folds must lie in [2, n=60], got 1"),
    (["--folds", "500"], "folds must lie in [2, n=60], got 500"),
    (["--k", "500"], "k=500 exceeds min(n-1, m)=41 for this dataset"),
    (["--test-fraction", "0.99"],
     "split of 60 samples at fraction 0.99 leaves 1 train / 59 test; "
     "need at least 2 on each side"),
], ids=["repeats", "k-max", "epsilons", "epsilons-inf", "epsilons-nan", "folds-1",
        "folds-500", "k", "test-fraction"])
def test_refused_sweep_maps_no_row_and_runs_no_protocol(sim_dir, tmp_path, capsys, monkeypatch,
                                                        protocol_calls, flags, message):
    rows = []
    airpls_correct = preprocess.airpls_correct
    monkeypatch.setattr(preprocess, "airpls_correct",
                        lambda X, cfg: rows.append(len(X)) or airpls_correct(X, cfg))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "both", "--pipeline", "airpls|center",
                     "--k", "2", "--k-max", "2", "--epsilons", "10", "--folds", "3",
                     "--repeats", "2", "--seed", "2", *flags])
    assert code == cli.EXIT_ARGUMENT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert rows == []
    assert protocol_calls == []
    assert not out.exists()


@pytest.mark.parametrize("mode,code", [
    ("cv", cli.EXIT_SHAPE), ("holdout", cli.EXIT_SHAPE), ("both", cli.EXIT_SHAPE),
])
def test_sweep_whose_row_steps_refuse_the_data_keeps_each_mode_s_refusal(
        tmp_path, capsys, mode, code):
    # A 9-point window does not fit 5 channels: every mode refuses.
    data = tmp_path / "narrow.csv"
    gen = np.random.default_rng(5)
    save_dataset(data, Dataset(X=gen.normal(size=(12, 5)), y=gen.normal(size=12)))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--input", str(data), "--output", str(out),
                     "--mode", mode, "--k", "2", "--k-max", "2", "--epsilons", "10",
                     "--folds", "3", "--repeats", "2", "--seed", "2",
                     "--pipeline", "sg:9,2,1|center"]) == code
    assert capsys.readouterr().err == "error: rows have 5 channels but the window needs 9\n"
    assert not out.exists()


@pytest.mark.parametrize("pipeline,message", [
    ("", "dataset contains NaN or infinite entries"),
    ("airpls|center", "input contains NaN or infinite entries"),
], ids=["no-pipeline", "airpls"])
@pytest.mark.parametrize("mode", ["cv", "holdout", "both"])
@pytest.mark.parametrize("column", [0, 9], ids=["response", "feature"])
def test_sweep_refuses_non_finite_data_in_every_mode(
        sim_dir, tmp_path, capsys, mode, pipeline, message, column):
    d = load_dataset(sim_dir / "combined.csv")
    data = np.column_stack([d.y, d.X])
    data[17, column] = np.nan
    path = tmp_path / "bad.csv"
    save_matrix(path, data)
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", "--input", str(path), "--output", str(out),
                         "--mode", mode, "--k", "2", "--k-max", "2", "--epsilons", "10",
                         "--folds", "3", "--repeats", "2", "--seed", "2",
                         "--pipeline", pipeline])
    assert code == cli.EXIT_ARGUMENT
    # A NaN response passes the row steps and is refused by the protocols.
    want = message if column else "dataset contains NaN or infinite entries"
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "sweep"])
@pytest.mark.parametrize("spec", ["airpls:1e308,15,1", "airpls:1e308,15,2"])
def test_airpls_whose_penalty_overflows_exits_2(sim_dir, tmp_path, capsys, command, spec):
    out = tmp_path / "out"
    args = {"preprocess": [],
            "sweep": ["--mode", "both", "--k", "2", "--k-max", "2", "--folds", "3",
                      "--repeats", "2", "--epsilons", "10"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--input", str(sim_dir / "combined.csv"),
                         "--output", str(out), "--pipeline", spec, *args])
    assert code == cli.EXIT_ARGUMENT
    order = spec[-1]
    assert capsys.readouterr().err == (
        f"error: lam 1e+308 overflows the order-{order} difference penalty\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def airpls_dir(tmp_path_factory):
    """The rows of ``simulate --n 100 --m 100 --seed 1``'s combined.csv:
    the first 6 as ``six.csv``, and with X scaled by 1e305 the first 6 as
    ``six-scaled.csv`` and all 200 as ``scaled.csv``."""
    out = tmp_path_factory.mktemp("airpls")
    d = concat_rows(*datagen.simulate_two_holders(100, 100, RngStream(1)))
    scaled = Dataset(X=d.X * 1e305, y=d.y)
    save_dataset(out / "six.csv", Dataset(X=d.X[:6], y=d.y[:6]))
    save_dataset(out / "six-scaled.csv", Dataset(X=scaled.X[:6], y=scaled.y[:6]))
    save_dataset(out / "scaled.csv", scaled)
    return out


@pytest.mark.parametrize("command, data, args", [
    ("preprocess", "six-scaled.csv", ["--pipeline", "airpls"]),
    ("sweep", "scaled.csv", ["--pipeline", "airpls|center", "--mode", "both", "--k", "2",
                             "--k-max", "2", "--folds", "3", "--repeats", "2",
                             "--epsilons", "10"]),
], ids=["preprocess", "sweep"])
def test_airpls_on_a_row_whose_l1_norm_overflows_exits_2(airpls_dir, tmp_path, capsys,
                                                         command, data, args):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--input", str(airpls_dir / data), "--output", str(out),
                         *args])
    assert code == cli.EXIT_ARGUMENT
    assert capsys.readouterr().err == "error: row 0 has an l1 norm beyond float range\n"
    assert not out.exists()


@pytest.mark.parametrize("order, minor", [(1, 100), (2, 99)])
def test_airpls_whose_lam_is_too_large_exits_5_naming_lam(airpls_dir, tmp_path, capsys,
                                                          order, minor):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["preprocess", "--input", str(airpls_dir / "six.csv"),
                         "--output", str(out), "--pipeline", f"airpls:1e16,15,{order}"])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"error: lam 1e+16 is too large for the order-{order} difference penalty; a "
        f"smaller lam is needed (banded baseline solve failed: {minor}th leading minor "
        "not positive definite)\n"
    )
    assert not out.exists()


@pytest.fixture(scope="module")
def overflow_dir(tmp_path_factory):
    """Inputs whose arithmetic overflows: ``big.csv``, the rows of
    ``simulate --n 100 --m 100 --seed 1``'s combined.csv with X scaled by
    1e150, and ``spike.csv``, one row of 100 zero channels but -1e305 at
    channel 90, whose l1 norm is finite."""
    out = tmp_path_factory.mktemp("overflow")
    d = concat_rows(*datagen.simulate_two_holders(100, 100, RngStream(1)))
    save_dataset(out / "big.csv", Dataset(X=d.X * 1e150, y=d.y))
    spike = np.zeros((1, 100))
    spike[0, 90] = -1e305
    save_dataset(out / "spike.csv", Dataset(X=spike, y=np.ones(1)))
    return out


_OVERFLOWS = {
    "fit": ("big.csv", "model.json", ["--k", "3", "--epsilon", "1"]),
    "preprocess": ("spike.csv", "out.csv", ["--pipeline", "airpls:900,15,2"]),
}


@pytest.mark.parametrize("command", sorted(_OVERFLOWS))
def test_a_command_whose_arithmetic_overflows_exits_5(overflow_dir, tmp_path, capsys,
                                                       command):
    # fit used to write a k=0 model, and airPLS non-finite rows, each with
    # a RuntimeWarning.
    data, name, args = _OVERFLOWS[command]
    out = tmp_path / "out" / name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--input", str(overflow_dir / data), "--output", str(out),
                         *args])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: floating-point overflow encountered in ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_fit_refuses_an_uncalibratable_budget_before_reading_its_csv(sim_dir, tmp_path,
                                                                     capsys, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("load_dataset was called")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    out = tmp_path / "out" / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["fit", "--input", str(sim_dir / "combined.csv"), "--output", str(out),
                         "--k", "3", "--epsilon", "1e-310"])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: cannot bracket the privacy profile at epsilon 1e-310, delta 0.01\n")
    assert not (tmp_path / "out").exists()


def test_overflow_under_python_warnings_as_errors_prints_one_line(overflow_dir, tmp_path):
    data, name, args = _OVERFLOWS["fit"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dppls", "fit",
         "--input", str(overflow_dir / data), "--output", str(tmp_path / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: fit: floating-point overflow encountered in ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_sweep_maps_each_row_through_the_row_steps_once(sim_dir, tmp_path, monkeypatch):
    rows = []
    airpls_correct = preprocess.airpls_correct
    monkeypatch.setattr(preprocess, "airpls_correct",
                        lambda X, cfg: rows.append(len(X)) or airpls_correct(X, cfg))
    spec, out = "airpls|center", tmp_path / "cli"
    assert cli.main(["sweep", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out), "--mode", "both",
                     "--k", "2", "--k-max", "2", "--epsilons", "10,1",
                     "--folds", "3", "--repeats", "2", "--seed", "4",
                     "--pipeline", spec]) == 0
    d = load_dataset(sim_dir / "combined.csv")
    assert sum(rows) == d.n

    # The driver, called with the CLI's grid on the unmapped rows, maps
    # each row once too and returns the reports the CLI wrote.
    rows.clear()
    grid = [FitConfig(k=k, privacy=budget) for k in (1, 2)
            for budget in (None, PrivacyBudget(10.0, 0.01), PrivacyBudget(1.0, 0.01))]
    reports = evaluate.sweep(d, RngStream(4), pipeline_spec=spec, grid=grid, folds=3,
                             k=2, eps_list=[10.0, 1.0], repeats=2)
    assert sum(rows) == d.n
    assert list(reports) == ["cv_report", "holdout_report"]
    lib = tmp_path / "lib"
    lib.mkdir()
    for name, report in reports.items():
        report.to_json(lib / f"{name}.json")
        report.to_csv(lib / f"{name}.csv")
        for ext in ("json", "csv"):
            assert (out / f"{name}.{ext}").read_bytes() == (lib / f"{name}.{ext}").read_bytes()


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_dataset_round_trip(sim_dir, tmp_path):
    out = tmp_path / "prep.csv"
    assert cli.main(["preprocess", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out),
                     "--pipeline", "sg:5,2,1|center"]) == 0
    d = load_dataset(sim_dir / "combined.csv")
    from dppls.preprocess import parse_pipeline
    expected = parse_pipeline("sg:5,2,1|center").fit_transform(d.X)
    got = load_dataset(out)
    np.testing.assert_array_equal(got.X, expected)
    np.testing.assert_array_equal(got.y, d.y)


def test_preprocess_matrix_only(sim_dir, tmp_path):
    X = load_dataset(sim_dir / "combined.csv").X[:6]
    matrix_path = tmp_path / "mat.csv"
    save_matrix(matrix_path, X)
    out = tmp_path / "smoothed.csv"
    assert cli.main(["preprocess", "--input", str(matrix_path),
                     "--output", str(out), "--pipeline", "sg:7,2,0",
                     "--matrix-only"]) == 0
    assert load_matrix(out).shape == (6, 60)
    # With --header the output carries one too, x0..x59.
    save_matrix(matrix_path, X, header=[f"c{j}" for j in range(60)])
    assert cli.main(["preprocess", "--input", str(matrix_path),
                     "--output", str(out), "--pipeline", "sg:7,2,0",
                     "--matrix-only", "--header"]) == 0
    assert out.read_text().split("\n", 1)[0] == ",".join(f"x{j}" for j in range(60))
    expected = preprocess.parse_pipeline("sg:7,2,0").fit_transform(X)
    np.testing.assert_array_equal(load_matrix(out, header=True), expected)


def test_preprocess_airpls_keeps_an_all_zero_row(sim_dir, tmp_path):
    d = load_dataset(sim_dir / "combined.csv")
    data = np.column_stack([d.y, d.X])[:5]
    data[2, 1:] = 0.0
    zero_row = tmp_path / "zero_row.csv"
    save_matrix(zero_row, data)
    out = tmp_path / "prep.csv"
    assert cli.main(["preprocess", "--input", str(zero_row), "--output", str(out),
                     "--pipeline", "airpls"]) == 0
    got = load_dataset(out)
    np.testing.assert_array_equal(got.X[2], 0.0)
    assert np.all(np.isfinite(got.X))


@pytest.mark.parametrize("argv", [
    ["preprocess", "--pipeline", "sg:9,2,1|msc|center", "--output", "pre.csv"],
    ["fit", "--k", "3", "--epsilon", "1", "--output", "model.json"],
], ids=["preprocess", "fit"])
def test_command_holds_few_copies_of_its_matrix(tmp_path, argv):
    # numpy reports its buffers to tracemalloc.  Reading the file,
    # transforming or fitting, and writing the result each need about
    # one copy beside the input; whole-matrix copies that no output needs
    # (a response view keeping the parsed block alive, a stacked [y, X],
    # the matrix as Python floats) push the peak past four.
    d = concat_rows(*datagen.simulate_two_holders(1000, 100, RngStream(2)))
    save_dataset(tmp_path / "in.csv", d)
    argv = argv[:-1] + [str(tmp_path / argv[-1]), "--input", str(tmp_path / "in.csv")]
    assert cli.main(argv) == 0  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * d.X.nbytes, f"peak {peak / d.X.nbytes:.2f} copies of the matrix"


@pytest.mark.parametrize("header", [[], ["--header"]], ids=["plain", "header"])
def test_commands_read_every_csv_without_loadtxt(tmp_path, monkeypatch, header):
    # Each CSV that simulate, preprocess, fit, predict and attack read is
    # one a dppls writer wrote, so the fast reader takes every one.
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    w = str(tmp_path)
    save_matrix(tmp_path / "truth.csv",
                datagen.gaussian_signal(40, datagen.UNIQUE_HOLDER2)[:, None])
    for argv in [
        ["simulate", "--n", "20", "--m", "40", "--seed", "3", "--output", f"{w}/sim"],
        ["preprocess", "--input", f"{w}/sim/combined.csv", "--output", f"{w}/pre.csv",
         "--pipeline", "sg:9,2,1|msc|center"],
        ["preprocess", "--input", f"{w}/pre.csv", "--output", f"{w}/pre-x.csv",
         "--pipeline", "center", "--matrix-only"],
        ["fit", "--input", f"{w}/pre.csv", "--output", f"{w}/model.json", "--k", "3",
         "--epsilon", "1", "--seed", "3"],
        ["predict", "--model", f"{w}/model.json", "--input", f"{w}/pre.csv",
         "--response-col", "0", "--output", f"{w}/pred.csv"],
        ["predict", "--model", f"{w}/model.json", "--input", f"{w}/sim/holder2.csv",
         "--response-col", "0", "--output", f"{w}/pred2.csv"],
        ["attack", "--global-model", f"{w}/model.json", "--input", f"{w}/sim/holder1.csv",
         "--truth", f"{w}/truth.csv", "--output", f"{w}/attack.json"],
    ]:
        assert cli.main(argv + header) == 0, argv[0]
    assert load_matrix(tmp_path / "pred.csv", header=bool(header)).shape == (40, 1)


def test_preprocess_rejects_unknown_step(sim_dir, tmp_path):
    code = cli.main(["preprocess", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(tmp_path / "x.csv"),
                     "--pipeline", "snv"])
    assert code == cli.EXIT_ARGUMENT


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_parser_of_one_command_parses_and_helps_as_the_full_parser(command, capsys):
    full, own = cli.build_parser(), cli.build_parser([command])
    assert vars(own.parse_args([command])) == vars(full.parse_args([command]))
    helps = []
    for parser in (full, own):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert own.format_help() == full.format_help()
    # Refused command lines end with the same usage, message and status.
    options = cli.COMMANDS[command][1]
    int_flag = next("--" + o.name.replace("_", "-") for o in options if o.type is int)
    refused = [[command, "--bogus"], [command, int_flag, "x"], [command, "extra"]]
    refused += [[command, "--" + o.name, "nope"] for o in options if o.choices]
    for argv in refused:
        outcomes = []
        for parser in (full, own):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv)
            outcomes.append((exit_.value.code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv
        assert outcomes[0][0] == 2 and outcomes[0][1].err.startswith("usage: dppls ")


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n": 7, "m": 20, "seed": 4}))
    out1 = tmp_path / "fromfile"
    assert cli.main(["simulate", "--config", str(config),
                     "--output", str(out1)]) == 0
    assert load_dataset(out1 / "holder1.csv").n == 7

    out2 = tmp_path / "flagwins"
    assert cli.main(["simulate", "--config", str(config), "--n", "5",
                     "--output", str(out2)]) == 0
    assert load_dataset(out2 / "holder1.csv").n == 5
    resolved = json.loads((out2 / "simulate.config.json").read_text())
    assert resolved["n"] == 5 and resolved["m"] == 20


def test_config_file_accepts_dashed_keys(sim_dir, tmp_path):
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"response-col": 0, "k": 2}))
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--config", str(config),
                     "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path)]) == 0
    assert model_path.is_file()


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n": 5, "bogus": 1}))
    assert cli.main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "o")]) == cli.EXIT_ARGUMENT


def test_config_file_must_hold_an_object(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps([{"n": 5}]))
    assert cli.main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "o")]) == cli.EXIT_ARGUMENT
    assert capsys.readouterr().err == f"error: {config}: config must be a flat JSON object\n"
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def run_dir(sim_dir, tmp_path_factory):
    """A fitted model next to the simulated corpus, for config-file runs."""
    out = tmp_path_factory.mktemp("runs")
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out / "model.json"), "--k", "2"]) == 0
    return out


def _flags(sim_dir, run_dir):
    """Flags that make each command run to completion on valid files."""
    data, model = str(sim_dir / "combined.csv"), str(run_dir / "model.json")
    return {
        "simulate": {"output": str(run_dir / "sim"), "n": 5, "m": 12},
        "fit": {"input": data, "output": str(run_dir / "m.json"), "k": 2},
        "predict": {"model": model, "input": data, "output": str(run_dir / "p.csv"),
                    "response_col": 0},
        "attack": {"global_model": model, "input": str(sim_dir / "holder1.csv"),
                   "output": str(run_dir / "a.json")},
        "sweep": {"input": data, "output": str(run_dir / "sweep"), "k": 1,
                  "k_max": 1, "epsilons": "1", "folds": 2, "repeats": 1},
        "preprocess": {"input": data, "output": str(run_dir / "x.csv"),
                       "pipeline": "center"},
    }


def _run_with_config(sim_dir, run_dir, command, config):
    """main() with ``config`` as the config file and flags for every other
    option; returns (exit code, stderr)."""
    argv = [command, "--config", str(run_dir / "config.json")]
    for key, value in _flags(sim_dir, run_dir)[command].items():
        if key not in config:
            argv += ["--" + key.replace("_", "-"), str(value)]
    (run_dir / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_creates_its_output_s_parent_directory(sim_dir, run_dir, tmp_path, command):
    flags = _flags(sim_dir, run_dir)[command]
    out = tmp_path / "new" / "dir" / Path(flags["output"]).name
    argv = [command]
    for key, value in {**flags, "output": out}.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert cli.main(argv) == 0
    if command in ("simulate", "sweep"):
        assert (out / f"{command}.config.json").is_file()
        assert len(list(out.iterdir())) > 1
    else:
        assert out.is_file()
        assert out.with_name(out.stem + ".config.json").is_file()


def test_refused_fit_and_predict_create_no_directory(sim_dir, run_dir, tmp_path):
    flags = _flags(sim_dir, run_dir)
    out = tmp_path / "new"
    code = cli.main(["fit", "--input", flags["fit"]["input"], "--k", "1000",
                     "--output", str(out / "m.json")])
    assert code == cli.EXIT_ARGUMENT
    code = cli.main(["predict", "--model", flags["predict"]["model"],
                     "--input", flags["predict"]["input"], "--response-col", "1000",
                     "--output", str(out / "p.csv")])
    assert code == cli.EXIT_ARGUMENT
    assert not out.exists()


def test_readme_cli_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines() if line.startswith("dppls ")
    ]
    assert [argv[0] for argv in commands] == list(cli.COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_python_examples_run_as_written(tmp_path, monkeypatch):
    # Run in order in one namespace, as a reader would paste them, on a
    # small simulated run standing in for the reader's spectra.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 3
    holder1, holder2 = datagen.simulate_two_holders(12, 30, RngStream(3))
    namespace = {"spectra": holder1.X, "concentrations": holder1.y,
                 "new_spectra": holder2.X}
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("command,config", [
    ("fit", {"k": "abc"}),
    ("fit", {"k": 2.7}),
    ("fit", {"delta": None, "epsilon": 1}),
    ("preprocess", {"pipeline": 5}),
    ("predict", {"header": "false"}),
], ids=["k-string", "k-float", "delta-null", "pipeline-int", "header-string"])
def test_config_file_value_of_wrong_type_exits_2(sim_dir, run_dir, command, config):
    code, err = _run_with_config(sim_dir, run_dir, command, config)
    assert code == cli.EXIT_ARGUMENT
    assert err.startswith("error:") and repr(next(iter(config))) in err


# JSON values of each type, for drawing ones an option must refuse.
_JSON_VALUES = {
    "string": st.text(max_size=8),
    "integer": st.integers(-10**6, 10**6),
    "float": st.floats(),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}
_ACCEPTED = {int: {"integer"}, float: {"integer", "float"}, bool: {"bool"},
             str: {"string"}}


def _wrong_values(opt):
    kinds = [values for kind, values in _JSON_VALUES.items()
             if kind not in _ACCEPTED[opt.type]]
    if opt.choices:
        kinds.append(st.text(max_size=8).filter(lambda v: v not in opt.choices))
    return st.one_of(kinds)


@pytest.mark.parametrize("command,opt", [
    (command, opt) for command, (_, options) in cli.COMMANDS.items() for opt in options
], ids=lambda v: v if isinstance(v, str) else v.name)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_config_value_of_wrong_json_type_exits_2(sim_dir, run_dir, command, opt, data):
    # Only wrongly typed values are drawn, so no fuzzed number ever sizes
    # an allocation; the other options come as flags that would succeed.
    value = data.draw(_wrong_values(opt))
    code, err = _run_with_config(sim_dir, run_dir, command, {opt.name: value})
    assert code == cli.EXIT_ARGUMENT
    assert err.startswith("error:")


def test_config_file_rejects_invalid_json(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert cli.main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "o")]) == cli.EXIT_ARGUMENT


def test_config_file_nested_too_deeply_exits_2(sim_dir, tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000 + "]" * 100_000)
    code = cli.main(["fit", "--config", str(config), "--input", str(sim_dir / "combined.csv"),
                     "--output", str(tmp_path / "m.json"), "--k", "1"])
    assert code == cli.EXIT_ARGUMENT
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_required_option_exits_2(sim_dir, tmp_path):
    code = cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(tmp_path / "m.json")])
    assert code == cli.EXIT_ARGUMENT


def test_missing_input_file_exits_3(tmp_path):
    code = cli.main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "m.json"), "--k", "2"])
    assert code == cli.EXIT_IO


def test_malformed_csv_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,oops,6.0\n")
    code = cli.main(["fit", "--input", str(bad),
                     "--output", str(tmp_path / "m.json"), "--k", "1"])
    assert code == cli.EXIT_IO


def test_csv_that_is_not_utf8_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1.0,2.0,3.0\n4.0,\xff,6.0\n")
    code = cli.main(["fit", "--input", str(bad),
                     "--output", str(tmp_path / "m.json"), "--k", "1"])
    assert code == cli.EXIT_IO
    assert "not UTF-8" in capsys.readouterr().err


def test_unterminated_quote_csv_exits_3(tmp_path, capsys):
    # csv.reader's field runs past its size limit in the line scan.
    bad = tmp_path / "quote.csv"
    bad.write_text('1,2\n3,"4\n' + "5,6\n" * 40000)
    code = cli.main(["preprocess", "--input", str(bad), "--output", str(tmp_path / "o.csv"),
                     "--pipeline", "center"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert "field larger than field limit" in err and "Traceback" not in err


def test_digit_separator_csv_exits_3(tmp_path, capsys):
    bad = tmp_path / "sep.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,1_0,6.0\n5.0,2.0,1.0\n")
    code = cli.main(["fit", "--input", str(bad),
                     "--output", str(tmp_path / "m.json"), "--k", "1"])
    assert code == cli.EXIT_IO
    assert "1_0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["center", "msc", "sg:5,2,1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_preprocess_refuses_non_finite_rows(sim_dir, tmp_path, capsys, spec, bad):
    d = load_dataset(sim_dir / "combined.csv")
    data = np.column_stack([d.y, d.X])[:6]
    data[3, 9] = bad
    path = tmp_path / "bad.csv"
    save_matrix(path, data)
    out = tmp_path / "o.csv"
    code = cli.main(["preprocess", "--input", str(path), "--output", str(out),
                     "--pipeline", spec])
    assert code == cli.EXIT_ARGUMENT
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_preprocess_refuses_non_finite_response(tmp_path, capsys, bad):
    path = tmp_path / "bad.csv"
    save_matrix(path, np.array([[1.0, 0.5, 0.25], [bad, 0.75, 0.5], [3.0, 0.25, 1.0]]))
    out = tmp_path / "o.csv"
    code = cli.main(["preprocess", "--input", str(path), "--output", str(out),
                     "--pipeline", "center"])
    assert code == cli.EXIT_ARGUMENT
    assert "response contains NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


def test_channel_mismatch_exits_4(sim_dir, tmp_path):
    model_path = tmp_path / "model.json"
    cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
              "--output", str(model_path), "--k", "2"])
    narrow = tmp_path / "narrow.csv"
    save_matrix(narrow, np.ones((3, 12)))
    code = cli.main(["predict", "--model", str(model_path),
                     "--input", str(narrow),
                     "--output", str(tmp_path / "p.csv")])
    assert code == cli.EXIT_SHAPE


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_exit_2(sim_dir, tmp_path, capsys, bad):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2"]) == 0
    X = load_dataset(sim_dir / "combined.csv").X[:4]
    X[2, 7] = bad
    features = tmp_path / "features.csv"
    save_matrix(features, X)
    code = cli.main(["predict", "--model", str(model_path),
                     "--input", str(features), "--output", str(tmp_path / "p.csv")])
    assert code == cli.EXIT_ARGUMENT
    assert "NaN or infinite" in capsys.readouterr().err


def test_numerical_failure_exits_5(monkeypatch, tmp_path):
    def boom(args):
        raise NumericalError("synthetic numerical failure")

    monkeypatch.setattr(cli, "cmd_fit", boom)
    code = cli.main(["fit", "--input", "x", "--output", "y", "--k", "1"])
    assert code == cli.EXIT_NUMERICAL


def test_degenerate_training_data_exits_2(tmp_path):
    # Constant response: the fit refuses, which surfaces as an argument
    # class failure rather than an I/O or numerical one.
    rows = ["5.0," + ",".join(str(float(j)) for j in range(4)) for _ in range(6)]
    path = tmp_path / "const.csv"
    path.write_text("\n".join(rows) + "\n")
    code = cli.main(["fit", "--input", str(path),
                     "--output", str(tmp_path / "m.json"), "--k", "1"])
    assert code == cli.EXIT_ARGUMENT


def _corrupt_truncated(text):
    return text[: len(text) // 2]


def _corrupt_missing_b(text):
    doc = json.loads(text)
    del doc["b"]
    return json.dumps(doc)


def _corrupt_short_weights(text):
    doc = json.loads(text)
    doc["W"] = doc["W"][:-1]
    return json.dumps(doc)


def _corrupt_nonfinite(text):
    doc = json.loads(text)
    doc["b"][0] = float("nan")
    return json.dumps(doc)  # writes the bare NaN token json.load accepts


def _corrupt_b(text):
    doc = json.loads(text)
    doc["b"][0] += 1e-6 * np.linalg.norm(doc["b"])
    return json.dumps(doc)


def _corrupt_singular_loadings(text):
    doc = json.loads(text)
    doc["P"] = [[0.0] * len(row) for row in doc["P"]]
    return json.dumps(doc)


def _corrupt_nested_too_deeply(text):
    return "[" * 100_000 + "]" * 100_000


def _corrupt_array_nested_deeply(text):
    # Within json's nesting limit but beyond numpy's dimension limit.
    doc = json.loads(text)
    doc["b"] = None
    return json.dumps(doc).replace('"b": null', '"b": ' + "[" * 500 + "1" + "]" * 500)


def _corrupt_int_beyond_float(text):
    doc = json.loads(text)
    doc["y_mean"] = 10 ** 400
    return json.dumps(doc)


def _corrupt_privacy_dropped(text):
    doc = json.loads(text)
    doc["privacy"] = None  # the log keeps its 8 entries
    return json.dumps(doc)


def _corrupt_log_cut(text):
    doc = json.loads(text)
    doc["calibration_log"] = doc["calibration_log"][:1]
    return json.dumps(doc)


def _corrupt_log_extra_entry(text):
    doc = json.loads(text)
    doc["calibration_log"].append(doc["calibration_log"][0])
    return json.dumps(doc)


def _corrupt_log_two_extra_on_early_stop(text):
    doc = json.loads(text)
    doc["early_stop"] = True
    doc["calibration_log"] += doc["calibration_log"][:2]
    return json.dumps(doc)


def _corrupt_log_out_of_order(text):
    doc = json.loads(text)
    log = doc["calibration_log"]
    log[4]["target"], log[5]["target"] = log[5]["target"], log[4]["target"]
    return json.dumps(doc)


def _scale_sigmas(factor):
    def corrupt(text):
        doc = json.loads(text)
        for entry in doc["calibration_log"]:
            entry["sigma"] *= factor
        return json.dumps(doc)
    return corrupt


def _corrupt_log_method_classic(text):
    doc = json.loads(text)
    for entry in doc["calibration_log"]:
        entry["method"] = "classic"
    return json.dumps(doc)


def _corrupt_log_zeroed(text):
    # Sigma 0 is the analytic sigma of sensitivity 0, so only the
    # sensitivity table refuses this log.
    doc = json.loads(text)
    for entry in doc["calibration_log"]:
        entry["sensitivity"] = entry["sigma"] = 0.0
    return json.dumps(doc)


def _corrupt_weights_sensitivity(text):
    # The second component's weights sensitivity one ulp up, its sigma
    # recalibrated: every sigma matches, the sensitivity table does not.
    doc = json.loads(text)
    entry = doc["calibration_log"][4]
    assert entry["target"] == "weights"
    entry["sensitivity"] = math.nextafter(entry["sensitivity"], math.inf)
    budget = PrivacyBudget(doc["privacy"]["epsilon"], doc["privacy"]["delta"])
    entry["sigma"] = analytic_gaussian_sigma(entry["sensitivity"], budget)
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt", [
    _corrupt_truncated, _corrupt_missing_b,
    _corrupt_short_weights, _corrupt_nonfinite,
    _corrupt_b, _corrupt_singular_loadings,
    _corrupt_nested_too_deeply, _corrupt_array_nested_deeply, _corrupt_int_beyond_float,
    _corrupt_privacy_dropped, _corrupt_log_cut, _corrupt_log_extra_entry,
    _corrupt_log_two_extra_on_early_stop, _corrupt_log_out_of_order,
    _scale_sigmas(1 - 1e-6), _scale_sigmas(1 + 1e-6), _corrupt_log_method_classic,
    _corrupt_log_zeroed, _corrupt_weights_sensitivity,
], ids=["truncated", "missing-key", "shape-mismatch", "non-finite",
        "inconsistent-b", "singular-loadings", "nested-too-deeply", "array-nested-deeply",
        "int-beyond-float",
        "log-without-privacy", "log-cut", "log-extra-entry",
        "log-two-extra-on-early-stop", "log-out-of-order",
        "sigma-shrunk", "sigma-grown", "method-classic",
        "log-zeroed", "weights-sensitivity-altered"])
def test_malformed_model_file_exits_3(sim_dir, tmp_path, capsys, corrupt):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2",
                     "--epsilon", "1", "--seed", "1"]) == 0
    assert cli.main(["predict", "--model", str(model_path),
                     "--input", str(sim_dir / "combined.csv"),
                     "--response-col", "0",
                     "--output", str(tmp_path / "intact.csv")]) == 0
    model_path.write_text(corrupt(model_path.read_text()))
    code = cli.main(["predict", "--model", str(model_path),
                     "--input", str(sim_dir / "combined.csv"),
                     "--response-col", "0",
                     "--output", str(tmp_path / "p.csv")])
    assert code == cli.EXIT_IO
    assert str(model_path) in capsys.readouterr().err


def _set(*keys, value=True):
    """A corruption that puts ``value``, JSON true by default, at
    doc[keys[0]][keys[1]]..."""
    def corrupt(doc):
        *parents, last = keys
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_set("privacy", "epsilon"), "privacy epsilon and delta must be numbers"),
    (_set("y_mean"), "y_mean is not a numeric array"),
    (_set("x_means", 0), "x_means is not a numeric array"),
    (_set("calibration_log", 0, "sensitivity"),
     "calibration_log entry 0: sensitivity and sigma must be numbers"),
    (_set("calibration_log", 0, "sigma"),
     "calibration_log entry 0: sensitivity and sigma must be numbers"),
], ids=["epsilon", "y_mean", "array-entry", "sensitivity", "sigma"])
def test_model_file_with_a_boolean_for_a_number_exits_3(sim_dir, tmp_path, capsys,
                                                       corrupt, message):
    # At epsilon 1, true would read as the budget the sigmas were calibrated for.
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2",
                     "--epsilon", "1", "--seed", "1"]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "p.csv"
    code = cli.main(["predict", "--model", str(model_path),
                     "--input", str(sim_dir / "combined.csv"),
                     "--response-col", "0", "--output", str(out)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {model_path}: malformed model: {message}\n"
    assert not out.exists()


_DISAGREES = "malformed model: b disagrees with W (P^T W)^-1 c"


@pytest.mark.parametrize("corrupt, message", [
    (_set("b", 0, value=1e200), _DISAGREES),
    # The smallest entry whose square overflows: both norms would read inf.
    (_set("b", 0, value=1.3407807929942597e+154), _DISAGREES),
    (_set("c", 0, value=1e300), _DISAGREES),
    (_set("version"), "unsupported model version True"),
    (_set("version", value=1.0), "unsupported model version 1.0"),
], ids=["b-1e200", "b-overflowing-square", "c-1e300", "version-true", "version-float"])
def test_extreme_or_mistyped_model_file_exits_3_without_a_warning(sim_dir, tmp_path, capsys,
                                                                  corrupt, message):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(model_path), "--k", "2",
                     "--epsilon", "1", "--seed", "1"]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "p.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["predict", "--model", str(model_path),
                         "--input", str(sim_dir / "combined.csv"),
                         "--response-col", "0", "--output", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {model_path}: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# corrupted CSV input
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A pooled model for each channel count 1..6, so predict and attack
    get past the channel check on intact files."""
    out = tmp_path_factory.mktemp("fuzz")
    rng = RngStream(11)
    for m in range(1, 7):
        X = rng.uniform(0, 1, (10, m))
        save_model(fit(Dataset(X=X, y=X.sum(axis=1) + rng.uniform(0, 1, 10)),
                       FitConfig(k=1)), out / f"model{m}.json")
    return out


_INSERTED = [b"\xff", b"\x00", b'"', b"#", b",", b"\r", b"a", b"e", b"n", b"Z"]


@st.composite
def _corrupted_csv(draw):
    """(file bytes, header flag, channel count): a valid CSV of at most 8
    rows x 6 channels, then one corruption ("intact" leaves it valid, so
    the commands' own refusals run too)."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * (m + 1), max_size=n * (m + 1)))
    rows = [[repr(v).encode() for v in values[i * (m + 1):(i + 1) * (m + 1)]] for i in range(n)]
    header = draw(st.booleans())
    kind = draw(st.sampled_from(["truncate", "insert", "drop", "duplicate", "empty", "intact"]))
    if kind in ("drop", "duplicate"):
        row = rows[draw(st.integers(0, n - 1))]
        j = draw(st.integers(0, m))
        row[j:j + 1] = [] if kind == "drop" else [row[j], row[j]]
    lines = [b",".join([b"y"] + [b"x%d" % j for j in range(m)])] * header
    text = b"".join(line + b"\n" for line in lines + [b",".join(r) for r in rows])
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"".join(draw(st.lists(st.sampled_from(_INSERTED),
                                                  min_size=1, max_size=4))) + text[at:]
    elif kind == "empty":
        text = b""
    return text, header, m


@settings(max_examples=200, deadline=None)
@given(case=_corrupted_csv())
def test_corrupted_csv_ends_in_a_documented_exit_code(fuzz_dir, case):
    # Only byte strings are drawn; sizes stay those of the valid file.
    text, header, m = case
    data, model = fuzz_dir / "data.csv", str(fuzz_dir / f"model{m}.json")
    data.write_bytes(text)
    runs = [
        ["fit", "--input", str(data), "--output", str(fuzz_dir / "m.json"), "--k", "1",
         "--epsilon", "1"],
        ["predict", "--model", model, "--input", str(data), "--response-col", "0",
         "--output", str(fuzz_dir / "p.csv")],
        ["preprocess", "--input", str(data), "--output", str(fuzz_dir / "x.csv"),
         "--pipeline", "sg:3,1,0|msc|center"],
        ["sweep", "--input", str(data), "--output", str(fuzz_dir / "sweep"), "--k", "1",
         "--k-max", "1", "--epsilons", "1", "--folds", "2", "--repeats", "1"],
        ["attack", "--global-model", model, "--input", str(data),
         "--output", str(fuzz_dir / "a.json")],
    ]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--header"] * header)
        assert code in (0, 2, 3, 4, 5), (argv[0], code, err.getvalue())
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# corrupted model files
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_fuzz_dir(sim_dir, tmp_path_factory):
    """A private k=2 model of the shared corpus, so every model key holds
    a real value (privacy budget and calibration log included)."""
    out = tmp_path_factory.mktemp("model-fuzz")
    assert cli.main(["fit", "--input", str(sim_dir / "combined.csv"),
                     "--output", str(out / "intact.json"), "--k", "2",
                     "--epsilon", "1", "--seed", "5"]) == 0
    return out


def _json_paths(node, path=()):
    """Every key or index path into a parsed JSON document, the root
    excluded."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


# Values that are the wrong type somewhere in a model file, numbers beyond
# float range and JSON's NaN token included.
_WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([10 ** 400, -(10 ** 400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["epsilon", "delta", "sigma"]), st.floats(0, 2), max_size=2),
)
_DEEP = "__deep__"


def _corrupted_model(data, text):
    """The saved model's text after one drawn corruption ("intact" leaves
    it unchanged)."""
    kind = data.draw(st.sampled_from(
        ["truncate", "insert", "wrong-type", "drop", "deep", "intact"]))
    if kind == "truncate":
        return kind, text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "insert":
        at = data.draw(st.integers(0, len(text)))
        return kind, text[:at] + "".join(data.draw(st.lists(
            st.sampled_from(["\x00", '"', "[", "]", "{", "}", ",", ":", "-", "e", "1", "NaN"]),
            min_size=1, max_size=4))) + text[at:]
    if kind == "intact":
        return kind, text
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = _parent_of(doc, path)
    if kind == "drop":
        del parent[path[-1]]
        return kind, json.dumps(doc)
    parent[path[-1]] = data.draw(_WRONG_VALUES) if kind == "wrong-type" else _DEEP
    out = json.dumps(doc)
    if kind == "deep":
        depth = data.draw(st.sampled_from([2, 64, 65, 900, 100_000]))
        out = out.replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    return kind, out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_model_file_ends_in_a_documented_exit_code(sim_dir, model_fuzz_dir, data):
    kind, text = _corrupted_model(data, (model_fuzz_dir / "intact.json").read_text())
    model = model_fuzz_dir / "model.json"
    model.write_text(text, encoding="utf-8")
    runs = [
        ["predict", "--model", str(model), "--input", str(sim_dir / "holder2.csv"),
         "--response-col", "0", "--output", str(model_fuzz_dir / "p.csv")],
        ["attack", "--global-model", str(model), "--input", str(sim_dir / "holder1.csv"),
         "--output", str(model_fuzz_dir / "a.json")],
    ]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4, 5), (kind, argv[0], code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if kind == "intact":
            assert code == 0, err.getvalue()
