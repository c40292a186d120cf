"""Command-line interface.

Subcommands: simulate | fit | predict | attack | sweep | preprocess.
Options may come from a flat JSON config file (--config) with explicit
command-line flags taking precedence.  Every run writes the fully
resolved configuration next to its outputs, and every stochastic command
is bit-reproducible from --seed.

Exit codes: 0 success, 2 argument/configuration problems, 3 I/O and file
format problems (CSV and model files), 4 shape mismatches, 5 numerical
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datagen
from .attack import attack_and_score, orthogonal_complement_weights
from .core import (
    Dataset,
    PrivacyBudget,
    RngStream,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
)
from .errors import (
    ArgumentError,
    ConfigurationError,
    CsvFormatError,
    DpplsError,
    ModelFormatError,
    NumericalError,
    ShapeError,
)
from .evaluate import kfold_cv, privacy_utility_sweep, train_test_split
from .pls import FitConfig, fit, load_model, predict, save_model
from .preprocess import parse_pipeline

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_NUMERICAL = 5

# Substream indices so independent tasks never share a stream.
_STREAM_SPLIT = 1
_STREAM_CV = 2
_STREAM_HOLDOUT = 3


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags into one dict."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{path}: config must be a flat JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in defaults:
                raise ConfigurationError(f"{path}: unknown config key {key!r}")
            cfg[norm] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_config(cfg: dict, command: str, anchor: Path) -> None:
    """Write the resolved config next to the command's outputs."""
    if anchor.is_dir():
        path = anchor / f"{command}.config.json"
    else:
        path = anchor.with_name(anchor.stem + ".config.json")
    doc = {"command": command, **cfg}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _parse_eps_list(text: str) -> list[float]:
    if not str(text).strip():
        return []
    try:
        values = [float(t) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise ConfigurationError(f"bad epsilon list {text!r}") from None
    return values


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigurationError(f"missing required option --{key.replace('_', '-')}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    defaults = {"n": 100, "m": 100, "seed": 0, "output": None, "header": False}
    cfg = _resolve(args, defaults)
    _require(cfg, "output")
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)

    rng = RngStream(int(cfg["seed"]))
    d1, d2 = datagen.simulate_two_holders(int(cfg["n"]), int(cfg["m"]), rng)
    pooled = datagen.concat_rows(d1, d2)

    save_dataset(out / "holder1.csv", d1, header=cfg["header"])
    save_dataset(out / "holder2.csv", d2, header=cfg["header"])
    save_dataset(out / "combined.csv", pooled, header=cfg["header"])

    manifest = {
        "n_per_holder": int(cfg["n"]),
        "channels": int(cfg["m"]),
        "seed": int(cfg["seed"]),
        "concentration_range": [datagen.CONCENTRATION_LOW, datagen.CONCENTRATION_HIGH],
        "signals": {
            name: {"center": s.center, "width": s.width, "height": s.height}
            for name, s in datagen.DEFAULT_SPECS.items()
        },
        "files": {
            "holder1": "holder1.csv",
            "holder2": "holder2.csv",
            "combined": "combined.csv",
        },
        "layout": "response in first column, channels follow",
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_config(cfg, "simulate", out)
    return EXIT_OK


def cmd_fit(args) -> int:
    defaults = {
        "input": None, "output": None, "response_col": 0, "header": False,
        "k": None, "epsilon": None, "delta": 0.01, "seed": 0,
    }
    cfg = _resolve(args, defaults)
    _require(cfg, "input", "output", "k")

    d = load_dataset(cfg["input"], response_col=int(cfg["response_col"]),
                     header=cfg["header"])
    privacy = None
    rng = None
    if cfg["epsilon"] is not None:
        privacy = PrivacyBudget(float(cfg["epsilon"]), float(cfg["delta"]))
        rng = RngStream(int(cfg["seed"]))
    model = fit(d, FitConfig(k=int(cfg["k"]), privacy=privacy, rng=rng))

    out = Path(cfg["output"])
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_config(cfg, "fit", out)
    return EXIT_OK


def cmd_predict(args) -> int:
    defaults = {
        "model": None, "input": None, "output": None,
        "response_col": None, "header": False,
    }
    cfg = _resolve(args, defaults)
    _require(cfg, "model", "input", "output")

    model = load_model(cfg["model"])
    X = load_matrix(cfg["input"], header=cfg["header"])
    if cfg["response_col"] is not None:
        rc = int(cfg["response_col"])
        if not (0 <= rc < X.shape[1]):
            raise ArgumentError(
                f"response column {rc} out of range for {X.shape[1]} columns"
            )
        X = np.delete(X, rc, axis=1)
    y_hat = predict(model, X)

    out = Path(cfg["output"])
    save_matrix(out, y_hat[:, None], header=["prediction"] if cfg["header"] else None)
    _write_config(cfg, "predict", out)
    return EXIT_OK


def cmd_attack(args) -> int:
    defaults = {
        "global_model": None, "input": None, "output": None, "truth": None,
        "response_col": 0, "header": False, "k": None, "matrix": "weights",
    }
    cfg = _resolve(args, defaults)
    _require(cfg, "global_model", "input", "output")
    if cfg["matrix"] not in ("weights", "x_loadings"):
        raise ConfigurationError("--matrix must be 'weights' or 'x_loadings'")

    global_model = load_model(cfg["global_model"])
    if cfg["k"] is not None and int(cfg["k"]) != global_model.k:
        raise ConfigurationError(
            f"--k {cfg['k']} does not match the global model's {global_model.k} "
            "components"
        )
    local = load_dataset(cfg["input"], response_col=int(cfg["response_col"]),
                         header=cfg["header"])
    local_model = fit(local, FitConfig(k=global_model.k))

    V_global = global_model.W if cfg["matrix"] == "weights" else global_model.P
    V_local = local_model.W if cfg["matrix"] == "weights" else local_model.P

    doc = {"matrix": cfg["matrix"], "k": global_model.k}
    if cfg["truth"] is not None:
        truth = load_matrix(cfg["truth"])
        truth = truth.ravel()
        report = attack_and_score(V_global, V_local, truth)
        doc["similarities"] = [float(v) for v in report.similarities]
        doc["component_argmax"] = report.component_argmax
        doc["best_similarity"] = report.best_similarity
        residual = report.residual
    else:
        residual = orthogonal_complement_weights(V_global, V_local)
        doc["similarities"] = None
        doc["component_argmax"] = None
        doc["best_similarity"] = None
    doc["residual"] = [[float(v) for v in row] for row in residual]

    out = Path(cfg["output"])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_config(cfg, "attack", out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    defaults = {
        "input": None, "output": None, "response_col": 0, "header": False,
        "mode": "both", "k": None, "k_max": None, "epsilons": "100,10,1",
        "delta": 0.01, "folds": 10, "test_fraction": 0.3, "repeats": 20,
        "pipeline": "", "seed": 0,
    }
    cfg = _resolve(args, defaults)
    _require(cfg, "input", "output")
    if cfg["mode"] not in ("cv", "holdout", "both"):
        raise ConfigurationError("--mode must be cv, holdout, or both")

    d = load_dataset(cfg["input"], response_col=int(cfg["response_col"]),
                     header=cfg["header"])
    eps_list = _parse_eps_list(cfg["epsilons"])
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    rng = RngStream(int(cfg["seed"]))
    delta = float(cfg["delta"])

    if cfg["mode"] in ("cv", "both"):
        k_max = int(cfg["k_max"] if cfg["k_max"] is not None else (cfg["k"] or 10))
        if k_max < 1:
            raise ConfigurationError(f"--k-max must be at least 1, got {k_max}")
        grid = []
        for k in range(1, k_max + 1):
            grid.append(FitConfig(k=k))
            for eps in eps_list:
                grid.append(FitConfig(
                    k=k, privacy=PrivacyBudget(float(eps), delta),
                ))
        report = kfold_cv(
            d, int(cfg["folds"]), grid,
            pipeline_spec=cfg["pipeline"], rng=rng.derive(_STREAM_CV),
        )
        report.to_json(out / "cv_report.json")
        report.to_csv(out / "cv_report.csv")

    if cfg["mode"] in ("holdout", "both"):
        _require(cfg, "k")
        train, test = train_test_split(
            d, float(cfg["test_fraction"]), rng.derive(_STREAM_SPLIT),
        )
        report = privacy_utility_sweep(
            train, test, eps_list, int(cfg["k"]),
            pipeline_spec=cfg["pipeline"], repeats=int(cfg["repeats"]),
            rng=rng.derive(_STREAM_HOLDOUT), delta=delta,
        )
        report.to_json(out / "holdout_report.json")
        report.to_csv(out / "holdout_report.csv")

    _write_config(cfg, "sweep", out)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    defaults = {
        "input": None, "output": None, "pipeline": None,
        "response_col": 0, "header": False, "matrix_only": False,
    }
    cfg = _resolve(args, defaults)
    _require(cfg, "input", "output", "pipeline")

    pipe = parse_pipeline(cfg["pipeline"])
    out = Path(cfg["output"])
    if cfg["matrix_only"]:
        X = load_matrix(cfg["input"], header=cfg["header"])
        save_matrix(out, pipe.fit_transform(X))
    else:
        d = load_dataset(cfg["input"], response_col=int(cfg["response_col"]),
                         header=cfg["header"])
        transformed = Dataset(X=pipe.fit_transform(d.X), y=d.y)
        save_dataset(out, transformed, header=cfg["header"])
    _write_config(cfg, "preprocess", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppls",
        description="Differentially private PLS1 regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--header", action="store_true", default=None,
                       help="input/output CSVs carry a header line")

    p = sub.add_parser("simulate", help="generate two-holder synthetic spectra")
    add_common(p)
    p.add_argument("--n", type=int, help="samples per holder (default 100)")
    p.add_argument("--m", type=int, help="channels (default 100)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--output", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a PLS model, optionally privatized")
    add_common(p)
    p.add_argument("--input", help="training CSV")
    p.add_argument("--output", help="model JSON path")
    p.add_argument("--response-col", type=int, help="response column (default 0)")
    p.add_argument("--k", type=int, help="number of components")
    p.add_argument("--epsilon", type=float, help="privacy epsilon (omit for no noise)")
    p.add_argument("--delta", type=float, help="privacy delta (default 0.01)")
    p.add_argument("--seed", type=int, help="noise seed (default 0)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict responses with a saved model")
    add_common(p)
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--input", help="feature CSV")
    p.add_argument("--output", help="prediction CSV path")
    p.add_argument("--response-col", type=int,
                   help="drop this column before predicting (default: none)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("attack", help="project a pooled model against local data")
    add_common(p)
    p.add_argument("--global-model", help="pooled model JSON")
    p.add_argument("--input", help="local holder's CSV")
    p.add_argument("--output", help="attack report JSON path")
    p.add_argument("--truth", help="optional CSV with a ground-truth signal")
    p.add_argument("--response-col", type=int, help="response column (default 0)")
    p.add_argument("--k", type=int, help="must match the global model if given")
    p.add_argument("--matrix", choices=["weights", "x_loadings"],
                   help="which component matrix to attack (default weights)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", help="cross-validation and privacy-utility sweeps")
    add_common(p)
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--output", help="output directory")
    p.add_argument("--response-col", type=int, help="response column (default 0)")
    p.add_argument("--mode", choices=["cv", "holdout", "both"],
                   help="which protocol to run (default both)")
    p.add_argument("--k", type=int, help="components for the holdout sweep")
    p.add_argument("--k-max", type=int, help="largest k in the CV grid")
    p.add_argument("--epsilons", help="comma list of epsilon values (default 100,10,1)")
    p.add_argument("--delta", type=float, help="privacy delta (default 0.01)")
    p.add_argument("--folds", type=int, help="CV folds (default 10)")
    p.add_argument("--test-fraction", type=float,
                   help="holdout test fraction (default 0.3)")
    p.add_argument("--repeats", type=int, help="noise repeats per epsilon (default 20)")
    p.add_argument("--pipeline", help="preprocessing spec, e.g. 'sg:5,2,1|center'")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preprocess", help="apply a preprocessing pipeline to a CSV")
    add_common(p)
    p.add_argument("--input", help="input CSV")
    p.add_argument("--output", help="output CSV")
    p.add_argument("--pipeline", help="preprocessing spec, e.g. 'sg:5,2,1|msc'")
    p.add_argument("--response-col", type=int, help="response column (default 0)")
    p.add_argument("--matrix-only", action="store_true", default=None,
                   help="input has no response column")
    p.set_defaults(func=cmd_preprocess)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CsvFormatError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DpplsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
