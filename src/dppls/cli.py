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
import shutil
import sys
from pathlib import Path
from typing import NamedTuple, Optional

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
    DegenerateInputError,
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
# options
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    """One flag of a command, also accepted as a config-file key.

    ``type`` is str, int, float or bool (a switch).  A config-file value
    must be one the flag accepts: an int for int flags, an int or float
    for float flags, a bool for switches, a string for the rest, and one
    of ``choices`` when they are given.
    """

    name: str
    type: type
    default: object
    help: str
    choices: Optional[tuple] = None


# Default of an option that must be given, as a flag or in the config file.
REQUIRED = object()

_HEADER = Option("header", bool, False, "input/output CSVs carry a header line")
_RESPONSE_COL = Option("response_col", int, 0, "response column")
_DELTA = Option("delta", float, 0.01, "privacy delta")

# Per command: its summary and its options, in help order.
COMMANDS = {
    "simulate": ("generate two-holder synthetic spectra", (
        Option("n", int, 100, "samples per holder"),
        Option("m", int, 100, "channels"),
        Option("seed", int, 0, "master seed"),
        Option("output", str, REQUIRED, "output directory"),
        _HEADER,
    )),
    "fit": ("fit a PLS model, optionally privatized", (
        Option("input", str, REQUIRED, "training CSV"),
        Option("output", str, REQUIRED, "model JSON path"),
        _RESPONSE_COL,
        Option("k", int, REQUIRED, "number of components"),
        Option("epsilon", float, None, "privacy epsilon (omit for no noise)"),
        _DELTA,
        Option("seed", int, 0, "noise seed"),
        _HEADER,
    )),
    "predict": ("predict responses with a saved model", (
        Option("model", str, REQUIRED, "model JSON path"),
        Option("input", str, REQUIRED, "feature CSV"),
        Option("output", str, REQUIRED, "prediction CSV path"),
        Option("response_col", int, None, "drop this column before predicting"),
        _HEADER,
    )),
    "attack": ("project a pooled model against local data", (
        Option("global_model", str, REQUIRED, "pooled model JSON"),
        Option("input", str, REQUIRED, "local holder's CSV"),
        Option("output", str, REQUIRED, "attack report JSON path"),
        Option("truth", str, None, "optional CSV with a ground-truth signal"),
        _RESPONSE_COL,
        Option("k", int, None, "must match the global model if given"),
        Option("matrix", str, "weights", "which component matrix to attack",
               ("weights", "x_loadings")),
        _HEADER,
    )),
    "sweep": ("cross-validation and privacy-utility sweeps", (
        Option("input", str, REQUIRED, "dataset CSV"),
        Option("output", str, REQUIRED, "output directory"),
        _RESPONSE_COL,
        Option("mode", str, "both", "which protocol to run", ("cv", "holdout", "both")),
        Option("k", int, None, "components for the holdout sweep"),
        Option("k_max", int, None, "largest k in the CV grid"),
        Option("epsilons", str, "100,10,1", "comma list of epsilon values"),
        _DELTA,
        Option("folds", int, 10, "CV folds"),
        Option("test_fraction", float, 0.3, "holdout test fraction"),
        Option("repeats", int, 20, "noise repeats per epsilon"),
        Option("pipeline", str, "", "preprocessing spec, e.g. 'sg:5,2,1|center'"),
        Option("seed", int, 0, "master seed"),
        _HEADER,
    )),
    "preprocess": ("apply a preprocessing pipeline to a CSV", (
        Option("input", str, REQUIRED, "input CSV"),
        Option("output", str, REQUIRED, "output CSV"),
        Option("pipeline", str, REQUIRED, "preprocessing spec, e.g. 'sg:5,2,1|msc'"),
        _RESPONSE_COL,
        Option("matrix_only", bool, False, "input has no response column"),
        _HEADER,
    )),
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags into one dict."""
    options = {opt.name: opt for opt in COMMANDS[args.command][1]}
    cfg = {name: opt.default for name, opt in options.items()}
    if args.config:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, deep nesting
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{path}: config must be a flat JSON object")
        for key, value in loaded.items():
            opt = options.get(key.replace("-", "_"))
            if opt is None:
                raise ConfigurationError(f"{path}: unknown config key {key!r}")
            kinds = (int, float) if opt.type is float else opt.type
            if (isinstance(value, bool) != (opt.type is bool) or not isinstance(value, kinds)
                    or opt.choices is not None and value not in opt.choices):
                want = " or ".join(opt.choices) if opt.choices else opt.type.__name__
                raise ConfigurationError(f"{path}: {key!r} must be {want}, got {value!r}")
            cfg[opt.name] = value
    for key in options:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    missing = [key for key, value in cfg.items() if value is REQUIRED]
    if missing:
        raise ConfigurationError(f"missing required option --{missing[0].replace('_', '-')}")
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
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigurationError(f"bad epsilon list {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)

    rng = RngStream(cfg["seed"])
    d1, d2 = datagen.simulate_two_holders(cfg["n"], cfg["m"], rng)

    save_dataset(out / "holder1.csv", d1, header=cfg["header"])
    save_dataset(out / "holder2.csv", d2, header=cfg["header"])
    # combined.csv holds the rows of datagen.concat_rows(d1, d2): holder
    # 1's file, then holder 2's without its header line.  Copying the
    # bytes formats no value twice.
    with open(out / "combined.csv", "wb") as dst:
        for name, skip_header in (("holder1.csv", False), ("holder2.csv", cfg["header"])):
            with open(out / name, "rb") as src:
                if skip_header:
                    src.readline()
                shutil.copyfileobj(src, dst)

    manifest = {
        "n_per_holder": cfg["n"],
        "channels": cfg["m"],
        "seed": cfg["seed"],
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


def cmd_fit(cfg: dict) -> int:
    d = load_dataset(cfg["input"], response_col=cfg["response_col"],
                     header=cfg["header"])
    privacy = None
    rng = None
    if cfg["epsilon"] is not None:
        privacy = PrivacyBudget(float(cfg["epsilon"]), float(cfg["delta"]))
        rng = RngStream(cfg["seed"])
    model = fit(d, FitConfig(k=cfg["k"], privacy=privacy, rng=rng))

    out = Path(cfg["output"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_config(cfg, "fit", out)
    return EXIT_OK


def cmd_predict(cfg: dict) -> int:
    model = load_model(cfg["model"])
    X = load_matrix(cfg["input"], header=cfg["header"])
    if cfg["response_col"] is not None:
        rc = cfg["response_col"]
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


def cmd_attack(cfg: dict) -> int:
    global_model = load_model(cfg["global_model"])
    if cfg["k"] is not None and cfg["k"] != global_model.k:
        raise ConfigurationError(
            f"--k {cfg['k']} does not match the global model's {global_model.k} "
            "components"
        )
    local = load_dataset(cfg["input"], response_col=cfg["response_col"],
                         header=cfg["header"])
    local_model = fit(local, FitConfig(k=global_model.k))

    V_global = global_model.W if cfg["matrix"] == "weights" else global_model.P
    V_local = local_model.W if cfg["matrix"] == "weights" else local_model.P

    doc = {"matrix": cfg["matrix"], "k": global_model.k}
    if cfg["truth"] is not None:
        truth = load_matrix(cfg["truth"])
        if min(truth.shape) != 1:
            raise ShapeError(
                f"{cfg['truth']}: the truth signal must be one column or one row, "
                f"got {truth.shape[0]} x {truth.shape[1]}"
            )
        report = attack_and_score(V_global, V_local, truth.ravel())
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


def cmd_sweep(cfg: dict) -> int:
    d = load_dataset(cfg["input"], response_col=cfg["response_col"],
                     header=cfg["header"])
    eps_list = _parse_eps_list(cfg["epsilons"])
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    rng = RngStream(cfg["seed"])
    delta = float(cfg["delta"])

    if cfg["mode"] in ("cv", "both"):
        k_max = cfg["k_max"] if cfg["k_max"] is not None else (cfg["k"] or 10)
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
            d, cfg["folds"], grid,
            pipeline_spec=cfg["pipeline"], rng=rng.derive(_STREAM_CV),
        )
        report.to_json(out / "cv_report.json")
        report.to_csv(out / "cv_report.csv")

    if cfg["mode"] in ("holdout", "both"):
        if cfg["k"] is None:
            raise ConfigurationError("missing required option --k")
        train, test = train_test_split(
            d, float(cfg["test_fraction"]), rng.derive(_STREAM_SPLIT),
        )
        report = privacy_utility_sweep(
            train, test, eps_list, cfg["k"],
            pipeline_spec=cfg["pipeline"], repeats=cfg["repeats"],
            rng=rng.derive(_STREAM_HOLDOUT), delta=delta,
        )
        report.to_json(out / "holdout_report.json")
        report.to_csv(out / "holdout_report.csv")

    _write_config(cfg, "sweep", out)
    return EXIT_OK


def cmd_preprocess(cfg: dict) -> int:
    pipe = parse_pipeline(cfg["pipeline"])
    out = Path(cfg["output"])
    if cfg["matrix_only"]:
        X = load_matrix(cfg["input"], header=cfg["header"])
        save_matrix(out, pipe.fit_transform(X))
    else:
        d = load_dataset(cfg["input"], response_col=cfg["response_col"],
                         header=cfg["header"])
        if not np.all(np.isfinite(d.y)):
            raise DegenerateInputError("response contains NaN or infinite entries")
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
    for command, (summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for opt in options:
            flag = "--" + opt.name.replace("_", "-")
            shown = opt.help
            if opt.default is REQUIRED:
                shown += " (required)"
            elif opt.default not in (None, "") and opt.type is not bool:
                shown += f" (default {opt.default})"
            # Every flag defaults to None so _resolve can tell it was not given.
            if opt.type is bool:
                p.add_argument(flag, action="store_true", default=None, help=shown)
            else:
                p.add_argument(flag, type=opt.type, choices=opt.choices, help=shown)
    return parser


# Exit code of each error class, the first match winning.
_EXIT_CODES = (
    ((CsvFormatError, ModelFormatError), EXIT_IO),
    (ShapeError, EXIT_SHAPE),
    (NumericalError, EXIT_NUMERICAL),
    (DpplsError, EXIT_ARGUMENT),
    (OSError, EXIT_IO),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # cmd_<command> is looked up here, so replacing it takes effect
        return globals()[f"cmd_{args.command}"](_resolve(args))
    except (DpplsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
