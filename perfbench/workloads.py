"""Workloads of the dppls benchmark: their commands, outputs and checks.

The commands and sizes come from ``spec.json``.  A pass runs a workload's
commands in order through ``dppls.cli.main``.  After a pass, the outputs
are read back into named lists of numbers, keyed ``<command>:<output>`` so
that a mismatch can be charged to the command that wrote it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import nipals_ref

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
WORKLOADS = SPEC["workloads"]

# The CLI's default holdout fraction; the workload commands leave it unset.
_TEST_FRACTION = 0.3
# Substreams the CLI derives for the holdout split and for the CV folds.
_STREAM_SPLIT = 1
_STREAM_CV = 2


def params(name: str, toy: bool) -> dict:
    return WORKLOADS[name]["toy" if toy else "full"]


def commands(name: str, toy: bool, seed: int, work: Path) -> list:
    """The pass as a list of (label, argv) pairs."""
    fields = dict(params(name, toy), seed=seed, work=work)
    return [
        (label, [part.format(**fields) for part in argv])
        for label, argv in WORKLOADS[name]["commands"]
    ]


def sweep_fits(name: str, toy: bool) -> int:
    """Model fits a sweep pass completes when every fit succeeds."""
    p = params(name, toy)
    n_eps = len(p["epsilons"].split(","))
    return p["folds"] * p["k_max"] * (1 + n_eps) + 1 + n_eps * p["repeats"]


def make_inputs(name: str, toy: bool, work: Path) -> None:
    """Write the inputs a pass takes besides what its commands generate."""
    if WORKLOADS[name]["kind"] == "holders":
        from dppls import datagen

        truth = datagen.gaussian_signal(params(name, toy)["m"], datagen.UNIQUE_HOLDER2)
        (work / "truth.csv").write_text("".join(f"{float(v)!r}\n" for v in truth))


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def _numbers(values) -> list:
    return [None if v is None else float(v) for v in values]


def collect(name: str, work: Path) -> tuple[dict, int, int]:
    """Read one pass's outputs.

    Returns (outputs, report entries, failed report entries); outputs maps
    ``<command>:<output>`` to a flat list of numbers or None.
    """
    outputs, entries, failed = {}, 0, 0
    if WORKLOADS[name]["kind"] == "sweep":
        for report in ("cv", "holdout"):
            doc = json.loads((work / "sweep" / f"{report}_report.json").read_text())
            entries += len(doc["entries"])
            failed += sum(e["status"] != "ok" for e in doc["entries"])
            outputs[f"sweep:{report}.entries"] = _numbers(
                e[f] for e in doc["entries"] for f in ("rmsecv", "rmsep", "r2p")
            )
            outputs[f"sweep:{report}.aggregates"] = _numbers(
                a.get(f) for a in doc["aggregates"]
                for f in ("rmsep_mean", "rmsep_se", "r2p_mean", "r2p_se")
            )
    else:
        pred = np.loadtxt(work / "pred.csv", delimiter=",", ndmin=1)
        outputs["predict:predictions"] = _numbers(pred)
        doc = json.loads((work / "attack.json").read_text())
        outputs["attack:similarities"] = _numbers(doc["similarities"])
    return outputs, entries, failed


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def mismatches(got: dict, want: dict, rtol: float, atol: float) -> dict:
    """Compare outputs key by key; return {key: reason} for every mismatch."""
    bad = {}
    for key, ref in want.items():
        val = got.get(key)
        if val is None or len(val) != len(ref):
            bad[key] = "missing or of another length"
            continue
        for i, (a, b) in enumerate(zip(val, ref)):
            if (a is None) != (b is None):
                bad[key] = f"value {i}: {a!r} against {b!r}"
                break
            if a is not None and not _close(a, b, rtol, atol):
                bad[key] = f"value {i}: {a!r} against {b!r}"
                break
    return bad


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def independent_mismatches(name: str, toy: bool, seed: int, work: Path,
                           outputs: dict, rtol: float, atol: float) -> dict:
    """Check a pass's outputs against values recomputed without dppls's
    fitting code; return {key: reason} for every mismatch.

    Sweeps: every clean (baseline) entry, through textbook NIPALS on the
    same folds and split.  Holders: the saved regression vector against
    the saved components, the predictions against the saved model, and the
    attack similarities against a textbook local fit.
    """
    if WORKLOADS[name]["kind"] == "sweep":
        expected = _sweep_baselines(params(name, toy), seed, work, outputs)
    else:
        expected = _holders_expected(work, outputs)
    bad = {}
    for key, (got, want) in expected.items():
        for i, b in want.items():
            a = got[i] if got is not None and i < len(got) else None
            if a is None or not _close(a, b, rtol, atol):
                bad[key] = f"value {i}: {a!r} against independent {b!r}"
                break
    return bad


def _row_transform(pipeline: str):
    """The stateless row step in front of the final centering, if any."""
    if pipeline == "":
        return lambda X: X
    if pipeline == "airpls|center":
        from dppls.preprocess import airpls_correct

        return airpls_correct
    raise ValueError(f"no independent check for pipeline {pipeline!r}")


def _sweep_baselines(p: dict, seed: int, work: Path, outputs: dict) -> dict:
    from dppls.core import RngStream

    data = np.loadtxt(work / "data" / "combined.csv", delimiter=",", ndmin=2)
    y = data[:, 0]
    # Row steps act per row, so transforming all rows once equals the
    # per-split transforms; centering happens inside the textbook fit.
    X = _row_transform(p["pipeline"])(data[:, 1:])
    n = len(y)

    # Entries hold (rmsecv, rmsep, r2p); the CV grid lists, for each k, the
    # clean configuration and then one per epsilon.
    per_k = 3 * (1 + len(p["epsilons"].split(",")))
    blocks = np.array_split(RngStream(seed).derive(_STREAM_CV).permutation(n), p["folds"])
    cv = {}
    for k in range(1, p["k_max"] + 1):
        sq = []
        for i, test in enumerate(blocks):
            train = np.concatenate([b for j, b in enumerate(blocks) if j != i])
            pred = nipals_ref.fit_predict(X[train], y[train], X[test], k)
            sq.extend((y[test] - pred) ** 2)
        cv[(k - 1) * per_k] = float(np.sqrt(np.mean(sq)))

    perm = RngStream(seed).derive(_STREAM_SPLIT).permutation(n)
    n_train = int(np.ceil(n * (1.0 - _TEST_FRACTION)))
    train, test = perm[:n_train], perm[n_train:]
    pred = nipals_ref.fit_predict(X[train], y[train], X[test], p["k"])
    sse = float(np.sum((y[test] - pred) ** 2))
    sst = float(np.sum((y[test] - y[test].mean()) ** 2))
    holdout = {1: float(np.sqrt(sse / len(test))), 2: 1.0 - sse / sst}
    return {
        "sweep:cv.entries": (outputs.get("sweep:cv.entries"), cv),
        "sweep:holdout.entries": (outputs.get("sweep:holdout.entries"), holdout),
    }


def _holders_expected(work: Path, outputs: dict) -> dict:
    model = json.loads((work / "model.json").read_text())
    W, P = np.array(model["W"]), np.array(model["P"])
    c, b = np.array(model["c"]), np.array(model["b"])
    X = np.loadtxt(work / "pre.csv", delimiter=",", ndmin=2)[:, 1:]
    pred = (X - np.array(model["x_means"])) @ b + model["y_mean"]

    local = np.loadtxt(work / "data" / "holder1.csv", delimiter=",", ndmin=2)
    Xl, yl = local[:, 1:], local[:, 0]
    W_local, _, _ = nipals_ref.weights_and_loadings(
        Xl - Xl.mean(axis=0), yl - yl.mean(), model["k"]
    )
    residual = W - W_local @ np.linalg.lstsq(W_local, W, rcond=None)[0]
    truth = np.loadtxt(work / "truth.csv", ndmin=1)
    sims = np.abs(truth @ residual) / (np.linalg.norm(truth) * np.linalg.norm(residual, axis=0))

    def dense(values):
        return dict(enumerate(float(v) for v in values))

    return {
        "fit:b": (_numbers(b), dense(W @ np.linalg.solve(P.T @ W, c))),
        "predict:predictions": (outputs.get("predict:predictions"), dense(pred)),
        "attack:similarities": (outputs.get("attack:similarities"), dense(sims)),
    }
