"""Spans and counters recorded around calls into the dppls layers.

The package looks its collaborators up as module attributes at call time
(``evaluate.fit``, ``pls.analytic_gaussian_sigma``, ``cli.load_dataset``,
...).  :func:`instrument` swaps those attributes for wrappers that record a
span per call, and restores them afterwards; no dppls file changes.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Spans ``[layer, start, end, parent, pass]`` and per-pass counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_index = -1
        self.counts = []   # one Counter per pass
        self.distinct = []  # one {name: set} per pass

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.counts.append(Counter())
        self.distinct.append(defaultdict(set))

    def count(self, name: str, amount=1) -> None:
        self.counts[-1][name] += amount

    def see(self, name: str, key) -> None:
        self.distinct[-1][name].add(key)

    def span(self, layer: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span of ``layer``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` count
        work.  A call made while a span of the same layer is open (say
        ``load_dataset`` reaching ``load_matrix``) is neither timed nor
        counted again.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            rec = [layer, _clock(), 0.0, stack[-1] if stack else -1, self.pass_index]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, before):
        """Wrap ``fn`` so each call only runs ``before(args, kwargs)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> list:
        """Self time per layer for each pass: span time minus nested spans."""
        nested = defaultdict(float)
        for layer, start, end, parent, p in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        own = [defaultdict(float) for _ in self.counts]
        for i, (layer, start, end, parent, p) in enumerate(self.spans):
            own[p][layer] += end - start - nested[i]
        return own

    def write(self, path) -> None:
        """Write every span as one JSON line: pass, id, parent, layer, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, p) in enumerate(self.spans):
                fh.write(json.dumps([p, i, parent, layer, start, end]) + "\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(X) -> int:
    return np.atleast_2d(np.asarray(X)).shape[0]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


@contextmanager
def instrument(tracer: Tracer):
    """Swap the dppls attributes that callers look up for traced wrappers
    for the duration of the block."""
    from dppls import cli, core, datagen, evaluate, mechanism, pls, preprocess

    t = tracer
    swapped = []

    def swap(owner, attr, wrap):
        # A seam a later version removes is skipped; its layer reads zero.
        original = getattr(owner, attr, None)
        if original is None:
            return
        swapped.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def spanned(layer, before=None, after=None):
        return lambda fn: t.span(layer, fn, before, after)

    def counted(before):
        return lambda fn: t.counter(fn, before)

    # pls: fits, predictions, the k x k solve and model files.
    def fit_done(args, kwargs, model):
        d = _arg(args, kwargs, 0, "d")
        split = hash((d.X.shape, d.y.tobytes(), d.X[:, 0].tobytes()))
        t.count("pls.fits")
        t.count("pls.components", model.k)
        for j in range(model.k):
            t.see("pls.components", (split, j))

    for owner in (evaluate, cli):
        swap(owner, "fit", spanned("pls.fit", after=fit_done))
        swap(owner, "predict", spanned("pls.predict"))
    swap(pls, "_solve_loading_system", spanned("pls.solve", lambda a, k: t.count("pls.solve.calls")))
    swap(cli, "save_model", spanned("pls.model_save"))
    swap(cli, "load_model", spanned("pls.model_load"))

    # mechanism: calibration, privacy-profile evaluations, sample bounds.
    def calibrating(args, kwargs):
        budget = _arg(args, kwargs, 1, "budget")
        t.count("mechanism.calibrations")
        t.see("mechanism.budgets", (budget.epsilon, budget.delta))

    swap(pls, "analytic_gaussian_sigma", spanned("mechanism.calibrate", calibrating))
    swap(pls, "sample_bounds", spanned("mechanism.bounds", lambda a, k: t.count("mechanism.bounds.calls")))
    # Counted only: timing each of these calls costs more than the call.
    swap(mechanism, "gaussian_privacy_profile",
         counted(lambda a, k: t.count("mechanism.profile_evals")))

    # core: noise sampling and CSV files.
    def drawing(args, kwargs):
        t.count("core.noise.calls")
        if _arg(args, kwargs, 1, "sigma") != 0.0:
            t.count("core.noise.draws", int(_arg(args, kwargs, 0, "length")))

    swap(pls, "gaussian_vector", spanned("core.noise", drawing))

    def reading(args, kwargs):
        t.count("core.csv_read.calls")
        t.count("core.csv_read.mb", _file_mb(_arg(args, kwargs, 0, "path")))

    def written(args, kwargs, result):
        t.count("core.csv_write.calls")
        t.count("core.csv_write.mb", _file_mb(_arg(args, kwargs, 0, "path")))

    for owner, attr in ((cli, "load_dataset"), (cli, "load_matrix"), (core, "load_matrix")):
        swap(owner, attr, spanned("core.csv_read", reading))
    for owner, attr in ((cli, "save_dataset"), (cli, "save_matrix"), (core, "save_matrix")):
        swap(owner, attr, spanned("core.csv_write", after=written))

    # preprocess: the row transforms, and pipelines by training split.
    for step, fn in (("airpls", "airpls_correct"), ("sg", "savitzky_golay"), ("msc", "msc")):
        swap(preprocess, fn, spanned(
            f"preprocess.{step}",
            lambda a, k, step=step: t.count(f"preprocess.{step}.rows", _rows(_arg(a, k, 0, "X"))),
        ))
    for owner in (evaluate, cli):
        swap(owner, "parse_pipeline", counted(lambda a, k: t.count("preprocess.pipelines")))

    splits = weakref.WeakKeyDictionary()

    def rows_through(pipe, X):
        if not pipe.steps:
            return
        X = np.atleast_2d(np.asarray(X, dtype=float))
        split = splits.get(pipe, id(pipe))
        t.count("preprocess.rows", X.shape[0])
        for row in X:
            t.see("preprocess.rows", (split, hash(row.tobytes())))

    def pipeline_fit(args, kwargs):
        pipe, X = args[0], _arg(args, kwargs, 1, "X")
        if pipe.steps:
            splits[pipe] = hash(np.asarray(X, dtype=float).tobytes())
        rows_through(pipe, X)

    swap(preprocess.Pipeline, "fit", counted(pipeline_fit))
    swap(preprocess.Pipeline, "transform",
         counted(lambda a, k: rows_through(a[0], _arg(a, k, 1, "X"))))

    # evaluate, attack, datagen.
    for attr in ("kfold_cv", "privacy_utility_sweep", "train_test_split"):
        swap(cli, attr, spanned("evaluate"))
    swap(evaluate.EvalReport, "to_json", spanned("evaluate.report_write"))
    swap(evaluate.EvalReport, "to_csv", spanned("evaluate.report_write"))
    for attr in ("attack_and_score", "orthogonal_complement_weights"):
        swap(cli, attr, spanned("attack", lambda a, k: t.count("attack.calls")))
    swap(datagen, "simulate_two_holders", spanned("datagen.simulate"))

    try:
        yield
    finally:
        for owner, attr, original in reversed(swapped):
            setattr(owner, attr, original)


def _ratio(num, den, empty=1.0) -> float:
    return num / den if den else empty


# Per-layer time metrics and the span layer whose self time each reports.
TIME_METRICS = {
    "cli.self_s": "cli",
    "core.csv_read_s": "core.csv_read",
    "core.csv_write_s": "core.csv_write",
    "core.noise_s": "core.noise",
    "mechanism.calibrate_s": "mechanism.calibrate",
    "mechanism.bounds_s": "mechanism.bounds",
    "pls.fit_self_s": "pls.fit",
    "pls.solve_s": "pls.solve",
    "pls.predict_s": "pls.predict",
    "pls.model_save_s": "pls.model_save",
    "pls.model_load_s": "pls.model_load",
    "preprocess.airpls_s": "preprocess.airpls",
    "preprocess.sg_s": "preprocess.sg",
    "preprocess.msc_s": "preprocess.msc",
    "attack.project_s": "attack",
    "datagen.simulate_s": "datagen.simulate",
    "evaluate.self_s": "evaluate",
    "evaluate.report_write_s": "evaluate.report_write",
}

COUNT_METRICS = (
    "cli.commands", "core.csv_read.calls", "core.csv_write.calls",
    "core.noise.calls", "core.noise.draws",
    "mechanism.calibrations", "mechanism.profile_evals", "mechanism.bounds.calls",
    "pls.fits", "pls.components", "pls.solve.calls",
    "preprocess.pipelines", "preprocess.airpls.rows", "preprocess.sg.rows",
    "preprocess.msc.rows", "attack.calls",
)


def pass_metrics(tracer: Tracer) -> list:
    """Per-layer metrics of each traced pass, as {name: (value, unit)}."""
    result = []
    for c, seen, own in zip(tracer.counts, tracer.distinct, tracer.self_times()):
        m = {name: (own.get(layer, 0.0), "s") for name, layer in TIME_METRICS.items()}
        m.update({name: (c[name], "count") for name in COUNT_METRICS})
        m["core.csv_read.mb"] = (c["core.csv_read.mb"], "MB")
        m["core.csv_write.mb"] = (c["core.csv_write.mb"], "MB")
        m["mechanism.profile_evals_per_calibration"] = (
            _ratio(c["mechanism.profile_evals"], c["mechanism.calibrations"], 0.0), "ratio")
        m["mechanism.budget_reuse_ratio"] = (
            _ratio(len(seen["mechanism.budgets"]), c["mechanism.calibrations"]), "ratio")
        m["pls.component_reuse_ratio"] = (
            _ratio(len(seen["pls.components"]), c["pls.components"]), "ratio")
        m["preprocess.row_reuse_ratio"] = (
            _ratio(len(seen["preprocess.rows"]), c["preprocess.rows"]), "ratio")
        result.append(m)
    return result
