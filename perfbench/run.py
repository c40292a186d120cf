"""The dppls benchmark: CLI workloads run in one process, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-clean --seed 1 --seconds 30 --trace 0

Workloads, their commands and sizes are in ``perfbench/spec.json``.  A run
builds nothing: it imports dppls from ``src/`` of the checkout it sits in,
and fails without printing a result when that source is missing.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs untraced and traced passes for half the time each
and prints the per-layer metrics, including the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``--toy``
runs every workload at a size that takes seconds.

The run pins itself to one CPU and subtracts that CPU's steal time (time
the hypervisor gave the CPU to other work) from every time it measures.
Between passes, and between set-up imports, it times a fixed mix of work
independent of dppls (``host.SpeedProbe``); ``wall_norm_s`` and
``setup_s`` scale each sample by the probe's time on the reference host
over its time around that sample, so that drift in the speed of a shared
host cancels out.  See ``host.py``.

Generated files go to a temporary directory under ``.perfbench-out/`` at
the repository root, which is removed at the end; the spans of a traced
run are written to ``.perfbench-out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import host

# Before numpy loads (workloads imports it), so OpenBLAS starts one thread.
CPU = host.pin()

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Passes a run times at least: 11 leaves ten passes beyond the tail
# percentile it prints.  Each half of a traced run needs only a median.
MIN_PASSES = {"full": 11, "toy": 3}
MIN_TRACE_PASSES = 3
# Stop measuring after this long whatever the pass count (split between the
# two halves of a traced run), so a run ends inside the three minutes it may
# take.
MAX_MEASURE_S = 100.0
# Timed fresh-interpreter imports per run; at full size one untimed warm-up
# import comes first.
SETUP_REPEATS = {"full": 7, "toy": 1}
# Seconds the speed probe takes on the host the benchmark was defined on.
REFERENCE_PROBE_S = workloads.SPEC["speed_probe"]["reference_s"]
IMPORT_LAYERS = {
    "import.numpy_s": "numpy",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_linalg_s": "scipy.linalg",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the pass after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="run the workload at toy size, in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": CPU,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _import_breakdown(stderr: str) -> dict:
    """Seconds per import layer from ``-X importtime`` output."""
    out = dict.fromkeys(list(IMPORT_LAYERS) + ["import.dppls_own_s"], 0.0)
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            own, cumulative = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        for metric, module in IMPORT_LAYERS.items():
            if name == module and out[metric] == 0.0:
                out[metric] = cumulative / 1e6
        if name == "dppls" or name.startswith("dppls."):
            out["import.dppls_own_s"] += own / 1e6
    return out


def at_reference_speed(times: list, probes: list) -> list:
    """Scale each time by the probe's reference time over the mean of the
    probe times just before and just after it (``probes`` has one more
    entry than ``times``)."""
    return [t * 2 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1])
            for i, t in enumerate(times)]


def measure_setup(repeats: int, warmup: bool, probe) -> tuple:
    """Time fresh interpreters from start until ``import dppls`` is done,
    less the steal time of the benchmark's CPU, which the child inherits.
    Return the samples and the probe times around them.

    The child prints the monotonic clock, which Linux shares across
    processes, right after the import; its exit is not timed, but steal
    time is read after it, at a granularity of one clock tick.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import dppls, time; print(time.monotonic())"]
    samples, probes = [], []
    for i in range(repeats + int(warmup)):
        if i >= int(warmup):
            probes.append(probe.seconds())
        stolen = host.steal_ticks(CPU)
        start = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        stolen = host.ticks_to_s(host.steal_ticks(CPU) - stolen)
        if proc.returncode != 0:
            raise RuntimeError(f"import dppls failed:\n{proc.stderr[-2000:]}")
        sample = _import_breakdown(proc.stderr)
        sample["setup_s"] = float(proc.stdout.split()[-1]) - start - stolen
        if i >= int(warmup):
            samples.append(sample)
    probes.append(probe.seconds())
    return samples, probes


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, cmds, codes, entries, failed_entries, bad: dict) -> None:
        failed_cmds = {label for (label, _), rc in zip(cmds, codes) if rc != 0}
        for label, rc in zip((label for label, _ in cmds), codes):
            if rc != 0:
                self.reasons.append(f"{label} exited with {rc}")
        for key, reason in bad.items():
            self.reasons.append(f"{key}: {reason}")
            failed_cmds.add(key.split(":")[0])
        if failed_entries:
            self.reasons.append(f"{failed_entries} report entries failed")
        self.attempted += len(cmds) + entries
        self.failed += len(failed_cmds) + failed_entries


def _call(main, argv) -> int:
    """Run one command; an escaping exception counts as exit code 1, as it
    would for the installed ``dppls`` script."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def run_pass(main, cmds) -> tuple:
    """Run the pass once; return (seconds, steal seconds, exit codes).

    Garbage left by earlier passes is collected first, untimed, so every
    pass starts as the first command of a fresh process would.
    """
    gc.collect()
    stolen = host.steal_ticks(CPU)
    start = time.perf_counter()
    codes = [_call(main, argv) for _, argv in cmds]
    elapsed = time.perf_counter() - start
    return elapsed, host.ticks_to_s(host.steal_ticks(CPU) - stolen), codes


def repeat_passes(main, cmds, seconds, min_passes, limit, check, probe,
                  tracer=None) -> tuple:
    """Repeat the pass for ``seconds`` and at least ``min_passes`` times,
    but stop once ``limit`` seconds have gone.  Return the pass times with
    steal time subtracted, the steal times, and the probe times before
    each pass and after the last."""
    times, steals, probes = [], [], []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        probes.append(probe.seconds())
        if tracer is not None:
            tracer.begin_pass()
        elapsed, stolen, codes = run_pass(main, cmds)
        times.append(elapsed - stolen)
        steals.append(stolen)
        check(codes)
        if time.perf_counter() - start > limit:
            break
    probes.append(probe.seconds())
    return times, steals, probes


def tail(times: list):
    """The highest percentile with at least ten passes beyond it, as
    (seconds, rank in percent), or None with fewer than 11 passes."""
    ordered = sorted(times)
    i = len(ordered) - 11
    if i < 0:
        return None
    return ordered[i], 100.0 * i / (len(ordered) - 1)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _load_reference(name: str, toy: bool, seed: int):
    ref = workloads.SPEC["reference"]
    if seed != ref["seed"]:
        return None
    doc = json.loads((ROOT / ref["file"]).read_text())
    return doc["toy" if toy else "full"][name]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dppls" / "__init__.py").is_file():
        print(f"perfbench: no dppls source at {SRC / 'dppls'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dppls
    from dppls import cli

    if Path(dppls.__file__).resolve().parent != SRC / "dppls":
        print(f"perfbench: imported dppls from {dppls.__file__}, not {SRC}", file=sys.stderr)
        return 2

    size = "toy" if args.toy else "full"
    tol = workloads.SPEC["reference"]
    rtol, atol = tol["rtol"], tol["atol"]
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    ledger = Ledger()
    with host.SpeedProbe() as probe, \
            tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        setup, setup_probes = measure_setup(SETUP_REPEATS[size], not args.toy, probe)
        work = Path(tmp)
        cmds = workloads.commands(args.workload, args.toy, args.seed, work)
        for label, argv in cmds:
            print(f"command {label}: dppls {' '.join(argv)}")
        workloads.make_inputs(args.workload, args.toy, work)

        # Warm-up pass: not timed; its outputs are checked against the
        # independent computations and, at the reference seed, against the
        # recorded reference, then become what every later pass must match.
        _, _, codes = run_pass(cli.main, cmds)
        try:
            reference, entries, failed_entries = workloads.collect(args.workload, work)
            bad = workloads.independent_mismatches(
                args.workload, args.toy, args.seed, work, reference, rtol, atol)
        except (OSError, ValueError, KeyError) as exc:
            reference, entries, failed_entries = {}, 0, 0
            bad = {"outputs": f"unreadable: {exc!r}"}
        recorded = _load_reference(args.workload, args.toy, args.seed)
        if recorded is not None:
            bad.update(workloads.mismatches(reference, recorded, rtol, atol))
        ledger.record(cmds, codes, entries, failed_entries, bad)

        def check(codes):
            try:
                got, n, n_failed = workloads.collect(args.workload, work)
            except (OSError, ValueError, KeyError):
                got, n, n_failed = {}, 0, 0
            ledger.record(cmds, codes, n, n_failed,
                          workloads.mismatches(got, reference, rtol, atol))

        phases = 2 if args.trace else 1
        seconds, limit = args.seconds / phases, MAX_MEASURE_S / phases
        min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES[size]
        times, steals, probes = repeat_passes(cli.main, cmds, seconds, min_passes,
                                              limit, check, probe)
        if args.trace:
            tracer = tracing.Tracer()
            main_traced = tracer.span("cli", cli.main,
                                      lambda a, k: tracer.count("cli.commands"))
            with tracing.instrument(tracer):
                traced, _, traced_probes = repeat_passes(
                    main_traced, cmds, seconds, min_passes, limit, check, probe, tracer)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_path)

    wall = statistics.median(times)
    times_norm = at_reference_speed(times, probes)
    wall_norm = statistics.median(times_norm)
    if args.trace:
        per_pass = tracing.pass_metrics(tracer)
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        for name in list(IMPORT_LAYERS) + ["import.dppls_own_s"]:
            metrics[name] = (statistics.median(s[name] for s in setup), "s")
        traced_norm = statistics.median(at_reference_speed(traced, traced_probes))
        metrics["trace.overhead_ratio"] = (traced_norm / wall_norm, "ratio")
        print(f"wall_norm_s untraced {wall_norm:.6f} s, traced {traced_norm:.6f} s "
              f"over {len(times)} and {len(traced)} passes; spans in {spans_path}")
    else:
        setup_s = [s["setup_s"] for s in setup]
        metrics = {
            "setup_s": (statistics.median(at_reference_speed(setup_s, setup_probes)), "s"),
            "wall_norm_s": (wall_norm, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        high = tail(times_norm)
        print(f"wall_norm_s over {len(times)} passes: median {wall_norm:.6f} s"
              + (f", p{high[1]:.0f} {high[0]:.6f} s (the highest percentile "
                 "with ten passes beyond it)" if high else ""))
        print(f"wall_s {wall:.6f} s (median pass, not scaled by the speed probe; "
              f"steal time subtracted: median {statistics.median(steals):.3f} s, "
              f"at most {max(steals):.3f} s a pass)")
        print(f"setup_s_unscaled {statistics.median(setup_s):.6f} s")
        print(f"speed_probe {statistics.median(probes):.6f} s (median around passes; "
              f"{statistics.median(setup_probes):.6f} s around set-up imports, "
              f"{REFERENCE_PROBE_S} s on the reference host)")
        if workloads.WORKLOADS[args.workload]["kind"] == "sweep":
            fits = workloads.sweep_fits(args.workload, args.toy)
            print(f"fits_per_s {fits / wall_norm:.6g} 1/s")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for reason in dict.fromkeys(ledger.reasons):
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
