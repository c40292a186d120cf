"""The benchmark's CPU: pinning the process to one, the time the
hypervisor took that CPU away while the benchmark ran (steal time), and a
probe of how fast the host runs that CPU at the moment.

On a virtual machine whose host is shared, the host runs other work on
the physical core behind a virtual CPU now and then.  The guest's clocks
keep running meanwhile, so a pass looks slower by that much, and the
guest's process CPU time counts it as well.  The guest kernel does record
it, per CPU, as steal time in ``/proc/stat``.  The benchmark pins itself
to one CPU and subtracts that CPU's steal time from what it measures, so
its times are what the program takes on the CPU it is given.

Pinning happens before numpy is imported, so OpenBLAS, which sizes its
thread pool from the CPUs the process may use, starts a single thread:
the program then never waits on a second CPU that the host has taken.
Where affinity or ``/proc/stat`` is missing, nothing is pinned and the
steal time reads 0.

Steal time does not show the other way a shared host slows a CPU: work of
other guests on the same physical core or in the same caches and memory
makes the CPU slower while it runs.  ``SpeedProbe`` times a fixed mix of
work, independent of dppls, so that the benchmark can scale its times to
the speed the host had when the benchmark was defined.

Run as a script, this file serves the probe: for every line read from
standard input it runs the mix once and prints the seconds it took.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

_STAT = "/proc/stat"
# Field of a /proc/stat cpu line that holds steal time, in clock ticks.
_STEAL_FIELD = 8


def pin() -> int | None:
    """Pin this process to the highest-numbered CPU it may use; return that
    CPU, or None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def steal_ticks(cpu: int | None) -> int:
    """Steal time of ``cpu`` since boot, in clock ticks; 0 if unknown."""
    if cpu is None:
        return 0
    label = f"cpu{cpu}"
    try:
        with open(_STAT) as stat:
            for line in stat:
                fields = line.split()
                if fields and fields[0] == label:
                    return int(fields[_STEAL_FIELD])
    except (OSError, IndexError, ValueError):
        pass
    return 0


def ticks_to_s(ticks: int) -> float:
    return ticks / os.sysconf("SC_CLK_TCK")


class _Mix:
    """The probe's work.  Each part mirrors a kind of work the workloads do:
    scalar bisection over ``scipy.special.ndtr`` (sigma calibration), small
    matrix-vector products (NIPALS), banded solves (airPLS), float
    formatting and parsing (CSV files) and streaming copies of an array far
    larger than the CPU's caches (memory traffic).  Inputs are made once,
    so every call does the same work."""

    def __init__(self):
        import numpy as np
        from scipy import special
        from scipy.linalg import solveh_banded

        self._np, self._ndtr, self._solve = np, special.ndtr, solveh_banded
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((100, 100))
        self._x = rng.standard_normal(100)
        self._ab = np.vstack([np.ones(100), -4.0 * np.ones(100), 7.0 * np.ones(100)])
        self._values = rng.standard_normal(5_000)
        self._big = rng.standard_normal(2_000_000)
        self._copy = np.empty_like(self._big)

    def seconds(self) -> float:
        np, ndtr, e = self._np, self._ndtr, 2.718281828459045
        start = time.perf_counter()
        for _ in range(500):
            lo, hi = 0.0, 50.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                excess = (float(ndtr(1.0 / mid - 0.5 * mid))
                          - e * float(ndtr(-1.0 / mid - 0.5 * mid)))
                lo, hi = (mid, hi) if excess > 1e-5 else (lo, mid)
        x = self._x
        for _ in range(1_000):
            x = self._A @ x
            x = x / np.linalg.norm(x)
        for _ in range(300):
            self._solve(self._ab, self._x, lower=False)
        text = ",".join(f"{float(v)!r}" for v in self._values)
        np.array([float(v) for v in text.split(",")])
        for _ in range(4):
            np.copyto(self._copy, self._big)
            self._copy *= 1.0001
        return time.perf_counter() - start


class SpeedProbe:
    """The probe, run in a child process that inherits the benchmark's CPU,
    so that the probe's arrays stay out of the benchmark's peak memory.
    Use it as a context manager: leaving it ends the child and waits for
    it."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        """Seconds the probe's mix takes now."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with {self._child.wait()}")
        return float(line)

    def close(self) -> None:
        """End the child (it stops at the end of its input) and wait for it."""
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    mix = _Mix()
    mix.seconds()  # the first call pays for page faults on the arrays
    for _ in sys.stdin:
        print(mix.seconds(), flush=True)


if __name__ == "__main__":
    _serve()
