"""Synthetic two-holder spectral data.

Each holder measures the same analyte signal plus a shared interferent,
and additionally one interferent unique to that holder.  Concentrations
are iid uniform on [0, 10), drawn separately per holder, and the response
is the holder's own analyte concentration vector.  The unique signals are
narrow peaks, which makes them convenient ground truth when probing what
a pooled model leaks about an individual holder's data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, RngStream
from .errors import ArgumentError, ShapeError

CONCENTRATION_LOW = 0.0
CONCENTRATION_HIGH = 10.0


@dataclass(frozen=True)
class SignalSpec:
    """A Gaussian-shaped pure-component signal over channel indices."""

    center: float
    width: float
    height: float

    def __post_init__(self):
        for name, v in (("center", self.center), ("width", self.width),
                        ("height", self.height)):
            if not np.isfinite(v):
                raise ArgumentError(f"{name} must be finite")
        if self.width <= 0:
            raise ArgumentError(f"width must be positive, got {self.width}")


# Default pure-component signals: a broad analyte band, a broad shared
# interferent, and one narrow unique peak per holder.
ANALYTE = SignalSpec(center=50.0, width=15.0, height=8.0)
SHARED_INTERFERENT = SignalSpec(center=70.0, width=10.0, height=10.0)
UNIQUE_HOLDER1 = SignalSpec(center=40.0, width=1.0, height=0.5)
UNIQUE_HOLDER2 = SignalSpec(center=30.0, width=1.0, height=0.5)

DEFAULT_SPECS = {
    "analyte": ANALYTE,
    "shared_interferent": SHARED_INTERFERENT,
    "unique_holder1": UNIQUE_HOLDER1,
    "unique_holder2": UNIQUE_HOLDER2,
}


def gaussian_signal(m: int, spec: SignalSpec) -> np.ndarray:
    """Evaluate the signal on channels 0 .. m-1."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ArgumentError(f"channel count must be a positive integer, got {m}")
    i = np.arange(m, dtype=float)
    return spec.height * np.exp(-((i - spec.center) ** 2) / (2.0 * spec.width ** 2))


def simulate_two_holders(n: int, m: int, rng: RngStream):
    """Generate one dataset per holder.

    Holder 1 mixes (analyte, shared, unique1), holder 2 mixes
    (analyte, shared, unique2).  Concentration vectors are drawn in that
    order, holder 1 first, so a fixed rng reproduces the data exactly.
    Returns ``(holder1, holder2)``.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ArgumentError(f"need at least 2 samples per holder, got {n}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ArgumentError(f"channel count must be a positive integer, got {m}")

    signals1 = np.column_stack([
        gaussian_signal(m, ANALYTE),
        gaussian_signal(m, SHARED_INTERFERENT),
        gaussian_signal(m, UNIQUE_HOLDER1),
    ])
    signals2 = np.column_stack([
        gaussian_signal(m, ANALYTE),
        gaussian_signal(m, SHARED_INTERFERENT),
        gaussian_signal(m, UNIQUE_HOLDER2),
    ])

    conc1 = np.column_stack([
        rng.uniform(CONCENTRATION_LOW, CONCENTRATION_HIGH, n) for _ in range(3)
    ])
    conc2 = np.column_stack([
        rng.uniform(CONCENTRATION_LOW, CONCENTRATION_HIGH, n) for _ in range(3)
    ])

    d1 = Dataset(X=conc1 @ signals1.T, y=conc1[:, 0].copy())
    d2 = Dataset(X=conc2 @ signals2.T, y=conc2[:, 0].copy())
    return d1, d2


def concat_rows(d1: Dataset, d2: Dataset) -> Dataset:
    """Stack two datasets sample-wise (the pooled view)."""
    if d1.m != d2.m:
        raise ShapeError(
            f"channel counts differ: {d1.m} vs {d2.m}"
        )
    return Dataset(
        X=np.vstack([d1.X, d2.X]),
        y=np.concatenate([d1.y, d2.y]),
    )
