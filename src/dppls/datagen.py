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
from .errors import ArgumentError

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

    holders = []
    for unique in (UNIQUE_HOLDER1, UNIQUE_HOLDER2):
        signals = np.column_stack([
            gaussian_signal(m, spec) for spec in (ANALYTE, SHARED_INTERFERENT, unique)
        ])
        conc = np.column_stack([
            rng.uniform(CONCENTRATION_LOW, CONCENTRATION_HIGH, n) for _ in range(3)
        ])
        holders.append(Dataset(X=conc @ signals.T, y=conc[:, 0].copy()))
    return tuple(holders)

