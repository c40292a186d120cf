"""The pooled view of two holders' data, shared by the tests.

``simulate`` writes it as ``combined.csv``: holder 1's rows, then holder
2's.
"""

import numpy as np

from dppls.core import Dataset


def concat_rows(d1: Dataset, d2: Dataset) -> Dataset:
    """d1's samples, then d2's."""
    return Dataset(X=np.vstack([d1.X, d2.X]), y=np.concatenate([d1.y, d2.y]))
