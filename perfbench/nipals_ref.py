"""Textbook NIPALS PLS1, written apart from dppls so the benchmark can check
the program's clean (no-noise) results against an independent computation.

Scores are left unnormalized, as in the classic formulation; dppls
normalizes them instead, which gives the same regression vector in exact
arithmetic.
"""

from __future__ import annotations

import numpy as np

# Same early-stop threshold as the program's default residual tolerance.
_STOP = 1e-12


def weights_and_loadings(X: np.ndarray, y: np.ndarray, k: int):
    """Return (W, P, q) of at most k components for centered X and y."""
    E = np.array(X, dtype=float)
    f = np.array(y, dtype=float)
    W, P, q = [], [], []
    for _ in range(k):
        w = E.T @ f
        norm = np.linalg.norm(w)
        if norm < _STOP:
            break
        w = w / norm
        t = E @ w
        tt = t @ t
        p = E.T @ t / tt
        qa = f @ t / tt
        E = E - np.outer(t, p)
        f = f - qa * t
        W.append(w)
        P.append(p)
        q.append(qa)
    return np.column_stack(W), np.column_stack(P), np.array(q)


def fit_predict(X_train, y_train, X_test, k: int) -> np.ndarray:
    """Fit on the training rows (centered here) and predict the test rows."""
    x_mean = X_train.mean(axis=0)
    y_mean = y_train.mean()
    W, P, q = weights_and_loadings(X_train - x_mean, y_train - y_mean, k)
    b = W @ np.linalg.solve(P.T @ W, q)
    return (X_test - x_mean) @ b + y_mean
