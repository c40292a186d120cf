"""Orthogonalization attack on released model components.

A participant who contributed data to a pooled model can project the
pooled weight (or loading) matrix onto the orthogonal complement of the
column space of their own local model.  Whatever survives the projection
came from the other participants' data; comparing it against candidate
signals measures how much of their structure leaked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, DegenerateInputError, ShapeError, SingularSystemError

# Relative tolerance on the smallest singular value of the local matrix
# before the normal equations are declared rank deficient.
_RANK_RTOL = 1e-10


@dataclass(eq=False)
class AttackReport:
    """Result of one attack: the residual and per-column scores, None without a truth."""

    residual: np.ndarray
    similarities: Optional[np.ndarray] = None
    component_argmax: Optional[int] = None

    @property
    def best_similarity(self) -> Optional[float]:
        if self.component_argmax is None:
            return None
        return float(self.similarities[self.component_argmax])


def orthogonal_complement_weights(V_global: np.ndarray, V_local: np.ndarray) -> np.ndarray:
    """Remove the local column space from the global columns.

    Returns V_global - V_local (V_local^T V_local)^{-1} V_local^T V_global,
    solved through the k x k normal equations.  Works identically for
    weight and loading matrices.
    """
    V_global = np.asarray(V_global, dtype=float)
    V_local = np.asarray(V_local, dtype=float)
    if V_global.ndim != 2 or V_local.ndim != 2:
        raise ShapeError("both matrices must be 2-d")
    if V_global.shape[0] != V_local.shape[0]:
        raise ShapeError(
            f"row counts differ: {V_global.shape[0]} vs {V_local.shape[0]}"
        )
    if V_local.shape[1] == 0:
        return V_global.copy()

    svals = np.linalg.svd(V_local, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] < _RANK_RTOL * svals[0]:
        raise SingularSystemError(
            "local matrix is rank deficient within tolerance; drop dependent "
            "columns before projecting"
        )
    gram = V_local.T @ V_local
    coef = np.linalg.solve(gram, V_local.T @ V_global)
    return V_global - V_local @ coef


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Absolute cosine between two vectors; zero if either has zero norm.

    Sign-invariant because extracted components are only defined up to
    sign.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ShapeError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(abs(u @ v) / (nu * nv))


def attack_and_score(
    V_global: np.ndarray,
    V_local: np.ndarray,
    truth: Optional[np.ndarray] = None,
) -> AttackReport:
    """Project out the local span and, given a ground-truth signal, score
    each residual column against it by absolute cosine similarity.
    Without ``truth`` the report carries the residual only."""
    residual = orthogonal_complement_weights(V_global, V_local)
    if truth is None:
        return AttackReport(residual=residual)
    truth = np.asarray(truth, dtype=float).ravel()
    if truth.shape[0] != residual.shape[0]:
        raise ShapeError(
            f"truth has {truth.shape[0]} channels but the models have {residual.shape[0]}"
        )
    if not np.all(np.isfinite(truth)):
        raise DegenerateInputError("truth signal contains NaN or infinite entries")
    sims = np.array([
        cosine_similarity(residual[:, j], truth) for j in range(residual.shape[1])
    ])
    if sims.size == 0:
        raise ArgumentError("global matrix has no columns to score")
    return AttackReport(
        residual=residual,
        similarities=sims,
        component_argmax=int(np.argmax(sims)),
    )
