"""Prior belief construction and compatibility-matrix estimation.

Prior beliefs clamp the rows of the base prediction to ground-truth one-hot
vectors on training nodes and leave every other row untouched.  The class
compatibility matrix is estimated from those priors by accumulating, for each
training class, the predicted class mass across neighboring nodes, then
balancing the result to a doubly stochastic matrix with Sinkhorn-Knopp.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph

SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITERS = 10000
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Beliefs:
    """Row-per-node, column-per-class nonnegative score matrix.

    ``kind`` tags the pipeline stage: "base_prediction" and "prior" rows must
    be probability distributions; "propagated" rows are only required to stay
    finite and nonnegative.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("base_prediction", "prior", "propagated"):
            raise ValueError(f"unknown beliefs kind {self.kind!r}")
        v = self.values
        if v.ndim != 2:
            raise ValueError("beliefs must be an (n, num_classes) matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("beliefs contain non-finite entries")
        if np.any(v < 0):
            raise ValueError("beliefs contain negative entries")
        if self.kind in ("base_prediction", "prior"):
            err = np.max(np.abs(v.sum(axis=1) - 1.0)) if v.size else 0.0
            if err > _ROW_SUM_TOL:
                raise ValueError(f"{self.kind} rows must sum to 1 (max deviation {err:.3g})")

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]

    def argmax(self) -> np.ndarray:
        """Predicted class per row; ties break toward the lowest class id."""
        return np.argmax(self.values, axis=1)


@dataclass(frozen=True)
class CompatibilityMatrix:
    """Square nonnegative class-to-class matrix.

    The empirical matrix of a fully labelled graph is row-stochastic; the
    estimate recovered through Sinkhorn-Knopp is doubly stochastic, with
    ``sinkhorn_deviation`` recording the achieved row/column-sum deviation.
    """

    values: np.ndarray
    normalization: str
    sinkhorn_deviation: float | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("compatibility matrix must be square")
        if np.any(v < 0):
            raise ValueError("compatibility matrix must be nonnegative")
        if self.normalization == "row_stochastic":
            err = np.max(np.abs(v.sum(axis=1) - 1.0))
            if err > _ROW_SUM_TOL:
                raise ValueError(f"rows must sum to 1 (max deviation {err:.3g})")
        elif self.normalization == "doubly_stochastic":
            tol = max(self.sinkhorn_deviation or 0.0, 1e-6)
            err = max(
                np.max(np.abs(v.sum(axis=1) - 1.0)),
                np.max(np.abs(v.sum(axis=0) - 1.0)),
            )
            if err > 10 * tol:
                raise ValueError(f"matrix is not doubly stochastic (deviation {err:.3g})")
        else:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]


def prior_beliefs(d_hat: Beliefs, y_onehot: np.ndarray, train_mask) -> Beliefs:
    """Clamp training rows to one-hot truth; keep base predictions elsewhere.

    Validation and test nodes are treated as unknown and keep their base
    prediction rows.  Idempotent.
    """
    if d_hat.values.shape != y_onehot.shape:
        raise ValueError(
            f"shape mismatch: predictions {d_hat.values.shape} vs labels {y_onehot.shape}"
        )
    train_mask = np.asarray(train_mask, dtype=np.int64)
    values = d_hat.values.copy()
    values[train_mask] = y_onehot[train_mask]
    return Beliefs(values, "prior")


def sinkhorn_knopp(
    m: np.ndarray,
    tol: float = SINKHORN_TOL,
    max_iters: int = SINKHORN_MAX_ITERS,
) -> tuple[np.ndarray, float]:
    """Alternate row/column normalization until doubly stochastic.

    Returns the balanced matrix and the achieved max deviation of any row or
    column sum from 1.  Emits a warning (not an error) if ``tol`` is not
    reached within ``max_iters`` sweeps.  Requires strictly positive input;
    callers floor zeros first (see :func:`estimate_compatibility`).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("Sinkhorn-Knopp requires a square matrix")
    if np.any(m < 0):
        raise ValueError("Sinkhorn-Knopp requires nonnegative entries")
    s = m.copy()
    deviation = np.inf
    for _ in range(max_iters):
        s /= s.sum(axis=1, keepdims=True)
        s /= s.sum(axis=0, keepdims=True)
        deviation = max(
            np.max(np.abs(s.sum(axis=1) - 1.0)),
            np.max(np.abs(s.sum(axis=0) - 1.0)),
        )
        if deviation < tol:
            break
    else:
        warnings.warn(
            f"Sinkhorn-Knopp stopped at deviation {deviation:.3g} after {max_iters} sweeps"
        )
    return s, float(deviation)


def _floor_zeros(raw: np.ndarray) -> np.ndarray:
    """Add a tiny positive floor so Sinkhorn has full support."""
    scale = raw.max() if raw.max() > 0 else 1.0
    return raw + 1e-8 * scale


def estimate_compatibility(
    graph: Graph,
    b0: Beliefs,
    y_onehot: np.ndarray,
    train_mask,
) -> CompatibilityMatrix:
    """Estimate the class compatibility matrix from sparse labels.

    Scores class pairs by (masked one-hot labels)^T @ A @ (prior beliefs),
    floors zero entries, and balances with Sinkhorn-Knopp.  A class absent
    from the training set yields an all-zero raw row; flooring keeps the
    problem well-posed but that row is near-uniform, so a warning is emitted.
    """
    train_mask = np.asarray(train_mask, dtype=np.int64)
    if train_mask.size == 0:
        raise ValueError("compatibility estimation requires a nonempty training set")
    if y_onehot.shape != b0.values.shape:
        raise ValueError("one-hot labels and beliefs must have matching shapes")
    masked = np.zeros_like(y_onehot)
    masked[train_mask] = y_onehot[train_mask]
    present = masked.sum(axis=0) > 0
    if not present.all():
        warnings.warn(
            f"classes {np.flatnonzero(~present).tolist()} absent from the training set; "
            "their estimated compatibility rows are near-uniform"
        )
    neighbor_mass = graph.adjacency @ b0.values
    raw = masked.T @ neighbor_mass
    balanced, deviation = sinkhorn_knopp(_floor_zeros(raw))
    return CompatibilityMatrix(balanced, "doubly_stochastic", sinkhorn_deviation=deviation)
