"""Homophily measurements, the true class-compatibility matrix, and
classification metrics (accuracy, per-neighborhood accuracy buckets).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .compatibility import Beliefs, CompatibilityMatrix
from .graph import Graph

BUCKET_LEVELS = [round(0.1 * i, 1) for i in range(11)]
_UNDEFINED = len(BUCKET_LEVELS)  # level index of nodes whose h_v is undefined


def edge_homophily(graph: Graph) -> float:
    """Fraction of arcs whose endpoints share a class label."""
    if graph.arc_count == 0:
        raise ValueError("edge homophily is undefined on an empty edge set")
    y = graph.labels
    return float(np.mean(y[graph.arcs[:, 0]] == y[graph.arcs[:, 1]]))


def node_homophily(graph: Graph) -> float:
    """Mean over non-isolated nodes of the same-label neighbor fraction."""
    y = graph.labels
    src, dst = graph.arcs[:, 0], graph.arcs[:, 1]
    same = np.zeros(graph.node_count)
    deg = np.diff(graph.adjacency.indptr).astype(np.float64)
    np.add.at(same, src, (y[src] == y[dst]).astype(np.float64))
    active = deg > 0
    if not active.any():
        raise ValueError("node homophily is undefined when every node is isolated")
    return float(np.mean(same[active] / deg[active]))


def local_homophily(graph: Graph, v: int) -> float | None:
    """Same-label edge fraction of the induced 1-hop subgraph of ``v``.

    Returns None when the induced edge set is empty (undefined); callers
    decide whether to exclude such nodes.
    """
    same, total = graph.induced_arc_counts
    if total[v] == 0:
        return None
    return int(same[v]) / int(total[v])


def _hv_levels(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Rounded h_v level index (into BUCKET_LEVELS) of each of ``nodes``, or
    ``_UNDEFINED`` where the induced edge set is empty."""
    same, total = graph.induced_arc_counts
    same, total = same[nodes], total[nodes]
    levels = np.full(nodes.size, _UNDEFINED)
    defined = total > 0
    levels[defined] = _bucket_index(same[defined], total[defined])
    return levels


def local_homophily_histogram(graph: Graph) -> tuple[np.ndarray, int]:
    """Node counts per rounded h_v level plus the undefined-h_v count."""
    levels = _hv_levels(graph, np.arange(graph.node_count))
    counts = np.bincount(levels, minlength=_UNDEFINED + 1)
    return counts[:_UNDEFINED], int(counts[_UNDEFINED])


def true_compatibility(graph: Graph) -> CompatibilityMatrix:
    """Row-stochastic matrix of outgoing arc fractions between classes.

    Classes without outgoing arcs get a uniform row and a warning: the
    fraction is undefined there.
    """
    c = graph.num_classes
    counts = np.zeros((c, c))
    y = graph.labels
    np.add.at(counts, (y[graph.arcs[:, 0]], y[graph.arcs[:, 1]]), 1.0)
    totals = counts.sum(axis=1)
    empty = totals == 0
    if empty.any():
        warnings.warn(
            f"classes {np.flatnonzero(empty).tolist()} have no outgoing arcs; "
            "their compatibility rows are undefined and stored as uniform"
        )
        counts[empty] = 1.0
        totals[empty] = c
    return CompatibilityMatrix(counts / totals[:, None], "row_stochastic")


def compat_distance(h: CompatibilityMatrix, h_hat: CompatibilityMatrix) -> float:
    """Entrywise Euclidean (Frobenius) distance between two compatibility matrices."""
    if h.values.shape != h_hat.values.shape:
        raise ValueError(
            f"dimension mismatch: {h.values.shape} vs {h_hat.values.shape}"
        )
    return float(np.sqrt(np.sum((h.values - h_hat.values) ** 2)))


def accuracy(beliefs: Beliefs, labels, mask) -> float:
    """Fraction of mask nodes whose argmax belief equals the label.

    Ties break toward the lowest class id (argmax takes the first maximum).
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("accuracy over an empty mask is undefined")
    labels = np.asarray(labels, dtype=np.int64)
    pred = np.argmax(beliefs.values[mask], axis=1)
    return float(np.mean(pred == labels[mask]))


@dataclass(frozen=True)
class BucketRow:
    bucket: float | None  # None = nodes with undefined h_v
    count: int
    accuracy: float | None


def _bucket_index(same: np.ndarray, total: np.ndarray) -> np.ndarray:
    # round-half-up of 10 * same/total in exact integer arithmetic
    return (20 * same + total) // (2 * total)


def bucket_accuracy(beliefs: Beliefs, graph: Graph, mask) -> tuple[BucketRow, ...]:
    """Accuracy per h_v level {0, 0.1, ..., 1} over the mask nodes.

    Returns a tuple of 12 :class:`BucketRow`: one per level, h_v rounded
    half-up to the nearest 0.1, then one for the mask nodes with undefined h_v.
    """
    mask = np.asarray(mask, dtype=np.int64)
    pred = np.argmax(beliefs.values[mask], axis=1)
    correct = pred == graph.labels[mask]
    levels = _hv_levels(graph, mask)
    counts = np.bincount(levels, minlength=_UNDEFINED + 1)
    hits = np.bincount(levels[correct], minlength=_UNDEFINED + 1)
    return tuple(
        BucketRow(
            bucket=BUCKET_LEVELS[i] if i < _UNDEFINED else None,
            count=int(counts[i]),
            accuracy=(hits[i] / counts[i]) if counts[i] else None,
        )
        for i in range(_UNDEFINED + 1)
    )
