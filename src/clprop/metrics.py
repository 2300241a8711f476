"""Homophily measurements, the true class-compatibility matrix, and
classification metrics (accuracy, ROC-AUC, per-neighborhood accuracy buckets).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .compatibility import Beliefs, CompatibilityMatrix
from .graph import Graph

BUCKET_LEVELS = [round(0.1 * i, 1) for i in range(11)]


@dataclass(frozen=True)
class HomophilyReport:
    """Edge/node homophily plus the per-node 1-hop subgraph ratio h_v.

    ``per_node[v]`` is NaN when the induced 1-hop neighborhood of v has no
    edges (the ratio is undefined there).
    """

    edge_homophily: float
    node_homophily: float
    per_node: np.ndarray


def _require_labels(graph: Graph):
    if graph.labels is None or not graph.has_full_labels():
        raise ValueError("metric requires labels on all nodes")


def edge_homophily(graph: Graph) -> float:
    """Fraction of arcs whose endpoints share a class label."""
    _require_labels(graph)
    if graph.arc_count == 0:
        raise ValueError("edge homophily is undefined on an empty edge set")
    y = graph.labels
    return float(np.mean(y[graph.arcs[:, 0]] == y[graph.arcs[:, 1]]))


def node_homophily(graph: Graph) -> float:
    """Mean over non-isolated nodes of the same-label neighbor fraction."""
    _require_labels(graph)
    y = graph.labels
    adj = graph.adjacency
    same = np.zeros(graph.node_count)
    deg = np.diff(adj.indptr).astype(np.float64)
    src = np.repeat(np.arange(graph.node_count), np.diff(adj.indptr))
    same_arc = (y[src] == y[adj.indices]).astype(np.float64)
    np.add.at(same, src, same_arc)
    active = deg > 0
    if not active.any():
        raise ValueError("node homophily is undefined when every node is isolated")
    return float(np.mean(same[active] / deg[active]))


def _induced_arc_counts(graph: Graph, v: int) -> tuple[int, int]:
    """(same-label, total) arc counts in the induced 1-hop subgraph of v."""
    nodes = np.union1d(graph.neighbors(v), [v])
    sub = graph.adjacency[nodes][:, nodes].tocoo()
    if sub.nnz == 0:
        return 0, 0
    y = graph.labels[nodes]
    same = int(np.sum(y[sub.row] == y[sub.col]))
    return same, int(sub.nnz)


def local_homophily(graph: Graph, v: int) -> float | None:
    """Same-label edge fraction of the induced 1-hop subgraph of ``v``.

    Returns None when the induced edge set is empty (undefined); callers
    decide whether to exclude such nodes.
    """
    _require_labels(graph)
    same, total = _induced_arc_counts(graph, v)
    if total == 0:
        return None
    return same / total


def local_homophily_histogram(graph: Graph, mask=None) -> tuple[np.ndarray, int]:
    """Node counts per rounded h_v level plus the undefined-h_v count."""
    _require_labels(graph)
    nodes = np.arange(graph.node_count) if mask is None else np.asarray(mask, dtype=np.int64)
    counts = np.zeros(11, dtype=np.int64)
    undefined = 0
    for v in nodes:
        same, total = _induced_arc_counts(graph, int(v))
        if total == 0:
            undefined += 1
        else:
            counts[_bucket_index(same, total)] += 1
    return counts, undefined


def homophily_report(graph: Graph) -> HomophilyReport:
    per_node = np.full(graph.node_count, np.nan)
    for v in range(graph.node_count):
        hv = local_homophily(graph, v)
        if hv is not None:
            per_node[v] = hv
    return HomophilyReport(edge_homophily(graph), node_homophily(graph), per_node)


def true_compatibility(graph: Graph) -> CompatibilityMatrix:
    """Row-stochastic matrix of outgoing arc fractions between classes.

    Classes without outgoing arcs get a uniform row and a warning: the
    fraction is undefined there.
    """
    _require_labels(graph)
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


def roc_auc(scores, labels, mask) -> float:
    """Mann-Whitney ROC-AUC: P(random positive outranks random negative),
    counting ties as 1/2."""
    mask = np.asarray(mask, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)[mask]
    y = np.asarray(labels)[mask].astype(bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC requires both classes in the mask")
    ranks = rankdata(s)  # midranks handle ties as 1/2
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class BucketRow:
    bucket: float | None  # None = nodes with undefined h_v
    count: int
    accuracy: float | None


@dataclass(frozen=True)
class BucketTable:
    rows: tuple[BucketRow, ...]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("bucket,count,accuracy\n")
            for row in self.rows:
                bucket = "undefined" if row.bucket is None else repr(row.bucket)
                acc = "" if row.accuracy is None else repr(float(row.accuracy))
                fh.write(f"{bucket},{row.count},{acc}\n")


def _bucket_index(same: int, total: int) -> int:
    # round-half-up of 10 * same/total in exact integer arithmetic
    return (20 * same + total) // (2 * total)


def bucket_accuracy(beliefs: Beliefs, graph: Graph, mask) -> BucketTable:
    """Accuracy per h_v level {0, 0.1, ..., 1} over the mask nodes.

    h_v is rounded half-up to the nearest 0.1.  Mask nodes with undefined
    h_v are excluded from the levels and reported in a trailing row.
    """
    _require_labels(graph)
    mask = np.asarray(mask, dtype=np.int64)
    pred = np.argmax(beliefs.values[mask], axis=1)
    correct = pred == graph.labels[mask]
    hits = np.zeros(11, dtype=np.int64)
    counts = np.zeros(11, dtype=np.int64)
    undef_count = 0
    undef_hits = 0
    for ok, v in zip(correct, mask):
        same, total = _induced_arc_counts(graph, int(v))
        if total == 0:
            undef_count += 1
            undef_hits += int(ok)
            continue
        idx = _bucket_index(same, total)
        counts[idx] += 1
        hits[idx] += int(ok)
    rows = [
        BucketRow(
            bucket=BUCKET_LEVELS[i],
            count=int(counts[i]),
            accuracy=(hits[i] / counts[i]) if counts[i] else None,
        )
        for i in range(11)
    ]
    rows.append(
        BucketRow(
            bucket=None,
            count=undef_count,
            accuracy=(undef_hits / undef_count) if undef_count else None,
        )
    )
    return BucketTable(tuple(rows))
