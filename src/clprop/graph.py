"""Graph storage, TSV dataset I/O, and train/validation/test split generation.

Datasets live on disk as a trio of TSV files plus a JSON manifest:

    edges.tsv      one arc per line, "src<TAB>dst", 0-based decimal ids
    features.tsv   line i holds the tab-separated real features of node i
    labels.tsv     "node_id<TAB>class_id", one line per node
    manifest.json  node_count, num_classes, directed flag, file checksums

Node ids are dense 0-based integers; there is no remapping layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

SPLIT_RATIOS = {
    "sparse": (0.05, 0.05),
    "medium": (0.10, 0.10),
    "dense": (0.48, 0.32),
}


class GraphFormatError(ValueError):
    """An input file or constructor argument violates the dataset contract."""


@dataclass(frozen=True)
class Graph:
    """Immutable graph with dense node features and a class label on every node.

    ``arcs`` is the deduplicated directed arc list (shape (m, 2), lexicographically
    sorted); for undirected graphs it is closed under reversal.  ``adjacency`` is
    the matching CSR matrix with ``A[u, v] = 1`` iff arc (u, v) exists.
    """

    node_count: int
    arcs: np.ndarray
    adjacency: sparse.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    directed: bool

    def __post_init__(self):
        if self.features.shape[0] != self.node_count:
            raise GraphFormatError(
                f"feature rows ({self.features.shape[0]}) != node count ({self.node_count})"
            )
        if not isinstance(self.labels, np.ndarray) or self.labels.shape != (self.node_count,):
            raise GraphFormatError("labels must be one entry per node")

    @property
    def arc_count(self) -> int:
        return self.arcs.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        """Union in/out degree (equals plain degree on symmetrized graphs)."""
        pattern = self.adjacency.maximum(self.adjacency.T)
        return np.diff(pattern.tocsr().indptr)


@dataclass(frozen=True)
class SplitMask:
    """Disjoint train/validation/test node index sets with seed provenance."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int
    scheme: str
    ratios: tuple[float, float]

    def __post_init__(self):
        parts = (self.train, self.validation, self.test)
        total = sum(p.size for p in parts)
        union = np.concatenate(parts)
        if np.unique(union).size != total:
            raise ValueError("split partitions overlap")


def build_graph(
    node_count: int,
    edges,
    features: np.ndarray | None,
    labels: np.ndarray,
    num_classes: int | None = None,
    directed: bool = False,
) -> Graph:
    """Validate, strip self-loops, optionally symmetrize, and deduplicate arcs."""
    arcs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arcs.size and (arcs.min() < 0 or arcs.max() >= node_count):
        bad = arcs[(arcs < 0) | (arcs >= node_count)].flat[0]
        raise GraphFormatError(f"node id {bad} out of range [0, {node_count})")
    arcs = arcs[arcs[:, 0] != arcs[:, 1]]  # self-loops define no neighbor relation
    if not directed and arcs.size:
        arcs = np.concatenate([arcs, arcs[:, ::-1]])
    if arcs.size:
        arcs = np.unique(arcs, axis=0)
    else:
        arcs = arcs.reshape(0, 2)

    if features is None:
        features = np.zeros((node_count, 0))
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise GraphFormatError("features must be a 2-d matrix")

    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)].flat[0]
        raise GraphFormatError(f"label outside [0, {num_classes}): {int(bad)}")

    data = np.ones(arcs.shape[0])
    adjacency = sparse.csr_matrix(
        (data, (arcs[:, 0], arcs[:, 1])), shape=(node_count, node_count)
    )
    return Graph(node_count, arcs, adjacency, features, labels, num_classes, directed)


def _read_edges(path: Path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'src<TAB>dst', got {line!r}")
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def _read_features(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                try:
                    row = [float(tok) for tok in line.split("\t")]
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: non-numeric feature value") from None
            else:
                row = []  # empty line = node with zero-width features
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {width} features, got {len(row)}"
                )
            rows.append(row)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), width or 0)


def _read_labels(path: Path, node_count: int) -> np.ndarray:
    labels = np.zeros(node_count, dtype=np.int64)
    seen = np.zeros(node_count, dtype=bool)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'node_id<TAB>class_id'")
            try:
                node, cls = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: non-integer entry") from None
            if not 0 <= node < node_count:
                raise GraphFormatError(f"{path}:{lineno}: node id {node} out of range")
            if seen[node]:
                raise GraphFormatError(f"{path}:{lineno}: duplicate label for node {node}")
            if cls < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative class id")
            seen[node] = True
            labels[node] = cls
    if not seen.all():
        raise GraphFormatError(f"{path}: node {int(np.flatnonzero(~seen)[0])} has no label")
    return labels


def load_graph(
    edges_path,
    features_path,
    labels_path,
    directed: bool = False,
    num_classes: int | None = None,
) -> Graph:
    """Load a dataset trio into a validated :class:`Graph`.

    Undirected datasets (``directed=False``) are symmetrized by adding reverse
    arcs; duplicates and self-loops are dropped.  Every node must appear in the
    labels file.
    """
    features = _read_features(Path(features_path))
    node_count = features.shape[0]
    edges = _read_edges(Path(edges_path))
    labels = _read_labels(Path(labels_path), node_count)
    return build_graph(node_count, edges, features, labels, num_classes, directed)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_graph(graph: Graph, out_dir, extra_manifest: dict | None = None) -> dict:
    """Write the TSV trio plus manifest.json; returns the manifest dict.

    Floats are written with repr(), which round-trips IEEE doubles exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "edges.tsv", "w") as fh:
        for u, v in graph.arcs:
            fh.write(f"{u}\t{v}\n")
    with open(out / "features.tsv", "w") as fh:
        for row in graph.features:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")
    with open(out / "labels.tsv", "w") as fh:
        for node, cls in enumerate(graph.labels):
            fh.write(f"{node}\t{cls}\n")
    manifest = {
        "node_count": graph.node_count,
        "num_classes": graph.num_classes,
        "directed": graph.directed,
        "checksums": {
            name: _sha256(out / name) for name in ("edges.tsv", "features.tsv", "labels.tsv")
        },
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_dataset(dataset_dir, directed: bool | None = None) -> Graph:
    """Load a dataset directory, trusting manifest.json for the directed flag."""
    d = Path(dataset_dir)
    manifest_path = d / "manifest.json"
    num_classes = None
    if manifest_path.exists():
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if directed is None:
            directed = bool(manifest.get("directed", False))
        num_classes = manifest.get("num_classes")
    if directed is None:
        directed = False
    return load_graph(
        d / "edges.tsv",
        d / "features.tsv",
        d / "labels.tsv",
        directed=directed,
        num_classes=num_classes,
    )


def one_hot(labels, num_classes: int) -> np.ndarray:
    """One-hot encode class ids into an (n, num_classes) float matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"label outside [0, {num_classes})")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _resolve_ratios(scheme) -> tuple[str, tuple[float, float]]:
    if isinstance(scheme, str):
        if scheme not in SPLIT_RATIOS:
            raise ValueError(f"unknown split scheme {scheme!r}")
        return scheme, SPLIT_RATIOS[scheme]
    train_r, val_r = float(scheme[0]), float(scheme[1])
    if train_r <= 0 or val_r <= 0 or train_r + val_r >= 1:
        raise ValueError("custom ratios must be positive and sum below 1")
    return "custom", (train_r, val_r)


def make_splits(graph: Graph, scheme, seed: int, instances: int = 1) -> list[SplitMask]:
    """Generate ``instances`` independent random splits of the graph.

    Train and validation sizes are floor(ratio * n); the remainder is test.
    Classes are not stratified.  The same seed reproduces the same sequence.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    name, (train_r, val_r) = _resolve_ratios(scheme)
    n = graph.node_count
    # 1e-9 nudge so exact decimal products (0.1 * 1000) do not floor down a ulp
    n_train = int(math.floor(train_r * n + 1e-9))
    n_val = int(math.floor(val_r * n + 1e-9))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"{n} nodes are too few for scheme {name} ({n_train}/{n_val}/{n_test})"
        )
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(instances):
        perm = rng.permutation(n)
        masks.append(
            SplitMask(
                train=np.sort(perm[:n_train]),
                validation=np.sort(perm[n_train:n_train + n_val]),
                test=np.sort(perm[n_train + n_val:]),
                seed=seed,
                scheme=name,
                ratios=(train_r, val_r),
            )
        )
    return masks
