"""Graph storage, TSV dataset I/O, and train/validation/test split generation.

Datasets live on disk as a trio of TSV files plus a JSON manifest:

    edges.tsv      one arc per line, "src<TAB>dst", 0-based decimal ids
    features.tsv   line i holds the tab-separated real features of node i
    labels.tsv     "node_id<TAB>class_id", one line per node
    manifest.json  node_count, num_classes, directed flag, file checksums

Node ids are dense 0-based integers; there is no remapping layer.

Parse contract.  Files are read as text with universal newlines, so "\n",
"\r\n" and a lone "\r" all end a line; line numbers in errors count every
line, blank ones included.  Each file is parsed in one C-level pass
(``np.loadtxt``); a per-line scan runs only after that pass rejected the
file, to name the first bad line as ``path:lineno``.

- edges.tsv and labels.tsv skip blank lines.
- In features.tsv a blank line is a zero-width row, so a file of n blank
  lines holds n nodes with no features, and a blank line among non-blank
  ones is a ragged row.
- ``#`` is data, not a comment, and fails to parse as a number.
- Numbers are written with ASCII digits, an optional sign and optional
  surrounding whitespace (features also take the other forms ``float``
  reads, e.g. ``1e3``, ``inf``, ``nan``).  ``_`` separators are rejected,
  and an id or class must fit in int64.
- Node ids lie in [0, n), n being the number of feature rows, and classes
  in [0, num_classes) when the manifest records num_classes.
- Arcs come out deduplicated, without self-loops and in lexicographic order:
  they are read back from the pattern of the CSR adjacency.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    if not directed:
        arcs = np.concatenate([arcs, arcs[:, ::-1]])

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

    # the CSR pattern deduplicates and sorts the arcs; they are read back from it
    adjacency = sparse.csr_matrix(
        (np.ones(arcs.shape[0]), (arcs[:, 0], arcs[:, 1])), shape=(node_count, node_count)
    )
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    sources = np.repeat(np.arange(node_count, dtype=np.int64), np.diff(adjacency.indptr))
    arcs = np.column_stack([sources, adjacency.indices.astype(np.int64)])
    return Graph(node_count, arcs, adjacency, features, labels, num_classes, directed)


def _parse_table(path: Path, text: str, dtype, width: int | None = None) -> np.ndarray | None:
    """Parse the tab-separated file ``path`` (whose content is ``text``) in C.

    Blank lines are skipped.  Returns None when a field does not parse or a
    row does not have ``width`` fields; the caller then names the first bad
    line.  numpy reads a named file in chunks but any other input line by
    line, so the file is parsed by name, not from ``text``.
    """
    if not text.strip("\n"):
        return np.zeros((0, width or 0), dtype=dtype)
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter="\t", comments=None, ndmin=2)
    except ValueError:
        return None
    return table if width is None or table.shape[1] == width else None


def _parse_line(line: str, dtype) -> np.ndarray | None:
    """The fields of one non-blank line as :func:`_parse_table` reads them, or None."""
    try:
        return np.loadtxt([line], dtype=dtype, delimiter="\t", comments=None, ndmin=1)
    except ValueError:
        return None


def _lines(text: str) -> list[str]:
    """The lines of ``text``; a final newline ends the last line, not a new one."""
    return text.removesuffix("\n").split("\n") if text else []


def _first_bad_line(path: Path, text: str, line_error) -> GraphFormatError:
    """The error for the first line ``line_error`` faults; run only on rejected files."""
    for lineno, line in enumerate(_lines(text), start=1):
        message = line_error(line)
        if message is not None:
            return GraphFormatError(f"{path}:{lineno}: {message}")
    return GraphFormatError(f"{path}: unreadable table")


def _edge_line_checker(node_count: int):
    def line_error(line: str) -> str | None:
        if not line:
            return None
        if len(line.split("\t")) != 2:
            return f"expected 'src<TAB>dst', got {line!r}"
        row = _parse_line(line, np.int64)
        if row is None:
            return f"non-integer node id in {line!r}"
        bad = row[(row < 0) | (row >= node_count)]
        if bad.size:
            return f"node id {int(bad[0])} out of range [0, {node_count})"
        return None

    return line_error


def _read_edges(path: Path, node_count: int) -> np.ndarray:
    text = path.read_text()
    edges = _parse_table(path, text, np.int64, width=2)
    if edges is None or edges.min(initial=0) < 0 or edges.max(initial=-1) >= node_count:
        raise _first_bad_line(path, text, _edge_line_checker(node_count))
    return edges


def _feature_line_checker():
    width = None  # set by the first line

    def line_error(line: str) -> str | None:
        nonlocal width
        if line and _parse_line(line, np.float64) is None:
            return "non-numeric feature value"
        count = len(line.split("\t")) if line else 0
        if width is None:
            width = count
        elif count != width:
            return f"expected {width} features, got {count}"
        return None

    return line_error


def _read_features(path: Path) -> np.ndarray:
    text = path.read_text()
    if not text.strip("\n"):  # only blank lines: one zero-width row each
        return np.zeros((text.count("\n"), 0))
    has_blank_line = text.startswith("\n") or "\n\n" in text
    features = None if has_blank_line else _parse_table(path, text, np.float64)
    if features is None:
        raise _first_bad_line(path, text, _feature_line_checker())
    return features


def _label_line_checker(node_count: int, num_classes: int | None):
    seen = np.zeros(node_count, dtype=bool)

    def line_error(line: str) -> str | None:
        if not line:
            return None
        if len(line.split("\t")) != 2:
            return "expected 'node_id<TAB>class_id'"
        row = _parse_line(line, np.int64)
        if row is None:
            return "non-integer entry"
        node, cls = int(row[0]), int(row[1])
        if not 0 <= node < node_count:
            return f"node id {node} out of range"
        if seen[node]:
            return f"duplicate label for node {node}"
        if cls < 0:
            return "negative class id"
        if num_classes is not None and cls >= num_classes:
            return f"label outside [0, {num_classes}): {cls}"
        seen[node] = True
        return None

    return line_error


def _labels_valid(
    nodes: np.ndarray, classes: np.ndarray, node_count: int, num_classes: int | None
) -> bool:
    """Node ids in range, classes in range, and no node labelled twice."""
    return (
        nodes.min(initial=0) >= 0
        and nodes.max(initial=-1) < node_count
        and classes.min(initial=0) >= 0
        and (num_classes is None or classes.max(initial=-1) < num_classes)
        and np.unique(nodes).size == nodes.size
    )


def _read_labels(path: Path, node_count: int, num_classes: int | None) -> np.ndarray:
    text = path.read_text()
    pairs = _parse_table(path, text, np.int64, width=2)
    if pairs is None or not _labels_valid(pairs[:, 0], pairs[:, 1], node_count, num_classes):
        raise _first_bad_line(path, text, _label_line_checker(node_count, num_classes))
    nodes, classes = pairs[:, 0], pairs[:, 1]
    seen = np.zeros(node_count, dtype=bool)
    seen[nodes] = True
    if not seen.all():
        raise GraphFormatError(f"{path}: node {int(np.flatnonzero(~seen)[0])} has no label")
    labels = np.zeros(node_count, dtype=np.int64)
    labels[nodes] = classes
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
    edges = _read_edges(Path(edges_path), node_count)
    labels = _read_labels(Path(labels_path), node_count, num_classes)
    return build_graph(node_count, edges, features, labels, num_classes, directed)


_WRITE_BLOCK_ROWS = 16384  # rows formatted per write; bounds the temporary Python lists


def _pair_line(row: list) -> str:
    return f"{row[0]}\t{row[1]}\n"


def _float_line(row: list) -> str:
    return "\t".join(map(repr, row)) + "\n"


def _write_rows(path: Path, rows: np.ndarray, line) -> str:
    """Write ``line(row)`` for each row of ``rows``; returns the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for start in range(0, rows.shape[0], _WRITE_BLOCK_ROWS):
            data = "".join(map(line, rows[start:start + _WRITE_BLOCK_ROWS].tolist())).encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def save_graph(graph: Graph, out_dir, extra_manifest: dict | None = None) -> dict:
    """Write the TSV trio plus manifest.json; returns the manifest dict.

    Floats are written with repr(), which round-trips IEEE doubles exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labelled = np.column_stack([np.arange(graph.node_count), graph.labels])
    checksums = {
        "edges.tsv": _write_rows(out / "edges.tsv", graph.arcs, _pair_line),
        "features.tsv": _write_rows(out / "features.tsv", graph.features, _float_line),
        "labels.tsv": _write_rows(out / "labels.tsv", labelled, _pair_line),
    }
    manifest = {
        "node_count": graph.node_count,
        "num_classes": graph.num_classes,
        "directed": graph.directed,
        "checksums": checksums,
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
