"""Synthetic heterophily benchmarks: class-controlled edge sampling at a
target homophily level plus 2-D Gaussian node features.

Equal-sized classes; an edge between two nodes appears with probability
``p_in`` (same class) or ``p_out`` (different class), where the intra-class
fraction ``p_in / delta`` sets the expected edge homophily and
``delta = p_in + (num_classes - 1) * p_out`` ties the pair to the average
degree via ``d_avg = (n / num_classes) * delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, build_graph
from .metrics import edge_homophily

# homophily levels of the sweep; snap_h_fraction moves the endpoints h = 0 and
# h = 1, which require a zero edge probability, into the open interval
H_LEVELS = [round(0.1 * i, 1) for i in range(11)]

FEATURE_RADIUS = 300.0
FEATURE_COV_SCALE = 3500.0
FEATURE_COV_DIAG = (7.0, 2.0)

PRESETS = {
    "syn1": {"num_nodes": 10000, "num_classes": 10, "target_avg_degree": 5.0},
    "syn2": {"num_nodes": 10000, "num_classes": 10, "target_avg_degree": 10.0},
    "syn3": {"num_nodes": 10000, "num_classes": 10, "target_avg_degree": 15.0},
}

# per-pair Bernoulli sampling below this size; block-binomial above
_DENSE_SAMPLING_MAX_NODES = 5000

UNDIRECTED_ONLY = "synthetic datasets are undirected; directed does not apply"


@dataclass(frozen=True)
class SyntheticSpec:
    num_nodes: int
    num_classes: int
    target_avg_degree: float
    p_in_fraction: float
    seed: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("at least two classes are required")
        if self.num_nodes % self.num_classes != 0:
            raise ValueError("num_nodes must be divisible by num_classes (equal class sizes)")
        if not 0.0 < self.p_in_fraction < 1.0:
            raise ValueError("p_in_fraction must lie strictly inside (0, 1)")
        if self.p_in <= 0 or self.p_out <= 0:
            raise ValueError("parameters imply a non-positive edge probability")
        if max(self.p_in, self.p_out) > 1.0:
            raise ValueError(
                f"target degree {self.target_avg_degree} is unreachable: "
                f"p_in={self.p_in:.4g}, p_out={self.p_out:.4g}"
            )

    @property
    def class_size(self) -> int:
        return self.num_nodes // self.num_classes

    @property
    def delta(self) -> float:
        return self.target_avg_degree / self.class_size

    @property
    def p_in(self) -> float:
        return self.p_in_fraction * self.delta

    @property
    def p_out(self) -> float:
        return (self.delta - self.p_in) / (self.num_classes - 1)


def _pair_rng(seed: int, a: int, b: int):
    # independent stream per class-block pair; order-independent by construction
    return np.random.default_rng([seed, a, b])


def _decode_triangular(idx: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Map pair indices in [0, size*(size-1)/2) to (i, j) with i < j."""
    rows = np.arange(size - 1, dtype=np.int64)
    # row i starts at offset i*size - i*(i+1)/2; idx lies in the last row starting at or before it
    i = np.searchsorted(rows * size - rows * (rows + 1) // 2, idx, side="right") - 1
    j = idx - (i * size - i * (i + 1) // 2) + i + 1
    return i, j


def _decode_pairs(idx: np.ndarray, n_rows: int, n_cols: int, within: bool) -> np.ndarray:
    """The (i, j) pairs of pair indices of one block: row-major over i < j
    within a class, over the full n_rows x n_cols grid across classes."""
    i, j = _decode_triangular(idx, n_rows) if within else np.divmod(idx, n_cols)
    return np.stack([i, j], axis=1).astype(np.int64)


def _sample_block_pairs(rng, n_rows: int, n_cols: int, p: float, within: bool) -> np.ndarray:
    """Uniformly sample the pair set of one class-block pair.

    Matches the per-pair Bernoulli distribution: the pair count is binomial
    and, conditioned on the count, chosen pairs are uniform without
    replacement.
    """
    total = n_rows * (n_rows - 1) // 2 if within else n_rows * n_cols
    count = int(rng.binomial(total, p))
    return _decode_pairs(rng.choice(total, size=count, replace=False), n_rows, n_cols, within)


def _bernoulli_block(rng, n_rows: int, n_cols: int, p: float, within: bool) -> np.ndarray:
    """One Bernoulli(p) draw per pair of the block, in pair-index order."""
    total = n_rows * (n_rows - 1) // 2 if within else n_rows * n_cols
    return _decode_pairs(np.flatnonzero(rng.random(total) < p), n_rows, n_cols, within)


def generate_structure(spec: SyntheticSpec) -> Graph:
    """Equal-class labels plus independent per-pair edge sampling; undirected."""
    n, c, s = spec.num_nodes, spec.num_classes, spec.class_size
    labels = np.repeat(np.arange(c, dtype=np.int64), s)
    sample = _bernoulli_block if n <= _DENSE_SAMPLING_MAX_NODES else _sample_block_pairs
    edges = []
    for a in range(c):
        for b in range(a, c):
            rng = _pair_rng(spec.seed, a, b)
            p = spec.p_in if a == b else spec.p_out
            pairs = sample(rng, s, s, p, within=(a == b))
            edges.append(pairs + np.array([a * s, b * s], dtype=np.int64))
    return build_graph(n, np.concatenate(edges), None, labels, num_classes=c, directed=False)


def _rotation(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


def class_feature_params(cls: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the 2-D Gaussian for one class."""
    theta = 2.0 * math.pi * cls / num_classes
    mean = FEATURE_RADIUS * np.array([math.cos(theta), math.sin(theta)])
    base = FEATURE_COV_SCALE * np.diag(FEATURE_COV_DIAG)
    rot = _rotation(theta)
    return mean, rot @ base @ rot.T


def gaussian_features(labels, seed: int, num_classes: int | None = None) -> np.ndarray:
    """Sample one rotated anisotropic 2-D Gaussian per class.

    Means sit on a circle of radius 300 at angle 2*pi*class/num_classes; the
    covariance 3500*diag(7, 2) is rotated by the same angle.  Sampling uses
    Box-Muller normals pushed through the Cholesky factor of the covariance.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    n = labels.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))  # 1-u keeps the log argument in (0, 1]
    z = np.stack(
        [radius * np.cos(2.0 * math.pi * u[:, 1]), radius * np.sin(2.0 * math.pi * u[:, 1])],
        axis=1,
    )
    means = np.zeros((num_classes, 2))
    chols = np.zeros((num_classes, 2, 2))
    for cls in range(num_classes):
        mean, cov = class_feature_params(cls, num_classes)
        means[cls] = mean
        chols[cls] = np.linalg.cholesky(cov)
    return means[labels] + np.einsum("nij,nj->ni", chols[labels], z)


def generate(spec: SyntheticSpec) -> tuple[Graph, dict]:
    """Structure plus features plus a manifest of realized statistics."""
    structure = generate_structure(spec)
    features = gaussian_features(structure.labels, spec.seed, spec.num_classes)
    graph = replace(structure, features=features)
    realized_h = edge_homophily(graph) if graph.arc_count else float("nan")
    manifest = {
        "generator": {
            "num_nodes": spec.num_nodes,
            "num_classes": spec.num_classes,
            "target_avg_degree": spec.target_avg_degree,
            "p_in_fraction": spec.p_in_fraction,
            "p_in": spec.p_in,
            "p_out": spec.p_out,
            "seed": spec.seed,
            "paper_faithful_features": spec.num_classes == 10,
        },
        "realized": {
            "edge_homophily": realized_h,
            "avg_degree": graph.arc_count / graph.node_count,
            "target_edge_homophily": spec.p_in_fraction,
        },
    }
    return graph, manifest


def preset_spec(name: str, h_fraction: float, seed: int, scale: float = 1.0) -> SyntheticSpec:
    """A sweep point of one of the named benchmark families, optionally rescaled."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"preset scale must be a finite positive number, got {scale!r}")
    base = PRESETS[name]
    c = base["num_classes"]
    n = max(int(round(base["num_nodes"] * scale / c)), 2) * c
    return SyntheticSpec(
        num_nodes=n,
        num_classes=c,
        target_avg_degree=base["target_avg_degree"],
        p_in_fraction=h_fraction,
        seed=seed,
    )


def snap_h_fraction(h: float) -> float:
    """Clamp a requested homophily level into the admissible open interval."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("homophily level must lie in [0, 1]")
    return min(max(h, 0.0001), 0.9999)
