import numpy as np
import pytest
from scipy import sparse

from clprop.compatibility import Beliefs, CompatibilityMatrix
from clprop.graph import build_graph
from clprop.propagation import NodeWeights


def line_writer_bytes(rows: np.ndarray) -> bytes:
    """``rows`` written one line at a time: the row's values tab-separated, ints
    in decimal and floats by ``repr``; a zero-width row is an empty line."""
    scalar = int if rows.dtype.kind == "i" else float
    return "".join("\t".join(repr(scalar(x)) for x in row) + "\n" for row in rows).encode()


def line_writer_files(graph) -> dict[str, bytes]:
    """The dataset TSVs of ``graph`` as a writer of one line at a time writes them."""
    return {
        "edges.tsv": "".join(f"{u}\t{v}\n" for u, v in graph.arcs).encode(),
        "features.tsv": line_writer_bytes(graph.features),
        "labels.tsv": "".join(f"{node}\t{cls}\n" for node, cls in enumerate(graph.labels)).encode(),
    }


def graph_from_edges(n, edges, labels, directed=False, features=None, num_classes=None):
    labels = np.asarray(labels, dtype=np.int64)
    if features is None:
        features = np.zeros((n, 1))
    return build_graph(n, edges, features, labels, num_classes, directed)


def weights_from_dense(matrix, num_classes=1):
    """Weights whose ``num_classes`` receiver-row class slices all equal the
    dense ``matrix``: a weighted A^T, with unit sender and receiver factors."""
    ones = np.ones((len(matrix), num_classes))
    return NodeWeights(sparse.csr_matrix(matrix), ones, ones)


@pytest.fixture
def path4():
    # symmetrized path 0-1-2-3 with labels [0, 0, 1, 1]
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])


@pytest.fixture
def triangle_uniform():
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], [0, 0, 0], num_classes=2)


@pytest.fixture
def k22():
    # complete bipartite K_{2,2} across two classes
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    return graph_from_edges(4, edges, [0, 0, 1, 1])


@pytest.fixture
def worked_example():
    """Three-node single-sender instance with known propagation values."""
    graph = graph_from_edges(
        3, [(0, 1), (0, 2)], [0, 1, 0], directed=True, num_classes=2
    )
    compat = CompatibilityMatrix(np.array([[0.2, 0.8], [0.8, 0.2]]), "row_stochastic")
    beliefs = Beliefs(np.array([[0.4, 0.6], [0.2, 0.8], [0.7, 0.3]]), "prior")
    return graph, compat, beliefs


def random_propagation_instance(rng, max_nodes=50, max_classes=5):
    """Random graph + prior beliefs + doubly-stochastic compatibility."""
    from clprop.compatibility import sinkhorn_knopp

    n = int(rng.integers(8, max_nodes + 1))
    c = int(rng.integers(2, max_classes + 1))
    p = float(rng.uniform(0.08, 0.3))
    pairs = np.array(
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
        dtype=np.int64,
    ).reshape(-1, 2)
    labels = rng.integers(0, c, n)
    graph = build_graph(n, pairs, np.zeros((n, 1)), labels, c, directed=False)
    b = rng.random((n, c)) + 0.05
    b /= b.sum(axis=1, keepdims=True)
    h_raw, dev = sinkhorn_knopp(rng.random((c, c)) + 0.05)
    compat = CompatibilityMatrix(h_raw, "doubly_stochastic", sinkhorn_deviation=dev)
    return graph, Beliefs(b, "prior"), compat
