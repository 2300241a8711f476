import numpy as np
import pytest
from scipy import sparse

from clprop.compatibility import Beliefs, CompatibilityMatrix
from clprop.graph import build_graph
from clprop.propagation import SPECTRAL_STEPS, NodeWeights


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
    """Weights whose ``num_classes`` class operators all equal ``matrix``
    (dense or sparse): a weighted A^T, with unit sender and receiver factors."""
    ones = np.ones((matrix.shape[0], num_classes))
    return NodeWeights(sparse.csr_matrix(matrix), ones, ones)


def class_slices(weights):
    """The dense receiver-row class slices of ``weights``, built from its arcs:
    ``slice_k[j, i] = (G[i, k] * R[j, k]) * a_ij``, or ``G[i, k] * a_ij`` for CLP*."""
    a = weights.incoming.tocoo()
    slices = []
    for k in range(weights.num_classes):
        data = weights.outgoing[a.col, k]
        if weights.receiving is not None:
            data = data * weights.receiving[a.row, k]
        dense = np.zeros(a.shape)
        dense[a.row, a.col] = data * a.data
        slices.append(dense)
    return slices


def closed_form_clp(weights, teleport, alpha):
    """The exact fixed point of CLP, or of CLP* without ``receiving``, as
    (nodes x classes): column k solves ``(I - alpha W_k) x_k = (1 - alpha)
    teleport[:, k]`` by dense LU on class k's slice ``W_k`` from
    :func:`class_slices`."""
    n = weights.incoming.shape[0]
    return np.column_stack([
        np.linalg.solve(np.eye(n) - alpha * w_k, (1.0 - alpha) * teleport.values[:, k])
        for k, w_k in enumerate(class_slices(weights))
    ])


def slice_bracket(m, stored, nonneg, threshold):
    """The Collatz–Wielandt bracket of rho(|m|) on one dense class slice, as
    the certificate computed it slice by slice: zero rows of |m| and their
    columns dropped until none is left, at most ``SPECTRAL_STEPS`` steps
    ``x <- |m|x / max + 1e-12`` from x = 1, stopping once the bracket excludes
    ``threshold``, and each bound widened by ``(d + 2) * 2**-52``, with d the
    largest number of ``stored`` entries of a remaining row in the remaining
    columns.  ``lower`` is 0 unless ``nonneg``."""
    m = np.abs(m)
    keep = np.arange(len(m))
    while not (live := m[np.ix_(keep, keep)].sum(axis=1) > 0).all():
        keep = keep[live]
    if keep.size == 0:
        return 0.0, 0.0
    m = m[np.ix_(keep, keep)]
    margin = (int(stored[np.ix_(keep, keep)].sum(axis=1).max()) + 2) * 2.0**-52
    x = np.ones(len(keep))
    for _ in range(SPECTRAL_STEPS):
        y = m @ x
        lower = float((y / x).min()) * (1.0 - margin) if nonneg else 0.0
        upper = float((y / x).max()) * (1.0 + margin)
        if not lower <= threshold <= upper:
            break
        x = y / y.max() + 1e-12
    return lower, upper


def slice_verdicts(weights, alpha):
    """``(status, frobenius, lower, upper)`` per class from the dense slices:
    certified below 1/alpha in the Frobenius norm, else by
    :func:`slice_bracket`.  A class has no lower bound when its column of G
    or R, or any arc weight, is negative."""
    threshold = np.inf if alpha == 0.0 else 1.0 / alpha
    a = weights.incoming.tocoo()
    stored = np.zeros(a.shape, dtype=bool)
    stored[a.row, a.col] = True  # explicit zeros included
    signs = [weights.outgoing] + ([] if weights.receiving is None else [weights.receiving])
    nonneg = np.logical_and.reduce([(f >= 0).all(axis=0) for f in signs])
    nonneg &= bool((a.data >= 0).all())
    verdicts = []
    for k, m in enumerate(class_slices(weights)):
        frobenius = float(np.sqrt(np.sum(m * m)))
        if frobenius < threshold:
            verdicts.append(("certified", frobenius, None, None))
            continue
        lower, upper = slice_bracket(m, stored, nonneg[k], threshold)
        status = ("convergent" if upper < threshold
                  else "divergent" if lower > threshold else "unproved")
        verdicts.append((status, frobenius, lower, upper))
    return verdicts


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
