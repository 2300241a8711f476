import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import clprop.propagation as propagation
from clprop.compatibility import Beliefs, CompatibilityMatrix
from clprop.graph import build_graph, one_hot
from clprop.pipeline import DEFAULT_ALPHA_GRID
from clprop.propagation import (
    DivergenceError,
    NodeWeights,
    PropagationConfig,
    convergence_check,
    edge_weights,
    lp_operator,
    propagate_clp,
    propagate_clp_star,
    propagate_lp,
    sender_weights,
    spectral_radius,
)

from conftest import (
    class_slices,
    closed_form_clp,
    graph_from_edges,
    random_propagation_instance,
    slice_verdicts,
    weights_from_dense,
)


def scaled_random_weights(n, rho_target, seed, num_classes=1):
    """Weights whose class operators are one dense matrix of known spectral radius.

    The dense eigensolver provides the ground-truth radius of the base
    matrix; scaling is exact because rho is homogeneous.
    """
    rng = np.random.default_rng(seed)
    base = rng.random((n, n))
    np.fill_diagonal(base, 0.0)
    rho0 = np.max(np.abs(np.linalg.eigvals(base)))
    scaled = base * (rho_target / rho0)
    assert scaled.max() <= 1.0
    return weights_from_dense(scaled, num_classes)


def _arc_weights(weights):
    """The (arcs x classes) weights ``(G[i] * R[j]) * a_ij`` of ``weights.arcs``,
    expanded from the factors."""
    senders, receivers = weights.arcs.T
    expanded = weights.outgoing[senders]
    if weights.receiving is not None:
        expanded *= weights.receiving[receivers]
    expanded *= weights.incoming.data[:, None]
    return expanded


class TestEdgeWeights:
    def test_worked_instance_values(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        assert awf.arcs.tolist() == [[0, 1], [0, 2]]
        arc_01, arc_02 = _arc_weights(awf)
        np.testing.assert_allclose(arc_01, [0.112, 0.352], atol=1e-15)
        np.testing.assert_allclose(arc_02, [0.392, 0.132], atol=1e-15)

    def test_identity_compat_one_hot_is_basis_vector(self):
        g = graph_from_edges(2, [(0, 1)], [1, 1], num_classes=3, directed=True)
        b = Beliefs(one_hot([1, 1], 3), "prior")
        h = CompatibilityMatrix(np.eye(3), "row_stochastic")
        awf = edge_weights(g, b, h)
        np.testing.assert_array_equal(_arc_weights(awf), [[0, 1, 0]])

    def test_homophily_degeneration_support(self):
        # identity compatibility + one-hot priors on a homophilous graph:
        # every arc weight vector is supported only on the shared class
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0, 0, 0, 1, 1, 1])
        b = Beliefs(one_hot(g.labels, 2), "prior")
        h = CompatibilityMatrix(np.eye(2), "row_stochastic")
        awf = edge_weights(g, b, h)
        for (src, _), weight in zip(awf.arcs, _arc_weights(awf)):
            expected = np.zeros(2)
            expected[g.labels[src]] = 1.0
            np.testing.assert_array_equal(weight, expected)

    def test_incoming_pattern_equals_arc_set_when_undirected(self, path4):
        b = Beliefs(np.full((4, 2), 0.5), "prior")
        h = CompatibilityMatrix(np.full((2, 2), 0.5), "doubly_stochastic", 0.0)
        awf = edge_weights(path4, b, h)
        coo = awf.incoming.tocoo()
        pattern = set(zip(coo.row.tolist(), coo.col.tolist()))
        assert pattern == set(map(tuple, path4.arcs.tolist()))
        assert set(map(tuple, awf.arcs.tolist())) == pattern

    def test_dimension_mismatch(self, path4):
        b = Beliefs(np.full((3, 2), 0.5), "prior")
        h = CompatibilityMatrix(np.eye(2), "row_stochastic")
        with pytest.raises(ValueError):
            edge_weights(path4, b, h)

    @pytest.mark.parametrize("directed", [False, True])
    def test_arc_weights_are_the_products_of_the_factors(self, directed):
        """Arc (i, j) weighs ``(b0[i] @ H) * b0[j]``, one product, and A^T holds
        its sender at [j, i], in the arcs' receiver-stable order."""
        rng = np.random.default_rng(3 + directed)
        graph, b0, compat = random_propagation_instance(rng)
        graph = build_graph(graph.node_count, graph.arcs, graph.features, graph.labels,
                            graph.num_classes, directed)
        awf = edge_weights(graph, b0, compat)
        order = np.argsort(graph.arcs[:, 1], kind="stable")
        np.testing.assert_array_equal(awf.arcs, graph.arcs[order])
        src, dst = awf.arcs.T
        expected = (b0.values @ compat.values)[src] * b0.values[dst]
        np.testing.assert_array_equal(awf.incoming.data, 1.0)
        np.testing.assert_array_equal(_arc_weights(awf), expected)
        np.testing.assert_array_equal(awf.incoming.indices, src)

    @staticmethod
    def _large_instance():
        """2000 nodes, about 20k directed arcs and 10 classes."""
        rng = np.random.default_rng(0)
        n, m, c = 2000, 20000, 10
        pairs = rng.integers(0, n, (m, 2))
        graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, c, n), c, directed=True)
        assert graph.arc_count > 0.99 * m
        b0 = rng.random((n, c))
        b0 = Beliefs(b0 / b0.sum(axis=1, keepdims=True), "prior")
        compat = CompatibilityMatrix(np.full((c, c), 1.0 / c), "doubly_stochastic", 0.0)
        return graph, b0, compat

    def test_construction_peak_memory(self):
        """The weights are node-space factors: building them for 20k arcs and
        10 classes peaks at 0.41 MB (numpy 2.4, scipy 1.17), A^T and G.  The
        (arcs x classes) tensor they replace peaked at 4.9 MB here, and any
        (arcs x classes) array would add 1.6 MB and fail."""
        graph, b0, compat = self._large_instance()
        tracemalloc.start()
        try:
            awf = edge_weights(graph, b0, compat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert awf.incoming.nnz == graph.arc_count
        assert peak < 0.6e6, f"peak {peak / 1e6:.2f} MB"

    def test_normalized_step_peak_memory(self):
        """For 20k arcs and 10 classes, the first normalized CLP step peaks at
        3.2 MB, which builds the arc-sum operator, and each later one at 0.64
        MB (numpy 2.4, scipy 1.17): a step makes only (nodes x classes) and
        per-arc buffers.  Gathering ``P[senders]`` into an (arcs x classes)
        buffer per call peaked at 3.9 and 2.2 MB, and building the operator's
        indices as int64 for scipy to narrow would peak at 4.3 MB."""
        graph, b0, compat = self._large_instance()
        awf = edge_weights(graph, b0, compat)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                propagation._step(awf, True)(b0.values)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert peaks[0] < 3.6e6, f"first step peak {peaks[0] / 1e6:.2f} MB"
        assert max(peaks[1:]) < 1.0e6, f"later step peaks {[f'{p / 1e6:.2f}' for p in peaks]} MB"


def _held_arrays(weights):
    """Every array a NodeWeights holds: the CSR arrays of A^T, its factors and
    whatever its cached properties have made so far, the arrays of a cached
    sparse matrix included.  An array that is, or shares memory with, one
    listed before it is not listed again."""
    a = weights.incoming
    held = [a.data, a.indices, a.indptr, weights.outgoing]
    if weights.receiving is not None:
        held.append(weights.receiving)
    for v in vars(weights).values():
        if sparse.issparse(v):
            arrays = [v.data, v.indices, v.indptr]
        else:
            arrays = [v] if isinstance(v, np.ndarray) else []
        held.extend(x for x in arrays
                    if not any(x is h or np.shares_memory(x, h) for h in held))
    return held


class TestNodeWeights:
    @pytest.mark.parametrize("build", [edge_weights, sender_weights], ids=["clp", "clp_star"])
    @pytest.mark.parametrize("num_classes", [1, 3, 17])
    @pytest.mark.parametrize("arcs", ["undirected", "directed", "none"])
    def test_weights_are_stored_once_in_the_factors(self, arcs, num_classes, build):
        """A^T holds each arc once; the class weights live in (nodes x classes)
        factors.  Raw steps and CLP* cache nothing.  The first normalized CLP
        step caches one arc-sum operator, which holds ``receiving`` at the
        arcs' receivers, and nothing else."""
        rng = np.random.default_rng(num_classes)
        n = 12
        pairs = rng.integers(0, n, (0 if arcs == "none" else 30, 2))
        graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, num_classes, n),
                            num_classes, arcs == "directed")
        b0 = Beliefs(rng.dirichlet(np.ones(num_classes), n), "prior")
        compat = CompatibilityMatrix(rng.dirichlet(np.ones(num_classes), num_classes),
                                     "row_stochastic")
        weights = build(graph, b0, compat)
        clp = build is edge_weights
        assert weights.incoming.shape == (n, n)
        assert weights.incoming.nnz == graph.arc_count
        assert weights.outgoing.shape == (n, num_classes)
        assert (weights.receiving is not None) == clp
        # arcs in the order of A^T: stable by receiver, senders ascending
        order = np.lexsort((graph.arcs[:, 0], graph.arcs[:, 1]))
        np.testing.assert_array_equal(weights.arcs, graph.arcs[order])

        beliefs = Beliefs(rng.random((n, num_classes)), "propagated")
        senders, receivers = weights.arcs.T
        expected = np.zeros((n, num_classes))
        np.add.at(expected, receivers, _arc_weights(weights) * beliefs.values[senders])
        np.testing.assert_allclose(propagation._step(weights, False)(beliefs.values), expected,
                                   rtol=1e-13, atol=0)
        propagation._step(weights, not clp)(beliefs.values)

        m = graph.arc_count

        def cached():
            """What the weights hold beyond A^T and the factors."""
            return _held_arrays(weights)[4 + clp:]

        def operators():
            return [v for v in vars(weights).values()
                    if sparse.issparse(v) and v is not weights.incoming]

        # only the receivers that ``arcs`` read, one entry per arc
        assert [h.shape for h in cached()] == [(m,)]
        assert operators() == []
        if not clp:
            return
        propagation._step(weights, True)(beliefs.values)
        (operator,) = operators()
        assert operator.shape == (m, n * num_classes)
        assert operator.data.size == m * num_classes
        np.testing.assert_array_equal(operator.data.reshape(m, num_classes),
                                      weights.receiving[receivers])
        dense = np.zeros((m, n, num_classes))
        dense[np.arange(m), senders] = weights.receiving[receivers]
        np.testing.assert_array_equal(operator.toarray(), dense.reshape(m, n * num_classes))
        parts = [operator.data, operator.indices, operator.indptr]
        added = cached()[1:]
        assert all(any(h is x for x in parts) for h in added)

    @pytest.mark.parametrize("shapes", [((4, 5), (4, 2), (4, 2)),
                                        ((4, 4), (5, 2), None),
                                        ((4, 4), (4, 2), (4, 3))],
                             ids=["incoming", "outgoing", "receiving"])
    def test_rejects_factors_that_disagree(self, shapes):
        incoming, outgoing, receiving = shapes
        with pytest.raises(ValueError, match="disagree|differ"):
            NodeWeights(sparse.csr_matrix(incoming), np.ones(outgoing),
                        None if receiving is None else np.ones(receiving))


class TestAggregate:
    """In the worked example, receivers 1 and 2 each have one incoming arc,
    so their aggregate is that arc's message."""

    def test_worked_instance_normalized(self, worked_example):
        graph, compat, beliefs = worked_example
        agg = propagation._step(edge_weights(graph, beliefs, compat), True)(beliefs.values)
        np.testing.assert_allclose(agg[1], [0.175, 0.825], atol=1e-12)
        np.testing.assert_allclose(agg[2], [0.66440678, 0.33559322], atol=1e-8)
        np.testing.assert_array_equal(agg[0], [0.0, 0.0])

    def test_worked_instance_raw(self, worked_example):
        graph, compat, beliefs = worked_example
        agg = propagation._step(edge_weights(graph, beliefs, compat), False)(beliefs.values)
        np.testing.assert_allclose(agg[1], [0.0448, 0.2112], atol=1e-15)
        normalized = agg[1] / agg[1].sum()
        np.testing.assert_allclose(normalized, [0.175, 0.825], atol=1e-12)

    def test_zero_belief_row_gives_zero_message(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        silent = np.zeros((3, 2))
        np.testing.assert_array_equal(propagation._step(awf, True)(silent), np.zeros((3, 2)))


class TestPropagateClp:
    def test_alpha_zero_returns_teleport(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        out, log = propagate_clp(awf, beliefs, PropagationConfig(alpha=0.0, max_iters=5))
        np.testing.assert_array_equal(out.values, beliefs.values)
        assert log[-1].residual == 0.0

    def test_zero_weights_fixed_point(self):
        awf = weights_from_dense(np.zeros((4, 4)), 2)
        teleport = Beliefs(np.full((4, 2), 0.5), "prior")
        out, log = propagate_clp(awf, teleport, PropagationConfig(alpha=0.4))
        np.testing.assert_allclose(out.values, 0.6 * teleport.values)
        assert len(log) <= 2

    def test_limit_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            graph, b0, compat = random_propagation_instance(rng, max_nodes=25)
            awf = edge_weights(graph, b0, compat)
            alpha = 0.6
            if not all(v.ok for v in convergence_check(awf, alpha)):
                continue
            teleport = Beliefs(
                np.full((graph.node_count, b0.num_classes), 1.0 / b0.num_classes),
                "base_prediction",
            )
            out, _ = propagate_clp(
                awf, teleport, PropagationConfig(alpha, max_iters=20000, tol=1e-14)
            )
            exact = closed_form_clp(awf, teleport, alpha)
            assert np.abs(exact - out.values).max() < 1e-8

    def test_divergence_detected(self):
        awf = scaled_random_weights(16, rho_target=1.5, seed=0)
        teleport = Beliefs(np.ones((16, 1)), "prior")
        with pytest.raises(DivergenceError):
            propagate_clp(awf, teleport, PropagationConfig(alpha=0.8, max_iters=500, tol=1e-300))

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(21)
        graph, b0, compat = random_propagation_instance(rng, max_nodes=20)
        awf = edge_weights(graph, b0, compat)
        slices = class_slices(awf)
        alpha, tol = 0.5, 1e-12
        teleport = b0
        out, _ = propagate_clp(awf, teleport, PropagationConfig(alpha, max_iters=30000, tol=tol))
        reproduced = np.column_stack(
            [
                (1 - alpha) * teleport.values[:, k] + alpha * (slices[k] @ out.values[:, k])
                for k in range(b0.num_classes)
            ]
        )
        assert np.abs(reproduced - out.values).max() < 10 * tol

    def test_teleport_scaling_preserves_argmax(self):
        rng = np.random.default_rng(31)
        graph, b0, compat = random_propagation_instance(rng, max_nodes=20)
        awf = edge_weights(graph, b0, compat)
        config = PropagationConfig(0.5, max_iters=5000, tol=1e-12)
        out1, _ = propagate_clp(awf, b0, config)
        scaled = Beliefs(3.0 * b0.values, "propagated")
        out2, _ = propagate_clp(awf, scaled, config)
        np.testing.assert_allclose(out2.values, 3.0 * out1.values, rtol=1e-8, atol=1e-10)
        np.testing.assert_array_equal(out1.argmax(), out2.argmax())

    def test_normalized_messages_change_the_result(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        raw, _ = propagate_clp(awf, beliefs, PropagationConfig(0.5, max_iters=30))
        normed, _ = propagate_clp(
            awf, beliefs, PropagationConfig(0.5, max_iters=30, message_normalization=True)
        )
        assert (raw.values != normed.values).any()


def _reference_step(weights, normalize):
    """The aggregation step in its arc-major form, built from the arcs and
    their expanded weights alone: normalized messages divided through a
    boolean mask and summed by the receiver incidence, unnormalized beliefs
    aggregated class by class through receiver-row slices built from COO."""
    n, m = weights.incoming.shape[0], weights.incoming.nnz
    src, dst = weights.arcs.T
    arc_weights = _arc_weights(weights)
    if not normalize:
        slices = [
            sparse.csr_matrix((arc_weights[:, k], (dst, src)), shape=(n, n))
            for k in range(weights.num_classes)
        ]
        return lambda values: np.column_stack(
            [slice_k @ values[:, k] for k, slice_k in enumerate(slices)]
        )
    incidence = sparse.csr_matrix((np.ones(m), (dst, np.arange(m))), shape=(n, m))

    def step(values):
        msgs = arc_weights * values[src]
        sums = msgs.sum(axis=1)
        pos = sums > 0
        msgs[pos] /= sums[pos, None]
        return incidence @ msgs

    return step


def _degenerate_instance(rng, directed, num_classes=None, receiving=True):
    """Random factors on random arcs, with isolated nodes, zero rows of G, of
    R and of the teleport, and (with ``receiving``) a weighted A^T with
    zero-weight arcs; without ``receiving``, CLP* weights on the 0/1 A^T.
    2 to 5 classes unless ``num_classes`` is given."""
    n = int(rng.integers(10, 40))
    c = int(rng.integers(2, 6)) if num_classes is None else num_classes
    active = n - 3  # the last three nodes stay isolated
    pairs = rng.integers(0, active, (int(rng.integers(1, 4 * active)), 2))
    graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, c, n), c, directed)
    incoming = graph.adjacency.T.tocsr()
    outgoing = rng.random((n, c)) * rng.uniform(0.05, 0.5)
    outgoing[rng.random(outgoing.shape) < 0.2] = 0.0
    outgoing[rng.random(n) < 0.1] = 0.0  # senders whose weights are all zero
    factor = None
    if receiving:
        incoming.data = rng.uniform(0.2, 1.0, incoming.nnz)
        incoming.data[rng.random(incoming.nnz) < 0.1] = 0.0  # arcs that carry nothing
        factor = rng.random((n, c))
        factor[rng.random(factor.shape) < 0.2] = 0.0
        factor[rng.random(n) < 0.1] = 0.0  # receivers that take nothing
    teleport = rng.random((n, c))
    teleport[rng.random(teleport.shape) < 0.2] = 0.0
    teleport[rng.random(n) < 0.15] = 0.0  # senders whose messages sum to zero
    return NodeWeights(incoming, outgoing, factor), Beliefs(teleport, "propagated")


def _reference_run(weights, teleport, config):
    return propagation._iterate(
        _reference_step(weights, config.message_normalization), teleport.values, config
    )


def _assert_same_run(weights, teleport, config, exact=None):
    """``propagate_clp``, or ``propagate_clp_star`` on weights without a
    receiving factor, matches the reference: bit for bit when ``exact`` (by
    default for CLP*), else to rtol 1e-12 with the same log length; diverging
    or not alike.  Returns whether the run diverged."""
    propagate = propagate_clp if weights.receiving is not None else propagate_clp_star
    exact = weights.receiving is None if exact is None else exact
    try:
        values, log = _reference_run(weights, teleport, config)
    except DivergenceError as expected:
        with pytest.raises(DivergenceError) as err:
            propagate(weights, teleport, config)
        if exact:
            assert err.value.log == expected.log
        else:
            assert len(err.value.log) == len(expected.log)
        return True
    out, got_log = propagate(weights, teleport, config)
    if exact:
        np.testing.assert_array_equal(out.values, values)
        assert got_log == log
    else:
        np.testing.assert_allclose(out.values, values, rtol=1e-12, atol=0)
        assert len(got_log) == len(log)
    return False


@pytest.mark.parametrize("receiving", [True, False], ids=["clp", "clp_star"])
class TestMatchesArcMajorReference:
    """CLP matches the arc-major step to rtol 1e-12, CLP* bit for bit."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_random_degenerate_graphs(self, directed, normalize, receiving):
        rng = np.random.default_rng(41 + directed)
        for _ in range(6):
            weights, teleport = _degenerate_instance(rng, directed, receiving=receiving)
            for alpha in (0.1, 0.5, 0.9):
                config = PropagationConfig(alpha, message_normalization=normalize)
                _assert_same_run(weights, teleport, config)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("num_classes", [1, 8, 9, 10, 16, 17])
    def test_class_counts_of_every_summation_branch(self, num_classes, normalize, directed,
                                                    receiving):
        # one class; numpy's row sums with 8 accumulators and no leftover,
        # with leftovers, and with a second group of 8
        rng = np.random.default_rng(num_classes + 50 * directed)
        for _ in range(3):
            weights, teleport = _degenerate_instance(rng, directed, num_classes, receiving)
            for alpha in (0.1, 0.5, 0.9):
                config = PropagationConfig(alpha, message_normalization=normalize)
                _assert_same_run(weights, teleport, config)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_negative_arc_sums_leave_messages_undivided(self, normalize, receiving):
        # senders whose G rows hold only tiny negative entries send messages
        # that sum below zero; like zero-sum messages they are not divided
        rng = np.random.default_rng(7)
        weights, _ = _degenerate_instance(rng, False, 3, receiving)
        n = weights.incoming.shape[0]
        slack = rng.random(n) < 0.3
        weights.outgoing[slack] = [-1e-12, 0.0, 0.0]
        weights.outgoing[slack & (rng.random(n) < 0.5)] = [-1e-12, -5e-13, 0.0]
        teleport = Beliefs(rng.uniform(0.5, 1.0, (n, 3)), "propagated")
        sums = (_arc_weights(weights) * teleport.values[weights.arcs[:, 0]]).sum(axis=1)
        assert (sums < 0).sum() >= 4
        for alpha in (0.1, 0.5, 0.9):
            config = PropagationConfig(alpha, message_normalization=normalize)
            _assert_same_run(weights, teleport, config)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_empty_arc_set(self, normalize, receiving):
        rng = np.random.default_rng(2)
        weights = NodeWeights(sparse.csr_matrix((5, 5)), rng.random((5, 3)),
                              rng.random((5, 3)) if receiving else None)
        assert weights.arcs.shape == (0, 2)
        teleport = Beliefs(rng.random((5, 3)), "propagated")
        config = PropagationConfig(0.5, message_normalization=normalize)
        _assert_same_run(weights, teleport, config, exact=True)

    def test_diverging_run_logs_match(self, receiving):
        weights = scaled_random_weights(16, rho_target=1.5, seed=0, num_classes=2)
        if not receiving:
            weights = NodeWeights(weights.incoming, weights.outgoing)
        teleport = Beliefs(np.ones((16, 2)), "propagated")
        config = PropagationConfig(alpha=0.8, max_iters=500, tol=1e-300)
        with pytest.raises(DivergenceError) as expected:
            _reference_run(weights, teleport, config)
        with pytest.raises(DivergenceError) as err:
            (propagate_clp if receiving else propagate_clp_star)(weights, teleport, config)
        assert len(err.value.log) == len(expected.value.log)
        assert err.value.log[-1].residual == pytest.approx(expected.value.log[-1].residual,
                                                           rel=1e-12)


class TestArcSums:
    """The cached operator of the normalized CLP step gives every arc's
    ``<P[i], R[j]>`` as a loop over the classes does: from 0, adding
    ``P[i, k] * R[j, k]`` for k ascending, bit for bit."""

    @staticmethod
    def _assert_class_by_class(weights, beliefs):
        p = weights.outgoing * beliefs
        senders, receivers = weights.arcs.T
        expected = np.zeros(len(senders))
        for k in range(weights.num_classes):
            expected += p[senders, k] * weights.receiving[receivers, k]
        got = weights._arc_sums @ p.ravel()
        assert got.tobytes() == expected.tobytes()
        return got

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("num_classes", [None, 1, 8, 9, 10, 16, 17])
    def test_equal_the_class_by_class_sum(self, num_classes, directed):
        rng = np.random.default_rng(60 + 2 * (num_classes or 0) + directed)
        for _ in range(4):
            weights, teleport = _degenerate_instance(rng, directed, num_classes)
            sums = self._assert_class_by_class(weights, teleport.values)
            assert (sums > 0).any() and (sums == 0).any()

    def test_empty_arc_set(self):
        rng = np.random.default_rng(3)
        weights = NodeWeights(sparse.csr_matrix((5, 5)), rng.random((5, 3)), rng.random((5, 3)))
        assert self._assert_class_by_class(weights, rng.random((5, 3))).shape == (0,)


def _formula_run(step, teleport, config):
    """The fixed-point loop as ``b <- anchor + alpha * step(b)``, with the
    residual, stop and divergence rules of ``propagation._iterate``."""
    alpha = config.alpha
    anchor = (1.0 - alpha) * teleport
    b = teleport.copy()
    log = []
    prev_res = math.inf
    streak = 0
    for it in range(1, config.max_iters + 1):
        new_b = anchor + alpha * step(b)
        res = float(np.abs(new_b - b).max()) if b.size else 0.0
        log.append(propagation.IterationRecord(it, res))
        b = new_b
        if res < config.tol:
            break
        streak = streak + 1 if res > prev_res else 0
        prev_res = res
        if streak >= propagation.DIVERGENCE_STREAK:
            raise DivergenceError("diverged", log)
    return b, log


class TestFixedPointLoop:
    """``_iterate`` scales and shifts each fresh step in place; its iterates
    and residuals are those of ``anchor + alpha * step(b)`` bit for bit, and
    it never writes the caller's teleport."""

    @staticmethod
    def _assert_formula(run, step, teleport, config):
        kept = teleport.copy()
        try:
            values, log = _formula_run(step, teleport, config)
        except DivergenceError as expected:
            with pytest.raises(DivergenceError) as err:
                run(teleport, config)
            assert err.value.log == expected.log
        else:
            out, got_log = run(teleport, config)
            assert out.tobytes() == values.tobytes()
            assert got_log == log
            assert not np.shares_memory(out, teleport)
        assert teleport.tobytes() == kept.tobytes()

    @staticmethod
    def _node_weights_run(weights, normalize):
        propagate = propagate_clp if weights.receiving is not None else propagate_clp_star

        def run(teleport, config):
            out, log = propagate(weights, Beliefs(teleport, "propagated"), config)
            return out.values, log

        return run, propagation._step(weights, normalize)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("method", ["clp", "clp_star"])
    def test_clp_iterates_match_the_formula(self, method, normalize, directed):
        rng = np.random.default_rng(70 + 4 * normalize + 2 * directed + (method == "clp"))
        for _ in range(3):
            if method == "clp":
                weights, teleport = _degenerate_instance(rng, directed, 9)
            else:
                weights, teleport = _sender_instance(rng, directed, 9)
            run, step = self._node_weights_run(weights, normalize)
            for alpha in (0.0, 0.5, 0.9):
                config = PropagationConfig(alpha, message_normalization=normalize)
                self._assert_formula(run, step, teleport.values, config)

    @pytest.mark.parametrize("receiving", [True, False], ids=["clp", "clp_star"])
    def test_diverging_iterates_match_the_formula(self, receiving):
        weights = scaled_random_weights(16, rho_target=1.5, seed=0, num_classes=2)
        if not receiving:
            weights = NodeWeights(weights.incoming, weights.outgoing)
        run, step = self._node_weights_run(weights, False)
        config = PropagationConfig(alpha=0.8, max_iters=500, tol=1e-300)
        with pytest.raises(DivergenceError):
            run(np.ones((16, 2)), config)
        self._assert_formula(run, step, np.ones((16, 2)), config)

    @pytest.mark.parametrize("directed", [False, True])
    def test_lp_iterates_match_the_formula(self, directed):
        rng = np.random.default_rng(80 + directed)
        graph, _, _ = random_propagation_instance(rng)
        graph = build_graph(graph.node_count, graph.arcs, graph.features, graph.labels,
                            graph.num_classes, directed)
        operator = lp_operator(graph)
        teleport = rng.uniform(0.1, 1.0, (graph.node_count, graph.num_classes))

        def run(values, config):
            out, log = propagate_lp(operator, values, config)
            return out.values, log

        for alpha in (0.0, 0.5, 0.9):
            self._assert_formula(run, lambda b: operator @ b, teleport, PropagationConfig(alpha))


class TestNoStateOutlivesACall:
    @pytest.mark.parametrize("normalize", [False, True])
    def test_repeated_calls_are_byte_equal(self, normalize):
        rng = np.random.default_rng(8)
        awf, teleport = _degenerate_instance(rng, False, 9)
        other, other_teleport = _degenerate_instance(rng, True, 4)
        config = PropagationConfig(0.3, message_normalization=normalize)
        first, first_log = propagate_clp(awf, teleport, config)
        for mode in (False, True):
            propagate_clp(other, other_teleport, PropagationConfig(0.3, message_normalization=mode))
        propagate_clp(awf, teleport, PropagationConfig(0.3, message_normalization=not normalize))
        second, second_log = propagate_clp(awf, teleport, config)
        assert first.values.tobytes() == second.values.tobytes()
        assert first_log == second_log


def _sender_instance(rng, directed, num_classes):
    """CLP* weights on a random graph with isolated nodes and a sender whose
    ``outgoing`` row is 0, and a teleport with zero rows."""
    n = int(rng.integers(10, 40))
    pairs = np.vstack([[0, 1], rng.integers(0, n - 3, (int(rng.integers(1, 4 * n)), 2))])
    graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, num_classes, n),
                        num_classes, directed)  # the last three nodes stay isolated
    b0 = rng.random((n, num_classes))
    h = rng.random((num_classes, num_classes)) * (rng.random((num_classes,) * 2) < 0.7)
    h[:, 0] += 1e-3  # no zero row
    weights = sender_weights(graph, Beliefs(b0 / b0.sum(axis=1, keepdims=True), "prior"),
                             CompatibilityMatrix(h / h.sum(axis=1, keepdims=True),
                                                 "row_stochastic"))
    weights.outgoing[graph.arcs[rng.integers(graph.arc_count), 0]] = 0.0
    teleport = rng.random((n, num_classes))
    teleport[rng.random(n) < 0.15] = 0.0  # senders whose messages sum to zero
    return weights, Beliefs(teleport, "propagated")


class TestPropagateClpStar:
    def test_one_step_aggregates(self, worked_example):
        graph, compat, beliefs = worked_example
        weights = sender_weights(graph, beliefs, compat)
        assert weights.receiving is None
        agg = weights.incoming @ weights.outgoing
        np.testing.assert_allclose(agg[1], [0.56, 0.44], atol=1e-12)
        np.testing.assert_allclose(agg[2], [0.56, 0.44], atol=1e-12)
        np.testing.assert_allclose(agg[0], [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("num_classes", [1, 3, 8, 9, 12, 17])
    def test_bit_identical_to_the_arc_major_reference(self, num_classes, normalize, directed):
        # one class; sequential row sums; 8 accumulators with no leftover,
        # with leftovers, and with a second group of 8
        rng = np.random.default_rng(300 + num_classes + 50 * directed)
        for _ in range(4):
            weights, teleport = _sender_instance(rng, directed, num_classes)
            src, dst = weights.arcs.T
            n = weights.incoming.shape[0]
            expected = sparse.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(weights.incoming, part),
                                              getattr(expected, part))
            np.testing.assert_array_equal(_arc_weights(weights), weights.outgoing[src])
            for alpha in (0.1, 0.5, 0.9):
                config = PropagationConfig(alpha, message_normalization=normalize)
                _assert_same_run(weights, teleport, config, exact=True)
                _assert_same_run(weights, teleport, config)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_diverging_runs_log_alike(self, normalize):
        rng = np.random.default_rng(12)
        diverged = []
        for num_classes in (1, 2, 8):
            weights, teleport = _sender_instance(rng, False, num_classes)
            config = PropagationConfig(0.9, max_iters=500, tol=1e-300,
                                       message_normalization=normalize)
            diverged.append(_assert_same_run(weights, teleport, config))
        assert diverged[0] != normalize  # one class: rho(A^T) > 1/0.9 unless normalized

    def test_rejects_a_teleport_of_another_shape(self, worked_example):
        graph, compat, beliefs = worked_example
        teleport = Beliefs(np.full((3, 3), 1 / 3), "prior")
        with pytest.raises(ValueError, match="teleport"):
            propagate_clp_star(sender_weights(graph, beliefs, compat), teleport,
                               PropagationConfig(0.5))

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_point_matches_closed_form_per_class(self, seed):
        rng = np.random.default_rng(200 + seed)
        graph, b0, compat = random_propagation_instance(rng)
        weights = sender_weights(graph, b0, compat)
        alpha = max(
            a for a in DEFAULT_ALPHA_GRID
            if all(v.ok for v in convergence_check(weights, a))
        )
        teleport = Beliefs(rng.random(b0.values.shape), "propagated")
        out, _ = propagate_clp_star(
            weights, teleport, PropagationConfig(alpha, max_iters=20000, tol=1e-14)
        )
        oracle = closed_form_clp(weights, teleport, alpha)
        np.testing.assert_allclose(out.values, oracle, atol=1e-9)


def lp_teleport(y, train):
    """The one-hot labels on the training rows, zero rows elsewhere."""
    teleport = np.zeros_like(y)
    teleport[train] = y[train]
    return teleport


class TestPropagateLp:
    def test_two_cliques_adopt_their_seed_label(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = graph_from_edges(6, edges, [0, 0, 0, 1, 1, 1])
        teleport = lp_teleport(one_hot(g.labels, 2), [0, 3])
        config = PropagationConfig(0.9, max_iters=200, tol=1e-12)
        out, log = propagate_lp(lp_operator(g), teleport, config)
        np.testing.assert_array_equal(out.argmax(), g.labels)
        assert log[-1].residual < config.tol

    def test_alpha_zero_uniform_off_train(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)], [0, 0, 1, 1])
        y = one_hot(g.labels, 2)
        with pytest.warns(UserWarning, match="unreachable"):
            out, _ = propagate_lp(lp_operator(g), lp_teleport(y, [0]),
                                  PropagationConfig(0.0, max_iters=5))
        np.testing.assert_array_equal(out.values[0], y[0])
        np.testing.assert_allclose(out.values[1], [0.5, 0.5])

    def test_barbell_matches_dense_oracle(self):
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
        g = graph_from_edges(6, edges, [0, 0, 0, 1, 1, 1])
        teleport = lp_teleport(one_hot(g.labels, 2), [0, 5])
        alpha = 0.8
        out, _ = propagate_lp(
            lp_operator(g), teleport, PropagationConfig(alpha, max_iters=50000, tol=1e-14)
        )
        pattern = g.adjacency.maximum(g.adjacency.T)
        deg = np.asarray(pattern.sum(axis=1)).ravel()
        s = np.diag(deg ** -0.5) @ pattern.toarray() @ np.diag(deg ** -0.5)
        exact = np.linalg.solve(np.eye(6) - alpha * s, (1 - alpha) * teleport)
        np.testing.assert_allclose(out.values, exact, atol=1e-8)


    @pytest.mark.parametrize("directed", [False, True])
    def test_operator_is_the_diagonal_product_bit_for_bit(self, directed):
        """Built on the pattern, the operator has the data, indices and indptr
        of ``D^-1/2 (A | A^T) D^-1/2`` as two sparse products, isolated nodes
        (empty rows, degree 0) included."""
        rng = np.random.default_rng(90 + directed)
        for n in (12, 200):
            pairs = rng.integers(0, n - 4, (3 * n, 2))  # the last four nodes stay isolated
            graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, 3, n), 3, directed)
            pattern = graph.adjacency.maximum(graph.adjacency.T).tocsr()
            deg = np.asarray(pattern.sum(axis=1)).ravel()
            inv_sqrt = np.zeros_like(deg)
            np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
            d_half = sparse.diags(inv_sqrt)
            expected = (d_half @ pattern @ d_half).tocsr()
            got = lp_operator(graph)
            assert got.shape == expected.shape
            for part in ("data", "indices", "indptr"):
                got_part, expected_part = getattr(got, part), getattr(expected, part)
                assert got_part.dtype == expected_part.dtype
                assert got_part.tobytes() == expected_part.tobytes()


class TestClosedForm:
    """The oracle of ``conftest`` on operators whose fixed point is known."""

    @staticmethod
    def _column(values):
        return Beliefs(np.asarray(values, dtype=np.float64)[:, None], "propagated")

    def test_zero_matrix(self):
        x = closed_form_clp(weights_from_dense(np.zeros((3, 3))), self._column([1.0, 2.0, 3.0]),
                            alpha=0.25)
        np.testing.assert_allclose(x[:, 0], 0.75 * np.array([1.0, 2.0, 3.0]))

    def test_alpha_zero(self):
        rng = np.random.default_rng(1)
        d = rng.random(4)
        x = closed_form_clp(weights_from_dense(rng.random((4, 4))), self._column(d), alpha=0.0)
        np.testing.assert_allclose(x[:, 0], d)


def _bracket(m, threshold):
    """The bracket of :func:`spectral_radius` on one class whose operator is ``m``."""
    lower, upper = spectral_radius(weights_from_dense(m), threshold)
    assert lower.shape == upper.shape == (1,)
    return float(lower[0]), float(upper[0])


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert _bracket(np.zeros((4, 4)), 1.0) == (0.0, 0.0)

    def test_first_step_is_the_row_sum_bracket(self):
        """From x = 1, the bracket is the min and max row sum of |m|."""
        m = np.array([[0.2, 0.5, 0.0], [0.1, 0.0, 0.3], [0.6, 0.3, 0.1]])
        lower, upper = _bracket(m, math.inf)
        margin = 5 * 2.0**-52  # max row nnz 3, plus 2
        assert lower == pytest.approx(0.4 * (1 - margin), rel=1e-15)
        assert upper == pytest.approx(1.0 * (1 + margin), rel=1e-15)
        assert lower < 0.4 and upper > 1.0

    def test_margin_counts_the_stored_arcs_between_live_nodes(self):
        """The margin is ``(d + 2) * 2**-52``, with d the most stored arcs that
        a live node receives from live nodes, explicit zeros included.  On the
        3-cycle 0 -> 1 -> 2 -> 0 every ratio is exactly 1, so the bounds are 1
        -/+ the margin exactly.  Node 0 also stores zero-weight arcs from 0 and
        1 and an arc from node 3, whose row is zero, so d = 3."""
        rows, cols = [1, 2, 0, 0, 0, 0], [0, 1, 2, 0, 1, 3]
        m = sparse.csr_matrix(([1.0, 1.0, 1.0, 0.0, 0.0, 0.5], (rows, cols)), shape=(4, 4))
        assert m.nnz == 6
        assert _bracket(m, math.inf) == (1 - 5 * 2.0**-52, 1 + 5 * 2.0**-52)

    def test_diagonal(self):
        # reducible: the row of the 1.0 block keeps the lower bound at 1
        lower, upper = _bracket(np.diag([2.0, 1.0]), 1.5)
        assert lower == pytest.approx(1.0, rel=1e-15) and lower < 1.0
        assert upper == pytest.approx(2.0, rel=1e-15) and upper > 2.0
        assert _bracket(np.diag([2.0, 1.0]), 2.5)[1] < 2.5

    def test_permutation_pair(self):
        # every ratio is exactly 1; only the rounding margin opens the bracket
        lower, upper = _bracket(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        assert lower < 1.0 < upper
        assert upper - lower < 1e-14

    def test_negative_entry_gives_no_lower_bound(self):
        m = np.array([[0.5, 0.4], [-1e-12, 0.5]])
        lower, upper = _bracket(m, 0.5)
        assert lower == 0.0
        assert upper >= np.max(np.abs(np.linalg.eigvals(m)))

    def test_negative_factor_gives_its_class_no_lower_bound(self):
        """A negative entry of G or R takes the lower bound of its class only."""
        a = sparse.csr_matrix(np.full((3, 3), 0.5))  # rho 1.5 in every class
        for sender in (True, False):
            g, r = np.ones((3, 3)), np.ones((3, 3))
            (g if sender else r)[2, 1] = -1.0  # |W_1| = W_0
            lower, upper = spectral_radius(NodeWeights(a, g, r), 1.2)
            assert lower[1] == 0.0 and upper[1] > 1.2
            assert lower[0] == lower[2] > 1.2

    def test_random_nonnegative_brackets_dense_eigensolver(self):
        """Positive matrices are primitive, so the bracket closes on rho, to
        within what the 1e-12 shift of x allows; a threshold at rho itself is
        never excluded and all steps run."""
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            m = rng.random((n, n)) * rng.random()
            expected = np.max(np.abs(np.linalg.eigvals(m)))
            lower, upper = _bracket(m, expected)
            assert lower <= expected * (1 + 1e-12) and upper >= expected * (1 - 1e-12)
            assert upper - lower <= 1e-10 * expected

    def test_bracket_excludes_a_threshold_on_either_side(self):
        m = np.full((3, 3), 0.25)  # rho 0.75, every row sum 0.75
        assert _bracket(m, 0.9)[1] < 0.9
        assert _bracket(m, 0.6)[0] > 0.6

    def test_classes_freeze_at_their_own_step(self):
        """Every class is bracketed in one call; each keeps the bounds of the
        step at which they excluded the threshold, as if bracketed alone."""
        rng = np.random.default_rng(6)
        m = rng.random((8, 8)) * (rng.random((8, 8)) < 0.5)
        scales = np.array([0.2, 1.0, 3.0, 0.0])
        weights = NodeWeights(sparse.csr_matrix(m), np.ones((8, 4)), np.ones((8, 1)) * scales)
        rho = float(np.max(np.abs(np.linalg.eigvals(m))))
        lower, upper = spectral_radius(weights, 1.1 * rho)
        for k, scale in enumerate(scales):
            assert (lower[k], upper[k]) == pytest.approx(_bracket(scale * m, 1.1 * rho),
                                                        rel=1e-13)

    def test_non_square(self):
        with pytest.raises(ValueError, match="disagree"):
            weights_from_dense(np.ones((2, 3)))

    def test_isolated_node_leaves_the_lower_bound(self):
        """A zero row only adds the eigenvalue 0, so it is dropped with its
        column: a positive block with rho 1.8 beside an isolated node is
        divergent at alpha 0.8, where the zero row held the lower bound at 0."""
        m = np.zeros((4, 4))
        m[:3, :3] = 0.6  # rho 1.8, every row sum 1.8
        lower, upper = _bracket(m, 1 / 0.8)
        assert 1.8 * (1 - 1e-14) < lower < 1.8 < upper < 1.8 * (1 + 1e-14)
        (verdict,) = convergence_check(weights_from_dense(m), 0.8)
        assert verdict.status == "divergent"

    def test_zero_rows_are_dropped_until_none_is_left(self):
        # row 3 reads only node 4, whose row is zero; row 5 stores an explicit zero
        rows, cols = [*np.repeat(range(3), 3), 3, 5], [*np.tile(range(3), 3), 4, 0]
        m = sparse.csr_matrix(([0.6] * 9 + [0.5, 0.0], (rows, cols)), shape=(6, 6))
        assert m.nnz == 11
        lower, upper = _bracket(m, 1 / 0.8)
        assert 1.25 < lower < 1.8 < upper
        nilpotent = sparse.csr_matrix(np.triu(np.full((5, 5), 0.9), 1))
        assert _bracket(nilpotent, 0.5) == (0.0, 0.0)


# Kinds of matrix for the bracket's property test.  Their blocks are positive
# or irreducible, so every root of largest modulus is simple and the dense
# eigensolver gives it to near machine precision.
MATRIX_KINDS = ("irreducible", "reducible", "permutation", "bipartite", "zero", "slack")


def _kind_matrix(kind, n, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    split = int(rng.integers(1, n))
    if kind in ("irreducible", "slack"):
        m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 1.0))
        m[np.arange(n), np.roll(np.arange(n), 1)] = rng.uniform(0.05, 1.0, n)  # a Hamilton cycle
        if kind == "slack":
            m[rng.integers(n), rng.integers(n)] = -1e-12
    elif kind == "reducible":  # block triangular, with a node that no arc enters
        m = rng.uniform(0.05, 1.0, (n, n))
        m[split:, :split] = 0.0
        m[rng.integers(n)] = 0.0
    elif kind == "permutation":
        m[np.arange(n), rng.permutation(n)] = rng.uniform(0.05, 1.0, n)
    elif kind == "bipartite":
        m[:split, split:] = rng.uniform(0.05, 1.0, (split, n - split))
        m[split:, :split] = rng.uniform(0.05, 1.0, (n - split, split))
    return m


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(MATRIX_KINDS), n=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from(DEFAULT_ALPHA_GRID))
def test_bracket_proves_what_the_dense_radius_says(kind, n, seed, alpha):
    m = _kind_matrix(kind, n, seed)
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    slack = 1e-10 * rho + 1e-15  # the dense eigensolver's own rounding
    threshold = 1.0 / alpha
    for target in (rho, threshold):  # all steps, and the certificate's early stop
        lower, upper = _bracket(m, target)
        assert lower <= rho + slack and rho - slack <= upper, (lower, rho, upper)
    (verdict,) = convergence_check(weights_from_dense(m), alpha)
    if verdict.ok:
        assert rho < threshold + slack
    if verdict.status == "divergent":
        assert rho > threshold - slack
        assert kind != "slack"
    assert verdict.status in ("certified", "convergent", "divergent", "unproved")


class TestConvergenceCheck:
    def test_zero_slice_certified(self):
        verdicts = convergence_check(weights_from_dense(sparse.csr_matrix((3, 3))), alpha=0.99)
        assert verdicts[0].status == "certified"

    def test_small_norm_certified_without_eigensolve(self):
        m = np.array([[0.0, 0.45], [0.45, 0.0]])
        verdict = convergence_check(weights_from_dense(m), alpha=0.5)[0]
        assert verdict.status == "certified"
        assert verdict.frobenius == pytest.approx(0.45 * np.sqrt(2))
        assert verdict.lower is None and verdict.upper is None

    def test_divergent_verdict_and_growing_residuals(self):
        awf = scaled_random_weights(12, rho_target=1.5, seed=3)
        verdict = convergence_check(awf, alpha=0.8)[0]
        assert verdict.status == "divergent"
        assert 1 / 0.8 < verdict.lower <= 1.5 <= verdict.upper
        teleport = Beliefs(np.ones((12, 1)), "prior")
        with pytest.raises(DivergenceError) as err:
            propagate_clp(awf, teleport, PropagationConfig(0.8, max_iters=300, tol=1e-300))
        residuals = [rec.residual for rec in err.value.log]
        assert residuals[-1] > residuals[max(0, len(residuals) - 8)]

    def test_spectral_radius_runs_at_most_once_per_check(self, monkeypatch):
        """Within one call, one bracket covers exactly the classes that the
        Frobenius norm does not certify, and none runs when it certifies all."""
        rng = np.random.default_rng(5)
        base = rng.random((12, 12))
        np.fill_diagonal(base, 0.0)
        base /= np.max(np.abs(np.linalg.eigvals(base)))
        radii = np.array([0.3, 0.95, 1.5])  # class k is base * radii[k]
        weights = NodeWeights(sparse.csr_matrix(base), np.ones((12, 3)), np.ones((12, 1)) * radii)

        calls = []
        real = propagation.spectral_radius

        def counting(w, *args, **kwargs):
            calls.append(w.num_classes)
            return real(w, *args, **kwargs)

        monkeypatch.setattr(propagation, "spectral_radius", counting)
        statuses, counts = set(), set()
        for alpha in DEFAULT_ALPHA_GRID:
            calls.clear()
            verdicts = convergence_check(weights, alpha)
            bracketed = sum(v.upper is not None for v in verdicts)
            assert calls == ([bracketed] if bracketed else [])
            statuses |= {v.status for v in verdicts}
            counts.add(bracketed)
        assert {"certified", "convergent", "divergent"} <= statuses
        assert 0 in counts and len(counts) > 2

    def test_norm_chain(self):
        rng = np.random.default_rng(15)
        graph, b0, compat = random_propagation_instance(rng, max_nodes=30)
        awf = edge_weights(graph, b0, compat)
        verdicts = convergence_check(awf, 0.5)
        for m, verdict in zip(class_slices(awf), verdicts, strict=True):
            rho = np.max(np.abs(np.linalg.eigvals(m)))  # at most 30 nodes
            frob = np.sqrt(np.sum(m ** 2))
            norm1 = np.abs(m).sum()
            assert verdict.frobenius == pytest.approx(frob, rel=1e-14)
            assert rho <= frob + 1e-12
            assert frob <= norm1 + 1e-12


def _bipartite_instance(rng, num_classes):
    """CLP factors on a random undirected bipartite graph: every class
    operator has a periodic pattern."""
    n = int(rng.integers(10, 30))
    split = n // 2
    pairs = np.column_stack([rng.integers(0, split, 3 * n), rng.integers(split, n, 3 * n)])
    graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, num_classes, n),
                        num_classes, directed=False)
    incoming = graph.adjacency.T.tocsr()
    incoming.data = rng.uniform(0.2, 1.0, incoming.nnz)
    return NodeWeights(incoming, rng.random((n, num_classes)), rng.random((n, num_classes)))


def _certificate_instances():
    """The degenerate family (isolated nodes, zero rows of G and R, zero-weight
    arcs, directed graphs), CLP and CLP*, at 1 to 17 classes and with A^T
    scaled by 4 for divergent classes; bipartite patterns; no arcs; a negative
    arc weight; and one dense operator of known radius in every class."""
    rng = np.random.default_rng(9)
    for directed in (False, True):
        for num_classes in (None, 1, 8, 17):
            for receiving in (True, False):
                weights, _ = _degenerate_instance(rng, directed, num_classes, receiving)
                for scale in (1.0, 4.0):
                    yield NodeWeights(weights.incoming * scale, weights.outgoing,
                                      weights.receiving)
    for num_classes in (1, 3):
        for scale in (1.0, 3.0):
            weights = _bipartite_instance(rng, num_classes)
            yield NodeWeights(weights.incoming * scale, weights.outgoing, weights.receiving)
    yield NodeWeights(sparse.csr_matrix((6, 6)), rng.random((6, 3)), rng.random((6, 3)))
    weights, _ = _degenerate_instance(rng, False, 4)
    negative = weights.incoming * 4.0
    negative.data[np.flatnonzero(negative.data)[0]] = -0.5
    yield NodeWeights(negative, weights.outgoing, weights.receiving)
    for seed, rho in enumerate((0.9, 1.3)):
        yield scaled_random_weights(14, rho, seed, 3)


def test_certificate_matches_the_slice_reference():
    """The certificate on the factors says what the class-by-class bracket on
    dense slices (``conftest.slice_verdicts``) says: the same words, and the
    norms and bounds within rtol 1e-12."""
    statuses = set()
    for weights in _certificate_instances():
        for alpha in DEFAULT_ALPHA_GRID:
            got = convergence_check(weights, alpha)
            expected = slice_verdicts(weights, alpha)
            assert [v.status for v in got] == [e[0] for e in expected], alpha
            for verdict, (_, frobenius, lower, upper) in zip(got, expected):
                assert verdict.frobenius == pytest.approx(frobenius, rel=1e-12)
                assert (verdict.lower is None) == (lower is None)
                if lower is not None:
                    np.testing.assert_allclose([verdict.lower, verdict.upper], [lower, upper],
                                               rtol=1e-12, atol=0)
            statuses |= {v.status for v in got}
    assert statuses == {"certified", "convergent", "divergent", "unproved"}
