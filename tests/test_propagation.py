import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

import clprop.propagation as propagation
from clprop.compatibility import Beliefs, CompatibilityMatrix
from clprop.graph import build_graph, one_hot
from clprop.pipeline import DEFAULT_ALPHA_GRID
from clprop.propagation import (
    DivergenceError,
    EdgeWeightTensor,
    PropagationConfig,
    SenderWeights,
    SingularSystemError,
    closed_form_clp,
    compute_messages,
    convergence_check,
    edge_weights,
    lp_operator,
    propagate_clp,
    propagate_clp_star,
    propagate_lp,
    spectral_radius,
)

from conftest import graph_from_edges, random_propagation_instance, tensor_from_dense


def scaled_random_tensor(n, rho_target, seed, num_classes=1):
    """Single-pattern tensor whose first slice has a known spectral radius.

    The dense eigensolver provides the ground-truth radius of the base
    matrix; scaling is exact because rho is homogeneous.
    """
    rng = np.random.default_rng(seed)
    base = rng.random((n, n))
    np.fill_diagonal(base, 0.0)
    rho0 = np.max(np.abs(np.linalg.eigvals(base)))
    scaled = base * (rho_target / rho0)
    assert scaled.max() <= 1.0
    return tensor_from_dense([scaled] * num_classes)


def _owner(array):
    """The array that owns the memory ``array`` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _held_arrays(obj):
    """Every ndarray ``obj`` holds, through attributes, sparse matrices and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item)
    elif isinstance(obj, EdgeWeightTensor) or sparse.issparse(obj):
        for value in vars(obj).values():
            yield from _held_arrays(value)


class TestEdgeWeights:
    def test_worked_instance_values(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        assert awf.arcs.tolist() == [[0, 1], [0, 2]]
        np.testing.assert_allclose(awf.weights[0], [0.112, 0.352], atol=1e-15)
        np.testing.assert_allclose(awf.weights[1], [0.392, 0.132], atol=1e-15)

    def test_identity_compat_one_hot_is_basis_vector(self):
        g = graph_from_edges(2, [(0, 1)], [1, 1], num_classes=3, directed=True)
        b = Beliefs(one_hot([1, 1], 3), "prior")
        h = CompatibilityMatrix(np.eye(3), "row_stochastic")
        awf = edge_weights(g, b, h)
        np.testing.assert_array_equal(awf.weights[0], [0, 1, 0])

    def test_homophily_degeneration_support(self):
        # identity compatibility + one-hot priors on a homophilous graph:
        # every arc weight vector is supported only on the shared class
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0, 0, 0, 1, 1, 1])
        b = Beliefs(one_hot(g.labels, 2), "prior")
        h = CompatibilityMatrix(np.eye(2), "row_stochastic")
        awf = edge_weights(g, b, h)
        for (src, _), w in zip(awf.arcs, awf.weights):
            expected = np.zeros(2)
            expected[g.labels[src]] = 1.0
            np.testing.assert_array_equal(w, expected)

    def test_slice_pattern_equals_arc_set_when_undirected(self, path4):
        b = Beliefs(np.full((4, 2), 0.5), "prior")
        h = CompatibilityMatrix(np.full((2, 2), 0.5), "doubly_stochastic", 0.0)
        awf = edge_weights(path4, b, h)
        for slice_k in awf.per_class:
            coo = slice_k.tocoo()
            pattern = set(zip(coo.row.tolist(), coo.col.tolist()))
            assert pattern == set(map(tuple, path4.arcs.tolist()))

    def test_dimension_mismatch(self, path4):
        b = Beliefs(np.full((3, 2), 0.5), "prior")
        h = CompatibilityMatrix(np.eye(2), "row_stochastic")
        with pytest.raises(ValueError):
            edge_weights(path4, b, h)


class TestEdgeWeightTensor:
    @pytest.mark.parametrize("num_classes", [1, 3, 17])
    @pytest.mark.parametrize("arcs", ["undirected", "directed", "none"])
    def test_weights_are_stored_once_in_the_operator(self, arcs, num_classes):
        rng = np.random.default_rng(num_classes)
        n = 12
        pairs = rng.integers(0, n, (0 if arcs == "none" else 30, 2))
        graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, num_classes, n),
                            num_classes, arcs == "directed")
        weights = rng.random((graph.arc_count, num_classes))
        awf = EdgeWeightTensor(graph.arcs, weights, n)
        slices = awf.per_class  # cached on first access, so the tensor holds them below
        op = awf.operator
        assert awf.class_weights.shape == (num_classes, graph.arc_count)
        assert _owner(awf.class_weights) is _owner(op.data)
        assert _owner(awf.senders) is _owner(op.indices)
        for array in (awf.class_weights, awf.senders, op.data, op.indices, op.indptr):
            assert not array.flags.writeable
        for k, slice_k in enumerate(slices):
            assert _owner(slice_k.data) is _owner(awf.class_weights)
            np.testing.assert_array_equal(slice_k.data, awf.class_weights[k])
        if graph.arc_count:
            assert np.shares_memory(awf.class_weights, op.data)
            assert np.shares_memory(awf.senders, op.indices)
            assert all(np.shares_memory(s.data, awf.class_weights) for s in slices)
        # the float buffer of C*m entries is op.data alone, and no index array is held twice
        stores = {id(_owner(a)) for a in (awf.arcs, op.data, op.indices, op.indptr)}
        assert {id(_owner(a)) for a in _held_arrays(awf)} == stores
        # arcs, weights, class_weights and messages share one order: stable by receiver
        order = np.argsort(graph.arcs[:, 1], kind="stable")
        np.testing.assert_array_equal(awf.arcs, graph.arcs[order])
        np.testing.assert_array_equal(awf.weights, weights[order])
        np.testing.assert_array_equal(awf.class_weights.T, awf.weights)
        np.testing.assert_array_equal(awf.senders, awf.arcs[:, 0])
        beliefs = Beliefs(rng.random((n, num_classes)), "propagated")
        np.testing.assert_array_equal(compute_messages(awf, beliefs),
                                      awf.weights * beliefs.values[awf.arcs[:, 0]])

    def test_construction_peak_memory(self):
        """The weights are gathered class by class into the operator's data.
        One construction peaks at 3.36 MB (numpy 2.4); a gather of the whole
        (arcs x classes) array in arc order would add 1.3 MB and fail."""
        rng = np.random.default_rng(0)
        n, m, c = 2000, 20000, 10
        arcs = rng.integers(0, n, (m, 2))
        weights = rng.random((m, c))
        tracemalloc.start()
        try:
            awf = EdgeWeightTensor(arcs, weights, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert awf.operator.nnz == m * c
        assert peak < 3.6e6, f"peak {peak / 1e6:.2f} MB"

    def test_rejects_out_of_range_weights(self):
        with pytest.raises(ValueError, match="0, 1"):
            EdgeWeightTensor(
                np.array([[0, 1]]), np.array([[1.5]]), node_count=2
            )


class TestComputeMessages:
    def test_worked_instance_normalized(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        msgs = compute_messages(awf, beliefs, normalize=True)
        np.testing.assert_allclose(msgs[0], [0.175, 0.825], atol=1e-12)
        np.testing.assert_allclose(msgs[1], [0.66440678, 0.33559322], atol=1e-8)

    def test_worked_instance_raw(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        msgs = compute_messages(awf, beliefs, normalize=False)
        np.testing.assert_allclose(msgs[0], [0.0448, 0.2112], atol=1e-15)
        normalized = msgs[0] / msgs[0].sum()
        np.testing.assert_allclose(normalized, [0.175, 0.825], atol=1e-12)

    def test_zero_belief_row_gives_zero_message(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        silent = Beliefs(np.zeros((3, 2)), "propagated")
        msgs = compute_messages(awf, silent, normalize=True)
        np.testing.assert_array_equal(msgs, np.zeros((2, 2)))


class TestPropagateClp:
    def test_alpha_zero_returns_teleport(self, worked_example):
        graph, compat, beliefs = worked_example
        awf = edge_weights(graph, beliefs, compat)
        out, log = propagate_clp(awf, beliefs, PropagationConfig(alpha=0.0, max_iters=5))
        np.testing.assert_array_equal(out.values, beliefs.values)
        assert log[-1].residual == 0.0

    def test_zero_weights_fixed_point(self):
        awf = tensor_from_dense([np.zeros((4, 4))] * 2)
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
            if not all(v.ok for v in convergence_check(awf.per_class, alpha)):
                continue
            teleport = Beliefs(
                np.full((graph.node_count, b0.num_classes), 1.0 / b0.num_classes),
                "base_prediction",
            )
            out, _ = propagate_clp(
                awf, teleport, PropagationConfig(alpha, max_iters=20000, tol=1e-14)
            )
            for k in range(b0.num_classes):
                exact = closed_form_clp(awf.per_class[k], teleport.values[:, k], alpha, k)
                assert np.abs(exact - out.values[:, k]).max() < 1e-8

    def test_divergence_detected(self):
        awf = scaled_random_tensor(16, rho_target=1.5, seed=0)
        teleport = Beliefs(np.ones((16, 1)), "prior")
        with pytest.raises(DivergenceError):
            propagate_clp(awf, teleport, PropagationConfig(alpha=0.8, max_iters=500, tol=1e-300))

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(21)
        graph, b0, compat = random_propagation_instance(rng, max_nodes=20)
        awf = edge_weights(graph, b0, compat)
        alpha, tol = 0.5, 1e-12
        teleport = b0
        out, _ = propagate_clp(awf, teleport, PropagationConfig(alpha, max_iters=30000, tol=tol))
        reproduced = np.column_stack(
            [
                (1 - alpha) * teleport.values[:, k] + alpha * (awf.per_class[k] @ out.values[:, k])
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


def _reference_step(awf, normalize):
    """The aggregation step in its original, arc-major form, built from the
    arcs and weights alone: normalized messages divided through a boolean mask
    and summed by the receiver incidence, unnormalized beliefs aggregated
    class by class through receiver-row slices built from COO."""
    n, m = awf.node_count, awf.arcs.shape[0]
    src, dst = awf.arcs[:, 0], awf.arcs[:, 1]
    weights = awf.weights
    if not normalize:
        slices = [
            sparse.csr_matrix((weights[:, k], (dst, src)), shape=(n, n))
            for k in range(awf.num_classes)
        ]
        return lambda values: np.column_stack(
            [slice_k @ values[:, k] for k, slice_k in enumerate(slices)]
        )
    incidence = sparse.csr_matrix((np.ones(m), (dst, np.arange(m))), shape=(n, m))

    def step(values):
        msgs = weights * values[src]
        sums = msgs.sum(axis=1)
        pos = sums > 0
        msgs[pos] /= sums[pos, None]
        return incidence @ msgs

    return step


def _degenerate_instance(rng, directed, num_classes=None):
    """Random arcs plus isolated nodes, zero-weight arcs and silent senders;
    2 to 5 classes unless ``num_classes`` is given."""
    n = int(rng.integers(10, 40))
    c = int(rng.integers(2, 6)) if num_classes is None else num_classes
    active = n - 3  # the last three nodes stay isolated
    pairs = rng.integers(0, active, (int(rng.integers(1, 4 * active)), 2))
    graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, c, n), c, directed)
    weights = rng.random((graph.arc_count, c)) * rng.uniform(0.05, 0.5)
    weights[rng.random(weights.shape) < 0.2] = 0.0
    weights[rng.random(graph.arc_count) < 0.1] = 0.0  # arcs that carry nothing
    teleport = rng.random((n, c))
    teleport[rng.random(teleport.shape) < 0.2] = 0.0
    teleport[rng.random(n) < 0.15] = 0.0  # senders whose messages sum to zero
    awf = EdgeWeightTensor(graph.arcs.copy(), weights, n)
    return awf, Beliefs(teleport, "propagated")


def _reference_run(awf, teleport, config):
    return propagation._iterate(
        _reference_step(awf, config.message_normalization), teleport.values, config
    )


def _assert_same_run(awf, teleport, config):
    """propagate_clp matches the reference step bit for bit, diverging or not."""
    try:
        values, log = _reference_run(awf, teleport, config)
    except DivergenceError as expected:
        with pytest.raises(DivergenceError) as err:
            propagate_clp(awf, teleport, config)
        assert err.value.log == expected.log
        return
    out, got_log = propagate_clp(awf, teleport, config)
    np.testing.assert_array_equal(out.values, values)
    assert got_log == log


class TestBitIdentityWithReferenceStep:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_random_degenerate_graphs(self, directed, normalize):
        rng = np.random.default_rng(41 + directed)
        for _ in range(6):
            awf, teleport = _degenerate_instance(rng, directed)
            for alpha in (0.1, 0.5, 0.9):
                _assert_same_run(
                    awf, teleport, PropagationConfig(alpha, message_normalization=normalize)
                )

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("num_classes", [1, 8, 9, 10, 16, 17])
    def test_class_counts_of_every_summation_branch(self, num_classes, normalize, directed):
        # one class; 8 accumulators with no leftover, with leftovers, and
        # with a second group of 8
        rng = np.random.default_rng(num_classes + 50 * directed)
        for _ in range(3):
            awf, teleport = _degenerate_instance(rng, directed, num_classes)
            for alpha in (0.1, 0.5, 0.9):
                _assert_same_run(
                    awf, teleport, PropagationConfig(alpha, message_normalization=normalize)
                )

    @pytest.mark.parametrize("normalize", [False, True])
    def test_slack_weights_give_nonpositive_message_sums(self, normalize):
        # weights may dip to -1e-12: arcs whose weights are all within that
        # slack send rows that sum below zero with nonzero entries, for any
        # positive beliefs, and must be left undivided like zero-sum rows
        rng = np.random.default_rng(7)
        n, c = 30, 3
        graph = build_graph(n, rng.integers(0, n, (80, 2)), np.zeros((n, 1)),
                            rng.integers(0, c, n), c)
        weights = rng.random((graph.arc_count, c)) * 0.3
        slack = rng.random(graph.arc_count) < 0.3
        weights[slack] = [-1e-12, 0.0, 0.0]
        weights[slack & (rng.random(graph.arc_count) < 0.5)] = [-1e-12, -5e-13, 0.0]
        awf = EdgeWeightTensor(graph.arcs.copy(), weights, n)
        teleport = Beliefs(rng.uniform(0.5, 1.0, (n, c)), "propagated")
        msgs = compute_messages(awf, teleport)
        assert ((msgs.sum(axis=1) < 0) & (msgs != 0).any(axis=1)).sum() >= 4
        for alpha in (0.1, 0.5, 0.9):
            _assert_same_run(
                awf, teleport, PropagationConfig(alpha, message_normalization=normalize)
            )

    @pytest.mark.parametrize("normalize", [False, True])
    def test_empty_arc_set(self, normalize):
        awf = EdgeWeightTensor(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3)), 5)
        teleport = Beliefs(np.random.default_rng(2).random((5, 3)), "propagated")
        _assert_same_run(awf, teleport, PropagationConfig(0.5, message_normalization=normalize))

    def test_diverging_run_logs_match(self):
        awf = scaled_random_tensor(16, rho_target=1.5, seed=0, num_classes=2)
        teleport = Beliefs(np.ones((16, 2)), "propagated")
        config = PropagationConfig(alpha=0.8, max_iters=500, tol=1e-300)
        with pytest.raises(DivergenceError) as expected:
            _reference_run(awf, teleport, config)
        with pytest.raises(DivergenceError) as err:
            propagate_clp(awf, teleport, config)
        assert len(err.value.log) == len(expected.value.log)
        assert err.value.log[-1].residual == expected.value.log[-1].residual


CLASS_COUNTS = [*range(1, 41), 127, 128, 129, 300]


class TestClassSums:
    """``_class_sums`` must repeat numpy's order of additions for
    ``ndarray.sum(axis=1)`` exactly: the normalized step divides by it."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_numpy_row_sums(self, data):
        c = data.draw(st.sampled_from(CLASS_COUNTS), label="classes")
        m = data.draw(st.integers(0, 6), label="arcs")
        # message entries: products of weights in [-1e-12, 1] and beliefs
        entry = st.floats(0.0, 1.0) | st.sampled_from([0.0, -1e-12, -5e-13])
        msgs = data.draw(hnp.arrays(np.float64, (m, c), elements=entry), label="messages")
        msgs[data.draw(hnp.arrays(bool, m), label="zero rows")] = 0.0
        np.testing.assert_array_equal(
            propagation._class_sums(np.ascontiguousarray(msgs.T)), msgs.sum(axis=1)
        )

    @pytest.mark.parametrize("c", CLASS_COUNTS)
    def test_equals_numpy_on_spread_magnitudes(self, c):
        # entries over 16 decades make every order of addition visible in the
        # last bits: from 8 classes on, a plain sequential sum differs
        rng = np.random.default_rng(c)
        msgs = rng.random((400, c)) * 10.0 ** rng.integers(-8, 8, (400, c))
        rows = np.ascontiguousarray(msgs.T)
        np.testing.assert_array_equal(propagation._class_sums(rows), msgs.sum(axis=1))
        sequential = np.zeros(400)
        for row in rows:
            sequential += row
        assert (sequential != msgs.sum(axis=1)).any() == (c >= 8)


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

    def test_certificate_on_views_matches_coo_slices(self):
        rng = np.random.default_rng(9)
        tensors = [scaled_random_tensor(14, rho, seed, 3) for seed, rho in enumerate((0.9, 1.3))]
        for directed in (False, True):
            awf, _ = _degenerate_instance(rng, directed, 9)
            tensors.append(EdgeWeightTensor(awf.arcs, awf.weights * 2.0, awf.node_count))
        statuses = set()
        for awf in tensors:
            n = awf.node_count
            src, dst = awf.arcs[:, 0], awf.arcs[:, 1]
            coo = [sparse.csr_matrix((awf.weights[:, k], (dst, src)), shape=(n, n))
                   for k in range(awf.num_classes)]
            for slice_k in awf.per_class:  # views of the tensor, not copies
                assert np.shares_memory(slice_k.data, awf.class_weights)
            for alpha in DEFAULT_ALPHA_GRID:
                verdicts = convergence_check(awf.per_class, alpha)
                assert verdicts == convergence_check(coo, alpha)
                statuses |= {v.status for v in verdicts}
        assert {"certified", "convergent", "divergent"} <= statuses


def _sender_instance(rng, directed, num_classes):
    """CLP* weights on a random graph with isolated nodes and a sender whose
    ``outgoing`` row is 0, the edge tensor of the same weights, and a
    teleport with zero rows."""
    n = int(rng.integers(10, 40))
    pairs = np.vstack([[0, 1], rng.integers(0, n - 3, (int(rng.integers(1, 4 * n)), 2))])
    graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, num_classes, n),
                        num_classes, directed)  # the last three nodes stay isolated
    b0 = rng.random((n, num_classes))
    h = rng.random((num_classes, num_classes)) * (rng.random((num_classes,) * 2) < 0.7)
    h[:, 0] += 1e-3  # no zero row
    weights = SenderWeights(graph, Beliefs(b0 / b0.sum(axis=1, keepdims=True), "prior"),
                            CompatibilityMatrix(h / h.sum(axis=1, keepdims=True), "row_stochastic"))
    weights.outgoing[graph.arcs[rng.integers(graph.arc_count), 0]] = 0.0
    tensor = EdgeWeightTensor(graph.arcs, weights.outgoing[graph.arcs[:, 0]], n)
    teleport = rng.random((n, num_classes))
    teleport[rng.random(n) < 0.15] = 0.0  # senders whose messages sum to zero
    return weights, tensor, Beliefs(teleport, "propagated")


def _assert_same_clp_star_run(weights, tensor, teleport, config):
    """propagate_clp_star matches propagate_clp on the tensor of the same
    weights bit for bit, diverging or not; returns whether it diverged."""
    try:
        expected, expected_log = propagate_clp(tensor, teleport, config)
    except DivergenceError as expected_err:
        with pytest.raises(DivergenceError) as err:
            propagate_clp_star(weights, teleport, config)
        assert err.value.log == expected_err.log
        return True
    out, log = propagate_clp_star(weights, teleport, config)
    np.testing.assert_array_equal(out.values, expected.values)
    assert log == expected_log
    return False


class TestPropagateClpStar:
    def test_one_step_aggregates(self, worked_example):
        graph, compat, beliefs = worked_example
        weights = SenderWeights(graph, beliefs, compat)
        agg = weights.incoming @ weights.outgoing
        np.testing.assert_allclose(agg[1], [0.56, 0.44], atol=1e-12)
        np.testing.assert_allclose(agg[2], [0.56, 0.44], atol=1e-12)
        np.testing.assert_allclose(agg[0], [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("num_classes", [1, 3, 8, 9, 12, 17])
    def test_bit_identical_to_the_sender_only_tensor(self, num_classes, normalize, directed):
        # one class; sequential class sums; 8 accumulators with no leftover,
        # with leftovers, and with a second group of 8
        rng = np.random.default_rng(300 + num_classes + 50 * directed)
        for _ in range(4):
            weights, tensor, teleport = _sender_instance(rng, directed, num_classes)
            for got, expected in zip(weights.per_class, tensor.per_class, strict=True):
                for part in ("data", "indices", "indptr"):
                    np.testing.assert_array_equal(getattr(got, part), getattr(expected, part))
            for alpha in (0.1, 0.5, 0.9):
                config = PropagationConfig(alpha, message_normalization=normalize)
                _assert_same_clp_star_run(weights, tensor, teleport, config)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_diverging_runs_log_alike(self, normalize):
        rng = np.random.default_rng(12)
        diverged = []
        for num_classes in (1, 2, 8):
            weights, tensor, teleport = _sender_instance(rng, False, num_classes)
            config = PropagationConfig(0.9, max_iters=500, tol=1e-300,
                                       message_normalization=normalize)
            diverged.append(_assert_same_clp_star_run(weights, tensor, teleport, config))
        assert diverged[0] != normalize  # one class: rho(A^T) > 1/0.9 unless normalized

    def test_rejects_a_teleport_of_another_shape(self, worked_example):
        graph, compat, beliefs = worked_example
        teleport = Beliefs(np.full((3, 3), 1 / 3), "prior")
        with pytest.raises(ValueError, match="teleport"):
            propagate_clp_star(SenderWeights(graph, beliefs, compat), teleport,
                               PropagationConfig(0.5))

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_point_matches_closed_form_per_class(self, seed):
        rng = np.random.default_rng(200 + seed)
        graph, b0, compat = random_propagation_instance(rng)
        weights = SenderWeights(graph, b0, compat)
        alpha = max(
            a for a in DEFAULT_ALPHA_GRID
            if all(v.ok for v in convergence_check(weights.per_class, a))
        )
        teleport = Beliefs(rng.random(b0.values.shape), "propagated")
        out, _ = propagate_clp_star(
            weights, teleport, PropagationConfig(alpha, max_iters=20000, tol=1e-14)
        )
        for k, slice_k in enumerate(weights.per_class):
            oracle = closed_form_clp(slice_k, teleport.values[:, k], alpha)
            np.testing.assert_allclose(out.values[:, k], oracle, atol=1e-9)


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


class TestClosedForm:
    def test_zero_matrix(self):
        x = closed_form_clp(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]), alpha=0.25)
        np.testing.assert_allclose(x, 0.75 * np.array([1.0, 2.0, 3.0]))

    def test_alpha_zero(self):
        rng = np.random.default_rng(1)
        d = rng.random(4)
        x = closed_form_clp(rng.random((4, 4)), d, alpha=0.0)
        np.testing.assert_allclose(x, d)

    def test_singular_system_names_class(self):
        w = np.eye(2) * 2.0  # I - 0.5 * 2I = 0
        with pytest.raises(SingularSystemError, match="class 1"):
            closed_form_clp(w, np.ones(2), alpha=0.5, class_index=1)

    def test_size_guard(self):
        big = sparse.csr_matrix((6000, 6000))
        with pytest.raises(ValueError, match="5000"):
            closed_form_clp(big, np.zeros(6000), alpha=0.5)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4)), 1.0) == (0.0, 0.0)

    def test_first_step_is_the_row_sum_bracket(self):
        """From x = 1, the bracket is the min and max row sum of |m|."""
        m = np.array([[0.2, 0.5, 0.0], [0.1, 0.0, 0.3], [0.6, 0.3, 0.1]])
        lower, upper = spectral_radius(m, math.inf)
        margin = 5 * 2.0**-52  # max row nnz 3, plus 2
        assert lower == pytest.approx(0.4 * (1 - margin), rel=1e-15)
        assert upper == pytest.approx(1.0 * (1 + margin), rel=1e-15)
        assert lower < 0.4 and upper > 1.0

    def test_diagonal(self):
        # reducible: the row of the 1.0 block keeps the lower bound at 1
        lower, upper = spectral_radius(np.diag([2.0, 1.0]), 1.5)
        assert lower == pytest.approx(1.0, rel=1e-15) and lower < 1.0
        assert upper == pytest.approx(2.0, rel=1e-15) and upper > 2.0
        assert spectral_radius(np.diag([2.0, 1.0]), 2.5)[1] < 2.5

    def test_permutation_pair(self):
        # every ratio is exactly 1; only the rounding margin opens the bracket
        lower, upper = spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        assert lower < 1.0 < upper
        assert upper - lower < 1e-14

    def test_negative_entry_gives_no_lower_bound(self):
        m = np.array([[0.5, 0.4], [-1e-12, 0.5]])
        lower, upper = spectral_radius(m, 0.5)
        assert lower == 0.0
        assert upper >= np.max(np.abs(np.linalg.eigvals(m)))

    def test_random_nonnegative_brackets_dense_eigensolver(self):
        """Positive matrices are primitive, so the bracket closes on rho, to
        within what the 1e-12 shift of x allows; a threshold at rho itself is
        never excluded and all steps run."""
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            m = rng.random((n, n)) * rng.random()
            expected = np.max(np.abs(np.linalg.eigvals(m)))
            lower, upper = spectral_radius(m, expected)
            assert lower <= expected * (1 + 1e-12) and upper >= expected * (1 - 1e-12)
            assert upper - lower <= 1e-10 * expected

    def test_bracket_excludes_a_threshold_on_either_side(self):
        m = np.full((3, 3), 0.25)  # rho 0.75, every row sum 0.75
        assert spectral_radius(m, 0.9)[1] < 0.9
        assert spectral_radius(m, 0.6)[0] > 0.6

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.ones((2, 3)), 1.0)

    def test_isolated_node_leaves_the_lower_bound(self):
        """A zero row only adds the eigenvalue 0, so it is dropped with its
        column: a positive block with rho 1.8 beside an isolated node is
        divergent at alpha 0.8, where the zero row held the lower bound at 0."""
        m = np.zeros((4, 4))
        m[:3, :3] = 0.6  # rho 1.8, every row sum 1.8
        lower, upper = spectral_radius(m, 1 / 0.8)
        assert 1.8 * (1 - 1e-14) < lower < 1.8 < upper < 1.8 * (1 + 1e-14)
        (verdict,) = convergence_check([sparse.csr_matrix(m)], 0.8)
        assert verdict.status == "divergent"

    def test_zero_rows_are_dropped_until_none_is_left(self):
        # row 3 reads only node 4, whose row is zero; row 5 stores an explicit zero
        rows, cols = [*np.repeat(range(3), 3), 3, 5], [*np.tile(range(3), 3), 4, 0]
        m = sparse.csr_matrix(([0.6] * 9 + [0.5, 0.0], (rows, cols)), shape=(6, 6))
        assert m.nnz == 11
        lower, upper = spectral_radius(m, 1 / 0.8)
        assert 1.25 < lower < 1.8 < upper
        nilpotent = sparse.csr_matrix(np.triu(np.full((5, 5), 0.9), 1))
        assert spectral_radius(nilpotent, 0.5) == (0.0, 0.0)


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
        lower, upper = spectral_radius(m, target)
        assert lower <= rho + slack and rho - slack <= upper, (lower, rho, upper)
    (verdict,) = convergence_check([sparse.csr_matrix(m)], alpha)
    if verdict.ok:
        assert rho < threshold + slack
    if verdict.status == "divergent":
        assert rho > threshold - slack
        assert kind != "slack"
    assert verdict.status in ("certified", "convergent", "divergent", "unproved")


class TestConvergenceCheck:
    def test_zero_slice_certified(self):
        verdicts = convergence_check([sparse.csr_matrix((3, 3))], alpha=0.99)
        assert verdicts[0].status == "certified"

    def test_small_norm_certified_without_eigensolve(self):
        m = sparse.csr_matrix(np.array([[0.0, 0.45], [0.45, 0.0]]))
        verdict = convergence_check([m], alpha=0.5)[0]
        assert verdict.status == "certified"
        assert verdict.frobenius == pytest.approx(0.45 * np.sqrt(2))
        assert verdict.lower is None and verdict.upper is None

    def test_divergent_verdict_and_growing_residuals(self):
        awf = scaled_random_tensor(12, rho_target=1.5, seed=3)
        verdict = convergence_check(awf.per_class, alpha=0.8)[0]
        assert verdict.status == "divergent"
        assert 1 / 0.8 < verdict.lower <= 1.5 <= verdict.upper
        teleport = Beliefs(np.ones((12, 1)), "prior")
        with pytest.raises(DivergenceError) as err:
            propagate_clp(awf, teleport, PropagationConfig(0.8, max_iters=300, tol=1e-300))
        residuals = [rec.residual for rec in err.value.log]
        assert residuals[-1] > residuals[max(0, len(residuals) - 8)]

    def test_spectral_radius_runs_once_per_class(self, monkeypatch):
        """Within one call, the bracket runs once for each class that the
        Frobenius norm does not certify, and for no other class."""
        rng = np.random.default_rng(5)
        base = rng.random((12, 12))
        np.fill_diagonal(base, 0.0)
        base /= np.max(np.abs(np.linalg.eigvals(base)))
        slices = [sparse.csr_matrix(base * rho) for rho in (0.3, 0.95, 1.5)]

        calls = []
        real = propagation.spectral_radius

        def counting(m, *args, **kwargs):
            calls.append(m)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(propagation, "spectral_radius", counting)
        statuses = set()
        for alpha in DEFAULT_ALPHA_GRID:
            calls.clear()
            verdicts = convergence_check(slices, alpha)
            assert len(calls) == sum(v.upper is not None for v in verdicts) <= len(slices)
            assert len({id(m) for m in calls}) == len(calls)  # no class twice
            statuses |= {v.status for v in verdicts}
        assert {"certified", "convergent", "divergent"} <= statuses

    def test_norm_chain(self):
        rng = np.random.default_rng(15)
        graph, b0, compat = random_propagation_instance(rng, max_nodes=30)
        awf = edge_weights(graph, b0, compat)
        for slice_k in awf.per_class:
            rho = np.max(np.abs(np.linalg.eigvals(slice_k.toarray())))  # at most 30 nodes
            data = slice_k.data
            frob = np.sqrt(np.sum(data ** 2))
            norm1 = np.abs(data).sum()
            assert rho <= frob + 1e-12
            assert frob <= norm1 + 1e-12
