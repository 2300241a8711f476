from fractions import Fraction

import numpy as np
import pytest

from clprop.compatibility import Beliefs
from clprop.graph import GraphFormatError
from clprop.metrics import (
    accuracy,
    bucket_accuracy,
    compat_distance,
    edge_homophily,
    local_homophily,
    local_homophily_histogram,
    node_homophily,
    true_compatibility,
)
from clprop.mlp import TrainConfig
from clprop.pipeline import ExperimentConfig, inspect_dataset
from clprop.synth import SyntheticSpec, generate

from conftest import graph_from_edges


class TestEdgeHomophily:
    def test_uniform_triangle(self, triangle_uniform):
        assert edge_homophily(triangle_uniform) == 1.0

    def test_bipartite(self, k22):
        assert edge_homophily(k22) == 0.0

    def test_path(self, path4):
        # 6 symmetrized arcs, 4 intra-class, counted by hand
        assert edge_homophily(path4) == pytest.approx(2 / 3)

    def test_empty_edges(self):
        g = graph_from_edges(2, [], [0, 1])
        with pytest.raises(ValueError, match="empty edge set"):
            edge_homophily(g)

    def test_missing_labels(self):
        # no label marks an unknown class: every node carries one in [0, C)
        with pytest.raises(GraphFormatError, match=r"label outside \[0, 2\): -1"):
            graph_from_edges(2, [(0, 1)], [0, -1], num_classes=2)

    def test_bipartition_flip_complement(self):
        # flipping the labels of one side of a bipartite graph flips h -> 1-h
        rng = np.random.default_rng(5)
        left, right = np.arange(6), np.arange(6, 12)
        edges = [(int(i), int(j)) for i in left for j in right if rng.random() < 0.5]
        labels = np.zeros(12, dtype=int)
        labels[right] = 1
        g_across = graph_from_edges(12, edges, labels)
        labels_same = np.zeros(12, dtype=int)
        g_same = graph_from_edges(12, edges, labels_same, num_classes=2)
        assert edge_homophily(g_across) == pytest.approx(1 - edge_homophily(g_same))


class TestNodeHomophily:
    def test_uniform_triangle(self, triangle_uniform):
        assert node_homophily(triangle_uniform) == 1.0

    def test_bipartite(self, k22):
        assert node_homophily(k22) == 0.0

    def test_path(self, path4):
        # per-node fractions 1, 1/2, 1/2, 1 averaged by hand
        assert node_homophily(path4) == pytest.approx(0.75)

    def test_isolated_nodes_excluded(self):
        g = graph_from_edges(3, [(0, 1)], [0, 0, 1], num_classes=2)
        assert node_homophily(g) == 1.0

    def test_all_isolated(self):
        g = graph_from_edges(2, [], [0, 1])
        with pytest.raises(ValueError, match="isolated"):
            node_homophily(g)


class TestLocalHomophily:
    def test_star_all_same(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], [0, 0, 0, 0], num_classes=2)
        assert local_homophily(g, 0) == 1.0

    def test_star_all_opposite(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], [0, 1, 1, 1])
        assert local_homophily(g, 0) == 0.0

    def test_path_middle_node(self):
        # induced subgraph on {0,1,2} has edges (0,1) and (1,2); one matches
        g = graph_from_edges(3, [(0, 1), (1, 2)], [0, 0, 1])
        assert local_homophily(g, 1) == pytest.approx(0.5)

    def test_includes_neighbor_neighbor_edges(self):
        # triangle seen from node 0 includes the (1,2) edge
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)], [0, 0, 1])
        assert local_homophily(g, 0) == pytest.approx(1 / 3)

    def test_isolated_is_undefined(self):
        g = graph_from_edges(3, [(0, 1)], [0, 0, 1], num_classes=2)
        assert local_homophily(g, 2) is None

    def test_directed_reciprocal_pair_counts_twice(self):
        # arcs 0->1, 1->0 (a reciprocal pair) and the one-way 1->2
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2)], [0, 0, 1], directed=True)
        assert local_homophily(g, 0) == 1.0  # induced on {0,1}: both pair arcs
        assert local_homophily(g, 1) == pytest.approx(2 / 3)  # all 3 arcs, 2 same
        assert local_homophily(g, 2) == 0.0  # in-neighbor 1 only: arc 1->2


class TestTrueCompatibility:
    def test_fully_homophilous_identity(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)], [0, 0, 1, 1])
        np.testing.assert_allclose(true_compatibility(g).values, np.eye(2))

    def test_bipartite_anti_identity(self, k22):
        np.testing.assert_allclose(true_compatibility(k22).values, [[0, 1], [1, 0]])

    def test_path(self, path4):
        # 6 arcs enumerated by hand: class 0 sends 2/3 to itself
        expected = [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
        np.testing.assert_allclose(true_compatibility(path4).values, expected)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        g = graph_from_edges(
            40, rng.integers(0, 40, (120, 2)), rng.integers(0, 5, 40), num_classes=5
        )
        sums = true_compatibility(g).values.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_class_without_arcs_warns_uniform(self):
        g = graph_from_edges(3, [(0, 1)], [0, 0, 1], num_classes=2)
        with pytest.warns(UserWarning, match="no outgoing arcs"):
            h = true_compatibility(g)
        np.testing.assert_allclose(h.values[1], [0.5, 0.5])


class TestCompatDistance:
    def test_identical(self, k22):
        h = true_compatibility(k22)
        assert compat_distance(h, h) == 0.0

    def test_identity_vs_anti_identity(self):
        from clprop.compatibility import CompatibilityMatrix

        a = CompatibilityMatrix(np.eye(2), "row_stochastic")
        b = CompatibilityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "row_stochastic")
        assert compat_distance(a, b) == pytest.approx(2.0)

    def test_identity_vs_uniform(self):
        from clprop.compatibility import CompatibilityMatrix

        a = CompatibilityMatrix(np.eye(2), "row_stochastic")
        b = CompatibilityMatrix(np.full((2, 2), 0.5), "row_stochastic")
        assert compat_distance(a, b) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        from clprop.compatibility import CompatibilityMatrix

        a = CompatibilityMatrix(np.eye(2), "row_stochastic")
        b = CompatibilityMatrix(np.eye(3), "row_stochastic")
        with pytest.raises(ValueError, match="dimension"):
            compat_distance(a, b)


class TestAccuracy:
    def test_perfect(self):
        b = Beliefs(np.eye(3), "prior")
        assert accuracy(b, [0, 1, 2], [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        b = Beliefs(np.eye(2)[[1, 0]], "prior")
        assert accuracy(b, [0, 1], [0, 1]) == 0.0

    def test_half(self):
        values = np.array([[1, 0], [1, 0], [1, 0], [1, 0]], dtype=float)
        b = Beliefs(values, "prior")
        assert accuracy(b, [0, 0, 1, 1], [0, 1, 2, 3]) == 0.5

    def test_tie_breaks_to_lowest_class(self):
        b = Beliefs(np.array([[0.5, 0.5]]), "prior")
        assert accuracy(b, [0], [0]) == 1.0
        assert accuracy(b, [1], [0]) == 0.0

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.random((20, 4))
        scaled = values * rng.uniform(0.5, 5.0, size=(20, 1))
        labels = rng.integers(0, 4, 20)
        mask = np.arange(20)
        a = accuracy(Beliefs(values, "propagated"), labels, mask)
        b = accuracy(Beliefs(scaled, "propagated"), labels, mask)
        assert a == b

    def test_empty_mask(self):
        b = Beliefs(np.eye(2), "prior")
        with pytest.raises(ValueError, match="empty mask"):
            accuracy(b, [0, 1], [])


class TestBucketAccuracy:
    def test_all_homophilous_correct(self, triangle_uniform):
        b = Beliefs(np.array([[1.0, 0], [1, 0], [1, 0]]), "prior")
        table = bucket_accuracy(b, triangle_uniform, np.arange(3))
        by_bucket = {row.bucket: row for row in table}
        assert by_bucket[1.0].count == 3 and by_bucket[1.0].accuracy == 1.0
        assert all(
            row.count == 0 for row in table if row.bucket not in (1.0, None)
        )

    def test_quarter_rounds_half_up_to_point_three(self):
        # star center with 4 leaves, one leaf sharing the class: h_v = 1/4
        g = graph_from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4)], [0, 0, 1, 1, 1]
        )
        assert local_homophily(g, 0) == 0.25
        b = Beliefs(np.tile([1.0, 0.0], (5, 1)), "prior")
        table = bucket_accuracy(b, g, [0])
        populated = [row.bucket for row in table if row.count]
        assert populated == [0.3]

    def test_row_count_and_undefined_row(self):
        g = graph_from_edges(3, [(0, 1)], [0, 0, 1], num_classes=2)
        b = Beliefs(np.tile([1.0, 0.0], (3, 1)), "prior")
        table = bucket_accuracy(b, g, np.arange(3))
        assert len(table) == 12
        assert table[-1].bucket is None
        assert table[-1].count == 1  # node 2 is isolated

    def test_csv_format(self, tmp_path):
        graph, _ = generate(SyntheticSpec(100, 2, 6.0, 0.5, 3))
        config = ExperimentConfig(dataset={}, seeds=(0,), output_dir=str(tmp_path / "out"),
                                  mlp=TrainConfig(epochs=20, early_stop_patience=20))
        table = inspect_dataset(graph, config).bucket_table
        lines = (tmp_path / "out" / "bucket_accuracy.csv").read_text().splitlines()
        assert lines[0] == "bucket,count,accuracy"
        assert len(lines) == 13
        for line, row in zip(lines[1:], table):
            bucket = "undefined" if row.bucket is None else repr(row.bucket)
            acc = "" if row.accuracy is None else repr(float(row.accuracy))
            assert line == f"{bucket},{row.count},{acc}"
        assert any(line.split(",")[2] for line in lines[1:])

    def test_histogram_counts_every_node(self, path4):
        counts, undefined = local_homophily_histogram(path4)
        assert counts.sum() + undefined == 4
        assert undefined == 0


class TestUniformLabelProperties:
    def test_uniform_graph_metrics(self):
        rng = np.random.default_rng(9)
        g = graph_from_edges(
            20, rng.integers(0, 20, (50, 2)), np.zeros(20, dtype=int), num_classes=3
        )
        assert edge_homophily(g) == 1.0
        assert node_homophily(g) == 1.0
        with pytest.warns(UserWarning):
            h = true_compatibility(g)
        assert h.values[0, 0] == 1.0


def _reference_counts(graph, v):
    """Per-node slice of the induced 1-hop subgraph: the loop the vectorized
    counts replaced, kept here as their reference."""
    adj = graph.adjacency
    neighbors = np.union1d(adj[v].indices, adj[:, v].tocoo().row)
    nodes = np.union1d(neighbors, [v])
    sub = adj[nodes][:, nodes].tocoo()
    y = graph.labels[nodes]
    return int(np.sum(y[sub.row] == y[sub.col])), int(sub.nnz)


def _reference_level(same, total):
    # 10 * same/total rounded half up, in exact rational arithmetic
    return int(Fraction(10 * same, total) + Fraction(1, 2))


def _random_hv_case(rng, directed):
    n = int(rng.integers(1, 25))
    c = int(rng.integers(1, 4))
    m = 0 if rng.random() < 0.1 else int(rng.integers(0, 3 * n + 1))
    edges = rng.integers(0, n, (m, 2))
    edges[: m // 5, 1] = edges[: m // 5, 0]  # input self-loops, stripped on build
    edges %= n - n // 4  # the last n // 4 ids take part in no arc: isolated nodes
    g = graph_from_edges(n, edges, rng.integers(0, c, n), directed, num_classes=c)
    mask = rng.integers(0, n, int(rng.integers(0, 2 * n + 1)))  # with duplicates
    beliefs = Beliefs(rng.random((n, c)), "propagated")
    return g, mask, beliefs


class TestVectorizedHvMatchesReference:
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_graphs(self, directed):
        rng = np.random.default_rng(17 + directed)
        for _ in range(40):
            g, mask, beliefs = _random_hv_case(rng, directed)
            ref = [_reference_counts(g, v) for v in range(g.node_count)]
            for v, (same, total) in enumerate(ref):
                assert local_homophily(g, v) == (same / total if total else None)

            counts = np.zeros(11, dtype=np.int64)
            undefined = 0
            for same, total in ref:
                if total:
                    counts[_reference_level(same, total)] += 1
                else:
                    undefined += 1
            got_counts, got_undefined = local_homophily_histogram(g)
            np.testing.assert_array_equal(got_counts, counts)
            assert got_undefined == undefined

            correct = np.argmax(beliefs.values, axis=1) == g.labels
            members = {level: [] for level in list(range(11)) + [None]}
            for v in mask:
                same, total = ref[v]
                members[_reference_level(same, total) if total else None].append(correct[v])
            expected = [
                (None if level is None else level / 10, len(hits),
                 sum(hits) / len(hits) if hits else None)
                for level, hits in members.items()
            ]
            table = bucket_accuracy(beliefs, g, mask)
            assert [(r.bucket, r.count, r.accuracy) for r in table] == expected
