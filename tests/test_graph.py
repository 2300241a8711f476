import dataclasses

import numpy as np
import pytest

from clprop.graph import (
    Graph,
    GraphFormatError,
    build_graph,
    load_dataset,
    load_graph,
    make_splits,
    one_hot,
    save_graph,
)

from conftest import graph_from_edges


def write_dataset(tmp_path, edges_lines, features_lines, labels_lines=None):
    (tmp_path / "edges.tsv").write_text("".join(f"{l}\n" for l in edges_lines))
    (tmp_path / "features.tsv").write_text("".join(f"{l}\n" for l in features_lines))
    if labels_lines is not None:
        (tmp_path / "labels.tsv").write_text("".join(f"{l}\n" for l in labels_lines))


class TestLoadGraph:
    def test_undirected_symmetrization_doubles_arcs(self, tmp_path):
        write_dataset(tmp_path, ["0\t1", "1\t2"], ["0.5", "1.5", "2.5"], ["0\t0", "1\t0", "2\t1"])
        g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")
        assert g.arc_count == 4
        assert sorted(map(tuple, g.arcs.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_empty_edges_file_is_valid(self, tmp_path):
        write_dataset(tmp_path, [], ["0.0", "1.0"], ["0\t0", "1\t1"])
        g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")
        assert g.arc_count == 0 and g.node_count == 2

    def test_out_of_range_node_id(self, tmp_path):
        write_dataset(tmp_path, ["0\t7"], ["0.0", "1.0", "2.0"], ["0\t0", "1\t0", "2\t0"])
        with pytest.raises(GraphFormatError, match="out of range"):
            load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")

    def test_malformed_edge_line_reports_line_number(self, tmp_path):
        write_dataset(tmp_path, ["0\t1", "oops"], ["0.0", "1.0"], ["0\t0", "1\t0"])
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")

    def test_ragged_feature_rows(self, tmp_path):
        write_dataset(tmp_path, ["0\t1"], ["0.0\t1.0", "0.5"], ["0\t0", "1\t0"])
        with pytest.raises(GraphFormatError, match="expected 2 features"):
            load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")

    def test_duplicate_label_assignment(self, tmp_path):
        write_dataset(tmp_path, [], ["0.0", "1.0"], ["0\t0", "0\t1", "1\t0"])
        with pytest.raises(GraphFormatError, match="duplicate label"):
            load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")

    def test_missing_label_names_the_node(self, tmp_path):
        write_dataset(tmp_path, [], ["0.0", "1.0", "2.0"], ["0\t0", "2\t1"])
        with pytest.raises(GraphFormatError, match=r"labels\.tsv: node 1 has no label$"):
            load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv")

    def test_directed_keeps_arcs(self, tmp_path):
        write_dataset(tmp_path, ["0\t1"], ["0.0", "1.0"], ["0\t0", "1\t1"])
        g = load_graph(
            tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv",
            directed=True,
        )
        assert g.arcs.tolist() == [[0, 1]]


class TestBuildGraph:
    def test_self_loops_stripped(self):
        g = graph_from_edges(3, [(0, 0), (0, 1)], [0, 0, 1])
        assert sorted(map(tuple, g.arcs.tolist())) == [(0, 1), (1, 0)]

    def test_duplicates_removed(self):
        g = graph_from_edges(3, [(0, 1), (0, 1), (1, 0)], [0, 0, 1])
        assert g.arc_count == 2

    def test_symmetrized_pattern_is_symmetric(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 30, size=(60, 2))
        g = build_graph(30, edges, np.zeros((30, 1)), rng.integers(0, 3, 30), directed=False)
        diff = (g.adjacency != g.adjacency.T).nnz
        assert diff == 0

    def test_feature_row_mismatch(self):
        with pytest.raises(GraphFormatError, match="feature rows"):
            Graph(
                node_count=3,
                arcs=np.zeros((0, 2), dtype=np.int64),
                adjacency=build_graph(3, [], np.zeros((3, 1)), np.zeros(3)).adjacency,
                features=np.zeros((2, 1)),
                labels=np.zeros(3, dtype=np.int64),
                num_classes=1,
                directed=False,
            )

    def test_label_out_of_range(self):
        with pytest.raises(GraphFormatError, match="label outside"):
            build_graph(2, [], np.zeros((2, 1)), np.array([0, 5]), num_classes=2)


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        g = build_graph(
            12,
            rng.integers(0, 12, size=(20, 2)),
            rng.standard_normal((12, 3)) * 1e3,
            rng.integers(0, 4, 12),
            directed=False,
        )
        save_graph(g, tmp_path / "ds")
        g2 = load_dataset(tmp_path / "ds")
        assert np.array_equal(g.arcs, g2.arcs)
        assert np.array_equal(g.features, g2.features)
        assert np.array_equal(g.labels, g2.labels)
        assert g2.num_classes == g.num_classes and g2.directed == g.directed

    def test_manifest_contents(self, tmp_path):
        g = graph_from_edges(3, [(0, 1)], [0, 1, 1])
        manifest = save_graph(g, tmp_path / "ds")
        assert manifest["node_count"] == 3
        assert manifest["num_classes"] == 2
        assert set(manifest["checksums"]) == {"edges.tsv", "features.tsv", "labels.tsv"}


class TestOneHot:
    def test_examples(self):
        assert one_hot([0, 2], 3).tolist() == [[1, 0, 0], [0, 0, 1]]
        assert one_hot([1], 2).tolist() == [[0, 1]]
        assert one_hot([0, 0, 0], 1).tolist() == [[1.0], [1.0], [1.0]]

    def test_label_too_large(self):
        with pytest.raises(ValueError):
            one_hot([0, 3], 3)


class TestMakeSplits:
    def make_labelled(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return build_graph(n, [], np.zeros((n, 1)), rng.integers(0, 3, n))

    def test_medium_sizes(self):
        g = self.make_labelled(100)
        m = make_splits(g, "medium", seed=0)[0]
        assert (m.train.size, m.validation.size, m.test.size) == (10, 10, 80)

    def test_dense_sizes_disjoint_union(self):
        g = self.make_labelled(1000)
        m = make_splits(g, "dense", seed=1)[0]
        assert (m.train.size, m.validation.size, m.test.size) == (480, 320, 200)
        union = np.concatenate([m.train, m.validation, m.test])
        assert np.array_equal(np.sort(union), np.arange(1000))

    def test_same_seed_identical(self):
        g = self.make_labelled(200)
        a = make_splits(g, "sparse", seed=7, instances=3)
        b = make_splits(g, "sparse", seed=7, instances=3)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.train, mb.train)
            assert np.array_equal(ma.test, mb.test)

    def test_different_seeds_differ(self):
        g = self.make_labelled(100)
        a = make_splits(g, "medium", seed=0)[0]
        b = make_splits(g, "medium", seed=1)[0]
        assert not np.array_equal(a.train, b.train)

    def test_instances_are_independent(self):
        g = self.make_labelled(100)
        a, b = make_splits(g, "medium", seed=0, instances=2)
        assert not np.array_equal(a.train, b.train)

    def test_too_small(self):
        g = self.make_labelled(5)
        with pytest.raises(ValueError, match="too few"):
            make_splits(g, "sparse", seed=0)

    def test_requires_labels(self):
        # splits draw from every node, so a Graph cannot exist without a label on each
        g = self.make_labelled(10)
        for labels in (None, g.labels[:9]):
            with pytest.raises(GraphFormatError, match="one entry per node"):
                dataclasses.replace(g, labels=labels)

    def test_custom_ratios(self):
        g = self.make_labelled(50)
        m = make_splits(g, (0.2, 0.2), seed=0)[0]
        assert m.scheme == "custom"
        assert (m.train.size, m.validation.size, m.test.size) == (10, 10, 30)

    @pytest.mark.parametrize("scheme", ["sparse", "medium", "dense"])
    @pytest.mark.parametrize("n", [97, 250, 1003])
    def test_partition_invariants(self, scheme, n):
        g = self.make_labelled(n, seed=n)
        for m in make_splits(g, scheme, seed=n, instances=2):
            sizes = m.train.size + m.validation.size + m.test.size
            assert sizes == n
            assert np.intersect1d(m.train, m.validation).size == 0
            assert np.intersect1d(m.train, m.test).size == 0
            assert np.intersect1d(m.validation, m.test).size == 0
