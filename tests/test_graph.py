import dataclasses
import hashlib
import json

import numpy as np
import pytest

from clprop import graph as graph_module
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


def write_raw(tmp_path, edges="0\t1\n", features="0.5\n1.5\n2.5\n", labels="0\t0\n1\t0\n2\t1\n"):
    """Write the trio byte for byte (no newline translation) and load it.

    The load passes num_classes=2, as a manifest of the default labels would.
    """
    for name, text in (("edges", edges), ("features", features), ("labels", labels)):
        (tmp_path / f"{name}.tsv").write_bytes(text.encode())
    return load_graph(
        tmp_path / "edges.tsv", tmp_path / "features.tsv", tmp_path / "labels.tsv", num_classes=2
    )


# (file, content, line number, message after "path:lineno: ")
FORMAT_ERRORS = [
    pytest.param("edges", "0\t1\n\n\noops\n", 4, "expected 'src<TAB>dst', got 'oops'",
                 id="edges-after-blank-lines"),
    pytest.param("edges", "0\t1\r\n1\t2\r\n1\t2\t0\r\n", 3,
                 "expected 'src<TAB>dst', got '1\\t2\\t0'", id="edges-crlf-three-fields"),
    pytest.param("edges", "0\t1\n# 1\t2\n", 2, "non-integer node id in '# 1\\t2'",
                 id="edges-hash-is-data"),
    pytest.param("edges", "# header\n0\t1\n", 1, "expected 'src<TAB>dst', got '# header'",
                 id="edges-hash-header"),
    pytest.param("edges", "0\t1\t2\n", 1, "expected 'src<TAB>dst', got '0\\t1\\t2'",
                 id="edges-three-fields"),
    pytest.param("edges", "0\tx\n", 1, "non-integer node id in '0\\tx'", id="edges-non-integer"),
    pytest.param("edges", "0\t1.0\n", 1, "non-integer node id in '0\\t1.0'", id="edges-float-id"),
    pytest.param("edges", "0\t\n", 1, "non-integer node id in '0\\t'", id="edges-empty-field"),
    pytest.param("edges", "0\t1\n \n", 2, "expected 'src<TAB>dst', got ' '", id="edges-space-line"),
    pytest.param("edges", "0\t1\n1\tx", 2, "non-integer node id in '1\\tx'",
                 id="edges-last-line-no-newline"),
    pytest.param("edges", "0\t1\r2\tx\r", 2, "non-integer node id in '2\\tx'", id="edges-lone-cr"),
    pytest.param("edges", "0\t1\n0\t7\n", 2, "node id 7 out of range [0, 3)",
                 id="edges-node-out-of-range"),
    pytest.param("edges", "0\t1\n\n-1\t9\n", 3, "node id -1 out of range [0, 3)",
                 id="edges-negative-node"),
    pytest.param("features", "0.5\n1.5\tabc\n2.5\n", 2, "non-numeric feature value",
                 id="features-non-numeric"),
    pytest.param("features", "0.5\n\t\n2.5\n", 2, "non-numeric feature value",
                 id="features-tab-line"),
    pytest.param("features", "# 1.0\n1.5\n2.5\n", 1, "non-numeric feature value",
                 id="features-hash-is-data"),
    pytest.param("features", "0.0\t1.0\n0.5\n2.5\t1.0\n", 2, "expected 2 features, got 1",
                 id="features-ragged-short"),
    pytest.param("features", "0.0\n0.5\t1.0\n2.5\n", 2, "expected 1 features, got 2",
                 id="features-ragged-long"),
    pytest.param("features", "\n\n0.5\n", 3, "expected 0 features, got 1",
                 id="features-zero-width-then-value"),
    pytest.param("features", "0.5\n\n2.5\n", 2, "expected 1 features, got 0",
                 id="features-blank-among-values"),
    pytest.param("features", "0.5\r\n1.5\r\n2.5\tx\r\n", 3, "non-numeric feature value",
                 id="features-crlf"),
    pytest.param("labels", "0\t0\n5\t0\n2\t1\n", 2, "node id 5 out of range",
                 id="labels-node-out-of-range"),
    pytest.param("labels", "-1\t0\n1\t0\n2\t1\n", 1, "node id -1 out of range",
                 id="labels-negative-node"),
    pytest.param("labels", "0\t0\n1\t-1\n2\t1\n", 2, "negative class id",
                 id="labels-negative-class"),
    pytest.param("labels", "0\t0\n1\t5\n2\t1\n", 2, "label outside [0, 2): 5",
                 id="labels-class-out-of-range"),
    pytest.param("labels", "0\t0\n\n\n0\t1\n", 4, "duplicate label for node 0",
                 id="labels-duplicate-after-blank-lines"),
    pytest.param("labels", "0\t0\t1\n", 1, "expected 'node_id<TAB>class_id'",
                 id="labels-three-fields"),
    pytest.param("labels", "0\t0\n1\tx\n", 2, "non-integer entry", id="labels-non-integer"),
    pytest.param("labels", "#\t0\n", 1, "non-integer entry", id="labels-hash-is-data"),
    pytest.param("labels", "0\t0\r\n1\t0\r\n9\t1", 3, "node id 9 out of range",
                 id="labels-crlf-last-line-no-newline"),
]

# numbers are ASCII, without "_" separators, and ids and classes fit in int64
NUMBER_ERRORS = [
    pytest.param("edges", "0\t0_2\n", 1, "non-integer node id in '0\\t0_2'",
                 id="edges-underscore"),
    pytest.param("edges", "0\t\u0662\n", 1, "non-integer node id in '0\\t\u0662'",
                 id="edges-arabic-indic-digit"),
    pytest.param("edges", "0\t99999999999999999999\n", 1,
                 "non-integer node id in '0\\t99999999999999999999'", id="edges-int64-overflow"),
    pytest.param("features", "0.5\n1_0.5\n2.5\n", 2, "non-numeric feature value",
                 id="features-underscore"),
    pytest.param("features", "0.5\n\uff11.5\n2.5\n", 2, "non-numeric feature value",
                 id="features-fullwidth-digit"),
    pytest.param("labels", "0\t0\n1\t0\n2\t1_0\n", 3, "non-integer entry",
                 id="labels-underscore"),
    pytest.param("labels", "0\t0\n1\t0\n2\t99999999999999999999\n", 3, "non-integer entry",
                 id="labels-int64-overflow"),
]

PATH3 = [[0, 1], [1, 0], [1, 2], [2, 1]]  # arcs of 0-1-2 symmetrized
ONE_ARC = [[0, 1], [1, 0]]  # the default edges file, symmetrized
COLUMN = [[0.5], [1.5], [2.5]]  # the default features file


class TestLoadGraph:
    @pytest.mark.parametrize("name, text, lineno, message", FORMAT_ERRORS + NUMBER_ERRORS)
    def test_format_error_names_the_line(self, tmp_path, name, text, lineno, message):
        with pytest.raises(GraphFormatError) as info:
            write_raw(tmp_path, **{name: text})
        assert str(info.value) == f"{tmp_path / name}.tsv:{lineno}: {message}"

    @pytest.mark.parametrize(
        "files, arcs, features",
        [
            pytest.param({"edges": ""}, [], COLUMN, id="edges-empty"),
            pytest.param({"edges": "\n\n"}, [], COLUMN, id="edges-blank-lines-only"),
            pytest.param({"edges": "\n0\t1\n\n1\t2"}, PATH3, COLUMN,
                         id="edges-blank-lines-no-final-newline"),
            pytest.param({"edges": "1\t2\r\n0\t1\r\n"}, PATH3, COLUMN, id="edges-crlf"),
            pytest.param({"edges": "2\t2\n0\t1\n1\t0\n0\t1\n"}, ONE_ARC, COLUMN,
                         id="edges-duplicates-and-self-loop"),
            pytest.param({"edges": "0\x1c\t+1 \n"}, ONE_ARC, COLUMN,
                         id="edges-ascii-separator-padding"),
            pytest.param({"edges": "0\t1\xa0\n"}, ONE_ARC, COLUMN,
                         id="edges-no-break-space-padding"),
            pytest.param({"features": "\n\n\n"}, ONE_ARC, [[], [], []], id="features-zero-width"),
            pytest.param({"features": "0.5\r1.5\r2.5"}, ONE_ARC, COLUMN, id="features-lone-cr"),
            pytest.param({"features": " 1e3\t-0.0\ninf\t5e-324 \n+.5\tnan\n"}, ONE_ARC,
                         [[1e3, -0.0], [np.inf, 5e-324], [0.5, np.nan]],
                         id="features-float-forms"),
            pytest.param({"labels": "2\t1\n\n0\t0\n1\t0"}, ONE_ARC, COLUMN, id="labels-any-order"),
        ],
    )
    def test_valid_files_parse(self, tmp_path, files, arcs, features):
        g = write_raw(tmp_path, **files)
        assert g.arcs.dtype == np.int64 and g.arcs.shape == (len(arcs), 2)
        assert g.arcs.tolist() == arcs
        expected = np.array(features, dtype=np.float64).reshape(3, -1)
        assert g.features.shape == expected.shape
        assert g.features.tobytes() == expected.tobytes()
        assert g.labels.tolist() == [0, 0, 1]

    def test_valid_files_are_not_scanned_line_by_line(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        g = build_graph(50, rng.integers(0, 50, size=(200, 2)), rng.standard_normal((50, 3)),
                        rng.integers(0, 4, 50))
        save_graph(g, tmp_path / "ds")

        def fail(*args):
            raise AssertionError("line scan ran on a valid file")

        monkeypatch.setattr(graph_module, "_first_bad_line", fail)
        monkeypatch.setattr(graph_module, "_parse_line", fail)
        assert np.array_equal(load_dataset(tmp_path / "ds").arcs, g.arcs)

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

    @pytest.mark.parametrize("directed", [False, True])
    def test_arcs_match_unique_reference(self, directed):
        rng = np.random.default_rng(29)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            m = 0 if trial % 10 == 0 else int(rng.integers(1, 4 * n + 1))
            edges = rng.integers(0, n, size=(m, 2))
            edges = np.concatenate([edges, edges[: m // 3]])  # repeated arcs
            # reference: strip self-loops, symmetrize, then sort and deduplicate rows
            ref = edges[edges[:, 0] != edges[:, 1]]
            if not directed:
                ref = np.concatenate([ref, ref[:, ::-1]])
            ref = np.unique(ref, axis=0) if ref.size else ref.reshape(0, 2)
            g = build_graph(n, edges, None, np.zeros(n, dtype=np.int64), directed=directed)
            assert g.arcs.dtype == np.int64 and g.arcs.shape == ref.shape
            assert np.array_equal(g.arcs, ref)
            coo = g.adjacency.tocoo()
            assert np.array_equal(np.stack([coo.row, coo.col], axis=1), ref)
            assert g.adjacency.data.dtype == np.float64 and np.all(g.adjacency.data == 1.0)
            assert g.adjacency.has_canonical_format


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

    def test_bytes_match_line_writer(self, tmp_path):
        features = np.array([[-0.0, 5e-324], [1e308, 0.1], [-1.5, 1e-7]])
        g = graph_from_edges(3, [(0, 1), (2, 1)], [0, 2, 1], features=features)
        manifest = save_graph(g, tmp_path / "ds", extra_manifest={"note": "x"})
        # reference: the one-line-at-a-time writer
        expected = {
            "edges.tsv": "".join(f"{u}\t{v}\n" for u, v in g.arcs),
            "features.tsv": "".join(
                "\t".join(repr(float(x)) for x in row) + "\n" for row in g.features
            ),
            "labels.tsv": "".join(f"{node}\t{cls}\n" for node, cls in enumerate(g.labels)),
        }
        checksums = {}
        for name, text in expected.items():
            assert (tmp_path / "ds" / name).read_bytes() == text.encode()
            checksums[name] = hashlib.sha256(text.encode()).hexdigest()
        assert manifest == {
            "node_count": 3, "num_classes": 3, "directed": False, "checksums": checksums,
            "note": "x",
        }
        written = (tmp_path / "ds" / "manifest.json").read_text()
        assert written == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert load_dataset(tmp_path / "ds").features.tobytes() == features.tobytes()

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
