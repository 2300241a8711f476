import json

import numpy as np
import pytest

import clprop.synth as synth
from clprop.graph import save_graph
from clprop.metrics import edge_homophily
from clprop.synth import (
    SyntheticSpec,
    _decode_triangular,
    class_feature_params,
    gaussian_features,
    generate,
    generate_structure,
    preset_spec,
    snap_h_fraction,
)


def spec(n=400, c=4, degree=8.0, h=0.5, seed=0):
    return SyntheticSpec(n, c, degree, h, seed)


class TestSpecValidation:
    def test_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            SyntheticSpec(10, 3, 4.0, 0.5, 0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="strictly inside"):
            SyntheticSpec(10, 2, 4.0, 1.0, 0)

    def test_unreachable_degree(self):
        # p_in would have to exceed 1
        with pytest.raises(ValueError, match="unreachable"):
            SyntheticSpec(10, 2, 6.0, 0.9999, 0)

    def test_derived_quantities(self):
        s = spec(1000, 10, 5.0, 0.3)
        assert s.delta == pytest.approx(5.0 / 100)
        assert s.p_in == pytest.approx(0.3 * s.delta)
        assert s.p_in + 9 * s.p_out == pytest.approx(s.delta)


class TestDecodeTriangular:
    @pytest.mark.parametrize("size", [2, 3, 7, 50])
    def test_matches_enumeration(self, size):
        expected = [(i, j) for i in range(size) for j in range(i + 1, size)]
        idx = np.arange(len(expected))
        i, j = _decode_triangular(idx, size)
        assert list(zip(i.tolist(), j.tolist())) == expected


class TestStructure:
    def test_deterministic(self):
        a = generate_structure(spec(seed=5))
        b = generate_structure(spec(seed=5))
        assert np.array_equal(a.arcs, b.arcs)

    def test_seed_changes_graph(self):
        a = generate_structure(spec(seed=1))
        b = generate_structure(spec(seed=2))
        assert not np.array_equal(a.arcs, b.arcs)

    def test_equal_class_sizes(self):
        g = generate_structure(spec(400, 4))
        assert np.bincount(g.labels).tolist() == [100] * 4

    def test_undirected(self):
        g = generate_structure(spec())
        assert (g.adjacency != g.adjacency.T).nnz == 0

    def test_extreme_fraction_is_nearly_pure(self):
        g = generate_structure(spec(n=1000, c=4, degree=10.0, h=0.9999, seed=3))
        assert edge_homophily(g) >= 0.99

    def test_homophily_tracks_fraction(self):
        g = generate_structure(spec(n=2000, c=4, degree=10.0, h=0.5, seed=0))
        assert abs(edge_homophily(g) - 0.5) < 0.03
        assert abs(g.arc_count / g.node_count - 10.0) / 10.0 < 0.05

    def test_block_sampling_route_matches_target(self, monkeypatch):
        # force the binomial-count route at a small size and check realized stats
        monkeypatch.setattr(synth, "_DENSE_SAMPLING_MAX_NODES", 10)
        hs, degs = [], []
        for seed in range(3):
            g = generate_structure(spec(n=2000, c=4, degree=10.0, h=0.3, seed=seed))
            hs.append(edge_homophily(g))
            degs.append(g.arc_count / g.node_count)
        assert abs(np.mean(hs) - 0.3) < 0.03
        assert abs(np.mean(degs) - 10.0) / 10.0 < 0.05


class TestFeatures:
    def test_class_zero_mean_on_axis(self):
        mean, cov = class_feature_params(0, 10)
        np.testing.assert_allclose(mean, [300.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(cov, 3500.0 * np.diag([7.0, 2.0]), atol=1e-9)

    def test_class_five_mean_opposite(self):
        mean, _ = class_feature_params(5, 10)
        np.testing.assert_allclose(mean, [-300.0, 0.0], atol=1e-9)

    def test_deterministic(self):
        labels = np.repeat(np.arange(10), 20)
        a = gaussian_features(labels, seed=4)
        b = gaussian_features(labels, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        labels = np.zeros(10000, dtype=np.int64)
        x = gaussian_features(labels, seed=0, num_classes=10)
        target_cov = 3500.0 * np.diag([7.0, 2.0])
        se = np.sqrt(np.diag(target_cov) / 10000)
        assert np.all(np.abs(x.mean(axis=0) - [300.0, 0.0]) < 3 * se)
        sample_cov = np.cov(x.T)
        scale = np.sqrt(np.outer(np.diag(target_cov), np.diag(target_cov)))
        assert np.all(np.abs(sample_cov - target_cov) <= 0.1 * scale)

    def test_rotated_covariance(self):
        labels = np.full(20000, 2, dtype=np.int64)
        x = gaussian_features(labels, seed=1, num_classes=10)
        _, cov = class_feature_params(2, 10)
        sample_cov = np.cov(x.T)
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert np.all(np.abs(sample_cov - cov) <= 0.1 * scale)


class TestGenerate:
    def test_manifest_and_features_attached(self):
        g, manifest = generate(spec(seed=7))
        assert g.features.shape == (400, 2)
        assert manifest["generator"]["seed"] == 7
        assert 0 <= manifest["realized"]["edge_homophily"] <= 1

    def test_manifest_checksum_determinism(self, tmp_path):
        for sub in ("a", "b"):
            g, manifest = generate(spec(seed=9))
            save_graph(g, tmp_path / sub, extra_manifest=manifest)
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["checksums"] == b["checksums"]

    def test_realized_h_monotone_in_fraction(self):
        hs = []
        for fraction in (0.1, 0.5, 0.9):
            g, _ = generate(spec(n=1000, c=4, degree=10.0, h=fraction, seed=0))
            hs.append(edge_homophily(g))
        assert hs[0] < hs[1] < hs[2]

    def test_non_ten_class_flagged(self):
        _, manifest = generate(spec(n=300, c=3, degree=6.0))
        assert manifest["generator"]["paper_faithful_features"] is False


class TestPresets:
    def test_known_families(self):
        s = preset_spec("syn2", 0.5, seed=0, scale=0.1)
        assert s.num_nodes == 1000 and s.target_avg_degree == 10.0

    def test_scale_preserves_divisibility(self):
        s = preset_spec("syn1", 0.5, seed=0, scale=0.123)
        assert s.num_nodes % s.num_classes == 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="preset"):
            preset_spec("syn9", 0.5, seed=0)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 0.0, -3.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match=rf"scale .* got {scale!r}$"):
            preset_spec("syn1", 0.5, seed=0, scale=scale)

    def test_snap(self):
        assert snap_h_fraction(0.0) == 0.0001
        assert snap_h_fraction(1.0) == 0.9999
        assert snap_h_fraction(0.4) == 0.4
        with pytest.raises(ValueError):
            snap_h_fraction(1.5)
