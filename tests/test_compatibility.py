import numpy as np
import pytest

from clprop.compatibility import (
    Beliefs,
    estimate_compatibility,
    prior_beliefs,
    sinkhorn_knopp,
)
from clprop.graph import one_hot

from conftest import graph_from_edges


def naive_alternating_normalization(m, sweeps=2000):
    """Independent oracle: explicit row-then-column normalization loops."""
    s = np.array(m, dtype=float)
    for _ in range(sweeps):
        for i in range(s.shape[0]):
            s[i] /= s[i].sum()
        for j in range(s.shape[1]):
            s[:, j] /= s[:, j].sum()
    return s


class TestBeliefs:
    def test_prior_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Beliefs(np.array([[0.5, 0.4]]), "prior")

    def test_propagated_rows_unconstrained(self):
        b = Beliefs(np.array([[0.2, 5.0]]), "propagated")
        assert b.num_classes == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Beliefs(np.array([[-0.1, 1.1]]), "propagated")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Beliefs(np.array([[np.inf, 0.0]]), "propagated")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Beliefs(np.ones((1, 1)), "posterior")


class TestPriorBeliefs:
    def test_train_row_clamped(self):
        d = Beliefs(np.full((1, 3), 1 / 3), "base_prediction")
        b0 = prior_beliefs(d, one_hot([2], 3), [0])
        assert b0.values.tolist() == [[0, 0, 1]]

    def test_non_train_row_untouched(self):
        d = Beliefs(np.array([[0.4, 0.6], [0.3, 0.7]]), "base_prediction")
        b0 = prior_beliefs(d, one_hot([0, 1], 2), [0])
        assert b0.values[1].tolist() == [0.3, 0.7]

    def test_three_node_example(self):
        d = Beliefs(np.full((3, 2), 0.5), "base_prediction")
        b0 = prior_beliefs(d, one_hot([0, 0, 1], 2), [0])
        np.testing.assert_allclose(b0.values, [[1, 0], [0.5, 0.5], [0.5, 0.5]])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        values = rng.random((6, 3))
        values /= values.sum(axis=1, keepdims=True)
        d = Beliefs(values, "base_prediction")
        y = one_hot(rng.integers(0, 3, 6), 3)
        once = prior_beliefs(d, y, [0, 2])
        twice = prior_beliefs(once, y, [0, 2])
        np.testing.assert_array_equal(once.values, twice.values)

    def test_dimension_mismatch(self):
        d = Beliefs(np.full((2, 2), 0.5), "base_prediction")
        with pytest.raises(ValueError, match="shape mismatch"):
            prior_beliefs(d, one_hot([0, 1, 1], 2), [0])


class TestSinkhornKnopp:
    def test_identity_fixed_point(self):
        s, dev = sinkhorn_knopp(np.eye(3))
        np.testing.assert_array_equal(s, np.eye(3))
        assert dev < 1e-9

    def test_already_doubly_stochastic(self):
        m = np.full((2, 2), 0.5)
        s, _ = sinkhorn_knopp(m)
        np.testing.assert_allclose(s, m)

    def test_small_example_against_naive_oracle(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        s, dev = sinkhorn_knopp(m)
        assert dev < 1e-9
        np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
        # 2x2 doubly stochastic limits are symmetric across the anti-diagonal
        assert s[0, 0] == pytest.approx(s[1, 1], abs=1e-9)
        assert s[0, 1] == pytest.approx(s[1, 0], abs=1e-9)
        np.testing.assert_allclose(s, naive_alternating_normalization(m), atol=1e-9)

    def test_random_matrices_balance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            size = int(rng.integers(2, 12))
            s, _ = sinkhorn_knopp(rng.random((size, size)) + 1e-3)
            np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(5)
        m = rng.random((6, 6)) + 0.1
        s, _ = sinkhorn_knopp(m, tol=1e-10)
        s2, _ = sinkhorn_knopp(s, tol=1e-10)
        np.testing.assert_allclose(s, s2, atol=2e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        m = rng.random((5, 5)) + 0.05
        a, _ = sinkhorn_knopp(m)
        b, _ = sinkhorn_knopp(42.0 * m)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sinkhorn_knopp(np.ones((2, 3)))

    def test_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sinkhorn_knopp(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_budget_exhaustion_warns(self):
        rng = np.random.default_rng(7)
        with pytest.warns(UserWarning, match="stopped at deviation"):
            sinkhorn_knopp(rng.random((8, 8)) + 1e-6, tol=1e-15, max_iters=1)


class TestEstimateCompatibility:
    def test_homophilous_identity(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0, 0, 0, 1, 1, 1])
        b0 = Beliefs(one_hot(g.labels, 2), "prior")
        h = estimate_compatibility(g, b0, one_hot(g.labels, 2), np.arange(6))
        assert h.normalization == "doubly_stochastic"
        assert np.max(h.values - np.eye(2)) < 1e-6

    def test_bipartite_anti_identity(self, k22):
        b0 = Beliefs(one_hot(k22.labels, 2), "prior")
        h = estimate_compatibility(k22, b0, one_hot(k22.labels, 2), np.arange(4))
        np.testing.assert_allclose(h.values, [[0, 1], [1, 0]], atol=1e-6)

    def test_path_two_stage_hand_value(self, path4):
        # raw scores (masked labels)^T A B0 = [[0.5, 0.5], [0.5, 0.5]] by hand;
        # Sinkhorn leaves the uniform matrix unchanged
        d = Beliefs(np.full((4, 2), 0.5), "base_prediction")
        y = one_hot(path4.labels, 2)
        b0 = prior_beliefs(d, y, [0, 3])
        h = estimate_compatibility(path4, b0, y, [0, 3])
        np.testing.assert_allclose(h.values, [[0.5, 0.5], [0.5, 0.5]], atol=1e-7)

    def test_balanced_regular_graph_recovers_true_matrix(self):
        # 6-cycle with labels 000111: arc counts [[4,2],[2,4]] are symmetric with
        # equal row sums, so the estimate matches the row-normalized truth
        from clprop.metrics import true_compatibility

        g = graph_from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], [0, 0, 0, 1, 1, 1]
        )
        y = one_hot(g.labels, 2)
        b0 = Beliefs(y.copy(), "prior")
        h = estimate_compatibility(g, b0, y, np.arange(6))
        np.testing.assert_allclose(h.values, true_compatibility(g).values, atol=1e-7)

    def test_absent_class_warns_near_uniform(self):
        # star whose trained center sees equal mass of both classes; the raw
        # row of the untrained class is all zeros and lands near uniform
        g = graph_from_edges(3, [(0, 1), (0, 2)], [0, 0, 1])
        y = one_hot(g.labels, 2)
        b0 = prior_beliefs(Beliefs(np.full((3, 2), 0.5), "base_prediction"), y, [0])
        with pytest.warns(UserWarning, match="absent from the training set"):
            h = estimate_compatibility(g, b0, y, [0])
        np.testing.assert_allclose(h.values[1], [0.5, 0.5], atol=1e-3)
        assert h.normalization == "doubly_stochastic"

    def test_empty_train_mask(self, k22):
        b0 = Beliefs(np.full((4, 2), 0.5), "prior")
        with pytest.raises(ValueError, match="nonempty"):
            estimate_compatibility(k22, b0, one_hot(k22.labels, 2), [])
