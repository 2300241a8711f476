import dataclasses

import numpy as np
import pytest

from clprop import mlp, pipeline
from clprop.cli import main as cli_main
from clprop.compatibility import Beliefs
from clprop.graph import build_graph, make_splits
from clprop.mlp import (
    EpochRecord,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
    forward,
    init_mlp,
    load_params,
    loss_and_gradients,
    params_checksum,
    predict,
    save_params,
    train,
)


def make_blobs(n_per_class=100, separation=6.0, seed=0, num_classes=2):
    """Gaussian blobs on a circle of radius ``separation``; unit noise, so
    large separations are linearly separable with overwhelming probability."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = separation * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    features = np.concatenate(
        [centers[c] + rng.standard_normal((n_per_class, 2)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), n_per_class)
    n = num_classes * n_per_class
    return build_graph(n, [], features, labels, num_classes)


class TestInit:
    def test_layer_shapes(self):
        p = init_mlp(4, 8, 1, 3, seed=0)
        assert [w.shape for w in p.weights] == [(4, 8), (8, 3)]
        assert [b.shape for b in p.biases] == [(8,), (3,)]

    def test_deterministic(self):
        a = init_mlp(5, 7, 2, 3, seed=42)
        b = init_mlp(5, 7, 2, 3, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a = init_mlp(5, 7, 1, 3, seed=0)
        b = init_mlp(5, 7, 1, 3, seed=1)
        assert any((wa != wb).any() for wa, wb in zip(a.weights, b.weights))

    def test_glorot_range(self):
        p = init_mlp(10, 20, 1, 4, seed=3)
        s = np.sqrt(6.0 / 30)
        assert np.abs(p.weights[0]).max() <= s
        assert all(not b.any() for b in p.biases)

    def test_zero_dimension(self):
        with pytest.raises(ValueError):
            init_mlp(0, 8, 1, 3, seed=0)

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            MlpParams([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])


class TestForward:
    def test_zero_params_zero_logits(self):
        p = MlpParams([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)])
        out = forward(p, np.ones((5, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_single_linear_identity(self):
        p = MlpParams([np.eye(3)], [np.zeros(3)], dropout_rate=0.0)
        x = np.arange(12, dtype=float).reshape(4, 3)
        np.testing.assert_array_equal(forward(p, x), x)

    def test_dropout_only_in_train_mode(self):
        p = init_mlp(4, 32, 1, 2, seed=0)
        x = np.ones((8, 4))
        a = forward(p, x)
        b = forward(p, x)
        np.testing.assert_array_equal(a, b)
        c = mlp._forward_cached(p, x, np.random.default_rng(0))[0]
        d = mlp._forward_cached(p, x, np.random.default_rng(1))[0]
        assert (c != d).any()

    def test_dimension_mismatch(self):
        p = init_mlp(4, 8, 1, 2, seed=0)
        with pytest.raises(ValueError, match="feature dim"):
            forward(p, np.ones((2, 5)))


class TestPredict:
    def test_zero_logits_uniform(self):
        p = MlpParams([np.zeros((2, 3))], [np.zeros(3)])
        out = predict(p, np.ones((4, 2)))
        np.testing.assert_allclose(out.values, 1 / 3)

    def test_large_logits_no_overflow(self):
        p = MlpParams([np.eye(2)], [np.zeros(2)])
        out = predict(p, np.array([[1000.0, 0.0]]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values[0], [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        p = init_mlp(6, 16, 2, 5, seed=1)
        out = predict(p, rng.standard_normal((50, 6)) * 10)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)
        assert out.values.min() > 0 and out.values.max() < 1


def central_difference(params, x, labels, layer, which, index, eps=1e-5):
    def loss_at(offset):
        plus = params.copy()
        target = plus.weights[layer] if which == "w" else plus.biases[layer]
        target[index] += offset
        loss, _ = loss_and_gradients(plus, x, labels)
        return loss

    return (loss_at(eps) - loss_at(-eps)) / (2 * eps)


class TestGradients:
    @pytest.mark.parametrize("instance_seed", range(5))
    def test_matches_central_differences(self, instance_seed):
        rng = np.random.default_rng(100 + instance_seed)
        num_layers = int(rng.integers(1, 4))
        p = dataclasses.replace(init_mlp(5, 6, num_layers, 3, seed=instance_seed),
                                dropout_rate=0.0)
        x = rng.standard_normal((12, 5))
        labels = rng.integers(0, 3, 12)
        _, grads = loss_and_gradients(p, x, labels)
        for _ in range(20):
            layer = int(rng.integers(0, len(p.weights)))
            if rng.random() < 0.8:
                w = p.weights[layer]
                index = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
                analytic = grads[layer][0][index]
                which = "w"
            else:
                index = (int(rng.integers(p.biases[layer].shape[0])),)
                analytic = grads[layer][1][index]
                which = "b"
            numeric = central_difference(p, x, labels, layer, which, index)
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-3


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        from clprop.metrics import accuracy

        graph = make_blobs(100, seed=0)
        split = make_splits(graph, "dense", seed=0)[0]
        params = dataclasses.replace(init_mlp(2, 16, 1, 2, seed=0), dropout_rate=0.0)
        config = TrainConfig(learning_rate=0.05, epochs=500, early_stop_patience=500,
                             weight_decay=0.0, hidden_dim=16)
        trained, log = train(params, graph, split, config)
        preds = predict(trained, graph.features)
        assert accuracy(preds, graph.labels, split.train) >= 0.99

    def test_zero_learning_rate_is_a_no_op(self):
        graph = make_blobs(20, seed=1)
        split = make_splits(graph, "dense", seed=0)[0]
        params = dataclasses.replace(init_mlp(2, 8, 1, 2, seed=0), dropout_rate=0.0)
        before = [w.copy() for w in params.weights]
        config = TrainConfig(learning_rate=0.0, epochs=20, early_stop_patience=20)
        trained, log = train(params, graph, split, config)
        for w0, w1 in zip(before, trained.weights):
            np.testing.assert_array_equal(w0, w1)
        losses = {rec.train_loss for rec in log}
        assert len(losses) == 1

    def test_non_finite_loss_raises(self):
        # overflow-scale weights make the very first loss non-finite, which is
        # exactly the diverged-learning-rate signature the guard looks for
        graph = make_blobs(30, seed=2)
        split = make_splits(graph, "dense", seed=0)[0]
        params = MlpParams(
            [np.full((2, 8), 1e200), np.full((8, 2), 1e200)],
            [np.zeros(8), np.zeros(2)],
            dropout_rate=0.0,
        )
        config = TrainConfig(learning_rate=0.01, epochs=5, early_stop_patience=5)
        with pytest.raises(TrainingDivergedError):
            train(params, graph, split, config)

    def test_loss_monotone_without_dropout(self):
        graph = make_blobs(50, seed=3)
        split = make_splits(graph, "dense", seed=0)[0]
        params = dataclasses.replace(init_mlp(2, 8, 1, 2, seed=0), dropout_rate=0.0)
        config = TrainConfig(learning_rate=1e-3, epochs=60, early_stop_patience=60,
                             weight_decay=0.0)
        _, log = train(params, graph, split, config)
        losses = [rec.train_loss for rec in log]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_early_stop_returns_best_snapshot(self):
        from clprop.metrics import accuracy

        graph = make_blobs(60, separation=1.2, seed=4)
        split = make_splits(graph, "medium", seed=1)[0]
        params = init_mlp(2, 8, 1, 2, seed=2)
        config = TrainConfig(learning_rate=0.02, epochs=150, early_stop_patience=25)
        trained, log = train(params, graph, split, config)
        best_logged = max(rec.val_acc for rec in log)
        achieved = accuracy(predict(trained, graph.features), graph.labels, split.validation)
        assert achieved == pytest.approx(best_logged)

    def test_empty_train_mask(self):
        import dataclasses

        graph = make_blobs(20, seed=5)
        split = make_splits(graph, "dense", seed=0)[0]
        split = dataclasses.replace(split, train=np.array([], dtype=np.int64))
        params = init_mlp(2, 8, 1, 2, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            train(params, graph, split, TrainConfig())

    def test_patience_bounded_by_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(epochs=10, early_stop_patience=20)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"epochs": 0, "early_stop_patience": 0}, "epochs must be at least 1, got 0"),
            ({"epochs": -3, "early_stop_patience": -5}, "epochs must be at least 1, got -3"),
            ({"early_stop_patience": -1}, "early_stop_patience must be nonnegative, got -1"),
            ({"weight_decay": -1e-4}, "weight_decay must be nonnegative, got -0.0001"),
            ({"weight_decay": float("nan")}, "weight_decay must be nonnegative, got nan"),
        ],
    )
    def test_out_of_range_config_names_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**kwargs)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        p = dataclasses.replace(init_mlp(7, 5, 2, 4, seed=9), dropout_rate=0.25)
        path = tmp_path / "ckpt.bin"
        save_params(p, path)
        q = load_params(path)
        assert q.dropout_rate == p.dropout_rate
        for wa, wb in zip(p.weights, q.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(p.biases, q.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_checksum_tracks_content(self):
        a = init_mlp(3, 4, 1, 2, seed=0)
        b = init_mlp(3, 4, 1, 2, seed=0)
        c = init_mlp(3, 4, 1, 2, seed=1)
        assert params_checksum(a) == params_checksum(b)
        assert params_checksum(a) != params_checksum(c)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="checkpoint"):
            load_params(path)

    def test_log_csv(self, tmp_path):
        out = tmp_path / "out"
        argv = ["train", "--preset", "syn1", "--scale", "0.02", "--seeds", "0", "--out", str(out)]
        assert cli_main(argv) == 0
        config = pipeline.ExperimentConfig(
            dataset={"preset": "syn1", "scale": 0.02, "h": 0.5, "seed": 0}, seeds=(0,))
        graph = pipeline.resolve_dataset(config.dataset)
        split = make_splits(graph, config.scheme, 0, 1)[0]
        params, _, log = pipeline._train_base_predictor(graph, split, config)
        lines = (out / "seed0" / "training_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert lines[1:] == [f"{r.epoch},{r.train_loss!r},{r.val_acc!r}" for r in log]
        assert lines[1].startswith("0,")
        assert params_checksum(load_params(out / "seed0" / "checkpoint.bin")) == params_checksum(params)


def _reference_forward_cached(params, x, rng=None):
    """The forward pass in its original form: a new array per operation, and
    each hidden layer caches its pre-activation for the backward mask."""
    keep = 1.0 - params.dropout_rate
    caches = []
    h = x
    last = len(params.weights) - 1
    for idx, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if idx == last:
            caches.append((h, z, None))
            return z, caches
        a = np.maximum(z, 0.0)
        mask = None
        if rng is not None and params.dropout_rate > 0:
            mask = (rng.random(a.shape) < keep) / keep
            a = a * mask
        caches.append((h, z, mask))
        h = a


def _reference_loss_and_gradients(params, x, labels, rng=None):
    n = x.shape[0]
    logits, caches = _reference_forward_cached(params, x, rng)
    loss = mlp._cross_entropy(logits, labels)
    delta = mlp.softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads = [None] * len(params.weights)
    for idx in range(len(params.weights) - 1, -1, -1):
        h_in, _, _ = caches[idx]
        grads[idx] = (h_in.T @ delta, delta.sum(axis=0))
        if idx > 0:
            _, z_prev, mask_prev = caches[idx - 1]
            delta = delta @ params.weights[idx].T
            if mask_prev is not None:
                delta = delta * mask_prev
            delta = delta * (z_prev > 0)
    return loss, grads


def _reference_train(params, graph, mask, config):
    """The epoch loop in its original form: validation accuracy from the full
    predict() over every node, through metrics.accuracy."""
    from clprop.metrics import accuracy

    x_train = graph.features[mask.train]
    y_train = graph.labels[mask.train]
    rng = np.random.default_rng(mask.seed)
    params = params.copy()
    best_params, best_val, stale, log = params.copy(), -np.inf, 0, []
    for epoch in range(config.epochs):
        drop_rng = rng if params.dropout_rate > 0 else None
        loss, grads = _reference_loss_and_gradients(params, x_train, y_train, drop_rng)
        lr, wd = config.learning_rate, config.weight_decay
        for (w, b), (gw, gb) in zip(zip(params.weights, params.biases), grads):
            w *= 1.0 - lr * wd
            w -= lr * gw
            b -= lr * gb
        logits, _ = _reference_forward_cached(params, graph.features)
        beliefs = Beliefs(mlp.softmax(logits), "base_prediction")
        val_acc = accuracy(beliefs, graph.labels, mask.validation)
        log.append(EpochRecord(epoch, loss, val_acc))
        if val_acc > best_val:
            best_val, best_params, stale = val_acc, params.copy(), 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    return best_params, log


def _noisy_classes(n, feature_dim, num_classes, seed):
    """Overlapping Gaussian classes, so validation accuracy moves for many
    epochs and early stopping has something to choose."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, n)
    centers = rng.standard_normal((num_classes, feature_dim))
    features = centers[labels] + 1.5 * rng.standard_normal((n, feature_dim))
    return build_graph(n, [], features, labels, num_classes)


class TestBitIdentityWithReferenceEpoch:
    """train() and loss_and_gradients() match the original epoch bit for bit.

    300 nodes keep every product small.  At 4000 nodes the full forward takes
    another BLAS kernel than a forward of the validation rows alone, whose
    logits then differ in the last bits.  So besides the log, each epoch's
    argmax of train()'s validation forward is compared with the argmax of
    the reference's full-forward softmax, and the training rows' softmax
    inputs bit for bit.
    """

    @pytest.mark.parametrize("num_hidden_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    @pytest.mark.parametrize("feature_dim,n", [(2, 300), (16, 300), (2, 4000), (16, 4000)])
    def test_train_matches_reference(
        self, monkeypatch, num_hidden_layers, dropout_rate, feature_dim, n
    ):
        graph = _noisy_classes(n, feature_dim, 4, seed=n + feature_dim)
        split = make_splits(graph, "medium", seed=num_hidden_layers)[0]
        params = dataclasses.replace(init_mlp(feature_dim, 64, num_hidden_layers, 4, seed=3),
                                     dropout_rate=dropout_rate)
        config = TrainConfig(learning_rate=0.05, epochs=40, early_stop_patience=15,
                             num_hidden_layers=num_hidden_layers)
        softmax_calls, val_forwards = [], []
        real_softmax = mlp.softmax
        real_forward_cached = mlp._forward_cached

        def recording_softmax(logits):
            probs = real_softmax(logits)
            softmax_calls.append((logits.copy(), probs))
            return probs

        def recording_forward_cached(params, x, rng=None):
            logits, caches = real_forward_cached(params, x, rng)
            if rng is None:  # the loss forward draws dropout from the split's rng
                val_forwards.append((x.shape[0], logits.copy()))
            return logits, caches

        monkeypatch.setattr(mlp, "softmax", recording_softmax)
        expected, expected_log = _reference_train(params, graph, split, config)
        # per epoch the reference softmaxes the training rows' logits, then every row's
        want_train = [logits for logits, _ in softmax_calls[0::2]]
        want_val = [np.argmax(probs, axis=1)[split.validation] for _, probs in softmax_calls[1::2]]
        softmax_calls.clear()
        monkeypatch.setattr(mlp, "_forward_cached", recording_forward_cached)
        trained, log = train(params, graph, split, config)
        assert params_checksum(trained) == params_checksum(expected)
        assert log == expected_log
        assert len({rec.val_acc for rec in log}) > 1
        # per epoch train() softmaxes the training rows' logits only, and
        # forwards the validation rows alone
        got_train = [logits for logits, _ in softmax_calls]
        assert [rows for rows, _ in val_forwards] == [split.validation.size] * len(log)
        got_val = [np.argmax(logits, axis=1) for _, logits in val_forwards]
        assert len(got_train) == len(got_val) == len(want_val) == len(log)
        for got, want in zip(got_train, want_train):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(got_val, want_val):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("num_hidden_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_gradients_match_reference(self, num_hidden_layers, dropout_rate):
        graph = _noisy_classes(400, 5, 3, seed=num_hidden_layers)
        params = dataclasses.replace(init_mlp(5, 32, num_hidden_layers, 3, seed=1),
                                     dropout_rate=dropout_rate)
        expected_loss, expected = _reference_loss_and_gradients(
            params, graph.features, graph.labels, np.random.default_rng(9)
        )
        loss, grads = loss_and_gradients(
            params, graph.features, graph.labels, np.random.default_rng(9)
        )
        assert loss == expected_loss
        for (gw, gb), (ew, eb) in zip(grads, expected):
            np.testing.assert_array_equal(gw, ew)
            np.testing.assert_array_equal(gb, eb)

    def test_empty_validation_mask(self):
        import dataclasses

        graph = make_blobs(20, seed=5)
        split = make_splits(graph, "dense", seed=0)[0]
        split = dataclasses.replace(split, validation=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="validation"):
            train(init_mlp(2, 8, 1, 2, seed=0), graph, split, TrainConfig())

    def test_exact_tie_matches_reference(self):
        graph = _noisy_classes(300, 2, 3, seed=5)
        split = make_splits(graph, "medium", seed=0)[0]
        # output columns 0 and 1 are identical, and their bias puts them on
        # top of every row: each row's top two logits tie
        params = dataclasses.replace(init_mlp(2, 16, 1, 3, seed=0), dropout_rate=0.0)
        params.weights[1][:, 1] = params.weights[1][:, 0]
        params.biases[1][:2] = 50.0
        logits = forward(params, graph.features[split.validation])
        np.testing.assert_array_equal(logits[:, 0], logits[:, 1])
        assert (logits[:, 0] > logits[:, 2]).all()
        # learning rate 0 keeps the tie in every epoch
        config = TrainConfig(learning_rate=0.0, epochs=10, early_stop_patience=3)
        trained, log = train(params, graph, split, config)
        expected, expected_log = _reference_train(params, graph, split, config)
        assert log == expected_log
        assert params_checksum(trained) == params_checksum(expected)

    def test_train_never_forwards_every_row(self, monkeypatch):
        """The validation rows are forwarded alone; the one pass over every
        row in training the base predictor is the final predict()."""
        graph = _noisy_classes(4000, 2, 4, seed=9)
        split = make_splits(graph, "medium", seed=0)[0]
        config = pipeline.ExperimentConfig(
            dataset={}, seeds=(0,), scheme="medium",
            mlp=TrainConfig(learning_rate=0.05, epochs=30, early_stop_patience=30))
        row_counts = []
        real_forward_cached = mlp._forward_cached

        def recording_forward_cached(params, x, rng=None):
            row_counts.append(x.shape[0])
            return real_forward_cached(params, x, rng)

        # every forward pass, whether forward(), predict(), the loss or the
        # validation forward, runs through _forward_cached
        monkeypatch.setattr(mlp, "_forward_cached", recording_forward_cached)
        params = init_mlp(2, 64, 1, 4, seed=0)
        _, log = train(params, graph, split, config.mlp)
        assert len(log) == 30
        # per epoch: the loss over the training rows, then the validation forward
        assert row_counts == [split.train.size, split.validation.size] * len(log)
        row_counts.clear()
        pipeline._train_base_predictor(graph, split, config)
        assert row_counts.count(graph.node_count) == 1
        assert row_counts[-1] == graph.node_count
