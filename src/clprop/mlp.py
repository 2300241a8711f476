"""Feature-only MLP base predictor.

Plain numpy implementation: ReLU hidden layers, linear output layer,
softmax probabilities, mean cross-entropy over the training nodes, and
full-batch gradient descent with decoupled weight decay.  Everything is
deterministic given the seed.  Each epoch's validation accuracy is the
argmax of the logits of a forward pass over the validation rows alone.  A
BLAS matrix product is bitwise-stable for a fixed row count, but another
row count can take another BLAS kernel and round differently, so that
accuracy can differ from the one of a full predict() only where such
rounding flips a row's argmax.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .compatibility import Beliefs
from .graph import Graph, SplitMask

_MAGIC = b"CLPROP01"


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite (learning rate too large)."""


@dataclass
class MlpParams:
    """Layer weights/biases of a rectifier MLP with a linear output layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rate: float = 0.5

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up layer by layer")
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {idx}: bias must match the weight output dim")
            if idx > 0 and self.weights[idx - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {idx}: input dim breaks the layer chain")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout rate must lie in [0, 1)")

    @property
    def feature_dim(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.dropout_rate,
        )


@dataclass
class TrainConfig:
    """Full-batch training hyperparameters (defaults follow the experiment setup:
    lr 0.01, 500 epochs, patience 50, weight decay 5e-5, hidden width 64)."""

    learning_rate: float = 0.01
    epochs: int = 500
    early_stop_patience: int = 50
    weight_decay: float = 5e-5
    hidden_dim: int = 64
    num_hidden_layers: int = 1

    def __post_init__(self):
        reals = ("learning_rate", "weight_decay")
        for name in ("epochs", "early_stop_patience", "hidden_dim", "num_hidden_layers") + reals:
            value = getattr(self, name)
            kind = numbers.Real if name in reals else numbers.Integral
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "a number" if name in reals else "an integer"
                raise ValueError(f"{name} must be {what}, got {value!r}")
        # learning_rate 0 is admitted as a diagnostic no-op run
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be a finite nonnegative number, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.early_stop_patience < 0:
            raise ValueError(
                f"early_stop_patience must be nonnegative, got {self.early_stop_patience}"
            )
        if not self.weight_decay >= 0:  # NaN too
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.early_stop_patience > self.epochs:
            raise ValueError("patience cannot exceed the epoch budget")
        if self.num_hidden_layers not in (1, 2, 3):
            raise ValueError("num_hidden_layers must be 1, 2, or 3")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_acc: float


def init_mlp(
    feature_dim: int,
    hidden_dim: int,
    num_hidden_layers: int,
    num_classes: int,
    seed: int,
) -> MlpParams:
    """Glorot-uniform weights (range sqrt(6/(fan_in+fan_out))), zero biases."""
    if min(feature_dim, hidden_dim, num_classes) < 1 or num_hidden_layers < 1:
        raise ValueError("all dimensions must be at least 1")
    dims = [feature_dim] + [hidden_dim] * num_hidden_layers + [num_classes]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-s, s, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpParams(weights, biases)


def _forward_cached(params: MlpParams, x: np.ndarray, rng=None):
    """Forward pass; returns logits plus the per-layer (input, output, mask)
    caches, where a hidden layer's output is its activation before dropout.

    ``rng`` enables inverted dropout on hidden activations; the expectation
    of each activation is preserved by the 1/keep scaling.
    """
    if x.shape[1] != params.feature_dim:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match the first layer ({params.feature_dim})"
        )
    keep = 1.0 - params.dropout_rate
    caches = []
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w
        z += b
        np.maximum(z, 0.0, out=z)  # ReLU(z) > 0 exactly where z > 0
        mask = None
        if rng is not None and params.dropout_rate > 0:
            mask = (rng.random(z.shape) < keep) / keep
        caches.append((h, z, mask))
        h = z if mask is None else z * mask
    z = h @ params.weights[-1]
    z += params.biases[-1]
    caches.append((h, z, None))
    return z, caches


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits for every row of ``x``, without dropout."""
    return _forward_cached(params, np.asarray(x, dtype=np.float64), None)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(params: MlpParams, x: np.ndarray) -> Beliefs:
    """Row-stochastic class probabilities (softmax with max subtraction)."""
    return Beliefs(softmax(forward(params, x)), "base_prediction")


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    # log-sum-exp straight from logits; never materializes probabilities
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(labels.shape[0]), labels]
    return float(np.mean(lse - picked))


def loss_and_gradients(
    params: MlpParams,
    x: np.ndarray,
    labels: np.ndarray,
    rng=None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross-entropy over the rows of ``x`` and its parameter gradients."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    logits, caches = _forward_cached(params, x, rng)
    loss = _cross_entropy(logits, labels)

    delta = softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.weights)
    for idx in range(len(params.weights) - 1, -1, -1):
        h_in, _, _ = caches[idx]
        grads[idx] = (h_in.T @ delta, delta.sum(axis=0))
        if idx > 0:
            _, a_prev, mask_prev = caches[idx - 1]
            delta = delta @ params.weights[idx].T
            if mask_prev is not None:
                delta = delta * mask_prev
            delta = delta * (a_prev > 0)
    return loss, grads


def train(
    params: MlpParams,
    graph: Graph,
    mask: SplitMask,
    config: TrainConfig,
) -> tuple[MlpParams, list[EpochRecord]]:
    """Full-batch gradient descent with early stopping on validation accuracy.

    Returns the parameter snapshot with the best validation accuracy seen
    (ties keep the earliest) together with the per-epoch log.  Dropout masks
    draw from the split's seed.  Each epoch scores the argmax of the
    validation rows' own logits, without dropout and without forwarding
    the other rows; it differs from the argmax of a full predict() only
    where the other row count's BLAS rounding flips a row's argmax.
    """
    if mask.train.size == 0:
        raise ValueError("training requires a nonempty train mask")
    x_train = graph.features[mask.train]
    y_train = graph.labels[mask.train]
    val_idx = np.asarray(mask.validation, dtype=np.int64)
    if val_idx.size == 0:
        raise ValueError("training requires a nonempty validation mask")
    y_val = np.asarray(graph.labels, dtype=np.int64)[val_idx]
    x_val = graph.features[val_idx]
    rng = np.random.default_rng(mask.seed)

    params = params.copy()
    best_params = params.copy()
    best_val = -np.inf
    stale = 0
    log: list[EpochRecord] = []
    for epoch in range(config.epochs):
        loss, grads = loss_and_gradients(params, x_train, y_train, rng)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}; lower the learning rate"
            )
        lr, wd = config.learning_rate, config.weight_decay
        for (w, b), (gw, gb) in zip(zip(params.weights, params.biases), grads):
            w *= 1.0 - lr * wd  # decoupled decay: not part of the logged loss
            w -= lr * gw
            b -= lr * gb
        val_pred = np.argmax(forward(params, x_val), axis=1)
        val_acc = float(np.mean(val_pred == y_val))
        log.append(EpochRecord(epoch, loss, val_acc))
        if val_acc > best_val:
            best_val = val_acc
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    return best_params, log


def save_params(params: MlpParams, path) -> None:
    """Flat binary checkpoint: magic, layer count, dropout, dims, row-major f64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Id", len(params.weights), params.dropout_rate))
        for w in params.weights:
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(path) -> MlpParams:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a parameter checkpoint")
        layer_count, dropout = struct.unpack("<Id", fh.read(12))
        dims = [struct.unpack("<II", fh.read(8)) for _ in range(layer_count)]
        weights, biases = [], []
        for d_in, d_out in dims:
            weights.append(
                np.frombuffer(fh.read(8 * d_in * d_out), dtype="<f8").reshape(d_in, d_out).copy()
            )
            biases.append(np.frombuffer(fh.read(8 * d_out), dtype="<f8").copy())
    return MlpParams(weights, biases, dropout)


def params_checksum(params: MlpParams) -> str:
    """SHA-256 of the canonical binary serialization."""
    h = hashlib.sha256()
    h.update(struct.pack("<Id", len(params.weights), params.dropout_rate))
    for w, b in zip(params.weights, params.biases):
        h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return h.hexdigest()
