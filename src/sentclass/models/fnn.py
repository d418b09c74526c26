"""Feed-forward classifier: logistic hidden layers, softmax output layer."""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tensor import RowGrad, _distinct, sigmoid, softmax_rows
from .head import head_grads
from .params import glorot


@dataclass
class FnnParams:
    """Stacked dense layers; weights[i] has shape (fan_in, fan_out)."""

    arch: ClassVar[str] = "fnn"
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def classes(self) -> int:
        return self.weights[-1].shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    def dims(self) -> dict[str, tuple[str, ...]]:
        """Each tensor's axes by name; axes with one name have one size."""
        out: dict[str, tuple[str, ...]] = {}
        for i in range(len(self.weights)):
            out[f"w{i}"] = (f"width {i}", f"width {i + 1}")
            out[f"b{i}"] = (f"width {i + 1}",)
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "FnnParams":
        depth = len(tensors) // 2
        return cls(
            weights=[tensors[f"w{i}"] for i in range(depth)],
            biases=[tensors[f"b{i}"] for i in range(depth)],
        )


def init_fnn(layer_sizes, seed) -> FnnParams:
    """Glorot-uniform weights, zero biases, one (weight, bias) pair per layer."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"need at least two positive layer sizes, got {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(glorot(rng, fan_in, fan_out, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return FnnParams(weights=weights, biases=biases)


def _count_block(params: FnnParams, xs):
    """The batch's distinct hashed columns (pad = -1 excluded), its (B, k)
    block of counts over them, and the weights with ``w0`` cut to those
    rows: ``block @ weights[0]`` is the batch's count matrix times ``w0``."""
    rows, slots, pad = _distinct(xs)
    flat = (np.arange(len(xs))[:, None] * rows.size + slots).reshape(-1)
    counts = np.bincount(flat, minlength=len(xs) * rows.size)
    block = counts.reshape(len(xs), rows.size)[:, pad:].astype(np.float64)
    return rows[pad:], block, [params.weights[0][rows[pad:]], *params.weights[1:]]


def fnn_batch_probs(params: FnnParams, xs: np.ndarray) -> np.ndarray:
    """Forward pass over a batch of hashed count rows, carried as indices
    (pad = -1; a repeated index is a count)."""
    _, a, weights = _count_block(params, xs)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, params.biases)):
        z = a @ w + b
        a = softmax_rows(z) if i == last else sigmoid(z)
    return a


def fnn_batch_loss_grads(params: FnnParams, xs: np.ndarray, labels: np.ndarray,
                         train: bool = True, rng: np.random.Generator | None = None):
    """Per-example losses and batch-mean gradients over a batch of hashed
    count rows, carried as indices like ``fnn_batch_probs`` takes them.

    Serves full-batch objectives and minibatch steps alike.  The first layer
    reads only the rows of ``w0`` the batch touches, and its gradient is a
    ``RowGrad`` over them.  The FNN has no dropout, so ``train`` and ``rng``
    change nothing; they keep the calling convention of the other families.
    """
    rows, block, weights = _count_block(params, xs)
    activations = [block]
    for w, b in zip(weights[:-1], params.biases[:-1]):
        activations.append(sigmoid(activations[-1] @ w + b))
    last = len(weights) - 1
    grads: dict[str, np.ndarray] = {}
    losses, grads[f"w{last}"], grads[f"b{last}"], da = head_grads(
        activations[-1], weights[last], params.biases[last], labels)
    for i in reversed(range(last)):
        a = activations[i + 1]
        dz = da * a * (1.0 - a)  # logistic derivative
        grads[f"w{i}"] = activations[i].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ weights[i].T
    grads["w0"] = RowGrad(rows, grads["w0"], params.weights[0].shape)
    return losses, grads
