"""Elman recurrent classifier.

Hidden state recurrence h_t = logistic(x_t W_in + h_{t-1} W_rec + b); the
last hidden state feeds a dropout-regularised linear head with softmax.
Backpropagation through time is exact (no truncation).  The batched kernels
write each hidden state in place over its step's slice of the C-contiguous
(n, B, hidden) input projections.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tensor import (ShapeError, dropout_mask, gather_rows, scatter_rows, sigmoid, softmax,
                      softmax_rows)
from .head import head_grads


@dataclass
class RnnParams:
    arch: ClassVar[str] = "rnn"
    w_in: np.ndarray  # (embed_dim, hidden)
    w_rec: np.ndarray  # (hidden, hidden)
    b_rec: np.ndarray  # (hidden,)
    w_head: np.ndarray  # (hidden, classes)
    b_head: np.ndarray  # (classes,)
    dropout: float = 0.1

    @property
    def hidden(self) -> int:
        return self.w_rec.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w_in.shape[0]

    @property
    def classes(self) -> int:
        return self.w_head.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "w_in": self.w_in,
            "w_rec": self.w_rec,
            "b_rec": self.b_rec,
            "w_head": self.w_head,
            "b_head": self.b_head,
        }

    def dims(self) -> dict[str, tuple[str, ...]]:
        """Each tensor's axes by name; axes with one name have one size."""
        return {"w_in": ("embed", "hidden"), "w_rec": ("hidden", "hidden"),
                "b_rec": ("hidden",), "w_head": ("hidden", "classes"), "b_head": ("classes",)}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], dropout: float = 0.1) -> "RnnParams":
        return cls(dropout=dropout, **{k: tensors[k] for k in
                                       ("w_in", "w_rec", "b_rec", "w_head", "b_head")})


@dataclass
class RnnTrace:
    x: np.ndarray
    hiddens: np.ndarray  # (n, hidden)
    drop_mask: np.ndarray | None
    head_in: np.ndarray
    probs: np.ndarray


def init_rnn(embed_dim: int, classes: int, hidden: int = 256, dropout: float = 0.1,
             seed=0) -> RnnParams:
    if min(embed_dim, classes, hidden) < 1:
        raise ValueError("all widths must be at least 1")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    return RnnParams(
        w_in=glorot(embed_dim, hidden, (embed_dim, hidden)),
        w_rec=glorot(hidden, hidden, (hidden, hidden)),
        b_rec=np.zeros(hidden),
        w_head=glorot(hidden, classes, (hidden, classes)),
        b_head=np.zeros(classes),
        dropout=dropout,
    )


def _check_sequence(params, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"expected a non-empty (n, d) sequence, got shape {x.shape}")
    if x.shape[1] != params.embed_dim:
        raise ShapeError(f"input width {x.shape[1]} does not match embed dim {params.embed_dim}")
    return x


def rnn_forward(params: RnnParams, x, train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, RnnTrace]:
    """Class distribution after exactly n recurrence steps from h_0 = 0."""
    x = _check_sequence(params, x)
    n = x.shape[0]
    hiddens = np.zeros((n, params.hidden))
    h = np.zeros(params.hidden)
    for t in range(n):
        h = sigmoid(x[t] @ params.w_in + h @ params.w_rec + params.b_rec)
        hiddens[t] = h
    mask = None
    if train and params.dropout > 0.0:
        if rng is None:
            raise ValueError("training forward pass with dropout requires an rng")
        mask = dropout_mask(params.hidden, params.dropout, rng)
    head_in = h * mask if mask is not None else h
    probs = softmax(head_in @ params.w_head + params.b_head)
    return probs, RnnTrace(x, hiddens, mask, head_in, probs)


def rnn_backward(params: RnnParams, trace: RnnTrace, label: int) -> dict[str, np.ndarray]:
    """Full backpropagation through time."""
    probs = trace.probs
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    hiddens = trace.hiddens
    n = hiddens.shape[0]
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    g_w_head = np.outer(trace.head_in, dlogits)
    g_b_head = dlogits
    dh = params.w_head @ dlogits
    if trace.drop_mask is not None:
        dh = dh * trace.drop_mask
    g_w_in = np.zeros_like(params.w_in)
    g_w_rec = np.zeros_like(params.w_rec)
    g_b_rec = np.zeros_like(params.b_rec)
    for t in reversed(range(n)):
        h_t = hiddens[t]
        dpre = dh * h_t * (1.0 - h_t)
        g_w_in += np.outer(trace.x[t], dpre)
        g_b_rec += dpre
        h_prev = hiddens[t - 1] if t > 0 else np.zeros_like(h_t)
        g_w_rec += np.outer(h_prev, dpre)
        dh = params.w_rec @ dpre
    return {
        "w_in": g_w_in,
        "w_rec": g_w_rec,
        "b_rec": g_b_rec,
        "w_head": g_w_head,
        "b_head": g_b_head,
    }


def _input_projection(params, xs):
    """x_t W_in for every step, as a C-contiguous (n, B, hidden) copy of the
    einsum, whose product is laid out (h, B, n): its step slices would read the
    hidden axis B*n entries apart, and a product written time-major would not
    give the same bits."""
    return np.ascontiguousarray(np.einsum("bnd,dh->nbh", xs, params.w_in, optimize=True))


def _batch_hiddens(params, hs):
    """Hidden states from h_0 = 0, each written over its step's projection in ``hs``."""
    h = np.zeros(hs.shape[1:])
    for t in range(hs.shape[0]):
        hs[t] += h @ params.w_rec
        hs[t] += params.b_rec
        h = sigmoid(hs[t], out=hs[t])
    return hs


def rnn_batch_probs(params: RnnParams, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    hs = _batch_hiddens(params, _input_projection(params, xs))
    return softmax_rows(hs[-1] @ params.w_head + params.b_head)


def rnn_batch_probs_hashed(params: RnnParams, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed one-hot index sequences (B, n)."""
    hs = _batch_hiddens(params, gather_rows(params.w_in, idx.T))
    return softmax_rows(hs[-1] @ params.w_head + params.b_head)


def _batch_grads(params, hs, labels, train, rng, input_grad):
    """Losses and the gradients of every tensor but ``w_in`` from the hidden states
    ``hs``; BPTT hands each step's pre-activation gradient to ``input_grad(t, dpre)``,
    last step first, and reads ``hs[t]`` no more after that call."""
    losses, g_w_head, g_b_head, dh = head_grads(
        hs[-1], params.w_head, params.b_head, labels, params.dropout, train, rng)
    g_w_rec = np.zeros_like(params.w_rec)
    g_b_rec = np.zeros_like(params.b_rec)
    for t in reversed(range(hs.shape[0])):
        dpre = dh * hs[t] * (1.0 - hs[t])
        input_grad(t, dpre)
        g_b_rec += dpre.sum(axis=0)
        if t == 0:
            break  # h_0 is the zero state: nothing left to propagate to
        g_w_rec += hs[t - 1].T @ dpre
        dh = dpre @ params.w_rec.T
    return losses, {"w_rec": g_w_rec, "b_rec": g_b_rec, "w_head": g_w_head, "b_head": g_b_head}


def rnn_batch_grads(params: RnnParams, xs: np.ndarray, labels: np.ndarray,
                    train: bool = True, rng: np.random.Generator | None = None,
                    want_dx: bool = False):
    """Per-example losses and batch-mean gradients for a (B, n, d) batch."""
    g_w_in = np.zeros_like(params.w_in)
    dx = np.empty_like(xs) if want_dx else None

    def input_grad(t, dpre):
        g_w_in[...] += xs[:, t, :].T @ dpre
        if want_dx:
            dx[:, t, :] = dpre @ params.w_in.T

    hs = _batch_hiddens(params, _input_projection(params, xs))
    losses, grads = _batch_grads(params, hs, labels, train, rng, input_grad)
    grads = {"w_in": g_w_in, **grads}
    return (losses, grads, dx) if want_dx else (losses, grads)


def rnn_batch_grads_hashed(params: RnnParams, idx: np.ndarray, labels: np.ndarray,
                           train: bool = True, rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences (B, n):
    the input projection is a row gather, its gradient a ``RowGrad``."""
    steps = idx.T
    hs = _batch_hiddens(params, gather_rows(params.w_in, steps))

    def input_grad(t, dpre):  # a spent step's slot keeps its gradient
        hs[t] = dpre

    losses, grads = _batch_grads(params, hs, labels, train, rng, input_grad)
    return losses, {"w_in": scatter_rows(hs, steps, params.w_in.shape), **grads}
