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

from ..tensor import gather_rows, row_table, scatter_rows, sigmoid, softmax_rows
from .head import head_grads
from .params import TensorTable, check_widths, glorot


@dataclass
class RnnParams(TensorTable):
    arch: ClassVar[str] = "rnn"
    DIMS: ClassVar[dict] = {"w_in": ("embed", "hidden"), "w_rec": ("hidden", "hidden"),
                            "b_rec": ("hidden",), "w_head": ("hidden", "classes"),
                            "b_head": ("classes",)}
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


def init_rnn(embed_dim: int, classes: int, hidden: int, dropout: float, seed) -> RnnParams:
    check_widths(dropout, embed_dim, classes, hidden)
    rng = np.random.default_rng(seed)
    return RnnParams(
        w_in=glorot(rng, embed_dim, hidden, (embed_dim, hidden)),
        w_rec=glorot(rng, hidden, hidden, (hidden, hidden)),
        b_rec=np.zeros(hidden),
        w_head=glorot(rng, hidden, classes, (hidden, classes)),
        b_head=np.zeros(classes),
        dropout=dropout,
    )


def _input_projection(params, xs):
    """x_t W_in for every step, as a C-contiguous (n, B, hidden) copy of the
    einsum, whose product is laid out (h, B, n): its step slices would read the
    hidden axis B*n entries apart, and a product written time-major would not
    give the same bits."""
    return np.ascontiguousarray(np.einsum("bnd,dh->nbh", xs, params.w_in, optimize=True))


def _step(params, pre, h):
    """The hidden state after ``h``, written over its step's projection ``pre``."""
    pre += h @ params.w_rec
    pre += params.b_rec
    return sigmoid(pre, out=pre)


def _batch_hiddens(params, hs):
    """Hidden states from h_0 = 0, each written over its step's projection in ``hs``."""
    h = np.zeros(hs.shape[1:])
    for t in range(hs.shape[0]):
        h = _step(params, hs[t], h)
    return hs


def rnn_batch_probs(params: RnnParams, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    hs = _batch_hiddens(params, _input_projection(params, xs))
    return softmax_rows(hs[-1] @ params.w_head + params.b_head)


def rnn_batch_probs_hashed(params: RnnParams, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed index sequences (B, n), keeping one state."""
    table, slots, _, _ = row_table(params.w_in, idx)
    h = np.zeros((idx.shape[0], params.hidden))
    for t in range(idx.shape[1]):
        h = _step(params, table[slots[:, t]], h)
    return softmax_rows(h @ params.w_head + params.b_head)


def _batch_grads(params, hs, labels, train, rng):
    """Losses and the gradients of every tensor but ``w_in`` from the hidden states
    ``hs``.  BPTT overwrites each step's slot of ``hs`` with that step's
    pre-activation gradient once it has read the state there; ``hs`` then
    holds them all for the ``w_in`` gradient."""
    losses, g_w_head, g_b_head, dh = head_grads(
        hs[-1], params.w_head, params.b_head, labels, params.dropout, train, rng)
    g_w_rec = np.zeros_like(params.w_rec)
    g_b_rec = np.zeros_like(params.b_rec)
    for t in reversed(range(hs.shape[0])):
        dpre = dh * hs[t] * (1.0 - hs[t])
        hs[t] = dpre
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
    hs = _batch_hiddens(params, _input_projection(params, xs))
    losses, grads = _batch_grads(params, hs, labels, train, rng)
    g_w_in = np.zeros_like(params.w_in)
    dx = np.empty_like(xs) if want_dx else None
    for t in reversed(range(hs.shape[0])):
        g_w_in += xs[:, t, :].T @ hs[t]
        if want_dx:
            dx[:, t, :] = hs[t] @ params.w_in.T
    grads = {"w_in": g_w_in, **grads}
    return (losses, grads, dx) if want_dx else (losses, grads)


def rnn_batch_grads_hashed(params: RnnParams, idx: np.ndarray, labels: np.ndarray,
                           train: bool = True, rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences (B, n):
    the input projection is a row gather, its gradient a ``RowGrad``."""
    steps = idx.T
    hs = _batch_hiddens(params, gather_rows(params.w_in, steps))
    losses, grads = _batch_grads(params, hs, labels, train, rng)
    return losses, {"w_in": scatter_rows(hs, steps, params.w_in.shape), **grads}
