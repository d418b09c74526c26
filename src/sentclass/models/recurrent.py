"""The batched kernels of both recurrent families, around a cell.

The RNN and the LSTM differ only in their cell: the same input rows feed a
recurrence from the zero state, and its last hidden state feeds the shared
head.  Each kernel takes the cell module first.  A cell names its input
table ``INPUT``, (d, G) for a step width G, and supplies:

- ``step(params, z, state)``: the state after ``state`` (None: the zero
  state), a tuple led by the (B, h) hidden state; it overwrites ``z``, a
  fresh (B, G) step projection;
- ``unroll(params, buf)``: the same recurrence in place over the (n, B, G)
  projections of all steps, returning ``(buf, ..., hiddens)``;
- ``bptt(params, states, dh)``: the recurrent and bias gradients, leaving
  each step's pre-activation gradient in its slot of ``buf``.

So the projection is one stacked product for embedding rows or one row
gather for hashed rows, and the input-weight gradient one K = nB product
or one row scatter.  Eval keeps one state: each step projects its inputs.
"""

import numpy as np

from ..tensor import gather_rows, row_table, scatter_rows, softmax_rows
from .head import head_grads


def _grads(cell, params, buf, labels, train, rng):
    """Losses and the gradients of every tensor but the input table, from the
    step projections ``buf``, which then hold the pre-activation gradients."""
    states = cell.unroll(params, buf)
    losses, g_w_head, g_b_head, dh = head_grads(
        states[-1][-1], params.w_head, params.b_head, labels, params.dropout, train, rng)
    return losses, {**cell.bptt(params, states, dh), "w_head": g_w_head, "b_head": g_b_head}


def _probs(cell, params, steps):
    """Eval-mode distributions from an iterable of fresh (B, G) step projections."""
    state = None
    for z in steps:
        state = cell.step(params, z, state)
    return softmax_rows(state[0] @ params.w_head + params.b_head)


def batch_probs(cell, params, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    w = getattr(params, cell.INPUT)
    return _probs(cell, params, (xs[:, t] @ w for t in range(xs.shape[1])))


def batch_probs_hashed(cell, params, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed one-hot index sequences (B, n)."""
    table, slots, _, _ = row_table(getattr(params, cell.INPUT), idx)
    return _probs(cell, params, (table[s] for s in slots.T))


def batch_grads(cell, params, xs: np.ndarray, labels: np.ndarray, train: bool = True,
                rng: np.random.Generator | None = None, want_dx: bool = False):
    """Per-example losses and batch-mean gradients for a (B, n, d) batch; with
    ``want_dx`` also the (B, n, d) gradient of the mean loss in ``xs``."""
    w = getattr(params, cell.INPUT)
    # one (B, d)@(d, G) product per step, reading xs[:, t] in place and
    # writing its slice of a fresh (n, B, G) buffer
    buf = np.matmul(xs.transpose(1, 0, 2), w)
    losses, grads = _grads(cell, params, buf, labels, train, rng)
    n, b, _ = buf.shape
    dpre = buf.reshape(n * b, -1)
    grads = {cell.INPUT: xs.transpose(1, 0, 2).reshape(n * b, -1).T @ dpre, **grads}
    if not want_dx:
        return losses, grads
    dx = (dpre @ w.T).reshape(n, b, -1).transpose(1, 0, 2)
    return losses, grads, np.ascontiguousarray(dx)


def batch_grads_hashed(cell, params, idx: np.ndarray, labels: np.ndarray, train: bool = True,
                       rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences (B, n): the
    projections are one row gather from the input table, its gradient one
    ``RowGrad`` from one scatter."""
    w, steps = getattr(params, cell.INPUT), idx.T
    buf = gather_rows(w, steps)
    losses, grads = _grads(cell, params, buf, labels, train, rng)
    return losses, {cell.INPUT: scatter_rows(buf, steps, w.shape), **grads}
