"""LSTM sentence classifier.

Per step, from x_t, h_{t-1} and c_{t-1}:

    gate_i = logistic(x_t Wx_i + h_{t-1} Wh_i + b_i)      input gate
    gate_f = logistic(x_t Wx_f + h_{t-1} Wh_f + b_f)      forget gate
    gate_o = logistic(x_t Wx_o + h_{t-1} Wh_o + b_o)      output gate
    cand   = tanh(x_t Wx_g + h_{t-1} Wh_g + b_g)          candidate memory
    c_t    = gate_i * cand + gate_f * c_{t-1}
    h_t    = gate_o * tanh(c_t)

The last hidden state feeds the same dropout-plus-linear-softmax head as
the simple recurrent model.  Backpropagation through time is exact.

The four gates are stored side by side in ``_GATES`` order: ``wx`` is
(d, 4h), ``wh`` (h, 4h) and ``b`` (4h), and gate k owns columns k*h to
(k+1)*h of each.  The batched kernels hold a batch's gates in one
C-contiguous (n, B, 4h) buffer.  It starts as the input projections; each
step adds one (B, h)@(h, 4h) recurrent product and overwrites its slice with
the gate values; backpropagation reads them and overwrites the spent slice
with that step's pre-activation gradients, from which one product per step
gives the gradient of h_{t-1}.  The weight gradients are then products over
all steps at once: ``wh``'s with K = (n-1)B, ``wx``'s with K = nB (or one
row scatter for hashed rows).
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tensor import ShapeError, gather_rows, scatter_rows, sigmoid, softmax_rows
from .head import head_grads
from .params import TensorTable, check_widths, glorot

_GATES = ("i", "f", "o", "g")


@dataclass
class LstmParams(TensorTable):
    arch: ClassVar[str] = "lstm"
    DIMS: ClassVar[dict] = {"wx": ("embed", "gates"), "wh": ("hidden", "gates"),
                            "b": ("gates",), "w_head": ("hidden", "classes"),
                            "b_head": ("classes",)}
    wx: np.ndarray  # (embed_dim, 4 * hidden), the gates side by side in _GATES order
    wh: np.ndarray  # (hidden, 4 * hidden)
    b: np.ndarray  # (4 * hidden,)
    w_head: np.ndarray  # (hidden, classes)
    b_head: np.ndarray
    dropout: float = 0.1

    def __post_init__(self):
        # DIMS names the gate axis, but cannot say that it is four hidden widths
        shape = np.shape(self.wh)
        if len(shape) == 2 and shape[1] != 4 * shape[0]:
            raise ShapeError(f"tensor 'wh' has shape {list(shape)}: "
                             f"its gate axis must be 4 x hidden = {4 * shape[0]}")

    @property
    def hidden(self) -> int:
        return self.wh.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.wx.shape[0]

    @property
    def classes(self) -> int:
        return self.w_head.shape[1]


def init_lstm(embed_dim: int, classes: int, hidden: int, dropout: float, seed) -> LstmParams:
    """Glorot-uniform gate weights; biases zero except the forget gate at 1.

    Each gate's (d, h) and (h, h) blocks are drawn in turn, in ``_GATES``
    order, into its columns of ``wx`` and ``wh``."""
    check_widths(dropout, embed_dim, classes, hidden)
    rng = np.random.default_rng(seed)
    wx, wh = np.empty((embed_dim, 4 * hidden)), np.empty((hidden, 4 * hidden))
    for wx_gate, wh_gate in zip(np.split(wx, 4, axis=1), np.split(wh, 4, axis=1)):
        wx_gate[...] = glorot(rng, embed_dim, hidden, (embed_dim, hidden))
        wh_gate[...] = glorot(rng, hidden, hidden, (hidden, hidden))
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0  # a forget-gate bias of 1 keeps early memory open
    w_head = glorot(rng, hidden, classes, (hidden, classes))
    return LstmParams(wx=wx, wh=wh, b=b, w_head=w_head, b_head=np.zeros(classes),
                      dropout=dropout)


def _input_projections(params, xs):
    """x_t Wx for every step, as a fresh (n, B, 4h) gate buffer: one (B, d)@(d, 4h)
    product per step, reading ``xs[:, t]`` in place and writing its slice."""
    return np.matmul(xs.transpose(1, 0, 2), params.wx)


def _batch_cell(params, gates):
    """Run the cell from zero state over the gate buffer ``gates``; each step adds
    its recurrent product and the bias to its slice, then overwrites it with
    logistic i, f, o and the tanh candidate.  Returns ``(gates, cells, hiddens)``."""
    n, b, width = gates.shape
    hid = width // 4
    cells, hiddens = np.empty((2, n, b, hid))
    c = np.zeros((b, hid))
    recurrent = np.empty((b, width))
    for t in range(n):
        z = gates[t]
        if t:  # h_0 is the zero state
            z += np.matmul(hiddens[t - 1], params.wh, out=recurrent)
        z += params.b
        sigmoid(z[:, :3 * hid], out=z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
        gate_i, gate_f, gate_o, cand = np.split(z, 4, axis=1)
        c = np.add(gate_i * cand, gate_f * c, out=cells[t])
        np.multiply(gate_o, np.tanh(c), out=hiddens[t])
    return gates, cells, hiddens


def lstm_batch_probs(params: LstmParams, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    *_, hiddens = _batch_cell(params, _input_projections(params, xs))
    return softmax_rows(hiddens[-1] @ params.w_head + params.b_head)


def lstm_batch_probs_hashed(params: LstmParams, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed one-hot index sequences (B, n)."""
    *_, hiddens = _batch_cell(params, gather_rows(params.wx, idx.T))
    return softmax_rows(hiddens[-1] @ params.w_head + params.b_head)


def _batch_grads(params, states, labels, train, rng):
    """Losses and the gradients of every tensor but ``wx`` from the ``_batch_cell``
    states.  BPTT overwrites each step's slot of the gate buffer with that step's
    pre-activation gradients, in ``_GATES`` order, once it has read the gates
    there; the buffer then holds them all for the ``wx`` gradient."""
    gates, cells, hiddens = states
    n, b, hid = cells.shape
    losses, g_w_head, g_b_head, dh = head_grads(
        hiddens[-1], params.w_head, params.b_head, labels, params.dropout, train, rng)
    dc = np.zeros((b, hid))
    for t in reversed(range(n)):
        z = gates[t]
        i_t, f_t, o_t, u_t = np.split(z, 4, axis=1)
        tc_t = np.tanh(cells[t])
        c_prev = cells[t - 1] if t > 0 else np.zeros_like(dc)
        d_o = dh * tc_t
        dc = dc + dh * o_t * (1.0 - tc_t * tc_t)
        dpres = (dc * u_t * i_t * (1.0 - i_t), dc * c_prev * f_t * (1.0 - f_t),
                 d_o * o_t * (1.0 - o_t), dc * i_t * (1.0 - u_t * u_t))
        dc = dc * f_t
        np.concatenate(dpres, axis=1, out=z)
        if t:  # h_0 is the zero state: nothing left to propagate to
            dh = z @ params.wh.T
    dpre = gates.reshape(n * b, -1)
    g_wh = hiddens[:-1].reshape(-1, hid).T @ dpre[b:]
    return losses, {"wh": g_wh, "b": dpre.sum(axis=0), "w_head": g_w_head, "b_head": g_b_head}


def lstm_batch_grads(params: LstmParams, xs: np.ndarray, labels: np.ndarray,
                     train: bool = True, rng: np.random.Generator | None = None,
                     want_dx: bool = False):
    """Per-example losses and batch-mean gradients for a (B, n, d) batch."""
    gates = _input_projections(params, xs)
    losses, g = _batch_grads(params, _batch_cell(params, gates), labels, train, rng)
    n, b, _ = gates.shape
    dpre = gates.reshape(n * b, -1)
    g = {"wx": xs.transpose(1, 0, 2).reshape(n * b, -1).T @ dpre, **g}
    if not want_dx:
        return losses, g
    dx = (dpre @ params.wx.T).reshape(n, b, -1).transpose(1, 0, 2)
    return losses, g, np.ascontiguousarray(dx)


def lstm_batch_grads_hashed(params: LstmParams, idx: np.ndarray, labels: np.ndarray,
                            train: bool = True, rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences (B, n): the
    input projections are one row gather from ``wx``, its gradient one
    ``RowGrad`` from one scatter."""
    steps = idx.T
    gates = gather_rows(params.wx, steps)
    losses, g = _batch_grads(params, _batch_cell(params, gates), labels, train, rng)
    return losses, {"wx": scatter_rows(gates, steps, params.wx.shape), **g}
