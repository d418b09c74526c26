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

from ..tensor import (ShapeError, dropout_mask, gather_rows, scatter_rows, sigmoid, softmax,
                      softmax_rows)
from .head import head_grads

_GATES = ("i", "f", "o", "g")


@dataclass
class LstmParams:
    arch: ClassVar[str] = "lstm"
    wx: np.ndarray  # (embed_dim, 4 * hidden), the gates side by side in _GATES order
    wh: np.ndarray  # (hidden, 4 * hidden)
    b: np.ndarray  # (4 * hidden,)
    w_head: np.ndarray  # (hidden, classes)
    b_head: np.ndarray
    dropout: float = 0.1

    def __post_init__(self):
        # dims() names the gate axis, but cannot say that it is four hidden widths
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

    def tensors(self) -> dict[str, np.ndarray]:
        return {"wx": self.wx, "wh": self.wh, "b": self.b,
                "w_head": self.w_head, "b_head": self.b_head}

    def dims(self) -> dict[str, tuple[str, ...]]:
        """Each tensor's axes by name; axes with one name have one size."""
        return {"wx": ("embed", "gates"), "wh": ("hidden", "gates"), "b": ("gates",),
                "w_head": ("hidden", "classes"), "b_head": ("classes",)}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], dropout: float = 0.1) -> "LstmParams":
        return cls(dropout=dropout,
                   **{k: tensors[k] for k in ("wx", "wh", "b", "w_head", "b_head")})


@dataclass
class LstmTrace:
    x: np.ndarray
    gate_i: np.ndarray  # (n, hidden) each
    gate_f: np.ndarray
    gate_o: np.ndarray
    cand: np.ndarray
    cell: np.ndarray
    tanh_cell: np.ndarray
    hiddens: np.ndarray
    drop_mask: np.ndarray | None
    head_in: np.ndarray
    probs: np.ndarray


def init_lstm(embed_dim: int, classes: int, hidden: int = 256, dropout: float = 0.1,
              seed=0) -> LstmParams:
    """Glorot-uniform gate weights; biases zero except the forget gate at 1.

    Each gate's (d, h) and (h, h) blocks are drawn in turn, in ``_GATES``
    order, into its columns of ``wx`` and ``wh``."""
    if min(embed_dim, classes, hidden) < 1:
        raise ValueError("all widths must be at least 1")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    wx, wh = np.empty((embed_dim, 4 * hidden)), np.empty((hidden, 4 * hidden))
    for wx_gate, wh_gate in zip(np.split(wx, 4, axis=1), np.split(wh, 4, axis=1)):
        wx_gate[...] = glorot(embed_dim, hidden, (embed_dim, hidden))
        wh_gate[...] = glorot(hidden, hidden, (hidden, hidden))
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0  # a forget-gate bias of 1 keeps early memory open
    w_head = glorot(hidden, classes, (hidden, classes))
    return LstmParams(wx=wx, wh=wh, b=b, w_head=w_head, b_head=np.zeros(classes),
                      dropout=dropout)


def lstm_forward(params: LstmParams, x, train: bool = False,
                 rng: np.random.Generator | None = None) -> tuple[np.ndarray, LstmTrace]:
    """Class distribution after running the cell over all n steps from zero state."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"expected a non-empty (n, d) sequence, got shape {x.shape}")
    if x.shape[1] != params.embed_dim:
        raise ShapeError(f"input width {x.shape[1]} does not match embed dim {params.embed_dim}")
    n = x.shape[0]
    hid = params.hidden
    wx_i, wx_f, wx_o, wx_g = np.split(params.wx, 4, axis=1)
    wh_i, wh_f, wh_o, wh_g = np.split(params.wh, 4, axis=1)
    b_i, b_f, b_o, b_g = np.split(params.b, 4)
    gate_i = np.zeros((n, hid))
    gate_f = np.zeros((n, hid))
    gate_o = np.zeros((n, hid))
    cand = np.zeros((n, hid))
    cell = np.zeros((n, hid))
    hiddens = np.zeros((n, hid))
    h = np.zeros(hid)
    c = np.zeros(hid)
    for t in range(n):
        xt = x[t]
        gate_i[t] = sigmoid(xt @ wx_i + h @ wh_i + b_i)
        gate_f[t] = sigmoid(xt @ wx_f + h @ wh_f + b_f)
        gate_o[t] = sigmoid(xt @ wx_o + h @ wh_o + b_o)
        cand[t] = np.tanh(xt @ wx_g + h @ wh_g + b_g)
        c = gate_i[t] * cand[t] + gate_f[t] * c
        cell[t] = c
        h = gate_o[t] * np.tanh(c)
        hiddens[t] = h
    tanh_cell = np.tanh(cell)
    mask = None
    if train and params.dropout > 0.0:
        if rng is None:
            raise ValueError("training forward pass with dropout requires an rng")
        mask = dropout_mask(hid, params.dropout, rng)
    head_in = h * mask if mask is not None else h
    probs = softmax(head_in @ params.w_head + params.b_head)
    trace = LstmTrace(x, gate_i, gate_f, gate_o, cand, cell, tanh_cell, hiddens,
                      mask, head_in, probs)
    return probs, trace


def lstm_backward(params: LstmParams, trace: LstmTrace, label: int) -> dict[str, np.ndarray]:
    """Cross-entropy gradients for all gates, accumulated through time."""
    probs = trace.probs
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    n = trace.hiddens.shape[0]
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    g = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    g["w_head"] = np.outer(trace.head_in, dlogits)
    g["b_head"] = dlogits
    # each gate's gradient accumulates in its columns of the side-by-side tensors
    g_wx, g_wh, g_b = (np.split(g[name], 4, axis=-1) for name in ("wx", "wh", "b"))
    wh = np.split(params.wh, 4, axis=1)
    dh = params.w_head @ dlogits
    if trace.drop_mask is not None:
        dh = dh * trace.drop_mask
    dc = np.zeros(params.hidden)
    for t in reversed(range(n)):
        i_t, f_t, o_t = trace.gate_i[t], trace.gate_f[t], trace.gate_o[t]
        u_t, tc_t = trace.cand[t], trace.tanh_cell[t]
        c_prev = trace.cell[t - 1] if t > 0 else np.zeros(params.hidden)
        h_prev = trace.hiddens[t - 1] if t > 0 else np.zeros(params.hidden)
        d_o = dh * tc_t
        dc = dc + dh * o_t * (1.0 - tc_t * tc_t)
        d_i = dc * u_t
        d_u = dc * i_t
        d_f = dc * c_prev
        dc_next = dc * f_t
        dpres = (d_i * i_t * (1.0 - i_t), d_f * f_t * (1.0 - f_t),
                 d_o * o_t * (1.0 - o_t), d_u * (1.0 - u_t * u_t))
        xt = trace.x[t]
        for k, dpre in enumerate(dpres):
            g_wx[k] += np.outer(xt, dpre)
            g_wh[k] += np.outer(h_prev, dpre)
            g_b[k] += dpre
        dh = wh[0] @ dpres[0] + wh[1] @ dpres[1] + wh[2] @ dpres[2] + wh[3] @ dpres[3]
        dc = dc_next
    return g


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
