"""LSTM sentence classifier.

Per step, from x_t, h_{t-1} and c_{t-1}:

    gate_i = logistic(x_t Wx_i + h_{t-1} Wh_i + b_i)      input gate
    gate_f = logistic(x_t Wx_f + h_{t-1} Wh_f + b_f)      forget gate
    gate_o = logistic(x_t Wx_o + h_{t-1} Wh_o + b_o)      output gate
    cand   = tanh(x_t Wx_g + h_{t-1} Wh_g + b_g)          candidate memory
    c_t    = gate_i * cand + gate_f * c_{t-1}
    h_t    = gate_o * tanh(c_t)

The last hidden state feeds the same dropout-plus-linear-softmax head as
the simple recurrent model.  Backpropagation through time is exact.  The
batched kernels hold a batch's gates in one C-contiguous (n, B, 4h) buffer in
``_GATES`` order: it starts as the input projections and each step overwrites
its slice in place with the gate values, which backpropagation then reads.
"""

from dataclasses import dataclass
from functools import reduce
from typing import ClassVar

import numpy as np

from ..tensor import (RowGrad, ShapeError, dropout_mask, gather_rows, scatter_rows, sigmoid,
                      softmax, softmax_rows)
from .head import head_grads

_GATES = ("i", "f", "o", "g")


@dataclass
class LstmParams:
    arch: ClassVar[str] = "lstm"
    wx_i: np.ndarray  # (embed_dim, hidden) per gate
    wh_i: np.ndarray  # (hidden, hidden) per gate
    b_i: np.ndarray
    wx_f: np.ndarray
    wh_f: np.ndarray
    b_f: np.ndarray
    wx_o: np.ndarray
    wh_o: np.ndarray
    b_o: np.ndarray
    wx_g: np.ndarray
    wh_g: np.ndarray
    b_g: np.ndarray
    w_head: np.ndarray  # (hidden, classes)
    b_head: np.ndarray
    dropout: float = 0.1

    @property
    def hidden(self) -> int:
        return self.wh_i.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.wx_i.shape[0]

    @property
    def classes(self) -> int:
        return self.w_head.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for gate in _GATES:
            out[f"wx_{gate}"] = getattr(self, f"wx_{gate}")
            out[f"wh_{gate}"] = getattr(self, f"wh_{gate}")
            out[f"b_{gate}"] = getattr(self, f"b_{gate}")
        out["w_head"] = self.w_head
        out["b_head"] = self.b_head
        return out

    def dims(self) -> dict[str, tuple[str, ...]]:
        """Each tensor's axes by name; axes with one name have one size."""
        out = {}
        for gate in _GATES:
            out[f"wx_{gate}"] = ("embed", "hidden")
            out[f"wh_{gate}"] = ("hidden", "hidden")
            out[f"b_{gate}"] = ("hidden",)
        return {**out, "w_head": ("hidden", "classes"), "b_head": ("classes",)}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], dropout: float = 0.1) -> "LstmParams":
        return cls(dropout=dropout, **{k: tensors[k] for k in
                                       [f"{p}_{g}" for g in _GATES for p in ("wx", "wh", "b")]
                                       + ["w_head", "b_head"]})


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
    """Glorot-uniform gate weights; biases zero except the forget gate at 1."""
    if min(embed_dim, classes, hidden) < 1:
        raise ValueError("all widths must be at least 1")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    fields = {}
    for gate in _GATES:
        fields[f"wx_{gate}"] = glorot(embed_dim, hidden, (embed_dim, hidden))
        fields[f"wh_{gate}"] = glorot(hidden, hidden, (hidden, hidden))
        # forget-gate bias of 1 keeps early memory open, the rest start at 0
        fields[f"b_{gate}"] = np.ones(hidden) if gate == "f" else np.zeros(hidden)
    fields["w_head"] = glorot(hidden, classes, (hidden, classes))
    fields["b_head"] = np.zeros(classes)
    return LstmParams(dropout=dropout, **fields)


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
        gate_i[t] = sigmoid(xt @ params.wx_i + h @ params.wh_i + params.b_i)
        gate_f[t] = sigmoid(xt @ params.wx_f + h @ params.wh_f + params.b_f)
        gate_o[t] = sigmoid(xt @ params.wx_o + h @ params.wh_o + params.b_o)
        cand[t] = np.tanh(xt @ params.wx_g + h @ params.wh_g + params.b_g)
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
        dpre_i = d_i * i_t * (1.0 - i_t)
        dpre_f = d_f * f_t * (1.0 - f_t)
        dpre_o = d_o * o_t * (1.0 - o_t)
        dpre_u = d_u * (1.0 - u_t * u_t)
        xt = trace.x[t]
        for gate, dpre in zip(_GATES, (dpre_i, dpre_f, dpre_o, dpre_u)):
            g[f"wx_{gate}"] += np.outer(xt, dpre)
            g[f"wh_{gate}"] += np.outer(h_prev, dpre)
            g[f"b_{gate}"] += dpre
        dh = (params.wh_i @ dpre_i + params.wh_f @ dpre_f
              + params.wh_o @ dpre_o + params.wh_g @ dpre_u)
        dc = dc_next
    return g


def _gate_tensors(params, prefix):
    return [getattr(params, f"{prefix}_{gate}") for gate in _GATES]


def _input_projections(params, xs):
    """x_t Wx for every step and gate, as a fresh gate buffer.  Each gate's einsum is
    copied in: laid out (h, B, n), its step slices would read the hidden axis B*n
    entries apart, and a time-major product would not give the same bits."""
    b, n, _ = xs.shape
    out = np.empty((n, b, 4 * params.hidden))
    for cols, wx in zip(np.split(out, 4, axis=2), _gate_tensors(params, "wx")):
        cols[...] = np.einsum("bnd,dh->nbh", xs, wx, optimize=True)
    return out


def _backprop(dpres, weights):
    # sum over the gates of dpre @ W.T, added in _GATES order
    return reduce(np.add, [dpre @ w.T for dpre, w in zip(dpres, weights)])


def _batch_cell(params, gates):
    """Run the cell from zero state over the gate buffer ``gates``; each step overwrites
    its slice with logistic i, f, o and the tanh candidate.  Returns ``(gates, cells,
    hiddens)``.  Each gate's recurrent product goes into its own columns: one
    (B, h)@(h, 4h) product does not give the same bits at every width."""
    n, b, width = gates.shape
    hid = width // 4
    wh = _gate_tensors(params, "wh")
    bias = np.concatenate(_gate_tensors(params, "b"))
    cells, hiddens = np.empty((2, n, b, hid))
    h = c = np.zeros((b, hid))
    recurrent = np.empty((b, width))
    for t in range(n):
        for w, cols in zip(wh, np.split(recurrent, 4, axis=1)):
            np.matmul(h, w, out=cols)
        z = gates[t]
        z += recurrent
        z += bias
        sigmoid(z[:, :3 * hid], out=z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
        gate_i, gate_f, gate_o, cand = np.split(z, 4, axis=1)
        c = np.add(gate_i * cand, gate_f * c, out=cells[t])
        h = np.multiply(gate_o, np.tanh(c), out=hiddens[t])
    return gates, cells, hiddens


def lstm_batch_probs(params: LstmParams, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    *_, hiddens = _batch_cell(params, _input_projections(params, xs))
    return softmax_rows(hiddens[-1] @ params.w_head + params.b_head)


def lstm_batch_probs_hashed(params: LstmParams, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed one-hot index sequences (B, n)."""
    *_, hiddens = _batch_cell(params, gather_rows(_gate_tensors(params, "wx"), idx.T))
    return softmax_rows(hiddens[-1] @ params.w_head + params.b_head)


def _batch_grads(params, states, labels, train, rng, input_grad):
    """Losses and the gradients of every tensor but the ``wx_*`` from the ``_batch_cell``
    states.  BPTT hands each step's pre-activation gradients, in ``_GATES`` order and
    last step first, to ``input_grad(t, dpres)``, and reads that step's gates no more."""
    gates, cells, hiddens = states
    n, b, hid = cells.shape
    wh = _gate_tensors(params, "wh")
    g_wh = [np.zeros_like(w) for w in wh]
    g_b = [np.zeros(hid) for _ in _GATES]
    losses, g_w_head, g_b_head, dh = head_grads(
        hiddens[-1], params.w_head, params.b_head, labels, params.dropout, train, rng)
    dc = np.zeros((b, hid))
    for t in reversed(range(n)):
        i_t, f_t, o_t, u_t = np.split(gates[t], 4, axis=1)
        tc_t = np.tanh(cells[t])
        c_prev = cells[t - 1] if t > 0 else np.zeros_like(dc)
        d_o = dh * tc_t
        dc = dc + dh * o_t * (1.0 - tc_t * tc_t)
        dpres = (dc * u_t * i_t * (1.0 - i_t), dc * c_prev * f_t * (1.0 - f_t),
                 d_o * o_t * (1.0 - o_t), dc * i_t * (1.0 - u_t * u_t))
        dc = dc * f_t
        input_grad(t, dpres)
        for g, dpre in zip(g_b, dpres):
            g += dpre.sum(axis=0)
        if t == 0:
            break  # h_0 is the zero state: nothing left to propagate to
        for g, dpre in zip(g_wh, dpres):
            g += hiddens[t - 1].T @ dpre
        dh = _backprop(dpres, wh)
    grads = {f"{kind}_{gate}": g for kind, gs in (("wh", g_wh), ("b", g_b))
             for gate, g in zip(_GATES, gs)}
    return losses, {**grads, "w_head": g_w_head, "b_head": g_b_head}


def lstm_batch_grads(params: LstmParams, xs: np.ndarray, labels: np.ndarray,
                     train: bool = True, rng: np.random.Generator | None = None,
                     want_dx: bool = False):
    """Per-example losses and batch-mean gradients for a (B, n, d) batch."""
    wx = _gate_tensors(params, "wx")
    g_wx = [np.zeros_like(w) for w in wx]
    dx = np.empty_like(xs) if want_dx else None

    def input_grad(t, dpres):
        xt = xs[:, t, :]
        for g, dpre in zip(g_wx, dpres):
            g += xt.T @ dpre
        if want_dx:
            dx[:, t, :] = _backprop(dpres, wx)

    states = _batch_cell(params, _input_projections(params, xs))
    losses, g = _batch_grads(params, states, labels, train, rng, input_grad)
    g = {**{f"wx_{gate}": g_w for gate, g_w in zip(_GATES, g_wx)}, **g}
    return (losses, g, dx) if want_dx else (losses, g)


def lstm_batch_grads_hashed(params: LstmParams, idx: np.ndarray, labels: np.ndarray,
                            train: bool = True, rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences (B, n):
    the input projections are one row gather from the four ``wx_*`` side by
    side, their gradients ``RowGrad``s from one scatter."""
    steps = idx.T
    gates, cells, hiddens = _batch_cell(params, gather_rows(_gate_tensors(params, "wx"), steps))

    def input_grad(t, dpres):  # a spent step's gate slot keeps its gradients
        np.concatenate(dpres, axis=1, out=gates[t])

    losses, g = _batch_grads(params, (gates, cells, hiddens), labels, train, rng, input_grad)
    wx = scatter_rows(gates, steps, (params.embed_dim, gates.shape[2]))
    g_wx = {f"wx_{gate}": RowGrad(wx.rows, values, params.wx_i.shape)
            for gate, values in zip(_GATES, np.split(wx.values, 4, axis=1))}
    return losses, {**g_wx, **g}
