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


def _input_projections(params, xs):
    # all steps against the input weights up front (one big matmul per gate)
    return [np.einsum("bnd,dh->nbh", xs, getattr(params, f"wx_{gate}"), optimize=True)
            for gate in _GATES]


def _batch_cell(params, projections):
    # projections[k][t] = x_t Wx for gate _GATES[k], each (n, B, hidden)
    proj_i, proj_f, proj_o, proj_g = projections
    n, b, hid = proj_i.shape
    shape = (n, b, hid)
    gate_i = np.zeros(shape)
    gate_f = np.zeros(shape)
    gate_o = np.zeros(shape)
    cand = np.zeros(shape)
    cell = np.zeros(shape)
    hiddens = np.zeros(shape)
    h = np.zeros((b, hid))
    c = np.zeros((b, hid))
    for t in range(n):
        gate_i[t] = sigmoid(proj_i[t] + h @ params.wh_i + params.b_i)
        gate_f[t] = sigmoid(proj_f[t] + h @ params.wh_f + params.b_f)
        gate_o[t] = sigmoid(proj_o[t] + h @ params.wh_o + params.b_o)
        cand[t] = np.tanh(proj_g[t] + h @ params.wh_g + params.b_g)
        c = gate_i[t] * cand[t] + gate_f[t] * c
        cell[t] = c
        h = gate_o[t] * np.tanh(c)
        hiddens[t] = h
    return gate_i, gate_f, gate_o, cand, cell, hiddens


def lstm_batch_probs(params: LstmParams, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    *_, hiddens = _batch_cell(params, _input_projections(params, xs))
    return softmax_rows(hiddens[-1] @ params.w_head + params.b_head)


def lstm_batch_probs_hashed(params: LstmParams, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed one-hot index sequences (B, n)."""
    projections = [gather_rows(getattr(params, f"wx_{gate}"), idx.T) for gate in _GATES]
    *_, hiddens = _batch_cell(params, projections)
    return softmax_rows(hiddens[-1] @ params.w_head + params.b_head)


def _batch_grads(params, states, labels, train, rng, input_grad):
    """Losses and gradients from the ``_batch_cell`` states.  The input
    weights' gradients ``g["wx_*"]`` are left to ``input_grad(t, dpres, g)``,
    which BPTT hands each step's pre-activation gradients in ``_GATES``
    order, last step first."""
    gate_i, gate_f, gate_o, cand, cell, hiddens = states
    n, b, _ = hiddens.shape
    tanh_cell = np.tanh(cell)
    g = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    losses, g["w_head"], g["b_head"], dh = head_grads(
        hiddens[-1], params.w_head, params.b_head, labels, params.dropout, train, rng)
    dc = np.zeros((b, params.hidden))
    for t in reversed(range(n)):
        i_t, f_t, o_t = gate_i[t], gate_f[t], gate_o[t]
        u_t, tc_t = cand[t], tanh_cell[t]
        c_prev = cell[t - 1] if t > 0 else np.zeros_like(dc)
        h_prev = hiddens[t - 1] if t > 0 else np.zeros_like(dh)
        d_o = dh * tc_t
        dc = dc + dh * o_t * (1.0 - tc_t * tc_t)
        dpre_i = dc * u_t * i_t * (1.0 - i_t)
        dpre_f = dc * c_prev * f_t * (1.0 - f_t)
        dpre_o = d_o * o_t * (1.0 - o_t)
        dpre_u = dc * i_t * (1.0 - u_t * u_t)
        dc_next = dc * f_t
        input_grad(t, (dpre_i, dpre_f, dpre_o, dpre_u), g)
        for gate, dpre in zip(_GATES, (dpre_i, dpre_f, dpre_o, dpre_u)):
            g[f"wh_{gate}"] += h_prev.T @ dpre
            g[f"b_{gate}"] += dpre.sum(axis=0)
        dh = (dpre_i @ params.wh_i.T + dpre_f @ params.wh_f.T
              + dpre_o @ params.wh_o.T + dpre_u @ params.wh_g.T)
        dc = dc_next
    return losses, g


def lstm_batch_grads(params: LstmParams, xs: np.ndarray, labels: np.ndarray,
                     train: bool = True, rng: np.random.Generator | None = None,
                     want_dx: bool = False):
    """Per-example losses and batch-mean gradients for a (B, n, d) batch."""
    dx = np.zeros_like(xs) if want_dx else None

    def input_grad(t, dpres, g):
        xt = xs[:, t, :]
        for gate, dpre in zip(_GATES, dpres):
            g[f"wx_{gate}"] += xt.T @ dpre
        if want_dx:
            dpre_i, dpre_f, dpre_o, dpre_u = dpres
            dx[:, t, :] = (dpre_i @ params.wx_i.T + dpre_f @ params.wx_f.T
                           + dpre_o @ params.wx_o.T + dpre_u @ params.wx_g.T)

    states = _batch_cell(params, _input_projections(params, xs))
    losses, g = _batch_grads(params, states, labels, train, rng, input_grad)
    if want_dx:
        return losses, g, dx
    return losses, g


def lstm_batch_grads_hashed(params: LstmParams, idx: np.ndarray, labels: np.ndarray,
                            train: bool = True, rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences (B, n):
    the input projections are row gathers, their gradients ``RowGrad``s."""
    steps = idx.T
    dpres = np.empty((len(_GATES), *steps.shape, params.hidden))

    def input_grad(t, step_dpres, _):
        dpres[:, t] = step_dpres

    states = _batch_cell(params, [gather_rows(getattr(params, f"wx_{gate}"), steps)
                                  for gate in _GATES])
    losses, g = _batch_grads(params, states, labels, train, rng, input_grad)
    for gate, gate_dpres in zip(_GATES, dpres):
        g[f"wx_{gate}"] = scatter_rows(gate_dpres, steps, params.wx_i.shape)
    return losses, g
