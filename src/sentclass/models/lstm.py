"""LSTM sentence classifier.

Per step, from x_t, h_{t-1} and c_{t-1}:

    gate_i = logistic(x_t Wx_i + h_{t-1} Wh_i + b_i)      input gate
    gate_f = logistic(x_t Wx_f + h_{t-1} Wh_f + b_f)      forget gate
    gate_o = logistic(x_t Wx_o + h_{t-1} Wh_o + b_o)      output gate
    cand   = tanh(x_t Wx_g + h_{t-1} Wh_g + b_g)          candidate memory
    c_t    = gate_i * cand + gate_f * c_{t-1}
    h_t    = gate_o * tanh(c_t)

The last hidden state feeds the same dropout-plus-linear-softmax head as
the simple recurrent model, and ``models.recurrent`` runs both cells.
Backpropagation through time is exact.

The four gates are stored side by side in ``_GATES`` order: ``wx`` is
(d, 4h), ``wh`` (h, 4h) and ``b`` (4h), and gate k owns columns k*h to
(k+1)*h of each.  So a step is one (B, h)@(h, 4h) recurrent product into
its (B, 4h) slice, and backward one product per step for the gradient of
h_{t-1} and one over all steps, K = (n-1)B, for ``wh``'s.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tensor import ShapeError, sigmoid
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


INPUT = "wx"


def step(params, z, state, out=(None, None, None)):
    """The state ``(h, c)`` after ``state`` (None: the zero state).  The step's
    projection ``z`` takes the recurrent product, the bias and then the gate
    values; ``out`` holds optional buffers for h, c and the recurrent product."""
    h, c = state if state is not None else (None, 0.0)
    h_out, c_out, recurrent = out
    hid = z.shape[1] // 4
    if h is not None:
        z += np.matmul(h, params.wh, out=recurrent)
    z += params.b
    sigmoid(z[:, :3 * hid], out=z[:, :3 * hid])
    np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
    gate_i, gate_f, gate_o, cand = np.split(z, 4, axis=1)
    c = np.add(gate_i * cand, gate_f * c, out=c_out)
    return np.multiply(gate_o, np.tanh(c), out=h_out), c


def unroll(params, gates):
    """Run the cell from the zero state over the gate buffer ``gates``, each
    step's slice overwritten with its gate values.  Returns ``(gates, cells,
    hiddens)``."""
    n, b, width = gates.shape
    cells, hiddens = np.empty((2, n, b, width // 4))
    state, recurrent = None, np.empty((b, width))
    for t in range(n):
        state = step(params, gates[t], state, out=(hiddens[t], cells[t], recurrent))
    return gates, cells, hiddens


def bptt(params, states, dh):
    """The ``wh`` and ``b`` gradients.  Each step's slot of the gate buffer
    takes that step's pre-activation gradients, in ``_GATES`` order, once the
    gates there are read."""
    gates, cells, hiddens = states
    n, b, hid = cells.shape
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
    return {"wh": g_wh, "b": dpre.sum(axis=0)}
