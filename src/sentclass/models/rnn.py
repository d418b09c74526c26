"""Elman recurrent cell, run by ``models.recurrent``.

Hidden state recurrence h_t = logistic(x_t W_in + h_{t-1} W_rec + b); the
last hidden state feeds a dropout-regularised linear head with softmax.
Backpropagation through time is exact (no truncation).  Each hidden state
is written in place over its step's (B, hidden) projection slice.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tensor import sigmoid
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


INPUT = "w_in"


def step(params, z, state):
    """Write the hidden state after ``state`` (None: the zero state) over its
    step's projection ``z``; the new state is ``(h,)``."""
    if state is not None:
        z += state[0] @ params.w_rec
    z += params.b_rec
    return (sigmoid(z, out=z),)


def unroll(params, hs):
    """Hidden states from the zero state, each written over its step's
    projection in ``hs``."""
    state = None
    for z in hs:
        state = step(params, z, state)
    return (hs,)


def bptt(params, states, dh):
    """The ``w_rec`` and ``b_rec`` gradients.  Each step's slot of ``hs`` takes
    that step's pre-activation gradient once the state there is read."""
    (hs,) = states
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
    return {"w_rec": g_w_rec, "b_rec": g_b_rec}
