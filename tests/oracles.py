"""Per-example reference implementation that the tests hold the package to.

Training, evaluation and prediction run the batched kernels in
``sentclass.models``; nothing here is on those paths.  This module states
the same computations one sentence at a time, as plainly as possible:

- the forward and backward pass of each family, with the trace the
  backward pass reads (``forward``/``backward`` dispatch on the arch tag)
- the tensor ops those passes use: window convolution, ReLU, max-over-time
  pooling, the vector softmax and a seeded generator
- cross-entropy and a central-difference gradient checker
- each encoder's output for one sentence: embedding rows, hashed one-hot
  indices and hashed count vectors
"""

import math
from dataclasses import dataclass

import numpy as np

from sentclass.embeddings import EmbeddingTable
from sentclass.models import (CnnParams, FnnParams, LstmParams, RnnParams, _family)
from sentclass.models.head import PROB_CLAMP
from sentclass.tensor import ShapeError, Tensor, as_tensor, dropout_mask, sigmoid
from sentclass.text import PAD_TOKEN, hash_index

# ---------------------------------------------------------------------------
# Tensor ops.
# ---------------------------------------------------------------------------


class SequenceTooShortError(ShapeError):
    """Input has fewer time steps than the convolution window."""


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator: identical seeds yield identical draws."""
    return np.random.default_rng(seed)


def conv1d_wgram(x, filters, bias) -> Tensor:
    """Window convolution over time.

    ``x`` is an n-by-d sequence of row vectors, ``filters`` an o-by-d-by-w
    bank, ``bias`` an o-vector.  Output row t, column i is

        sum_j sum_k filters[i, j, k] * x[t + k, j] + bias[i]

    with t ranging over the n-w+1 window positions.
    """
    x, filters, bias = as_tensor(x), as_tensor(filters), as_tensor(bias)
    if x.ndim != 2 or filters.ndim != 3 or bias.ndim != 1:
        raise ShapeError(
            f"expected ranks (2, 3, 1), got ({x.ndim}, {filters.ndim}, {bias.ndim})"
        )
    n, d = x.shape
    o, fd, w = filters.shape
    if fd != d:
        raise ShapeError(f"filter depth {fd} does not match input width {d}")
    if bias.shape[0] != o:
        raise ShapeError(f"bias length {bias.shape[0]} does not match {o} filters")
    if n < w:
        raise SequenceTooShortError(f"sequence of {n} rows is shorter than window {w}")
    # windows[t, j, k] = x[t + k, j]
    windows = np.lib.stride_tricks.sliding_window_view(x, w, axis=0)
    return np.einsum("tjk,ijk->ti", windows, filters, optimize=True) + bias


def relu(y) -> Tensor:
    """Element-wise max(y, 0)."""
    return np.maximum(as_tensor(y), 0.0)


def softmax(z) -> Tensor:
    """Probability vector exp(z_i) / sum_k exp(z_k), stabilised by max-subtraction."""
    z = as_tensor(z)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ShapeError(f"softmax expects a non-empty rank-1 tensor, got shape {z.shape}")
    e = np.exp(z - np.max(z))
    return e / e.sum()


def max_pool_time(y):
    """Column-wise maximum over time rows.

    Returns ``(pooled, argmax)`` where ``pooled[i]`` is the maximum of
    column i and ``argmax[i]`` the earliest row attaining it (ties resolve
    to the smallest row so gradient routing is deterministic).
    """
    y = as_tensor(y)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ShapeError(f"max_pool_time expects a rank-2 tensor with rows, got shape {y.shape}")
    argmax = np.argmax(y, axis=0)  # first occurrence == earliest time index
    pooled = y[argmax, np.arange(y.shape[1])]
    return pooled, argmax


# ---------------------------------------------------------------------------
# Loss and gradient checking.
# ---------------------------------------------------------------------------


def cross_entropy(probs, label: int) -> float:
    """Negative log-probability of the true class, clamped at 1e-15."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    return -math.log(max(float(probs[label]), PROB_CLAMP))


def grad_check(loss_fn, grad_fn, params: dict[str, np.ndarray], eps: float = 1e-5,
               max_coords: int = 1000, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn()`` evaluates the scalar loss at the current parameter values;
    ``grad_fn()`` returns the analytic gradient dict.  Every coordinate is
    probed, or a seeded random subset when there are more than
    ``max_coords``.  Run in eval mode (no dropout) so the objective is
    deterministic.
    """
    grads = grad_fn()
    coords = [(name, i) for name, t in sorted(params.items()) for i in range(t.size)]
    if len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in chosen]
    worst = 0.0
    for name, flat_index in coords:
        values = params[name].reshape(-1)
        original = values[flat_index]
        values[flat_index] = original + eps
        f_plus = loss_fn()
        values[flat_index] = original - eps
        f_minus = loss_fn()
        values[flat_index] = original
        numeric = (f_plus - f_minus) / (2.0 * eps)
        analytic = float(grads[name].reshape(-1)[flat_index])
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Encoders, one sentence at a time.
# ---------------------------------------------------------------------------


def pad_or_truncate(tokens: list[str], max_len: int) -> list[str]:
    """Force a sequence to exactly max_len tokens.

    Longer sequences keep their head (question cues cluster at the start);
    shorter ones are right-padded.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if len(tokens) >= max_len:
        return list(tokens[:max_len])
    return list(tokens) + [PAD_TOKEN] * (max_len - len(tokens))


def count_vector(tokens: list[str], dim: int) -> np.ndarray:
    """Hashed unigram counts: slot hash_index(token, dim) incremented per token.

    Padding tokens do not contribute.
    """
    if dim < 2:
        raise ValueError(f"count vector dimension must be at least 2, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        if token != PAD_TOKEN:
            vec[hash_index(token, dim)] += 1.0
    return vec


def lookup_matrix(table: EmbeddingTable, tokens: list[str]) -> np.ndarray:
    """Stack embedding rows for a token sequence into an n-by-d matrix."""
    if not tokens:
        raise ValueError("token sequence is empty")
    out = np.zeros((len(tokens), table.dim), dtype=np.float64)
    for i, token in enumerate(tokens):
        out[i] = table.vector(token)
    return out


def embedding_rows(encoder, tokens) -> np.ndarray:
    """The (max_len, d) rows a ``DenseSequenceEncoder`` gives one sentence."""
    return lookup_matrix(encoder.table, pad_or_truncate(tokens, encoder.max_len))


def hashed_indices(encoder, tokens) -> np.ndarray:
    """The index row (pad = -1) a ``HashedSequenceEncoder`` gives one sentence."""
    padded = pad_or_truncate(tokens, encoder.max_len)
    return np.array(
        [-1 if t == PAD_TOKEN else hash_index(t, encoder.dim) for t in padded],
        dtype=np.int64,
    )


def densify(idx, dim) -> np.ndarray:
    """Explicit one-hot rows for index sequences (pad = -1): the rows that
    hashed one-hot indices stand for."""
    dense = np.zeros((*idx.shape, dim))
    where = np.nonzero(idx >= 0)
    dense[(*where, idx[where])] = 1.0
    return dense


def counts(encoder, tokens) -> np.ndarray:
    """The dense count vector of one sentence under a ``CountEncoder``."""
    return count_vector(encoder.vocab.keep(tokens), encoder.dim)


# ---------------------------------------------------------------------------
# Feed-forward network.
# ---------------------------------------------------------------------------


@dataclass
class FnnTrace:
    activations: list[np.ndarray]  # input, hidden outputs, probs
    probs: np.ndarray


def fnn_forward(params: FnnParams, x, train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, FnnTrace]:
    """Class distribution for one input vector.

    The FNN has no dropout: ``train`` and ``rng`` change nothing and keep the
    per-example calling convention of the other families.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != params.weights[0].shape[0]:
        raise ShapeError(
            f"input shape {x.shape} does not match first layer "
            f"({params.weights[0].shape[0]},)"
        )
    activations = [x]
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = softmax(z) if i == last else sigmoid(z)
        activations.append(a)
    return a, FnnTrace(activations=activations, probs=a)


def fnn_backward(params: FnnParams, trace: FnnTrace, label: int) -> dict[str, np.ndarray]:
    """Cross-entropy gradients for every layer."""
    probs = trace.probs
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    if len(trace.activations) != len(params.weights) + 1:
        raise ShapeError("trace does not match parameter depth")
    dz = probs.copy()
    dz[label] -= 1.0  # softmax + cross-entropy
    grads: dict[str, np.ndarray] = {}
    for i in reversed(range(len(params.weights))):
        a_prev = trace.activations[i]
        grads[f"w{i}"] = np.outer(a_prev, dz)
        grads[f"b{i}"] = dz.copy()
        if i > 0:
            da = params.weights[i] @ dz
            a = trace.activations[i]
            dz = da * a * (1.0 - a)  # logistic derivative
    return grads


# ---------------------------------------------------------------------------
# Convolutional network.
# ---------------------------------------------------------------------------


@dataclass
class CnnTrace:
    x: np.ndarray
    conv_pre: np.ndarray  # pre-ReLU convolution output
    relu_out: np.ndarray
    pool_argmax: np.ndarray
    pooled: np.ndarray
    fc_pre: np.ndarray
    fc_act: np.ndarray
    drop_mask: np.ndarray | None
    head_in: np.ndarray
    probs: np.ndarray


def cnn_forward(params: CnnParams, x, train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, CnnTrace]:
    """Class distribution for one n-by-d sentence matrix."""
    x = np.asarray(x, dtype=np.float64)
    conv_pre = conv1d_wgram(x, params.filters.transpose(2, 0, 1), params.conv_bias)
    relu_out = relu(conv_pre)
    pooled, pool_argmax = max_pool_time(relu_out)
    fc_pre = pooled @ params.w_fc + params.b_fc
    fc_act = np.maximum(fc_pre, 0.0)
    mask = None
    if train and params.dropout > 0.0:
        if rng is None:
            raise ValueError("training forward pass with dropout requires an rng")
        mask = dropout_mask(fc_act.shape[0], params.dropout, rng)
    head_in = fc_act * mask if mask is not None else fc_act
    probs = softmax(head_in @ params.w_out + params.b_out)
    trace = CnnTrace(x, conv_pre, relu_out, pool_argmax, pooled, fc_pre, fc_act,
                     mask, head_in, probs)
    return probs, trace


def cnn_backward(params: CnnParams, trace: CnnTrace, label: int) -> dict[str, np.ndarray]:
    """Cross-entropy gradients for all CNN parameters.

    The pooling layer routes gradient only to the argmax time positions
    recorded in the trace.
    """
    probs = trace.probs
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    g_w_out = np.outer(trace.head_in, dlogits)
    g_b_out = dlogits
    d_head_in = params.w_out @ dlogits
    d_fc_act = d_head_in * trace.drop_mask if trace.drop_mask is not None else d_head_in
    d_fc_pre = d_fc_act * (trace.fc_pre > 0.0)
    g_w_fc = np.outer(trace.pooled, d_fc_pre)
    g_b_fc = d_fc_pre
    d_pooled = params.w_fc @ d_fc_pre
    d_relu = np.zeros_like(trace.relu_out)
    d_relu[trace.pool_argmax, np.arange(d_relu.shape[1])] = d_pooled
    d_conv = d_relu * (trace.conv_pre > 0.0)
    window = params.window
    # windows[t, j, k] = x[t + k, j]
    windows = np.lib.stride_tricks.sliding_window_view(trace.x, window, axis=0)
    g_filters = np.einsum("ti,tjk->jki", d_conv, windows, optimize=True)
    g_conv_bias = d_conv.sum(axis=0)
    return {
        "filters": g_filters,
        "conv_bias": g_conv_bias,
        "w_fc": g_w_fc,
        "b_fc": g_b_fc,
        "w_out": g_w_out,
        "b_out": g_b_out,
    }


# ---------------------------------------------------------------------------
# Elman recurrent network.
# ---------------------------------------------------------------------------


@dataclass
class RnnTrace:
    x: np.ndarray
    hiddens: np.ndarray  # (n, hidden)
    drop_mask: np.ndarray | None
    head_in: np.ndarray
    probs: np.ndarray


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


# ---------------------------------------------------------------------------
# LSTM; the parameters hold the gates side by side in i, f, o, g order.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Dispatch on the arch tag.
# ---------------------------------------------------------------------------

_REFERENCE = {
    "fnn": (FnnTrace, fnn_forward, fnn_backward),
    "cnn": (CnnTrace, cnn_forward, cnn_backward),
    "rnn": (RnnTrace, rnn_forward, rnn_backward),
    "lstm": (LstmTrace, lstm_forward, lstm_backward),
}


def forward(params, x, train: bool = False, rng: np.random.Generator | None = None):
    """Class distribution of one example plus the trace ``backward`` needs."""
    _family(params)
    return _REFERENCE[params.arch][1](params, x, train, rng)


def backward(params, trace, label: int) -> dict[str, np.ndarray]:
    """Cross-entropy gradients of one example, keyed like ``params.tensors()``."""
    _family(params)
    trace_type, _, backward_fn = _REFERENCE[params.arch]
    if not isinstance(trace, trace_type):
        raise TypeError(
            f"trace {type(trace).__name__} does not match {type(params).__name__}"
        )
    return backward_fn(params, trace, label)
