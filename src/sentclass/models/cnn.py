"""Convolutional sentence classifier.

Pipeline per example: window convolution over the embedding rows, ReLU,
max-over-time pooling, a ReLU fully connected layer with inverted dropout
(training only), then a linear layer with softmax.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tensor import (RowGrad, conv1d_wgram, dropout_mask, max_pool_time, relu, row_table,
                      softmax, softmax_rows)
from .head import head_grads


@dataclass
class CnnParams:
    arch: ClassVar[str] = "cnn"
    filters: np.ndarray  # (embed_dim, window, n_filters): one input row per embed index
    conv_bias: np.ndarray  # (n_filters,)
    w_fc: np.ndarray  # (n_filters, hidden)
    b_fc: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden, classes)
    b_out: np.ndarray  # (classes,)
    dropout: float = 0.1

    @property
    def window(self) -> int:
        return self.filters.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.filters.shape[0]

    @property
    def n_filters(self) -> int:
        return self.filters.shape[2]

    @property
    def hidden(self) -> int:
        return self.w_fc.shape[1]

    @property
    def classes(self) -> int:
        return self.w_out.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "filters": self.filters,
            "conv_bias": self.conv_bias,
            "w_fc": self.w_fc,
            "b_fc": self.b_fc,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    def dims(self) -> dict[str, tuple[str, ...]]:
        """Each tensor's axes by name; axes with one name have one size."""
        return {"filters": ("embed", "window", "filters"), "conv_bias": ("filters",),
                "w_fc": ("filters", "hidden"), "b_fc": ("hidden",),
                "w_out": ("hidden", "classes"), "b_out": ("classes",)}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], dropout: float = 0.1) -> "CnnParams":
        return cls(dropout=dropout, **{k: tensors[k] for k in
                                       ("filters", "conv_bias", "w_fc", "b_fc", "w_out", "b_out")})


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


# filters drawn per block in ``init_cnn``: small enough that a block's draw is
# cheap to hold beside the bank, large enough that the loop costs nothing
_INIT_BLOCK = 16


def init_cnn(embed_dim: int, classes: int, n_filters: int = 256, window: int = 3,
             hidden: int = 128, dropout: float = 0.1, seed=0) -> CnnParams:
    """Glorot-uniform weights (conv fan-in is embed_dim * window), zero biases.

    The filter bank takes the draws in filter-major (n_filters, embed_dim,
    window) order, block by block, and stores each block transposed, so a
    seed gives the same weights in either layout.
    """
    if min(embed_dim, classes, n_filters, window, hidden) < 1:
        raise ValueError("all widths must be at least 1")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    filters = np.empty((embed_dim, window, n_filters))
    for lo in range(0, n_filters, _INIT_BLOCK):
        block = glorot(embed_dim * window, n_filters,
                       (min(_INIT_BLOCK, n_filters - lo), embed_dim, window))
        filters[:, :, lo:lo + len(block)] = block.transpose(1, 2, 0)
    return CnnParams(
        filters=filters,
        conv_bias=np.zeros(n_filters),
        w_fc=glorot(n_filters, hidden, (n_filters, hidden)),
        b_fc=np.zeros(hidden),
        w_out=glorot(hidden, classes, (hidden, classes)),
        b_out=np.zeros(classes),
        dropout=dropout,
    )


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
# Batched implementation: what training, evaluation and prediction run.  The
# per-example functions above are its reference; the batch-equivalence tests
# pin one to the other.
# ---------------------------------------------------------------------------


def _pool_batch(relu_out):
    argmax = relu_out.argmax(axis=1)  # (B, o), first maximum
    pooled = np.take_along_axis(relu_out, argmax[:, None, :], axis=1)[:, 0, :]
    return pooled, argmax


def _unpool_batch(shape, argmax, d_pooled):
    d_relu = np.zeros(shape)
    b, _, o = shape
    d_relu[np.arange(b)[:, None], argmax, np.arange(o)[None, :]] = d_pooled
    return d_relu


def _probs_from_conv(params, conv_pre):
    # max commutes with ReLU, and np.maximum(x, 0.0) never gives -0.0: the
    # same bits as _pool_batch without the argmax that only backward needs
    pooled = np.maximum(conv_pre.max(axis=1), 0.0)
    fc_act = np.maximum(pooled @ params.w_fc + params.b_fc, 0.0)
    return softmax_rows(fc_act @ params.w_out + params.b_out)


def _grads_from_conv(params, conv_pre, labels, train, rng):
    """Losses, the gradients of every tensor but the filters, and the mean-loss
    gradient at the pre-ReLU convolution output of a batch."""
    # a named local on purpose: freed before the backward pass, this array
    # left a heap hole that raised cnn-onehot's peak RSS by about 10 MB
    relu_out = np.maximum(conv_pre, 0.0)
    pooled, argmax = _pool_batch(relu_out)
    fc_pre = pooled @ params.w_fc + params.b_fc
    losses, g_w_out, g_b_out, d_fc_act = head_grads(
        np.maximum(fc_pre, 0.0), params.w_out, params.b_out, labels,
        params.dropout, train, rng)
    d_fc_pre = d_fc_act * (fc_pre > 0.0)
    d_conv = _unpool_batch(conv_pre.shape, argmax, d_fc_pre @ params.w_fc.T)
    d_conv *= conv_pre > 0.0
    grads = dict(conv_bias=d_conv.sum(axis=(0, 1)), w_fc=pooled.T @ d_fc_pre,
                 b_fc=d_fc_pre.sum(axis=0), w_out=g_w_out, b_out=g_b_out)
    return losses, grads, d_conv


def _dense_conv(params, xs):
    # windows[b, t, j, k] = xs[b, t + k, j]
    windows = np.lib.stride_tricks.sliding_window_view(xs, params.window, axis=1)
    conv_pre = np.einsum("btjk,jki->bti", windows, params.filters, optimize=True)
    conv_pre += params.conv_bias
    return conv_pre, windows


def cnn_batch_probs(params: CnnParams, xs: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for a (B, n, d) batch."""
    conv_pre, _ = _dense_conv(params, xs)
    return _probs_from_conv(params, conv_pre)


def cnn_batch_grads(params: CnnParams, xs: np.ndarray, labels: np.ndarray,
                    train: bool = True, rng: np.random.Generator | None = None,
                    want_dx: bool = False):
    """Per-example losses and batch-mean gradients for a (B, n, d) batch.

    With ``want_dx`` also returns the gradient with respect to the input
    rows (used when embeddings are fine-tuned).
    """
    conv_pre, windows = _dense_conv(params, xs)
    losses, grads, d_conv = _grads_from_conv(params, conv_pre, labels, train, rng)
    grads["filters"] = np.einsum("bti,btjk->jki", d_conv, windows, optimize=True)
    if not want_dx:
        return losses, grads
    t_steps = conv_pre.shape[1]
    dx = np.zeros_like(xs)
    for k in range(params.window):
        # a C-contiguous (o, d) operand: a strided one moves the product's bits
        dx[:, k:k + t_steps, :] += d_conv @ np.ascontiguousarray(params.filters[:, k, :].T)
    return losses, grads, dx


# Hashed one-hot inputs: a one-hot row times the filter bank is a read of one
# bank row, a (window, n_filters) slice, so sentences travel as index
# sequences (pad = -1), the convolution never materialises the one-hot
# matrix and the filter gradient holds only the rows a batch touched.


def _hashed_conv(params, idx):
    """Pre-ReLU convolution of a batch, and the distinct-row lookup it read:
    ``(conv_pre, (slots, rows, pad))`` as ``tensor.row_table`` gives them."""
    table, slots, rows, pad = row_table(params.filters, idx)
    t_steps = idx.shape[1] - params.window + 1
    conv_pre = np.zeros((idx.shape[0], t_steps, params.n_filters))
    for k in range(params.window):
        conv_pre += table[slots[:, k:k + t_steps], k]
    conv_pre += params.conv_bias
    return conv_pre, (slots, rows, pad)


def _hashed_filter_grad(params, d_conv, lookup) -> RowGrad:
    """The filter gradient of a hashed batch from the gradient at the
    convolution output: for each offset k, each touched row's slice k sums
    the d_conv rows of the windows that read it.

    ``np.bincount`` adds each bin's terms in input order, as ``np.add.at``
    does, so each entry is bit-for-bit a dense scatter-add of the batch.
    """
    slots, rows, pad = lookup
    t_steps, width = d_conv.shape[1], params.n_filters
    sums = np.empty((rows.size, params.window, width))
    terms = d_conv.reshape(-1)
    for k in range(params.window):
        targets = (slots[:, k:k + t_steps, None] * width + np.arange(width)).reshape(-1)
        sums[:, k, :] = np.bincount(targets, terms, rows.size * width).reshape(-1, width)
    return RowGrad(rows[pad:], sums[pad:], params.filters.shape)


def cnn_batch_probs_hashed(params: CnnParams, idx: np.ndarray) -> np.ndarray:
    """Eval-mode distributions for hashed one-hot index sequences (B, n)."""
    return _probs_from_conv(params, _hashed_conv(params, idx)[0])


def cnn_batch_grads_hashed(params: CnnParams, idx: np.ndarray, labels: np.ndarray,
                           train: bool = True, rng: np.random.Generator | None = None):
    """Losses and mean gradients for hashed one-hot index sequences; the
    filter gradient is a ``RowGrad`` over the bank's embed rows."""
    conv_pre, lookup = _hashed_conv(params, idx)
    losses, grads, d_conv = _grads_from_conv(params, conv_pre, labels, train, rng)
    grads["filters"] = _hashed_filter_grad(params, d_conv, lookup)
    return losses, grads
