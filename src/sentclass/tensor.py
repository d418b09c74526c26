"""Float64 kernels shared by every model family.

A tensor here is simply a C-contiguous ``numpy.ndarray`` of rank 1 to 3
holding 64-bit floats; a ``RowGrad`` is a gradient that is zero outside some
rows of one.  All operations are pure functions of their inputs
(plus an explicit random generator where noise is involved), so values can
be shared read-only across threads; only ``sigmoid`` writes, and only into
an ``out`` its caller hands it.
"""

from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class SequenceTooShortError(ShapeError):
    """Input has fewer time steps than the convolution window."""


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator: identical seeds yield identical draws."""
    return np.random.default_rng(seed)


def as_tensor(values) -> Tensor:
    """Coerce to a rank 1-3 float64 array."""
    out = np.asarray(values, dtype=np.float64)
    if not 1 <= out.ndim <= 3:
        raise ShapeError(f"tensor rank must be between 1 and 3, got {out.ndim}")
    return out


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


def sigmoid(z, out=None) -> Tensor:
    """Element-wise logistic function 1 / (1 + exp(-z)), written to ``out``
    when given (it may be ``z`` itself).

    Both signs share e = exp(-|z|), which cannot overflow: the result is
    1 / (1 + e) where z >= 0 and e / (1 + e) below, with no branch per entry.
    -|z| is taken as min(z, -z), which keeps the sign of a NaN.
    """
    z = as_tensor(z)
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    top = np.where(z >= 0, 1.0, e)
    e += 1.0
    return np.divide(top, e, out=out)


def softmax(z) -> Tensor:
    """Probability vector exp(z_i) / sum_k exp(z_k), stabilised by max-subtraction."""
    z = as_tensor(z)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ShapeError(f"softmax expects a non-empty rank-1 tensor, got shape {z.shape}")
    e = np.exp(z - np.max(z))
    return e / e.sum()


def softmax_rows(z) -> Tensor:
    """Row-wise softmax of a batch of logit rows, each row stabilised by its maximum."""
    z = as_tensor(z)
    if z.ndim != 2:
        raise ShapeError(f"softmax_rows expects a rank-2 tensor, got shape {z.shape}")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class RowGrad:
    """Gradient of a ``shape`` tensor that is zero outside some of its rows.

    A row is a slice along axis 0; ``rows`` holds their sorted indices and
    ``values`` the slices, so ``full[g.rows]`` lines up with ``values``.
    ``np.asarray`` and indexing give the dense gradient; ``adagrad_step`` and
    ``sgd_step`` update only the rows.
    """

    rows: np.ndarray
    values: Tensor
    shape: tuple

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows] = self.values
        return dense

    def __getitem__(self, key):
        return np.asarray(self)[key]


def _distinct(idx):
    # sorted distinct indices (pad -1 first when present) and each entry's slot
    rows, slots = np.unique(idx, return_inverse=True)
    if rows.size and rows[0] < -1:  # numpy would read it as a row from the end
        raise IndexError(f"index {rows[0]} is neither a row nor the pad -1")
    return rows, slots.reshape(idx.shape), int(rows.size > 0 and rows[0] < 0)


def row_table(w, idx):
    """``(table, slots, rows, pad)`` for reading the rows of ``w`` (slices
    along axis 0) that an integer index array picks, -1 meaning a zero row.

    ``rows`` are the sorted distinct indices and ``table`` a fresh copy of
    those rows, ``table[:pad]`` being the zero slot of -1 when ``pad`` is 1;
    ``slots`` gives each entry's row of ``table``, so ``table[slots]`` is the
    gather.  A table with no rows admits only -1.
    """
    rows, slots, pad = _distinct(idx)
    if not len(w):  # no row to read: pad is the only index there can be
        if rows.size > pad:
            raise IndexError(f"index {rows[pad]} is out of bounds for a table with no rows")
        w = np.zeros((1, *w.shape[1:]))
    table = w[rows]  # copies the used rows only; the pad slot reads the last row, zeroed below
    table[:pad] = 0.0
    return table, slots, rows, pad


def gather_rows(w, idx) -> Tensor:
    """Rows of ``w`` picked by an integer index array, zero where the index
    is -1: the product of hashed one-hot rows, carried as indices, with ``w``.

    The result has shape ``idx.shape`` followed by the other axes of ``w``,
    and is a fresh array.
    """
    table, slots, _, _ = row_table(w, idx)
    return table[slots]


def scatter_rows(values, idx, shape) -> RowGrad:
    """Gradient of ``gather_rows(w, idx)`` for a ``shape`` tensor ``w``,
    given the gradient ``values`` of its result.

    The entries of ``values`` are summed per distinct index in input order
    (``np.add.at``), so each row is bit-for-bit the row a dense scatter-add
    gives; the padding slot is dropped.
    """
    rows, slots, pad = _distinct(idx)
    flat = values.reshape(idx.size, -1)
    width = flat.shape[1]
    # one flat index per entry: np.add.at runs far faster on a 1-D target,
    # and each entry still receives its terms in input order
    targets = (slots.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    sums = np.zeros(rows.size * width)
    np.add.at(sums, targets, flat.reshape(-1))
    return RowGrad(rows[pad:], sums.reshape(rows.size, *shape[1:])[pad:], tuple(shape))


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


def dropout_mask(shape, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout mask of ``shape`` (a length or a tuple): entries are 0
    with probability p, else 1/(1-p).

    Each entry has expectation 1, so evaluation needs no rescaling.  A
    (B, h) mask draws the same stream as B masks of length h in turn.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if np.any(np.asarray(shape) < 0):
        raise ValueError(f"mask shape must be non-negative, got {shape}")
    keep = rng.random(shape) >= p
    return keep.astype(np.float64) / (1.0 - p)
