"""Float64 kernels shared by every model family.

A tensor here is simply a C-contiguous ``numpy.ndarray`` of rank 1 to 3
holding 64-bit floats; a ``RowGrad`` is a gradient that is zero outside some
rows of one.  All operations are pure functions of their inputs
(plus an explicit random generator where noise is involved), so values can
be shared read-only across threads; only ``sigmoid`` writes, and only into
an ``out`` its caller hands it.
"""

import math
from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def as_tensor(values) -> Tensor:
    """Coerce to a rank 1-3 float64 array."""
    out = np.asarray(values, dtype=np.float64)
    if not 1 <= out.ndim <= 3:
        raise ShapeError(f"tensor rank must be between 1 and 3, got {out.ndim}")
    return out


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


# flat targets per np.add.at call in ``row_sums``: a 256 KB index, one
# recurrent step of a 128-sentence batch at hidden width 256
_SCATTER_TARGETS = 1 << 15


def row_sums(values, slots, n) -> Tensor:
    """The ``n`` sums of the slices of ``values`` by slot: row j of the result
    adds each ``values[i]`` whose ``slots[i]`` is j, in input order
    (``np.add.at``), so it is bit-for-bit the row a dense scatter-add gives.

    ``values`` has the shape of ``slots`` (an integer array, any strides)
    followed by the slice's axes; the result has shape (n, *slice axes).
    """
    tail = values.shape[slots.ndim:]
    width = math.prod(tail)
    slots, values = slots.reshape(-1), values.reshape(slots.size, width)
    sums = np.zeros(n * width)
    offsets = np.arange(width)
    block = max(1, _SCATTER_TARGETS // width)
    # one flat index per entry: np.add.at runs far faster on a 1-D target.
    # Built for a block of entries at a time, the index stays small, and the
    # blocks go in order, so each bin still gets its terms in input order
    for lo in range(0, slots.size, block):
        targets = (slots[lo:lo + block, None] * width + offsets).reshape(-1)
        np.add.at(sums, targets, values[lo:lo + block].reshape(-1))
    return sums.reshape(n, *tail)


def scatter_rows(values, idx, shape) -> RowGrad:
    """Gradient of ``gather_rows(w, idx)`` for a ``shape`` tensor ``w``,
    given the gradient ``values`` of its result: the ``row_sums`` of each
    distinct index, the padding slot dropped.
    """
    rows, slots, pad = _distinct(idx)
    return RowGrad(rows[pad:], row_sums(values, slots, rows.size)[pad:], tuple(shape))


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
