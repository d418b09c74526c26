"""The four classifier families behind one table.

``FAMILIES`` maps each arch tag to everything the harness needs about that
family.  Its batched ``probs``/``grads`` functions are the implementation
that training, evaluation and prediction run; the per-example
``forward``/``backward`` functions are the reference the tests compare
them against.  All weights draw from a symmetric uniform range of
sqrt(6 / (fan_in + fan_out)); biases start at zero except the LSTM forget
gate, which starts at 1 so the memory path is open from the first epoch.
"""

from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Union

import numpy as np

from .cnn import (CnnParams, CnnTrace, cnn_backward, cnn_batch_grads, cnn_batch_grads_hashed,
                  cnn_batch_probs, cnn_batch_probs_hashed, cnn_forward, init_cnn)
from .fnn import (FnnParams, FnnTrace, fnn_backward, fnn_batch_loss_grads, fnn_batch_probs,
                  fnn_forward, init_fnn)
from .lstm import (LstmParams, LstmTrace, init_lstm, lstm_backward, lstm_batch_grads,
                   lstm_batch_grads_hashed, lstm_batch_probs, lstm_batch_probs_hashed,
                   lstm_forward)
from .rnn import (RnnParams, RnnTrace, init_rnn, rnn_backward, rnn_batch_grads,
                  rnn_batch_grads_hashed, rnn_batch_probs, rnn_batch_probs_hashed, rnn_forward)

ModelParams = Union[FnnParams, CnnParams, RnnParams, LstmParams]


@dataclass(frozen=True)
class FnnSpec:
    arch: ClassVar[str] = "fnn"
    layer_sizes: tuple[int, ...]  # input width, hidden widths..., classes


@dataclass(frozen=True)
class CnnSpec:
    arch: ClassVar[str] = "cnn"
    embed_dim: int
    classes: int
    n_filters: int = 256
    window: int = 3
    hidden: int = 128
    dropout: float = 0.1


@dataclass(frozen=True)
class RnnSpec:
    arch: ClassVar[str] = "rnn"
    embed_dim: int
    classes: int
    hidden: int = 256
    dropout: float = 0.1


@dataclass(frozen=True)
class LstmSpec:
    arch: ClassVar[str] = "lstm"
    embed_dim: int
    classes: int
    hidden: int = 256
    dropout: float = 0.1


@dataclass(frozen=True)
class Family:
    """One architecture's classes and functions.

    ``init(**spec fields, seed=...)`` builds a parameter set.  The batched
    functions share one calling convention: ``probs(params, xs)`` gives
    eval-mode class distributions, one row per example, and
    ``grads(params, xs, labels, train, rng)`` gives per-example losses and
    batch-mean gradients keyed like ``params.tensors()``.  For cnn, rnn and
    lstm these are dense kernels on (B, n, d) embedding rows; only they take
    ``want_dx=True``, which also returns the input gradient that fine-tuning
    scatters onto the embedding matrix.  ``hashed_probs``/``hashed_grads``
    take hashed one-hot index sequences (pad = -1) and return the gradient of
    the weights those rows multiply as a ``tensor.RowGrad``.  The fnn's
    ``probs``/``grads`` take hashed count index rows (pad = -1, a repeated
    index is a count) and give ``w0`` a ``RowGrad``.  ``input_table`` names
    the tensor whose axis 0 an input row's width sizes: the rows that
    hashed inputs pick.
    """

    params: type
    spec: type
    trace: type
    init: Callable
    probs: Callable
    grads: Callable
    forward: Callable
    backward: Callable
    input_table: str
    hashed_probs: Callable | None = None
    hashed_grads: Callable | None = None


FAMILIES = {
    "fnn": Family(FnnParams, FnnSpec, FnnTrace, init_fnn, fnn_batch_probs,
                  fnn_batch_loss_grads, fnn_forward, fnn_backward, "w0"),
    "cnn": Family(CnnParams, CnnSpec, CnnTrace, init_cnn, cnn_batch_probs,
                  cnn_batch_grads, cnn_forward, cnn_backward, "filters",
                  cnn_batch_probs_hashed, cnn_batch_grads_hashed),
    "rnn": Family(RnnParams, RnnSpec, RnnTrace, init_rnn, rnn_batch_probs,
                  rnn_batch_grads, rnn_forward, rnn_backward, "w_in",
                  rnn_batch_probs_hashed, rnn_batch_grads_hashed),
    "lstm": Family(LstmParams, LstmSpec, LstmTrace, init_lstm, lstm_batch_probs,
                   lstm_batch_grads, lstm_forward, lstm_backward, "wx",
                   lstm_batch_probs_hashed, lstm_batch_grads_hashed),
}


def _family(obj) -> Family:
    family = FAMILIES.get(getattr(obj, "arch", None))
    if family is None or not isinstance(obj, (family.params, family.spec)):
        raise TypeError(f"unknown architecture object {type(obj).__name__}")
    return family


def init_params(spec, seed) -> ModelParams:
    """Deterministic parameter initialization for any architecture spec."""
    return _family(spec).init(**asdict(spec), seed=seed)


def input_width(params: ModelParams) -> int:
    """Width of the input rows ``params`` read (one-hot, count or embedding)."""
    return params.tensors()[_family(params).input_table].shape[0]


def forward(params: ModelParams, x, train: bool = False,
            rng: np.random.Generator | None = None):
    """Per-example reference: class distribution plus the trace ``backward`` needs."""
    return _family(params).forward(params, x, train, rng)


def backward(params: ModelParams, trace, label: int) -> dict[str, np.ndarray]:
    """Per-example reference: cross-entropy gradients keyed like ``tensors()``."""
    family = _family(params)
    if not isinstance(trace, family.trace):
        raise TypeError(
            f"trace {type(trace).__name__} does not match {type(params).__name__}"
        )
    return family.backward(params, trace, label)


__all__ = [
    "ModelParams", "Family", "FAMILIES",
    "FnnParams", "CnnParams", "RnnParams", "LstmParams",
    "FnnSpec", "CnnSpec", "RnnSpec", "LstmSpec",
    "FnnTrace", "CnnTrace", "RnnTrace", "LstmTrace",
    "init_params", "input_width", "forward", "backward",
    "init_fnn", "init_cnn", "init_rnn", "init_lstm",
    "fnn_forward", "cnn_forward", "rnn_forward", "lstm_forward",
    "fnn_backward", "cnn_backward", "rnn_backward", "lstm_backward",
]
