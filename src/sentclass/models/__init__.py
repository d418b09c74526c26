"""The four classifier families behind one table.

``FAMILIES`` maps each arch tag to everything the harness needs about that
family: its parameter and spec classes and the batched ``probs``/``grads``
functions that training, evaluation and prediction run.  All weights draw
from a symmetric uniform range of sqrt(6 / (fan_in + fan_out)); biases
start at zero except the LSTM forget gate, which starts at 1 so the memory
path is open from the first epoch.
"""

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, ClassVar, Union

from . import lstm, recurrent, rnn
from .cnn import (CnnParams, cnn_batch_grads, cnn_batch_grads_hashed, cnn_batch_probs,
                  cnn_batch_probs_hashed, init_cnn)
from .fnn import FnnParams, fnn_batch_loss_grads, fnn_batch_probs, init_fnn
from .lstm import LstmParams, init_lstm
from .rnn import RnnParams, init_rnn

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
    init: Callable
    probs: Callable
    grads: Callable
    input_table: str
    hashed_probs: Callable | None = None
    hashed_grads: Callable | None = None


def _recurrent(params, spec, init, cell) -> Family:
    """A family whose kernels are ``models.recurrent``'s, bound to ``cell``."""
    return Family(params, spec, init, partial(recurrent.batch_probs, cell),
                  partial(recurrent.batch_grads, cell), cell.INPUT,
                  partial(recurrent.batch_probs_hashed, cell),
                  partial(recurrent.batch_grads_hashed, cell))


FAMILIES = {
    "fnn": Family(FnnParams, FnnSpec, init_fnn, fnn_batch_probs, fnn_batch_loss_grads, "w0"),
    "cnn": Family(CnnParams, CnnSpec, init_cnn, cnn_batch_probs, cnn_batch_grads, "filters",
                  cnn_batch_probs_hashed, cnn_batch_grads_hashed),
    "rnn": _recurrent(RnnParams, RnnSpec, init_rnn, rnn),
    "lstm": _recurrent(LstmParams, LstmSpec, init_lstm, lstm),
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


__all__ = [
    "ModelParams", "Family", "FAMILIES",
    "FnnParams", "CnnParams", "RnnParams", "LstmParams",
    "FnnSpec", "CnnSpec", "RnnSpec", "LstmSpec",
    "init_params", "input_width",
    "init_fnn", "init_cnn", "init_rnn", "init_lstm",
]
