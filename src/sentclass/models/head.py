"""The classifier head on top of the CNN, RNN and LSTM feature layers.

Inverted dropout (training only), a linear layer, softmax and
cross-entropy, with their backward pass, over a batch of feature rows.
"""

import numpy as np

from ..optim import PROB_CLAMP
from ..tensor import dropout_mask, softmax_rows


def head_grads(features, w, b, labels, dropout: float = 0.0, train: bool = False,
               rng: np.random.Generator | None = None):
    """Per-example losses of a (B, h) feature batch and the batch-mean gradients.

    Returns ``(losses, g_w, g_b, d_features)``; ``d_features`` is the gradient
    of the mean loss with respect to ``features``.  In training mode with
    dropout the mask is drawn from ``rng`` as one (B, h) block.
    """
    n = features.shape[0]
    mask = None
    if train and dropout > 0.0:
        if rng is None:
            raise ValueError("training forward pass with dropout requires an rng")
        mask = dropout_mask(features.shape, dropout, rng)
    head_in = features * mask if mask is not None else features
    probs = softmax_rows(head_in @ w + b)
    losses = -np.log(np.maximum(probs[np.arange(n), labels], PROB_CLAMP))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n  # mean gradient over the batch
    d_features = dlogits @ w.T
    if mask is not None:
        d_features = d_features * mask
    return losses, head_in.T @ dlogits, dlogits.sum(axis=0), d_features
