"""What the parameter classes share: the Glorot-uniform draw, the width and
dropout check, and a tensor table from which cnn, rnn and lstm derive the
list of their tensors."""

from typing import ClassVar

import numpy as np


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform draws of ``shape`` from +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def check_widths(dropout: float, *widths: int) -> None:
    if min(widths) < 1:
        raise ValueError("all widths must be at least 1")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")


class TensorTable:
    """Base of a parameter dataclass whose ``DIMS`` names each tensor field,
    in field order, with its axes; axes with one name have one size."""

    DIMS: ClassVar[dict[str, tuple[str, ...]]]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.DIMS}

    def dims(self) -> dict[str, tuple[str, ...]]:
        return dict(self.DIMS)

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], **hyper):
        """The parameter set of the ``DIMS`` tensors and the ``hyper`` fields."""
        return cls(**{name: tensors[name] for name in cls.DIMS}, **hyper)
