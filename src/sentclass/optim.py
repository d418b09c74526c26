"""Optimizers: minibatch SGD, Adagrad and L-BFGS.

Parameters travel as dicts of named float64 arrays (see the ``tensors()``
method on each parameter set); gradient dicts mirror those keys and shapes.
Steps mutate the parameter arrays in place and are deterministic given
(state, gradients).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import RowGrad, ShapeError

ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_LINE_TRIALS = 20


def _check_shapes(params: dict, grads: dict):
    for name, p in params.items():
        g = grads.get(name)
        if g is None or g.shape != p.shape:
            got = None if g is None else g.shape
            raise ShapeError(f"gradient for {name!r} has shape {got}, expected {p.shape}")


@dataclass
class AdagradState:
    """Per-parameter squared-gradient accumulators plus the decay schedule.

    The effective rate at update t (counting from 0) is lr / (1 + decay * t);
    accumulators only grow, so per-coordinate steps shrink over time.
    """

    lr: float
    decay: float
    accum: dict[str, np.ndarray]
    eps: float = 1e-8
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float, decay: float) -> "AdagradState":
        return cls(lr=lr, decay=decay, accum={k: np.zeros_like(v) for k, v in params.items()})


def adagrad_step(state: AdagradState, params: dict, grads: dict) -> None:
    """One Adagrad update, in place.

    A ``RowGrad`` updates only its rows and their accumulators: a zero
    gradient leaves a coordinate and its accumulator where they were.
    """
    _check_shapes(params, grads)
    rate = state.lr / (1.0 + state.decay * state.step)
    for name, p in params.items():
        g = grads[name]
        acc = state.accum[name]
        if isinstance(g, RowGrad):
            rows, g = g.rows, g.values
            acc_rows = acc[rows]
            acc_rows += g * g
            acc[rows] = acc_rows
            p[rows] -= rate * g / np.sqrt(acc_rows + state.eps)
        else:
            acc += g * g
            p -= rate * g / np.sqrt(acc + state.eps)
    state.step += 1


def sgd_step(params: dict, grads: dict, lr: float) -> None:
    """Plain gradient step, in place; a ``RowGrad`` moves only its rows."""
    _check_shapes(params, grads)
    for name, p in params.items():
        g = grads[name]
        if isinstance(g, RowGrad):
            p[g.rows] -= lr * g.values
        else:
            p -= lr * g


@dataclass
class LbfgsResult:
    x: np.ndarray
    status: str  # "converged" | "max_iterations" | "line_search_failed"
    iterations: int
    trajectory: list = field(default_factory=list)  # (loss, grad_inf_norm) per accepted step

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _two_loop_direction(grad, history):
    """Search direction -H*grad via the two-loop recursion."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def lbfgs_minimize(objective, x0, m: int = 10, max_iter: int = 100, tol: float = 1e-8,
                   callback=None) -> LbfgsResult:
    """Limited-memory BFGS with Armijo backtracking line search.

    ``objective(x)`` must deterministically return ``(value, gradient)``.
    Terminates when the gradient infinity norm drops below ``tol`` or after
    ``max_iter`` accepted iterations.  Curvature pairs with s'y <= 0 are
    skipped rather than stored; a line search that fails all 20 trials
    returns the current point with a non-convergence status instead of
    raising.  ``callback(iteration, x, value, grad_norm)`` fires after each
    accepted step.
    """
    if m < 1:
        raise ValueError(f"history size must be at least 1, got {m}")
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = objective(x)
    g = np.asarray(g, dtype=np.float64)
    history: list = []
    trajectory: list = []
    for iteration in range(max_iter):
        if np.max(np.abs(g)) < tol:
            return LbfgsResult(x, "converged", iteration, trajectory)
        d = _two_loop_direction(g, history)
        slope = float(g @ d)
        if slope >= 0.0:  # fall back to steepest descent if curvature went bad
            d = -g
            slope = float(g @ d)

        def armijo(value, alpha):
            return math.isfinite(value) and value <= f + ARMIJO_C1 * alpha * slope

        step = 1.0
        x_new = x + step * d
        f_new, g_new = objective(x_new)
        accepted = armijo(f_new, step)
        if accepted:
            # the unit step can be far too short when the curvature model is
            # stale; grow it while Armijo still holds and the value improves
            for _ in range(MAX_LINE_TRIALS):
                trial = step * 2.0
                x_t = x + trial * d
                f_t, g_t = objective(x_t)
                if armijo(f_t, trial) and f_t < f_new:
                    step, x_new, f_new, g_new = trial, x_t, f_t, g_t
                else:
                    break
        else:
            for _ in range(MAX_LINE_TRIALS - 1):
                step *= BACKTRACK_FACTOR
                x_new = x + step * d
                f_new, g_new = objective(x_new)
                if armijo(f_new, step):
                    accepted = True
                    break
        if not accepted:
            return LbfgsResult(x, "line_search_failed", iteration, trajectory)
        g_new = np.asarray(g_new, dtype=np.float64)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            history.append((s, y, 1.0 / sy))
            if len(history) > m:
                history.pop(0)
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.max(np.abs(g)))
        trajectory.append((float(f), gnorm))
        if callback is not None:
            callback(iteration + 1, x, float(f), gnorm)
    status = "converged" if np.max(np.abs(g)) < tol else "max_iterations"
    return LbfgsResult(x, status, max_iter, trajectory)

