"""The loss, on plain arrays and on the tape.

CosmoFlow is a regression network; training minimizes the mean squared
error between the predicted and true (normalized) cosmological
parameters (ΩM, σ8, ns).  :func:`mse` and :func:`mse_grad` are what the
model's chain computes; :func:`mse_loss` records the same arithmetic as
one node of the :class:`~repro.tensor.tensor.Tensor` tape.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["mse", "mse_grad", "mse_loss"]


def _check_shapes(pred, target) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")


def mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error of two arrays: ``(loss, diff)``, the 0-d loss in
    ``pred``'s dtype and the difference :func:`mse_grad` takes.  The
    model's chain and :func:`mse_loss` both compute the loss here."""
    _check_shapes(pred, target)
    diff = pred - target
    return np.asarray((diff * diff).mean(), dtype=pred.dtype), diff


def mse_grad(diff: np.ndarray, g) -> np.ndarray:
    """The gradient of :func:`mse` with respect to ``pred`` for an upstream
    gradient ``g`` (ones, for the loss itself), before any cast."""
    return g * (2.0 / diff.size) * diff


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over all elements (scalar tensor)."""
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    target = target if isinstance(target, Tensor) else Tensor(target)
    out, diff = mse(pred.data, target.data)

    def backward(g):
        gp = mse_grad(diff, g)
        return gp.astype(pred.dtype, copy=False), (-gp).astype(pred.dtype, copy=False)

    return Tensor._make(out, (pred, target), backward, "mse_loss")
