"""Activation functions.

CosmoFlow uses leaky ReLU on every convolution and FC layer; its
arithmetic is :class:`~repro.tensor.layers.LeakyReLU`'s.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.layers import DEFAULT_LEAKY_ALPHA, LeakyReLU
from repro.tensor.tensor import Tensor

__all__ = ["leaky_relu", "relu", "sigmoid", "tanh"]


def leaky_relu(a, alpha: float = DEFAULT_LEAKY_ALPHA) -> Tensor:
    """``x if x > 0 else alpha * x`` elementwise."""
    return LeakyReLU(alpha, name="leaky_relu")(a)


def relu(a) -> Tensor:
    return leaky_relu(a, alpha=0.0)


def sigmoid(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._make(out.astype(a.dtype, copy=False), (a,), backward, "sigmoid")


def tanh(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return Tensor._make(out, (a,), backward, "tanh")
