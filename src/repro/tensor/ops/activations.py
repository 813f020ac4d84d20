"""Activation functions.

CosmoFlow uses leaky ReLU on every convolution and FC layer.  The
paper implements its forward/backward "by calling two Relu and
ReluGrad operations" in TensorFlow; here it is a single ``np.maximum(x, alpha*x)``
(its backward one masked multiply), which is both simpler and what the
authors' OpenMP threading of element-wise ops approximates.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["leaky_relu", "relu", "sigmoid", "tanh"]

#: TensorFlow's default leaky-ReLU slope (tf.nn.leaky_relu alpha), which
#: the paper's r1.5 code path uses.
DEFAULT_LEAKY_ALPHA = 0.2


def leaky_relu(a, alpha: float = DEFAULT_LEAKY_ALPHA) -> Tensor:
    """``x if x > 0 else alpha * x`` elementwise."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    x = a.data
    if 0.0 < alpha <= 1.0:
        # Bitwise-equal to the masked multiply below (alpha*x is on the
        # right side of x for either sign; +-0, inf and NaN included) at
        # a fraction of np.where's cost.  alpha == 0 is excluded only
        # because 0*inf is NaN where relu(inf) must stay inf.
        out = np.asarray(x * alpha)  # asarray: a 0-d product is a scalar
        np.maximum(x, out, out=out)

        def backward(g):
            return (g * np.maximum((x > 0).astype(x.dtype), alpha),)
    else:
        scale = np.where(x > 0, np.array(1.0, dtype=a.dtype), np.array(alpha, dtype=a.dtype))
        out = x * scale

        def backward(g):
            return (g * scale,)

    return Tensor._make(out, (a,), backward, "leaky_relu")


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
