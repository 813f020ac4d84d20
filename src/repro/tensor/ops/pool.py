"""Differentiable 3D average pooling."""

from __future__ import annotations

from repro.primitives.pool3d import avg_pool3d_backward, avg_pool3d_forward
from repro.tensor.tensor import Tensor

__all__ = ["avg_pool3d"]


def avg_pool3d(x, kernel=2, stride=None) -> Tensor:
    """Average pooling over the three spatial axes of ``(N, C, D, H, W)``.

    Stride defaults to the kernel size — CosmoFlow's pools are kernel 2,
    stride (2,2,2).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)

    out = avg_pool3d_forward(x.data, kernel, stride)
    input_shape = x.shape[2:]

    def backward(g):
        return (avg_pool3d_backward(g, input_shape, kernel, stride),)

    return Tensor._make(out, (x,), backward, "avg_pool3d")
