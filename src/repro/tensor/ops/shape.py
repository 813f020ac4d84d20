"""Shape-manipulation ops."""

from __future__ import annotations

import numpy as np

from repro.tensor.layers import Flatten
from repro.tensor.tensor import Tensor

__all__ = ["reshape", "flatten", "transpose"]


def reshape(a, shape) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    shape = tuple(int(s) for s in shape)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return Tensor._make(out, (a,), backward, "reshape")


def flatten(a, start_axis: int = 1) -> Tensor:
    """Flatten all axes from ``start_axis`` on (default keeps batch):
    :class:`~repro.tensor.layers.Flatten`."""
    return Flatten(start_axis=start_axis)(a)


def transpose(a, axes=None) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inverse = np.argsort(axes)
    out = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return Tensor._make(out, (a,), backward, "transpose")
