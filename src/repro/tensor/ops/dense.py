"""Dense (fully connected) ops."""

from __future__ import annotations

from repro.tensor.layers import Dense
from repro.tensor.tensor import Tensor

__all__ = ["matmul", "linear"]


def matmul(a, b) -> Tensor:
    """2D matrix multiply ``(M, K) @ (K, N)``."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2D operands, got {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor._make(out, (a, b), backward, "matmul")


def linear(x, w, bias=None) -> Tensor:
    """Affine map ``x @ w + bias`` for ``x (N, IN)``, ``w (IN, OUT)``:
    :class:`~repro.tensor.layers.Dense` over given weight tensors.

    The FC layers of CosmoFlow (fc1–fc3).  With the paper's mini-batch
    of one, this is a single SGEMV per layer.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    w = w if isinstance(w, Tensor) else Tensor(w)
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"linear expects 2D x and w, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.shape} @ w {w.shape}")
    b = None if bias is None else (bias if isinstance(bias, Tensor) else Tensor(bias))
    if b is not None and b.shape != (w.shape[1],):
        raise ValueError(f"bias shape {b.shape} != ({w.shape[1]},)")
    return Dense.over("linear", weight=w, bias=b)(x)
