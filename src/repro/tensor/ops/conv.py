"""Differentiable 3D convolution, dispatching to :mod:`repro.primitives`.

This is the framework/primitive boundary the paper optimizes across:
TensorFlow's Conv3D op calling into MKL-DNN's forward, backward-data
and backward-weights kernels.  The kernel implementation is selected
through :mod:`repro.primitives.registry` ("gemm" unless named
otherwise).  The tape holds one backward closure per convolution and it
makes one kernel call, ``ConvImpl.backward``, which returns every
gradient asked for — for "gemm" from one shifted gradient, for a family
without a combined backward the two per-pass kernels composed by the
registry.
"""

from __future__ import annotations

import numpy as np

from repro.primitives.registry import get_impl
from repro.tensor.tensor import Tensor, _grad_enabled

__all__ = ["conv3d"]


def conv3d(x, w, bias=None, stride=1, padding=0, impl: str | None = None) -> Tensor:
    """3D convolution with autograd.

    Parameters
    ----------
    x
        Input ``(N, IC, D, H, W)`` tensor.
    w
        Weights ``(OC, IC, KD, KH, KW)`` tensor.
    bias
        Optional ``(OC,)`` tensor.
    stride, padding
        Int or 3-tuple.
    impl
        Kernel implementation name (``None`` -> registry default).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    w = w if isinstance(w, Tensor) else Tensor(w)
    b = None if bias is None else (bias if isinstance(bias, Tensor) else Tensor(bias))

    kernels = get_impl(impl)

    # Kernels that pack their input for the forward GEMM reuse the same
    # operand in backward-weights: pack once here and let the tape own
    # it, so it lives exactly as long as this call's backward can run.
    # Untaped calls leave the packing (sample by sample) to the kernel,
    # as does a pack() that returns None: an operand too large to hold.
    has_bias = b is not None
    taped = _grad_enabled() and (w.requires_grad or (has_bias and b.requires_grad))
    shared = (
        {"packed": kernels.pack(x.data, w.shape[2:], stride, padding)}
        if taped and kernels.pack is not None
        else {}
    )
    out = kernels.forward(
        x.data, w.data, b.data if has_bias else None, stride, padding, **shared
    )

    def backward(g):
        grads = kernels.backward(
            x.data, np.ascontiguousarray(g), w.data, stride, padding,
            with_bias=has_bias,
            need_input_grad=x.requires_grad,
            need_weight_grad=w.requires_grad or (has_bias and b.requires_grad),
            **shared,
        )
        return grads if has_bias else grads[:2]

    return Tensor._make(out, (x, w, b) if has_bias else (x, w), backward, "conv3d")
