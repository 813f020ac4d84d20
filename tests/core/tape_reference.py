"""``CosmoFlowModel.loss_and_gradients`` as the tape computed it before the
network ran as a chain: the executable specification of its bytes.

A frozen copy of the per-op closures the model's six ops recorded —
``conv3d``, ``avg_pool3d``, ``leaky_relu``, ``linear``, the flatten
``reshape`` and ``mse_loss`` — run on :class:`~repro.tensor.tensor.Tensor`'s
reverse walk, one taped op per layer.  ``tests/core/test_chain.py`` holds
the chain's loss and every gradient to these byte for byte.  The kernels
are the library's own (``repro.primitives``): what they compute is pinned
by their own tests.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.primitives.pool3d import avg_pool3d_backward, avg_pool3d_forward
from repro.primitives.registry import get_impl
from repro.tensor.tensor import Tensor, _grad_enabled


def conv3d(x, w, b, stride, padding):
    kernels = get_impl(None)
    has_bias = b is not None
    taped = _grad_enabled() and (w.requires_grad or (has_bias and b.requires_grad))
    shared = (
        {"packed": kernels.pack(x.data, w.shape[2:], stride, padding)}
        if taped and kernels.pack is not None
        else {}
    )
    out = kernels.forward(x.data, w.data, b.data if has_bias else None, stride, padding, **shared)

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


def avg_pool3d(x, kernel, stride):
    out = avg_pool3d_forward(x.data, kernel, stride)
    input_shape = x.shape[2:]

    def backward(g):
        return (avg_pool3d_backward(g, input_shape, kernel, stride),)

    return Tensor._make(out, (x,), backward, "avg_pool3d")


def leaky_relu(a, alpha):
    x = a.data
    if 0.0 < alpha <= 1.0:
        out = np.asarray(x * alpha)
        np.maximum(x, out, out=out)

        def backward(g):
            return (g * np.maximum((x > 0).astype(x.dtype), alpha),)
    else:
        scale = np.where(x > 0, np.array(1.0, dtype=a.dtype), np.array(alpha, dtype=a.dtype))
        out = x * scale

        def backward(g):
            return (g * scale,)

    return Tensor._make(out, (a,), backward, "leaky_relu")


def flatten(a):
    lead = a.shape[:1]
    out = a.data.reshape(lead + (-(-a.size // max(1, math.prod(lead))),))

    def backward(g):
        return (g.reshape(a.shape),)

    return Tensor._make(out, (a,), backward, "reshape")


def linear(x, w, b):
    out = x.data @ w.data + b.data

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor._make(out, (x, w, b), backward, "linear")


def mse_loss(pred, target):
    diff = pred.data - target.data
    out = np.asarray((diff * diff).mean(), dtype=pred.dtype)
    scale = 2.0 / pred.size

    def backward(g):
        gp = g * scale * diff
        return gp.astype(pred.dtype, copy=False), (-gp).astype(pred.dtype, copy=False)

    return Tensor._make(out, (pred, target), backward, "mse_loss")


def taped_op(layer, t):
    """The op the tape recorded for ``layer`` on ``t``."""
    kind = type(layer).__name__
    if kind == "Conv3D":
        return conv3d(t, layer.weight, layer.bias, layer.stride, layer.padding)
    if kind == "AvgPool3D":
        return avg_pool3d(t, layer.kernel, layer.stride)
    if kind == "LeakyReLU":
        return leaky_relu(t, layer.alpha)
    if kind == "Flatten":
        return flatten(t)
    if kind == "Dense":
        return linear(t, layer.weight, layer.bias)
    raise TypeError(f"no taped op for {kind}")


def loss_and_gradients(model, x, y):
    """``(loss, grads)`` as the tape made them: zero the gradients, one taped
    op per layer, the MSE, one reverse walk, each parameter's ``.grad``."""
    for p in model.parameters():
        p.zero_grad()
    t = Tensor(np.asarray(x, dtype=np.float32))
    for layer in model.network.layers:
        t = taped_op(layer, t)
    loss = mse_loss(t, Tensor(np.asarray(y, dtype=np.float32)))
    loss.backward()
    return loss.item(), [p.grad for p in model.parameters()]
