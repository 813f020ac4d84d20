"""Differentiable 3D convolution, dispatching to :mod:`repro.primitives`.

This is the framework/primitive boundary the paper optimizes across:
TensorFlow's Conv3D op calling into MKL-DNN's forward, backward-data
and backward-weights kernels.  The kernel implementation is selected
through :mod:`repro.primitives.registry` ("gemm" by default, "direct"
for the Algorithm-1 blocked kernels, "blocked" for the blocked-native
end-to-end path, "auto" for autotuned dispatch).  The tape holds one
backward closure per convolution and it makes one kernel call,
``ConvImpl.backward``, which returns every gradient asked for — for
"gemm" from one shifted gradient, for the other families the two
per-pass kernels composed by the registry.

Layout propagation (the oneDNN execution model):

* A **blocked** input tensor stays blocked: the op calls the
  blocked-native kernels directly and tags its output blocked, so
  conv -> pool -> conv chains run with zero interior reorders.  The
  weight/bias reorders are content-cached — they miss once per distinct
  parameter value, not once per call.
* A **plain** input through ``impl="blocked"`` (or a blocked registry
  default) is reordered in once, and the output stays blocked —
  downstream ops continue natively.
* Requesting an explicitly plain impl on a blocked input is a genuine
  layout boundary: the input is reordered out (taped, counted) first.
* Gradients cross layouts only at the same boundaries: a plain input to
  a blocked conv gets its gradient reordered back to plain; blocked
  inputs receive blocked gradients.  Weight/bias gradients always
  return plain (the optimizer owns plain parameters).
"""

from __future__ import annotations

import numpy as np

from repro.primitives import blocked as _bk
from repro.primitives import registry as _registry
from repro.primitives.layout import (
    BLOCKED_BIAS16,
    BLOCKED_NCDHW16C,
    BLOCKED_OIDHW16I16O,
    PLAIN_BIAS,
    PLAIN_NCDHW,
    PLAIN_OIDHW,
    reorder,
    reorder_cached,
)
from repro.primitives.registry import get_impl
from repro.tensor.tensor import Tensor, _grad_enabled

__all__ = ["conv3d"]

#: impl arguments that keep a blocked input on the blocked-native path.
_BLOCKED_COMPATIBLE = (None, "blocked", _registry.AUTO_IMPL)


def conv3d(x, w, bias=None, stride=1, padding=0, impl: str | None = None) -> Tensor:
    """3D convolution with autograd.

    Parameters
    ----------
    x
        Input ``(N, IC, D, H, W)`` tensor — or a blocked
        ``(N, ICB, D, H, W, 16)`` tensor tagged via ``ops.to_layout``.
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

    blocked_in = x.layout is not None and x.layout.is_blocked
    if blocked_in and impl not in _BLOCKED_COMPATIBLE:
        # An explicitly plain impl was requested: genuine layout
        # boundary, reorder out (taped and counted) and fall through.
        from repro.tensor.ops.layoutops import to_layout

        x = to_layout(x, PLAIN_NCDHW)
        blocked_in = False

    kernels = get_impl(impl)
    if blocked_in or kernels.native_layout == BLOCKED_NCDHW16C.name:
        return _conv3d_blocked_native(x, w, b, stride, padding, blocked_in)

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


def _conv3d_blocked_native(x, w, b, stride, padding, input_was_blocked: bool) -> Tensor:
    """Blocked-native conv: blocked activations in and out, cached
    weight/bias reorders, gradients reordered only at real boundaries."""
    oc, ic = int(w.shape[0]), int(w.shape[1])
    if input_was_blocked:
        if x.channels is None:
            raise ValueError("blocked input tensor is missing its logical channel count")
        if x.channels != ic:
            raise ValueError(f"input channels {x.channels} != weight channels {ic}")
        xb = x.data
    else:
        if x.ndim != 5 or x.shape[1] != ic:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight channels {ic}"
            )
        xb = reorder(x.data, PLAIN_NCDHW, BLOCKED_NCDHW16C)

    wb = reorder_cached(w.data, PLAIN_OIDHW, BLOCKED_OIDHW16I16O)
    bb = None if b is None else reorder_cached(b.data, PLAIN_BIAS, BLOCKED_BIAS16)
    out_b = _bk.conv3d_forward_blocked(xb, wb, bb, stride=stride, padding=padding)

    n = xb.shape[0]
    kernel = w.shape[2:]
    input_spatial = xb.shape[2:5]
    _registry.record_conv_call(
        "forward", n, oc, ic, out_b.shape[2:5], kernel,
        xb.nbytes + wb.nbytes + out_b.nbytes,
    )

    def backward(g):
        g = np.ascontiguousarray(g)
        gx = None
        if x.requires_grad:
            wb_b = reorder_cached(w.data, PLAIN_OIDHW, BLOCKED_OIDHW16I16O)
            gxb = _bk.conv3d_backward_data_blocked(
                g, wb_b, input_spatial, stride=stride, padding=padding
            )
            _registry.record_conv_call(
                "backward_data", n, oc, ic, g.shape[2:5], kernel,
                g.nbytes + wb_b.nbytes + gxb.nbytes,
            )
            gx = (
                gxb
                if input_was_blocked
                else reorder(gxb, BLOCKED_NCDHW16C, PLAIN_NCDHW, channels=ic)
            )
        gw = gb_ = None
        need_w = w.requires_grad
        need_b = b is not None and b.requires_grad
        if need_w or need_b:
            res = _bk.conv3d_backward_weights_blocked(
                xb, g, kernel,
                stride=stride, padding=padding,
                with_bias=b is not None,
                out_channels=oc, in_channels=ic,
            )
            gw, gb_ = res if b is not None else (res, None)
            _registry.record_conv_call(
                "backward_weights", n, oc, ic, g.shape[2:5], kernel,
                xb.nbytes + g.nbytes + gw.nbytes,
            )
        if b is None:
            return gx, gw
        return gx, gw, gb_

    parents = (x, w) if b is None else (x, w, b)
    out = Tensor._make(out_b, parents, backward, "conv3d")
    out.layout = BLOCKED_NCDHW16C
    out.channels = oc
    return out
