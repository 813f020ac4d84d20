"""The convolution kernels the layers call, with optional metrics accounting.

The framework layer (:class:`repro.tensor.layers.Conv3D`) calls through
:func:`get_impl`, mirroring how TensorFlow dispatches to MKL-DNN when built
with ``--config=mkl``.  There is one kernel family, :data:`GEMM`
(:mod:`repro.primitives.conv3d`).

Optional accounting: :func:`set_metrics` attaches a
:class:`~repro.obs.metrics.MetricsRegistry`, after which every kernel
call increments ``primitives.conv3d.<op>.{calls,flops,bytes}``
counters (the Section-III "portion of the computational cost" numbers).
A grouped call (the simulated ranks of a stepped step in one pass) counts
as one call whose FLOPs and bytes are those of its groups' calls.
With no registry attached — the default — :func:`get_impl` hands back
the raw kernels, so the accounting costs nothing when off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.primitives import conv3d as _gemm

__all__ = ["ConvImpl", "GEMM", "get_impl", "set_metrics", "get_metrics"]


@dataclass(frozen=True)
class ConvImpl:
    """A family of convolution kernels sharing one calling convention.

    ``pack(x, kernel, stride, padding)`` returns the operand ``forward``
    and ``backward_weights`` would each build from ``x`` (or ``None`` to
    have them build it); both accept it as the keyword ``packed=``, so the
    layer packs once per step.

    ``backward`` is what the layer's backward calls, once per convolution:
    ``backward(x, grad_out, w, stride, padding, *, with_bias,
    need_input_grad, need_weight_grad, packed, groups)`` returning
    ``(grad_x, grad_w, grad_b)`` with ``None`` for what was not asked; with
    ``groups`` (which ``forward`` takes too) the weight and bias gradients
    are one per group of samples.
    """

    name: str
    forward: Callable
    backward_data: Callable
    backward_weights: Callable
    pack: Callable
    backward: Callable


#: The one kernel family.
GEMM = ConvImpl(
    name="gemm",
    forward=_gemm.conv3d_forward,
    backward_data=_gemm.conv3d_backward_data,
    backward_weights=_gemm.conv3d_backward_weights,
    pack=_gemm.conv3d_pack,
    backward=_gemm.conv3d_backward,
)

#: When set (via :func:`set_metrics`), kernel calls are counted here.
_metrics = None

#: ``(family, its instrumented wrapper)``, built on the first lookup with
#: metrics attached; rebuilt when either is swapped.
_instrumented: Optional[Tuple[ConvImpl, ConvImpl]] = None


def set_metrics(registry) -> None:
    """Attach a metrics registry for per-call FLOP/byte accounting.

    Pass ``None`` to detach; subsequent :func:`get_impl` calls return
    the raw, uncounted kernels again.  Always drops the cached
    instrumented wrapper so counters never land on a previously
    attached registry.
    """
    global _metrics, _instrumented
    _metrics = registry
    _instrumented = None


def get_metrics():
    """The currently attached metrics registry (``None`` when off)."""
    return _metrics


def _conv_flops(n: int, oc: int, ic: int, out_spatial, kernel) -> int:
    """Multiply-add FLOPs of one conv pass (2 per MAC).

    All three passes (forward, backward-data, backward-weights) perform
    the same MAC count ``N*OC*IC*OD*OH*OW*KD*KH*KW``, just contracted
    over different axes.
    """
    od, oh, ow = (int(v) for v in out_spatial)
    kd, kh, kw = (int(v) for v in kernel)
    return 2 * int(n) * int(oc) * int(ic) * od * oh * ow * kd * kh * kw


def record_conv_call(
    op: str, n: int, oc: int, ic: int, out_spatial, kernel, nbytes: int
) -> None:
    """Count one conv kernel call on the attached metrics registry
    (no-op with metrics detached)."""
    m = _metrics
    if m is None:
        return
    m.counter(f"primitives.conv3d.{op}.calls").add(1)
    m.counter(f"primitives.conv3d.{op}.flops").add(_conv_flops(n, oc, ic, out_spatial, kernel))
    m.counter(f"primitives.conv3d.{op}.bytes").add(nbytes)


def _reads(kwargs) -> int:
    """How many callers' weight reads one call stands for: one per group
    of a grouped call (``groups=``, see
    :func:`~repro.primitives.conv3d.conv3d_backward`), so that grouping
    changes the call counters and nothing else."""
    groups = kwargs.get("groups")
    return 1 if groups is None else len(groups)


def _instrument(impl: ConvImpl) -> ConvImpl:
    """Wrap an implementation's kernels with FLOP/byte accounting."""

    def forward(x, w, bias=None, stride=1, padding=0, **shared):
        out = impl.forward(x, w, bias, stride=stride, padding=padding, **shared)
        n, oc, ic = x.shape[0], w.shape[0], w.shape[1]
        record_conv_call("forward", n, oc, ic, out.shape[2:], w.shape[2:],
                         x.nbytes + _reads(shared) * w.nbytes + out.nbytes)
        return out

    def backward_data(grad_out, w, input_shape, stride=1, padding=0):
        gx = impl.backward_data(grad_out, w, input_shape, stride=stride, padding=padding)
        n, oc, ic = grad_out.shape[0], w.shape[0], w.shape[1]
        record_conv_call("backward_data", n, oc, ic, grad_out.shape[2:], w.shape[2:],
                         grad_out.nbytes + w.nbytes + gx.nbytes)
        return gx

    def backward_weights(x, grad_out, kernel, stride=1, padding=0, with_bias=False, **shared):
        gw = impl.backward_weights(
            x, grad_out, kernel, stride=stride, padding=padding, with_bias=with_bias, **shared
        )
        gw_arr = gw[0] if isinstance(gw, tuple) else gw
        n, oc, ic = x.shape[0], grad_out.shape[1], x.shape[1]
        record_conv_call("backward_weights", n, oc, ic, grad_out.shape[2:], kernel,
                         x.nbytes + grad_out.nbytes + gw_arr.nbytes)
        return gw

    def backward(x, grad_out, w, stride=1, padding=0, **kwargs):
        # One kernel call, counted as the passes it ran.
        gx, gw, gb = impl.backward(x, grad_out, w, stride, padding, **kwargs)
        n, oc, ic = x.shape[0], w.shape[0], w.shape[1]
        if gx is not None:
            record_conv_call("backward_data", n, oc, ic, grad_out.shape[2:], w.shape[2:],
                             grad_out.nbytes + _reads(kwargs) * w.nbytes + gx.nbytes)
        if gw is not None:
            record_conv_call("backward_weights", n, oc, ic, grad_out.shape[2:], w.shape[2:],
                             x.nbytes + grad_out.nbytes + gw.nbytes)
        return gx, gw, gb

    return ConvImpl(
        name=impl.name,
        forward=forward,
        backward_data=backward_data,
        backward_weights=backward_weights,
        pack=impl.pack,
        backward=backward,
    )


def get_impl() -> ConvImpl:
    """The convolution kernels: :data:`GEMM`, counting calls/FLOPs/bytes
    while a metrics registry is attached."""
    if _metrics is None:
        return GEMM
    global _instrumented
    if _instrumented is None or _instrumented[0] is not GEMM:
        _instrumented = (GEMM, _instrument(GEMM))
    return _instrumented[1]
