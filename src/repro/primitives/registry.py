"""Implementation registry for the convolution primitives.

The framework layer (:class:`repro.tensor.layers.Conv3D`) calls through this
registry, mirroring how TensorFlow dispatches to MKL-DNN when built
with ``--config=mkl``.  It is a name -> :class:`ConvImpl` table:

* ``"gemm"`` — the one exact kernel family
  (:mod:`repro.primitives.conv3d`), and the default.
* ``"int8"`` / ``"int4"`` — approximate quantized forwards, defined by
  :mod:`repro.primitives.quantized` and registered on their first lookup
  by name, which is the only way to reach them.

:func:`register_impl` adds more (tests and benchmarks register doubles).

Optional accounting: :func:`set_metrics` attaches a
:class:`~repro.obs.metrics.MetricsRegistry`, after which every kernel
call increments ``primitives.conv3d.<op>.{calls,flops,bytes}``
counters (the Section-III "portion of the computational cost" numbers).
With no registry attached — the default — :func:`get_impl` hands back
the raw kernels, so the accounting costs nothing when off.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.primitives import conv3d as _gemm

__all__ = [
    "ConvImpl",
    "get_impl",
    "register_impl",
    "set_default_impl",
    "get_default_impl",
    "available_impls",
    "set_metrics",
    "get_metrics",
    "count_fallback",
]


def _compose_backward(backward_data: Callable, backward_weights: Callable) -> Callable:
    """The combined ``ConvImpl.backward`` of a family that only has the
    two per-pass kernels: one call of each, as the tape used to make."""

    def backward(
        x, grad_out, w, stride=1, padding=0, *,
        with_bias=False, need_input_grad=True, need_weight_grad=True, **shared,
    ):
        gx = gw = gb = None
        if need_input_grad:
            gx = backward_data(grad_out, w, x.shape[2:], stride, padding)
        if need_weight_grad:
            gw = backward_weights(
                x, grad_out, w.shape[2:], stride, padding, with_bias=with_bias, **shared
            )
            if with_bias:
                gw, gb = gw
        return gx, gw, gb

    return backward


@dataclass(frozen=True)
class ConvImpl:
    """A family of convolution kernels sharing one calling convention.

    ``pack``, when set, is ``pack(x, kernel, stride, padding)`` returning
    the operand ``forward`` and ``backward_weights`` would each build
    from ``x`` (or ``None`` to have them build it); both then accept it
    as the keyword ``packed=``, so the layer packs once per step.

    ``backward`` is what the layer's backward calls, once per convolution:
    ``backward(x, grad_out, w, stride, padding, *, with_bias,
    need_input_grad, need_weight_grad[, packed])`` returning ``(grad_x,
    grad_w, grad_b)`` with ``None`` for what was not asked.  A family
    that leaves it out gets the two per-pass kernels composed.
    """

    name: str
    forward: Callable
    backward_data: Callable
    backward_weights: Callable
    pack: Optional[Callable] = None
    backward: Optional[Callable] = None

    def __post_init__(self):
        if self.backward is None:
            object.__setattr__(
                self, "backward", _compose_backward(self.backward_data, self.backward_weights)
            )


_default = "gemm"

#: When set (via :func:`set_metrics`), kernel calls are counted here.
_metrics = None

#: Instrumented wrappers, built lazily per registered implementation.
#: Invalidated whenever the metrics registry or an impl is swapped.
_instrumented: Dict[str, ConvImpl] = {}


def set_metrics(registry) -> None:
    """Attach a metrics registry for per-call FLOP/byte accounting.

    Pass ``None`` to detach; subsequent :func:`get_impl` calls return
    the raw, uncounted kernels again.  Always invalidates the cached
    instrumented wrappers so counters never land on a previously
    attached registry.
    """
    global _metrics
    _metrics = registry
    _instrumented.clear()


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


def count_fallback(impl_name: str, op: str) -> None:
    """Count a silent impl substitution (e.g. int8 backward -> gemm)."""
    m = _metrics
    if m is None:
        return
    m.counter("primitives.conv3d.fallbacks").add(1)
    m.counter(f"primitives.conv3d.{impl_name}.{op}.fallbacks").add(1)


_IMPLS: Dict[str, ConvImpl] = {
    "gemm": ConvImpl(
        name="gemm",
        forward=_gemm.conv3d_forward,
        backward_data=_gemm.conv3d_backward_data,
        backward_weights=_gemm.conv3d_backward_weights,
        pack=_gemm.conv3d_pack,
        backward=_gemm.conv3d_backward,
    ),
}


#: Families registered on their first lookup, by the module defining them.
_QUANTIZED = ("int4", "int8")


def _lookup(key: str) -> ConvImpl:
    """The family registered as ``key``, registering it if it is one of
    :data:`_QUANTIZED`; a ``KeyError`` naming the choices for any other."""
    impl = _IMPLS.get(key)
    if impl is None and key in _QUANTIZED:
        importlib.import_module("repro.primitives.quantized").register_quantized_impls()
        impl = _IMPLS[key]
    if impl is None:
        raise KeyError(
            f"unknown conv3d implementation {key!r}; available: {available_impls()}"
        )
    return impl


def register_impl(impl: ConvImpl, default: bool = False) -> ConvImpl:
    """Register (or replace) a convolution implementation.

    The instrumented-wrapper cache is invalidated so a re-registered
    impl cannot be shadowed by a stale wrapper around its predecessor.
    """
    if not isinstance(impl, ConvImpl):
        raise TypeError(f"expected ConvImpl, got {type(impl).__name__}")
    _IMPLS[impl.name] = impl
    _instrumented.clear()
    if default:
        set_default_impl(impl.name)
    return impl


def _instrument(impl: ConvImpl) -> ConvImpl:
    """Wrap an implementation's kernels with FLOP/byte accounting."""

    def forward(x, w, bias=None, stride=1, padding=0, **shared):
        out = impl.forward(x, w, bias, stride=stride, padding=padding, **shared)
        n, oc, ic = x.shape[0], w.shape[0], w.shape[1]
        record_conv_call("forward", n, oc, ic, out.shape[2:], w.shape[2:],
                         x.nbytes + w.nbytes + out.nbytes)
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
                             grad_out.nbytes + w.nbytes + gx.nbytes)
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


def available_impls() -> list[str]:
    """Names of the registered convolution implementations."""
    return sorted(_IMPLS.keys() | set(_QUANTIZED))


def get_impl(name: str | None = None) -> ConvImpl:
    """Look up an implementation by name (``None`` -> current default).

    With a metrics registry attached the returned kernels also count
    calls/FLOPs/bytes; otherwise they are the raw implementations.
    """
    key = _default if name is None else name
    impl = _lookup(key)
    if _metrics is None:
        return impl
    wrapped = _instrumented.get(key)
    if wrapped is None:
        wrapped = _instrumented[key] = _instrument(impl)
    return wrapped


def set_default_impl(name: str) -> None:
    """Set the implementation used when callers do not name one."""
    global _default
    _lookup(name)
    _default = name


def get_default_impl() -> str:
    """Name of the implementation used when callers do not name one."""
    return _default
