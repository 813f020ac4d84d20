"""Layer objects: parameter-owning building blocks that run as a chain.

Each layer owns its arithmetic twice over — forward and backward — on
plain ndarrays:

* ``forward(x, keep=False, groups=None)`` returns ``(output, ctx)``.
  With ``keep`` the context holds what ``backward`` needs (the input, a
  packed GEMM operand, a shape); without it the context is ``None`` and
  nothing is held: prediction.  ``groups``, with ``keep``, splits the
  batch into contiguous runs of samples, ``((start, stop), ...)``, that
  are separate callers' (the simulated ranks of a stepped step): every
  weight gradient ``backward`` returns then has a leading group axis, and
  group ``i``'s is what the group alone would get, bit for bit.  Only a
  convolution has weights to keep apart; ``Dense`` refuses groups (a
  batched GEMM's rows are not its one-row GEMMs', byte for byte), so a
  model runs its dense head once per group.
* ``backward(ctx, g, need_input_grad=True)`` returns ``(grad_x,
  *grad_weights)``, the weight gradients in :meth:`Layer.operands`
  order, each a fresh array.  ``need_input_grad=False`` lets a layer
  skip its input gradient (the chain's first layer; only a convolution
  has work to skip).

A layer keeps no per-call state: contexts live in the caller, so two
threads may run one layer object at once.  :class:`Sequential` runs the
chain — one loop forward, one back — the way the paper's static graph
executes MKL-DNN primitives built once per shape (Section IV).

Calling a layer on a :class:`~repro.tensor.tensor.Tensor` is the tape
adapter: it records one node whose backward is the layer's own, so no
layer's arithmetic is written twice.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List

import numpy as np

from repro.primitives import conv3d
from repro.primitives.pool3d import avg_pool3d_backward, avg_pool3d_forward
from repro.tensor import initializers
from repro.tensor.tensor import Parameter, Tensor, _grad_enabled
from repro.utils.rng import new_rng

__all__ = [
    "Layer",
    "Conv3D",
    "AvgPool3D",
    "Dense",
    "Flatten",
    "LeakyReLU",
    "Sequential",
]

#: TensorFlow's default leaky-ReLU slope (tf.nn.leaky_relu alpha), which
#: the paper's r1.5 code path uses.
DEFAULT_LEAKY_ALPHA = 0.2


class Layer:
    """Base class: a named, parameter-owning step of the chain."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__.lower()

    def forward(self, x: np.ndarray, keep: bool = False, groups=None):  # pragma: no cover
        raise NotImplementedError

    def backward(self, ctx, g: np.ndarray, need_input_grad: bool = True):  # pragma: no cover
        raise NotImplementedError

    def operands(self) -> tuple:
        """The layer's weight tensors, in the order ``backward`` returns
        their gradients."""
        return ()

    def __call__(self, x) -> Tensor:
        """The tape adapter: one node, whose backward is this layer's."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        weights = self.operands()
        taped = _grad_enabled() and (x.requires_grad or any(w.requires_grad for w in weights))
        out, ctx = self.forward(x.data, taped)
        if not taped:
            return Tensor(out)
        return Tensor._make(
            out, (x,) + weights, lambda g: self.backward(ctx, g, x.requires_grad), self.name
        )

    def parameters(self) -> List[Parameter]:
        """All trainable parameters owned (directly) by this layer."""
        return [t for t in self.operands() if isinstance(t, Parameter)]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape given a per-sample input shape
        (no batch axis)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, params={self.num_parameters()})"


class Conv3D(Layer):
    """3D convolution layer with optional bias.

    Weights are ``(OC, IC, KD, KH, KW)``, He-initialized for leaky ReLU.
    It calls the kernels of :mod:`repro.primitives.conv3d`, which count
    their own passes while a metrics registry is attached
    (:func:`~repro.primitives.conv3d.set_metrics`).  A kept forward packs
    its input once and hands the packed
    operand to the backward's weight-gradient GEMM; one without ``keep``
    leaves packing (sample by sample) to the kernel, as does a ``pack``
    that returns ``None`` (an operand too large to hold until the
    backward).  A grouped forward's backward still runs one input-gradient
    GEMM over the whole batch and computes each group's weight and bias
    gradients from the group's own block of the same operands
    (:func:`~repro.primitives.conv3d.conv3d_backward`'s ``groups``).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int | tuple[int, int, int],
        stride=1,
        padding=0,
        bias: bool = True,
        rng=None,
        name: str = "",
    ):
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        k = (kernel,) * 3 if np.isscalar(kernel) else tuple(kernel)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = k
        self.stride = stride
        self.padding = padding
        rng = new_rng(rng)
        self.weight = Parameter(
            initializers.he_normal(
                (out_channels, in_channels) + k, rng, leaky_alpha=DEFAULT_LEAKY_ALPHA
            ),
            name=f"{self.name}/weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_channels,)), name=f"{self.name}/bias")
            if bias
            else None
        )

    def operands(self) -> tuple:
        return (self.weight,) if self.bias is None else (self.weight, self.bias)

    def forward(self, x, keep=False, groups=None):
        w = self.weight.data
        packed = conv3d.conv3d_pack(x, w.shape[2:], self.stride, self.padding) if keep else None
        b = None if self.bias is None else self.bias.data
        out = conv3d.conv3d_forward(
            x, w, b, self.stride, self.padding, packed=packed, groups=groups
        )
        return out, ((x, packed, groups) if keep else None)

    def backward(self, ctx, g, need_input_grad=True):
        x, packed, groups = ctx
        grads = conv3d.conv3d_backward(
            x, np.ascontiguousarray(g), self.weight.data, self.stride, self.padding,
            with_bias=self.bias is not None,
            need_input_grad=need_input_grad,
            packed=packed,
            groups=groups,
        )
        return grads if self.bias is not None else grads[:2]

    def output_shape(self, input_shape):
        c, *spatial = input_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        return (self.out_channels,) + conv3d.conv3d_output_shape(
            tuple(spatial), self.kernel, self.stride, self.padding
        )


class AvgPool3D(Layer):
    """Average pooling; stride defaults to the kernel (CosmoFlow: 2, (2,2,2))."""

    def __init__(self, kernel=2, stride=None, name: str = ""):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride

    def forward(self, x, keep=False, groups=None):
        out = avg_pool3d_forward(x, self.kernel, self.stride)
        return out, (x.shape[2:] if keep else None)

    def backward(self, input_shape, g, need_input_grad=True):
        return (avg_pool3d_backward(g, input_shape, self.kernel, self.stride),)

    def output_shape(self, input_shape):
        from repro.primitives.pool3d import pool3d_output_shape

        c, *spatial = input_shape
        return (c,) + pool3d_output_shape(tuple(spatial), self.kernel, self.stride)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng=None,
        name: str = "",
    ):
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(rng)
        self.weight = Parameter(
            initializers.he_normal(
                (in_features, out_features), rng, leaky_alpha=DEFAULT_LEAKY_ALPHA
            ),
            name=f"{self.name}/weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_features,)), name=f"{self.name}/bias")
            if bias
            else None
        )

    def operands(self) -> tuple:
        return (self.weight,) if self.bias is None else (self.weight, self.bias)

    def forward(self, x, keep=False, groups=None):
        if groups is not None:
            raise ValueError(f"{self.name}: a dense layer runs once per group, not grouped")
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out, (x if keep else None)

    def backward(self, x, g, need_input_grad=True):
        w = self.weight.data
        # np.dot, not matmul: at batch 1 the weight gradient is an outer
        # product, which np.dot hands to BLAS as one while matmul's K = 1
        # GEMM is several times slower; the bytes are the same at every
        # batch (a test pins it at the presets' shapes).
        gw = np.dot(x.T, g)
        if self.bias is None:
            return g @ w.T, gw
        return g @ w.T, gw, g.sum(axis=0)

    def output_shape(self, input_shape):
        if tuple(input_shape) != (self.in_features,):
            raise ValueError(
                f"{self.name}: expected ({self.in_features},) input, got {input_shape}"
            )
        return (self.out_features,)


class Flatten(Layer):
    """Flatten every axis but the batch axis."""

    def forward(self, x, keep=False, groups=None):
        return x.reshape(len(x), -1), (x.shape if keep else None)

    def backward(self, input_shape, g, need_input_grad=True):
        return (g.reshape(input_shape),)

    def output_shape(self, input_shape):
        return (math.prod(input_shape),)


class LeakyReLU(Layer):
    """Leaky ReLU, ``x if x > 0 else alpha * x`` elementwise.

    The paper implements it "by calling two Relu and ReluGrad operations"
    in TensorFlow; here the forward is one ``np.maximum(x, alpha*x)`` and
    the backward one masked multiply.
    """

    def __init__(self, alpha: float = DEFAULT_LEAKY_ALPHA, name: str = ""):
        super().__init__(name)
        self.alpha = alpha

    def forward(self, x, keep=False, groups=None):
        alpha = self.alpha
        if 0.0 < alpha <= 1.0:
            # Bitwise-equal to the masked multiply below (alpha*x is on the
            # right side of x for either sign; +-0, inf and NaN included) at
            # a fraction of np.where's cost.  alpha == 0 is excluded only
            # because 0*inf is NaN where relu(inf) must stay inf.
            out = np.asarray(x * alpha)  # asarray: a 0-d product is a scalar
            np.maximum(x, out, out=out)
            return out, (x if keep else None)
        scale = np.where(x > 0, np.array(1.0, dtype=x.dtype), np.array(alpha, dtype=x.dtype))
        return x * scale, (scale if keep else None)

    def backward(self, ctx, g, need_input_grad=True):
        alpha = self.alpha
        if 0.0 < alpha <= 1.0:  # ctx is the input
            # g * max(x > 0, alpha), every step in one buffer: two
            # batch-sized temporaries fewer, whose pages a step would
            # otherwise fault in afresh.
            scale = np.asarray(ctx > 0).astype(ctx.dtype)  # asarray: 0-d gives a scalar
            np.maximum(scale, alpha, out=scale)
            return (np.multiply(g, scale, out=scale if g.dtype == scale.dtype else None),)
        return (g * ctx,)  # ctx is the forward's scale

    def output_shape(self, input_shape):
        return tuple(input_shape)


class Sequential(Layer):
    """A chain of layers applied in order."""

    def __init__(self, layers: Iterable[Layer], name: str = ""):
        super().__init__(name)
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")
        # The chain is fixed at construction, so its parameter list is too:
        # gathered once, not per call.
        self._parameters = tuple(p for layer in self.layers for p in layer.parameters())

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __call__(self, x) -> Tensor:
        """On the tape: one node per layer."""
        for layer in self.layers:
            x = layer(x)
        return x

    def forward(self, x, keep=False, groups=None):
        """The chain's one forward loop; the context is the list of the
        layers' contexts."""
        if not keep:
            for layer in self.layers:
                x = layer.forward(x)[0]
            return x, None
        ctx = []
        for layer in self.layers:
            x, c = layer.forward(x, True, groups)
            ctx.append(c)
        return x, ctx

    def backward(self, ctx, g, need_input_grad=True):
        """The chain's one backward loop: ``(grad_x, *grads)``, the weight
        gradients in :meth:`parameters` order."""
        grads = []
        for i in range(len(self.layers) - 1, -1, -1):
            g, *own = self.layers[i].backward(ctx[i], g, need_input_grad or i > 0)
            grads[:0] = own
        return (g, *grads)

    def parameters(self) -> List[Parameter]:
        return list(self._parameters)

    def output_shape(self, input_shape):
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def summary(self, input_shape) -> str:
        """Per-layer table of output shapes and parameter counts."""
        lines = [f"{'layer':<16}{'output shape':<24}{'params':>10}"]
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(f"{layer.name:<16}{str(shape):<24}{layer.num_parameters():>10,}")
        lines.append(f"{'total':<16}{'':<24}{self.num_parameters():>10,}")
        return "\n".join(lines)
